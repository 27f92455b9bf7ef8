//! SplitMix64: a tiny, fast generator and mixing function.
//!
//! Used where a full Mersenne Twister would be overkill: hashing partition
//! keys, perturbing seeds, and cheap synthetic-data generation in the corpus
//! generator. The finalizer is Stafford's "Mix13" variant as used by
//! `java.util.SplittableRandom`.

/// SplitMix64 generator state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }
}

impl crate::dist::Rng64 for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

/// Stafford Mix13 finalizer: a strong 64-bit bijective mixing function.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash an arbitrary byte slice to a u64 using a SplitMix-based accumulator.
/// Deterministic across platforms; used for hash partitioning — once per
/// emitted record, so it is inlined (a constant seed's mix then folds
/// away) and the tail is folded byte by byte: a variable-length copy into
/// a zeroed buffer costs a `memcpy` call per WordCount-sized key.
#[inline]
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = mix64(seed ^ GOLDEN_GAMMA);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"));
        h = mix64(h ^ w);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let tail = rem.iter().enumerate().fold(0, |w, (i, &b)| w | (b as u64) << (8 * i));
        h = mix64(h ^ tail ^ (rem.len() as u64) << 56);
    }
    mix64(h ^ bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_first_output() {
        // SplitMix64 with seed 0: first output is the mix of GOLDEN_GAMMA.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), mix64(GOLDEN_GAMMA));
    }

    #[test]
    fn mix64_is_not_identity_and_spreads_bits() {
        // mix64 is a bijection fixing 0; any nonzero input must move.
        assert_eq!(mix64(0), 0);
        assert_ne!(mix64(1), 1);
        assert_ne!(mix64(1), mix64(2));
        // One-bit input changes should flip roughly half the output bits.
        let d = (mix64(1) ^ mix64(3)).count_ones();
        assert!(d > 16 && d < 48, "poor avalanche: {d} bits");
    }

    #[test]
    fn hash_bytes_distinguishes_length_and_content() {
        assert_ne!(hash_bytes(0, b"a"), hash_bytes(0, b"b"));
        assert_ne!(hash_bytes(0, b"ab"), hash_bytes(0, b"ab\0"));
        assert_ne!(hash_bytes(0, b""), hash_bytes(1, b""));
        // 8-byte boundary cases
        assert_ne!(hash_bytes(0, b"12345678"), hash_bytes(0, b"123456789"));
    }

    #[test]
    fn hash_bytes_tail_is_the_zero_padded_little_endian_word() {
        // Pinned values: partition assignment is part of every plane's
        // byte-identical output, so the hash may get cheaper, never other.
        assert_eq!(hash_bytes(0, b""), 0x4821_8226_ff3c_d4bf);
        assert_eq!(hash_bytes(7, b"the"), 0xc840_f9f1_1d48_f927);
        assert_eq!(hash_bytes(7, b"12345678"), 0x9c18_071e_f3ba_8ec7);
        assert_eq!(hash_bytes(7, b"123456789ab"), 0x2d50_4178_58b1_518e);
    }

    #[test]
    fn hash_bytes_is_deterministic() {
        assert_eq!(hash_bytes(42, b"hello world"), hash_bytes(42, b"hello world"));
    }
}
