//! 64-bit Mersenne Twister (MT19937-64), after Nishimura & Matsumoto's
//! reference implementation `mt19937-64.c`.
//!
//! The Mrs `random()` method exploits the large Mersenne Twister state to
//! absorb "around 300 arguments that are each 64-bit integers" (§IV-A); the
//! 64-bit variant's 312-word state is what makes that bound concrete, so the
//! [`crate::StreamFactory`] is built on this generator.
//!
//! Every task derives at least one stream, so [`Mt19937_64::from_key`] is
//! on the hot path of every stochastic program, and it computes exactly
//! what `init_by_array64` does with less work:
//!
//! * `init_by_array64` first seeds the state with `init_genrand64(19650218)`,
//!   which does not depend on the key. That state is a `const`, built at
//!   compile time by the same `const fn` that [`Mt19937_64::new`] runs.
//! * Each absorption step reads the word the previous step just wrote. The
//!   loops carry that word in a local (`prev`), including across the wrap
//!   where the reference copies `mt[NN-1]` to `mt[0]` for the next step, so
//!   the chain from one step to the next is the multiply rather than a
//!   store followed by a reload of the same word.
//!
//! [`Mt19937_64::next_u64`] inlines into its callers; the state refill,
//! once every 312 draws, stays out of line.

const NN: usize = 312;
const MM: usize = 156;
const MATRIX_A: u64 = 0xB502_6F5A_A966_19E9;
const UM: u64 = 0xFFFF_FFFF_8000_0000;
const LM: u64 = 0x0000_0000_7FFF_FFFF;

/// The state `init_genrand64(seed)` leaves behind.
const fn genrand_state(seed: u64) -> [u64; NN] {
    let mut mt = [0u64; NN];
    mt[0] = seed;
    let mut i = 1;
    while i < NN {
        mt[i] = 6_364_136_223_846_793_005u64
            .wrapping_mul(mt[i - 1] ^ (mt[i - 1] >> 62))
            .wrapping_add(i as u64);
        i += 1;
    }
    mt
}

/// Where every `init_by_array64` starts: `init_genrand64(19650218)`.
const KEY_BASE: [u64; NN] = genrand_state(19_650_218);

/// One step of the twist: the upper bit of `upper` and the lower bits of
/// `lower`, shifted, with `MATRIX_A` mixed in when the result is odd.
#[inline]
fn twist(upper: u64, lower: u64) -> u64 {
    let x = (upper & UM) | (lower & LM);
    (x >> 1) ^ ((x & 1).wrapping_neg() & MATRIX_A)
}

/// The 64-bit Mersenne Twister.
#[derive(Clone)]
pub struct Mt19937_64 {
    mt: [u64; NN],
    mti: usize,
}

impl std::fmt::Debug for Mt19937_64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mt19937_64").field("mti", &self.mti).finish_non_exhaustive()
    }
}

impl Mt19937_64 {
    /// Seed with a single 64-bit value (`init_genrand64`).
    pub fn new(seed: u64) -> Self {
        Mt19937_64 { mt: genrand_state(seed), mti: NN }
    }

    /// Seed with an array of 64-bit values (`init_by_array64`).
    ///
    /// The state is 312 words, so key tuples of up to ~312 distinct 64-bit
    /// values are folded in without aliasing — this is the paper's "around
    /// 300 arguments" bound.
    pub fn from_key(key: &[u64]) -> Self {
        let mut mt = KEY_BASE;
        let mut i = 1usize;
        let mut j = 0usize;
        // `prev` is the word the last step wrote: the reference's `mt[i - 1]`.
        let mut prev = mt[0];
        for _ in 0..NN.max(key.len()) {
            prev = (mt[i] ^ (prev ^ (prev >> 62)).wrapping_mul(3_935_559_000_370_003_845))
                .wrapping_add(key[j])
                .wrapping_add(j as u64);
            mt[i] = prev;
            i += 1;
            j += 1;
            if i >= NN {
                // The reference copies `mt[NN-1]` to `mt[0]` here for the
                // next step to read; `prev` already holds it, and nothing
                // else reads `mt[0]` before the last line overwrites it.
                i = 1;
            }
            if j >= key.len() {
                j = 0;
            }
        }
        for _ in 1..NN {
            prev = (mt[i] ^ (prev ^ (prev >> 62)).wrapping_mul(2_862_933_555_777_941_757))
                .wrapping_sub(i as u64);
            mt[i] = prev;
            i += 1;
            if i >= NN {
                i = 1;
            }
        }
        mt[0] = 1u64 << 63; // MSB is 1, assuring a non-zero initial state
        Mt19937_64 { mt, mti: NN }
    }

    #[inline(never)]
    fn refill(&mut self) {
        let mt = &mut self.mt;
        for i in 0..NN - MM {
            mt[i] = mt[i + MM] ^ twist(mt[i], mt[i + 1]);
        }
        for i in NN - MM..NN - 1 {
            mt[i] = mt[i + MM - NN] ^ twist(mt[i], mt[i + 1]);
        }
        mt[NN - 1] = mt[MM - 1] ^ twist(mt[NN - 1], mt[0]);
        self.mti = 0;
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if self.mti >= NN {
            self.refill();
        }
        let mut x = self.mt[self.mti];
        self.mti += 1;
        x ^= (x >> 29) & 0x5555_5555_5555_5555;
        x ^= (x << 17) & 0x71D6_7FFF_EDA6_0000;
        x ^= (x << 37) & 0xFFF7_EEE0_0000_0000;
        x ^= x >> 43;
        x
    }
}

impl crate::dist::Rng64 for Mt19937_64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Mt19937_64::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpp_standard_10000th_value() {
        // [rand.predef]: the 10000th consecutive invocation of a default-
        // constructed std::mt19937_64 shall produce 9981545732273789042.
        let mut g = Mt19937_64::new(5489);
        let mut last = 0;
        for _ in 0..10_000 {
            last = g.next_u64();
        }
        assert_eq!(last, 9_981_545_732_273_789_042);
    }

    #[test]
    fn init_by_array64_matches_the_reference_outputs() {
        // `mt19937-64.c`'s own test: the first outputs it prints after
        // `init_by_array64({0x12345, 0x23456, 0x34567, 0x45678}, 4)`.
        let mut g = Mt19937_64::from_key(&[0x12345, 0x23456, 0x34567, 0x45678]);
        let got: Vec<u64> = (0..5).map(|_| g.next_u64()).collect();
        assert_eq!(
            got,
            [
                7_266_447_313_870_364_031,
                4_946_485_549_665_804_864,
                16_945_909_448_695_747_420,
                16_394_063_075_524_226_720,
                4_873_882_236_456_199_058,
            ]
        );
    }

    #[test]
    fn key_base_is_init_genrand64_of_19650218() {
        // Written out again rather than calling `genrand_state`, so that a
        // wrong base and a wrong `new` each fail on their own.
        let mut mt = vec![19_650_218u64];
        for i in 1..NN as u64 {
            let p = mt[mt.len() - 1];
            mt.push(6_364_136_223_846_793_005u64.wrapping_mul(p ^ (p >> 62)).wrapping_add(i));
        }
        assert_eq!(KEY_BASE[..], mt[..]);
        assert_eq!(Mt19937_64::new(19_650_218).mt[..], mt[..]);
    }

    #[test]
    fn key_seeding_differs_from_scalar_seeding() {
        let mut a = Mt19937_64::new(7);
        let mut b = Mt19937_64::from_key(&[7]);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn key_order_matters() {
        let mut a = Mt19937_64::from_key(&[1, 2]);
        let mut b = Mt19937_64::from_key(&[2, 1]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn long_keys_are_absorbed() {
        // Two 300-word keys differing only in the last element must produce
        // different streams — the paper's ~300-argument claim.
        let mut k1: Vec<u64> = (0..300).collect();
        let k2 = {
            let mut v = k1.clone();
            *v.last_mut().unwrap() = 999;
            v
        };
        k1[0] = 0;
        let mut a = Mt19937_64::from_key(&k1);
        let mut b = Mt19937_64::from_key(&k2);
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }
}
