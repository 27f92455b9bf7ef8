//! A dependency-free LZ4-style block codec.
//!
//! Same token scheme as the LZ4 block format: each sequence is a token
//! byte whose high nibble is the literal-run length and low nibble the
//! match length minus [`MIN_MATCH`] (both nibbles saturate at 15 and
//! continue in 255-steps), followed by the literals, a 2-byte
//! little-endian backwards offset, and any match-length continuation.
//! The final sequence carries literals only. The compressor uses a
//! single-probe hash table over 4-byte windows — the classic
//! fast-compressor design point: compression is one pass and
//! decompression is a straight memcpy loop, which is what a shuffle
//! payload path wants (compress once, decompress on every fetch).
//!
//! The decompressor is fully bounds-checked and never panics on corrupt
//! input; callers pass the expected output size (recorded in the frame
//! header) so a corrupt stream cannot trigger unbounded allocation.

/// Shortest match worth encoding; offsets below this never pay.
const MIN_MATCH: usize = 4;

/// Hash-table size (log2). 4096 entries keeps the table L1-resident.
const HASH_BITS: u32 = 12;

/// Last bytes of a block are always emitted as literals (matching them
/// would complicate the tail bounds checks for no measurable gain).
const TAIL_LITERALS: usize = 5;

/// After `n` consecutive probe misses the scan advances `1 + (n >> 5)`
/// bytes: 32 misses in a row say the region is incompressible, and
/// probing every byte of it is the whole cost of encoding float or key
/// payloads (LZ4's skip trigger, one notch more eager).
const SKIP_SHIFT: u32 = 5;

#[inline]
fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Append `n` in the nibble-then-255s length encoding: callers have
/// already written the nibble (min(n,15)); this emits the continuation
/// bytes for `n >= 15`.
fn push_length(mut n: usize, out: &mut Vec<u8>) {
    if n < 15 {
        return;
    }
    n -= 15;
    while n >= 255 {
        out.push(255);
        n -= 255;
    }
    out.push(n as u8);
}

/// Compress `input` into a fresh buffer. Always succeeds; incompressible
/// input degrades to one literal run with ~1 byte of overhead per 255
/// bytes of input.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut out);
    out
}

/// [`compress`], appending the block to `out` (behind a frame header the
/// caller reserved, say) instead of returning a buffer of its own.
pub(crate) fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    compress_with_skip(input, SKIP_SHIFT, out)
}

/// [`compress_into`] with the skip-ahead shift as a parameter, so the
/// tests can compare against the probe-every-byte encoder (a shift no
/// miss count reaches).
#[inline]
fn compress_with_skip(input: &[u8], skip_shift: u32, out: &mut Vec<u8>) {
    let n = input.len();
    if n == 0 {
        return;
    }
    let mut table = [0usize; 1 << HASH_BITS];
    let mut anchor = 0usize; // start of the pending literal run
    let mut pos = 0usize;
    let mut misses = 0usize; // consecutive probes that found no match
    let match_limit = n.saturating_sub(TAIL_LITERALS);
    while pos + MIN_MATCH <= match_limit {
        let h = hash4(&input[pos..]);
        let candidate = table[h];
        table[h] = pos + 1; // store pos+1 so 0 means "empty"
        let cand = candidate.wrapping_sub(1);
        let is_match = candidate != 0
            && pos - cand <= u16::MAX as usize
            && input[cand..cand + MIN_MATCH] == input[pos..pos + MIN_MATCH];
        if !is_match {
            pos += 1 + (misses >> skip_shift);
            misses += 1;
            continue;
        }
        misses = 0;
        // Extend the match as far as it goes (bounded by the tail guard).
        let mut len = MIN_MATCH;
        while pos + len < match_limit && input[cand + len] == input[pos + len] {
            len += 1;
        }
        let literals = pos - anchor;
        let token = ((literals.min(15) as u8) << 4) | (len - MIN_MATCH).min(15) as u8;
        out.push(token);
        push_length(literals, out);
        out.extend_from_slice(&input[anchor..pos]);
        out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
        push_length(len - MIN_MATCH, out);
        pos += len;
        anchor = pos;
    }
    // Final literal-only sequence.
    let literals = n - anchor;
    out.push((literals.min(15) as u8) << 4);
    push_length(literals, out);
    out.extend_from_slice(&input[anchor..]);
}

/// Why a block failed to decompress. All variants indicate a corrupt or
/// truncated stream; none can panic or over-allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzError {
    /// Ran off the end of the compressed stream.
    Truncated,
    /// A match offset points before the start of the output.
    BadOffset,
    /// Output did not come out exactly `expected` bytes long.
    WrongLength { expected: usize, got: usize },
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzError::Truncated => write!(f, "truncated compressed block"),
            LzError::BadOffset => write!(f, "match offset before start of output"),
            LzError::WrongLength { expected, got } => {
                write!(f, "decompressed to {got} bytes, header said {expected}")
            }
        }
    }
}

fn read_length(base: usize, input: &[u8], pos: &mut usize) -> Result<usize, LzError> {
    let mut n = base;
    if base == 15 {
        loop {
            let b = *input.get(*pos).ok_or(LzError::Truncated)?;
            *pos += 1;
            n += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(n)
}

/// Decompress a block produced by [`compress`]. `expected` is the
/// original length (from the frame header); it bounds the output
/// allocation and is verified at the end.
pub fn decompress(input: &[u8], expected: usize) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::with_capacity(expected);
    let mut pos = 0usize;
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        let literals = read_length((token >> 4) as usize, input, &mut pos)?;
        let lit_end = pos.checked_add(literals).ok_or(LzError::Truncated)?;
        if lit_end > input.len() {
            return Err(LzError::Truncated);
        }
        if out.len() + literals > expected {
            return Err(LzError::WrongLength { expected, got: out.len() + literals });
        }
        out.extend_from_slice(&input[pos..lit_end]);
        pos = lit_end;
        if pos == input.len() {
            break; // final literal-only sequence
        }
        let off_bytes = input.get(pos..pos + 2).ok_or(LzError::Truncated)?;
        let offset = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
        pos += 2;
        let len = MIN_MATCH + read_length((token & 0x0f) as usize, input, &mut pos)?;
        if offset == 0 || offset > out.len() {
            return Err(LzError::BadOffset);
        }
        if out.len() + len > expected {
            return Err(LzError::WrongLength { expected, got: out.len() + len });
        }
        // Overlapping copies are the point (offset < len repeats a
        // pattern), so this must be byte-by-byte from the back reference.
        let start = out.len() - offset;
        for i in 0..len {
            let b = out[start + i];
            out.push(b);
        }
    }
    if out.len() != expected {
        return Err(LzError::WrongLength { expected, got: out.len() });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c, data.len()).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn roundtrips_basic_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(b"the quick brown fox jumps over the lazy dog");
        roundtrip(&vec![0u8; 100_000]);
        roundtrip("ratatatatatatatata".repeat(50).as_bytes());
    }

    #[test]
    fn repetitive_input_shrinks() {
        let data = "alpha beta gamma delta ".repeat(500);
        let c = compress(data.as_bytes());
        assert!(c.len() * 4 < data.len(), "{} vs {}", c.len(), data.len());
    }

    #[test]
    fn incompressible_input_has_bounded_overhead() {
        // A pseudo-random byte string: no 4-byte window repeats usefully.
        let mut x = 0x9e3779b97f4a7c15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 255 + 16);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    /// SplitMix64 output stream as bytes: nothing for the matcher to find.
    fn splitmix_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&next().to_le_bytes());
        }
        out.truncate(n);
        out
    }

    #[test]
    fn random_megabyte_stays_within_half_a_percent() {
        let data = splitmix_bytes(1, 1 << 20);
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 200, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    /// Skipping ahead through miss streaks must not cost compressible
    /// payloads their ratio: a WordCount-shaped bucket (length-prefixed
    /// Zipf-distributed words, 8-byte counts) encodes within 0.01 of the
    /// probe-every-byte encoder.
    #[test]
    fn zipf_text_ratio_matches_the_no_skip_encoder() {
        const VOCAB: usize = 1000;
        let cumulative: Vec<f64> = (1..=VOCAB)
            .scan(0.0, |acc, rank| {
                *acc += 1.0 / rank as f64;
                Some(*acc)
            })
            .collect();
        let total = cumulative[VOCAB - 1];
        let mut data = Vec::new();
        for draw in splitmix_bytes(7, 8 * 40_000).chunks_exact(8) {
            let u = u64::from_le_bytes(draw.try_into().unwrap()) as f64 / u64::MAX as f64;
            let rank = cumulative.partition_point(|&c| c < u * total).min(VOCAB - 1);
            let word = format!("word{rank}");
            data.push(word.len() as u8);
            data.extend_from_slice(word.as_bytes());
            data.push(8);
            data.extend_from_slice(&1u64.to_le_bytes());
        }
        let skip = compress(&data);
        let mut no_skip = Vec::new();
        compress_with_skip(&data, usize::BITS - 1, &mut no_skip);
        assert_eq!(decompress(&skip, data.len()).unwrap(), data);
        let ratio = |c: &[u8]| c.len() as f64 / data.len() as f64;
        assert!(
            (ratio(&skip) - ratio(&no_skip)).abs() <= 0.01,
            "skip {} vs no-skip {}",
            ratio(&skip),
            ratio(&no_skip)
        );
    }

    #[test]
    fn long_literal_runs_and_long_matches() {
        // >15 literals (nibble continuation) and >19-byte match
        // (match-length continuation) in one stream.
        let mut data = Vec::new();
        data.extend((0..300u32).flat_map(|i| i.to_le_bytes())); // literals
        data.extend(std::iter::repeat_n(7u8, 1000)); // one huge match
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let data = "repeat repeat repeat repeat repeat".repeat(20);
        let good = compress(data.as_bytes());
        // Truncations at every length.
        for cut in 0..good.len() {
            let _ = decompress(&good[..cut], data.len());
        }
        // Wrong expected size is caught.
        assert!(decompress(&good, data.len() + 1).is_err());
        assert!(decompress(&good, data.len().saturating_sub(1)).is_err());
    }
}
