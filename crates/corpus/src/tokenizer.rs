//! The WordCount tokenizer and a framework-independent reference counter.
//!
//! Program 1 tokenizes with `value.split()`; this module provides the same
//! splitting plus an exact reference count so every runtime's WordCount
//! output can be validated against ground truth.

use std::collections::HashMap;

/// Split a line exactly like the paper's `value.split()`, which is
/// `str::split_whitespace`: the same tokens, found by scanning bytes. A
/// token is scanned 8 bytes at a time up to the first byte that could end
/// it (below `!` or not ASCII); an ASCII byte is classified by one bit
/// test, and only a non-ASCII byte decodes its char.
pub fn tokenize(line: &str) -> impl Iterator<Item = &str> {
    Tokens { rest: line }
}

/// Bits 9..=13 and 32: the six ASCII chars `char::is_whitespace` accepts
/// (`\t \n \x0B \x0C \r` and space). `split_ascii_whitespace` would miss
/// the vertical tab, `\x0B`.
const ASCII_SPACE: u64 = 1 << 32 | 0x3E00;

/// Is the ASCII byte `b` whitespace?
#[inline]
fn ascii_space(b: u8) -> bool {
    b <= b' ' && ASCII_SPACE >> b & 1 == 1
}

/// `0x01` in every byte.
const ONES: u64 = u64::MAX / 255;

/// The high bit of each byte of the little-endian word `w` that is below
/// `!` (0x21) or not ASCII: the bytes that may end a token. A borrow can
/// also flag bytes above a flagged one, so only the lowest flag is exact —
/// and only it is read.
#[inline]
fn stops(w: u64) -> u64 {
    (w.wrapping_sub(ONES * 0x21) & !w | w) & (ONES * 0x80)
}

/// The byte length of the non-ASCII char starting at byte `i` of `s`, and
/// whether it is whitespace; kept out of the scan loops.
#[inline(never)]
fn wide_char_at(s: &str, i: usize) -> (usize, bool) {
    let c = s[i..].chars().next().expect("a char starts at i");
    (c.len_utf8(), c.is_whitespace())
}

/// The iterator [`tokenize`] returns.
struct Tokens<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest;
        let b = s.as_bytes();
        let mut i = 0;
        let start = loop {
            match b.get(i) {
                None => {
                    self.rest = "";
                    return None;
                }
                Some(&c) if c.is_ascii() && !ascii_space(c) => break i,
                Some(&c) if c.is_ascii() => i += 1,
                Some(_) => match wide_char_at(s, i) {
                    (n, true) => i += n,
                    (_, false) => break i,
                },
            }
        };
        loop {
            if let Some(word) = b[i..].first_chunk::<8>() {
                match stops(u64::from_le_bytes(*word)) {
                    0 => {
                        i += 8;
                        continue;
                    }
                    m => i += m.trailing_zeros() as usize / 8,
                }
            }
            match b.get(i) {
                None => break,
                Some(&c) if c.is_ascii() && ascii_space(c) => break,
                Some(&c) if c.is_ascii() => i += 1,
                Some(_) => match wide_char_at(s, i) {
                    (_, true) => break,
                    (n, false) => i += n,
                },
            }
        }
        self.rest = &s[i..];
        Some(&s[start..i])
    }
}

/// Reference word counts over any sequence of lines (the bypass
/// implementation of WordCount).
pub fn reference_counts<'a, I: IntoIterator<Item = &'a str>>(lines: I) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for line in lines {
        for w in tokenize(line) {
            *counts.entry(w.to_owned()).or_insert(0) += 1;
        }
    }
    counts
}

/// Total tokens in a text.
pub fn token_count(text: &str) -> u64 {
    text.lines().map(|l| tokenize(l).count() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tokenize_collapses_whitespace() {
        let toks: Vec<&str> = tokenize("  a\t b   c ").collect();
        assert_eq!(toks, vec!["a", "b", "c"]);
    }

    /// Every char `char::is_whitespace` accepts, ASCII and not, plus
    /// near misses that it does not (U+001C..U+001F, U+200B).
    const SPACES: &[char] = &[
        '\t', '\n', '\u{0B}', '\u{0C}', '\r', ' ', '\u{85}', '\u{A0}', '\u{1680}', '\u{2000}',
        '\u{200A}', '\u{2028}', '\u{2029}', '\u{202F}', '\u{205F}', '\u{3000}', '\u{1C}', '\u{1F}',
        '\u{200B}',
    ];
    /// Non-space chars, among them the bytes around the 8-byte scan's
    /// cut-offs (`\0`, `\x01`, `!`, `\x7F`) and chars of 2, 3 and 4 bytes.
    const LETTERS: &[char] =
        &['a', 'Z', '0', '!', '~', '\0', '\x01', '\x7F', 'é', 'ß', '€', '語', '\u{10348}'];

    proptest! {
        /// One char in eight is a space, so tokens often span several
        /// 8-byte words.
        #[test]
        fn tokenize_is_split_whitespace(
            chars in proptest::collection::vec((0u8..8, 0usize..64), 0..80),
        ) {
            let line: String = chars
                .iter()
                .map(|&(kind, i)| match kind {
                    0 => SPACES[i % SPACES.len()],
                    _ => LETTERS[i % LETTERS.len()],
                })
                .collect();
            let got: Vec<&str> = tokenize(&line).collect();
            let want: Vec<&str> = line.split_whitespace().collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn reference_counts_sum() {
        let counts = reference_counts(["a b a", "b c", ""]);
        assert_eq!(counts.get("a"), Some(&2));
        assert_eq!(counts.get("b"), Some(&2));
        assert_eq!(counts.get("c"), Some(&1));
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn token_count_matches_reference_total() {
        let text = "x y z\nx x\n";
        let total: u64 = reference_counts(text.lines()).values().sum();
        assert_eq!(token_count(text), total);
        assert_eq!(total, 5);
    }
}
