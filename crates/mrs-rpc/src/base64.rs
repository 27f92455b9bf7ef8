//! RFC 4648 base64 (standard alphabet, `=` padding).
//!
//! XML-RPC carries binary payloads as `<base64>` elements; this is the
//! codec for them, written from scratch like the rest of the wire layer.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode bytes to base64 text.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    encode_into(data, &mut out);
    out
}

/// Append the base64 text of `data` to `out`.
pub fn encode_into(data: &[u8], out: &mut String) {
    out.reserve(data.len().div_ceil(3) * 4);
    let mut chunks = data.chunks_exact(3);
    for c in &mut chunks {
        let n = u32::from(c[0]) << 16 | u32::from(c[1]) << 8 | u32::from(c[2]);
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(ALPHABET[(n >> 6) as usize & 63] as char);
        out.push(ALPHABET[n as usize & 63] as char);
    }
    match chunks.remainder() {
        [a] => {
            let n = u32::from(*a) << 16;
            out.push(ALPHABET[(n >> 18) as usize & 63] as char);
            out.push(ALPHABET[(n >> 12) as usize & 63] as char);
            out.push_str("==");
        }
        [a, b] => {
            let n = u32::from(*a) << 16 | u32::from(*b) << 8;
            out.push(ALPHABET[(n >> 18) as usize & 63] as char);
            out.push(ALPHABET[(n >> 12) as usize & 63] as char);
            out.push(ALPHABET[(n >> 6) as usize & 63] as char);
            out.push('=');
        }
        _ => {}
    }
}

/// Each byte's symbol value, or [`NOT_A_SYMBOL`].
const SYMBOLS: [u8; 256] = {
    let mut table = [NOT_A_SYMBOL; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

const NOT_A_SYMBOL: u8 = 0xff;

/// Decode base64 text (whitespace tolerated, as XML often wraps lines),
/// in one pass: each group of four symbols is three bytes.
pub fn decode(text: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let (mut group, mut held, mut padding) = (0u32, 0usize, 0usize);
    for &b in text.as_bytes() {
        match SYMBOLS[usize::from(b)] {
            NOT_A_SYMBOL if b == b'=' => padding += 1,
            NOT_A_SYMBOL if b.is_ascii_whitespace() => {}
            NOT_A_SYMBOL => return None,
            // Data after padding.
            _ if padding > 0 => return None,
            sym => {
                group = group << 6 | u32::from(sym);
                held += 1;
                if held == 4 {
                    out.extend_from_slice(&[(group >> 16) as u8, (group >> 8) as u8, group as u8]);
                    (group, held) = (0, 0);
                }
            }
        }
    }
    if !(held + padding).is_multiple_of(4) || padding > 2 {
        return None;
    }
    match held {
        0 => {}
        2 => out.push((group >> 4) as u8),
        3 => out.extend_from_slice(&[(group >> 10) as u8, (group >> 2) as u8]),
        _ => return None, // single leftover symbol is invalid
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rfc_vectors() {
        // RFC 4648 §10 test vectors.
        let cases = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, enc) in cases {
            assert_eq!(encode(plain.as_bytes()), enc);
            assert_eq!(decode(enc).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn decode_tolerates_whitespace() {
        assert_eq!(decode("Zm9v\nYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode("!!!!").is_none());
        assert!(decode("Zg=").is_none()); // wrong length
        assert!(decode("Zg==Zg==").is_none()); // data after padding
        assert!(decode("Z===").is_none()); // too much padding
        assert!(decode("A").is_none()); // dangling symbol
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assert_eq!(decode(&encode(&data)).unwrap(), data);
        }
    }
}
