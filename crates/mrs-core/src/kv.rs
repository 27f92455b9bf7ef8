//! The record model and the `Datum` codec.
//!
//! Python Mrs moves pickled objects; the Rust data plane moves raw bytes and
//! gives programs a typed view through [`Datum`], a small deterministic
//! binary codec (little-endian fixed ints, varint-length-prefixed strings
//! and sequences). Two properties matter for MapReduce correctness:
//!
//! 1. round-trip fidelity (`decode(encode(x)) == x`), and
//! 2. **order preservation for numeric keys**: encoded `u64`/`i64` keys
//!    compare byte-wise in the same order as the integers (big-endian with a
//!    sign-bias for `i64`). Sorting encoded records is always a *consistent*
//!    grouping order for any key type (equal keys are adjacent because the
//!    codec is deterministic), which is all that sort-and-group requires;
//!    byte order coincides with semantic order only for the integer keys.

use crate::error::{Error, Result};

/// A serialized key-value record: the unit of data-plane traffic.
pub type Record = (Vec<u8>, Vec<u8>);

/// Types that can serve as MapReduce keys or values.
///
/// Every type has an owned form (`Self`) and a [`Datum::View`]: what a
/// typed program emits and receives. A view borrows from the encoded
/// bytes where they can be read in place (`&str` for `String`, `&[u8]`
/// for `Vec<u8>`), and is the value itself where decoding has to rebuild
/// it (numbers, float vectors, user structs — see [`datum_owned_view!`]).
pub trait Datum: Sized {
    /// The form of `Self` a typed program emits and receives.
    type View<'a>;

    /// Append the encoding of a view to `buf`.
    fn encode_view(v: &Self::View<'_>, buf: &mut Vec<u8>);
    /// Decode a view from the front of `b`, returning it and the rest.
    fn view_from(b: &[u8]) -> Result<(Self::View<'_>, &[u8])>;
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode a value from the front of `b`, returning it and the rest.
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decode, requiring the entire slice to be consumed.
    fn from_bytes(b: &[u8]) -> Result<Self> {
        whole(Self::decode_from(b)?)
    }

    /// View, requiring the entire slice to be consumed.
    fn view(b: &[u8]) -> Result<Self::View<'_>> {
        whole(Self::view_from(b)?)
    }
}

/// [`Datum::View`] of `T`, spelled short for `MapReduce` signatures.
pub type View<'a, T> = <T as Datum>::View<'a>;

fn whole<T>((v, rest): (T, &[u8])) -> Result<T> {
    if rest.is_empty() {
        Ok(v)
    } else {
        Err(Error::Codec(format!("{} trailing bytes", rest.len())))
    }
}

/// The view half of a [`Datum`] impl for a type that is its own view:
/// decoding rebuilds the value, so there is nothing to borrow.
#[macro_export]
macro_rules! datum_owned_view {
    () => {
        type View<'a> = Self;
        #[inline]
        fn encode_view(v: &Self, buf: &mut Vec<u8>) {
            v.encode(buf)
        }
        #[inline]
        fn view_from(b: &[u8]) -> $crate::Result<(Self, &[u8])> {
            Self::decode_from(b)
        }
    };
}

/// LEB128 unsigned varint.
#[inline]
pub fn write_varint(mut v: u64, buf: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Bytes [`write_varint`] takes for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Read a LEB128 unsigned varint from the front of `b`.
#[inline]
pub fn read_varint(b: &[u8]) -> Result<(u64, &[u8])> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in b.iter().enumerate() {
        if shift >= 64 {
            return Err(Error::Codec("varint overflow".into()));
        }
        let bits = (byte & 0x7f) as u64;
        if shift == 63 && bits > 1 {
            return Err(Error::Codec("varint overflow".into()));
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok((v, &b[i + 1..]));
        }
        shift += 7;
    }
    Err(Error::Codec("truncated varint".into()))
}

#[inline]
fn take<'a>(b: &'a [u8], n: usize, what: &str) -> Result<(&'a [u8], &'a [u8])> {
    if b.len() < n {
        return Err(Error::Codec(format!("truncated {what}: need {n}, have {}", b.len())));
    }
    Ok(b.split_at(n))
}

impl Datum for u64 {
    datum_owned_view!();
    // Big-endian so that byte-wise ordering of encoded keys matches numeric
    // ordering — required by sort-and-group.
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    #[inline]
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (head, rest) = take(b, 8, "u64")?;
        Ok((u64::from_be_bytes(head.try_into().expect("len checked")), rest))
    }
}

impl Datum for u32 {
    datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (head, rest) = take(b, 4, "u32")?;
        Ok((u32::from_be_bytes(head.try_into().expect("len checked")), rest))
    }
}

impl Datum for i64 {
    datum_owned_view!();
    // Sign-flip bias keeps byte order == numeric order.
    fn encode(&self, buf: &mut Vec<u8>) {
        ((*self as u64) ^ (1u64 << 63)).encode(buf);
    }
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (raw, rest) = u64::decode_from(b)?;
        Ok(((raw ^ (1u64 << 63)) as i64, rest))
    }
}

impl Datum for f64 {
    datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (head, rest) = take(b, 8, "f64")?;
        Ok((f64::from_bits(u64::from_le_bytes(head.try_into().expect("len checked"))), rest))
    }
}

impl Datum for bool {
    datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (head, rest) = take(b, 1, "bool")?;
        match head[0] {
            0 => Ok((false, rest)),
            1 => Ok((true, rest)),
            x => Err(Error::Codec(format!("bad bool byte {x}"))),
        }
    }
}

impl Datum for String {
    type View<'a> = &'a str;
    #[inline]
    fn encode_view(v: &&str, buf: &mut Vec<u8>) {
        <Vec<u8>>::encode_view(&v.as_bytes(), buf);
    }
    #[inline]
    fn view_from(b: &[u8]) -> Result<(&str, &[u8])> {
        let (head, rest) = <Vec<u8>>::view_from(b)?;
        let s =
            std::str::from_utf8(head).map_err(|e| Error::Codec(format!("invalid utf-8: {e}")))?;
        Ok((s, rest))
    }
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        Self::encode_view(&self.as_str(), buf);
    }
    #[inline]
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        Self::view_from(b).map(|(s, rest)| (s.to_owned(), rest))
    }
}

impl Datum for Vec<u8> {
    type View<'a> = &'a [u8];
    #[inline]
    fn encode_view(v: &&[u8], buf: &mut Vec<u8>) {
        write_varint(v.len() as u64, buf);
        buf.extend_from_slice(v);
    }
    #[inline]
    fn view_from(b: &[u8]) -> Result<(&[u8], &[u8])> {
        let (len, rest) = read_varint(b)?;
        take(rest, len as usize, "bytes")
    }
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        Self::encode_view(&self.as_slice(), buf);
    }
    #[inline]
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        Self::view_from(b).map(|(v, rest)| (v.to_vec(), rest))
    }
}

/// A varint count followed by that many 8-byte elements, each laid out as
/// the element's own [`Datum`] encoding. Both directions move the elements
/// as one block: a single resize (encode) or a single exact allocation
/// (decode), with no per-element length checks or buffer growth.
macro_rules! seq_datum {
    ($elem:ty, $to_bytes:expr, $from_bytes:expr) => {
        impl Datum for Vec<$elem> {
            datum_owned_view!();
            fn encode(&self, buf: &mut Vec<u8>) {
                write_varint(self.len() as u64, buf);
                let start = buf.len();
                buf.resize(start + 8 * self.len(), 0);
                for (out, x) in buf[start..].chunks_exact_mut(8).zip(self) {
                    out.copy_from_slice(&$to_bytes(x));
                }
            }
            fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
                let (len, rest) = read_varint(b)?;
                // Each element takes 8 bytes: reject (and never allocate
                // for) a length claim the remaining input cannot satisfy.
                if len > rest.len() as u64 / 8 {
                    let elem = stringify!($elem);
                    return Err(Error::Codec(format!("{elem} seq length {len} exceeds input")));
                }
                let (body, rest) = rest.split_at(8 * len as usize);
                let v = body
                    .chunks_exact(8)
                    .map(|c| $from_bytes(c.try_into().expect("8-byte chunk")))
                    .collect();
                Ok((v, rest))
            }
        }
    };
}
seq_datum!(f64, |x: &f64| x.to_bits().to_le_bytes(), |b| f64::from_bits(u64::from_le_bytes(b)));
seq_datum!(u64, |x: &u64| x.to_be_bytes(), u64::from_be_bytes);

impl Datum for () {
    datum_owned_view!();
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        Ok(((), b))
    }
}

/// Fields back to back; a tuple's view is the tuple of its fields' views.
macro_rules! tuple_datum {
    ($($T:ident $x:ident $i:tt),+) => {
        impl<$($T: Datum),+> Datum for ($($T,)+) {
            type View<'a> = ($($T::View<'a>,)+);
            fn encode_view(v: &Self::View<'_>, buf: &mut Vec<u8>) {
                $($T::encode_view(&v.$i, buf);)+
            }
            fn view_from(b: &[u8]) -> Result<(Self::View<'_>, &[u8])> {
                $(let ($x, b) = $T::view_from(b)?;)+
                Ok((($($x,)+), b))
            }
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$i.encode(buf);)+
            }
            fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
                $(let ($x, b) = $T::decode_from(b)?;)+
                Ok((($($x,)+), b))
            }
        }
    };
}
tuple_datum!(A x 0, B y 1);
tuple_datum!(A x 0, B y 1, C z 2);

/// Encode a typed pair into a raw [`Record`].
pub fn encode_record<K: Datum, V: Datum>(k: &K, v: &V) -> Record {
    (k.to_bytes(), v.to_bytes())
}

/// Decode a raw [`Record`] into a typed pair.
pub fn decode_record<K: Datum, V: Datum>(r: &Record) -> Result<(K, V)> {
    Ok((K::from_bytes(&r.0)?, V::from_bytes(&r.1)?))
}

/// Write `(k, v)` into `rec` in place: into its own key and value
/// buffers, each reallocated only when it is too small. The driver edges
/// write an answer over the records a driver handed in this way, so it
/// costs no allocation per record.
pub fn overwrite_record(rec: &mut Record, k: &[u8], v: &[u8]) {
    rec.0.clear();
    rec.0.extend_from_slice(k);
    rec.1.clear();
    rec.1.extend_from_slice(v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round<T: Datum + PartialEq + std::fmt::Debug>(x: T) {
        let b = x.to_bytes();
        assert_eq!(T::from_bytes(&b).unwrap(), x);
    }

    #[test]
    fn roundtrip_primitives() {
        round(0u64);
        round(u64::MAX);
        round(42u32);
        round(-17i64);
        round(i64::MIN);
        round(3.25f64);
        round(f64::NEG_INFINITY);
        round(true);
        round(false);
        round(String::from("héllo, wörld"));
        round(String::new());
        round(vec![0u8, 255, 3]);
        round(vec![1.5f64, -2.5]);
        round(vec![7u64, 8, 9]);
        round(());
        round((1u64, String::from("x")));
        round((1u64, 2.0f64, String::from("z")));
    }

    /// Both halves of the view contract on `x`'s encoding `b`: the view
    /// re-encodes to exactly `b` (`encode_view(view(b)) == b`), and made
    /// owned again it is `x` (`view(encode(x)) == x`, compared through the
    /// injective encoding so NaN payloads count too).
    fn view_round<T: Datum>(x: T, owned: impl Fn(T::View<'_>) -> T) {
        let b = x.to_bytes();
        let v = T::view(&b).unwrap();
        let mut again = Vec::new();
        T::encode_view(&v, &mut again);
        assert_eq!(again, b);
        assert_eq!(owned(v).to_bytes(), b);
        // A view never reads past its own encoding.
        let mut longer = b.clone();
        longer.push(0);
        assert!(matches!(T::view(&longer), Err(Error::Codec(_))));
        assert_eq!(T::view_from(&longer).unwrap().1, [0]);
    }

    #[test]
    fn views_of_borrowable_types_borrow_the_input() {
        let b = String::from("héllo").to_bytes();
        let s = String::view(&b).unwrap();
        assert_eq!(s, "héllo");
        assert!(b.as_ptr_range().contains(&s.as_ptr()));
        // Nested tuples view each field where it lies.
        let nested = (7u64, (String::new(), vec![9u8])).to_bytes();
        let (n, (s, raw)) = <(u64, (String, Vec<u8>))>::view(&nested).unwrap();
        assert_eq!((n, s, raw), (7, "", &[9u8][..]));
    }

    #[test]
    fn views_reject_invalid_utf8_as_codec_errors() {
        let mut bad = Vec::new();
        write_varint(2, &mut bad);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(String::view(&bad), Err(Error::Codec(_))));
        let mut pair = 5u64.to_bytes();
        pair.extend_from_slice(&bad);
        assert!(matches!(<(u64, String)>::view(&pair), Err(Error::Codec(_))));
        // The same bytes are a fine `Vec<u8>`.
        assert_eq!(<Vec<u8>>::view(&bad).unwrap(), [0xff, 0xfe]);
    }

    #[test]
    fn u64_encoding_preserves_order() {
        let pairs = [(0u64, 1u64), (1, 2), (255, 256), (u64::MAX - 1, u64::MAX), (7, 70)];
        for (a, b) in pairs {
            assert!(a.to_bytes() < b.to_bytes(), "{a} vs {b}");
        }
    }

    #[test]
    fn i64_encoding_preserves_order() {
        let vals = [i64::MIN, -1000, -1, 0, 1, 1000, i64::MAX];
        for w in vals.windows(2) {
            assert!(w[0].to_bytes() < w[1].to_bytes(), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut b = 5u64.to_bytes();
        b.push(0);
        assert!(u64::from_bytes(&b).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let b = String::from("hello").to_bytes();
        assert!(String::from_bytes(&b[..3]).is_err());
        assert!(u64::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let mut b = Vec::new();
        write_varint(2, &mut b);
        b.extend_from_slice(&[0xff, 0xfe]);
        assert!(String::from_bytes(&b).is_err());
    }

    #[test]
    fn bad_bool_byte_rejected() {
        assert!(bool::from_bytes(&[2]).is_err());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut b = Vec::new();
            write_varint(v, &mut b);
            let (back, rest) = read_varint(&b).unwrap();
            assert_eq!(back, v);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 bytes of continuation encodes > 64 bits.
        let b = [0xffu8; 11];
        assert!(read_varint(&b).is_err());
    }

    #[test]
    fn varint_tenth_byte_boundary_at_shift_63() {
        // u64::MAX is the largest representable value: nine full bytes plus
        // a tenth carrying the single remaining bit (shift == 63).
        let mut b = Vec::new();
        write_varint(u64::MAX, &mut b);
        assert_eq!(b, [&[0xffu8; 9][..], &[0x01]].concat());
        let (v, rest) = read_varint(&b).unwrap();
        assert_eq!(v, u64::MAX);
        assert!(rest.is_empty());
        // Any payload beyond that one bit in the tenth byte overflows and
        // must be rejected, not silently wrapped.
        for tenth in [0x02u8, 0x03, 0x7f] {
            let over = [&[0xffu8; 9][..], &[tenth]].concat();
            assert!(read_varint(&over).is_err(), "tenth byte {tenth:#x}");
        }
    }

    #[test]
    fn varint_truncated_continuation_rejected() {
        // A continuation bit promising more bytes than the input has is a
        // truncation error at every length, including empty input.
        assert!(read_varint(&[]).is_err());
        for n in 1..10 {
            let b = vec![0x80u8; n];
            assert!(read_varint(&b).is_err(), "{n} dangling continuation bytes");
        }
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let x = f64::from_bits(0x7ff8_0000_0000_1234);
        let b = x.to_bytes();
        assert_eq!(f64::from_bytes(&b).unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn seq_encodings_are_pinned() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        assert_eq!(
            vec![-0.0f64, 1.0, nan].to_bytes(),
            [
                &[3u8][..],
                &[0, 0, 0, 0, 0, 0, 0, 0x80],
                &[0, 0, 0, 0, 0, 0, 0xf0, 0x3f],
                &[0x34, 0x12, 0, 0, 0, 0, 0xf8, 0x7f],
            ]
            .concat()
        );
        assert_eq!(
            vec![1u64, 256].to_bytes(),
            [2u8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0]
        );
        // Either side of the one-byte varint count.
        for (n, header) in [(127usize, &[0x7fu8][..]), (128, &[0x80, 0x01])] {
            let v: Vec<u64> = (0..n as u64).collect();
            let b = v.to_bytes();
            assert_eq!(&b[..header.len()], header);
            assert_eq!(b.len(), header.len() + 8 * n);
            assert_eq!(&b[b.len() - 8..], (n as u64 - 1).to_be_bytes());
            assert_eq!(Vec::<u64>::from_bytes(&b).unwrap(), v);
        }
    }

    /// The sequence codec one element at a time, through the element's
    /// own `Datum` impl: what the bulk codec must agree with.
    fn ref_encode<T: Datum>(v: &[T]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(v.len() as u64, &mut buf);
        for x in v {
            x.encode(&mut buf);
        }
        buf
    }

    fn ref_decode<T: Datum>(b: &[u8]) -> Result<(Vec<T>, &[u8])> {
        let (len, mut rest) = read_varint(b)?;
        if len > rest.len() as u64 / 8 {
            return Err(Error::Codec(format!("seq length {len} exceeds input")));
        }
        let mut v = Vec::new();
        for _ in 0..len {
            let (x, r) = T::decode_from(rest)?;
            v.push(x);
            rest = r;
        }
        Ok((v, rest))
    }

    /// Both decoders on `b`: the same verdict, and on success the same
    /// elements (compared through their encodings, so NaNs count) and rest.
    fn decoders_agree<T: Datum>(b: &[u8])
    where
        Vec<T>: Datum,
    {
        match (Vec::<T>::decode_from(b), ref_decode::<T>(b)) {
            (Ok((v, rest)), Ok((r, ref_rest))) => {
                assert_eq!(v.to_bytes(), ref_encode(&r));
                assert_eq!(rest, ref_rest);
            }
            (Err(Error::Codec(_)), Err(Error::Codec(_))) => {}
            (got, want) => panic!(
                "{} bytes: bulk {:?} vs reference {:?}",
                b.len(),
                got.map(|(v, _)| v.len()),
                want.map(|(v, _)| v.len())
            ),
        }
    }

    fn seq_agrees_with_reference<T: Datum + Clone>(v: &[T])
    where
        Vec<T>: Datum,
    {
        let b = v.to_vec().to_bytes();
        assert_eq!(b, ref_encode(v));
        // Every truncation, the whole encoding, and one trailing byte.
        for cut in 0..=b.len() {
            decoders_agree::<T>(&b[..cut]);
        }
        let mut longer = b.clone();
        longer.push(0xa5);
        decoders_agree::<T>(&longer);
        // Count claims over the same body: shorter ones leave a rest, and
        // every over-long one, from just past the body up to absurd, errs.
        let body = &b[b.len() - 8 * v.len()..];
        let n = v.len() as u64;
        let over = (n + 1..n + 10).chain([1 << 61, u64::MAX]);
        for claim in [0, n / 2, n.saturating_sub(1)].into_iter().chain(over) {
            let mut claimed = Vec::new();
            write_varint(claim, &mut claimed);
            claimed.extend_from_slice(body);
            decoders_agree::<T>(&claimed);
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_u64(x in any::<u64>()) {
            round(x);
        }

        #[test]
        fn prop_roundtrip_string(s in ".*") {
            round(s);
        }

        #[test]
        fn prop_roundtrip_f64_vec(v in proptest::collection::vec(any::<f64>(), 0..64)) {
            let b = v.to_bytes();
            let back = Vec::<f64>::from_bytes(&b).unwrap();
            prop_assert_eq!(v.len(), back.len());
            for (a, bb) in v.iter().zip(&back) {
                prop_assert_eq!(a.to_bits(), bb.to_bits());
            }
        }

        #[test]
        fn prop_seq_codec_matches_the_reference(
            bits in proptest::collection::vec(any::<u64>(), 0..600),
        ) {
            let floats: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            seq_agrees_with_reference(&floats);
            seq_agrees_with_reference(&bits);
        }

        #[test]
        fn prop_views_round_trip_every_datum(
            n in any::<u64>(),
            flag in any::<bool>(),
            s in ".*",
            raw in proptest::collection::vec(any::<u8>(), 0..48),
            bits in proptest::collection::vec(any::<u64>(), 0..16),
        ) {
            let floats: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            view_round(n, |v| v);
            view_round(n as u32, |v| v);
            view_round(n as i64, |v| v);
            view_round(f64::from_bits(n), |v| v);
            view_round(flag, |v| v);
            view_round((), |v| v);
            view_round(s.clone(), |v| v.to_owned());
            view_round(String::new(), |v| v.to_owned());
            view_round(raw.clone(), |v| v.to_vec());
            view_round(floats.clone(), |v| v);
            view_round(bits.clone(), |v| v);
            view_round((n, s.clone()), |(a, b)| (a, b.to_owned()));
            view_round((s, floats, raw), |(a, b, c)| (a.to_owned(), b, c.to_vec()));
        }

        #[test]
        fn prop_u64_order(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(a.cmp(&b), a.to_bytes().cmp(&b.to_bytes()));
        }

        #[test]
        fn prop_string_encoding_injective(a in ".*", b in ".*") {
            // Grouping correctness needs the codec to be injective: distinct
            // keys must have distinct encodings (and equal keys equal ones).
            prop_assert_eq!(a == b, a.to_bytes() == b.to_bytes());
        }

        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut b = Vec::new();
            write_varint(v, &mut b);
            let (back, rest) = read_varint(&b).unwrap();
            prop_assert_eq!(back, v);
            prop_assert!(rest.is_empty());
        }

        #[test]
        fn prop_varint_prefixes_always_rejected(v in any::<u64>()) {
            // Every byte of a varint except the last carries a continuation
            // bit, so every strict prefix must fail as truncated — a reader
            // can never mistake a cut-off length header for a short value.
            let mut b = Vec::new();
            write_varint(v, &mut b);
            for cut in 0..b.len() {
                prop_assert!(read_varint(&b[..cut]).is_err());
            }
        }

        #[test]
        fn prop_decode_garbage_never_panics(b in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = u64::from_bytes(&b);
            let _ = String::from_bytes(&b);
            let _ = Vec::<f64>::from_bytes(&b);
            let _ = <(u64, String)>::from_bytes(&b);
            let _ = <(u64, String, Vec<u8>)>::view(&b);
        }
    }
}
