//! On-disk record formats.
//!
//! * **Bucket files** (`.mrsb`): a small magic header followed by
//!   varint-length-prefixed key/value byte strings — the format written by
//!   map tasks and read by reduce tasks in the mock-parallel and
//!   distributed implementations.
//! * **Text input**: newline-separated text turned into `(line_no, line)`
//!   records, the WordCount input convention (§V-A: "the input key is …
//!   generally arbitrarily set to be the line number").
//!
//! The bucket readers are transparent to the `MRSF1` shuffle frame
//! (mrs-codec): a bucket that was framed for the wire — checksummed,
//! stored or compressed — decodes here just like a raw one, so
//! shared-filesystem stores and checkpoints can hold either. This module
//! is the one place that choice is made; the codec itself only opens
//! frames.
//!
//! The data plane copies each payload byte once. A producer frames a
//! bucket in place ([`frame_bucket`], [`frame_records`]): its records are
//! written straight behind a reserved frame header, sized exactly, and the
//! frame sealed over them. A consumer indexes an opened frame in place
//! ([`index_bucket`]): the received buffer becomes the bucket's arena and
//! only the offset table is built. One record walker serves that index
//! and the copying readers ([`read_bucket_run`], [`read_bucket_records`])
//! alike, so they accept and reject exactly the same bytes.

use mrs_codec::{CompressMode, Payload};
use mrs_core::bucket::{cmp_keys, key_prefix};
use mrs_core::kv::{encode_record, overwrite_record, read_varint, varint_len, write_varint};
use mrs_core::{Bucket, Datum, Error, Record, Result};

/// Magic prefix of bucket files (format version 1).
pub const BUCKET_MAGIC: &[u8; 5] = b"MRSB1";

/// The exact size of the bucket file holding `count` records of `bytes`
/// key and value bytes in all, whose key and value lengths are `lengths`.
fn bucket_len(
    count: usize,
    bytes: usize,
    lengths: impl Iterator<Item = (usize, usize)> + Clone,
) -> usize {
    // Lengths under 128 take one varint byte each, the common case.
    let widest = lengths.clone().fold(0, |widest, (k, v)| widest | k | v);
    let varints = if widest < 128 {
        2 * count
    } else {
        lengths.map(|(k, v)| varint_len(k as u64) + varint_len(v as u64)).sum()
    };
    BUCKET_MAGIC.len() + varint_len(count as u64) + bytes + varints
}

/// [`bucket_len`] of a bucket, read off its offset table.
fn bucket_len_of(bucket: &Bucket) -> usize {
    bucket_len(bucket.len(), bucket.byte_size(), bucket.lengths())
}

/// [`bucket_len`] of records.
fn records_len(records: &[Record]) -> usize {
    let bytes = records.iter().map(|(k, v)| k.len() + v.len()).sum();
    bucket_len(records.len(), bytes, records.iter().map(|(k, v)| (k.len(), v.len())))
}

/// Append the bucket file holding `count` records `records` to `buf`.
fn append_bucket<'a>(
    buf: &mut Vec<u8>,
    count: usize,
    records: impl Iterator<Item = (&'a [u8], &'a [u8])>,
) {
    buf.extend_from_slice(BUCKET_MAGIC);
    write_varint(count as u64, buf);
    for (k, v) in records {
        write_varint(k.len() as u64, buf);
        put(buf, k);
        write_varint(v.len() as u64, buf);
        put(buf, v);
    }
}

/// Append `bytes` to `buf`: an 8-byte field — every integer and float
/// `Datum` — as one word, not a copy call of unknown length. On
/// `sort_range`, whose keys and values are all such fields, this lowers
/// the cluster's CPU per job by about 3 % (EXPERIMENTS.md, "Frames become
/// buckets").
#[inline(always)]
fn put(buf: &mut Vec<u8>, bytes: &[u8]) {
    match <&[u8; 8]>::try_from(bytes) {
        Ok(word) => buf.extend_from_slice(word),
        Err(_) => buf.extend_from_slice(bytes),
    }
}

/// Serialize a [`Bucket`] into the bucket file format without converting
/// through owned records.
pub fn write_bucket(bucket: &Bucket) -> Vec<u8> {
    let mut buf = Vec::with_capacity(bucket_len_of(bucket));
    append_bucket(&mut buf, bucket.len(), bucket.iter());
    buf
}

/// Serialize records into the bucket file format.
pub fn write_bucket_bytes(records: &[Record]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records_len(records));
    append_bucket(&mut buf, records.len(), records.iter().map(|(k, v)| (&k[..], &v[..])));
    buf
}

/// The `MRSF1` frame of a [`Bucket`]'s file, written in place: the file
/// goes straight behind the reserved frame header, in a buffer of exactly
/// the frame's size, and is checksummed where it lies — the bytes
/// `encode_vec_sorted(write_bucket(bucket), mode, sorted)` makes, with one
/// copy of the records instead of three.
pub fn frame_bucket(bucket: &Bucket, mode: CompressMode, sorted: bool) -> Vec<u8> {
    let mut frame = mrs_codec::reserve_frame(bucket_len_of(bucket));
    append_bucket(&mut frame, bucket.len(), bucket.iter());
    mrs_codec::seal_frame(frame, mode, sorted)
}

/// [`frame_bucket`] for borrowed records, claiming no order.
pub fn frame_records(records: &[Record], mode: CompressMode) -> Vec<u8> {
    let mut frame = mrs_codec::reserve_frame(records_len(records));
    append_bucket(&mut frame, records.len(), records.iter().map(|(k, v)| (&k[..], &v[..])));
    mrs_codec::seal_frame(frame, mode, false)
}

/// Parse a bucket file, appending its records to `out`'s arena. Amortizes
/// to zero per-record allocations on the reduce input path.
pub fn read_bucket_into(b: &[u8], out: &mut Bucket) -> Result<()> {
    read_bucket_run(b, out).map(|_| ())
}

/// What [`read_bucket_run`] learned about one decoded run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunInfo {
    /// The wire bytes advertised a sorted run (`MRSF1` sorted-run flag,
    /// spot-check passed). Unframed bucket bytes never claim.
    pub claimed_sorted: bool,
    /// Ground truth: the parsed records are in non-decreasing key order.
    /// Established during the arena fill (one adjacent-prefix compare per
    /// record, key bytes read only on a tie), so the merge path never has
    /// to trust the claim.
    pub sorted: bool,
}

/// Parse one bucket file as a *merge run*: like [`read_bucket_into`], but
/// also reports whether the records arrived in sorted key order (and
/// whether the producer advertised them as such). The sortedness verdict
/// covers only the records this call appended.
pub fn read_bucket_run(b: &[u8], out: &mut Bucket) -> Result<RunInfo> {
    let (unframed, claimed_sorted) = unframe(b)?;
    let mut sorted = true;
    // `""` sorts first, so the first record never counts as a descent.
    let mut prev: (u64, &[u8]) = (0, &[]);
    parse_records(&unframed, |k, v| {
        let prefix = key_prefix(k);
        if cmp_keys(prev.0, prefix, || (prev.1, k)).is_gt() {
            sorted = false;
        }
        prev = (prefix, k);
        out.push(k, v);
    })?;
    Ok(RunInfo { claimed_sorted, sorted })
}

/// An opened frame's records as a [`Bucket`] built on the buffer they
/// arrived in ([`Bucket::adopt`]): nothing is copied, only the offset
/// table is built, and the sortedness verdict is found in the same pass.
/// The records and the [`RunInfo`] are those [`read_bucket_run`] reads
/// from the same bytes, and so are the errors.
pub fn index_bucket(payload: Payload) -> Result<(Bucket, RunInfo)> {
    let claimed_sorted = payload.claims_sorted();
    let (buf, start) = payload.into_parts();
    let (count, _) = header(&buf[start..])?;
    let (bucket, sorted) = Bucket::adopt(buf, count, |spans| {
        walk_records(spans.data(), start, |k, klen, v, vlen| spans.push(k, klen, v, vlen))
    })?;
    Ok((bucket, RunInfo { claimed_sorted, sorted }))
}

/// Parse bucket files, in order, straight into owned records: the
/// driver's `fetch_all` edge, where a `Vec<Record>` is the result type and
/// a [`Bucket`] in between would only be copied out of again. The answer
/// is written *over* the records `out` already holds
/// ([`overwrite_record`]): record `i` goes into the buffers of `out[i]`,
/// records past `out`'s end are pushed and leftover ones dropped, so `out`
/// ends holding exactly the answer. It grows once, to the record count
/// the files' headers claim, before any record is parsed. On error no
/// record of the failed read is left: `out` keeps its length and its
/// records' buffers, every one of them emptied, for a retry.
pub fn read_bucket_records(buckets: &[impl AsRef<[u8]>], out: &mut Vec<Record>) -> Result<()> {
    let stock = out.len();
    let parsed = buckets
        .iter()
        .map(|b| unframe(b.as_ref()).map(|(unframed, _)| unframed))
        .collect::<Result<Vec<_>>>()
        .and_then(|unframed| {
            let count =
                unframed.iter().map(|b| header(b).map(|(n, _)| n)).sum::<Result<usize>>()?;
            out.reserve(count.saturating_sub(stock));
            let mut at = 0;
            unframed.iter().try_for_each(|b| {
                parse_records(b, |k, v| {
                    match out.get_mut(at) {
                        Some(rec) => overwrite_record(rec, k, v),
                        None => out.push((k.to_vec(), v.to_vec())),
                    }
                    at += 1;
                })
            })?;
            out.truncate(count);
            Ok(())
        });
    if parsed.is_err() {
        out.truncate(stock);
        for (k, v) in out.iter_mut() {
            k.clear();
            v.clear();
        }
    }
    parsed
}

/// Strip the `MRSF1` frame, if any: raw bytes and stored frames are
/// borrowed in place, only a compressed frame is decoded into a buffer
/// of its own. Also returns whether the frame advertised a sorted run.
fn unframe(b: &[u8]) -> Result<(std::borrow::Cow<'_, [u8]>, bool)> {
    if !mrs_codec::is_framed(b) {
        return Ok((std::borrow::Cow::Borrowed(b), false));
    }
    mrs_codec::decode_frame_sorted_cow(b).map_err(|e| Error::Codec(e.to_string()))
}

/// The header of an unframed `MRSB1` bucket file: the record count it
/// claims, and the records' bytes. A count the bytes could not hold (each
/// record takes at least its two length bytes) is an error, so no reader
/// sizes anything by a garbage claim.
fn header(b: &[u8]) -> Result<(usize, &[u8])> {
    let magic =
        b.get(..BUCKET_MAGIC.len()).ok_or_else(|| Error::Codec("bucket file too short".into()))?;
    if magic != BUCKET_MAGIC {
        return Err(Error::Codec(format!("bad bucket magic {magic:?}")));
    }
    let (count, rest) = read_varint(&b[BUCKET_MAGIC.len()..])?;
    if count > rest.len() as u64 / 2 {
        return Err(Error::Codec(format!("bucket claims {count} records in {} bytes", rest.len())));
    }
    Ok((count as usize, rest))
}

/// Walk the records of an unframed `MRSB1` bucket file.
fn parse_records<'b>(b: &'b [u8], mut sink: impl FnMut(&'b [u8], &'b [u8])) -> Result<()> {
    walk_records(b, 0, |k, klen, v, vlen| {
        sink(&b[k..k + klen], &b[v..v + vlen]);
        Ok(())
    })
}

/// The one record walker: the `MRSB1` bucket file that fills `buf` from
/// `start` on, each record reported as `(key offset, key length, value
/// offset, value length)` in `buf`. The records must fill the file
/// exactly.
fn walk_records(
    buf: &[u8],
    start: usize,
    mut record: impl FnMut(usize, usize, usize, usize) -> Result<()>,
) -> Result<()> {
    let (count, rest) = header(&buf[start..])?;
    let mut at = buf.len() - rest.len();
    for _ in 0..count {
        let (key, klen) = length(buf, at, "key")?;
        let (value, vlen) = length(buf, key + klen, "value")?;
        record(key, klen, value, vlen)?;
        at = value + vlen;
    }
    if at != buf.len() {
        return Err(Error::Codec(format!("{} trailing bytes in bucket file", buf.len() - at)));
    }
    Ok(())
}

/// The length varint at `buf[at..]` and the bytes it counts behind it:
/// `(their offset, their length)`.
#[inline]
fn length(buf: &[u8], at: usize, what: &str) -> Result<(usize, usize)> {
    let (len, rest) = match buf.get(at) {
        Some(&byte) if byte < 0x80 => (byte as u64, &buf[at + 1..]),
        _ => read_varint(buf.get(at..).unwrap_or_default())?,
    };
    if len > rest.len() as u64 {
        return Err(Error::Codec(format!("truncated bucket {what}")));
    }
    Ok((buf.len() - rest.len(), len as usize))
}

/// Turn text into `(line_no, line)` records. Line numbers start at
/// `first_line` so that multi-file inputs can keep globally distinct keys.
pub fn text_to_records(text: &str, first_line: u64) -> Vec<Record> {
    text.lines()
        .enumerate()
        .map(|(i, line)| encode_record(&(first_line + i as u64), &line.to_string()))
        .collect()
}

/// Decode `(line_no, line)` records back to text lines (for tests and the
/// bypass implementation).
pub fn records_to_lines(records: &[Record]) -> Result<Vec<(u64, String)>> {
    records.iter().map(|(k, v)| Ok((u64::from_bytes(k)?, String::from_bytes(v)?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Stock for the record path: `n` records whose keys vary in length
    /// and whose values are longer than any a test writes.
    fn stock(n: usize) -> Vec<Record> {
        (0..n).map(|i| (vec![b's'; i % 5], vec![b'v'; 64])).collect()
    }

    /// Decode through both readers — the arena path and the driver-edge
    /// record path must agree — and hand back owned records. The record
    /// path writes over no stock, stock shorter than the answer and stock
    /// longer than it; after an error it holds no record of the read.
    fn read_records(b: &[u8]) -> Result<Vec<Record>> {
        let mut bucket = Bucket::new();
        let arena = read_bucket_into(b, &mut bucket).map(|()| bucket.to_records());
        let n = arena.as_ref().map_or(4, Vec::len);
        for stock_len in [0, n / 2, n + 3] {
            let mut records = stock(stock_len);
            let direct = read_bucket_records(&[b], &mut records);
            assert_eq!(arena.is_ok(), direct.is_ok(), "{arena:?} vs {direct:?}");
            match &arena {
                Ok(arena) => assert_eq!(&records, arena, "stock of {stock_len}"),
                Err(_) => assert_emptied(&records, stock_len),
            }
        }
        arena
    }

    /// What a failed read leaves: the stock's records, all empty.
    fn assert_emptied(records: &[Record], stock_len: usize) {
        assert_eq!(records.len(), stock_len, "the stock is kept");
        assert!(records.iter().all(|(k, v)| k.is_empty() && v.is_empty()), "no partial answer");
    }

    #[test]
    fn bucket_roundtrip() {
        let records: Vec<Record> = vec![
            (b"k1".to_vec(), b"v1".to_vec()),
            (vec![], vec![0, 255]),
            (b"k3".to_vec(), vec![]),
        ];
        let bytes = write_bucket_bytes(&records);
        assert_eq!(read_records(&bytes).unwrap(), records);
    }

    #[test]
    fn arena_bucket_roundtrip_matches_record_format() {
        let records: Vec<Record> = vec![
            (b"k1".to_vec(), b"v1".to_vec()),
            (vec![], vec![0, 255]),
            (b"k3".to_vec(), vec![]),
        ];
        let bucket = Bucket::from_records(records.clone());
        let bytes = write_bucket(&bucket);
        // Same wire format either way.
        assert_eq!(bytes, write_bucket_bytes(&records));
        let mut back = Bucket::new();
        read_bucket_into(&bytes, &mut back).unwrap();
        assert_eq!(back, bucket);
        // Appending a second file accumulates into the same arena.
        read_bucket_into(&bytes, &mut back).unwrap();
        assert_eq!(back.len(), 2 * bucket.len());
    }

    /// The sortedness verdict is key order (prefix first, so it must tell
    /// `""` from `"\0"` and read past a shared 8-byte prefix), over only
    /// the records the call appends.
    #[test]
    fn run_verdict_is_key_order_over_appended_records() {
        let file = |keys: &[&[u8]]| {
            write_bucket_bytes(&keys.iter().map(|k| (k.to_vec(), vec![])).collect::<Vec<_>>())
        };
        let sorted = file(&[b"", b"\0", b"abcdefgh", b"abcdefgh1", b"abcdefgh2"]);
        let mut out = Bucket::new();
        out.push(b"zzz", b"");
        let info = read_bucket_run(&sorted, &mut out).unwrap();
        assert_eq!(info, RunInfo { claimed_sorted: false, sorted: true });
        assert_eq!(out.len(), 6);
        for unsorted in [file(&[b"\0", b""]), file(&[b"abcdefgh2", b"abcdefgh1"])] {
            assert!(!read_bucket_run(&unsorted, &mut Bucket::new()).unwrap().sorted);
        }
    }

    #[test]
    fn empty_bucket_roundtrip() {
        let bytes = write_bucket_bytes(&[]);
        assert!(read_records(&bytes).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = write_bucket_bytes(&[]);
        bytes[0] = b'X';
        assert!(read_records(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation_and_trailing() {
        let records = vec![(b"key".to_vec(), b"value".to_vec())];
        let bytes = write_bucket_bytes(&records);
        assert!(read_records(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(read_records(&extended).is_err());
    }

    #[test]
    fn text_records_number_lines() {
        let recs = text_to_records("alpha\nbeta\n\ngamma", 10);
        let lines = records_to_lines(&recs).unwrap();
        assert_eq!(
            lines,
            vec![
                (10, "alpha".to_string()),
                (11, "beta".to_string()),
                (12, "".to_string()),
                (13, "gamma".to_string())
            ]
        );
    }

    #[test]
    fn empty_text_is_empty_records() {
        assert!(text_to_records("", 0).is_empty());
    }

    #[test]
    fn framed_buckets_decode_transparently() {
        let records: Vec<Record> =
            (0..40).map(|i| (format!("key{i}").into_bytes(), vec![i as u8; 16])).collect();
        let raw = write_bucket_bytes(&records);
        for mode in [mrs_codec::CompressMode::On, mrs_codec::CompressMode::Off] {
            let framed = mrs_codec::encode_vec(raw.clone(), mode);
            assert!(mrs_codec::is_framed(&framed));
            let mut arena = Bucket::new();
            read_bucket_into(&framed, &mut arena).unwrap();
            assert_eq!(arena, Bucket::from_records(records.clone()));
            // A corrupted frame surfaces as a codec error, not a panic.
            let mut bad = framed.clone();
            let last = bad.len() - 1;
            bad[last] ^= 0xff;
            assert!(matches!(read_records(&bad), Err(Error::Codec(_))));
        }
    }

    /// The header's record count equals the parsed length for a raw
    /// bucket, a stored frame and a compressed frame; truncated or garbage
    /// bytes, or a count the bytes could not hold, are an error.
    #[test]
    fn header_count_agrees_with_the_parse() {
        let count = |b: &[u8]| unframe(b).and_then(|(raw, _)| header(&raw).map(|(n, _)| n));
        let records: Vec<Record> =
            (0..300).map(|i| (format!("key{}", i % 7).into_bytes(), vec![1; 20])).collect();
        let raw = write_bucket_bytes(&records);
        let stored = mrs_codec::encode_vec(raw.clone(), mrs_codec::CompressMode::Off);
        let compressed = mrs_codec::encode_vec(raw.clone(), mrs_codec::CompressMode::On);
        assert!(compressed.len() < raw.len(), "the frame is compressed");
        for b in [&raw, &stored, &compressed] {
            assert_eq!(count(b).unwrap(), read_records(b).unwrap().len());
            for cut in [0, 3, 5, mrs_codec::FRAME_HEADER_LEN, b.len() - 1] {
                if b.as_ptr() != raw.as_ptr() || cut <= BUCKET_MAGIC.len() {
                    assert!(count(&b[..cut]).is_err(), "{cut}");
                }
            }
        }
        let mut huge = BUCKET_MAGIC.to_vec();
        write_varint(u64::MAX >> 1, &mut huge);
        for garbage in [&b"MRSB1\xff"[..], b"not a bucket", &huge] {
            assert!(count(garbage).is_err());
            assert!(read_bucket_records(&[garbage], &mut Vec::new()).is_err());
        }
    }

    /// A fresh result grows once, to the total of the counts, for any
    /// number of buckets.
    #[test]
    fn reads_of_many_buckets_reserve_their_total_once() {
        let bucket = |n: usize| write_bucket_bytes(&vec![(b"k".to_vec(), b"v".to_vec()); n]);
        let mut out = Vec::new();
        read_bucket_records(&[bucket(30), bucket(0), bucket(70)], &mut out).unwrap();
        assert_eq!((out.len(), out.capacity()), (100, 100));
    }

    /// Record `i` of the answer lands in the buffers of stock record `i`
    /// when they are large enough, and only a buffer too small moves;
    /// stock past the answer is dropped, an answer past the stock pushed,
    /// and the stock's own vector is the result.
    #[test]
    fn answers_are_written_over_the_stock_in_place() {
        let answer: Vec<Record> =
            (0..6u8).map(|i| (vec![i; 3], vec![i; 2 + 20 * i as usize])).collect();
        let bytes = write_bucket_bytes(&answer);
        for stock_len in [0, 4, 6, 9] {
            let mut out = stock(stock_len);
            let (spine, keys, values) = (
                out.as_ptr(),
                out.iter().map(|(k, _)| k.as_ptr()).collect::<Vec<_>>(),
                out.iter().map(|(_, v)| v.as_ptr()).collect::<Vec<_>>(),
            );
            read_bucket_records(&[&bytes], &mut out).unwrap();
            assert_eq!(out, answer, "stock of {stock_len}");
            if stock_len >= answer.len() {
                assert_eq!(out.as_ptr(), spine, "the stock's vector is the answer");
            }
            // Stock key `i` holds `i % 5` bytes in a buffer of that size,
            // every stock value 64; a buffer that fits is written in place.
            for (i, (k, v)) in out.iter().enumerate().take(stock_len) {
                if i % 5 >= k.len() {
                    assert_eq!(k.as_ptr(), keys[i], "key {i}");
                }
                if v.len() <= 64 {
                    assert_eq!(v.as_ptr(), values[i], "value {i}");
                }
            }
        }
    }

    /// A read that fails part way — on a later bucket's header, or on a
    /// record in the middle of a bucket after earlier records were
    /// written — leaves no record of it behind, over stock or none.
    #[test]
    fn a_failed_read_leaves_no_partial_answer() {
        let good = write_bucket_bytes(&vec![(b"key".to_vec(), b"value".to_vec()); 10]);
        let mut cut = good.clone();
        cut.truncate(good.len() / 2);
        let bad_magic = b"MRSB0\x00".to_vec();
        for buckets in [vec![good.clone(), cut.clone()], vec![cut], vec![good, bad_magic]] {
            for stock_len in [0, 3, 25] {
                let mut out = stock(stock_len);
                assert!(read_bucket_records(&buckets, &mut out).is_err());
                assert_emptied(&out, stock_len);
            }
        }
    }

    #[test]
    fn run_info_detects_sortedness_and_claims() {
        let sorted_recs: Vec<Record> =
            vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())];
        let unsorted_recs: Vec<Record> =
            vec![(b"b".to_vec(), b"2".to_vec()), (b"a".to_vec(), b"1".to_vec())];

        // Raw sorted bytes: no claim, but auto-detected sorted.
        let mut out = Bucket::new();
        let info = read_bucket_run(&write_bucket_bytes(&sorted_recs), &mut out).unwrap();
        assert_eq!(info, RunInfo { claimed_sorted: false, sorted: true });

        // Raw unsorted bytes: neither.
        let mut out = Bucket::new();
        let info = read_bucket_run(&write_bucket_bytes(&unsorted_recs), &mut out).unwrap();
        assert_eq!(info, RunInfo { claimed_sorted: false, sorted: false });

        // Framed with the sorted-run flag: claim survives and matches.
        for mode in [mrs_codec::CompressMode::On, mrs_codec::CompressMode::Off] {
            let framed = mrs_codec::encode_vec_sorted(write_bucket_bytes(&sorted_recs), mode, true);
            let mut out = Bucket::new();
            let info = read_bucket_run(&framed, &mut out).unwrap();
            assert_eq!(info, RunInfo { claimed_sorted: true, sorted: true });
            assert_eq!(out.to_records(), sorted_recs);
        }

        // An empty bucket counts as sorted.
        let mut out = Bucket::new();
        let info = read_bucket_run(&write_bucket_bytes(&[]), &mut out).unwrap();
        assert!(info.sorted);
    }

    /// Bytes in the shapes the in-place index must read as the copying
    /// parser does: empty, short, 128 bytes or more (a two-byte length),
    /// and longer than 8 bytes behind one of three 9-byte stems that
    /// share their first 7.
    fn shaped_bytes() -> impl Strategy<Value = Vec<u8>> {
        const STEMS: &[u8; 27] = b"prefix-a\0prefix-b\0prefix-b\x01";
        prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec(any::<u8>(), 0..12),
            proptest::collection::vec(any::<u8>(), 128..300),
            (0usize..3, proptest::collection::vec(any::<u8>(), 0..6)).prop_map(|(stem, tail)| [
                &STEMS[stem * 9..stem * 9 + 9],
                &tail[..]
            ]
            .concat()),
        ]
    }

    /// `raw` as each frame kind carries it, as `(what the copying parser
    /// reads, what the index is handed)`: the raw bytes; a stored frame,
    /// opened; a compressed frame, opened, when it compresses.
    fn carried(raw: &[u8], sorted: bool) -> Vec<(Vec<u8>, Payload)> {
        let mut kinds = vec![(raw.to_vec(), Payload::raw(raw.to_vec()))];
        for mode in [CompressMode::Off, CompressMode::On] {
            let frame = mrs_codec::encode_vec_sorted(raw.to_vec(), mode, sorted);
            let compressed = frame.len() < raw.len();
            if mode == CompressMode::Off || compressed {
                kinds.push((frame.clone(), mrs_codec::open_vec(frame).unwrap()));
            }
        }
        kinds
    }

    /// The in-place index against the copying parser over one carrying of
    /// a bucket: both reject it, or both accept it with equal records,
    /// byte sizes and [`RunInfo`]. Whether they accepted.
    fn agree(wire: &[u8], payload: Payload) -> std::result::Result<bool, String> {
        let mut copied = Bucket::new();
        match (read_bucket_run(wire, &mut copied), index_bucket(payload)) {
            (Ok(info), Ok((indexed, in_place))) => {
                prop_assert_eq!(indexed.to_records(), copied.to_records());
                prop_assert_eq!(indexed.byte_size(), copied.byte_size());
                prop_assert_eq!(in_place, info);
                Ok(true)
            }
            (Err(_), Err(_)) => Ok(false),
            (copying, indexing) => Err(format!(
                "the copying parser gave {:?}, the index {:?}",
                copying.map(|_| ()),
                indexing.map(|_| ())
            )),
        }
    }

    /// [`agree`] over every carrying of `raw`, which must be rejected.
    fn both_reject(raw: &[u8], what: &str) -> std::result::Result<(), String> {
        for (wire, payload) in carried(raw, false) {
            prop_assert!(!agree(&wire, payload)?, "{what} accepted");
        }
        Ok(())
    }

    /// `raw`'s records behind a header claiming `count` of them.
    fn with_count(raw: &[u8], count: u64) -> Vec<u8> {
        let (claimed, records) = header(raw).unwrap();
        let mut out = BUCKET_MAGIC.to_vec();
        write_varint(count, &mut out);
        out.extend_from_slice(records);
        assert_eq!(claimed, records_of(raw));
        out
    }

    fn records_of(raw: &[u8]) -> usize {
        header(raw).unwrap().0
    }

    /// Every truncation of a bucket holding each record shape — empty key
    /// and value, two-byte lengths, long keys sharing a prefix — is
    /// rejected by the index and the copying parser alike, raw or framed.
    #[test]
    fn every_truncation_is_rejected_in_place_and_by_copy() {
        let records: Vec<Record> = vec![
            (vec![], vec![]),
            (b"prefix-a\0x".to_vec(), vec![7; 130]),
            (vec![1; 200], b"v".to_vec()),
            (b"prefix-a\0y".to_vec(), vec![]),
        ];
        let raw = write_bucket_bytes(&records);
        assert!(agree(&raw, Payload::raw(raw.clone())).unwrap());
        for cut in 0..raw.len() {
            both_reject(&raw[..cut], &format!("a cut at {cut}")).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The in-place index agrees with the copying parser on every
        /// carrying of a bucket — raw, stored, compressed — sorted or
        /// not, and both reject the same malformed bytes: cuts, a count
        /// past the records, a length running past the end, trailing
        /// bytes; on a flipped byte they reject together or agree.
        #[test]
        fn the_index_in_place_agrees_with_the_copying_parser(
            drawn in proptest::collection::vec((shaped_bytes(), shaped_bytes()), 0..24),
            values in 0u8..3,
            sorted in any::<bool>(),
            repeat in any::<bool>(),
            cuts in proptest::collection::vec(any::<u64>(), 8),
            flip in any::<u64>(),
        ) {
            // Every value under 128 bytes, every one over (lengths of one
            // varint width: indexed in place), or as drawn (mixed widths).
            let mut records = drawn;
            for (_, value) in &mut records {
                match values {
                    0 => value.truncate(12),
                    1 => value.resize(128 + value.len(), 0xa5),
                    _ => {}
                }
            }
            if repeat {
                // Compressible: the same records over and over.
                let again = records.clone();
                records.extend(again.iter().chain(&again).cloned());
            }
            if sorted {
                records.sort_by(|a, b| a.0.cmp(&b.0));
            }
            let raw = write_bucket_bytes(&records);
            for (wire, payload) in carried(&raw, sorted) {
                prop_assert!(agree(&wire, payload)?, "a well-formed bucket rejected");
            }
            for cut in cuts {
                let cut = (cut % raw.len() as u64) as usize;
                both_reject(&raw[..cut], &format!("a cut at {cut}"))?;
            }
            let count = records_of(&raw) as u64;
            both_reject(&with_count(&raw, count + 1), "a count past the records")?;
            both_reject(&with_count(&raw, u64::MAX >> 1), "a huge count")?;
            let mut key_past = with_count(&raw, count + 1);
            key_past.extend_from_slice(b"\xe8\x07ab");
            both_reject(&key_past, "a key running past the end")?;
            let mut value_past = with_count(&raw, count + 1);
            value_past.extend_from_slice(b"\x02ab\xe8\x07x");
            both_reject(&value_past, "a value running past the end")?;
            for trailing in [&b"\0"[..], b"\x01\x02\x03"] {
                both_reject(&[&raw[..], trailing].concat(), "trailing bytes")?;
            }
            let mut flipped = raw.clone();
            let at = (flip % raw.len() as u64) as usize;
            flipped[at] ^= 1 << ((flip >> 32) % 8);
            for (wire, payload) in carried(&flipped, false) {
                agree(&wire, payload)?;
            }
        }
    }

    proptest! {
        #[test]
        fn prop_bucket_roundtrip(
            records in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..32),
                 proptest::collection::vec(any::<u8>(), 0..32)),
                0..32,
            )
        ) {
            let bytes = write_bucket_bytes(&records);
            prop_assert_eq!(read_records(&bytes).unwrap(), records);
        }

        #[test]
        fn prop_garbage_never_panics(b in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = read_records(&b);
        }
    }
}
