//! The `MRSF1` shuffle frame: a checksummed, optionally-compressed
//! envelope around `MRSB1` bucket bytes.
//!
//! Layout (18-byte header, all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     5  magic  b"MRSF1"
//!      5     1  flags  (bit 0: payload is LZ-compressed, bit 1: sorted run)
//!      6     4  uncompressed length (u32)
//!     10     8  xxHash64 of the payload bytes as stored
//!     18     –  payload
//! ```
//!
//! The checksum covers the payload *as stored* (compressed bytes when
//! flag 0 is set), so corruption is detected before the decompressor
//! ever runs. A frame with flag 0 clear is a *stored* frame: the payload
//! is the bucket bytes themselves — the default, since every link the
//! runtime opens today is loopback (DESIGN.md §2 records the break-even).
//!
//! A stored frame is written and read in place. The producer reserves the
//! header ([`reserve_frame`]), writes its bucket bytes straight behind it
//! and seals it ([`seal_frame`]): one checksum pass over bytes that never
//! move again. The reader verifies the checksum where the payload lies
//! ([`open_vec`]) and gets the very buffer the frame arrived in back as a
//! [`Payload`], header and all, for the bucket parser to index in place.
//! Only a compressed frame has its cleartext in a buffer of its own.
//!
//! Every decoder here is strict: input that does not
//! start with the frame magic is [`FrameError::NotFramed`], so a damaged
//! magic byte is caught like any other damaged byte. (The one reader of
//! bucket *files*, `mrs_fs::format`, tests [`is_framed`] itself and parses
//! unframed `MRSB1` bytes directly.) The compressed bit is read per
//! payload, so a compressing producer and a storing one coexist in one
//! cluster with no negotiation.

use crate::lz;
use crate::xxhash::xxh64;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame magic. Deliberately distinct from the `MRSB1` bucket magic so
/// a decoder can tell framed from raw bytes by the first five bytes.
pub const FRAME_MAGIC: &[u8; 5] = b"MRSF1";

/// Total header size preceding the payload.
pub const FRAME_HEADER_LEN: usize = 18;

const FLAG_COMPRESSED: u8 = 1;

/// Flag bit 1: the payload decodes to an `MRSB1` bucket whose records
/// are in non-decreasing key order — a *sorted run* the consumer may
/// feed straight into a k-way merge instead of re-sorting. Advisory:
/// decoders spot-check the claim ([`decode_frame_sorted`]) and the merge
/// path independently verifies full sortedness on arrival, so a buggy
/// producer can never corrupt merge output.
pub const FLAG_SORTED_RUN: u8 = 2;

const KNOWN_FLAGS: u8 = FLAG_COMPRESSED | FLAG_SORTED_RUN;

/// Adjacent key pairs examined by the monotonicity spot-check. Bounded:
/// the check exists to reject obviously-bogus sorted claims cheaply at
/// decode; exact sortedness is (re-)established by the bucket parser.
const SPOT_CHECK_PAIRS: usize = 64;

static SORTED_CLAIM_REJECTS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of frames that set [`FLAG_SORTED_RUN`] but failed
/// the monotonicity spot-check and were demoted to unsorted.
pub fn sorted_claim_rejects() -> u64 {
    SORTED_CLAIM_REJECTS.load(Ordering::Relaxed)
}

/// Compression policy for produced shuffle payloads. Either way the
/// producer emits an `MRSF1` frame, so the checksum and the sorted-run
/// flag always ride.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressMode {
    /// LZ-compress buckets of at least 512 bytes, keeping the compressed
    /// payload only when it is smaller. Pays on a link
    /// slower than the break-even DESIGN.md §2 records.
    On,
    /// Store every bucket uncompressed.
    #[default]
    Off,
}

/// `On` leaves buckets below this stored: under ~half a kilobyte the
/// compression call costs more than the wire bytes it saves.
const COMPRESS_FLOOR: usize = 512;

impl CompressMode {
    /// Parse a `--mrs-compress` value: `on` or `off`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "on" => Ok(CompressMode::On),
            "off" => Ok(CompressMode::Off),
            _ => Err(format!("bad --mrs-compress value {s:?} (want on|off)")),
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Input does not start with the `MRSF1` magic: not a frame at all,
    /// or a frame whose magic was damaged in transit. Remote fetchers
    /// retry once on this variant, as they do on [`FrameError::Checksum`].
    NotFramed,
    /// Frame shorter than its fixed header.
    Truncated,
    /// Flags field has bits set that this decoder does not know — a
    /// newer producer or a corrupted header byte.
    UnknownFlags(u8),
    /// Stored checksum does not match the payload — the frame was
    /// corrupted in transit or at rest. Remote fetchers retry once.
    Checksum { expected: u64, actual: u64 },
    /// Checksum was fine but the compressed payload is malformed — this
    /// indicates a producer bug, not wire corruption, so it is not
    /// retried.
    Compression(lz::LzError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NotFramed => write!(f, "missing MRSF1 frame magic"),
            FrameError::Truncated => write!(f, "truncated MRSF1 frame"),
            FrameError::UnknownFlags(flags) => {
                write!(f, "frame has unknown flag bits: {flags:#04x}")
            }
            FrameError::Checksum { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#018x}, payload {actual:#018x}"
                )
            }
            FrameError::Compression(e) => write!(f, "frame payload corrupt: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// True if `bytes` begin with the `MRSF1` magic.
pub fn is_framed(bytes: &[u8]) -> bool {
    bytes.len() >= FRAME_MAGIC.len() && &bytes[..FRAME_MAGIC.len()] == FRAME_MAGIC
}

/// Frame `raw` bucket bytes for the wire under `mode`: compressed when
/// the mode asks for it and compression actually won, stored otherwise —
/// never larger than `raw.len() + FRAME_HEADER_LEN`.
///
/// # Panics
/// If `raw` exceeds `u32::MAX` bytes, the width of the header's length
/// field. There is no chunked format; a producer must keep its buckets
/// below 4 GiB (`mrs_core::Bucket`'s own arena offsets are `u32` too).
pub fn encode_vec(raw: Vec<u8>, mode: CompressMode) -> Vec<u8> {
    encode_with_flags(raw, mode, 0)
}

/// Like [`encode_vec`], additionally advertising the payload as a sorted
/// run ([`FLAG_SORTED_RUN`]) when `sorted` is true.
pub fn encode_vec_sorted(raw: Vec<u8>, mode: CompressMode, sorted: bool) -> Vec<u8> {
    encode_with_flags(raw, mode, if sorted { FLAG_SORTED_RUN } else { 0 })
}

fn encode_with_flags(raw: Vec<u8>, mode: CompressMode, extra_flags: u8) -> Vec<u8> {
    check_len(raw.len());
    if let Some(frame) = compressed_frame(&raw, mode, extra_flags) {
        return frame;
    }
    let mut frame = reserve_frame(raw.len());
    frame.extend_from_slice(&raw);
    write_header(&mut frame, extra_flags, raw.len());
    frame
}

/// A buffer for a frame written in place: the header's bytes, reserved,
/// and room for `payload` bytes behind them. The producer appends its
/// bucket bytes and hands the buffer to [`seal_frame`].
pub fn reserve_frame(payload: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload);
    frame.resize(FRAME_HEADER_LEN, 0);
    frame
}

/// Seal a frame begun with [`reserve_frame`]: the payload written behind
/// the reserved header is checksummed where it lies and the header filled
/// in — the frame [`encode_vec_sorted`] would make of the payload, without
/// copying it. Under [`CompressMode::On`] a payload that compresses
/// smaller is framed compressed instead, in a buffer of its own.
///
/// # Panics
/// If `frame` is shorter than the header, or its payload exceeds
/// `u32::MAX` bytes (see [`encode_vec`]).
pub fn seal_frame(mut frame: Vec<u8>, mode: CompressMode, sorted: bool) -> Vec<u8> {
    let raw_len = frame.len().checked_sub(FRAME_HEADER_LEN).expect("a reserved frame header");
    check_len(raw_len);
    let extra_flags = if sorted { FLAG_SORTED_RUN } else { 0 };
    if let Some(compressed) = compressed_frame(&frame[FRAME_HEADER_LEN..], mode, extra_flags) {
        return compressed;
    }
    write_header(&mut frame, extra_flags, raw_len);
    frame
}

fn check_len(raw_len: usize) {
    assert!(raw_len <= u32::MAX as usize, "bucket of {raw_len} bytes exceeds the 4 GiB frame");
}

/// `raw` framed compressed, when `mode` asks for it and compression wins.
fn compressed_frame(raw: &[u8], mode: CompressMode, extra_flags: u8) -> Option<Vec<u8>> {
    if mode != CompressMode::On || raw.len() < COMPRESS_FLOOR {
        return None;
    }
    let mut frame = reserve_frame(raw.len() / 2 + 16);
    lz::compress_into(raw, &mut frame);
    (frame.len() - FRAME_HEADER_LEN < raw.len()).then(|| {
        write_header(&mut frame, FLAG_COMPRESSED | extra_flags, raw.len());
        frame
    })
}

/// Fill in the reserved header of `frame` for the payload behind it,
/// which decodes to `raw_len` bytes.
fn write_header(frame: &mut [u8], flags: u8, raw_len: usize) {
    let checksum = xxh64(&frame[FRAME_HEADER_LEN..]);
    frame[..5].copy_from_slice(FRAME_MAGIC);
    frame[5] = flags;
    frame[6..10].copy_from_slice(&(raw_len as u32).to_le_bytes());
    frame[10..FRAME_HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
}

/// Verify a frame and return its cleartext and flags. A stored payload
/// is borrowed from `bytes`; only a compressed one allocates.
fn open(bytes: &[u8]) -> Result<(Cow<'_, [u8]>, u8), FrameError> {
    if !is_framed(bytes) {
        return Err(FrameError::NotFramed);
    }
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let flags = bytes[5];
    if flags & !KNOWN_FLAGS != 0 {
        return Err(FrameError::UnknownFlags(flags));
    }
    let ulen = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
    let expected = u64::from_le_bytes(bytes[10..18].try_into().unwrap());
    let payload = &bytes[FRAME_HEADER_LEN..];
    let actual = xxh64(payload);
    if actual != expected {
        return Err(FrameError::Checksum { expected, actual });
    }
    if flags & FLAG_COMPRESSED != 0 {
        let raw = lz::decompress(payload, ulen).map_err(FrameError::Compression)?;
        Ok((Cow::Owned(raw), flags))
    } else if payload.len() != ulen {
        Err(FrameError::Compression(lz::LzError::WrongLength {
            expected: ulen,
            got: payload.len(),
        }))
    } else {
        Ok((Cow::Borrowed(payload), flags))
    }
}

/// The cleartext of a verified frame — the `MRSB1` bytes a reader parses —
/// where it lies: behind the header in the very buffer a stored frame
/// arrived in, or in a buffer of its own for a decompressed one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    buf: Vec<u8>,
    start: usize,
    sorted: bool,
}

impl Payload {
    /// Unframed bucket bytes, as they are: no checksum, no sorted claim.
    pub fn raw(bytes: Vec<u8>) -> Payload {
        Payload { buf: bytes, start: 0, sorted: false }
    }

    /// The frame carried a *verified* sorted-run claim, as
    /// [`decode_frame_sorted`] reports it.
    pub fn claims_sorted(&self) -> bool {
        self.sorted
    }

    /// The buffer and the offset of the cleartext in it.
    pub fn into_parts(self) -> (Vec<u8>, usize) {
        (self.buf, self.start)
    }
}

impl AsRef<[u8]> for Payload {
    /// The cleartext.
    fn as_ref(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

/// Verify wire bytes as a frame where they lie: the checksum is computed
/// over the payload in place, and a stored payload stays in `bytes`, not
/// shifted or copied; a compressed one is decompressed. The sorted-run
/// claim is spot-checked as by [`decode_frame_sorted`].
pub fn open_vec(bytes: Vec<u8>) -> Result<Payload, FrameError> {
    let (decompressed, flags) = match open(&bytes)? {
        (Cow::Owned(raw), flags) => (Some(raw), flags),
        (Cow::Borrowed(_), flags) => (None, flags),
    };
    let mut payload = match decompressed {
        Some(raw) => Payload::raw(raw),
        None => Payload { buf: bytes, start: FRAME_HEADER_LEN, sorted: false },
    };
    payload.sorted = verified_claim(payload.as_ref(), flags);
    Ok(payload)
}

/// Decode a frame from a shared or borrowed buffer (the zero-copy serve
/// path hands out `Arc<[u8]>` frames; consumers decode from the slice).
pub fn decode_frame(bytes: &[u8]) -> Result<Vec<u8>, FrameError> {
    open(bytes).map(|(raw, _)| raw.into_owned())
}

/// Decode wire bytes and report whether they carry a *verified* sorted-run
/// claim: the frame set [`FLAG_SORTED_RUN`] **and** the decoded payload
/// passed the monotonicity spot-check. A claim that fails the check is
/// demoted to unsorted (and counted, see [`sorted_claim_rejects`]) rather
/// than rejected outright — the consumer then sorts on arrival.
pub fn decode_frame_sorted(bytes: &[u8]) -> Result<(Vec<u8>, bool), FrameError> {
    decode_frame_sorted_cow(bytes).map(|(raw, sorted)| (raw.into_owned(), sorted))
}

/// [`decode_frame_sorted`] for a consumer that only reads the cleartext:
/// a stored payload is borrowed from `bytes`, never copied.
pub fn decode_frame_sorted_cow(bytes: &[u8]) -> Result<(Cow<'_, [u8]>, bool), FrameError> {
    let (raw, flags) = open(bytes)?;
    let sorted = verified_claim(&raw, flags);
    Ok((raw, sorted))
}

/// Whether `flags` claim a sorted run that the cleartext `raw` bears out;
/// a claim that fails the spot-check is counted.
fn verified_claim(raw: &[u8], flags: u8) -> bool {
    let claimed = flags & FLAG_SORTED_RUN != 0;
    if claimed && !spot_check_sorted(raw) {
        SORTED_CLAIM_REJECTS.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    claimed
}

/// Cheap monotonicity spot-check of a sorted-run claim: walk the head of
/// the `MRSB1` payload (magic, varint record count, varint-prefixed
/// key/value pairs) and verify the first [`SPOT_CHECK_PAIRS`] adjacent
/// keys are non-decreasing. Anything unparsable fails the check — a
/// sorted-run claim on a non-bucket payload is a producer bug.
fn spot_check_sorted(raw: &[u8]) -> bool {
    // The MRSB1 bucket magic (mrs-fs); restated here so the codec can
    // sanity-walk the payload without depending on the parser crate.
    let Some(b) = raw.strip_prefix(b"MRSB1") else { return false };
    let Some((count, mut rest)) = varint(b) else { return false };
    let mut prev: Option<&[u8]> = None;
    for _ in 0..(count as usize).min(SPOT_CHECK_PAIRS + 1) {
        let Some((klen, r)) = varint(rest) else { return false };
        if klen as usize > r.len() {
            return false;
        }
        let (k, r) = r.split_at(klen as usize);
        let Some((vlen, r)) = varint(r) else { return false };
        if vlen as usize > r.len() {
            return false;
        }
        if prev.is_some_and(|p| p > k) {
            return false;
        }
        prev = Some(k);
        rest = r.split_at(vlen as usize).1;
    }
    true
}

/// LEB128 unsigned varint off the front of `b` (the `MRSB1` length
/// encoding).
fn varint(b: &[u8]) -> Option<(u64, &[u8])> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in b.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some((v, &b[i + 1..]));
        }
        shift += 7;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame's verified cleartext, copied out of its [`Payload`].
    fn cleartext(bytes: Vec<u8>) -> Result<Vec<u8>, FrameError> {
        open_vec(bytes).map(|p| p.as_ref().to_vec())
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(CompressMode::parse("on"), Ok(CompressMode::On));
        assert_eq!(CompressMode::parse("off"), Ok(CompressMode::Off));
        assert_eq!(CompressMode::default(), CompressMode::Off);
        for bad in ["sometimes", "threshold=4096"] {
            let err = CompressMode::parse(bad).unwrap_err();
            assert!(err.contains("on|off"), "{err}");
        }
    }

    #[test]
    fn off_mode_stores_the_bucket_in_a_frame() {
        let raw = b"MRSB1 pretend bucket bytes ".repeat(40);
        let framed = encode_vec(raw.clone(), CompressMode::Off);
        assert!(is_framed(&framed));
        assert_eq!(framed[5] & FLAG_COMPRESSED, 0);
        assert_eq!(&framed[FRAME_HEADER_LEN..], &raw[..], "payload is the bucket itself");
        assert_eq!(cleartext(framed).unwrap(), raw);
    }

    #[test]
    fn stored_frame_decodes_in_the_buffer_it_arrived_in() {
        let framed = encode_vec(vec![7u8; 4096], CompressMode::Off);
        let ptr = framed.as_ptr();
        let payload = open_vec(framed).unwrap();
        assert_eq!(payload.as_ref(), &[7u8; 4096][..]);
        let (buf, start) = payload.into_parts();
        assert_eq!((buf.as_ptr(), start), (ptr, FRAME_HEADER_LEN), "no second allocation");
        // The borrowing decoder hands out the frame's own payload bytes.
        let framed = encode_vec_sorted(vec![7u8; 4096], CompressMode::Off, false);
        let (view, _) = decode_frame_sorted_cow(&framed).unwrap();
        assert!(matches!(view, Cow::Borrowed(p) if std::ptr::eq(p, &framed[FRAME_HEADER_LEN..])));
    }

    /// A frame written in place is the frame `encode_vec_sorted` makes of
    /// the same payload, in every mode, claim and size around the
    /// compression floor; a stored one is sealed in the buffer it was
    /// written in.
    #[test]
    fn a_frame_sealed_in_place_is_the_encoded_frame() {
        let payloads = [Vec::new(), b"MRSB1 x".repeat(73), vec![7u8; COMPRESS_FLOOR]];
        for raw in payloads {
            for mode in [CompressMode::Off, CompressMode::On] {
                for sorted in [false, true] {
                    let mut frame = reserve_frame(raw.len());
                    frame.extend_from_slice(&raw);
                    let written = frame.as_ptr();
                    let sealed = seal_frame(frame, mode, sorted);
                    assert_eq!(sealed, encode_vec_sorted(raw.clone(), mode, sorted));
                    if sealed[5] & FLAG_COMPRESSED == 0 {
                        assert_eq!(sealed.as_ptr(), written, "a stored frame is not copied");
                    }
                }
            }
        }
    }

    /// `open_vec` verifies a stored frame where it arrived: its payload is
    /// the frame's own bytes behind the header. A compressed frame opens
    /// to its cleartext, a verified claim survives and a bogus one does
    /// not, and damage is an error.
    #[test]
    fn a_stored_frame_opens_in_the_buffer_it_arrived_in() {
        let raw = bucket_bytes(&[(b"a", b"1"), (b"b", b"2")]);
        let framed = encode_vec_sorted(raw.clone(), CompressMode::Off, true);
        let arrived = framed.as_ptr();
        let payload = open_vec(framed).unwrap();
        assert_eq!(payload.as_ref(), &raw[..]);
        assert!(payload.claims_sorted());
        let (buf, start) = payload.into_parts();
        assert_eq!((buf.as_ptr(), start), (arrived, FRAME_HEADER_LEN), "no copy, no shift");

        let big = b"MRSB1".iter().chain(&[7u8; 4096]).copied().collect::<Vec<_>>();
        let compressed = encode_vec(big.clone(), CompressMode::On);
        assert_ne!(compressed[5] & FLAG_COMPRESSED, 0);
        let opened = open_vec(compressed).unwrap();
        assert_eq!((opened.as_ref(), opened.claims_sorted()), (&big[..], false));

        let unsorted = bucket_bytes(&[(b"b", b"1"), (b"a", b"2")]);
        let bogus = encode_vec_sorted(unsorted, CompressMode::Off, true);
        assert!(!open_vec(bogus).unwrap().claims_sorted(), "a bogus claim is demoted");

        let mut damaged = encode_vec(raw.clone(), CompressMode::Off);
        let last = damaged.len() - 1;
        damaged[last] ^= 1;
        assert!(matches!(open_vec(damaged), Err(FrameError::Checksum { .. })));
        assert_eq!(open_vec(raw.clone()), Err(FrameError::NotFramed));
        assert_eq!(Payload::raw(raw.clone()).as_ref(), &raw[..]);
    }

    #[test]
    fn on_mode_compresses_from_the_floor_up() {
        let small = vec![7u8; COMPRESS_FLOOR - 1];
        let big = vec![7u8; COMPRESS_FLOOR];
        let framed = encode_vec(small.clone(), CompressMode::On);
        assert_eq!(framed[5] & FLAG_COMPRESSED, 0, "below the floor stays stored");
        assert_eq!(cleartext(framed).unwrap(), small);
        let framed = encode_vec(big.clone(), CompressMode::On);
        assert_ne!(framed[5] & FLAG_COMPRESSED, 0);
        assert!(framed.len() < big.len(), "repetitive payload compresses");
        assert_eq!(cleartext(framed).unwrap(), big);
    }

    #[test]
    fn incompressible_payload_framed_uncompressed() {
        let mut x = 88172645463325252u64;
        let raw: Vec<u8> = (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as u8
            })
            .collect();
        let framed = encode_vec(raw.clone(), CompressMode::On);
        assert!(is_framed(&framed));
        assert_eq!(framed.len(), raw.len() + FRAME_HEADER_LEN, "stored, not inflated");
        assert_eq!(framed[5] & FLAG_COMPRESSED, 0);
        assert_eq!(cleartext(framed).unwrap(), raw);
    }

    #[test]
    fn input_without_the_magic_is_not_a_frame() {
        let raw = b"MRSB1 bucket bytes, never framed".to_vec();
        assert_eq!(cleartext(raw.clone()), Err(FrameError::NotFramed));
        assert_eq!(decode_frame(&raw), Err(FrameError::NotFramed));
        assert_eq!(decode_frame_sorted(&raw), Err(FrameError::NotFramed));
        // One damaged magic byte of a real frame is caught the same way.
        let mut framed = encode_vec(raw, CompressMode::Off);
        framed[0] ^= 1;
        assert_eq!(cleartext(framed), Err(FrameError::NotFramed));
    }

    #[test]
    fn truncated_header_is_an_error() {
        let framed = encode_vec(vec![1u8; 600], CompressMode::On);
        for cut in FRAME_MAGIC.len()..FRAME_HEADER_LEN {
            assert_eq!(cleartext(framed[..cut].to_vec()), Err(FrameError::Truncated));
        }
    }

    #[test]
    fn empty_input_roundtrips_in_every_mode() {
        for mode in [CompressMode::On, CompressMode::Off] {
            assert_eq!(cleartext(encode_vec(Vec::new(), mode)).unwrap(), Vec::<u8>::new());
        }
    }

    /// Hand-rolled MRSB1 bucket bytes (single-byte varints suffice here).
    fn bucket_bytes(records: &[(&[u8], &[u8])]) -> Vec<u8> {
        let mut b = b"MRSB1".to_vec();
        b.push(records.len() as u8);
        for (k, v) in records {
            b.push(k.len() as u8);
            b.extend_from_slice(k);
            b.push(v.len() as u8);
            b.extend_from_slice(v);
        }
        b
    }

    #[test]
    fn sorted_flag_roundtrips_and_verifies() {
        let raw = bucket_bytes(&[(b"a", b"1"), (b"a", b"2"), (b"b", b"")]);
        let framed = encode_vec_sorted(raw.clone(), CompressMode::On, true);
        assert!(is_framed(&framed));
        assert_ne!(framed[5] & FLAG_SORTED_RUN, 0);
        let (back, sorted) = decode_frame_sorted(&framed).unwrap();
        assert_eq!(back, raw);
        assert!(sorted, "genuinely sorted claim must survive the spot-check");
        // The plain decoders accept the new flag bit too.
        assert_eq!(cleartext(framed.clone()).unwrap(), raw);
        assert_eq!(decode_frame(&framed).unwrap(), raw);
    }

    #[test]
    fn unflagged_input_reports_unsorted() {
        let raw = bucket_bytes(&[(b"a", b"1")]);
        let framed = encode_vec(raw.clone(), CompressMode::On);
        assert_eq!(decode_frame_sorted(&framed).unwrap(), (raw.clone(), false));
        let unflagged = encode_vec_sorted(raw.clone(), CompressMode::On, false);
        assert_eq!(decode_frame_sorted(&unflagged).unwrap(), (raw, false));
    }

    #[test]
    fn bogus_sorted_claim_is_demoted_and_counted() {
        let unsorted = bucket_bytes(&[(b"b", b"1"), (b"a", b"2")]);
        let framed = encode_vec_sorted(unsorted.clone(), CompressMode::On, true);
        let before = sorted_claim_rejects();
        let (back, sorted) = decode_frame_sorted(&framed).unwrap();
        assert_eq!(back, unsorted, "payload still decodes");
        assert!(!sorted, "claim must be demoted to unsorted");
        assert!(sorted_claim_rejects() > before, "the reject must be counted");
        // A claim on a non-bucket payload is equally bogus.
        let garbage = encode_vec_sorted(vec![9u8; 600], CompressMode::On, true);
        assert!(!decode_frame_sorted(&garbage).unwrap().1);
    }

    #[test]
    fn sorted_claim_rides_on_a_stored_frame() {
        let raw = bucket_bytes(&[(b"a", b"1")]);
        let out = encode_vec_sorted(raw.clone(), CompressMode::Off, true);
        assert_eq!(decode_frame_sorted(&out).unwrap(), (raw, true));
    }
}
