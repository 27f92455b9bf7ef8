//! mrs-codec: the shuffle payload codec.
//!
//! Three dependency-free layers, bottom to top:
//!
//! - [`lz`] — an LZ4-style block compressor/decompressor,
//! - [`xxhash`] — one-shot xxHash64,
//! - [`frame`] — the versioned `MRSF1` frame (magic, flags,
//!   uncompressed length, checksum, payload) that the data plane puts
//!   on the wire around raw `MRSB1` bucket bytes.
//!
//! A frame is built for every bucket that leaves its producer — a peer's
//! GET, a shared-filesystem write — and every consumer verifies its
//! checksum and rejects anything that is not a frame. Both ends work in
//! place: a producer writes its bucket bytes straight behind a reserved
//! header and seals the frame over them ([`reserve_frame`],
//! [`seal_frame`]); a consumer opens the buffer the frame arrived in
//! ([`open_vec`]) and parses the [`Payload`] where it lies, so a stored
//! payload is never copied between the socket and the bucket built on it.
//! A bucket that stays on its slave is never framed.

pub mod frame;
pub mod lz;
pub mod xxhash;

pub use frame::{
    decode_frame, decode_frame_sorted, decode_frame_sorted_cow, encode_vec, encode_vec_sorted,
    is_framed, open_vec, reserve_frame, seal_frame, sorted_claim_rejects, CompressMode, FrameError,
    Payload, FLAG_SORTED_RUN, FRAME_HEADER_LEN, FRAME_MAGIC,
};
pub use lz::{compress, decompress, LzError};
pub use xxhash::xxh64;
