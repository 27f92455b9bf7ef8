//! Storage layer for intermediate and input data.
//!
//! The paper (§IV-B) stresses that Mrs works with *any* filesystem — NFS,
//! Lustre, HDFS-over-FUSE, or plain local disk — instead of requiring a
//! dedicated distributed filesystem. This crate provides:
//!
//! * [`store::Store`] — the minimal filesystem interface the runtimes need,
//! * [`local::LocalFs`] — a directory-rooted store on the real filesystem
//!   (with [`local::TempFs`] for run-scoped scratch space),
//! * [`mem::MemFs`] — an in-memory shared store standing in for the
//!   cluster-wide NFS/Lustre mount, with injectable latency and failures
//!   for testing fault tolerance,
//! * [`url::BucketUrl`] — `file://`, `mem://`, and `http://` URLs naming
//!   bucket data wherever it lives, and `empty:` for a bucket with no
//!   records, which lives nowhere,
//! * [`format`] — the on-disk record formats (binary KV bucket files and
//!   line-oriented text).

pub mod format;
pub mod local;
pub mod mem;
pub mod store;
pub mod url;

pub use local::{LocalFs, TempFs};
pub use mem::MemFs;
pub use store::Store;
pub use url::BucketUrl;
