//! Process-wide data-plane counters.
//!
//! The shuffle codec runs deep inside fetch paths that have no job
//! context (the prefetch threads, the master's result collector), so —
//! like the HTTP connection pool's `pool_stats` — these are process-wide
//! atomics. Job-scoped views take a [`snapshot`] at job start and report
//! the delta via [`DataPlaneStats::since`].
//!
//! What the counters mean:
//!
//! - `bytes_pre_compress` — decoded (raw `MRSB1`) size of every bucket
//!   fetched over HTTP: the volume that *would* have crossed the wire
//!   without the codec.
//! - `bytes_on_wire` — the HTTP body bytes actually transferred for
//!   those fetches. `pre / wire` is the live compression ratio (just
//!   under 1 with stored frames: each carries an 18-byte header).
//! - `shortcircuit_fetches` — fetches satisfied from the local frame
//!   cache without touching a socket (colocated producer+consumer).
//! - `checksum_retries` — remote frames that failed checksum
//!   verification and were re-fetched once.
//! - `eager_fragments` / `eager_bytes` — map-output buckets pulled by
//!   the background shuffle fetcher *before* the operation barrier
//!   cleared, and their decoded sizes.
//! - `residual_fetches` — reduce inputs an eager-enabled slave still had
//!   to fetch cold at task time (fragments the fetcher missed: published
//!   late, predicted onto another slave, or invalidated).
//! - `overlap_micros` — for every warm fragment a reduce-like task
//!   consumed, the time it sat ready in the cache before it was needed:
//!   transfer + verify work that ran concurrently with map execution
//!   instead of on the post-barrier critical path.
//! - `merge_runs` / `presorted_runs` — input runs consumed by merge-mode
//!   reduce tasks, and how many of them arrived already sorted (no
//!   task-time sort needed). Equal when every producer upholds the
//!   sorted-run guarantee.
//! - `merge_micros` — wall time reduce-like tasks spent assembling their
//!   input (decode + any demoted-run sorts + the streamed merge is *not*
//!   included: it overlaps the reduce itself).
//! - `peak_reduce_records` — the largest record count any single
//!   reduce-like task materialized as input.

use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_PRE_COMPRESS: AtomicU64 = AtomicU64::new(0);
static BYTES_ON_WIRE: AtomicU64 = AtomicU64::new(0);
static SHORTCIRCUIT_FETCHES: AtomicU64 = AtomicU64::new(0);
static CHECKSUM_RETRIES: AtomicU64 = AtomicU64::new(0);
static EAGER_FRAGMENTS: AtomicU64 = AtomicU64::new(0);
static EAGER_BYTES: AtomicU64 = AtomicU64::new(0);
static RESIDUAL_FETCHES: AtomicU64 = AtomicU64::new(0);
static OVERLAP_MICROS: AtomicU64 = AtomicU64::new(0);
static MERGE_RUNS: AtomicU64 = AtomicU64::new(0);
static PRESORTED_RUNS: AtomicU64 = AtomicU64::new(0);
static MERGE_MICROS: AtomicU64 = AtomicU64::new(0);
static PEAK_REDUCE_RECORDS: AtomicU64 = AtomicU64::new(0);

/// Record one completed remote bucket transfer: `raw` decoded bytes
/// moved as `wire` bytes on the socket.
pub fn record_remote_fetch(raw: usize, wire: usize) {
    BYTES_PRE_COMPRESS.fetch_add(raw as u64, Ordering::Relaxed);
    BYTES_ON_WIRE.fetch_add(wire as u64, Ordering::Relaxed);
}

/// Record a fetch served from the local frame cache (no socket).
pub fn record_shortcircuit() {
    SHORTCIRCUIT_FETCHES.fetch_add(1, Ordering::Relaxed);
}

/// Record a checksum-failed remote frame being re-fetched.
pub fn record_checksum_retry() {
    CHECKSUM_RETRIES.fetch_add(1, Ordering::Relaxed);
}

/// Record one map-output bucket of `bytes` decoded bytes fetched by the
/// eager shuffle fetcher ahead of the barrier.
pub fn record_eager_fragment(bytes: usize) {
    EAGER_FRAGMENTS.fetch_add(1, Ordering::Relaxed);
    EAGER_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Record a reduce input an eager-enabled slave fetched cold at task
/// time (not found warm in its fragment cache).
pub fn record_residual_fetch() {
    RESIDUAL_FETCHES.fetch_add(1, Ordering::Relaxed);
}

/// Record a warm fragment being consumed by its reduce-like task after
/// sitting ready for `overlap` — the transfer latency hidden behind map
/// execution.
pub fn record_overlap(overlap: std::time::Duration) {
    OVERLAP_MICROS.fetch_add(overlap.as_micros() as u64, Ordering::Relaxed);
}

/// Record one merge-mode reduce input being assembled: `runs` decoded
/// runs (of which `presorted` arrived already sorted), `records` total
/// input records, and the `assembly` wall time spent getting them
/// merge-ready (decode plus any demotion sorts).
pub fn record_merge_input(
    runs: usize,
    presorted: usize,
    records: usize,
    assembly: std::time::Duration,
) {
    MERGE_RUNS.fetch_add(runs as u64, Ordering::Relaxed);
    PRESORTED_RUNS.fetch_add(presorted as u64, Ordering::Relaxed);
    MERGE_MICROS.fetch_add(assembly.as_micros() as u64, Ordering::Relaxed);
    PEAK_REDUCE_RECORDS.fetch_max(records as u64, Ordering::Relaxed);
}

/// A point-in-time (or delta) view of the data-plane counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Decoded bytes of remotely fetched buckets.
    pub bytes_pre_compress: u64,
    /// Bytes those fetches put on the wire.
    pub bytes_on_wire: u64,
    /// Fetches short-circuited through the local frame cache.
    pub shortcircuit_fetches: u64,
    /// Corrupt remote frames re-fetched.
    pub checksum_retries: u64,
    /// Map-output buckets fetched eagerly ahead of the barrier.
    pub eager_fragments: u64,
    /// Decoded bytes of those eager fetches.
    pub eager_bytes: u64,
    /// Reduce inputs fetched cold at task time under eager mode.
    pub residual_fetches: u64,
    /// Microseconds warm fragments sat ready before their reduce-like
    /// task consumed them (transfer hidden behind map execution).
    pub overlap_micros: u64,
    /// Input runs consumed by merge-mode reduce tasks.
    pub merge_runs: u64,
    /// Of those, runs that arrived already in sorted key order.
    pub presorted_runs: u64,
    /// Microseconds spent assembling merge-ready reduce inputs.
    pub merge_micros: u64,
    /// Largest record count one reduce-like task materialized as input.
    /// A high-water gauge, not a sum — `since` carries the process-wide
    /// peak through rather than subtracting.
    pub peak_reduce_records: u64,
}

impl DataPlaneStats {
    /// Counters accumulated since `earlier` (a prior [`snapshot`]).
    pub fn since(self, earlier: DataPlaneStats) -> DataPlaneStats {
        DataPlaneStats {
            bytes_pre_compress: self.bytes_pre_compress - earlier.bytes_pre_compress,
            bytes_on_wire: self.bytes_on_wire - earlier.bytes_on_wire,
            shortcircuit_fetches: self.shortcircuit_fetches - earlier.shortcircuit_fetches,
            checksum_retries: self.checksum_retries - earlier.checksum_retries,
            eager_fragments: self.eager_fragments - earlier.eager_fragments,
            eager_bytes: self.eager_bytes - earlier.eager_bytes,
            residual_fetches: self.residual_fetches - earlier.residual_fetches,
            overlap_micros: self.overlap_micros - earlier.overlap_micros,
            merge_runs: self.merge_runs - earlier.merge_runs,
            presorted_runs: self.presorted_runs - earlier.presorted_runs,
            merge_micros: self.merge_micros - earlier.merge_micros,
            peak_reduce_records: self.peak_reduce_records,
        }
    }

    /// Render the counters in the Prometheus text exposition format,
    /// prefixed `mrs_dataplane_` to keep them apart from the job-scoped
    /// [`crate::metrics::JobMetrics`] samples on the same `/metrics` page.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut counter = |name: &str, v: u64| {
            out.push_str("mrs_dataplane_");
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        counter("bytes_pre_compress_total", self.bytes_pre_compress);
        counter("bytes_on_wire_total", self.bytes_on_wire);
        counter("shortcircuit_fetches_total", self.shortcircuit_fetches);
        counter("checksum_retries_total", self.checksum_retries);
        counter("eager_fragments_total", self.eager_fragments);
        counter("eager_bytes_total", self.eager_bytes);
        counter("residual_fetches_total", self.residual_fetches);
        counter("overlap_micros_total", self.overlap_micros);
        counter("merge_runs_total", self.merge_runs);
        counter("presorted_runs_total", self.presorted_runs);
        counter("merge_micros_total", self.merge_micros);
        counter("peak_reduce_records", self.peak_reduce_records);
        out
    }
}

/// Current cumulative counter values for this process.
pub fn snapshot() -> DataPlaneStats {
    DataPlaneStats {
        bytes_pre_compress: BYTES_PRE_COMPRESS.load(Ordering::Relaxed),
        bytes_on_wire: BYTES_ON_WIRE.load(Ordering::Relaxed),
        shortcircuit_fetches: SHORTCIRCUIT_FETCHES.load(Ordering::Relaxed),
        checksum_retries: CHECKSUM_RETRIES.load(Ordering::Relaxed),
        eager_fragments: EAGER_FRAGMENTS.load(Ordering::Relaxed),
        eager_bytes: EAGER_BYTES.load(Ordering::Relaxed),
        residual_fetches: RESIDUAL_FETCHES.load(Ordering::Relaxed),
        overlap_micros: OVERLAP_MICROS.load(Ordering::Relaxed),
        merge_runs: MERGE_RUNS.load(Ordering::Relaxed),
        presorted_runs: PRESORTED_RUNS.load(Ordering::Relaxed),
        merge_micros: MERGE_MICROS.load(Ordering::Relaxed),
        peak_reduce_records: PEAK_REDUCE_RECORDS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate() {
        let before = snapshot();
        record_remote_fetch(1000, 300);
        record_remote_fetch(500, 500);
        record_shortcircuit();
        record_checksum_retry();
        record_eager_fragment(256);
        record_residual_fetch();
        record_overlap(std::time::Duration::from_millis(3));
        let d = snapshot().since(before);
        // Other tests in the process may add concurrently; bounds only.
        assert!(d.bytes_pre_compress >= 1500);
        assert!(d.bytes_on_wire >= 800);
        assert!(d.shortcircuit_fetches >= 1);
        assert!(d.checksum_retries >= 1);
        assert!(d.eager_fragments >= 1);
        assert!(d.eager_bytes >= 256);
        assert!(d.residual_fetches >= 1);
        assert!(d.overlap_micros >= 3000);
    }
}
