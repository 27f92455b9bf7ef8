//! The driver edge recycles: a job's answer is written into the records
//! the driver handed in, so the driver thread neither frees its input nor
//! allocates its answer record by record.
//!
//! A counting global allocator, per thread (as in
//! `crates/mrs-core/tests/alloc_count.rs`, so the runtimes' own threads
//! and parallel tests do not count), counts the allocations and frees the
//! driver thread makes inside one warm, sort-shaped `Job::map_reduce`. The
//! plain edge costs about four per record: two frees when `local_data`
//! drops the input's key and value, two allocations when `fetch_all`
//! builds the answer's. The serial runtime, the oracle, keeps that plain
//! edge on purpose.
//!
//! The same allocator also counts the bytes allocated by two thread roles,
//! told apart by thread name: the planes' worker slots (`mrs-worker-*`)
//! and the data servers' threads (`mrs-data-*`). Inside a cluster's data
//! path each byte is copied once: a served bucket is framed straight into
//! the buffer the socket is handed, and a fetched frame is the arena of
//! the bucket the kernel reads.

use mrs::apps::sort::{keyed_records, RangeSort};
use mrs::prelude::*;
use mrs_fs::format::write_bucket_bytes;
use mrs_rng::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Counting;

thread_local! {
    /// Allocations, reallocations and frees this thread made.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
}

/// The thread roles whose allocated bytes are counted apart, as indices
/// into [`BYTES`]; any other thread is [`OTHER`].
const WORKER: u8 = 0;
const DATA_SERVER: u8 = 1;
const OTHER: u8 = 2;
/// A thread whose name was not read yet, or is being read.
const UNKNOWN: u8 = 3;
const NAMING: u8 = 4;

/// Bytes allocated (and reallocated to) by each counted role, all threads.
static BYTES: [AtomicU64; 2] = [const { AtomicU64::new(0) }; 2];

thread_local! {
    /// This thread's role, read from its name at its first allocation.
    static ROLE: Cell<u8> = const { Cell::new(UNKNOWN) };
}

fn count_bytes(n: usize) {
    let _ = ROLE.try_with(|role| {
        if role.get() == UNKNOWN {
            // Reading the name may allocate: that allocation is not counted.
            role.set(NAMING);
            let current = std::thread::current();
            role.set(match current.name() {
                Some(name) if name.starts_with("mrs-worker-") => WORKER,
                Some(name) if name.starts_with("mrs-data-") => DATA_SERVER,
                _ => OTHER,
            });
        }
        if let Some(bytes) = BYTES.get(role.get() as usize) {
            bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
    });
}

/// Bytes the counted roles allocated so far: `[workers, data servers]`.
fn role_bytes() -> [u64; 2] {
    BYTES.each_ref().map(|b| b.load(Ordering::Relaxed))
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size());
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_one();
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_bytes(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test: the role counters see every thread of the process,
/// so no other test's runtime may run beside a measured job.
static ALONE: Mutex<()> = Mutex::new(());

/// Records per job.
const N: u64 = 20_000;

fn input() -> Vec<Record> {
    let mut rng = SplitMix64::new(5);
    keyed_records(&(0..N).map(|_| rng.next_u64()).collect::<Vec<_>>())
}

fn program() -> Arc<Simple<RangeSort>> {
    Arc::new(Simple(RangeSort::plan(&RangeSort::sample(&input(), 256, 5), 4).unwrap()))
}

/// Allocations plus frees on this thread inside the second of two
/// `map_reduce` jobs on `rt`: the input is made before the count starts
/// and the answer checked and dropped after it ends.
fn driver_events(rt: &mut dyn JobApi, expected: &[Record]) -> u64 {
    let mut events = 0;
    for _ in 0..2 {
        let input = input();
        let before = EVENTS.with(Cell::get);
        let answer = Job::new(rt).map_reduce(input, 4, 4, false).unwrap();
        events = EVENTS.with(Cell::get) - before;
        assert!(answer == expected, "the answer differs from serial's");
    }
    events
}

/// On the pool and on a 2-slave cluster the driver thread's allocations
/// plus frees inside a job of 20,000 records stay below one per 50
/// records; serial's stay at four per record or more.
#[test]
fn a_recycled_driver_edge_allocates_nothing_per_record() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let program = program();
    let expected = Job::new(&mut SerialRuntime::new(program.clone()))
        .map_reduce(input(), 4, 4, false)
        .unwrap();
    let bound = N / 50;

    let serial = driver_events(&mut SerialRuntime::new(program.clone()), &expected);
    assert!(serial >= 4 * N, "serial: {serial} allocations and frees");

    let pool = driver_events(&mut LocalRuntime::pool(program.clone(), 2), &expected);
    assert!(pool < bound, "pool: {pool} allocations and frees, bound {bound}");

    let mut cluster =
        LocalCluster::start(program, 2, DataPlane::Direct, MasterConfig::default()).unwrap();
    let cluster = driver_events(&mut cluster, &expected);
    assert!(cluster < bound, "cluster: {cluster} allocations and frees, bound {bound}");
    eprintln!("driver thread, allocations plus frees per job: serial {serial}, pool {pool}, cluster {cluster}");
}

/// One warm job's data-path traffic and what the counted roles allocated
/// for it.
#[derive(Debug)]
struct DataPath {
    /// Worker bytes up to the reduce wave's end: fetch, index, kernels.
    workers: u64,
    /// Data-server bytes over the whole job, the driver's fetch included.
    data_servers: u64,
    /// Wire bytes the workers fetched (source splits, shuffle runs) and
    /// their decoded bytes.
    fetched: u64,
    fetched_raw: u64,
    /// Wire bytes the driver's `fetch_all` fetched.
    answer: u64,
}

/// Jobs 2-4 of four `map_reduce` jobs on `rt`, step by step, with the
/// wire bytes `metrics` reads off `rt` (fetched, decoded) between them.
fn data_path<R: JobApi>(rt: &mut R, metrics: impl Fn(&R) -> (u64, u64)) -> Vec<DataPath> {
    let mut paths = Vec::new();
    for _ in 0..4 {
        let input = input();
        let (before, (wire0, raw0)) = (role_bytes(), metrics(rt));
        let src = rt.local_data(input, 4).unwrap();
        let mapped = rt.map_data(src, 0, 4, false).unwrap();
        let reduced = rt.reduce_data(mapped, 0).unwrap();
        rt.wait(reduced).unwrap();
        let (waited, (wire1, raw1)) = (role_bytes(), metrics(rt));
        let answer = rt.fetch_all(reduced).unwrap();
        for data in [src, mapped, reduced] {
            rt.discard(data);
        }
        let (after, (wire2, _)) = (role_bytes(), metrics(rt));
        assert_eq!(answer.len() as u64, N);
        paths.push(DataPath {
            workers: waited[0] - before[0],
            data_servers: after[1] - before[1],
            fetched: wire1 - wire0,
            fetched_raw: raw1 - raw0,
            answer: wire2 - wire1,
        });
    }
    paths.split_off(1)
}

/// Bytes of read buffer a fetch batch allocates per answer it expects
/// (`mrs-rpc`'s pipelined client; the batches here are far below its cap).
const READ_BUFFER_PER_ANSWER: u64 = 16 * 1024;

/// On a warm 2-slave cluster, a sort job's fetched and served bytes are
/// each copied once. Its workers allocate, beyond what the same job's
/// workers allocate on the pool (the kernels' own buckets, with no fetch
/// at all), at most 1.1 bytes per byte they fetch, plus one 12-byte table
/// entry per record fetched and each batch's read buffer: the received
/// body is the bucket. The data servers allocate at most 1.1 bytes per
/// byte the slaves serve: each frame is written once, in the buffer the
/// socket sends. Copying a run into an arena of its own, or a frame into
/// a shared buffer, costs a further byte per byte and fails. Every warm
/// job is held to both bounds.
#[test]
fn each_byte_on_the_data_path_is_copied_once() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let program = program();
    let pool = data_path(&mut LocalRuntime::pool(program.clone(), 2), |_| (0, 0));
    let pool_workers = pool.iter().map(|p| p.workers).min().expect("three jobs");
    // No backups: a second attempt of a task would fetch and run it twice,
    // which the pool never does.
    let cfg = MasterConfig { speculate: SpeculateMode::Off, ..MasterConfig::default() };
    let mut cluster = LocalCluster::start(program, 2, DataPlane::Direct, cfg).unwrap();
    let paths = data_path(&mut cluster, |cluster| {
        let metrics = cluster.metrics();
        (metrics.bytes_on_wire(), metrics.bytes_pre_compress())
    });

    // Every record of the sort is one size; the splits are fetched whole
    // from the master, which serves them from frames it holds.
    let record = write_bucket_bytes(&input()[..1]).len() as u64 - 6;
    let splits: u64 = input()
        .chunks(N as usize / 4)
        .map(|split| (write_bucket_bytes(split).len() + mrs_codec::FRAME_HEADER_LEN) as u64)
        .sum();
    for path in &paths {
        let records = path.fetched_raw / record;
        assert!(records >= N, "every split crossed the wire: {path:?}");
        // Stored frames: each fetched body is its payload behind a header.
        let answers = (path.fetched - path.fetched_raw) / mrs_codec::FRAME_HEADER_LEN as u64;
        let served = path.fetched + path.answer - splits;
        let extra = path.workers.saturating_sub(pool_workers);
        let bound = path.fetched * 11 / 10 + 12 * records + READ_BUFFER_PER_ANSWER * answers;
        eprintln!(
            "workers: {extra} bytes beyond the pool's {pool_workers}, {records} records in \
             {answers} answers fetched (bound {bound}); data servers: {} bytes for {served} \
             served (bound {})",
            path.data_servers,
            served * 11 / 10
        );
        assert!(extra <= bound, "workers copy fetched bytes: {path:?}");
        assert!(path.data_servers <= served * 11 / 10, "data servers copy served bytes: {path:?}");
    }
}
