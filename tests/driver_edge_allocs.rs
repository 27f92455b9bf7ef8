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

use mrs::apps::sort::{keyed_records, RangeSort};
use mrs::prelude::*;
use mrs_rng::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations, reallocations and frees this thread made.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
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
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
