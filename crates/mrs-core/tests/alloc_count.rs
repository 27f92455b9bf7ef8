//! Records stay bytes: the typed adapter allocates nothing per record.
//!
//! A counting global allocator (per thread, so parallel tests do not see
//! each other) measures `Simple(WordCount)` on the map kernel and on the
//! reduce/combine entry points. Bucket arenas and the hash combiner still
//! grow by doubling, so the map task's count may rise with input size —
//! but by a handful of reallocations, not by one allocation per token.
//! The float-vector codec that every PSO record goes through is measured
//! the same way. The same allocator keeps a per-thread high-water mark of
//! live bytes, which bounds what a combining map task holds at once.

use mrs_core::kv::encode_record;
use mrs_core::task::run_map_task_bucket;
use mrs_core::{Bucket, Datum, MapReduce, Program, Simple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since [`peak_during`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn grow(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        grow(layout.size() as i64);
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations this thread makes while `f` runs.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The most bytes live at once on this thread while `f` runs, beyond
/// those live when it started.
fn peak_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    ((PEAK.with(Cell::get) - base) as u64, out)
}

/// Program 1, as `src/apps/wordcount.rs` has it.
struct WordCount;

impl MapReduce for WordCount {
    type K1 = u64;
    type V1 = String;
    type K2 = String;
    type V2 = u64;

    fn map(&self, _line_no: u64, line: &str, emit: &mut dyn FnMut(&str, u64)) {
        for word in line.split_whitespace() {
            emit(word, 1);
        }
    }

    fn reduce(
        &self,
        _word: &str,
        counts: &mut dyn Iterator<Item = u64>,
        emit: &mut dyn FnMut(u64),
    ) {
        emit(counts.sum());
    }

    fn has_combiner(&self) -> bool {
        true
    }
}

/// `tokens` tokens over a 100-word vocabulary, ten to a line.
fn split(tokens: usize) -> Bucket {
    (0..tokens / 10)
        .map(|line| {
            let words: Vec<String> =
                (0..10).map(|i| format!("word{}", (line * 7 + i * 13) % 100)).collect();
            encode_record(&(line as u64), &words.join(" "))
        })
        .collect()
}

#[test]
fn map_task_allocations_do_not_grow_with_tokens() {
    let program = Simple(WordCount);
    let (small, large) = (split(1_000), split(10_000));
    for combine in [false, true] {
        let run = |input: &Bucket| {
            let (allocs, out) =
                allocs_during(|| run_map_task_bucket(&program, 0, input, 2, combine).unwrap());
            let emitted: usize = out.iter().map(Bucket::len).sum();
            assert_eq!(emitted, if combine { 100 } else { 10 * input.len() });
            allocs
        };
        run(&small); // warm the thread-local scratch buffers
        let (few, many) = (run(&small), run(&large));
        let grown = many.saturating_sub(few);
        assert!(
            grown < 90,
            "combine={combine}: 9000 more tokens cost {grown} more allocations ({few} -> {many})"
        );
    }
}

/// `tokens` tokens over a 10-word vocabulary, ten to a line.
fn ten_key_split(tokens: usize) -> Bucket {
    let line: Vec<String> = (0..10).map(|i| format!("word{i}")).collect();
    let line = line.join(" ");
    (0..tokens / 10).map(|n| encode_record(&(n as u64), &line)).collect()
}

#[test]
fn combining_map_task_memory_does_not_grow_with_tokens() {
    let program = Simple(WordCount);
    let peak = |tokens: usize| {
        let input = ten_key_split(tokens);
        let (bytes, out) =
            peak_during(|| run_map_task_bucket(&program, 0, &input, 2, true).unwrap());
        assert_eq!(out.iter().map(Bucket::len).sum::<usize>(), 10);
        bytes
    };
    peak(1_000); // warm the thread-local scratch buffers
    let (small, large) = (peak(100_000), peak(1_000_000));
    assert!(large * 4 <= small * 5, "10 keys: 1M tokens peaked at {large} bytes, 100k at {small}");
}

#[test]
fn reduce_and_combine_allocate_nothing_per_group() {
    let program = Simple(WordCount);
    let keys: Vec<Vec<u8>> = (0..1_000).map(|i| format!("word{i}").to_bytes()).collect();
    let ones = [1u64.to_bytes(), 1u64.to_bytes(), 1u64.to_bytes()];
    let fold_all = |combine: bool| {
        let mut total = 0u64;
        for key in &keys {
            let mut values = ones.iter().map(Vec::as_slice);
            let mut emit = |_: &[u8], v: &[u8]| total += u64::view(v).unwrap();
            if combine {
                program.combine_bytes(0, key, &mut values, &mut emit).unwrap();
            } else {
                program.reduce_bytes(0, key, &mut values, &mut emit).unwrap();
            }
        }
        assert_eq!(total, 3_000);
    };
    for combine in [false, true] {
        fold_all(combine); // warm the thread-local scratch buffers
        let (allocs, ()) = allocs_during(|| fold_all(combine));
        assert_eq!(allocs, 0, "combine={combine}: 1000 String-keyed groups");
    }
}

#[test]
fn float_vectors_encode_and_decode_in_one_block() {
    let small: Vec<f64> = (0..25).map(f64::from).collect();
    let large: Vec<f64> = (0..2_500).map(f64::from).collect();
    let (few, _) = allocs_during(|| small.to_bytes());
    let (many, bytes) = allocs_during(|| large.to_bytes());
    assert!(many <= few, "2500 floats cost {many} allocations, 25 cost {few}");
    let (decode, back) = allocs_during(|| Vec::<f64>::from_bytes(&bytes).unwrap());
    assert_eq!(decode, 1, "decoding 2500 floats");
    assert_eq!(back, large);
}
