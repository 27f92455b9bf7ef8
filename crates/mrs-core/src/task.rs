//! The task kernel: the actual work of a map, reduce or fused task.
//!
//! Every execution implementation — serial, mock-parallel, thread pool,
//! master/slave, and the Hadoop baseline — funnels through this code,
//! which is what guarantees the paper's property that all implementations
//! "produce identical answers" (§IV-A): the runtimes differ only in
//! *where and when* tasks run, never in what a task computes.
//!
//! There is one kernel, [`run_task`], over one description of a task,
//! [`TaskSpec`], and the sorted runs it reads:
//!
//! * a **map** reads `runs[0]` record by record and partitions what the
//!   map function emits;
//! * a **reduce** streams key groups out of a k-way [`RunMerger`] over its
//!   runs straight into the reduce function, never materializing the
//!   concatenated partition — the merge breaks equal keys by run index,
//!   which is exactly a stable sort's value order;
//! * a fused **reduce-map** feeds every reduced record of that same merge
//!   into the map function, in the order a reduce task's output bucket
//!   would hold them, so its buckets are byte-identical to running the
//!   reduce task and then a map task over its output.
//!
//! Map-like output goes through one partitioned sink chosen once per task:
//! plain buckets sorted at the end, or — when the task combines — one
//! [`Combiner`] for the whole task, which hashes and partitions each key
//! once, logs values flat, and folds each key group on the schedule of
//! folding as values arrive, so duplicate-heavy workloads never hold the
//! raw output ("the reduce function can function as a combiner", §V-A).
//! Either way every output bucket is a **sorted run**, which is what lets
//! the next reduce merge instead of sort.
//!
//! Three thin conveniences sit beside the kernel: [`run_map_task_bucket`]
//! and [`run_reduce_task_merge`] are the kernel's map and reduce arms
//! under the names the layer benchmarks and allocation tests time, and
//! [`run_reduce_task`] is the concatenate+sort reduce — independent of the
//! merger, the reference the merge is tested against and the shape
//! `hadoop-sim` models.

use crate::bucket::{key_prefix, sorted_order, Bucket};
use crate::error::{Error, Result};
use crate::merge::RunMerger;
use crate::program::{FuncId, Program};
use mrs_rng::splitmix::hash_bytes;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};

/// What one task does with its input: the one description every plane
/// schedules by and the kernel runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskSpec {
    /// Map each input record, partitioning the output into `parts` buckets.
    Map {
        /// Map function id.
        func: FuncId,
        /// Output partitions.
        parts: usize,
        /// Combine map output locally when `func` has a combiner.
        combine: bool,
    },
    /// Group the gathered partition by key and reduce each group into the
    /// task's one output bucket.
    Reduce {
        /// Reduce function id.
        func: FuncId,
    },
    /// Fused reduce+map (§ iterative jobs): reduce each group and feed
    /// every reduced record straight into the map function — one task
    /// where the unfused plan schedules and shuffles two.
    ReduceMap {
        /// Reduce function id.
        reduce_func: FuncId,
        /// Map function id.
        map_func: FuncId,
        /// Output partitions.
        parts: usize,
        /// Combine map output locally when `map_func` has a combiner.
        combine: bool,
    },
}

impl TaskSpec {
    /// Buckets per task when the output is map-like (reducible).
    pub fn parts(&self) -> Option<usize> {
        match *self {
            TaskSpec::Map { parts, .. } | TaskSpec::ReduceMap { parts, .. } => Some(parts),
            TaskSpec::Reduce { .. } => None,
        }
    }

    /// Whether the task gathers one partition of every task of its input
    /// (reduce and reduce-map) rather than reading one split (map).
    pub fn gathers(&self) -> bool {
        !matches!(self, TaskSpec::Map { .. })
    }
}

/// Check a cooperative-cancellation flag (if any); raise [`Error::Cancelled`]
/// when it is set. Called at record boundaries of a map, at group
/// boundaries of a reduce-like task and at group boundaries of the
/// combiner's finish (where every fold of a combining task runs), so a
/// losing speculative attempt abandons its work within one record/group
/// of the cancel order landing.
#[inline]
fn check_cancel(cancel: Option<&AtomicBool>) -> Result<()> {
    match cancel {
        Some(flag) if flag.load(Ordering::Relaxed) => Err(Error::Cancelled),
        _ => Ok(()),
    }
}

/// Run one task over its input `runs`: the split of a map (`runs[0]`), or
/// the sorted runs a reduce-like task gathered, in producer order. Returns
/// the task's output buckets — `parts` sorted runs for a map-like task,
/// one bucket for a reduce. When `cancel` becomes set the kernel stops and
/// returns [`Error::Cancelled`], discarding all partial output.
pub fn run_task<B: Borrow<Bucket>>(
    program: &dyn Program,
    spec: &TaskSpec,
    runs: &[B],
    cancel: Option<&AtomicBool>,
) -> Result<Vec<Bucket>> {
    kernel(program, spec, &borrowed(runs), cancel)
}

/// The caller's runs as plain references. Everything below this point is
/// written over `&[&Bucket]` and so compiled once, in this crate, where
/// the per-record `Bucket` operations inline — not once per `B` in
/// whichever crate names it.
fn borrowed<B: Borrow<Bucket>>(runs: &[B]) -> Vec<&Bucket> {
    runs.iter().map(Borrow::borrow).collect()
}

fn kernel(
    program: &dyn Program,
    spec: &TaskSpec,
    runs: &[&Bucket],
    cancel: Option<&AtomicBool>,
) -> Result<Vec<Bucket>> {
    let (reduce_func, map_func, parts, combine) = match *spec {
        TaskSpec::Reduce { func } => return reduce(program, func, runs, cancel).map(|b| vec![b]),
        TaskSpec::Map { func, parts, combine } => (None, func, parts, combine),
        TaskSpec::ReduceMap { reduce_func, map_func, parts, combine } => {
            (Some(reduce_func), map_func, parts, combine)
        }
    };
    // The sink is chosen here, once: each instantiation of `map_like`
    // has its per-record emit path compiled for one sink.
    if combine && program.has_combiner(map_func) {
        map_like(program, reduce_func, map_func, runs, cancel, Combiner::new(parts))
    } else {
        let buckets: Vec<Bucket> = (0..parts).map(|_| Bucket::new()).collect();
        map_like(program, reduce_func, map_func, runs, cancel, buckets)
    }
}

/// The kernel's map arm: apply map function `func` to every record of the
/// input split — read as borrowed slices straight from its [`Bucket`]
/// arena — and partition the output into `parts` sorted buckets.
pub fn run_map_task_bucket(
    program: &dyn Program,
    func: FuncId,
    input: &Bucket,
    parts: usize,
    combine: bool,
) -> Result<Vec<Bucket>> {
    kernel(program, &TaskSpec::Map { func, parts, combine }, &[input], None)
}

/// The kernel's reduce arm: stream key groups out of a k-way merge of the
/// sorted `runs` into reduce function `func`.
pub fn run_reduce_task_merge<B: Borrow<Bucket>>(
    program: &dyn Program,
    func: FuncId,
    runs: &[B],
) -> Result<Bucket> {
    reduce(program, func, &borrowed(runs), None)
}

/// The reference reduce: sort the concatenated partition, group by key,
/// and apply reduce function `func` to each group. Byte-identical to the
/// merge over the same records split into sorted runs.
pub fn run_reduce_task(program: &dyn Program, func: FuncId, mut input: Bucket) -> Result<Bucket> {
    input.sort();
    let mut out = Bucket::new();
    for (key, values) in input.groups() {
        let mut iter = values;
        program.reduce_bytes(func, key, &mut iter, &mut |k, v| out.push(k, v))?;
    }
    Ok(out)
}

/// Walk the key groups of a k-way merge over `runs` in sorted order,
/// checking `cancel` at every group boundary.
fn for_each_group(
    runs: &[&Bucket],
    cancel: Option<&AtomicBool>,
    mut group: impl FnMut(&[u8], &mut dyn Iterator<Item = &[u8]>) -> Result<()>,
) -> Result<()> {
    let mut merger = RunMerger::new(runs);
    let mut spans = Vec::new();
    while let Some(key) = merger.next_group(&mut spans) {
        check_cancel(cancel)?;
        let mut values = spans.iter().flat_map(|&(r, s, e)| (s..e).map(move |i| runs[r].get(i).1));
        group(key, &mut values)?;
    }
    Ok(())
}

fn reduce(
    program: &dyn Program,
    func: FuncId,
    runs: &[&Bucket],
    cancel: Option<&AtomicBool>,
) -> Result<Bucket> {
    let mut out = Bucket::new();
    for_each_group(runs, cancel, |key, values| {
        program.reduce_bytes(func, key, values, &mut |k, v| out.push(k, v))
    })?;
    Ok(out)
}

/// Where a map-like task's output goes: `parts` partitions, filled record
/// by record and finished into sorted runs.
trait PartSink {
    /// Route one emitted record to its partition. Emit closures cannot
    /// return errors, so a failure is kept for [`PartSink::take_error`].
    fn emit(&mut self, program: &dyn Program, func: FuncId, key: &[u8], value: &[u8]);
    /// The first failure since the last call, if any.
    fn take_error(&mut self) -> Option<Error>;
    /// Turn what was emitted into one sorted bucket per partition,
    /// checking `cancel` at every group boundary.
    fn finish(
        self,
        program: &dyn Program,
        func: FuncId,
        cancel: Option<&AtomicBool>,
    ) -> Result<Vec<Bucket>>;
}

/// The raw sink: records land in their bucket as emitted, and each bucket
/// is sorted in place at the end (a key-stable sort, so the reduce side's
/// merge sees each bucket's per-key value order unchanged).
impl PartSink for Vec<Bucket> {
    #[inline]
    fn emit(&mut self, program: &dyn Program, _func: FuncId, key: &[u8], value: &[u8]) {
        let p = program.partition(key, self.len());
        self[p].push(key, value);
    }

    fn take_error(&mut self) -> Option<Error> {
        None
    }

    fn finish(
        mut self,
        _program: &dyn Program,
        _func: FuncId,
        _cancel: Option<&AtomicBool>,
    ) -> Result<Vec<Bucket>> {
        for b in &mut self {
            b.sort();
        }
        Ok(self)
    }
}

/// Feed one record through map function `func` into `sink`.
#[inline]
fn map_into<S: PartSink>(
    program: &dyn Program,
    func: FuncId,
    key: &[u8],
    value: &[u8],
    sink: &mut S,
) -> Result<()> {
    program.map_bytes(func, key, value, &mut |k2, v2| sink.emit(program, func, k2, v2))?;
    sink.take_error().map_or(Ok(()), Err)
}

/// The map-like arms of the kernel over one sink: with no `reduce_func`
/// the records of `runs[0]` feed the map function (a map task), otherwise
/// the reduced records of the merge over `runs` do (a reduce-map task).
fn map_like<S: PartSink>(
    program: &dyn Program,
    reduce_func: Option<FuncId>,
    map_func: FuncId,
    runs: &[&Bucket],
    cancel: Option<&AtomicBool>,
    mut sink: S,
) -> Result<Vec<Bucket>> {
    match reduce_func {
        None => {
            let input =
                runs.first().ok_or_else(|| Error::Invalid("map task without an input".into()))?;
            for (key, value) in input.iter() {
                check_cancel(cancel)?;
                map_into(program, map_func, key, value, &mut sink)?;
            }
        }
        Some(reduce_func) => for_each_group(runs, cancel, |key, values| {
            // The reduce's emit closure cannot return the map's failure
            // either: keep the first and re-raise it after the reduce call.
            let mut failed = None;
            program.reduce_bytes(reduce_func, key, values, &mut |rk, rv| {
                if failed.is_none() {
                    failed = map_into(program, map_func, rk, rv, &mut sink).err();
                }
            })?;
            failed.map_or(Ok(()), Err)
        })?,
    }
    sink.finish(program, map_func, cancel)
}

/// Fold a group's pending values eagerly once this many have accumulated.
/// Bounds the per-group memory of hot keys while keeping fold calls rare
/// enough that the combiner cost stays amortized.
const FOLD_EVERY: usize = 64;

/// Gather the arrival log (fold what came due, compact the value arena)
/// once this many values arrived since the last gather, or as many as it
/// carried over if more, so a gather's copying stays amortized.
const FLUSH_EVERY: usize = 16_384;

/// Sentinel for "no group" in the combiner's table.
const NONE: u32 = u32::MAX;

/// One key group of a [`Combiner`].
struct Group {
    /// `hash_bytes(0, key)`: the group's place in the table.
    hash: u64,
    /// The key's [`key_prefix`]; with `klen`, all of a key of ≤ 8 bytes.
    prefix: u64,
    /// Key bytes live at `koff..koff + klen` in the key arena.
    koff: u32,
    klen: u32,
    /// The key's output partition, asked of the program once.
    part: u32,
    /// Values the last flush carried over: this group's first arrivals
    /// in the log, which count as pending but are not new arrivals.
    carried: u32,
    /// Set when a trial fold showed this combiner is not key-preserving
    /// for this group; its raw values are then kept until finalize.
    no_fold: bool,
}

/// One logged value: its group and its bytes in the value arena.
#[derive(Clone, Copy)]
struct Arrival {
    group: u32,
    off: u32,
    len: u32,
}

/// The `(off, len)` span of `arena`.
#[inline]
fn span(arena: &[u8], (off, len): (u32, u32)) -> &[u8] {
    &arena[off as usize..(off + len) as usize]
}

/// The combining sink: one in-mapper combiner for the whole task. Each
/// emitted key is hashed once, into one open-addressing table whose
/// groups know their partition; its value is appended to a flat arena and
/// one [`Arrival`] to a log. A *gather* counting-sorts the log by group,
/// making each group's values contiguous in arrival order, and replays
/// them on the schedule of folding on arrival: at finalize, and at a flush
/// that also compacts the arena, so a key-preserving combiner holds at
/// most distinct keys × [`FOLD_EVERY`] values plus one flush's worth.
#[derive(Default)]
struct Combiner {
    parts: usize,
    /// Power-of-two open-addressing table of group ids (`NONE` = empty).
    table: Vec<u32>,
    groups: Vec<Group>,
    keys: Vec<u8>,
    vals: Vec<u8>,
    log: Vec<Arrival>,
    /// Log entries the last flush carried over, at its head.
    carried: usize,
    /// After a gather, group `g`'s values are the spans
    /// `gathered[starts[g]..starts[g + 1]]`, in arrival order.
    starts: Vec<u32>,
    gathered: Vec<(u32, u32)>,
    /// The replaying group's last fold outputs (values under empty keys),
    /// and a fold's new ones.
    held: Bucket,
    out: Bucket,
    /// The compacted value arena a flush fills.
    spare: Vec<u8>,
    failed: Option<Error>,
}

impl Combiner {
    fn new(parts: usize) -> Self {
        Combiner { parts, table: vec![NONE; 16], ..Default::default() }
    }

    fn key_of(&self, gid: usize) -> &[u8] {
        let g = &self.groups[gid];
        span(&self.keys, (g.koff, g.klen))
    }

    /// The group of `key`, created and partitioned on first sight. A key
    /// of at most 8 bytes is settled by (hash, prefix, length); only a
    /// longer one is compared byte by byte.
    #[inline]
    fn group_for(&mut self, program: &dyn Program, key: &[u8]) -> u32 {
        let (hash, prefix) = (hash_bytes(0, key), key_prefix(key));
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        while self.table[i] != NONE {
            let gid = self.table[i];
            let g = &self.groups[gid as usize];
            if g.hash == hash
                && g.prefix == prefix
                && g.klen as usize == key.len()
                && (key.len() <= 8 || self.key_of(gid as usize) == key)
            {
                return gid;
            }
            i = (i + 1) & mask;
        }
        let koff = self.keys.len();
        assert!(koff + key.len() <= u32::MAX as usize, "combiner arena exceeds 4 GiB");
        self.keys.extend_from_slice(key);
        let (koff, klen) = (koff as u32, key.len() as u32);
        let part = program.partition(key, self.parts) as u32;
        self.groups.push(Group { hash, prefix, koff, klen, part, carried: 0, no_fold: false });
        self.table[i] = (self.groups.len() - 1) as u32;
        if self.groups.len() * 8 > self.table.len() * 7 {
            self.grow_table();
        }
        (self.groups.len() - 1) as u32
    }

    /// Double the table and re-seat every group by its cached hash.
    fn grow_table(&mut self) {
        let mask = self.table.len() * 2 - 1;
        let mut table = vec![NONE; mask + 1];
        for (gid, g) in self.groups.iter().enumerate() {
            let mut i = g.hash as usize & mask;
            while table[i] != NONE {
                i = (i + 1) & mask;
            }
            table[i] = gid as u32;
        }
        self.table = table;
    }

    /// Counting-sort the log by group into `starts` and `gathered`.
    fn gather(&mut self) {
        self.starts.clear();
        self.starts.resize(self.groups.len() + 2, 0);
        for a in &self.log {
            self.starts[a.group as usize + 2] += 1;
        }
        for g in 2..self.starts.len() {
            self.starts[g] += self.starts[g - 1];
        }
        self.gathered.resize(self.log.len(), (0, 0));
        for a in &self.log {
            let next = &mut self.starts[a.group as usize + 1];
            self.gathered[*next as usize] = (a.off, a.len);
            *next += 1;
        }
    }

    /// A replaying group's pending values: `held`, then the gathered
    /// values `raw..end`.
    fn pending(&self, raw: usize, end: usize) -> impl Iterator<Item = &[u8]> {
        let vals = &self.vals;
        let raw = self.gathered[raw..end].iter().map(move |&s| span(vals, s));
        self.held.iter().map(|(_, v)| v).chain(raw)
    }

    /// Replay group `gid`'s gathered values: fold at each arrival that
    /// brings the pending count (the last fold's outputs plus the raw
    /// values since) to [`FOLD_EVERY`], which is where folding on arrival
    /// folds. The fold is a trial: if the combiner emits any key other
    /// than the group's it is not key-preserving, so the fold is dropped
    /// and the group keeps raw values until finalize. Returns `raw`: the
    /// group's pending values are then `pending(raw, starts[gid + 1])`.
    fn replay(&mut self, program: &dyn Program, func: FuncId, gid: usize) -> Result<usize> {
        let (start, end) = (self.starts[gid] as usize, self.starts[gid + 1] as usize);
        self.held.clear();
        let (mut raw, mut pending) = (start, self.groups[gid].carried as usize);
        let mut at = start + pending + (FOLD_EVERY - 1).saturating_sub(pending);
        let mut out = std::mem::take(&mut self.out);
        while at < end && !self.groups[gid].no_fold {
            let (key, mut preserved) = (self.key_of(gid), true);
            out.clear();
            program.combine_bytes(func, key, &mut self.pending(raw, at + 1), &mut |k, v| {
                preserved &= k == key;
                out.push(&[], v);
            })?;
            if preserved {
                std::mem::swap(&mut self.held, &mut out);
                (raw, pending) = (at + 1, self.held.len());
            } else {
                self.groups[gid].no_fold = true;
            }
            at += 1 + (FOLD_EVERY - 1).saturating_sub(pending);
        }
        self.out = out;
        Ok(raw)
    }

    /// Gather, fold every group that came due, and rebuild the log and the
    /// value arena from what is left pending.
    fn flush(&mut self, program: &dyn Program, func: FuncId) -> Result<()> {
        self.gather();
        let (mut log, mut spare) = (std::mem::take(&mut self.log), std::mem::take(&mut self.spare));
        log.clear();
        spare.clear();
        for gid in 0..self.groups.len() {
            let end = self.starts[gid + 1] as usize;
            if self.starts[gid] as usize == end {
                continue;
            }
            let raw = self.replay(program, func, gid)?;
            let before = log.len();
            for v in self.pending(raw, end) {
                assert!(spare.len() + v.len() <= u32::MAX as usize, "combiner arena exceeds 4 GiB");
                log.push(Arrival {
                    group: gid as u32,
                    off: spare.len() as u32,
                    len: v.len() as u32,
                });
                spare.extend_from_slice(v);
            }
            self.groups[gid].carried = (log.len() - before) as u32;
        }
        self.spare = std::mem::replace(&mut self.vals, spare);
        self.carried = log.len();
        self.log = log;
        Ok(())
    }
}

impl PartSink for Combiner {
    #[inline]
    fn emit(&mut self, program: &dyn Program, func: FuncId, key: &[u8], value: &[u8]) {
        if self.failed.is_some() {
            return;
        }
        let group = self.group_for(program, key);
        let off = self.vals.len();
        assert!(off + value.len() <= u32::MAX as usize, "combiner arena exceeds 4 GiB");
        self.vals.extend_from_slice(value);
        self.log.push(Arrival { group, off: off as u32, len: value.len() as u32 });
        if self.log.len() - self.carried >= FLUSH_EVERY.max(self.carried) {
            self.failed = self.flush(program, func).err();
        }
    }

    fn take_error(&mut self) -> Option<Error> {
        self.failed.take()
    }

    /// Sort the groups by key once, then replay each and combine what is
    /// left into its partition's bucket: per bucket, the visit order of
    /// sorting the raw output and combining each key group.
    fn finish(
        mut self,
        program: &dyn Program,
        func: FuncId,
        cancel: Option<&AtomicBool>,
    ) -> Result<Vec<Bucket>> {
        self.gather();
        let mut out: Vec<Bucket> = (0..self.parts).map(|_| Bucket::new()).collect();
        let keys = self.groups.iter().map(|g| (g.prefix, g.klen as usize));
        // The groups are distinct keys, so grouping them gains nothing.
        let order = sorted_order(keys, |gid| self.key_of(gid as usize), false);
        for gid in order.into_iter().map(|k| k as u32 as usize) {
            check_cancel(cancel)?;
            let raw = self.replay(program, func, gid)?;
            let bucket = &mut out[self.groups[gid].part as usize];
            let mut values = self.pending(raw, self.starts[gid + 1] as usize);
            program.combine_bytes(func, self.key_of(gid), &mut values, &mut |k, v| {
                bucket.push(k, v)
            })?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::tests::{colliding_key, tagged};
    use crate::kv::{encode_record, Datum};
    use crate::program::{MapReduce, Simple};
    use mrs_rng::splitmix::mix64;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicU64;

    struct WordCount;

    impl MapReduce for WordCount {
        type K1 = u64;
        type V1 = String;
        type K2 = String;
        type V2 = u64;

        fn map(&self, _k: u64, v: &str, emit: &mut dyn FnMut(&str, u64)) {
            for w in v.split_whitespace() {
                emit(w, 1);
            }
        }

        fn reduce(&self, _k: &str, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
            emit(vs.sum());
        }

        fn has_combiner(&self) -> bool {
            true
        }
    }

    fn lines(texts: &[&str]) -> Bucket {
        texts.iter().enumerate().map(|(i, t)| encode_record(&(i as u64), &t.to_string())).collect()
    }

    fn counts(bucket: &Bucket) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = bucket
            .iter()
            .map(|(k, val)| (String::from_bytes(k).unwrap(), u64::from_bytes(val).unwrap()))
            .collect();
        v.sort();
        v
    }

    fn map_spec(parts: usize, combine: bool) -> TaskSpec {
        TaskSpec::Map { func: 0, parts, combine }
    }

    fn fused_spec(parts: usize, combine: bool) -> TaskSpec {
        TaskSpec::ReduceMap { reduce_func: 0, map_func: 0, parts, combine }
    }

    const REDUCE: TaskSpec = TaskSpec::Reduce { func: 0 };

    /// The reference the streaming combiner is tested against: map into
    /// raw buckets, then sort each bucket and combine each key group.
    fn sort_combine_map_task(
        program: &dyn Program,
        func: FuncId,
        input: &Bucket,
        parts: usize,
    ) -> Result<Vec<Bucket>> {
        let mut buckets: Vec<Bucket> = (0..parts).map(|_| Bucket::new()).collect();
        for (key, value) in input.iter() {
            program.map_bytes(func, key, value, &mut |k2, v2| {
                buckets[program.partition(k2, parts)].push(k2, v2)
            })?;
        }
        buckets
            .into_iter()
            .map(|mut bucket| {
                bucket.sort();
                let mut out = Bucket::new();
                for (key, values) in bucket.groups() {
                    let mut iter = values;
                    program.combine_bytes(func, key, &mut iter, &mut |k, v| out.push(k, v))?;
                }
                Ok(out)
            })
            .collect()
    }

    #[test]
    fn map_then_reduce_counts_words() {
        let p = Simple(WordCount);
        let input = lines(&["the cat sat", "the cat"]);
        let buckets = run_map_task_bucket(&p, 0, &input, 3, false).unwrap();
        assert_eq!(buckets.len(), 3);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 5);

        // Gather all partitions and reduce each.
        let mut all = Bucket::new();
        for b in buckets {
            let out = run_reduce_task(&p, 0, b).unwrap();
            all.extend_from(&out);
        }
        assert_eq!(counts(&all), vec![("cat".into(), 2), ("sat".into(), 1), ("the".into(), 2)]);
    }

    #[test]
    fn combiner_shrinks_map_output_but_preserves_result() {
        let p = Simple(WordCount);
        let input = lines(&["a a a a b", "a b b"]);
        let plain = run_map_task_bucket(&p, 0, &input, 2, false).unwrap();
        let combined = run_map_task_bucket(&p, 0, &input, 2, true).unwrap();
        let plain_n: usize = plain.iter().map(|b| b.len()).sum();
        let comb_n: usize = combined.iter().map(|b| b.len()).sum();
        assert_eq!(plain_n, 8);
        assert_eq!(comb_n, 2, "one record per distinct word after combining");
        assert!(
            combined.iter().map(|b| b.byte_size()).sum::<usize>()
                < plain.iter().map(|b| b.byte_size()).sum::<usize>()
        );

        // Same final counts either way.
        let reduce_all = |buckets: Vec<Bucket>| {
            let mut all = Bucket::new();
            for b in buckets {
                all.extend_from(&run_reduce_task(&p, 0, b).unwrap());
            }
            counts(&all)
        };
        assert_eq!(reduce_all(plain), reduce_all(combined));
    }

    #[test]
    fn streaming_combiner_matches_the_sort_combine_reference() {
        let p = Simple(WordCount);
        // Zipf-ish duplicate-heavy input plus singletons, across partitions.
        let input = lines(&[
            "the the the the quick brown fox the the",
            "the quick dog jumps over the lazy dog",
            "zebra apple the quick the",
        ]);
        for parts in [1, 2, 5] {
            let streamed = run_map_task_bucket(&p, 0, &input, parts, true).unwrap();
            let reference = sort_combine_map_task(&p, 0, &input, parts).unwrap();
            assert_eq!(streamed, reference, "diverged at parts={parts}");
        }
    }

    #[test]
    fn hash_combiner_folds_hot_keys_incrementally() {
        // One key emitted far past FOLD_EVERY: partial folds must keep the
        // pending-span count bounded and still sum correctly.
        let p = Simple(WordCount);
        let line = "hot ".repeat(10 * FOLD_EVERY);
        let input = lines(&[line.trim()]);
        let buckets = run_map_task_bucket(&p, 0, &input, 1, true).unwrap();
        assert_eq!(counts(&buckets[0]), vec![("hot".into(), 10 * FOLD_EVERY as u64)]);
    }

    /// A combiner that is *not* key-preserving: it re-keys every group to a
    /// constant. The trial-fold rollback must detect this and defer to
    /// finalize, where the output is the reference's.
    struct Rekey;

    impl Program for Rekey {
        fn map_bytes(
            &self,
            _func: FuncId,
            _key: &[u8],
            _value: &[u8],
            _emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            unreachable!("helper impl only used for combine_bytes")
        }

        fn reduce_bytes(
            &self,
            _func: FuncId,
            _key: &[u8],
            _values: &mut dyn Iterator<Item = &[u8]>,
            _emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            unreachable!("helper impl only used for combine_bytes")
        }

        fn combine_bytes(
            &self,
            _func: FuncId,
            _key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            let n: u64 = values.map(|v| u64::from_bytes(v).unwrap()).sum();
            emit(&"ALL".to_string().to_bytes(), &n.to_bytes());
            Ok(())
        }

        fn has_combiner(&self, _func: FuncId) -> bool {
            true
        }
    }

    #[test]
    fn non_key_preserving_combiner_rolls_back_partial_folds() {
        let p = Rekey;
        let mut c = Combiner::new(1);
        let key = "hot".to_string().to_bytes();
        for _ in 0..(2 * FOLD_EVERY) {
            c.emit(&p, 0, &key, &1u64.to_bytes());
        }
        c.flush(&p, 0).unwrap();
        // The trial fold re-keyed, so raw values must all still be pending.
        assert!(c.groups[0].no_fold);
        assert_eq!(c.groups[0].carried as usize, 2 * FOLD_EVERY);
        let out = c.finish(&p, 0, None).unwrap().remove(0);
        assert_eq!(out.len(), 1);
        let (k, v) = out.get(0);
        assert_eq!(String::from_bytes(k).unwrap(), "ALL");
        assert_eq!(u64::from_bytes(v).unwrap(), 2 * FOLD_EVERY as u64);
    }

    #[test]
    fn partitioning_is_consistent_for_same_key() {
        let p = Simple(WordCount);
        let input = lines(&["x y z x y z x"]);
        let buckets = run_map_task_bucket(&p, 0, &input, 4, false).unwrap();
        // Every occurrence of a word must land in the same bucket: reducing
        // each bucket independently must never split a key.
        for b in &buckets {
            let mut sorted = b.clone();
            sorted.sort();
            for (key, values) in sorted.groups() {
                let n = values.count();
                let word = String::from_bytes(key).unwrap();
                let expect = match word.as_str() {
                    "x" => 3,
                    _ => 2,
                };
                assert_eq!(n, expect, "word {word} split across buckets");
            }
        }
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let p = Simple(WordCount);
        for combine in [false, true] {
            let buckets = run_map_task_bucket(&p, 0, &Bucket::new(), 2, combine).unwrap();
            assert_eq!(buckets.len(), 2);
            assert!(buckets.iter().all(|b| b.is_empty()));
        }
        assert!(run_reduce_task(&p, 0, Bucket::new()).unwrap().is_empty());
        assert!(run_reduce_task_merge::<Bucket>(&p, 0, &[]).unwrap().is_empty());
        assert!(run_reduce_task_merge(&p, 0, &[Bucket::new(), Bucket::new()]).unwrap().is_empty());
        let fused = run_task::<Bucket>(&Chain, &fused_spec(2, false), &[], None).unwrap();
        assert_eq!(fused.len(), 2);
        assert!(fused.iter().all(|b| b.is_empty()));
        // A map reads `runs[0]`: handing it no run at all is a caller bug.
        assert!(run_task::<Bucket>(&p, &map_spec(2, false), &[], None).is_err());
    }

    #[test]
    fn map_error_propagates() {
        let p = Simple(WordCount);
        let bad = Bucket::from_records(vec![(vec![1u8, 2], b"not a string".to_vec())]);
        assert!(run_map_task_bucket(&p, 0, &bad, 1, false).is_err());
        assert!(run_map_task_bucket(&p, 0, &bad, 1, true).is_err());
    }

    /// A chainable iterative program over `u64` records: reduce output
    /// feeds map input, like PSO's particle messages. Map fans each record
    /// out to its own key and a neighbor key; reduce sums each group.
    struct Chain;

    impl Program for Chain {
        fn map_bytes(
            &self,
            _func: FuncId,
            key: &[u8],
            value: &[u8],
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            let k = u64::from_bytes(key)?;
            let v = u64::from_bytes(value)?;
            emit(&k.to_bytes(), &(v + 1).to_bytes());
            emit(&((k * 7 + 1) % 5).to_bytes(), &v.to_bytes());
            Ok(())
        }

        fn reduce_bytes(
            &self,
            _func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            let mut sum = 0u64;
            for v in values {
                sum += u64::from_bytes(v)?;
            }
            emit(key, &sum.to_bytes());
            Ok(())
        }

        fn combine_bytes(
            &self,
            func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            self.reduce_bytes(func, key, values, emit)
        }

        fn has_combiner(&self, _func: FuncId) -> bool {
            true
        }
    }

    fn chain_input() -> Bucket {
        let mut b = Bucket::new();
        for i in 0..40u64 {
            b.push(&(i % 5).to_bytes(), &(i * 3).to_bytes());
        }
        b
    }

    /// `chain_input` mapped twice: two producer runs per partition, the
    /// shape a reduce-like task sees after a shuffle.
    fn chain_runs(parts: usize) -> Vec<Vec<Bucket>> {
        let a = run_map_task_bucket(&Chain, 0, &chain_input(), parts, false).unwrap();
        let b = run_map_task_bucket(&Chain, 0, &chain_input(), parts, false).unwrap();
        a.into_iter().zip(b).map(|(a, b)| vec![a, b]).collect()
    }

    #[test]
    fn fused_kernel_matches_reduce_then_map() {
        for runs in chain_runs(2) {
            for parts in [1, 3, 5] {
                for combine in [false, true] {
                    let fused = run_task(&Chain, &fused_spec(parts, combine), &runs, None).unwrap();
                    let reduced = run_task(&Chain, &REDUCE, &runs, None).unwrap();
                    let unfused =
                        run_task(&Chain, &map_spec(parts, combine), &reduced, None).unwrap();
                    assert_eq!(fused, unfused, "parts={parts} combine={combine}");
                    assert_eq!(fused.len(), parts);
                }
            }
        }
    }

    /// Partition the map output of both input lines into per-task runs —
    /// the shape the reduce side sees after a shuffle.
    fn shuffled_runs(parts: usize) -> Vec<Vec<Bucket>> {
        let p = Simple(WordCount);
        let task_a = lines(&["the cat sat on the mat", "the cat"]);
        let task_b = lines(&["a mat for the cat", "the the the"]);
        let runs_a = run_map_task_bucket(&p, 0, &task_a, parts, false).unwrap();
        let runs_b = run_map_task_bucket(&p, 0, &task_b, parts, false).unwrap();
        (0..parts).map(|part| vec![runs_a[part].clone(), runs_b[part].clone()]).collect()
    }

    #[test]
    fn pre_set_cancel_flag_aborts_every_kind() {
        let p = Simple(WordCount);
        let flag = AtomicBool::new(true);
        let input = lines(&["the cat sat", "on the mat"]);
        for combine in [false, true] {
            let r = run_task(&p, &map_spec(2, combine), &[&input], Some(&flag));
            assert!(matches!(r, Err(Error::Cancelled)), "map combine={combine}");
        }
        let runs = shuffled_runs(1).remove(0);
        let r = run_task(&p, &REDUCE, &runs, Some(&flag));
        assert!(matches!(r, Err(Error::Cancelled)), "reduce");
        let runs = chain_runs(1).remove(0);
        for combine in [false, true] {
            let r = run_task(&Chain, &fused_spec(2, combine), &runs, Some(&flag));
            assert!(matches!(r, Err(Error::Cancelled)), "reducemap combine={combine}");
        }
    }

    #[test]
    fn unset_cancel_flag_leaves_outputs_identical() {
        let p = Simple(WordCount);
        let flag = AtomicBool::new(false);
        let input = lines(&["the cat sat", "the cat"]);
        for combine in [false, true] {
            let spec = map_spec(3, combine);
            let plain = run_task(&p, &spec, &[&input], None).unwrap();
            let flagged = run_task(&p, &spec, &[&input], Some(&flag)).unwrap();
            assert_eq!(plain, flagged, "map combine={combine}");
        }
        let runs = shuffled_runs(1).remove(0);
        assert_eq!(
            run_task(&p, &REDUCE, &runs, None).unwrap(),
            run_task(&p, &REDUCE, &runs, Some(&flag)).unwrap()
        );
        let runs = chain_runs(1).remove(0);
        for combine in [false, true] {
            let spec = fused_spec(3, combine);
            let plain = run_task(&Chain, &spec, &runs, None).unwrap();
            let flagged = run_task(&Chain, &spec, &runs, Some(&flag)).unwrap();
            assert_eq!(plain, flagged, "reducemap combine={combine}");
        }
    }

    #[test]
    fn map_output_buckets_are_sorted_runs() {
        let p = Simple(WordCount);
        let input = lines(&["zebra the mat cat", "the cat apple zebra"]);
        for combine in [false, true] {
            let buckets = run_map_task_bucket(&p, 0, &input, 3, combine).unwrap();
            assert!(buckets.iter().all(Bucket::is_sorted), "combine={combine}");
            // The fused arm's map output upholds the same guarantee.
            let runs = chain_runs(1).remove(0);
            let fused = run_task(&Chain, &fused_spec(3, combine), &runs, None).unwrap();
            assert!(fused.iter().all(Bucket::is_sorted), "fused combine={combine}");
        }
    }

    #[test]
    fn merge_reduce_matches_concat_sort_reduce() {
        let p = Simple(WordCount);
        for runs in shuffled_runs(3) {
            let mut concat = Bucket::new();
            for r in &runs {
                concat.extend_from(r);
            }
            let oracle = run_reduce_task(&p, 0, concat).unwrap();
            let merged = run_reduce_task_merge(&p, 0, &runs).unwrap();
            assert_eq!(merged, oracle);
        }
    }

    #[test]
    fn fused_kernel_propagates_map_errors() {
        // Reduce emits (key, sum) but the WordCount map expects a String
        // value, so the inner map fails; the error must surface through the
        // nested emit closures.
        let p = Simple(WordCount);
        let mut input = Bucket::new();
        input.push(&"w".to_string().to_bytes(), &1u64.to_bytes());
        for combine in [false, true] {
            assert!(run_task(&p, &fused_spec(1, combine), &[&input], None).is_err());
        }
    }

    /// A byte-level program for arbitrary keys whose output shows value
    /// order: map re-emits each record under its key and under the key's
    /// first nine bytes, reduce joins a group's values with `|` — an
    /// associative, key-preserving fold, so it doubles as the combiner
    /// and its output is valid map input.
    struct Join;

    impl Program for Join {
        fn map_bytes(
            &self,
            _func: FuncId,
            key: &[u8],
            value: &[u8],
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            emit(key, value);
            emit(&key[..key.len().min(9)], &[value, b"'"].concat());
            Ok(())
        }

        fn reduce_bytes(
            &self,
            _func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            emit(key, &values.collect::<Vec<_>>().join(&b"|"[..]));
            Ok(())
        }

        fn combine_bytes(
            &self,
            func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            self.reduce_bytes(func, key, values, emit)
        }

        fn has_combiner(&self, _func: FuncId) -> bool {
            true
        }
    }

    proptest! {
        /// `run_task` against the per-kind references, over records whose
        /// keys collide on the 8-byte prefix, values tagged with arrival
        /// order, cut at random points into sorted runs (empty runs, one
        /// run and k runs included).
        #[test]
        fn run_task_agrees_with_the_per_kind_references(
            keys in proptest::collection::vec(colliding_key(), 0..120),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
            parts in 1usize..4,
        ) {
            let records = tagged(keys);
            let mut bounds: Vec<usize> =
                cuts.iter().map(|c| c % (records.len() + 1)).collect();
            bounds.push(0);
            bounds.push(records.len());
            bounds.sort_unstable();
            let runs: Vec<Bucket> = bounds
                .windows(2)
                .map(|w| {
                    let mut run = Bucket::from_records(records[w[0]..w[1]].to_vec());
                    run.sort();
                    run
                })
                .collect();

            // Reduce: the merge against concatenate+sort.
            let mut concat = Bucket::new();
            for run in &runs {
                concat.extend_from(run);
            }
            let reduced = run_task(&Join, &REDUCE, &runs, None).unwrap();
            prop_assert_eq!(&reduced, &vec![run_reduce_task(&Join, 0, concat).unwrap()]);

            for combine in [false, true] {
                // ReduceMap: the fused arm against reduce, then map.
                let fused = run_task(&Join, &fused_spec(parts, combine), &runs, None).unwrap();
                let unfused = run_task(&Join, &map_spec(parts, combine), &reduced, None).unwrap();
                prop_assert_eq!(fused, unfused);
            }

            // Map with a combiner: the streaming combiner against the
            // sort-then-combine post-pass, over the records as they came.
            let input = Bucket::from_records(records);
            let streamed = run_task(&Join, &map_spec(parts, true), &[&input], None).unwrap();
            prop_assert_eq!(streamed, sort_combine_map_task(&Join, 0, &input, parts).unwrap());
        }
    }

    /// A byte-level program whose output shows every combine call it took
    /// part in: the map passes records through, and the combiner hashes
    /// its values in order together with their count, so a fold at any
    /// other arrival, or over the values in any other order, changes the
    /// output. Some keys are re-keyed (the trial fold must roll back) and
    /// some emit a second value (a fold leaves two pending). `calls` sums
    /// a hash of every call's key and values: the same calls in any order
    /// give the same sum, and one trial fold more or less changes it.
    #[derive(Default)]
    struct Seq {
        calls: AtomicU64,
    }

    impl Program for Seq {
        fn map_bytes(
            &self,
            _func: FuncId,
            key: &[u8],
            value: &[u8],
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            emit(key, value);
            Ok(())
        }

        fn reduce_bytes(
            &self,
            func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            self.combine_bytes(func, key, values, emit)
        }

        fn combine_bytes(
            &self,
            _func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            let (mut h, mut n) = (hash_bytes(1, key), 0u64);
            for v in values {
                h = hash_bytes(h, v);
                n += 1;
            }
            self.calls.fetch_add(mix64(h ^ n), Ordering::Relaxed);
            let folded = [h.to_le_bytes(), n.to_le_bytes()].concat();
            match hash_bytes(2, key) % 35 {
                t if t % 7 == 0 => emit(&[key, b"'"].concat(), &folded),
                t => {
                    emit(key, &folded);
                    if t % 5 == 0 {
                        emit(key, &n.to_le_bytes());
                    }
                }
            }
            Ok(())
        }

        fn has_combiner(&self, _func: FuncId) -> bool {
            true
        }
    }

    /// The `i`-th draw of stream `salt`.
    fn draw(i: u64, salt: u64) -> u64 {
        mix64(mix64(i) ^ salt)
    }

    /// `n` records, record `i` being `(key(i), value(i))`.
    fn stream(n: u64, key: impl Fn(u64) -> Vec<u8>, value: impl Fn(u64) -> Vec<u8>) -> Bucket {
        let mut b = Bucket::new();
        for i in 0..n {
            b.push(&key(i), &value(i));
        }
        b
    }

    /// Another 24-byte key with `key`'s first 8 bytes and `key`'s
    /// `hash_bytes(0, ·)`: the second word is flipped and the third
    /// chosen so that the hash state meets again (`hash_bytes` starts
    /// from its seed mixed with the golden gamma, `0x9E37…`, and mixes in
    /// one 8-byte word at a time).
    fn hash_twin(key: &[u8; 24]) -> Vec<u8> {
        let w = |i: usize| u64::from_le_bytes(key[8 * i..8 * i + 8].try_into().unwrap());
        let s1 = mix64(mix64(0x9E37_79B9_7F4A_7C15) ^ w(0));
        let w1 = w(1) ^ 1;
        let w2 = w(2) ^ mix64(s1 ^ w(1)) ^ mix64(s1 ^ w1);
        [&key[..8], &w1.to_le_bytes()[..], &w2.to_le_bytes()[..]].concat()
    }

    const TWIN: &[u8; 24] = b"twin-key-with-long-tail!";

    #[test]
    fn hash_twins_share_hash_prefix_and_length() {
        let twin = hash_twin(TWIN);
        assert_ne!(&twin[..], &TWIN[..]);
        assert_eq!(hash_bytes(0, &twin), hash_bytes(0, TWIN));
        assert_eq!(crate::bucket::key_prefix(&twin), crate::bucket::key_prefix(TWIN));
    }

    /// Digest of a task's output: every bucket's length, keys and values.
    fn digest(buckets: &[Bucket]) -> u64 {
        let mut h = 0;
        for b in buckets {
            h = hash_bytes(h, &(b.len() as u64).to_le_bytes());
            for (k, v) in b.iter() {
                h = hash_bytes(hash_bytes(h, k), v);
            }
        }
        h
    }

    /// Map inputs the fold schedule is pinned on, with their part counts.
    fn golden_shapes() -> Vec<(&'static str, Bucket, usize)> {
        let word = |r: u64| format!("w{r}").into_bytes();
        let twin = hash_twin(TWIN);
        vec![
            ("tiny", stream(100, |i| word(draw(i, 1) % 10), |i| vec![i as u8]), 1),
            (
                "hot key",
                stream(
                    120_000,
                    |i| {
                        if draw(i, 2).is_multiple_of(2) {
                            b"hot".to_vec()
                        } else {
                            word(draw(i, 3) % 19)
                        }
                    },
                    |i| draw(i, 4).to_le_bytes().to_vec(),
                ),
                3,
            ),
            (
                "60k distinct keys",
                stream(100_000, |i| word(draw(i, 5) % 60_000), |i| vec![i as u8]),
                8,
            ),
            (
                "varying values",
                stream(
                    30_000,
                    |i| match draw(i, 6) % 50 {
                        r if r % 2 == 0 => format!("shared-prefix-{r}").into_bytes(),
                        r => word(r),
                    },
                    |i| vec![i as u8; (draw(i, 7) % 200) as usize],
                ),
                4,
            ),
            (
                "edge keys",
                stream(
                    40_000,
                    |i| match draw(i, 8) % 8 {
                        0 => vec![],
                        1 => vec![0],
                        2 => b"eightbyt".to_vec(),
                        3 => b"eightbyt\0".to_vec(),
                        4 => TWIN.to_vec(),
                        5 => twin.clone(),
                        _ => word(draw(i, 9) % 300),
                    },
                    |i| vec![b'v'; (draw(i, 10) % 4) as usize],
                ),
                5,
            ),
        ]
    }

    /// The digests of `golden_shapes` under [`Seq`] (output and calls),
    /// taken from the per-partition combiner that folded each group on
    /// arrival: every combine call must still see the same key and the
    /// same values.
    const GOLDEN: [u64; 5] = [
        0xf524_68d6_102a_b3ca,
        0xc2df_4512_b02f_cbfd,
        0xfda4_115a_2161_5003,
        0xbca2_4fd2_4d97_6399,
        0xd0ac_170a_69f7_ce52,
    ];

    #[test]
    fn combiner_output_is_pinned_to_its_fold_schedule() {
        for ((name, input, parts), want) in golden_shapes().into_iter().zip(GOLDEN) {
            let seq = Seq::default();
            let out = run_task(&seq, &map_spec(parts, true), &[&input], None).unwrap();
            let got = hash_bytes(digest(&out), &seq.calls.into_inner().to_le_bytes());
            assert_eq!(got, want, "{name}: {got:#018x}");
        }
    }

    /// The fold schedule written plainly: each key's pending values in a
    /// map, folded through the combiner at the arrival that brings them to
    /// `FOLD_EVERY` (never again once a fold re-keys), then every key in
    /// byte order combined into its partition's bucket.
    fn reference_combine(program: &dyn Program, input: &Bucket, parts: usize) -> Vec<Bucket> {
        let mut pending: BTreeMap<Vec<u8>, (Vec<Vec<u8>>, bool)> = BTreeMap::new();
        let combine = |key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(&[u8], &[u8])| {
            program.combine_bytes(0, key, &mut values.iter().map(Vec::as_slice), emit).unwrap()
        };
        for (key, value) in input.iter() {
            program
                .map_bytes(0, key, value, &mut |k, v| {
                    let (values, no_fold) = pending.entry(k.to_vec()).or_default();
                    values.push(v.to_vec());
                    if values.len() >= FOLD_EVERY && !*no_fold {
                        let (mut folded, mut preserved) = (Vec::new(), true);
                        combine(k, values, &mut |k2, v2| {
                            preserved &= k2 == k;
                            folded.push(v2.to_vec());
                        });
                        match preserved {
                            true => *values = folded,
                            false => *no_fold = true,
                        }
                    }
                })
                .unwrap();
        }
        let mut buckets = vec![Bucket::new(); parts];
        for (key, (values, _)) in &pending {
            let bucket = &mut buckets[program.partition(key, parts)];
            combine(key, values, &mut |k, v| bucket.push(k, v));
        }
        buckets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The combiner against the reference model, over streams long
        /// enough to fold and to flush several times: a hot key, hash
        /// twins, edge keys and keys sharing an 8-byte prefix, values of
        /// varying length, under `Seq`'s re-keying and two-value groups.
        #[test]
        fn combiner_agrees_with_the_fold_schedule_model(
            seed in any::<u64>(),
            keys in 1u64..400,
            n in 0u64..3 * FLUSH_EVERY as u64,
            parts in 1usize..5,
        ) {
            let twin = hash_twin(TWIN);
            let input = stream(
                n,
                |i| match draw(i, seed) % 16 {
                    0..=5 => b"hot".to_vec(),
                    6 => TWIN.to_vec(),
                    7 => twin.clone(),
                    8 => vec![],
                    9 => vec![0],
                    r if r % 2 == 0 => format!("shared-prefix-{}", draw(i, !seed) % keys).into_bytes(),
                    _ => format!("k{}", draw(i, !seed) % keys).into_bytes(),
                },
                |i| vec![i as u8; (draw(i, seed ^ 1) % 6) as usize],
            );
            let (seq, model) = (Seq::default(), Seq::default());
            let got = run_task(&seq, &map_spec(parts, true), &[&input], None).unwrap();
            prop_assert_eq!(got, reference_combine(&model, &input, parts));
            prop_assert_eq!(seq.calls.into_inner(), model.calls.into_inner());
        }
    }

    /// A combiner that raises the task's cancel flag on its first call.
    struct CancelOnCombine(std::sync::Arc<AtomicBool>, Seq);

    impl Program for CancelOnCombine {
        fn map_bytes(
            &self,
            func: FuncId,
            key: &[u8],
            value: &[u8],
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            self.1.map_bytes(func, key, value, emit)
        }

        fn reduce_bytes(
            &self,
            func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            self.1.reduce_bytes(func, key, values, emit)
        }

        fn combine_bytes(
            &self,
            func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            self.0.store(true, Ordering::Relaxed);
            self.1.combine_bytes(func, key, values, emit)
        }

        fn has_combiner(&self, _func: FuncId) -> bool {
            true
        }
    }

    #[test]
    fn cancel_reaches_the_combiners_finish() {
        // Ten keys, none near `FOLD_EVERY`: the first combine call is the
        // finish's, and the next group boundary must see its flag.
        let p = CancelOnCombine(Default::default(), Seq::default());
        let input = stream(100, |i| format!("w{}", i % 10).into_bytes(), |i| vec![i as u8]);
        let r = run_task(&p, &map_spec(2, true), &[&input], Some(&p.0));
        assert!(matches!(r, Err(Error::Cancelled)), "{r:?}");
    }
}
