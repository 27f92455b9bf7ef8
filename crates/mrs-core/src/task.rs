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
//! streaming [`StreamCombiner`] per partition that folds records into a
//! hash table *as they are emitted*, so duplicate-heavy workloads never
//! materialize the raw output ("the reduce function can function as a
//! combiner", §V-A). Either way every output bucket is a **sorted run**,
//! which is what lets the next reduce merge instead of sort.
//!
//! Three thin conveniences sit beside the kernel: [`run_map_task_bucket`]
//! and [`run_reduce_task_merge`] are the kernel's map and reduce arms
//! under the names the layer benchmarks and allocation tests time, and
//! [`run_reduce_task`] is the concatenate+sort reduce — independent of the
//! merger, the reference the merge is tested against and the shape
//! `hadoop-sim` models.

use crate::bucket::{prefix_in, sorted_order, Bucket};
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
/// when it is set. Called at record boundaries of a map and at group
/// boundaries of a reduce-like task, so a losing speculative attempt
/// abandons its work within one record/group of the cancel order landing.
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
        map_like(program, reduce_func, map_func, runs, cancel, Combined::new(parts))
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
    /// Turn what was emitted into one sorted bucket per partition.
    fn finish(self, program: &dyn Program, func: FuncId) -> Result<Vec<Bucket>>;
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

    fn finish(mut self, _program: &dyn Program, _func: FuncId) -> Result<Vec<Bucket>> {
        for b in &mut self {
            b.sort();
        }
        Ok(self)
    }
}

/// The combining sink: one [`StreamCombiner`] per partition.
struct Combined {
    combiners: Vec<StreamCombiner>,
    failed: Option<Error>,
}

impl Combined {
    fn new(parts: usize) -> Self {
        Combined { combiners: (0..parts).map(|_| StreamCombiner::new()).collect(), failed: None }
    }
}

impl PartSink for Combined {
    #[inline]
    fn emit(&mut self, program: &dyn Program, func: FuncId, key: &[u8], value: &[u8]) {
        if self.failed.is_some() {
            return;
        }
        let p = program.partition(key, self.combiners.len());
        if let Err(e) = self.combiners[p].insert(program, func, key, value) {
            self.failed = Some(e);
        }
    }

    fn take_error(&mut self) -> Option<Error> {
        self.failed.take()
    }

    fn finish(self, program: &dyn Program, func: FuncId) -> Result<Vec<Bucket>> {
        self.combiners.into_iter().map(|c| c.finalize(program, func)).collect()
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
    sink.finish(program, map_func)
}

/// Fold a group's pending values eagerly once this many have accumulated.
/// Bounds the per-group memory of hot keys while keeping fold calls rare
/// enough that the combiner cost stays amortized.
const FOLD_EVERY: usize = 64;

/// Sentinel for "no entry" in the combiner's table and span chains.
const NONE: u32 = u32::MAX;

/// One key group inside a [`StreamCombiner`].
struct Group {
    /// Key bytes live at `koff..koff + klen` in the key arena.
    koff: u32,
    klen: u32,
    /// Most recent span id for this group (`NONE` when empty); spans chain
    /// backwards through [`Span::prev`], newest first.
    tail: u32,
    /// Pending span count (chain length from `tail`).
    pending: u32,
    /// Set when a trial fold showed this combiner is not key-preserving
    /// for this group; its raw values are then kept until finalize.
    no_fold: bool,
}

/// One pending value: a slice of the value arena plus a link to the
/// previous span of the same group. Chaining through one global vector
/// keeps the per-group bookkeeping allocation-free no matter how many
/// distinct keys a map task produces.
#[derive(Clone, Copy)]
struct Span {
    off: u32,
    len: u32,
    prev: u32,
}

/// Streaming in-mapper combiner: an open-addressing hash index over key
/// bytes with arena storage, folding hot groups incrementally via the
/// program's combiner. Everything lives in flat vectors — inserting a
/// record is hash + probe + two arena appends, no allocation.
struct StreamCombiner {
    /// Power-of-two open-addressing table of group ids (`NONE` = empty).
    /// Key comparison is always by bytes, never by hash alone.
    table: Vec<u32>,
    /// Cached key hash per group (avoids re-hashing on table growth).
    hashes: Vec<u64>,
    groups: Vec<Group>,
    spans: Vec<Span>,
    keys: Vec<u8>,
    vals: Vec<u8>,
    /// Reusable fold scratch: the group's spans in arrival order.
    span_scratch: Vec<(u32, u32)>,
    /// Reusable fold scratch: folded output bytes and their spans.
    out_scratch: Vec<u8>,
    out_spans: Vec<(u32, u32)>,
}

impl StreamCombiner {
    fn new() -> Self {
        StreamCombiner {
            table: vec![NONE; 16],
            hashes: Vec::new(),
            groups: Vec::new(),
            spans: Vec::new(),
            keys: Vec::new(),
            vals: Vec::new(),
            span_scratch: Vec::new(),
            out_scratch: Vec::new(),
            out_spans: Vec::new(),
        }
    }

    fn key_of(&self, g: &Group) -> &[u8] {
        &self.keys[g.koff as usize..(g.koff + g.klen) as usize]
    }

    /// Append a value span to a group's chain.
    fn push_val(&mut self, gid: usize, value: &[u8]) {
        let off = self.vals.len();
        assert!(off + value.len() <= u32::MAX as usize, "combiner arena exceeds 4 GiB");
        self.vals.extend_from_slice(value);
        let g = &mut self.groups[gid];
        self.spans.push(Span { off: off as u32, len: value.len() as u32, prev: g.tail });
        g.tail = (self.spans.len() - 1) as u32;
        g.pending += 1;
    }

    /// Double the table and re-seat every group (hashes are cached, keys
    /// are never re-read).
    fn grow_table(&mut self) {
        let mask = self.table.len() * 2 - 1;
        let mut table = vec![NONE; mask + 1];
        for (gid, &h) in self.hashes.iter().enumerate() {
            let mut i = h as usize & mask;
            while table[i] != NONE {
                i = (i + 1) & mask;
            }
            table[i] = gid as u32;
        }
        self.table = table;
    }

    /// Find the group for `key`, creating it if new.
    fn group_for(&mut self, key: &[u8]) -> usize {
        if (self.groups.len() + 1) * 8 > self.table.len() * 7 {
            self.grow_table();
        }
        let h = hash_bytes(0, key);
        let mask = self.table.len() - 1;
        let mut i = h as usize & mask;
        loop {
            match self.table[i] {
                slot if slot == NONE => {
                    let koff = self.keys.len();
                    assert!(koff + key.len() <= u32::MAX as usize, "combiner arena exceeds 4 GiB");
                    self.keys.extend_from_slice(key);
                    self.groups.push(Group {
                        koff: koff as u32,
                        klen: key.len() as u32,
                        tail: NONE,
                        pending: 0,
                        no_fold: false,
                    });
                    self.hashes.push(h);
                    let gid = self.groups.len() - 1;
                    self.table[i] = gid as u32;
                    return gid;
                }
                slot => {
                    let gid = slot as usize;
                    if self.hashes[gid] == h && self.key_of(&self.groups[gid]) == key {
                        return gid;
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    fn insert(
        &mut self,
        program: &dyn Program,
        func: FuncId,
        key: &[u8],
        value: &[u8],
    ) -> Result<()> {
        let gid = self.group_for(key);
        self.push_val(gid, value);
        let g = &self.groups[gid];
        if g.pending as usize >= FOLD_EVERY && !g.no_fold {
            self.fold_group(program, func, gid)?;
        }
        Ok(())
    }

    /// Walk a group's span chain into `span_scratch` in arrival order.
    fn collect_spans(&mut self, gid: usize) {
        self.span_scratch.clear();
        let mut s = self.groups[gid].tail;
        while s != NONE {
            let sp = self.spans[s as usize];
            self.span_scratch.push((sp.off, sp.len));
            s = sp.prev;
        }
        self.span_scratch.reverse();
    }

    /// Collapse a group's pending values through the combiner. The fold is
    /// a trial: if the combiner emits any key other than the group key it
    /// is not key-preserving, so the fold is rolled back and the group
    /// keeps raw values until finalize (where emitting foreign keys is
    /// handled by the ordinary output path).
    fn fold_group(&mut self, program: &dyn Program, func: FuncId, gid: usize) -> Result<()> {
        self.collect_spans(gid);
        self.out_scratch.clear();
        self.out_spans.clear();
        let g = &self.groups[gid];
        let key = &self.keys[g.koff as usize..(g.koff + g.klen) as usize];
        let vals = &self.vals;
        let mut iter =
            self.span_scratch.iter().map(|&(off, len)| &vals[off as usize..(off + len) as usize]);
        let out_scratch = &mut self.out_scratch;
        let out_spans = &mut self.out_spans;
        let mut preserved = true;
        program.combine_bytes(func, key, &mut iter, &mut |k, v| {
            if k != key {
                preserved = false;
            }
            let off = out_scratch.len() as u32;
            out_scratch.extend_from_slice(v);
            out_spans.push((off, v.len() as u32));
        })?;
        if preserved {
            // Replace the chain with the folded values. The superseded
            // value bytes and span entries stay behind in the arenas until
            // finalize — bounded by input size, the price of never moving
            // live data.
            self.groups[gid].tail = NONE;
            self.groups[gid].pending = 0;
            let out_spans = std::mem::take(&mut self.out_spans);
            for &(off, len) in &out_spans {
                let voff = self.vals.len();
                assert!(voff + len as usize <= u32::MAX as usize, "combiner arena exceeds 4 GiB");
                self.vals.extend_from_slice(&self.out_scratch[off as usize..(off + len) as usize]);
                let g = &mut self.groups[gid];
                self.spans.push(Span { off: voff as u32, len, prev: g.tail });
                g.tail = (self.spans.len() - 1) as u32;
                g.pending += 1;
            }
            self.out_spans = out_spans;
        } else {
            self.groups[gid].no_fold = true;
        }
        Ok(())
    }

    /// Sort groups by key bytes and run the combiner over each, emitting
    /// into the output bucket — the visit order of sorting the raw output
    /// and combining each key group, so the bucket is the one that
    /// post-pass would produce.
    fn finalize(mut self, program: &dyn Program, func: FuncId) -> Result<Bucket> {
        let order = sorted_order(
            self.groups.iter().map(|g| {
                (prefix_in(&self.keys, g.koff as usize, g.klen as usize), g.klen as usize)
            }),
            |gid| self.key_of(&self.groups[gid as usize]),
        );
        let mut out = Bucket::with_capacity(self.groups.len(), self.keys.len());
        for gid in order.into_iter().map(|k| k as u32 as usize) {
            self.collect_spans(gid);
            let g = &self.groups[gid];
            let key = &self.keys[g.koff as usize..(g.koff + g.klen) as usize];
            let vals = &self.vals;
            let mut iter = self
                .span_scratch
                .iter()
                .map(|&(off, len)| &vals[off as usize..(off + len) as usize]);
            program.combine_bytes(func, key, &mut iter, &mut |k, v| out.push(k, v))?;
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
    use proptest::prelude::*;

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
        let mut c = StreamCombiner::new();
        let key = "hot".to_string().to_bytes();
        for _ in 0..(2 * FOLD_EVERY) {
            c.insert(&p, 0, &key, &1u64.to_bytes()).unwrap();
        }
        // The trial fold re-keyed, so raw values must all still be pending.
        assert!(c.groups[0].no_fold);
        assert_eq!(c.groups[0].pending as usize, 2 * FOLD_EVERY);
        let out = c.finalize(&p, 0).unwrap();
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
}
