//! Task kernels: the actual work of a map task or a reduce task.
//!
//! Every execution implementation — serial, mock-parallel, thread pool,
//! master/slave, and the Hadoop baseline — funnels through these two
//! functions, which is what guarantees the paper's property that all
//! implementations "produce identical answers" (§IV-A): the runtimes differ
//! only in *where and when* tasks run, never in what a task computes.
//!
//! Combining comes in two flavours selected by [`CombineStrategy`]:
//!
//! * [`CombineStrategy::Sort`] — the classic post-pass: buffer the whole
//!   map output, sort each bucket, combine each key group. O(n log n)
//!   comparisons and peak memory proportional to the raw map output.
//! * [`CombineStrategy::Hash`] (default) — an in-mapper streaming
//!   combiner: records are folded into a hash table *as they are emitted*,
//!   so duplicate-heavy workloads (Zipf-distributed WordCount) never
//!   materialize the raw output. O(n) expected work; the final sort only
//!   touches distinct keys. Groups are emitted in sorted key order, so the
//!   output is byte-for-byte identical to the sort path for the
//!   associative, key-preserving combiners the paper's contract requires
//!   ("the reduce function can function as a combiner").
//!
//! Every map kernel emits each output bucket as a **sorted run** (the
//! combiner paths do so inherently; the raw path sorts in place), which
//! lets the reduce-side kernels choose via [`MergeMode`] between the
//! classic concatenate+sort and a streaming k-way merge
//! ([`run_reduce_task_merge`], [`run_reduce_map_task_merge`]) that never
//! materializes the concatenated partition. Both reduce paths are
//! byte-identical; the sort path is kept as the oracle.

use crate::bucket::{cmp_keys, key_prefix, Bucket};
use crate::error::{Error, Result};
use crate::merge::RunMerger;
use crate::plan::FuncId;
use crate::program::Program;
use mrs_rng::splitmix::hash_bytes;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};

/// Check a cooperative-cancellation flag (if any); raise [`Error::Cancelled`]
/// when it is set. Called at record boundaries in the map kernels and at
/// group boundaries in the reduce kernels, so a losing speculative attempt
/// abandons its work within one record/group of the cancel order landing.
#[inline]
fn check_cancel(cancel: Option<&AtomicBool>) -> Result<()> {
    match cancel {
        Some(flag) if flag.load(Ordering::Relaxed) => Err(Error::Cancelled),
        _ => Ok(()),
    }
}

/// How a map task applies its combiner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CombineStrategy {
    /// Streaming in-mapper hash combining (default).
    #[default]
    Hash,
    /// Buffer, sort, then combine key groups (the pre-overhaul behaviour;
    /// kept for the A4 ablation and as the reference implementation).
    Sort,
}

/// How a reduce-side task assembles its gathered partition. Every map
/// kernel emits each output bucket as a *sorted run*, so the reduce input
/// is k sorted runs either way; the mode only chooses between streaming
/// them through a k-way merge and the classic concatenate+sort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeMode {
    /// Stream key groups out of a k-way merge of the fetched runs
    /// (default): O(n log k) comparisons, no concatenated bucket.
    #[default]
    Merge,
    /// Concatenate all runs and sort — the pre-merge behaviour, kept as
    /// the byte-identity oracle behind `--mrs-merge=sort`.
    Sort,
}

impl MergeMode {
    /// Parse a `--mrs-merge` value.
    pub fn parse(s: &str) -> Result<MergeMode> {
        match s {
            "merge" => Ok(MergeMode::Merge),
            "sort" => Ok(MergeMode::Sort),
            other => Err(Error::Invalid(format!("unknown merge mode {other:?} (merge|sort)"))),
        }
    }
}

/// Run one map task: apply map function `func` to every record of the
/// input split — read as borrowed slices straight from its [`Bucket`]
/// arena — and partition the output into `parts` buckets. When `combine`
/// is set and the function has a combiner, map output is combined locally
/// — the "local reduce" optimisation of §V-A — using the default
/// [`CombineStrategy`].
pub fn run_map_task_bucket(
    program: &dyn Program,
    func: FuncId,
    input: &Bucket,
    parts: usize,
    combine: bool,
) -> Result<Vec<Bucket>> {
    run_map_task_bucket_cancellable(program, func, input, parts, combine, None)
}

/// [`run_map_task_bucket`] with a cooperative-cancellation flag checked at
/// every input-record boundary: when `cancel` becomes set, the kernel stops
/// and returns [`Error::Cancelled`], discarding all partial output. Used by
/// the distributed slave to abandon a speculative attempt that lost the
/// first-completion race.
pub fn run_map_task_bucket_cancellable(
    program: &dyn Program,
    func: FuncId,
    input: &Bucket,
    parts: usize,
    combine: bool,
    cancel: Option<&AtomicBool>,
) -> Result<Vec<Bucket>> {
    run_map_task_with(program, func, input, parts, combine, CombineStrategy::default(), cancel)
}

/// The map kernel with every choice explicit: the combining strategy and
/// the cancellation flag.
pub fn run_map_task_with(
    program: &dyn Program,
    func: FuncId,
    input: &Bucket,
    parts: usize,
    combine: bool,
    strategy: CombineStrategy,
    cancel: Option<&AtomicBool>,
) -> Result<Vec<Bucket>> {
    let combining = combine && program.has_combiner(func);
    if combining && strategy == CombineStrategy::Hash {
        return run_map_task_hash_combine(program, func, input, parts, cancel);
    }
    let mut buckets: Vec<Bucket> = (0..parts).map(|_| Bucket::new()).collect();
    for (key, value) in input.iter() {
        check_cancel(cancel)?;
        program.map_bytes(func, key, value, &mut |k2, v2| {
            let p = program.partition(k2, parts);
            buckets[p].push(k2, v2);
        })?;
    }
    if combining {
        for b in &mut buckets {
            let taken = std::mem::take(b);
            *b = combine_bucket(program, func, taken)?;
        }
    } else {
        sort_runs(&mut buckets);
    }
    Ok(buckets)
}

/// Uphold the sorted-run output guarantee on the raw (no-combiner) path:
/// both combiner strategies already emit each bucket in sorted key order,
/// so this key-stable in-place sort makes *every* map output bucket a
/// sorted run. Reduce output is unchanged — the reduce side's stable
/// sort/merge preserves each bucket's per-key value order either way.
fn sort_runs(buckets: &mut [Bucket]) {
    for b in buckets {
        b.sort();
    }
}

fn run_map_task_hash_combine(
    program: &dyn Program,
    func: FuncId,
    input: &Bucket,
    parts: usize,
    cancel: Option<&AtomicBool>,
) -> Result<Vec<Bucket>> {
    let mut combiners: Vec<StreamCombiner> = (0..parts).map(|_| StreamCombiner::new()).collect();
    for (key, value) in input.iter() {
        check_cancel(cancel)?;
        // `emit` cannot return an error, so a failing partial fold inside
        // the combiner is stashed and re-raised after the map call.
        let mut deferred: Option<Error> = None;
        program.map_bytes(func, key, value, &mut |k2, v2| {
            if deferred.is_some() {
                return;
            }
            let p = program.partition(k2, parts);
            if let Err(e) = combiners[p].insert(program, func, k2, v2) {
                deferred = Some(e);
            }
        })?;
        if let Some(e) = deferred {
            return Err(e);
        }
    }
    combiners.into_iter().map(|c| c.finalize(program, func)).collect()
}

/// Locally sort a bucket and apply the combiner to each key group.
pub fn combine_bucket(program: &dyn Program, func: FuncId, mut bucket: Bucket) -> Result<Bucket> {
    bucket.sort();
    let mut out = Bucket::new();
    for (key, values) in bucket.groups() {
        let mut iter = values;
        program.combine_bytes(func, key, &mut iter, &mut |k, v| out.push(k, v))?;
    }
    Ok(out)
}

/// Run one reduce task: sort the gathered records of one partition, group
/// by key, and apply reduce function `func` to each group.
pub fn run_reduce_task(program: &dyn Program, func: FuncId, input: Bucket) -> Result<Bucket> {
    run_reduce_task_cancellable(program, func, input, None)
}

/// [`run_reduce_task`] with a cooperative-cancellation flag checked at every
/// key-group boundary.
pub fn run_reduce_task_cancellable(
    program: &dyn Program,
    func: FuncId,
    mut input: Bucket,
    cancel: Option<&AtomicBool>,
) -> Result<Bucket> {
    input.sort();
    let mut out = Bucket::new();
    for (key, values) in input.groups() {
        check_cancel(cancel)?;
        let mut iter = values;
        program.reduce_bytes(func, key, &mut iter, &mut |k, v| out.push(k, v))?;
    }
    Ok(out)
}

/// [`run_reduce_task`] over pre-sorted runs: stream key groups out of a
/// k-way [`RunMerger`] straight into the reduce function, never
/// materializing the concatenated partition. Byte-identical to the
/// concatenate+sort kernel — the merge breaks equal keys by run index,
/// reproducing exactly the stable sort's value order.
pub fn run_reduce_task_merge<B: Borrow<Bucket>>(
    program: &dyn Program,
    func: FuncId,
    runs: &[B],
) -> Result<Bucket> {
    run_reduce_task_merge_cancellable(program, func, runs, None)
}

/// [`run_reduce_task_merge`] with a cooperative-cancellation flag checked
/// at every key-group boundary.
pub fn run_reduce_task_merge_cancellable<B: Borrow<Bucket>>(
    program: &dyn Program,
    func: FuncId,
    runs: &[B],
    cancel: Option<&AtomicBool>,
) -> Result<Bucket> {
    let mut merger = RunMerger::new(runs);
    let mut spans = Vec::new();
    let mut out = Bucket::new();
    while let Some(key) = merger.next_group(&mut spans) {
        check_cancel(cancel)?;
        let mut iter =
            spans.iter().flat_map(|&(r, s, e)| (s..e).map(move |i| runs[r].borrow().get(i).1));
        program.reduce_bytes(func, key, &mut iter, &mut |k, v| out.push(k, v))?;
    }
    Ok(out)
}

/// Run one fused reduce+map task: sort the gathered records of one
/// partition, reduce each key group, and feed every reduced record
/// straight into map function `map_func`, partitioning the map output into
/// `parts` buckets — without ever materializing the reduce output. This is
/// the `reducemap` operation of the paper's iterative pipeline: one task
/// does the work of a reduce round plus the following map round.
///
/// Because the reduced records are produced in sorted-group order — the
/// exact order [`run_reduce_task`]'s output bucket would hold them — the
/// buckets returned here are byte-identical to running the reduce task and
/// then a map task over its output.
pub fn run_reduce_map_task(
    program: &dyn Program,
    reduce_func: FuncId,
    map_func: FuncId,
    input: Bucket,
    parts: usize,
    combine: bool,
) -> Result<Vec<Bucket>> {
    run_reduce_map_task_cancellable(program, reduce_func, map_func, input, parts, combine, None)
}

/// [`run_reduce_map_task`] with a cooperative-cancellation flag checked at
/// every key-group boundary of the reduce pass.
pub fn run_reduce_map_task_cancellable(
    program: &dyn Program,
    reduce_func: FuncId,
    map_func: FuncId,
    mut input: Bucket,
    parts: usize,
    combine: bool,
    cancel: Option<&AtomicBool>,
) -> Result<Vec<Bucket>> {
    input.sort();
    run_reduce_map_groups(program, reduce_func, map_func, parts, combine, cancel, &mut |sink| {
        for (key, values) in input.groups() {
            let mut iter = values;
            sink(key, &mut iter)?;
        }
        Ok(())
    })
}

/// [`run_reduce_map_task`] over pre-sorted runs: the k-way-merge twin of
/// [`run_reduce_task_merge`], streaming merged key groups through the fused
/// reduce+map pipeline without concatenating the partition.
pub fn run_reduce_map_task_merge<B: Borrow<Bucket>>(
    program: &dyn Program,
    reduce_func: FuncId,
    map_func: FuncId,
    runs: &[B],
    parts: usize,
    combine: bool,
) -> Result<Vec<Bucket>> {
    run_reduce_map_task_merge_cancellable(
        program,
        reduce_func,
        map_func,
        runs,
        parts,
        combine,
        None,
    )
}

/// [`run_reduce_map_task_merge`] with a cooperative-cancellation flag
/// checked at every key-group boundary of the reduce pass.
pub fn run_reduce_map_task_merge_cancellable<B: Borrow<Bucket>>(
    program: &dyn Program,
    reduce_func: FuncId,
    map_func: FuncId,
    runs: &[B],
    parts: usize,
    combine: bool,
    cancel: Option<&AtomicBool>,
) -> Result<Vec<Bucket>> {
    run_reduce_map_groups(program, reduce_func, map_func, parts, combine, cancel, &mut |sink| {
        let mut merger = RunMerger::new(runs);
        let mut spans = Vec::new();
        while let Some(key) = merger.next_group(&mut spans) {
            let mut iter =
                spans.iter().flat_map(|&(r, s, e)| (s..e).map(move |i| runs[r].borrow().get(i).1));
            sink(key, &mut iter)?;
        }
        Ok(())
    })
}

/// Sink handed one sorted `(key, values)` group at a time by a group
/// source (see [`run_reduce_map_groups`]).
type GroupSink<'a> = &'a mut dyn FnMut(&[u8], &mut dyn Iterator<Item = &[u8]>) -> Result<()>;

/// The fused reduce+map pipeline, factored over its group source: `drive`
/// walks the sorted key groups (from one sorted bucket or a k-way merge)
/// and hands each to the sink, which reduces it and feeds the reduced
/// records straight into the map function. Sharing this body is what keeps
/// the merge and concatenate+sort paths byte-identical by construction.
fn run_reduce_map_groups(
    program: &dyn Program,
    reduce_func: FuncId,
    map_func: FuncId,
    parts: usize,
    combine: bool,
    cancel: Option<&AtomicBool>,
    drive: &mut dyn FnMut(GroupSink<'_>) -> Result<()>,
) -> Result<Vec<Bucket>> {
    use std::cell::RefCell;
    let combining = combine && program.has_combiner(map_func);
    // Emit closures cannot return errors, and here two of them nest
    // (reduce emit wrapping map emit), so failures from either layer are
    // stashed in one shared slot and re-raised after each reduce call.
    let deferred: RefCell<Option<Error>> = RefCell::new(None);
    if combining && CombineStrategy::default() == CombineStrategy::Hash {
        let combiners: RefCell<Vec<StreamCombiner>> =
            RefCell::new((0..parts).map(|_| StreamCombiner::new()).collect());
        drive(&mut |key, values| {
            check_cancel(cancel)?;
            program.reduce_bytes(reduce_func, key, values, &mut |rk, rv| {
                if deferred.borrow().is_some() {
                    return;
                }
                let r = program.map_bytes(map_func, rk, rv, &mut |k2, v2| {
                    if deferred.borrow().is_some() {
                        return;
                    }
                    let p = program.partition(k2, parts);
                    if let Err(e) = combiners.borrow_mut()[p].insert(program, map_func, k2, v2) {
                        *deferred.borrow_mut() = Some(e);
                    }
                });
                if let Err(e) = r {
                    *deferred.borrow_mut() = Some(e);
                }
            })?;
            match deferred.borrow_mut().take() {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })?;
        return combiners.into_inner().into_iter().map(|c| c.finalize(program, map_func)).collect();
    }
    let buckets: RefCell<Vec<Bucket>> = RefCell::new((0..parts).map(|_| Bucket::new()).collect());
    drive(&mut |key, values| {
        check_cancel(cancel)?;
        program.reduce_bytes(reduce_func, key, values, &mut |rk, rv| {
            if deferred.borrow().is_some() {
                return;
            }
            let r = program.map_bytes(map_func, rk, rv, &mut |k2, v2| {
                let p = program.partition(k2, parts);
                buckets.borrow_mut()[p].push(k2, v2);
            });
            if let Err(e) = r {
                *deferred.borrow_mut() = Some(e);
            }
        })?;
        match deferred.borrow_mut().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })?;
    let mut buckets = buckets.into_inner();
    if combining {
        for b in &mut buckets {
            let taken = std::mem::take(b);
            *b = combine_bucket(program, map_func, taken)?;
        }
    } else {
        sort_runs(&mut buckets);
    }
    Ok(buckets)
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
    /// into the output bucket — the same visit order as the sort path, so
    /// both strategies produce identical buckets.
    fn finalize(mut self, program: &dyn Program, func: FuncId) -> Result<Bucket> {
        let key_of = |gid: u32| self.key_of(&self.groups[gid as usize]);
        let mut order: Vec<(u64, u32)> =
            (0..self.groups.len() as u32).map(|gid| (key_prefix(key_of(gid)), gid)).collect();
        // Group keys are distinct, so an unstable sort has no ties to reorder.
        order.sort_unstable_by(|a, b| cmp_keys(a.0, b.0, || (key_of(a.1), key_of(b.1))));
        let mut out = Bucket::with_capacity(self.groups.len(), self.keys.len());
        for (_, gid) in order {
            self.collect_spans(gid as usize);
            let g = &self.groups[gid as usize];
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
    use crate::kv::{encode_record, Datum};
    use crate::program::{MapReduce, Simple};

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
    fn hash_and_sort_combining_produce_identical_buckets() {
        let p = Simple(WordCount);
        // Zipf-ish duplicate-heavy input plus singletons, across partitions.
        let input = lines(&[
            "the the the the quick brown fox the the",
            "the quick dog jumps over the lazy dog",
            "zebra apple the quick the",
        ]);
        for parts in [1, 2, 5] {
            let hash =
                run_map_task_with(&p, 0, &input, parts, true, CombineStrategy::Hash, None).unwrap();
            let sort =
                run_map_task_with(&p, 0, &input, parts, true, CombineStrategy::Sort, None).unwrap();
            assert_eq!(hash, sort, "strategies diverged at parts={parts}");
        }
    }

    #[test]
    fn hash_combiner_folds_hot_keys_incrementally() {
        // One key emitted far past FOLD_EVERY: partial folds must keep the
        // pending-span count bounded and still sum correctly.
        let p = Simple(WordCount);
        let line = "hot ".repeat(10 * FOLD_EVERY);
        let input = lines(&[line.trim()]);
        let buckets =
            run_map_task_with(&p, 0, &input, 1, true, CombineStrategy::Hash, None).unwrap();
        assert_eq!(counts(&buckets[0]), vec![("hot".into(), 10 * FOLD_EVERY as u64)]);
    }

    /// A combiner that is *not* key-preserving: it re-keys every group to a
    /// constant. The trial-fold rollback must detect this and defer to
    /// finalize, where output matches the sort path.
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
    fn empty_input_produces_empty_buckets() {
        let p = Simple(WordCount);
        for strategy in [CombineStrategy::Hash, CombineStrategy::Sort] {
            let buckets =
                run_map_task_with(&p, 0, &Bucket::new(), 2, true, strategy, None).unwrap();
            assert!(buckets.iter().all(|b| b.is_empty()));
        }
        let out = run_reduce_task(&p, 0, Bucket::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn map_error_propagates() {
        let p = Simple(WordCount);
        let bad = Bucket::from_records(vec![(vec![1u8, 2], b"not a string".to_vec())]);
        assert!(run_map_task_bucket(&p, 0, &bad, 1, false).is_err());
        assert!(run_map_task_with(&p, 0, &bad, 1, true, CombineStrategy::Hash, None).is_err());
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

    #[test]
    fn fused_kernel_matches_reduce_then_map() {
        let p = Chain;
        for parts in [1, 3, 5] {
            for combine in [false, true] {
                let fused = run_reduce_map_task(&p, 0, 0, chain_input(), parts, combine).unwrap();
                let reduced = run_reduce_task(&p, 0, chain_input()).unwrap();
                let unfused = run_map_task_bucket(&p, 0, &reduced, parts, combine).unwrap();
                assert_eq!(fused, unfused, "parts={parts} combine={combine}");
                assert_eq!(fused.len(), parts);
            }
        }
    }

    #[test]
    fn fused_kernel_on_empty_input_is_empty() {
        let fused = run_reduce_map_task(&Chain, 0, 0, Bucket::new(), 2, false).unwrap();
        assert!(fused.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn pre_set_cancel_flag_aborts_every_kernel() {
        let p = Simple(WordCount);
        let flag = AtomicBool::new(true);
        let input = lines(&["the cat sat", "on the mat"]);
        for combine in [false, true] {
            let r = run_map_task_bucket_cancellable(&p, 0, &input, 2, combine, Some(&flag));
            assert!(matches!(r, Err(Error::Cancelled)), "map combine={combine}");
        }
        let mut gathered = Bucket::new();
        gathered.push(&"w".to_string().to_bytes(), &1u64.to_bytes());
        let r = run_reduce_task_cancellable(&p, 0, gathered, Some(&flag));
        assert!(matches!(r, Err(Error::Cancelled)), "reduce");
        for combine in [false, true] {
            let r = run_reduce_map_task_cancellable(
                &Chain,
                0,
                0,
                chain_input(),
                2,
                combine,
                Some(&flag),
            );
            assert!(matches!(r, Err(Error::Cancelled)), "reducemap combine={combine}");
        }
    }

    #[test]
    fn unset_cancel_flag_leaves_outputs_identical() {
        let p = Simple(WordCount);
        let flag = AtomicBool::new(false);
        let input = lines(&["the cat sat", "the cat"]);
        for combine in [false, true] {
            let plain = run_map_task_bucket(&p, 0, &input, 3, combine).unwrap();
            let flagged =
                run_map_task_bucket_cancellable(&p, 0, &input, 3, combine, Some(&flag)).unwrap();
            assert_eq!(plain, flagged, "combine={combine}");
        }
        let fused = run_reduce_map_task(&Chain, 0, 0, chain_input(), 3, true).unwrap();
        let flagged =
            run_reduce_map_task_cancellable(&Chain, 0, 0, chain_input(), 3, true, Some(&flag))
                .unwrap();
        assert_eq!(fused, flagged);
    }

    #[test]
    fn map_output_buckets_are_sorted_runs() {
        let p = Simple(WordCount);
        let input = lines(&["zebra the mat cat", "the cat apple zebra"]);
        for combine in [false, true] {
            for strategy in [CombineStrategy::Hash, CombineStrategy::Sort] {
                let buckets = run_map_task_with(&p, 0, &input, 3, combine, strategy, None).unwrap();
                for b in &buckets {
                    assert!(b.is_sorted(), "combine={combine} strategy={strategy:?}");
                }
            }
        }
        // The fused kernel's map output upholds the same guarantee.
        for combine in [false, true] {
            let fused = run_reduce_map_task(&Chain, 0, 0, chain_input(), 3, combine).unwrap();
            assert!(fused.iter().all(Bucket::is_sorted), "fused combine={combine}");
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
    fn merge_reduce_map_matches_concat_sort_reduce_map() {
        // Chain records keyed 0..5 across two producer runs, per partition.
        let runs_a = run_map_task_bucket(&Chain, 0, &chain_input(), 2, false).unwrap();
        let runs_b = run_map_task_bucket(&Chain, 0, &chain_input(), 2, false).unwrap();
        for part in 0..2 {
            let runs = vec![runs_a[part].clone(), runs_b[part].clone()];
            for parts in [1, 3] {
                for combine in [false, true] {
                    let mut concat = Bucket::new();
                    for r in &runs {
                        concat.extend_from(r);
                    }
                    let oracle = run_reduce_map_task(&Chain, 0, 0, concat, parts, combine).unwrap();
                    let merged =
                        run_reduce_map_task_merge(&Chain, 0, 0, &runs, parts, combine).unwrap();
                    assert_eq!(merged, oracle, "part={part} parts={parts} combine={combine}");
                }
            }
        }
    }

    #[test]
    fn merge_kernels_honor_cancellation() {
        let p = Simple(WordCount);
        let flag = AtomicBool::new(true);
        let runs = shuffled_runs(1).remove(0);
        let r = run_reduce_task_merge_cancellable(&p, 0, &runs, Some(&flag));
        assert!(matches!(r, Err(Error::Cancelled)));
        let chain_runs = run_map_task_bucket(&Chain, 0, &chain_input(), 1, false).unwrap();
        let r =
            run_reduce_map_task_merge_cancellable(&Chain, 0, 0, &chain_runs, 2, true, Some(&flag));
        assert!(matches!(r, Err(Error::Cancelled)));
    }

    #[test]
    fn merge_kernels_on_empty_runs_are_empty() {
        let p = Simple(WordCount);
        assert!(run_reduce_task_merge::<Bucket>(&p, 0, &[]).unwrap().is_empty());
        assert!(run_reduce_task_merge(&p, 0, &[Bucket::new(), Bucket::new()]).unwrap().is_empty());
        let fused = run_reduce_map_task_merge::<Bucket>(&Chain, 0, 0, &[], 2, false).unwrap();
        assert!(fused.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn merge_mode_parses() {
        assert_eq!(MergeMode::parse("merge").unwrap(), MergeMode::Merge);
        assert_eq!(MergeMode::parse("sort").unwrap(), MergeMode::Sort);
        assert!(MergeMode::parse("bogus").is_err());
        assert_eq!(MergeMode::default(), MergeMode::Merge);
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
            assert!(run_reduce_map_task(&p, 0, 0, input.clone(), 1, combine).is_err());
        }
    }
}
