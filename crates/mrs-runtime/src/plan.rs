//! The plan: one table of datasets and tasks behind every executor.
//!
//! The thread pool ([`crate::local`]) and the master ([`crate::master`])
//! run the *same* task graph — a map task waits only for its own split, a
//! reduce-like task for every task of the op it gathers from (Fig. 1/2) —
//! so the graph is written down once, here: submission validation and task
//! counts, readiness and the barrier, dataset lifetime, `keep` /
//! `discard`, completion, and rebuilding lost outputs from lineage. An
//! executor only says *where* an attempt runs. `O` is one stored output
//! piece (an `Arc<Bucket>` in process, a URL on the cluster); `X` is
//! executor-private per-task state the plan never inspects (claimed or
//! not; attempts and owner). The plan takes no lock, no clock and no
//! thread: every call is a state transition, so a test or a simulator can
//! drive it step by step.
//!
//! **Lifetime.** A dataset that can still be needed has one entry: its
//! [`Ds`], its count of incomplete readers and its holder. One rule frees
//! it: a *released* dataset (read by an op, or discarded) with no reader
//! is freed once it is complete — checked when a reader completes, when
//! the op itself does and on `discard`, which is never refused. A freed
//! op keeps a lineage entry while its input has one; any other freed
//! entry is forgotten, with the lineage that read it. An id below the
//! next one with no entry reads as a discarded source.

use crate::data::DataId;
use crate::proto::trace_op;
use mrs_core::{Error, Result, TaskSpec};
use std::collections::BTreeMap;

/// One task of an op.
#[derive(Debug)]
pub(crate) struct Task<O, X> {
    /// The committed output: `parts` pieces for a map-like task, the one
    /// output split for a reduce task. `None` until committed.
    out: Option<Vec<O>>,
    /// The executor's own state for this task.
    pub x: X,
}

impl<O, X> Task<O, X> {
    /// The committed output pieces, if the task is done.
    pub fn out(&self) -> Option<&[O]> {
        self.out.as_deref()
    }
}

/// A queued, running or complete operation: one output dataset.
#[derive(Debug)]
pub(crate) struct Op<O, X> {
    /// What every task of the op runs.
    pub spec: TaskSpec,
    pub input: DataId,
    tasks: Vec<Task<O, X>>,
    done: usize,
    /// Every task below this index is committed: where `runnable` starts.
    open: usize,
}

impl<O, X> Op<O, X> {
    pub fn tasks(&self) -> &[Task<O, X>] {
        &self.tasks
    }

    /// Committed tasks.
    pub fn done(&self) -> usize {
        self.done
    }

    fn complete(&self) -> bool {
        self.open == self.tasks.len()
    }

    /// What the op leaves behind once freed.
    fn lineage(&self) -> Lineage {
        Lineage { spec: self.spec, input: self.input, tasks: self.tasks.len() }
    }
}

impl<O, X: Default> Op<O, X> {
    /// A fresh op: every task pending.
    fn new(spec: TaskSpec, input: DataId, tasks: usize) -> Self {
        let tasks = (0..tasks).map(|_| Task { out: None, x: X::default() }).collect();
        Op { spec, input, tasks, done: 0, open: 0 }
    }
}

/// What a freed op leaves behind: enough to run it again.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lineage {
    spec: TaskSpec,
    input: DataId,
    tasks: usize,
}

#[derive(Debug)]
pub(crate) enum Ds<O, X> {
    /// A source whose data is still being stored: not complete, not
    /// consumable.
    Loading,
    /// Job input, one piece per split.
    Source(Vec<O>),
    Op(Op<O, X>),
    /// A freed op: no data, only how to compute it again.
    Lineage(Lineage),
}

/// Who holds a dataset against the lifetime rule. A read moves a holder
/// up to `Released`, never down from `Pinned`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Holder {
    /// A fresh op that nothing has read or discarded yet.
    Unread,
    /// Read by some op, or discarded: freed once complete and unread.
    Released,
    /// A source, or a dataset passed to `keep`: freed only once discarded.
    Pinned,
}

/// One dataset that can still be needed.
#[derive(Debug)]
struct Entry<O, X> {
    ds: Ds<O, X>,
    /// Incomplete ops reading it.
    readers: u32,
    holder: Holder,
}

/// What the lifetime rule freed, in order: each dataset's id and whether
/// it was a source.
pub(crate) type Freed = Vec<(DataId, bool)>;

#[derive(Debug)]
pub(crate) struct Plan<O, X> {
    entries: BTreeMap<u32, Entry<O, X>>,
    /// Ids of the incomplete ops, ascending: all `runnable` ever walks, so
    /// it costs the same however much lineage a long job remembers.
    live: Vec<u32>,
    /// The id the next dataset gets. Ids only grow.
    next: u32,
}

impl<O: Clone, X: Default> Plan<O, X> {
    pub fn new() -> Self {
        Plan { entries: BTreeMap::new(), live: Vec::new(), next: 0 }
    }

    fn push(&mut self, ds: Ds<O, X>, holder: Holder) -> DataId {
        self.entries.insert(self.next, Entry { ds, readers: 0, holder });
        self.next += 1;
        DataId(self.next - 1)
    }

    fn ds(&self, data: DataId) -> Option<&Ds<O, X>> {
        self.entries.get(&data.0).map(|e| &e.ds)
    }

    /// The error for an id with no entry: `gone` says the plan forgot it.
    fn missing(&self, data: DataId, gone: &str) -> Error {
        let gone = if data.0 < self.next { gone } else { "" };
        Error::MissingData(format!("dataset {data:?}{gone}"))
    }

    /// Reserve a source's id while its data is stored outside the lock
    /// that guards the plan; [`Plan::source`] publishes it.
    pub fn reserve(&mut self) -> DataId {
        self.push(Ds::Loading, Holder::Pinned)
    }

    /// Publish a reserved source, one piece per split — or, if storing it
    /// failed, retire the id and hand the error on.
    pub fn source(&mut self, id: DataId, splits: Result<Vec<O>>) -> Result<DataId> {
        self.entries.remove(&id.0);
        self.entries
            .insert(id.0, Entry { ds: Ds::Source(splits?), readers: 0, holder: Holder::Pinned });
        Ok(id)
    }

    /// Queue an op running `spec` over `input`: one task per input split
    /// for a map, one per input partition for a reduce-like op.
    pub fn op(&mut self, spec: TaskSpec, input: DataId) -> Result<DataId> {
        if spec.parts() == Some(0) {
            return Err(Error::Invalid("need at least one partition".into()));
        }
        let ntasks = match (self.ds(input), spec.gathers()) {
            (Some(Ds::Source(splits)), false) => splits.len(),
            (Some(Ds::Op(op)), gathers) if gathers == op.spec.parts().is_some() => {
                op.spec.parts().unwrap_or(op.tasks.len())
            }
            (Some(Ds::Source(_) | Ds::Op(_)), true) => {
                let op = trace_op(&spec).as_str();
                return Err(Error::Invalid(format!("{op} must consume a map output")));
            }
            (Some(Ds::Op(_)), false) => {
                return Err(Error::Invalid("map cannot consume an unreduced map output".into()))
            }
            _ => return Err(self.missing(input, " is discarded or loading")),
        };
        self.read(input);
        let id = self.push(Ds::Op(Op::new(spec, input, ntasks)), Holder::Unread);
        self.live.push(id.0);
        Ok(id)
    }

    /// Can task `index` of `op` read its input now? A map task waits only
    /// for its own split, so consecutive rounds pipeline (§IV-A); a
    /// reduce-like task (plain or fused) gathers one partition from
    /// *every* task of its input, so it waits for the whole op — the
    /// barrier of Fig. 1.
    pub fn ready(&self, op: &Op<O, X>, index: usize) -> bool {
        ready_over(self.ds(op.input), op, index)
    }

    /// The incomplete ops, oldest first.
    pub fn live_ops(&self) -> impl Iterator<Item = (DataId, &Op<O, X>)> + '_ {
        self.live.iter().filter_map(|&d| Some((DataId(d), self.at(DataId(d))?)))
    }

    /// Every uncommitted task whose input is ready, oldest op first. A
    /// task is yielded until it is committed, whatever its executor is
    /// doing with it: whether it is claimed or running is in its `x`.
    pub fn runnable(&self) -> impl Iterator<Item = (DataId, usize, &Op<O, X>)> + '_ {
        self.live_ops().flat_map(move |(d, op)| {
            let input = self.ds(op.input);
            let open = move |&i: &usize| op.tasks[i].out.is_none() && ready_over(input, op, i);
            (op.open..op.tasks.len()).filter(open).map(move |i| (d, i, op))
        })
    }

    /// The input of a runnable task, one clone per piece: the one split of
    /// a map task, or partition `index` of every task of a reduce-like
    /// task's input.
    pub fn input(&self, data: DataId, index: usize) -> Vec<O> {
        let Some(op) = self.at(data) else { return Vec::new() };
        match self.ds(op.input) {
            Some(Ds::Source(splits)) => vec![splits[index].clone()],
            Some(Ds::Op(input)) if op.spec.gathers() => {
                input.tasks.iter().filter_map(|t| t.out()?.get(index).cloned()).collect()
            }
            Some(Ds::Op(input)) => input.tasks[index].out.clone().unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Publish the output of task `index` of op `data`. When that was the
    /// op's last task, the op stops reading its input and the lifetime
    /// rule is checked on both: `Some` of what it freed, the input first.
    /// `None` while the op is incomplete, or for a task already committed.
    pub fn commit(&mut self, data: DataId, index: usize, outs: Vec<O>) -> Option<Freed> {
        let Some(Ds::Op(op)) = self.entries.get_mut(&data.0).map(|e| &mut e.ds) else {
            return None;
        };
        let task = &mut op.tasks[index];
        if task.out.is_some() {
            return None;
        }
        task.out = Some(outs);
        op.done += 1;
        op.open += op.tasks[op.open..].iter().take_while(|t| t.out.is_some()).count();
        if !op.complete() {
            return None;
        }
        let input = op.input;
        self.live.retain(|&d| d != data.0);
        let mut freed = Vec::new();
        self.entries.get_mut(&input.0).expect("a read dataset has an entry").readers -= 1;
        self.collect(input, &mut freed);
        self.collect(data, &mut freed);
        Some(freed)
    }

    /// One more incomplete op reads `input`, which releases it.
    fn read(&mut self, input: DataId) {
        let e = self.entries.get_mut(&input.0).expect("a read dataset has an entry");
        e.readers += 1;
        e.holder = e.holder.max(Holder::Released);
    }

    /// The lifetime rule: a released dataset with no reader is freed once
    /// it is complete. Sources are pinned until discarded: real Mrs
    /// re-reads job input from the filesystem, so every lineage bottoms
    /// out in data the driver still holds.
    fn collect(&mut self, data: DataId, freed: &mut Freed) {
        let Some(e) = self.entries.get(&data.0) else { return };
        let lineage = match &e.ds {
            _ if e.holder != Holder::Released || e.readers > 0 => return,
            Ds::Op(op) if op.complete() => Some(op.lineage()),
            Ds::Source(_) => None,
            _ => return,
        };
        freed.push((data, lineage.is_none()));
        match lineage.filter(|l| self.entries.contains_key(&l.input.0)) {
            Some(l) => self.entries.get_mut(&data.0).expect("collected").ds = Ds::Lineage(l),
            None => self.forget(data),
        }
    }

    /// Drop `data`'s entry and every lineage entry that can only be
    /// rebuilt through it. A reader's id is above its input's, so one
    /// ascending pass finds them all.
    fn forget(&mut self, data: DataId) {
        self.entries.remove(&data.0);
        let mut gone = vec![data.0];
        for (&d, e) in self.entries.range(data.0..) {
            if matches!(e.ds, Ds::Lineage(l) if gone.binary_search(&l.input.0).is_ok()) {
                gone.push(d);
            }
        }
        self.entries.retain(|d, _| gone.binary_search(d).is_err());
    }

    /// Op `data` is incomplete again: it reads its input and `runnable`
    /// walks it.
    fn relive(&mut self, data: DataId, input: DataId) {
        self.read(input);
        let at = self.live.partition_point(|&d| d < data.0);
        self.live.insert(at, data.0);
    }

    /// The fault path: the committed output of a task was lost, so the
    /// task is pending again and its op, incomplete again, reads its input
    /// again. An input freed meanwhile is rebuilt from its lineage — stage
    /// resubmission: its op is revived whole (every task pending, live
    /// again, a reader of its own input again), and so on down the chain
    /// to a dataset that still holds data. Errs, changing nothing, only
    /// when that chain ends at a dataset the plan forgot. Returns whether
    /// the op was complete before.
    pub fn reopen(&mut self, data: DataId, index: usize) -> Result<bool> {
        let (input, was_complete) = match self.at(data) {
            Some(op) if op.tasks.get(index).is_some_and(|t| t.out.is_some()) => {
                (op.input, op.complete())
            }
            _ => return Err(Error::Invalid(format!("no committed task {index} of {data:?}"))),
        };
        let (mut revive, mut at) = (Vec::new(), input);
        while let Some(ds) = self.ds(at) {
            let Ds::Lineage(lineage) = *ds else { break };
            revive.push((at, lineage));
            at = lineage.input;
        }
        if !self.entries.contains_key(&at.0) {
            return Err(Error::MissingData(format!(
                "task input (dataset {}) was reclaimed and its lineage ends at discarded source {}",
                input.0, at.0
            )));
        }
        for (d, Lineage { spec, input, tasks }) in revive {
            self.entries.get_mut(&d.0).expect("revived").ds = Ds::Op(Op::new(spec, input, tasks));
            self.relive(d, input);
        }
        if was_complete {
            self.relive(data, input);
        }
        let Some(Ds::Op(op)) = self.entries.get_mut(&data.0).map(|e| &mut e.ds) else {
            unreachable!()
        };
        op.tasks[index].out = None;
        op.done -= 1;
        op.open = op.open.min(index);
        Ok(was_complete)
    }

    /// Pin a dataset against the lifetime rule until it is discarded.
    pub fn keep(&mut self, data: DataId) {
        self.entries.entry(data.0).and_modify(|e| e.holder = Holder::Pinned);
    }

    /// The driver is done with a dataset: release it, pin included. It is
    /// freed now, or once it is complete and its last queued reader has
    /// completed. Never refused.
    pub fn discard(&mut self, data: DataId) -> Freed {
        let mut freed = Vec::new();
        self.entries.entry(data.0).and_modify(|e| e.holder = Holder::Released);
        self.collect(data, &mut freed);
        freed
    }

    /// Is the dataset fully materialized (or gone)?
    pub fn complete(&self, data: DataId) -> Result<bool> {
        match self.ds(data) {
            None if data.0 >= self.next => Err(self.missing(data, "")),
            Some(Ds::Loading) => Ok(false),
            Some(Ds::Op(op)) => Ok(op.complete()),
            _ => Ok(true),
        }
    }

    /// Is the dataset complete, and so is every op it was computed from
    /// that still holds data? What `wait` sleeps on: a task granted ahead
    /// of its inputs (`master/core.rs`) can complete before its producer,
    /// which until then still holds its own input.
    pub fn settled(&self, data: DataId) -> Result<bool> {
        let mut at = data;
        while self.complete(at)? {
            match self.ds(at) {
                Some(Ds::Op(op)) => at = op.input,
                _ => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Every committed piece of a dataset, in split order.
    pub fn outputs(&self, data: DataId) -> Result<Vec<O>> {
        match self.ds(data) {
            Some(Ds::Source(splits)) => Ok(splits.clone()),
            Some(Ds::Op(op)) => {
                Ok(op.tasks.iter().filter_map(Task::out).flatten().cloned().collect())
            }
            _ => Err(self.missing(data, " was discarded")),
        }
    }

    /// How many datasets the plan holds an entry for, lineage included.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// The op producing `data`, if it is an op and not freed.
    pub fn at(&self, data: DataId) -> Option<&Op<O, X>> {
        match self.ds(data) {
            Some(Ds::Op(op)) => Some(op),
            _ => None,
        }
    }

    /// The executor's state of one task.
    pub fn x_mut(&mut self, data: DataId, index: usize) -> Option<&mut X> {
        match self.entries.get_mut(&data.0).map(|e| &mut e.ds) {
            Some(Ds::Op(op)) => op.tasks.get_mut(index).map(|t| &mut t.x),
            _ => None,
        }
    }

    /// Every task of every op not freed, complete or not — what a dead
    /// slave's requeue walks: its id, whether it is committed, and its
    /// executor state.
    pub fn xs_mut(&mut self) -> impl Iterator<Item = (DataId, usize, bool, &mut X)> + '_ {
        self.entries.iter_mut().flat_map(|(&d, e)| {
            let tasks = if let Ds::Op(op) = &mut e.ds { op.tasks.as_mut_slice() } else { &mut [] };
            let at = DataId(d);
            tasks.iter_mut().enumerate().map(move |(i, t)| (at, i, t.out.is_some(), &mut t.x))
        })
    }

    /// The task with a committed output piece that `holds`, if any.
    pub fn producer(&self, holds: impl Fn(&O) -> bool) -> Option<(DataId, usize)> {
        self.entries.iter().find_map(|(&d, e)| {
            let Ds::Op(op) = &e.ds else { return None };
            let i =
                op.tasks.iter().position(|t| t.out().is_some_and(|out| out.iter().any(&holds)))?;
            Some((DataId(d), i))
        })
    }

    /// One row per dataset that holds or will hold data, for a status
    /// page; `busy` says which tasks are running.
    pub fn rows(&self, busy: impl Fn(&X) -> bool) -> Vec<Row> {
        let row = |(&d, e): (&u32, &Entry<O, X>)| {
            let (op, total, done, running) = match &e.ds {
                Ds::Lineage(_) => return None,
                Ds::Loading => (None, 0, 0, 0),
                Ds::Source(splits) => (None, splits.len(), 0, 0),
                Ds::Op(op) => {
                    let running = op.tasks.iter().filter(|t| busy(&t.x)).count();
                    (Some(trace_op(&op.spec).as_str()), op.tasks.len(), op.done, running)
                }
            };
            let (pinned, doomed) = (e.holder == Holder::Pinned, e.holder == Holder::Released);
            let doomed = doomed && e.readers == 0;
            Some(Row { data: d as usize, op, total, done, running, pinned, doomed })
        };
        self.entries.iter().filter_map(row).collect()
    }
}

/// [`Plan::ready`] given the op's input, looked up once per op.
fn ready_over<O, X>(input: Option<&Ds<O, X>>, op: &Op<O, X>, index: usize) -> bool {
    match input {
        Some(Ds::Source(_)) => true,
        Some(Ds::Op(input)) if op.spec.gathers() => input.complete(),
        Some(Ds::Op(input)) => input.tasks[index].out.is_some(),
        _ => false,
    }
}

/// A dataset holding or computing data, as a status page shows it.
pub(crate) struct Row {
    pub data: usize,
    /// Its op's name; `None` for a source.
    pub op: Option<&'static str>,
    /// Its tasks (or splits), the committed ones and the running ones.
    pub total: usize,
    pub done: usize,
    pub running: usize,
    /// Pinned by `keep`, or a source not yet discarded.
    pub pinned: bool,
    /// Released with no reader left: freed once it completes.
    pub doomed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A piece names where it came from: (dataset, task, piece).
    type Piece = (u32, usize, usize);
    type TestPlan = Plan<Piece, ()>;

    fn map(parts: usize) -> TaskSpec {
        TaskSpec::Map { func: 0, parts, combine: false }
    }

    fn reduce() -> TaskSpec {
        TaskSpec::Reduce { func: 0 }
    }

    fn fused(parts: usize) -> TaskSpec {
        TaskSpec::ReduceMap { reduce_func: 0, map_func: 0, parts, combine: false }
    }

    fn source(plan: &mut TestPlan, splits: usize) -> DataId {
        let id = plan.reserve();
        plan.source(id, Ok((0..splits).map(|s| (id.0, s, 0)).collect())).unwrap()
    }

    /// Commit task `index` of `data` with as many pieces as its op makes.
    fn finish(plan: &mut TestPlan, data: DataId, index: usize) -> Option<Freed> {
        let pieces = plan.at(data).expect("an op").spec.parts().unwrap_or(1);
        plan.commit(data, index, (0..pieces).map(|p| (data.0, index, p)).collect())
    }

    /// The commit of an op's last task, freeing `freed`.
    fn done(freed: &[(DataId, bool)]) -> Option<Freed> {
        Some(freed.to_vec())
    }

    fn runnable(plan: &TestPlan) -> Vec<(DataId, usize)> {
        plan.runnable().map(|(d, i, _)| (d, i)).collect()
    }

    #[test]
    fn a_reduce_waits_for_every_map_and_a_map_only_for_its_own_split() {
        let mut plan = TestPlan::new();
        let src = source(&mut plan, 2);
        let m = plan.op(map(2), src).unwrap();
        let r = plan.op(reduce(), m).unwrap();
        let m2 = plan.op(map(1), r).unwrap();
        assert_eq!(runnable(&plan), [(m, 0), (m, 1)]);
        assert_eq!(plan.input(m, 1), [(src.0, 1, 0)]);
        finish(&mut plan, m, 0);
        assert_eq!(runnable(&plan), [(m, 1)], "a map is still out: the reduce is blocked");
        finish(&mut plan, m, 1);
        assert_eq!(runnable(&plan), [(r, 0), (r, 1)], "the barrier is clear");
        assert_eq!(plan.input(r, 1), [(m.0, 0, 1), (m.0, 1, 1)], "partition 1 of every map");
        finish(&mut plan, r, 1);
        assert_eq!(runnable(&plan), [(r, 0), (m2, 1)], "split 1 is enough for the map over it");
        assert_eq!(plan.input(m2, 1), [(r.0, 1, 0)]);
        // A task is yielded until committed, then never again.
        finish(&mut plan, m2, 1);
        assert_eq!(finish(&mut plan, m2, 1), None, "a second commit is ignored");
        assert_eq!(runnable(&plan), [(r, 0)]);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        let mut plan = TestPlan::new();
        let src = source(&mut plan, 1);
        let m = plan.op(map(2), src).unwrap();
        let r = plan.op(reduce(), m).unwrap();
        let loading = plan.reserve();
        let gone = source(&mut plan, 1);
        assert_eq!(plan.discard(gone), [(gone, true)]);
        let entries = plan.entries();
        assert_eq!(entries, 4, "the source, the map, the reduce and the loading source");
        for (spec, input, says) in [
            (reduce(), src, "reduce must consume a map output"),
            (fused(2), src, "reducemap must consume a map output"),
            (reduce(), r, "reduce must consume a map output"),
            (fused(2), r, "reducemap must consume a map output"),
            (map(2), m, "map cannot consume an unreduced map output"),
            (map(0), src, "need at least one partition"),
            (fused(0), m, "need at least one partition"),
            (map(1), gone, "is discarded or loading"),
            (reduce(), gone, "is discarded or loading"),
            (map(1), loading, "is discarded or loading"),
            (map(1), DataId(99), "dataset DataId(99)"),
        ] {
            let got = plan.op(spec, input).expect_err("a malformed plan").to_string();
            assert!(got.contains(says), "{spec:?} over {input:?}: {got}");
        }
        let got = plan.op(map(1), DataId(99)).expect_err("never made").to_string();
        assert!(!got.contains("discarded"), "{got}");
        assert_eq!(plan.entries(), entries, "a rejected op queues nothing");
        assert_eq!(runnable(&plan), [(m, 0)], "and registers no reader");
    }

    /// A discard is never refused. While a queued reader still needs the
    /// data it is deferred: the reader's tasks stay ready until they
    /// complete, and the last one to complete frees the data.
    #[test]
    fn a_discard_while_a_queued_reader_needs_the_data_frees_it_after_the_reader() {
        let mut plan = TestPlan::new();
        let src = source(&mut plan, 1);
        let m1 = plan.op(map(1), src).unwrap();
        assert_eq!(plan.discard(src), [], "m1 reads it");
        let r1 = plan.op(reduce(), m1).unwrap();
        assert_eq!(plan.discard(m1), [], "incomplete, and r1 reads it");
        assert_eq!(runnable(&plan), [(m1, 0)]);
        assert_eq!(finish(&mut plan, m1, 0), done(&[(src, true)]), "a source, freed by its map");
        assert_eq!(runnable(&plan), [(r1, 0)]);
        assert_eq!(finish(&mut plan, r1, 0), done(&[(m1, false)]));
        // A second round is queued over r1 and r1 is discarded at once.
        let m2 = plan.op(map(1), r1).unwrap();
        assert_eq!(plan.discard(r1), []);
        assert_eq!(runnable(&plan), [(m2, 0)]);
        assert_eq!(finish(&mut plan, m2, 0), done(&[(r1, false)]));
        // Complete and unread: the driver's word frees it at once, and once.
        assert_eq!(plan.discard(m2), [(m2, false)]);
        assert_eq!(plan.discard(m2), []);
        assert!(plan.outputs(m2).is_err() && plan.complete(m2).unwrap());
        // An op discarded before it completes, with no reader, is freed
        // when it does.
        let src = source(&mut plan, 1);
        let m = plan.op(map(1), src).unwrap();
        let r = plan.op(reduce(), m).unwrap();
        assert_eq!(plan.discard(r), []);
        assert_eq!(finish(&mut plan, m, 0), done(&[]));
        assert_eq!(finish(&mut plan, r, 0), done(&[(m, false), (r, false)]));
        assert_eq!(plan.entries(), 3, "the source and what can be rebuilt from it");
        assert_eq!(plan.discard(src), [(src, true)]);
        assert_eq!(plan.entries(), 0, "with the source, its lineage goes");
        assert!(plan.complete(r).unwrap() && plan.settled(r).unwrap());
    }

    #[test]
    fn a_pinned_dataset_survives_its_last_consumer_until_discarded() {
        let mut plan = TestPlan::new();
        let src = source(&mut plan, 1);
        let m1 = plan.op(map(1), src).unwrap();
        let r1 = plan.op(reduce(), m1).unwrap();
        plan.keep(r1);
        let m2 = plan.op(map(1), r1).unwrap();
        finish(&mut plan, m1, 0);
        assert_eq!(
            finish(&mut plan, r1, 0).unwrap(),
            [(m1, false)],
            "unpinned: freed by its reader"
        );
        assert_eq!(finish(&mut plan, m2, 0), done(&[]));
        assert_eq!(plan.outputs(r1).unwrap(), [(r1.0, 0, 0)]);
        assert_eq!(plan.discard(r1), [(r1, false)], "an explicit discard releases the pin");
        assert!(plan.outputs(r1).is_err());
    }

    /// A map task that lost its output after its input was reclaimed
    /// rebuilds that input whole, but reads one split of it: the map
    /// completes first. The rebuilt op, its last reader done, is
    /// reclaimed when it completes — not kept for good, which on a shared
    /// store left its files behind after the job — unless it has a reader
    /// again by then, or the driver pinned it.
    #[test]
    fn a_rebuilt_op_whose_reader_finished_first_is_freed_when_it_completes() {
        for then in ["nothing", "another loss", "a pin"] {
            let mut plan = TestPlan::new();
            let src = source(&mut plan, 1);
            let m1 = plan.op(map(2), src).unwrap();
            let r1 = plan.op(reduce(), m1).unwrap();
            let m2 = plan.op(map(1), r1).unwrap();
            finish(&mut plan, m1, 0);
            finish(&mut plan, r1, 0);
            assert_eq!(finish(&mut plan, r1, 1).unwrap(), [(m1, false)]);
            finish(&mut plan, m2, 0);
            assert_eq!(finish(&mut plan, m2, 1), done(&[(r1, false)]));
            // m2's split 0 is lost: r1 and m1 are rebuilt whole.
            assert!(plan.reopen(m2, 0).unwrap());
            assert_eq!(runnable(&plan), [(m1, 0)]);
            finish(&mut plan, m1, 0);
            finish(&mut plan, r1, 0);
            assert_eq!(runnable(&plan), [(r1, 1), (m2, 0)], "split 0 is all m2 reads");
            assert_eq!(finish(&mut plan, m2, 0), done(&[]), "{then}: r1 is incomplete, not freed");
            match then {
                "another loss" => assert!(plan.reopen(m2, 1).unwrap()),
                "a pin" => plan.keep(r1),
                _ => {}
            }
            let last = finish(&mut plan, r1, 1);
            let itself = then == "nothing";
            let freed = [(m1, false), (r1, false)];
            assert_eq!(last, done(&freed[..1 + usize::from(itself)]), "{then}");
            assert_eq!(plan.outputs(r1).is_err(), itself, "{then}");
            if then == "another loss" {
                assert_eq!(
                    finish(&mut plan, m2, 1),
                    done(&[(r1, false)]),
                    "freed by its new reader"
                );
            }
            assert_eq!(plan.live_ops().count(), 0);
        }
    }

    #[test]
    fn a_reopened_task_reopens_its_op_and_needs_its_input() {
        let mut plan = TestPlan::new();
        let src = source(&mut plan, 2);
        let m = plan.op(map(1), src).unwrap();
        let r = plan.op(reduce(), m).unwrap();
        finish(&mut plan, m, 0);
        finish(&mut plan, m, 1);
        assert!(plan.reopen(r, 0).is_err(), "nothing committed to lose");
        // The lost map output blocks the reduce again and is re-run.
        assert!(plan.reopen(m, 1).unwrap(), "the map was complete");
        assert_eq!(runnable(&plan), [(m, 1)]);
        assert_eq!(plan.live_ops().map(|(d, _)| d).collect::<Vec<_>>(), [m, r], "oldest first");
        finish(&mut plan, m, 1);
        assert_eq!(finish(&mut plan, r, 0), done(&[(m, false)]));
        // The reduce's output is lost after its input was reclaimed: the
        // map is rebuilt from its lineage, whole, and the barrier holds
        // the reduce until it is.
        assert!(plan.reopen(r, 0).unwrap(), "the reduce was complete");
        assert_eq!(plan.live_ops().map(|(d, _)| d).collect::<Vec<_>>(), [m, r]);
        assert_eq!(runnable(&plan), [(m, 0), (m, 1)], "every task of the revived map");
        assert_eq!(plan.input(m, 1), [(src.0, 1, 0)]);
        assert_eq!(plan.discard(m), [], "read again: freed once its reader completes");
        finish(&mut plan, m, 0);
        assert_eq!(runnable(&plan), [(m, 1)]);
        finish(&mut plan, m, 1);
        assert_eq!(plan.input(r, 0), [(m.0, 0, 0), (m.0, 1, 0)]);
        assert_eq!(finish(&mut plan, r, 0), done(&[(m, false)]), "freed once more, once read");
        // Only a lineage that ends at a discarded source cannot be rebuilt,
        // and then nothing changes. The plan forgot the source and the
        // lineage through it: the chain ends where its entries do.
        assert_eq!(plan.discard(src), [(src, true)]);
        assert_eq!(plan.entries(), 1, "only the reduce's data is left");
        let err = plan.reopen(r, 0).expect_err("the source is gone").to_string();
        let says =
            format!("(dataset {}) was reclaimed and its lineage ends at discarded source", m.0);
        assert!(err.contains(&says), "{err}");
        assert!(plan.complete(r).unwrap() && plan.live_ops().next().is_none());
        assert!(plan.outputs(m).is_err() && plan.outputs(r).is_ok());
        assert_eq!(plan.discard(r), [(r, false)]);
        assert_eq!(plan.entries(), 0);
    }

    /// What the test knows about one dataset, written down beside the plan
    /// and never read back from it.
    #[derive(Debug)]
    struct Shadow {
        /// The dataset the op reads; `None` for a source.
        input: Option<usize>,
        gathers: bool,
        /// Pieces per task when the output is map-like.
        parts: Option<usize>,
        done: Vec<bool>,
        /// A source, or passed to `keep`, and not discarded since.
        kept: bool,
        /// Read by some op, or discarded.
        released: bool,
        /// Freed, at a commit or by a discard.
        gone: bool,
        /// Incomplete ops reading it.
        readers: usize,
        /// Times it was created or rebuilt from its lineage.
        lives: usize,
        /// Times it was freed.
        freed: usize,
    }

    impl Shadow {
        fn new(input: Option<usize>, spec: Option<TaskSpec>, tasks: usize, kept: bool) -> Self {
            Shadow {
                input,
                gathers: spec.is_some_and(|s| s.gathers()),
                parts: spec.and_then(|s| s.parts()),
                done: vec![spec.is_none(); tasks],
                kept,
                released: false,
                gone: false,
                readers: 0,
                lives: 1,
                freed: 0,
            }
        }

        fn complete(&self) -> bool {
            self.done.iter().all(|d| *d)
        }
    }

    /// The rule under test, stated over the shadows: an uncommitted task is
    /// runnable when a map's own split exists, or when every task of a
    /// reduce-like op's input is committed. Oldest op first.
    fn expected_runnable(shadows: &[Shadow]) -> Vec<(DataId, usize)> {
        let mut out = Vec::new();
        for (d, s) in shadows.iter().enumerate() {
            let Some(input) = s.input.map(|i| &shadows[i]) else { continue };
            for i in (0..s.done.len()).filter(|&i| !s.done[i] && !s.gone && !input.gone) {
                if if s.gathers { input.complete() } else { input.done[i] } {
                    out.push((DataId(d as u32), i));
                }
            }
        }
        out
    }

    /// The lifetime rule over the shadows: a released dataset, not kept,
    /// with no reader, is freed once it is complete.
    fn collect(shadows: &mut [Shadow], d: usize, freed: &mut Freed) {
        let s = &mut shadows[d];
        if !s.gone && s.released && !s.kept && s.readers == 0 && s.complete() {
            s.gone = true;
            s.freed += 1;
            freed.push((DataId(d as u32), s.input.is_none()));
        }
    }

    /// A freed dataset is rebuilt from data that still exists down its
    /// chain of freed ops; a freed source ends the chain.
    fn rebuildable(shadows: &[Shadow], mut at: usize) -> bool {
        while shadows[at].gone {
            let Some(next) = shadows[at].input else { return false };
            at = next;
        }
        true
    }

    /// Entries the plan should hold: every dataset not freed, and every
    /// freed op that can still be rebuilt.
    fn expected_entries(shadows: &[Shadow]) -> usize {
        (0..shadows.len()).filter(|&d| rebuildable(shadows, d)).count()
    }

    /// One more incomplete op reads `input`.
    fn read(shadows: &mut [Shadow], input: usize) {
        shadows[input].readers += 1;
        shadows[input].released = true;
    }

    #[derive(Clone, Debug)]
    enum Step {
        Submit { kind: usize, parts: usize, input: usize, keep: bool },
        Commit(usize),
        Reopen(usize),
        Discard(usize),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let submit = (0usize..3, 1usize..4, any::<usize>(), any::<bool>())
            .prop_map(|(kind, parts, input, keep)| Step::Submit { kind, parts, input, keep });
        prop_oneof![
            submit,
            any::<usize>().prop_map(Step::Commit),
            any::<usize>().prop_map(Step::Commit),
            any::<usize>().prop_map(Step::Commit),
            any::<usize>().prop_map(Step::Reopen),
            any::<usize>().prop_map(Step::Discard),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Any committed task may lose its output at any point — also one
        /// whose input was freed, which the shadows rebuild whole from
        /// lineage — and a discard may come at any point, before the data
        /// is complete or while readers still need it. The graph still
        /// drains: `live` empty, every life of every dataset ended by
        /// exactly one free, and the plan holds an entry only for what
        /// holds data or can still be rebuilt — none at all once every
        /// dataset is discarded.
        #[test]
        fn random_graphs_obey_the_barrier_and_free_every_spent_dataset_once(
            splits in 1usize..4,
            steps in proptest::collection::vec(arb_step(), 1..60),
            drain in proptest::collection::vec(any::<usize>(), 1..8),
        ) {
            let mut plan = TestPlan::new();
            source(&mut plan, splits);
            let mut shadows = vec![Shadow::new(None, None, splits, true)];
            // Apply one commit to the plan and to the shadows, and check
            // that the lifetime rule freed exactly what the shadows say.
            let commit = |plan: &mut TestPlan, shadows: &mut Vec<Shadow>, (d, i): (DataId, usize)| {
                let got = finish(plan, d, i);
                let at = d.0 as usize;
                shadows[at].done[i] = true;
                let completed = shadows[at].complete();
                let mut freed = Vec::new();
                if completed {
                    let input = shadows[at].input.expect("an op");
                    shadows[input].readers -= 1;
                    collect(shadows, input, &mut freed);
                    collect(shadows, at, &mut freed);
                }
                (got, completed.then_some(freed))
            };
            for step in &steps {
                match *step {
                    Step::Submit { kind, parts, input, keep } if shadows.len() < 12 => {
                        let spec = [map(parts), reduce(), fused(parts)][kind];
                        let fits = |s: &Shadow| !s.gone && s.parts.is_some() == spec.gathers();
                        let fitting: Vec<usize> =
                            (0..shadows.len()).filter(|&d| fits(&shadows[d])).collect();
                        if fitting.is_empty() {
                            let any = DataId((input % shadows.len()) as u32);
                            prop_assert!(plan.op(spec, any).is_err(), "{spec:?} over {any:?}");
                            continue;
                        }
                        let input = fitting[input % fitting.len()];
                        let id = plan.op(spec, DataId(input as u32)).unwrap();
                        prop_assert_eq!(id.0 as usize, shadows.len());
                        // One task per split for a map, per partition otherwise.
                        let tasks = match shadows[input].parts {
                            Some(parts) => parts,
                            None => shadows[input].done.len(),
                        };
                        prop_assert_eq!(plan.at(id).unwrap().tasks().len(), tasks);
                        read(&mut shadows, input);
                        shadows.push(Shadow::new(Some(input), Some(spec), tasks, keep));
                        if keep {
                            plan.keep(id);
                        }
                    }
                    Step::Submit { .. } => {}
                    Step::Commit(pick) => {
                        let ready = runnable(&plan);
                        if let Some(&task) = ready.get(pick % ready.len().max(1)) {
                            let (got, want) = commit(&mut plan, &mut shadows, task);
                            prop_assert_eq!(got, want, "commit of {:?}", task);
                        }
                    }
                    Step::Reopen(pick) => {
                        let committed: Vec<(usize, usize)> = (0..shadows.len())
                            .filter(|&d| shadows[d].input.is_some() && !shadows[d].gone)
                            .flat_map(|d| (0..shadows[d].done.len()).map(move |i| (d, i)))
                            .filter(|&(d, i)| shadows[d].done[i])
                            .collect();
                        if committed.is_empty() {
                            continue;
                        }
                        let (d, i) = committed[pick % committed.len()];
                        // Down the lineage to data that still exists: every
                        // freed op on the way is rebuilt; a freed source
                        // cannot be.
                        let input = shadows[d].input.expect("an op");
                        let rebuilt = rebuildable(&shadows, input);
                        let was_complete = shadows[d].complete();
                        let got = plan.reopen(DataId(d as u32), i).ok();
                        prop_assert_eq!(got, rebuilt.then_some(was_complete), "reopen of {:?}", (d, i));
                        if rebuilt {
                            let mut at = input;
                            while shadows[at].gone {
                                let s = &mut shadows[at];
                                s.gone = false;
                                s.lives += 1;
                                s.done.fill(false);
                                let read_at = s.input.expect("only an op has a lineage");
                                read(&mut shadows, read_at);
                                at = read_at;
                            }
                            if was_complete {
                                read(&mut shadows, input);
                            }
                            shadows[d].done[i] = false;
                        }
                    }
                    Step::Discard(pick) => {
                        // Never refused: freed now, or deferred until the
                        // data is complete and its readers are done.
                        let d = pick % shadows.len();
                        shadows[d].kept = false;
                        shadows[d].released = true;
                        let mut freed = Vec::new();
                        collect(&mut shadows, d, &mut freed);
                        prop_assert_eq!(plan.discard(DataId(d as u32)), freed, "discard of {}", d);
                    }
                }
                prop_assert_eq!(runnable(&plan), expected_runnable(&shadows), "after {:?}", step);
                prop_assert_eq!(plan.entries(), expected_entries(&shadows), "after {:?}", step);
            }
            // Run what is left to the end, in an arbitrary order.
            for turn in 0.. {
                let ready = runnable(&plan);
                prop_assert_eq!(&ready, &expected_runnable(&shadows));
                if ready.is_empty() {
                    break;
                }
                let task = ready[drain[turn % drain.len()] % ready.len()];
                let (got, want) = commit(&mut plan, &mut shadows, task);
                prop_assert_eq!(got, want, "commit of {:?}", task);
            }
            prop_assert_eq!(plan.live_ops().count(), 0);
            for (d, s) in shadows.iter().enumerate() {
                prop_assert!(s.gone || s.complete(), "dataset {} never finished: {:?}", d, s);
                prop_assert_eq!(plan.outputs(DataId(d as u32)).is_err(), s.gone);
                prop_assert_eq!(s.freed, s.lives - usize::from(!s.gone), "dataset {}: {:?}", d, s);
                // A rebuilt life exists for its readers: they are done, so
                // it was freed.
                prop_assert!(s.gone || s.kept || s.lives == 1, "dataset {} outlived: {:?}", d, s);
            }
            // The driver discards everything, in an arbitrary order: every
            // life is freed once, and the plan forgets every dataset.
            let n = shadows.len();
            for d in (0..n).map(|k| (k + drain[0]) % n) {
                shadows[d].kept = false;
                shadows[d].released = true;
                let mut freed = Vec::new();
                collect(&mut shadows, d, &mut freed);
                prop_assert_eq!(plan.discard(DataId(d as u32)), freed, "discard of {}", d);
                prop_assert_eq!(plan.entries(), expected_entries(&shadows));
            }
            for (d, s) in shadows.iter().enumerate() {
                prop_assert_eq!(s.freed, s.lives, "dataset {}: {:?}", d, s);
            }
            prop_assert_eq!(plan.entries(), 0);
        }
    }
}
