//! The plan: one table of datasets and tasks behind every executor.
//!
//! The thread pool ([`crate::local`]) and the master ([`crate::master`])
//! run the *same* task graph — a map task waits only for its own split, a
//! reduce-like task for every task of the op it gathers from (Fig. 1/2) —
//! so the graph is written down once, here: submission validation and task
//! counts, readiness and the barrier, consumer-refcount lifetime GC,
//! `keep` / `discard`, completion, and rebuilding lost outputs from
//! lineage. An executor only says *where* an attempt runs. `O` is one
//! stored output piece (an `Arc<Bucket>` in process, a URL on the
//! cluster); `X` is executor-private per-task state the plan never
//! inspects (claimed or not; attempts and owner). The plan takes no lock,
//! no clock and no thread: every call is a state transition, so a test or
//! a simulator can drive it step by step.

use crate::data::DataId;
use crate::proto::trace_op;
use mrs_core::{Error, Result, TaskSpec};
use std::collections::HashSet;

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
}

impl<O, X: Default> Op<O, X> {
    /// A fresh op: every task pending.
    fn new(spec: TaskSpec, input: DataId, tasks: usize) -> Self {
        let tasks = (0..tasks).map(|_| Task { out: None, x: X::default() }).collect();
        Op { spec, input, tasks, done: 0, open: 0 }
    }
}

/// What a reclaimed op leaves behind: enough to run it again.
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
    /// Reclaimed, by lifetime GC or an explicit discard. An op keeps its
    /// lineage, so a lost output downstream can rebuild it; a source
    /// keeps nothing.
    Discarded(Option<Lineage>),
}

impl<O, X> Ds<O, X> {
    /// What this dataset leaves behind when it is reclaimed.
    fn reclaimed(&self) -> Self {
        Ds::Discarded(match self {
            Ds::Op(op) => Some(Lineage { spec: op.spec, input: op.input, tasks: op.tasks.len() }),
            Ds::Discarded(lineage) => *lineage,
            Ds::Loading | Ds::Source(_) => None,
        })
    }
}

/// What a [`Plan::commit`] changed beyond the task itself.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Commit {
    /// The op's last task landed: its dataset is complete.
    pub completed: bool,
    /// The completed op was the last registered consumer of this dataset,
    /// and lifetime GC reclaimed it.
    pub freed: Option<DataId>,
    /// The completed op itself had no reader left — an op rebuilt from
    /// lineage whose readers finished before it did — and lifetime GC
    /// reclaimed it too.
    pub orphan_freed: bool,
}

#[derive(Debug, Default)]
pub(crate) struct Plan<O, X> {
    datasets: Vec<Ds<O, X>>,
    /// Ids of the incomplete ops, ascending: all `runnable` ever walks, so
    /// it costs the same after a thousand discarded jobs as after none.
    live: Vec<u32>,
    /// Incomplete ops reading each dataset (index-aligned with
    /// `datasets`). Lifetime GC frees a dataset when its count returns to
    /// zero.
    consumers: Vec<u32>,
    /// Datasets pinned by `keep`: exempt from lifetime GC until an
    /// explicit discard.
    pins: HashSet<u32>,
    /// Incomplete ops whose last reader completed before them: reclaimed
    /// when they complete. Only a rebuild makes one — an op revived whole
    /// for a map task that reads one of its splits.
    orphans: HashSet<u32>,
}

impl<O: Clone, X: Default> Plan<O, X> {
    pub fn new() -> Self {
        Plan {
            datasets: Vec::new(),
            live: Vec::new(),
            consumers: Vec::new(),
            pins: HashSet::new(),
            orphans: HashSet::new(),
        }
    }

    fn push(&mut self, ds: Ds<O, X>) -> DataId {
        self.datasets.push(ds);
        self.consumers.push(0);
        DataId(self.datasets.len() as u32 - 1)
    }

    /// Reserve a source's id while its data is stored outside the lock
    /// that guards the plan; [`Plan::source`] publishes it.
    pub fn reserve(&mut self) -> DataId {
        self.push(Ds::Loading)
    }

    /// Publish a reserved source, one piece per split — or, if storing it
    /// failed, retire the id and hand the error on.
    pub fn source(&mut self, id: DataId, splits: Result<Vec<O>>) -> Result<DataId> {
        self.datasets[id.0 as usize] = Ds::Discarded(None);
        self.datasets[id.0 as usize] = Ds::Source(splits?);
        Ok(id)
    }

    /// Queue an op running `spec` over `input`: one task per input split
    /// for a map, one per input partition for a reduce-like op.
    pub fn op(&mut self, spec: TaskSpec, input: DataId) -> Result<DataId> {
        if spec.parts() == Some(0) {
            return Err(Error::Invalid("need at least one partition".into()));
        }
        let ds = self
            .datasets
            .get(input.0 as usize)
            .ok_or_else(|| Error::MissingData(format!("dataset {input:?}")))?;
        let input_parts = match ds {
            Ds::Op(op) => op.spec.parts(),
            _ => None,
        };
        let ntasks = match ds {
            Ds::Loading | Ds::Discarded(_) => {
                return Err(Error::MissingData(format!(
                    "dataset {input:?} is discarded or loading"
                )));
            }
            _ if spec.gathers() => input_parts.ok_or_else(|| {
                let op = trace_op(&spec).as_str();
                Error::Invalid(format!("{op} must consume a map output"))
            })?,
            Ds::Source(splits) => splits.len(),
            Ds::Op(op) if input_parts.is_none() => op.tasks.len(),
            Ds::Op(_) => {
                return Err(Error::Invalid("map cannot consume an unreduced map output".into()))
            }
        };
        self.read(input);
        let id = self.push(Ds::Op(Op::new(spec, input, ntasks)));
        self.live.push(id.0);
        Ok(id)
    }

    /// Can task `index` of `op` read its input now? A map task waits only
    /// for its own split, so consecutive rounds pipeline (§IV-A); a
    /// reduce-like task (plain or fused) gathers one partition from
    /// *every* task of its input, so it waits for the whole op — the
    /// barrier of Fig. 1.
    pub fn ready(&self, op: &Op<O, X>, index: usize) -> bool {
        match &self.datasets[op.input.0 as usize] {
            Ds::Source(_) => true,
            Ds::Op(input) if op.spec.gathers() => input.complete(),
            Ds::Op(input) => input.tasks[index].out.is_some(),
            Ds::Loading | Ds::Discarded(_) => false,
        }
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
            let open = move |&i: &usize| op.tasks[i].out.is_none() && self.ready(op, i);
            (op.open..op.tasks.len()).filter(open).map(move |i| (d, i, op))
        })
    }

    /// The input of a runnable task, one clone per piece: the one split of
    /// a map task, or partition `index` of every task of a reduce-like
    /// task's input.
    pub fn input(&self, data: DataId, index: usize) -> Vec<O> {
        let Some(op) = self.at(data) else { return Vec::new() };
        match &self.datasets[op.input.0 as usize] {
            Ds::Source(splits) => vec![splits[index].clone()],
            Ds::Op(input) if op.spec.gathers() => {
                input.tasks.iter().filter_map(|t| t.out()?.get(index).cloned()).collect()
            }
            Ds::Op(input) => input.tasks[index].out.clone().unwrap_or_default(),
            Ds::Loading | Ds::Discarded(_) => Vec::new(),
        }
    }

    /// Publish the output of task `index` of op `data`. When that was the
    /// op's last task, the op releases the refcount it held on its input.
    pub fn commit(&mut self, data: DataId, index: usize, outs: Vec<O>) -> Commit {
        let Some(Ds::Op(op)) = self.datasets.get_mut(data.0 as usize) else {
            return Commit::default();
        };
        let task = &mut op.tasks[index];
        if task.out.is_some() {
            return Commit::default();
        }
        task.out = Some(outs);
        op.done += 1;
        op.open += op.tasks[op.open..].iter().take_while(|t| t.out.is_some()).count();
        if !op.complete() {
            return Commit::default();
        }
        let input = op.input;
        self.live.retain(|&d| d != data.0);
        let freed = self.release(input);
        let orphan_freed = self.orphans.remove(&data.0) && !self.pins.contains(&data.0);
        if orphan_freed {
            let at = data.0 as usize;
            self.datasets[at] = self.datasets[at].reclaimed();
        }
        Commit { completed: true, freed, orphan_freed }
    }

    /// One more incomplete op reads `input`.
    fn read(&mut self, input: DataId) {
        self.consumers[input.0 as usize] += 1;
        self.orphans.remove(&input.0);
    }

    /// Lifetime GC: a completed op no longer needs `input`; when it was
    /// the last registered consumer, reclaim the dataset — unless the
    /// driver pinned it, or it is not complete yet (an orphan, reclaimed
    /// when it is). Sources are exempt: real Mrs re-reads job input
    /// from the filesystem, so keeping splits means every lineage bottoms
    /// out in data that is still there. Only an explicit discard frees
    /// them.
    fn release(&mut self, input: DataId) -> Option<DataId> {
        let at = input.0 as usize;
        self.consumers[at] -= 1;
        if self.consumers[at] > 0 || self.pins.contains(&input.0) {
            return None;
        }
        match &self.datasets[at] {
            Ds::Op(op) if op.complete() => {}
            Ds::Op(_) => {
                self.orphans.insert(input.0);
                return None;
            }
            _ => return None,
        }
        self.datasets[at] = self.datasets[at].reclaimed();
        Some(input)
    }

    /// Op `data` is incomplete again: it holds its input against GC and
    /// `runnable` walks it.
    fn relive(&mut self, data: DataId, input: DataId) {
        self.read(input);
        let at = self.live.partition_point(|&d| d < data.0);
        self.live.insert(at, data.0);
    }

    /// The fault path: the committed output of a task was lost, so the
    /// task is pending again and its op, incomplete again, re-registers
    /// as a consumer of its input. An input reclaimed meanwhile is rebuilt
    /// from its lineage — stage resubmission: its op is revived whole
    /// (every task pending, live again, a consumer of its own input
    /// again), and so on down the chain to a dataset that still holds
    /// data. Errs, changing nothing, only when that chain ends at a
    /// discarded source. Returns whether the op was complete before.
    pub fn reopen(&mut self, data: DataId, index: usize) -> Result<bool> {
        let (input, was_complete) = match self.at(data) {
            Some(op) if op.tasks.get(index).is_some_and(|t| t.out.is_some()) => {
                (op.input, op.complete())
            }
            _ => return Err(Error::Invalid(format!("no committed task {index} of {data:?}"))),
        };
        let mut revive = Vec::new();
        let mut at = input;
        while let Ds::Discarded(lineage) = self.datasets[at.0 as usize] {
            let Some(lineage) = lineage else {
                return Err(Error::MissingData(format!(
                    "task input (dataset {}) was reclaimed and its lineage ends at \
                     discarded source {}",
                    input.0, at.0
                )));
            };
            revive.push((at, lineage));
            at = lineage.input;
        }
        for (d, Lineage { spec, input, tasks }) in revive {
            self.datasets[d.0 as usize] = Ds::Op(Op::new(spec, input, tasks));
            self.relive(d, input);
        }
        if was_complete {
            self.relive(data, input);
        }
        let Some(Ds::Op(op)) = self.datasets.get_mut(data.0 as usize) else { unreachable!() };
        op.tasks[index].out = None;
        op.done -= 1;
        op.open = op.open.min(index);
        Ok(was_complete)
    }

    /// Pin a dataset against lifetime GC until it is discarded.
    pub fn keep(&mut self, data: DataId) {
        self.pins.insert(data.0);
    }

    /// Reclaim a complete dataset on the driver's word, returning what it
    /// held. Advisory: refused (`None`) while a queued consumer still
    /// needs the data — its tasks would never become ready.
    pub fn discard(&mut self, data: DataId) -> Option<Ds<O, X>> {
        let at = data.0 as usize;
        if *self.consumers.get(at)? > 0 {
            return None;
        }
        self.pins.remove(&data.0);
        let slot = &mut self.datasets[at];
        let spent = match slot {
            Ds::Source(_) => true,
            Ds::Op(op) => op.complete(),
            Ds::Loading | Ds::Discarded(_) => false,
        };
        spent.then(|| {
            let gone = slot.reclaimed();
            std::mem::replace(slot, gone)
        })
    }

    /// Is the dataset fully materialized (or gone)? What `wait` sleeps on.
    pub fn complete(&self, data: DataId) -> Result<bool> {
        match self.datasets.get(data.0 as usize) {
            None => Err(Error::MissingData(format!("dataset {data:?}"))),
            Some(Ds::Loading) => Ok(false),
            Some(Ds::Op(op)) => Ok(op.complete()),
            Some(Ds::Source(_) | Ds::Discarded(_)) => Ok(true),
        }
    }

    /// Is the dataset complete, and so is every op it was computed from
    /// that still holds data? What `wait` sleeps on. A task granted ahead
    /// of its inputs (`master/core.rs`) reads its producer's output before
    /// the producer's report lands, so a consumer can complete first; until
    /// the producer completes it still holds its own input, and a driver
    /// that discarded its datasets then would leave that input live.
    pub fn settled(&self, data: DataId) -> Result<bool> {
        let mut at = data;
        while self.complete(at)? {
            match &self.datasets[at.0 as usize] {
                Ds::Op(op) => at = op.input,
                _ => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Every committed piece of a dataset, in split order.
    pub fn outputs(&self, data: DataId) -> Result<Vec<O>> {
        match self.datasets.get(data.0 as usize) {
            None => Err(Error::MissingData(format!("dataset {data:?}"))),
            Some(Ds::Source(splits)) => Ok(splits.clone()),
            Some(Ds::Op(op)) => {
                Ok(op.tasks.iter().filter_map(Task::out).flatten().cloned().collect())
            }
            Some(Ds::Loading | Ds::Discarded(_)) => {
                Err(Error::MissingData(format!("dataset {data:?} was discarded")))
            }
        }
    }

    /// Every dataset ever created, by id.
    pub fn datasets(&self) -> &[Ds<O, X>] {
        &self.datasets
    }

    /// The op producing `data`, if it is an op and not reclaimed.
    pub fn at(&self, data: DataId) -> Option<&Op<O, X>> {
        match self.datasets.get(data.0 as usize) {
            Some(Ds::Op(op)) => Some(op),
            _ => None,
        }
    }

    /// The executor's state of one task.
    pub fn x_mut(&mut self, data: DataId, index: usize) -> Option<&mut X> {
        match self.datasets.get_mut(data.0 as usize) {
            Some(Ds::Op(op)) => op.tasks.get_mut(index).map(|t| &mut t.x),
            _ => None,
        }
    }

    /// Every task of every op not reclaimed, complete or not — what a
    /// dead slave's requeue walks: its id, whether it is committed, and its
    /// executor state.
    pub fn xs_mut(&mut self) -> impl Iterator<Item = (DataId, usize, bool, &mut X)> + '_ {
        self.datasets.iter_mut().enumerate().flat_map(|(d, ds)| {
            let tasks = match ds {
                Ds::Op(op) => op.tasks.as_mut_slice(),
                _ => &mut [],
            };
            let at = DataId(d as u32);
            tasks.iter_mut().enumerate().map(move |(i, t)| (at, i, t.out.is_some(), &mut t.x))
        })
    }

    /// The task with a committed output piece that `holds`, if any.
    pub fn producer(&self, holds: impl Fn(&O) -> bool) -> Option<(DataId, usize)> {
        self.datasets.iter().enumerate().find_map(|(d, ds)| {
            let Ds::Op(op) = ds else { return None };
            let i =
                op.tasks.iter().position(|t| t.out().is_some_and(|out| out.iter().any(&holds)))?;
            Some((DataId(d as u32), i))
        })
    }

    /// One row per dataset not reclaimed, for a status page; `busy` says
    /// which tasks are running.
    pub fn rows(&self, busy: impl Fn(&X) -> bool) -> Vec<Row> {
        let row = |(d, ds): (usize, &Ds<O, X>)| {
            let (op, total, done, running) = match ds {
                Ds::Discarded(_) => return None,
                Ds::Loading => (None, 0, 0, 0),
                Ds::Source(splits) => (None, splits.len(), 0, 0),
                Ds::Op(op) => {
                    let running = op.tasks.iter().filter(|t| busy(&t.x)).count();
                    (Some(trace_op(&op.spec).as_str()), op.tasks.len(), op.done, running)
                }
            };
            let (pinned, orphan) =
                (self.pins.contains(&(d as u32)), self.orphans.contains(&(d as u32)));
            Some(Row { data: d, op, total, done, running, pinned, orphan })
        };
        self.datasets.iter().enumerate().filter_map(row).collect()
    }
}

/// A dataset not reclaimed, as a status page shows it.
pub(crate) struct Row {
    pub data: usize,
    /// Its op's name; `None` for a source.
    pub op: Option<&'static str>,
    /// Its tasks (or splits), the committed ones and the running ones.
    pub total: usize,
    pub done: usize,
    pub running: usize,
    /// Pinned by `keep`; an orphan, reclaimed when it completes.
    pub pinned: bool,
    pub orphan: bool,
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
    fn finish(plan: &mut TestPlan, data: DataId, index: usize) -> Commit {
        let pieces = plan.at(data).expect("an op").spec.parts().unwrap_or(1);
        plan.commit(data, index, (0..pieces).map(|p| (data.0, index, p)).collect())
    }

    /// The commit of an op's last task, freeing nothing.
    fn done() -> Commit {
        Commit { completed: true, ..Commit::default() }
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
        assert_eq!(finish(&mut plan, m2, 1), Commit::default(), "a second commit is ignored");
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
        assert!(plan.discard(gone).is_some());
        let datasets = plan.datasets().len();
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
        assert_eq!(plan.datasets().len(), datasets, "a rejected op queues nothing");
        assert_eq!(runnable(&plan), [(m, 0)], "and registers no consumer");
    }

    #[test]
    fn discard_is_refused_while_a_queued_consumer_needs_the_data() {
        let mut plan = TestPlan::new();
        let src = source(&mut plan, 1);
        let m1 = plan.op(map(1), src).unwrap();
        let r1 = plan.op(reduce(), m1).unwrap();
        assert!(plan.discard(m1).is_none(), "incomplete, and r1 reads it");
        finish(&mut plan, m1, 0);
        finish(&mut plan, r1, 0);
        // A second round is queued over r1; discarding r1 now would leave
        // its tasks unready forever.
        let m2 = plan.op(map(1), r1).unwrap();
        assert!(plan.discard(r1).is_none());
        assert_eq!(runnable(&plan), [(m2, 0)]);
        assert_eq!(finish(&mut plan, m2, 0), Commit { completed: true, freed: Some(r1), ..done() });
        // Complete and unread: the driver's word is enough, once.
        assert!(matches!(plan.discard(m2), Some(Ds::Op(_))));
        assert!(plan.discard(m2).is_none());
        assert!(plan.outputs(m2).is_err() && plan.complete(m2).unwrap());
        assert!(matches!(plan.discard(src), Some(Ds::Source(_))), "only a discard frees a source");
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
        assert_eq!(finish(&mut plan, r1, 0).freed, Some(m1), "unpinned: freed by its reader");
        assert_eq!(finish(&mut plan, m2, 0), Commit { completed: true, freed: None, ..done() });
        assert_eq!(plan.outputs(r1).unwrap(), [(r1.0, 0, 0)]);
        assert!(plan.discard(r1).is_some(), "an explicit discard releases the pin");
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
            assert_eq!(finish(&mut plan, r1, 1).freed, Some(m1));
            finish(&mut plan, m2, 0);
            let first = finish(&mut plan, m2, 1);
            assert_eq!(first, Commit { completed: true, freed: Some(r1), ..done() });
            // m2's split 0 is lost: r1 and m1 are rebuilt whole.
            assert!(plan.reopen(m2, 0).unwrap());
            assert_eq!(runnable(&plan), [(m1, 0)]);
            finish(&mut plan, m1, 0);
            finish(&mut plan, r1, 0);
            assert_eq!(runnable(&plan), [(r1, 1), (m2, 0)], "split 0 is all m2 reads");
            assert_eq!(finish(&mut plan, m2, 0), done(), "{then}: r1 is incomplete, not freed");
            match then {
                "another loss" => assert!(plan.reopen(m2, 1).unwrap()),
                "a pin" => plan.keep(r1),
                _ => {}
            }
            let last = finish(&mut plan, r1, 1);
            let orphan_freed = then == "nothing";
            assert_eq!(last, Commit { completed: true, freed: Some(m1), orphan_freed }, "{then}");
            assert_eq!(plan.outputs(r1).is_err(), orphan_freed, "{then}");
            if then == "another loss" {
                assert_eq!(finish(&mut plan, m2, 1).freed, Some(r1), "freed by its new reader");
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
        assert_eq!(finish(&mut plan, r, 0), Commit { completed: true, freed: Some(m), ..done() });
        // The reduce's output is lost after its input was reclaimed: the
        // map is rebuilt from its lineage, whole, and the barrier holds
        // the reduce until it is.
        assert!(plan.reopen(r, 0).unwrap(), "the reduce was complete");
        assert_eq!(plan.live_ops().map(|(d, _)| d).collect::<Vec<_>>(), [m, r]);
        assert_eq!(runnable(&plan), [(m, 0), (m, 1)], "every task of the revived map");
        assert_eq!(plan.input(m, 1), [(src.0, 1, 0)]);
        assert!(plan.discard(m).is_none() && plan.discard(src).is_none(), "both are read again");
        finish(&mut plan, m, 0);
        assert_eq!(runnable(&plan), [(m, 1)]);
        finish(&mut plan, m, 1);
        assert_eq!(plan.input(r, 0), [(m.0, 0, 0), (m.0, 1, 0)]);
        let again = finish(&mut plan, r, 0);
        let once_more = Commit { completed: true, freed: Some(m), ..done() };
        assert_eq!(again, once_more, "freed once more, once read");
        // Only a lineage that ends at a discarded source cannot be rebuilt,
        // and then nothing changes.
        assert!(plan.discard(src).is_some());
        let err = plan.reopen(r, 0).expect_err("the source is gone").to_string();
        assert!(err.contains("discarded source 0"), "{err}");
        assert!(plan.complete(r).unwrap() && plan.live_ops().next().is_none());
        assert!(plan.outputs(m).is_err() && plan.outputs(r).is_ok());
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
        kept: bool,
        /// Reclaimed, by GC or by a discard.
        gone: bool,
        /// Incomplete ops reading it.
        readers: usize,
        /// Times it was created or rebuilt from its lineage.
        lives: usize,
        /// Times it was reclaimed, by GC or by a discard.
        freed: usize,
        /// Its last reader completed before it did: reclaimed once it
        /// completes.
        orphaned: bool,
    }

    impl Shadow {
        fn new(input: Option<usize>, spec: Option<TaskSpec>, tasks: usize, kept: bool) -> Self {
            Shadow {
                input,
                gathers: spec.is_some_and(|s| s.gathers()),
                parts: spec.and_then(|s| s.parts()),
                done: vec![spec.is_none(); tasks],
                kept,
                gone: false,
                readers: 0,
                lives: 1,
                freed: 0,
                orphaned: false,
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
        /// whose input GC already reclaimed, which the shadows rebuild
        /// whole from lineage — and the graph still drains: `live` empty,
        /// every life of every dataset ended by exactly one free.
        #[test]
        fn random_graphs_obey_the_barrier_and_free_every_spent_dataset_once(
            splits in 1usize..4,
            steps in proptest::collection::vec(arb_step(), 1..60),
            drain in proptest::collection::vec(any::<usize>(), 1..8),
        ) {
            let mut plan = TestPlan::new();
            source(&mut plan, splits);
            let mut shadows = vec![Shadow::new(None, None, splits, false)];
            // Apply one commit to the plan and to the shadows, and check
            // that lifetime GC freed exactly what the shadows say is spent.
            let commit = |plan: &mut TestPlan, shadows: &mut Vec<Shadow>, (d, i): (DataId, usize)| {
                let got = finish(plan, d, i);
                let at = d.0 as usize;
                shadows[at].done[i] = true;
                let completed = shadows[at].complete();
                let (mut freed, mut orphan_freed) = (None, false);
                if completed {
                    let input = shadows[at].input.expect("an op");
                    let s = &mut shadows[input];
                    s.readers -= 1;
                    if s.readers == 0 && s.input.is_some() && !s.kept {
                        if s.complete() {
                            s.gone = true;
                            s.freed += 1;
                            freed = Some(DataId(input as u32));
                        } else {
                            s.orphaned = true;
                        }
                    }
                    let s = &mut shadows[at];
                    if std::mem::take(&mut s.orphaned) && !s.kept {
                        s.gone = true;
                        s.freed += 1;
                        orphan_freed = true;
                    }
                }
                (got, Commit { completed, freed, orphan_freed })
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
                        shadows[input].readers += 1;
                        shadows[input].orphaned = false;
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
                        // reclaimed op on the way is rebuilt; a reclaimed
                        // source cannot be.
                        let input = shadows[d].input.expect("an op");
                        let (mut chain, mut at) = (Vec::new(), input);
                        while shadows[at].gone {
                            chain.push(at);
                            match shadows[at].input {
                                Some(next) => at = next,
                                None => break,
                            }
                        }
                        let rebuilt = !shadows[at].gone;
                        let was_complete = shadows[d].complete();
                        let got = plan.reopen(DataId(d as u32), i).ok();
                        prop_assert_eq!(got, rebuilt.then_some(was_complete), "reopen of {:?}", (d, i));
                        if rebuilt {
                            for r in chain {
                                let s = &mut shadows[r];
                                s.gone = false;
                                s.lives += 1;
                                s.done.fill(false);
                                let read = s.input.expect("only an op has a lineage");
                                shadows[read].readers += 1;
                                shadows[read].orphaned = false;
                            }
                            if was_complete {
                                shadows[input].readers += 1;
                                shadows[input].orphaned = false;
                            }
                            shadows[d].done[i] = false;
                        }
                    }
                    Step::Discard(pick) => {
                        let d = pick % shadows.len();
                        let s = &mut shadows[d];
                        let spent = !s.gone && s.readers == 0 && s.complete();
                        prop_assert_eq!(plan.discard(DataId(d as u32)).is_some(), spent);
                        s.kept &= s.readers > 0;
                        s.gone |= spent;
                        s.freed += usize::from(spent);
                    }
                }
                prop_assert_eq!(runnable(&plan), expected_runnable(&shadows), "after {:?}", step);
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
        }
    }
}
