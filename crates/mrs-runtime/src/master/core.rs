//! The master's scheduling core: the plan, every task's attempts, the
//! slaves, affinity, the undelivered purge and cancel orders, the counters
//! and the job's end, as one state machine. It does no I/O and reads no
//! clock. Every entry takes `now` and returns its answer beside the
//! [`Effects`] the shell ([`super::Master`]) carries out under the same
//! lock: whom to wake, when the death timer must tick next, what storage
//! to delete. So a test or a simulator can drive the real scheduler
//! instant by instant. Trace instants are stamped by the trace handle;
//! they feed no decision.

use super::{MasterConfig, SlaveId, SpeculateMode};
use crate::data::DataId;
use crate::metrics::{Counter, JobMetrics};
use crate::plan::{Freed, Op, Plan, Task};
use crate::proto::{output_url, trace_op, Assignment, CancelOrder, TaskKind, TaskMsg, TaskReport};
use mrs_core::{FuncId, Result, TaskSpec};
use mrs_trace::{Name, Tag, TraceHandle};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One live execution attempt of a task. Speculative execution means a
/// slot can hold several attempts racing on different slaves; the first
/// completion commits and the rest are cancelled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) struct Attempt {
    /// Unique per-master id (1-based, never reused): the task message
    /// carries it out and the completion report echoes it back, so a report
    /// from a cancelled or superseded attempt — or from a life of the task
    /// before its dataset was reclaimed and rebuilt — is recognizably stale.
    pub(super) id: u32,
    slave: SlaveId,
    pub(super) started: Instant,
    /// Dispatched as a straggler backup rather than a primary attempt.
    speculative: bool,
}

/// The master's own state of one task of the plan. The plan knows whether
/// the task is committed; a task with no live attempt and no committed
/// output is pending (it may or may not be dispatchable yet).
#[derive(Debug, Default)]
pub(super) struct Slot {
    /// The live attempts: more than one while a speculative backup races
    /// the original, none once the task is committed.
    pub(super) running: Vec<Attempt>,
    /// Charged execution attempts, compared against [`MAX_ATTEMPTS`]
    /// (fetch failures are forgiven and decrement this).
    attempts: u32,
    /// The slave holding the committed output on the direct data plane
    /// (None when outputs live on the shared filesystem).
    owner: Option<SlaveId>,
    /// Runtime (µs) of the committed attempt: the sample whose median over
    /// the op sets the straggler cutoff for speculative backups.
    runtime_us: Option<u64>,
    /// An attempt failed to read an input: the task is granted again only
    /// once its inputs are committed, never ahead of them.
    committed_only: bool,
}

/// What an affinity claim is keyed by: task kind, program function (the
/// reduce function of a fused op) and task index.
type Claim = (TaskKind, FuncId, usize);

fn claim(spec: &TaskSpec, index: usize) -> Claim {
    let func = match *spec {
        TaskSpec::Map { func, .. } | TaskSpec::Reduce { func } => func,
        TaskSpec::ReduceMap { reduce_func, .. } => reduce_func,
    };
    (TaskKind::of(spec), func, index)
}

/// Execution attempts per task before the job fails: a poisoned task
/// ends the job instead of looping forever. The driver's `fetch_all`
/// tries as often.
pub(super) const MAX_ATTEMPTS: u32 = 4;

/// A task counts as a straggler once it has run this many times its op's
/// median completed runtime (and [`LAUNCH_FLOOR`] past it).
const STRAGGLER_MULTIPLE: f64 = 1.5;

/// A backup is never launched before its original has run this long past
/// the op's median: a backup pays one dispatch, one input fetch and one
/// run of its own, so below that it cannot win the race it was started
/// for — it only occupies the slot the next real task needs.
pub(super) const LAUNCH_FLOOR: Duration = Duration::from_millis(10);

/// How long a task may run before it counts as a straggler, given the
/// median runtime of its op's committed attempts.
pub(super) fn straggler_cutoff(median: Duration) -> Duration {
    median.mul_f64(STRAGGLER_MULTIPLE).max(median + LAUNCH_FLOOR)
}

/// Median of a (small, unsorted) runtime sample; `None` when empty.
fn median_micros(mut samples: Vec<u64>) -> Option<u64> {
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied()
}

#[derive(Clone)]
pub(super) struct SlaveInfo {
    pub(super) authority: String,
    pub(super) alive: bool,
    pub(super) last_seen: Instant,
    /// Capacity advertised at signin: the maximum number of assignments
    /// the slave holds at once (its workers plus one task queued ahead).
    pub(super) slots: usize,
    /// Output-table purge orders not yet delivered; drained onto the next
    /// poll answer — the same answer as any grant, so a rebuilt task's
    /// output never meets the purge order of its previous life.
    purge: Vec<String>,
    /// Attempt-cancellation orders not yet delivered: issued at the commit
    /// point for every losing attempt of a won race, drained likewise.
    cancel: Vec<CancelOrder>,
}

/// What the shell must do after a core entry, before it drops the lock.
#[derive(Default)]
pub(super) struct Effects {
    /// Wake the parked polls (work became runnable, a cancel order is due,
    /// the job ended); only ever set while one is parked.
    pub(super) wake_polls: bool,
    /// Wake the drivers in `wait` / `fetch_all`: a dataset one of them
    /// waits for settled, a slave died, the job failed or ended.
    pub(super) wake_drivers: bool,
    /// The earliest instant a live slave could be declared dead, when it
    /// may have moved earlier (a sign-in, a revival) and after every tick.
    pub(super) death: Option<Instant>,
    /// Reclaimed storage to delete, as directory prefixes: a source's
    /// `src{d}` and, on a shared filesystem, every slave's `s{slave}/d{d}`.
    pub(super) deletes: Vec<String>,
}

/// A core entry's answer and effects.
pub(super) type Out<T> = (T, Effects);

/// The answer to one grant attempt of a poll.
#[derive(Debug, PartialEq)]
pub(super) enum Grant {
    /// Answer now; beside the assignment, the hint "runnable work was left
    /// ungranted for you".
    Now(Assignment, bool),
    /// Nothing runnable: park until this instant (or a wake), then ask again.
    Park(Instant),
}

pub(super) struct MasterCore {
    cfg: MasterConfig,
    /// Slaves keep their outputs (direct plane) rather than a shared store.
    direct: bool,
    /// The task graph: datasets, readiness, the barrier, lifetime GC.
    /// Everything below is policy over it.
    pub(super) plan: Plan<String, Slot>,
    pub(super) slaves: Vec<SlaveInfo>,
    /// (kind, func, index) → slave that last completed that task shape.
    /// Keying by kind means a fused `ReduceMap` op carries its own claims
    /// from one iteration to the next, exactly like the map/reduce pair it
    /// replaced.
    affinity: HashMap<Claim, SlaveId>,
    /// The last attempt id handed out. One counter for every task, never
    /// reset, so ids are unique per master.
    last_attempt: u32,
    pub(super) error: Option<String>,
    pub(super) finished: bool,
    /// Polls currently parked. Wakes are recorded (and asked for) only
    /// while this is non-zero, so the `wakeups` metric counts precise
    /// wakes, not every state change.
    pub(super) parked: usize,
    /// The dataset each driver in `wait` waits for, one entry per driver:
    /// only their completion wakes the drivers.
    pub(super) waiting: Vec<DataId>,
    pub(super) metrics: JobMetrics,
    trace: TraceHandle,
    /// The effects of the entry in progress.
    fx: Effects,
}

impl MasterCore {
    pub(super) fn new(cfg: MasterConfig, direct: bool, trace: TraceHandle) -> Self {
        MasterCore {
            cfg,
            direct,
            plan: Plan::new(),
            slaves: Vec::new(),
            affinity: HashMap::new(),
            last_attempt: 0,
            error: None,
            finished: false,
            parked: 0,
            waiting: Vec::new(),
            metrics: JobMetrics::default(),
            trace,
            fx: Effects::default(),
        }
    }

    /// End an entry: its answer and the effects it gathered.
    fn out<T>(&mut self, answer: T) -> Out<T> {
        (answer, std::mem::take(&mut self.fx))
    }

    fn over(&self) -> bool {
        self.finished || self.error.is_some()
    }

    pub(super) fn live_slaves(&self) -> usize {
        self.slaves.iter().filter(|s| s.alive).count()
    }

    fn wake_polls(&mut self) {
        if self.parked > 0 {
            self.metrics.add(Counter::Wakeups, 1);
            self.fx.wake_polls = true;
        }
    }

    /// The earliest instant a live slave could be declared dead: its
    /// `last_seen + slave_timeout`, plus a millisecond so a tick then finds
    /// it *strictly* overdue. `None` when nobody is alive or the job is over.
    fn next_death(&self) -> Option<Instant> {
        if self.over() {
            return None;
        }
        let alive = self.slaves.iter().filter(|s| s.alive);
        alive.map(|s| s.last_seen + self.cfg.slave_timeout + Duration::from_millis(1)).min()
    }

    /// Proof of life from `slave` at `now`. A slave declared dead that is
    /// heard from again is alive again, and can die again.
    fn touch(&mut self, slave: SlaveId, now: Instant) {
        let Some(info) = self.slaves.get_mut(slave as usize) else { return };
        info.last_seen = now;
        if !std::mem::replace(&mut info.alive, true) {
            self.fx.death = self.next_death();
        }
    }

    /// Register a slave advertising `slots` task slots (at least 1).
    pub(super) fn signin(&mut self, authority: &str, slots: usize, now: Instant) -> Out<SlaveId> {
        self.slaves.push(SlaveInfo {
            authority: authority.to_owned(),
            alive: true,
            last_seen: now,
            slots: slots.max(1),
            purge: Vec::new(),
            cancel: Vec::new(),
        });
        self.fx.death = self.next_death();
        self.out(self.slaves.len() as SlaveId - 1)
    }

    /// Completion reports from `slave`, the proof of life they are: on a
    /// poll, before any grant (so the slots they free are grantable in the
    /// same round trip), or on their own. Each output's URL is the one
    /// [`Self::output_url`] names, or `empty:` for a partition the report
    /// lists empty.
    pub(super) fn report(
        &mut self,
        slave: SlaveId,
        reports: &[TaskReport],
        now: Instant,
    ) -> Out<()> {
        self.touch(slave, now);
        // One wake for all of them, and only if one of them calls for it.
        let mut wake = false;
        for r in reports {
            let urls =
                |core: &Self, parts| r.urls(parts, |p| core.output_url(slave, r.data, r.index, p));
            wake |= self.apply_done(slave, r.data, r.index, r.attempt, urls, now);
        }
        if wake {
            self.wake_polls();
        }
        self.out(())
    }

    /// A completion whose output URLs the caller names; see
    /// [`super::Master::task_done`].
    pub(super) fn commit(
        &mut self,
        slave: SlaveId,
        data: u32,
        index: usize,
        attempt: u32,
        urls: Vec<String>,
        now: Instant,
    ) -> Out<()> {
        self.touch(slave, now);
        if self.apply_done(slave, data, index, attempt, |_, _| urls, now) {
            self.wake_polls();
        }
        self.out(())
    }

    /// The URL of output `p` of task `index` of `data` written by `slave`.
    fn output_url(&self, slave: SlaveId, data: u32, index: usize, p: usize) -> String {
        let authority = self.direct.then(|| self.slaves[slave as usize].authority.as_str());
        output_url(authority, slave, data, index, p)
    }

    /// The first half of a poll: merge the slave's counter tally and take
    /// its piggybacked `reports`. Returns the instant the poll may park
    /// until: `park` clamped to `slave_timeout / 2`, so a parked slave
    /// still heartbeats at least twice per death timeout.
    pub(super) fn poll(
        &mut self,
        slave: SlaveId,
        reports: &[TaskReport],
        counts: &JobMetrics,
        park: Duration,
        now: Instant,
    ) -> Out<Instant> {
        self.metrics.merge(counts);
        self.metrics.add(Counter::PiggybackedReports, reports.len() as u64);
        self.fx = self.report(slave, reports, now).1;
        let park = park.min(self.cfg.slave_timeout / 2);
        self.out(now + park)
    }

    /// The grant half of a poll: up to `min(free_slots, capacity −
    /// in_flight)` tasks, where `capacity` is the slot count the slave
    /// advertised at signin — filling an N-slot slave costs one poll, not
    /// N. With nothing runnable it is `Park` until `until` or, sooner, the
    /// instant a straggler becomes backup-eligible for this poller; `Wait`
    /// once `until` has passed or a cancel order is due. `resumed`: the
    /// poll was parked and has woken since its last grant attempt.
    pub(super) fn grant(
        &mut self,
        slave: SlaveId,
        free_slots: usize,
        until: Instant,
        resumed: bool,
        now: Instant,
    ) -> Out<Grant> {
        // A resumed poll is parked no longer. Parked is not silent: the
        // request being held is proof of life.
        self.parked -= resumed as usize;
        self.touch(slave, now);
        // An undelivered cancel order must not sit behind the park: its
        // whole value is freeing the doomed slot *now*.
        let cancel_due = self.slaves.get(slave as usize).is_some_and(|s| !s.cancel.is_empty());
        let grant = if self.over() {
            Grant::Now(Assignment::Exit, false)
        } else if let Some((granted, more)) = self.dispatch(slave, free_slots, now) {
            Grant::Now(Assignment::Tasks(granted), more)
        } else if cancel_due || now >= until {
            self.metrics.add(Counter::LongpollTimeouts, (resumed && !cancel_due) as u64);
            Grant::Now(Assignment::Wait, false)
        } else {
            if !resumed {
                self.metrics.add(Counter::LongpollParks, 1);
            }
            self.parked += 1;
            // A running task becomes backup-eligible purely by time
            // passing — no state transition fires, so no wake would. A
            // cutoff already past is one this poll cannot take (no budget).
            let backup = self.straggler(Some(slave)).map(|(.., at)| at).filter(|&at| at > now);
            Grant::Park(backup.map_or(until, |at| at.min(until)))
        };
        self.out(grant)
    }

    /// Drain the purge and cancel orders queued for `slave`: they ride the
    /// answer to its poll.
    pub(super) fn orders(&mut self, slave: SlaveId) -> (Vec<String>, Vec<CancelOrder>) {
        let Some(s) = self.slaves.get_mut(slave as usize) else { return Default::default() };
        (std::mem::take(&mut s.purge), std::mem::take(&mut s.cancel))
    }

    /// Try to grant tasks; `None` when nothing is runnable for this slave
    /// right now. Beside the grant, whether a task this slave would be
    /// given is still runnable after it.
    fn dispatch(
        &mut self,
        slave: SlaveId,
        free_slots: usize,
        now: Instant,
    ) -> Option<(Vec<TaskMsg>, bool)> {
        let capacity = self.slaves.get(slave as usize).map(|s| s.slots)?;

        // In-flight counts are derived from task states on every poll, not
        // kept as counters: a dead slave's requeue or a duplicate/late
        // report can therefore never leave the accounting stale. Every
        // racing attempt occupies a slot on its slave, so attempts are
        // counted, not slots.
        let mut in_flight = vec![0usize; self.slaves.len()];
        for (_, op) in self.plan.live_ops() {
            for a in op.tasks().iter().flat_map(|t| &t.x.running) {
                if let Some(n) = in_flight.get_mut(a.slave as usize) {
                    *n += 1;
                }
            }
        }

        let budget = free_slots.min(capacity.saturating_sub(in_flight[slave as usize]));
        let mut granted: Vec<TaskMsg> = Vec::new();
        while granted.len() < budget {
            // Primary work first; with none runnable, offer the idle slot
            // to a straggling task as a speculative backup.
            let (data, index, stolen, ahead, speculative) = match self.pick_task(slave, &in_flight)
            {
                Some((d, i, s, a)) => (d, i, s, a, false),
                None => match self.straggler(Some(slave)) {
                    Some((d, i, at)) if at <= now => (d, i, false, false, true),
                    _ => break,
                },
            };
            let spec = self.plan.at(data).expect("candidates only contain ops").spec;
            // A task granted ahead waits, at its producers' data servers or
            // in this slave's own table, for inputs not yet written. That
            // cannot deadlock: a lookup waits only for an attempt with a
            // smaller id than its reader's (a slave answers it missing
            // otherwise — say for a failed producer granted again after
            // the reader), and slaves take attempts FIFO, so the unfinished
            // attempt with the smallest id is running and waits for
            // nothing.
            let inputs = if ahead {
                self.metrics.add(Counter::AheadGrants, 1);
                self.ahead_inputs(data, index)
            } else {
                self.plan.input(data, index)
            };
            if speculative {
                self.metrics.add(Counter::SpeculativeLaunches, 1);
            } else {
                if self.cfg.use_affinity {
                    if let Some(&pref) = self.affinity.get(&claim(&spec, index)) {
                        let hit = pref == slave;
                        let c = if hit { Counter::AffinityHits } else { Counter::AffinityMisses };
                        self.metrics.add(c, 1);
                    }
                }
                if stolen {
                    self.metrics.add(Counter::TasksStolen, 1);
                }
            }
            self.last_attempt += 1;
            let attempt = Attempt { id: self.last_attempt, slave, started: now, speculative };
            let slot = self.plan.x_mut(data, index).expect("candidates only contain ops");
            slot.attempts += 1;
            slot.running.push(attempt);
            in_flight[slave as usize] += 1;
            let tag = Tag::task(trace_op(&spec), data.0, index, attempt.id);
            self.trace.instant_on(slave, Name::Dispatch, tag);
            if speculative {
                self.trace.instant_on(slave, Name::Speculate, tag);
            }
            granted.push(TaskMsg::new(data.0, index, &spec, attempt.id, inputs));
        }
        if granted.is_empty() {
            return None;
        }
        let total: usize = in_flight.iter().sum();
        self.metrics.add(Counter::DispatchPolls, 1);
        self.metrics.add(Counter::DispatchedTasks, granted.len() as u64);
        self.metrics.max(Counter::PeakInFlight, total as u64);
        // One more pick, with this grant counted into the loads: work left
        // for an equally idle claimant is not work left for this slave,
        // and a task it could take ahead of its inputs would only wait.
        let more = self.pick_task(slave, &in_flight).is_some_and(|(.., ahead)| !ahead);
        Some((granted, more))
    }

    /// Choose the next task for `slave`: a runnable one in
    /// [`Self::choose`]'s order, else one of its own affinity claims that
    /// may be granted ahead of its inputs ([`Self::ahead`]). Returns
    /// `(data, index, was_steal, ahead)`.
    fn pick_task(
        &self,
        slave: SlaveId,
        in_flight: &[usize],
    ) -> Option<(DataId, usize, bool, bool)> {
        // Dispatchable tasks: pending, with satisfied inputs.
        let mut runnable: Vec<(DataId, usize)> = Vec::new();
        self.plan.runnable().for_each(|(d, i, op)| {
            if op.tasks()[i].x.running.is_empty() {
                runnable.push((d, i));
            }
        });
        if let Some((d, i, stolen)) = self.choose(slave, in_flight, &runnable) {
            return Some((d, i, stolen, false));
        }
        self.ahead(slave).map(|(d, i)| (d, i, false, true))
    }

    /// A task `slave` may be granted ahead of its inputs: a pending task
    /// of an op whose pending inputs can be named ([`Self::predictable`]),
    /// that `slave` has the affinity claim to — an unclaimed or stolen
    /// task held waiting would take the idle slot a straggler's backup
    /// needs — and that has not failed to read an input (it waits for
    /// committed ones).
    fn ahead(&self, slave: SlaveId) -> Option<(DataId, usize)> {
        self.plan.live_ops().filter(|(_, op)| self.predictable(op)).find_map(|(d, op)| {
            let mine = |(i, t): &(usize, &Task<String, Slot>)| {
                t.out().is_none()
                    && t.x.running.is_empty()
                    && !t.x.committed_only
                    && self.owner(d, *i) == Some(slave)
            };
            op.tasks().iter().enumerate().find(mine).map(|(i, _)| (d, i))
        })
    }

    /// Whether the pending inputs of reduce-like `op` can be named ahead,
    /// on the direct plane: its input op is incomplete, but each of its
    /// producers is committed or has exactly one live attempt whose own
    /// inputs are all committed. So a task granted ahead is never more
    /// than one round ahead of committed data, its producers wait for
    /// nothing, none of them rides a backup race, and each pending input
    /// is named by the URL its producer's slave will enter it under.
    fn predictable(&self, op: &Op<String, Slot>) -> bool {
        let input = self.plan.at(op.input).filter(|_| self.direct && op.spec.gathers());
        input.is_some_and(|input| {
            let named = |(j, t): (usize, &Task<String, Slot>)| {
                t.out().is_some() || t.x.running.len() == 1 && self.plan.ready(input, j)
            };
            input.done() < input.tasks().len() && input.tasks().iter().enumerate().all(named)
        })
    }

    /// The slave that last completed the task shape of task `index` of
    /// `data`: its affinity claimant.
    fn owner(&self, data: DataId, index: usize) -> Option<SlaveId> {
        self.affinity.get(&claim(&self.plan.at(data)?.spec, index)).copied()
    }

    /// The inputs of task `index` of the reduce-like op `data`, granted
    /// ahead: partition `index` of each producer, committed or at the URL
    /// its one live attempt's slave will enter it under.
    fn ahead_inputs(&self, data: DataId, index: usize) -> Vec<String> {
        let op = self.plan.at(data).expect("an ahead task's op");
        let input = self.plan.at(op.input).expect("an ahead task's input op");
        let producer = |(j, t): (usize, &Task<String, Slot>)| match t.out() {
            Some(out) => out[index].clone(),
            None => self.output_url(t.x.running[0].slave, op.input.0, j, index),
        };
        input.tasks().iter().enumerate().map(producer).collect()
    }

    /// Choose among `candidates` for `slave`. Priority order: a task whose
    /// corresponding task ran on this slave last iteration (affinity), then
    /// a task nobody alive has a claim to, and only then — when every
    /// remaining candidate belongs to a live owner — an occupancy-driven
    /// steal from the busiest owner, gated on the poller being *strictly*
    /// less loaded (fractional occupancy, so 2-busy-of-4-slots loses to
    /// 0-busy-of-1-slot). An equally-idle owner keeps its claim: it will
    /// take the task on its own next poll, preserving affinity for free.
    /// Returns `(data, index, was_steal)`.
    fn choose(
        &self,
        slave: SlaveId,
        in_flight: &[usize],
        candidates: &[(DataId, usize)],
    ) -> Option<(DataId, usize, bool)> {
        let &first = candidates.first()?;

        let owner_of = |d: DataId, i: usize| self.owner(d, i);
        let live = |s: SlaveId| self.slaves.get(s as usize).map(|x| x.alive).unwrap_or(false);
        // Fractional load (busy, slots) for cross-multiplied comparison.
        let load = |s: SlaveId| -> (usize, usize) {
            let slots = self.slaves.get(s as usize).map(|x| x.slots.max(1)).unwrap_or(1);
            (in_flight.get(s as usize).copied().unwrap_or(0), slots)
        };

        if !self.affinity.is_empty() {
            // 1. A task this slave has an affinity claim to.
            for &(d, i) in candidates {
                if owner_of(d, i) == Some(slave) {
                    return Some((d, i, false));
                }
            }
            // 2. A task with no claim, or whose claimant is dead.
            for &(d, i) in candidates {
                match owner_of(d, i) {
                    None => return Some((d, i, false)),
                    Some(o) if !live(o) => return Some((d, i, false)),
                    Some(_) => {}
                }
            }
            // 3. Every candidate is claimed by a live slave: steal from the
            //    (fractionally) busiest owner, if busier than the poller.
            let (my_busy, my_slots) = load(slave);
            let mut best: Option<((DataId, usize), (usize, usize))> = None;
            for &(d, i) in candidates {
                let Some(o) = owner_of(d, i) else { continue };
                let (o_busy, o_slots) = load(o);
                if o_busy * my_slots <= my_busy * o_slots {
                    continue; // owner not strictly busier than us: leave it
                }
                let better = match best {
                    None => true,
                    Some((_, (b_busy, b_slots))) => o_busy * b_slots > b_busy * o_slots,
                };
                if better {
                    best = Some(((d, i), (o_busy, o_slots)));
                }
            }
            return best.map(|((d, i), _)| (d, i, true));
        }
        Some((first.0, first.1, false))
    }

    /// The straggler a backup on `slave` (on any slave: `None`) would
    /// race, and its cutoff instant: `started +` [`straggler_cutoff`] of
    /// the op's median completed runtime. Of the single-attempt tasks of
    /// ops past the wave threshold (≥ 75% complete) running elsewhere, the
    /// one with the earliest cutoff — eligible once that has passed, and
    /// then also the most overdue. None when speculation is off or no
    /// runtime sample exists yet. One backup per task at most: racing more
    /// than two attempts buys little and burns a slot.
    fn straggler(&self, slave: Option<SlaveId>) -> Option<(DataId, usize, Instant)> {
        if self.cfg.speculate == SpeculateMode::Off {
            return None;
        }
        let mut best: Option<(DataId, usize, Instant)> = None;
        for (d, op) in self.plan.live_ops() {
            let tasks = op.tasks();
            if op.done() == 0 || op.done() * 4 < tasks.len() * 3 {
                continue;
            }
            let runtimes = tasks.iter().filter_map(|t| t.x.runtime_us).collect();
            let Some(median) = median_micros(runtimes) else { continue };
            let cutoff = straggler_cutoff(Duration::from_micros(median));
            for (i, task) in tasks.iter().enumerate() {
                let [a] = task.x.running.as_slice() else { continue };
                // A producer re-execution (dead slave on the direct plane)
                // can unready the input of a still-running consumer; a
                // backup could not fetch, so skip it.
                let at = a.started + cutoff;
                if Some(a.slave) != slave && best.is_none_or(|b| at < b.2) && self.plan.ready(op, i)
                {
                    best = Some((d, i, at));
                }
            }
        }
        best
    }

    /// Record one completed task, whose output URLs `urls` names given
    /// the task's output count. Wakes the drivers if it completes an op
    /// one of them waits for, and returns whether the parked polls must be
    /// woken: the op completed, a cancel order was queued, a map over this
    /// reduce output or a backup got nearer.
    fn apply_done(
        &mut self,
        slave: SlaveId,
        data: u32,
        index: usize,
        attempt: u32,
        urls: impl FnOnce(&Self, usize) -> Vec<String>,
        now: Instant,
    ) -> bool {
        let id = DataId(data);
        // The commit point. The report must name an attempt that is live
        // on the reporting slave. Any other report — a duplicate, one from
        // a superseded attempt (cancelled, requeued, or beaten to this
        // very point), one for a slot a fetch failure sent back to pending
        // — is stale: its URLs are never published and its completion is
        // never counted.
        let Some(slot) = self.plan.x_mut(id, index) else { return false };
        let Some(won) = slot.running.iter().position(|a| a.slave == slave && a.id == attempt)
        else {
            return false;
        };
        // The racing attempts the winner beat.
        let mut losers = std::mem::take(&mut slot.running);
        let winner = losers.remove(won);
        slot.runtime_us = Some((now - winner.started).as_micros() as u64);
        slot.owner = self.direct.then_some(slave);
        let spec = self.plan.at(id).expect("the slot's op").spec;
        let urls = urls(self, spec.parts().unwrap_or(1));
        let freed = self.plan.commit(id, index, urls);
        let completed = freed.is_some();
        // Losers get cancellation orders piggybacked on their slave's next
        // poll; the winner's margin over the slowest loser is the straggler
        // time a speculative win saved.
        let op = trace_op(&spec);
        let slowest_loser = losers.iter().map(|l| now - l.started).max().unwrap_or(Duration::ZERO);
        let mut wake = !losers.is_empty();
        for l in losers {
            if let Some(s) = self.slaves.get_mut(l.slave as usize) {
                s.cancel.push(CancelOrder { data, index, attempt: l.id });
            }
            self.trace.instant_on(l.slave, Name::Cancel, Tag::task(op, data, index, l.id));
            self.metrics.add(Counter::CancelledTasks, 1);
            if l.speculative {
                self.metrics.add(Counter::SpeculativeLosses, 1);
            }
        }
        if winner.speculative {
            self.metrics.add(Counter::SpeculativeWins, 1);
            let saved = slowest_loser.saturating_sub(now - winner.started);
            self.metrics.add_time(Counter::StragglerTimeSaved, saved);
        }
        self.trace.instant_on(slave, Name::Report, Tag::task(op, data, index, attempt));
        self.metrics.add(Counter::TasksExecuted, 1);
        if matches!(spec, TaskSpec::ReduceMap { .. }) {
            // Time and shuffle bytes happened slave-side; the master
            // only observes that a fused task completed.
            self.metrics.add(Counter::ReducemapTasks, 1);
        }
        if self.cfg.use_affinity {
            self.affinity.insert(claim(&spec, index), slave);
        }
        // A map task reads one split of a reduce output, so it is runnable
        // with that split, ahead of the op's barrier; and a report that
        // leaves a straggler candidate behind moves the instant a parked
        // poll must wake to back it up.
        wake |= self.parked > 0
            && (spec.parts().is_none()
                && self.plan.live_ops().any(|(_, op)| op.input == id && !op.spec.gathers())
                || !completed && self.straggler(None).is_some());
        if let Some(freed) = freed {
            // The op's output is now fully materialized, and the op no
            // longer needs its input.
            self.metrics.dataset_live(true);
            self.reclaimed(freed, true);
            // A driver waits for its dataset to settle: this op or one it
            // was computed from completing may be what it waits for.
            let settled = |w: &DataId| self.plan.settled(*w).unwrap_or(true);
            self.fx.wake_drivers |= self.waiting.iter().any(settled);
        }
        wake || completed
    }

    /// The plan freed these datasets, at a commit or on a discard: drop
    /// their storage everywhere. Slaves' output tables (direct plane) are
    /// purged via orders piggybacked on each slave's next poll; the
    /// master's source splits and, on a shared filesystem, every slave's
    /// outputs are deleted by the shell before it releases the lock —
    /// before anything can rebuild a dataset and write its paths again.
    fn reclaimed(&mut self, freed: Freed, at_commit: bool) {
        for (DataId(d), was_source) in freed {
            self.metrics.dataset_freed(at_commit);
            if was_source {
                self.fx.deletes.push(format!("src{d}"));
            } else if self.direct {
                for (s, slave) in self.slaves.iter_mut().enumerate() {
                    slave.purge.push(format!("s{s}/d{d}/"));
                }
            } else {
                self.fx.deletes.extend((0..self.slaves.len()).map(|s| format!("s{s}/d{d}")));
            }
        }
    }

    /// Send a committed task whose output was lost back to pending; the
    /// plan rebuilds whatever it reads that lifetime GC reclaimed. Fails
    /// the job only when that lineage ends at a discarded source. An op
    /// that was complete stops counting as live until it is again.
    fn reopen(&mut self, data: DataId, index: usize) {
        match self.plan.reopen(data, index) {
            Ok(true) => self.metrics.dataset_live(false),
            Ok(false) => {}
            Err(e) => {
                self.error.get_or_insert(e.to_string());
            }
        }
    }

    /// A failed task attempt; see [`super::Master::task_failed`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn task_failed(
        &mut self,
        slave: SlaveId,
        data: u32,
        index: usize,
        attempt: u32,
        msg: &str,
        failed_input: Option<&str>,
        now: Instant,
    ) -> Out<()> {
        self.touch(slave, now);
        // A failure naming no live attempt of this slave is stale (the
        // attempt was cancelled or superseded): the slot moved on, nothing
        // to re-queue or charge.
        let Some(slot) = self.plan.x_mut(DataId(data), index) else { return self.out(()) };
        let Some(pos) = slot.running.iter().position(|a| a.slave == slave && a.id == attempt)
        else {
            return self.out(());
        };
        // A failed backup while the original still runs is just a lost
        // speculation, not a task failure.
        let speculative_lost = slot.running.remove(pos).speculative && !slot.running.is_empty();
        if failed_input.is_some() {
            // Fetch failure: forgive the attempt, and grant the task again
            // only with committed inputs — the one it could not read may
            // have been named ahead, for a producer that lost a race or
            // died, or whose slave is gone.
            slot.attempts = slot.attempts.saturating_sub(1);
            slot.committed_only = true;
        }
        // With no attempt left the task is pending again, unless it has
        // used up its attempts.
        let attempts = slot.attempts;
        let exhausted = slot.running.is_empty() && attempts >= MAX_ATTEMPTS;
        if exhausted && failed_input.is_none() {
            self.error = Some(format!(
                "task (data {data}, index {index}) failed {attempts} times; last error: {msg}"
            ));
        }
        self.metrics.add(Counter::SpeculativeLosses, speculative_lost as u64);
        self.metrics.add(Counter::TasksRetried, 1);
        // Re-execute the task that produced the unfetchable URL.
        if let Some((producer, task)) =
            failed_input.and_then(|url| self.plan.producer(|o| o == url))
        {
            self.reopen(producer, task);
        }
        self.wake_polls();
        self.fx.wake_drivers |= self.error.is_some();
        self.out(())
    }

    /// Time has reached `now`: declare every live slave silent for longer
    /// than `slave_timeout` dead, re-queue its running tasks and (on the
    /// direct data plane) re-execute the tasks whose committed outputs died
    /// with it. The effects name the next instant to tick at. Once the job
    /// is over nobody dies.
    pub(super) fn tick(&mut self, now: Instant) -> Out<()> {
        let (timeout, over) = (self.cfg.slave_timeout, self.over());
        let mut dead: Vec<SlaveId> = Vec::new();
        for (id, info) in self.slaves.iter_mut().enumerate() {
            if info.alive && !over && now.saturating_duration_since(info.last_seen) > timeout {
                info.alive = false;
                dead.push(id as SlaveId);
            }
        }
        self.fx.death = self.next_death();
        if dead.is_empty() {
            return self.out(());
        }
        let mut requeued = 0u64;
        let mut speculative_lost = 0u64;
        let mut lost: Vec<(DataId, usize)> = Vec::new();
        for (d, i, committed, slot) in self.plan.xs_mut() {
            let had_any = !slot.running.is_empty();
            slot.running.retain(|a| {
                let gone = dead.contains(&a.slave);
                speculative_lost += (gone && a.speculative) as u64;
                !gone
            });
            // Re-queue only when every racing attempt died; a surviving
            // attempt (original or backup) still owns the slot and will
            // report in its own time.
            if had_any && slot.running.is_empty() {
                requeued += 1;
            } else if committed && slot.owner.is_some_and(|s| dead.contains(&s)) {
                lost.push((d, i));
            }
        }
        requeued += lost.len() as u64;
        for (d, i) in lost {
            self.reopen(d, i);
        }
        self.metrics.add(Counter::TasksRetried, requeued);
        self.metrics.add(Counter::SpeculativeLosses, speculative_lost);
        // If nobody is left to run re-queued work, fail rather than hang.
        if self.live_slaves() == 0 && self.plan.live_ops().next().is_some() {
            self.error.get_or_insert("no live slaves remain".into());
        }
        // Requeued tasks (or the error) are runnable-state transitions.
        self.wake_polls();
        self.fx.wake_drivers = true;
        self.out(())
    }

    /// Queue an op over `input` and wake the parked polls for its tasks,
    /// if any can be granted yet.
    pub(super) fn submit(
        &mut self,
        spec: TaskSpec,
        input: DataId,
        _: Instant,
    ) -> Out<Result<DataId>> {
        let id = self.plan.op(spec, input);
        if let Ok(id) = id {
            self.metrics.add(Counter::FusedOps, matches!(spec, TaskSpec::ReduceMap { .. }) as u64);
            // A chain is queued ahead of its first round's inputs: only an
            // op with a task grantable now is worth a parked poll's wake.
            let op = self.plan.at(id).expect("just queued");
            if (0..op.tasks().len()).any(|i| self.plan.ready(op, i)) || self.predictable(op) {
                self.wake_polls();
            }
        }
        self.out(id)
    }

    /// Publish a reserved source once its splits are stored (or retire the
    /// id, if storing them failed).
    pub(super) fn publish(
        &mut self,
        id: DataId,
        urls: Result<Vec<String>>,
        _: Instant,
    ) -> Out<Result<DataId>> {
        let published = self.plan.source(id, urls);
        if published.is_ok() {
            self.metrics.dataset_live(true);
        }
        self.wake_polls();
        self.fx.wake_drivers = self.waiting.contains(&id);
        self.out(published)
    }

    /// The driver is done with a dataset: freed now, or once it may be.
    pub(super) fn discard(&mut self, data: DataId, _: Instant) -> Out<()> {
        let freed = self.plan.discard(data);
        self.reclaimed(freed, false);
        self.out(())
    }

    /// The job is over: polls are answered `Exit` and nothing dies anymore.
    pub(super) fn finish(&mut self, _: Instant) -> Out<()> {
        self.finished = true;
        self.wake_polls();
        self.fx.wake_drivers = true;
        self.out(())
    }
}
