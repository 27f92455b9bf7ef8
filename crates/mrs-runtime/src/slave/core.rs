//! The slave's decisions as one state machine, with no thread, socket,
//! clock or lock: each entry takes what happened (and `now`, where time
//! decides) and returns the [`Effects`] the shell ([`super::Slave`])
//! carries out under the lock the entry ran in. So a test drives the real
//! policy instant by instant.

use crate::metrics::JobMetrics;
use crate::proto::{Assignment, Dispatch, TaskMsg, TaskReport};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a busy slave stays away from the master: with nothing to ask
/// for it polls this often anyway — its heartbeat, and the ride out for
/// any completion report it is holding.
pub(super) const MAX_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The park an idle slave asks for. The master clamps it to half its
/// slave timeout (1 s at the default 2 s); half the RPC client's 10 s I/O
/// timeout keeps even an unclamped park inside it.
pub(super) const IDLE_PARK: Duration = Duration::from_secs(5);

/// The identity of a task attempt: (data, index, attempt).
pub(super) fn key(task: &TaskMsg) -> (u32, usize, u32) {
    (task.data, task.index, task.attempt)
}

/// A poll due now, carrying every report with its task's counts; or none
/// before an instant, unless an entry wakes the poller; or none ever.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per poll: a box would cost an allocation each
pub(super) enum Due {
    Poll { free: usize, park: Duration, reports: Vec<TaskReport>, tally: JobMetrics },
    Wait(Instant),
    Halt,
}

/// What the shell does after an entry, under the entry's lock — but the
/// wakes, the traces and a failure report (an RPC), which follow it.
#[derive(Default)]
pub(super) struct Effects {
    /// Cancel flags to raise: a fetch stops before its next peer, a kernel
    /// at its next record or group.
    pub(super) raise: Vec<Arc<AtomicBool>>,
    /// Drop every output under these prefixes.
    pub(super) purge: Vec<String>,
    /// Queued attempts a cancel order dropped, with their acceptance
    /// stamps: traced on the poll lane.
    pub(super) dropped: Vec<(TaskMsg, u64)>,
    /// The attempts an answer accepted: what they will write is pending
    /// until they finish.
    pub(super) accepted: Vec<(u32, usize, u32)>,
    /// The unfinished attempts a cancel order ended, queued or held by a
    /// worker: what they would have written never will be.
    pub(super) abandoned: Vec<(u32, usize, u32)>,
    /// Wake this many workers for the attempts queued.
    pub(super) queued: usize,
    /// Enter the finished attempt's outputs.
    pub(super) enter: bool,
    pub(super) report_failure: bool,
    pub(super) wake_poller: bool,
}

#[derive(Default)]
pub(super) struct SlaveCore {
    /// The most assignments held at once, advertised at signin.
    capacity: usize,
    /// Assignments no worker has taken yet, each with the recorder time it
    /// arrived (0 untraced): the attempt span reaches back to it.
    pub(super) queue: VecDeque<(TaskMsg, u64)>,
    /// Assignments accepted and not yet finished.
    pub(super) in_flight: usize,
    /// Completions waiting to ride on the next poll, with the counts.
    pub(super) reports: Vec<TaskReport>,
    tally: JobMetrics,
    /// The last answer said runnable work was left ungranted: a freed slot
    /// can be refilled, so a completion is worth a poll of its own.
    more: bool,
    /// The cancel flags of the attempts workers hold. A cancel order takes
    /// an attempt's flag out, so one finishing without it was cancelled.
    pub(super) active: HashMap<(u32, usize, u32), Arc<AtomicBool>>,
    /// A worker event since the last answer makes a poll due at once.
    woken: bool,
    /// When the last answer arrived; a busy slave's heartbeat is due
    /// [`MAX_POLL_INTERVAL`] after it.
    answered_at: Option<Instant>,
    /// Stop at once and silently — crash semantics (the fault-injection
    /// hook), a lost control channel, or the end of the job.
    pub(super) halt: bool,
}

impl SlaveCore {
    pub(super) fn new(capacity: usize) -> Self {
        SlaveCore { capacity, ..SlaveCore::default() }
    }

    /// A poll was answered. Cancels go first: a loser still queued is
    /// dropped, freeing its slot at once; one a worker holds has its flag
    /// taken and raised, so its outputs are never entered (either way it
    /// is abandoned); one already finished has its waiting report
    /// withdrawn. The purges follow in the
    /// same step, so they find every output a loser of the purged dataset
    /// will ever enter, and a granted task that rebuilds a reclaimed
    /// dataset writes its paths only after its previous life's are gone.
    /// The grant (cancels never name one of its tasks) is queued last,
    /// with the answer's `more` hint: no completion is judged by a stale one.
    pub(super) fn answered(&mut self, d: Dispatch, more: bool, us: u64, now: Instant) -> Effects {
        let mut fx = Effects { purge: d.purge, ..Effects::default() };
        for o in &d.cancel {
            let id = (o.data, o.index, o.attempt);
            if let Some(pos) = self.queue.iter().position(|(t, _)| key(t) == id) {
                fx.dropped.extend(self.queue.remove(pos));
            } else if let Some(flag) = self.active.remove(&id) {
                fx.raise.push(flag);
            } else {
                self.reports.retain(|r| (r.data, r.index, r.attempt) != id);
                continue;
            }
            fx.abandoned.push(id);
        }
        self.in_flight -= fx.dropped.len();
        if let Assignment::Tasks(tasks) = d.assignment {
            (fx.queued, self.in_flight) = (tasks.len(), self.in_flight + tasks.len());
            fx.accepted = tasks.iter().map(key).collect();
            self.queue.extend(tasks.into_iter().map(|task| (task, us)));
        }
        (self.more, self.answered_at, self.woken) = (more, Some(now), false);
        fx
    }

    /// A worker takes the next accepted attempt, its cancel flag
    /// registered in the same step: a cancel order lands on the queue
    /// entry or on the flag, never in a gap between.
    pub(super) fn take(&mut self) -> Option<(TaskMsg, u64, Arc<AtomicBool>)> {
        let (task, us) = self.queue.pop_front()?;
        let cancel = Arc::new(AtomicBool::new(false));
        self.active.insert(key(&task), Arc::clone(&cancel));
        Some((task, us, cancel))
    }

    /// An attempt returned the outputs `report` names. Unless a cancel
    /// order took its flag (another attempt won at the master's commit
    /// point), they are entered and the report rides the next poll — worth
    /// a poll of its own only if it may close a wave (the slave is now
    /// idle) or the freed slot can be refilled.
    pub(super) fn finished(&mut self, report: TaskReport, tally: &JobMetrics) -> Effects {
        let Some(held) = self.settle((report.data, report.index, report.attempt), tally) else {
            return Effects::default();
        };
        if held {
            self.reports.push(report);
        }
        let wake = !held || self.in_flight == 0 || self.more;
        self.woken |= wake;
        Effects { enter: held, wake_poller: wake, ..Effects::default() }
    }

    /// An attempt failed. Unless it was cancelled it reports standalone,
    /// so recovery starts at once; either way the poller is woken for the
    /// slot it freed.
    pub(super) fn failed(&mut self, task: &TaskMsg, tally: &JobMetrics, cancel: bool) -> Effects {
        let Some(held) = self.settle(key(task), tally) else { return Effects::default() };
        self.woken = true;
        Effects { report_failure: held && !cancel, wake_poller: true, ..Effects::default() }
    }

    /// Free a finished attempt's slot and count it; whether it still held
    /// its flag. `None` on a halted slave, which goes silent.
    fn settle(&mut self, id: (u32, usize, u32), tally: &JobMetrics) -> Option<bool> {
        let held = self.active.remove(&id).is_some();
        (!self.halt).then(|| {
            self.tally.merge(tally);
            self.in_flight -= 1;
            held
        })
    }

    /// Whether a poll is due at `now`: when it can change something. An
    /// idle slave polls at once (it parks at the master, and its reports
    /// may close a wave); so does one with a free slot that was told more
    /// is runnable, and one a worker event woke. A busy slave told nothing
    /// is left holds only reports the master cannot act on: it waits,
    /// bounded by [`MAX_POLL_INTERVAL`], so that the empty request is its
    /// heartbeat and hears `Exit`. Only an idle slave parks at the master:
    /// a busy one's completion could sit behind its own parked request.
    pub(super) fn poll_due(&mut self, now: Instant) -> Due {
        let free = self.capacity.saturating_sub(self.in_flight);
        let heartbeat = self.answered_at.map_or(now, |at| at + MAX_POLL_INTERVAL);
        if self.halt {
            return Due::Halt;
        }
        if !(self.woken || free == self.capacity || self.more && free > 0 || now >= heartbeat) {
            return Due::Wait(heartbeat);
        }
        let park = if free == self.capacity { IDLE_PARK } else { Duration::ZERO };
        let reports = std::mem::take(&mut self.reports);
        Due::Poll { free, park, reports, tally: std::mem::take(&mut self.tally) }
    }
}
