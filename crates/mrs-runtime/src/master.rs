//! The master: task scheduling, affinity, fault tolerance.
//!
//! Transport-agnostic core of the master/slave implementation: the RPC glue
//! in [`crate::distributed`] maps `signin` / `get_task` / `task_failed`
//! calls straight onto [`Master::signin`], [`Master::poll`] and
//! [`Master::task_failed`], and the unit tests drive them — and
//! [`Master::task_done`], a report without a poll — directly.
//! Responsibilities, per §IV:
//!
//! * hand out map/reduce tasks to polling slaves, dispatching each task as
//!   soon as *its own* inputs exist (operation pipelining, Fig. 2),
//! * prefer to "assign corresponding tasks to the same processor from one
//!   iteration to the next" (task→slave affinity, keyed by task kind,
//!   function, and index),
//! * detect silent slaves by poll timeout, re-queue their running tasks,
//!   and — when intermediate data lived on the dead slave (direct data
//!   plane) — re-execute the tasks that produced it, rebuilding from
//!   lineage any input lifetime GC has reclaimed since,
//! * cap per-task retry attempts so a poisoned task fails the job instead
//!   of looping forever.
//!
//! The control plane is event-driven: a poll with nothing runnable
//! parks server-side on a dispatch condvar and is woken precisely when a
//! state transition (a completion crossing an operation barrier, a new
//! operation, a dead slave's requeue) makes work available, with
//! `Assignment::Wait` only as the long-poll timeout fallback. Completion
//! reports ride piggybacked on the next poll and wake a thread only if
//! they change what it does next (parked polls: work became runnable; the
//! driver-side `wait`/`fetch_all`: a dataset completed); the sweeper sleeps
//! on its own condvar until the earliest instant a slave could cross the
//! death timeout — no loop here discovers state by fixed-interval sleep.

use crate::data::{split_slices, DataId};
use crate::job::JobApi;
use crate::metrics::{Counter, JobMetrics};
use crate::plan::{Ds, Plan};
use crate::proto::{
    fetch_buckets, trace_op, Assignment, CancelOrder, DataPlane, Dispatch, SpeculateMode, TaskKind,
    TaskMsg, TaskReport, TraceBatch,
};
use mrs_codec::CompressMode;
use mrs_core::{Error, FuncId, Record, Result, TaskSpec};
use mrs_fs::format::{read_bucket_records, write_bucket_bytes};
use mrs_fs::Store;
use mrs_rpc::{DataServer, FrameCache, Pages, Response};
use mrs_trace::{ClockSync, GlobalEvent, JobTrace, Recorder, TraceHandle, MASTER_PID};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Identifies a signed-in slave.
pub type SlaveId = u32;

/// Master tuning knobs.
#[derive(Clone, Debug)]
pub struct MasterConfig {
    /// A slave silent for longer than this is presumed dead.
    pub slave_timeout: Duration,
    /// Maximum execution attempts per task before the job fails.
    pub max_attempts: u32,
    /// Prefer the slave that ran the corresponding task last time.
    pub use_affinity: bool,
    /// Upper bound on how long a poll may park server-side
    /// before returning `Wait`. Also clamped to `slave_timeout / 2` so a
    /// parked slave still heartbeats; must stay well below the RPC
    /// client's I/O timeout (10s) or held requests would look like hangs.
    pub long_poll_timeout: Duration,
    /// Shuffle payload compression policy for the master's own outputs
    /// (source splits). [`crate::LocalCluster`] propagates the same
    /// setting to its slaves.
    pub compress: CompressMode,
    /// Speculative execution policy (`--mrs-speculate`): when a task wave
    /// is nearly drained and a poller has idle slots, a running task whose
    /// elapsed time exceeds the configured multiple of the operation's
    /// median completed-task runtime (and a fixed launch floor past that
    /// median) gets a backup attempt on a different slave; first completion
    /// wins and the loser is cancelled.
    pub speculate: SpeculateMode,
    /// Record task-attempt trace events (on by default — the recorder is
    /// bounded and lock-cheap, and `--mrs-no-trace` exists to prove it).
    /// Export is separately opt-in via [`Master::take_trace`] /
    /// `--mrs-trace <path>`. [`crate::LocalCluster`] propagates the
    /// setting to its slaves.
    pub trace: bool,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            slave_timeout: Duration::from_secs(2),
            max_attempts: 4,
            use_affinity: true,
            long_poll_timeout: Duration::from_secs(1),
            compress: CompressMode::default(),
            speculate: SpeculateMode::default(),
            trace: true,
        }
    }
}

/// One live execution attempt of a task. Speculative execution means a
/// slot can hold several attempts racing on different slaves; the first
/// completion commits and the rest are cancelled.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Attempt {
    /// Unique per-master id (1-based, never reused): the task message
    /// carries it out and the completion report echoes it back, so a report
    /// from a cancelled or superseded attempt — or from a life of the task
    /// before its dataset was reclaimed and rebuilt — is recognizably stale.
    id: u32,
    slave: SlaveId,
    started: Instant,
    /// Dispatched as a straggler backup rather than a primary attempt.
    speculative: bool,
}

/// The master's own state of one task of the plan. The plan knows whether
/// the task is committed; a task with no live attempt and no committed
/// output is pending (it may or may not be dispatchable yet).
#[derive(Debug, Default)]
struct Slot {
    /// The live attempts: more than one while a speculative backup races
    /// the original, none once the task is committed.
    running: Vec<Attempt>,
    /// Charged execution attempts, compared against `max_attempts` (fetch
    /// failures are forgiven and decrement this).
    attempts: u32,
    /// The slave holding the committed output on the direct data plane
    /// (None when outputs live on the shared filesystem).
    owner: Option<SlaveId>,
    /// Wall-clock runtime (µs) of the committed attempt: the sample whose
    /// median over the op sets the straggler cutoff for speculative
    /// backups.
    runtime_us: Option<u64>,
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

/// A backup is never launched before its original has run this long past
/// the op's median: a backup pays one dispatch, one input fetch and one
/// run of its own, so below that it cannot win the race it was started
/// for — it only occupies the slot the next real task needs.
const LAUNCH_FLOOR: Duration = Duration::from_millis(10);

/// How long a task may run before it counts as a straggler, given the
/// median runtime of its op's committed attempts.
fn straggler_cutoff(median: Duration, threshold: f64) -> Duration {
    median.mul_f64(threshold).max(median + LAUNCH_FLOOR)
}

/// Median of a (small, unsorted) runtime sample; `None` when empty.
fn median_micros(mut samples: Vec<u64>) -> Option<u64> {
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied()
}

#[derive(Clone)]
struct SlaveInfo {
    authority: String,
    alive: bool,
    last_seen: Instant,
    /// Capacity advertised at signin: the maximum number of assignments
    /// the slave holds at once (compute workers plus prefetch buffer).
    slots: usize,
}

struct MState {
    /// The task graph: datasets, readiness, the barrier, lifetime GC.
    /// Everything below is policy over it.
    plan: Plan<String, Slot>,
    /// Per-slave output-table purge orders not yet delivered; drained onto
    /// the next [`Master::poll`] answer for that slave — the same answer as
    /// any grant to it, so a rebuilt task's output never meets the purge
    /// order of its previous life.
    pending_purge: Vec<Vec<String>>,
    /// Per-slave attempt-cancellation orders not yet delivered: issued at
    /// the commit point for every losing attempt of a won race, drained
    /// like `pending_purge`.
    pending_cancel: Vec<Vec<CancelOrder>>,
    slaves: Vec<SlaveInfo>,
    /// (kind, func, index) → slave that last completed that task shape.
    /// Keying by kind means a fused `ReduceMap` op carries its own claims
    /// from one iteration to the next, exactly like the map/reduce pair it
    /// replaced.
    affinity: HashMap<Claim, SlaveId>,
    /// The last attempt id handed out. One counter for every task, never
    /// reset, so ids are unique per master.
    last_attempt: u32,
    error: Option<String>,
    finished: bool,
    /// Polls currently parked on `dispatch_cv`. Wakes are
    /// recorded (and broadcast) only while this is non-zero, so the
    /// `wakeups` metric counts precise wakes, not every state change.
    parked: usize,
    /// Times the completion condvar was notified; tests read it to show
    /// that a report which completes nothing wakes no driver.
    sleeper_wakes: u64,
    metrics: JobMetrics,
}

/// Master-side trace state: its own recorder (dispatch/report/cancel
/// instants, one shared handle with per-slave lanes) plus the ingest
/// side that maps slave-shipped batches onto the master clock.
struct MasterTrace {
    rec: Recorder,
    handle: TraceHandle,
    ingest: Mutex<TraceIngest>,
}

#[derive(Default)]
struct TraceIngest {
    /// Per-slave clock-offset estimators, fed by batch RTT samples.
    sync: HashMap<SlaveId, ClockSync>,
    /// Slave events already mapped onto the master clock.
    remote: Vec<GlobalEvent>,
    /// Ring-overflow losses reported by slaves.
    dropped: u64,
}

impl MasterTrace {
    fn new() -> MasterTrace {
        let rec = Recorder::new();
        let handle = rec.handle(0);
        MasterTrace { rec, handle, ingest: Mutex::new(TraceIngest::default()) }
    }
}

struct MasterShared {
    cfg: MasterConfig,
    state: Mutex<MState>,
    /// Completion condvar: driver `wait`/`fetch_all`.
    cv: Condvar,
    /// Dispatch condvar: parked polls.
    dispatch_cv: Condvar,
    /// The sweeper's condvar: sign-in and the end of the job.
    sweep_cv: Condvar,
    plane: DataPlane,
    /// Master-local frame cache for source splits (direct plane): each
    /// split is encoded once and served zero-copy to every reader.
    source_frames: Arc<FrameCache>,
    /// Serves `source_frames` to slaves (direct plane) and the live
    /// `/status` + `/metrics` pages (both planes). Created right after
    /// the shared state exists — the pages closure needs a weak
    /// back-reference — so it is always set by the time `new` returns.
    source_server: OnceLock<DataServer>,
    /// Trace recording (None when `cfg.trace` is off).
    trace: Option<MasterTrace>,
}

/// The master. Clone-cheap handle; all state is shared.
#[derive(Clone)]
pub struct Master {
    shared: Arc<MasterShared>,
}

impl Master {
    /// Create a master for the given data plane.
    pub fn new(cfg: MasterConfig, plane: DataPlane) -> Result<Master> {
        let source_frames = Arc::new(FrameCache::new());
        let trace = cfg.trace.then(MasterTrace::new);
        let master = Master {
            shared: Arc::new(MasterShared {
                cfg,
                state: Mutex::new(MState {
                    plan: Plan::new(),
                    pending_purge: Vec::new(),
                    pending_cancel: Vec::new(),
                    slaves: Vec::new(),
                    affinity: HashMap::new(),
                    last_attempt: 0,
                    error: None,
                    finished: false,
                    parked: 0,
                    sleeper_wakes: 0,
                    metrics: JobMetrics::default(),
                }),
                cv: Condvar::new(),
                dispatch_cv: Condvar::new(),
                sweep_cv: Condvar::new(),
                plane,
                source_frames,
                source_server: OnceLock::new(),
                trace,
            }),
        };
        // The server outlives neither the master (Weak) nor a request in
        // flight (upgrade); it serves source buckets on the direct plane
        // and the live introspection pages on both planes.
        let weak = Arc::downgrade(&master.shared);
        let pages: Pages = Arc::new(move |page: &str| {
            let shared = weak.upgrade()?;
            let m = Master { shared };
            let (text, content_type) = match page {
                "status" => (m.status_page(), "text/plain; charset=utf-8"),
                "metrics" => (m.metrics_page(), "text/plain; version=0.0.4"),
                _ => return None,
            };
            Some(Response::ok(content_type, Arc::from(text.into_bytes())))
        });
        let server = DataServer::serve_with_pages(0, master.shared.source_frames.provider(), pages)
            .map_err(Error::Io)?;
        let _ = master.shared.source_server.set(server);
        Ok(master)
    }

    /// `host:port` serving this master's `/status` and `/metrics` pages
    /// (and its source buckets on the direct plane).
    pub fn http_authority(&self) -> String {
        self.shared.source_server.get().expect("server started at construction").authority()
    }

    /// Human-readable live state: job phase, per-slave rows, task progress
    /// of every undiscarded dataset. Served as `/status` by the master's HTTP
    /// server; numbers are copied under the state lock, text formatted after.
    pub fn status_page(&self) -> String {
        let st = self.shared.state.lock();
        let phase = match (&st.error, st.finished) {
            (Some(e), _) => format!("error: {e}"),
            (None, true) => "finished".to_owned(),
            (None, false) => "running".to_owned(),
        };
        let slaves = st.slaves.clone();
        // (id, op name or `None` for a source, tasks or splits, done, running)
        let rows: Vec<(usize, Option<&str>, usize, usize, usize)> = st
            .plan
            .datasets()
            .iter()
            .enumerate()
            .filter_map(|(d, ds)| match ds {
                Ds::Discarded(_) => None,
                Ds::Loading => Some((d, None, 0, 0, 0)),
                Ds::Source(urls) => Some((d, None, urls.len(), 0, 0)),
                Ds::Op(op) => {
                    let (tasks, name) = (op.tasks(), trace_op(&op.spec).as_str());
                    let running = tasks.iter().filter(|t| !t.x.running.is_empty()).count();
                    Some((d, Some(name), tasks.len(), op.done(), running))
                }
            })
            .collect();
        let discarded = st.plan.datasets().len() - rows.len();
        let (executed, retried) = (st.metrics.tasks_executed(), st.metrics.tasks_retried());
        drop(st);

        let mut out = String::with_capacity(1024);
        out.push_str(&format!("mrs master: {phase}\n"));
        out.push_str(&format!(
            "slaves: {} signed in, {} alive\n",
            slaves.len(),
            slaves.iter().filter(|s| s.alive).count()
        ));
        for (id, s) in slaves.iter().enumerate() {
            out.push_str(&format!(
                "  slave {id}: {} {} slots={} last_seen={}ms ago\n",
                s.authority,
                if s.alive { "alive" } else { "dead" },
                s.slots,
                s.last_seen.elapsed().as_millis()
            ));
        }
        out.push_str(&format!("datasets: {} live, {discarded} discarded\n", rows.len()));
        for (d, op, total, done, running) in rows {
            out.push_str(&match op {
                None => format!("  data {d}: source, {total} split(s)\n"),
                Some(op) => format!("  data {d}: {op} {done}/{total} done, {running} running\n"),
            });
        }
        out.push_str(&format!("tasks executed: {executed}, retries: {retried}\n"));
        out
    }

    /// Prometheus text exposition over the job metrics — the whole
    /// cluster's, slave counts included — and a few master gauges. Served
    /// as `/metrics` by the master's HTTP server, formatted outside the lock.
    pub fn metrics_page(&self) -> String {
        let st = self.shared.state.lock();
        let (metrics, signed_in) = (st.metrics, st.slaves.len());
        let alive = st.slaves.iter().filter(|s| s.alive).count();
        drop(st);
        let mut out = metrics.to_prometheus();
        out.push_str(&format!("mrs_slaves_alive {alive}\n"));
        out.push_str(&format!("mrs_slaves_signed_in {signed_in}\n"));
        if let Some(t) = &self.shared.trace {
            out.push_str(&format!("mrs_trace_dropped_events {}\n", t.rec.dropped_events()));
        }
        out
    }

    /// Record a master-side instant on the lane of the slave it concerns.
    fn trace_instant(&self, slave: SlaveId, name: mrs_trace::Name, tag: mrs_trace::Tag) {
        if let Some(t) = &self.shared.trace {
            t.handle.instant_on(slave, name, tag);
        }
    }

    /// Fold a slave's piggybacked trace batch into the job timeline,
    /// mapping its timestamps onto the master clock via the batch's RTT
    /// sample. No-op when tracing is off or the batch is empty.
    pub fn ingest_trace(&self, slave: SlaveId, batch: &TraceBatch) {
        let Some(t) = &self.shared.trace else { return };
        if batch.is_empty() {
            return;
        }
        let local_now = t.rec.now_us();
        let mut ing = t.ingest.lock();
        let TraceIngest { sync, remote, dropped } = &mut *ing;
        let cs = sync.entry(slave).or_default();
        cs.observe(batch.sent_at_us, batch.rtt_us, local_now);
        remote.extend(batch.events.iter().map(|e| GlobalEvent {
            pid: slave + 1,
            event: mrs_trace::Event { at_us: cs.map_monotone(e.at_us), ..*e },
        }));
        *dropped += batch.dropped;
    }

    /// Take the job timeline assembled so far: master instants plus every
    /// ingested slave event, time-sorted on the master clock. Drains the
    /// recorder — a second call returns only what happened since. `None`
    /// when tracing is off.
    pub fn take_trace(&self) -> Option<JobTrace> {
        let t = self.shared.trace.as_ref()?;
        let (master_events, master_dropped) = t.rec.drain();
        let mut events: Vec<GlobalEvent> =
            master_events.into_iter().map(|event| GlobalEvent { pid: MASTER_PID, event }).collect();
        let mut ing = t.ingest.lock();
        events.append(&mut ing.remote);
        let dropped = master_dropped + std::mem::take(&mut ing.dropped);
        drop(ing);
        events.sort_by_key(|e| e.event.at_us);
        Some(JobTrace { events, dropped })
    }

    /// The shared store, if the data plane is a shared filesystem.
    fn shared_store(&self) -> Option<Arc<dyn Store>> {
        match &self.shared.plane {
            DataPlane::SharedFs(s) => Some(Arc::clone(s)),
            DataPlane::Direct => None,
        }
    }

    /// Register a slave advertising `slots` task slots; returns its id.
    /// `slots` is clamped to at least 1.
    pub fn signin(&self, authority: &str, slots: usize) -> SlaveId {
        let mut st = self.shared.state.lock();
        st.slaves.push(SlaveInfo {
            authority: authority.to_owned(),
            alive: true,
            last_seen: Instant::now(),
            slots: slots.max(1),
        });
        st.pending_purge.push(Vec::new());
        st.pending_cancel.push(Vec::new());
        // The sweeper's next deadline may now be this slave's.
        self.shared.sweep_cv.notify_all();
        st.slaves.len() as SlaveId - 1
    }

    /// Number of slaves currently considered alive.
    pub fn live_slaves(&self) -> usize {
        self.shared.state.lock().slaves.iter().filter(|s| s.alive).count()
    }

    /// Metrics snapshot: the master's own counts and every tally its
    /// slaves' polls delivered.
    pub fn metrics(&self) -> JobMetrics {
        self.shared.state.lock().metrics
    }

    /// Mark the job finished: polling slaves are told to exit.
    pub fn finish(&self) {
        let mut st = self.shared.state.lock();
        st.finished = true;
        Self::wake_dispatch(&mut st, &self.shared.dispatch_cv);
        self.wake_sleepers(&mut st);
    }

    /// The configuration this master was built with.
    pub fn config(&self) -> &MasterConfig {
        &self.shared.cfg
    }

    fn touch(st: &mut MState, slave: SlaveId) {
        if let Some(info) = st.slaves.get_mut(slave as usize) {
            info.last_seen = Instant::now();
            info.alive = true;
        }
    }

    /// Wake any parked polls: a state transition has made work runnable,
    /// queued a cancel order or ended the job (a report that does none of
    /// these wakes nobody). Recorded only when someone is actually parked,
    /// so `wakeups` measures precise wakes.
    fn wake_dispatch(st: &mut MState, dispatch_cv: &Condvar) {
        if st.parked > 0 {
            st.metrics.add(Counter::Wakeups, 1);
            dispatch_cv.notify_all();
        }
    }

    /// Wake the drivers in `wait`/`fetch_all` — a dataset completed, a slave
    /// was declared dead, the job is over — and, only then, the sweeper.
    fn wake_sleepers(&self, st: &mut MState) {
        st.sleeper_wakes += 1;
        self.shared.cv.notify_all();
        if st.finished || st.error.is_some() {
            self.shared.sweep_cv.notify_all();
        }
    }

    /// A slave polls. In one critical section: merge its counter tally
    /// `counts` (what its fetches and tasks counted since its last poll —
    /// never later than the reports those tasks make), apply the
    /// piggybacked completion `reports`, grant up to `free_slots` tasks
    /// (parking up to `park` when nothing is runnable, see
    /// [`Self::assign`]) and drain the purge and cancel orders queued for
    /// this slave. The `trace` batch is ingested first so its events land
    /// on the timeline before anything this poll itself dispatches. The
    /// boolean beside the dispatch is the hint "runnable work was left
    /// ungranted for you": a slot this slave frees can be refilled, so its
    /// next completion is worth a poll of its own; `false` (always, on
    /// `Wait`) lets it hold its reports until it goes idle.
    pub fn poll(
        &self,
        slave: SlaveId,
        free_slots: usize,
        park: Duration,
        reports: &[TaskReport],
        counts: &JobMetrics,
        trace: &TraceBatch,
    ) -> (Dispatch, bool) {
        self.ingest_trace(slave, trace);
        let mut st = self.shared.state.lock();
        st.metrics.merge(counts);
        let (assignment, more) = self.assign(&mut st, slave, free_slots, park, reports);
        let at = slave as usize;
        let dispatch = Dispatch {
            assignment,
            purge: st.pending_purge.get_mut(at).map(std::mem::take).unwrap_or_default(),
            eager: Vec::new(),
            cancel: st.pending_cancel.get_mut(at).map(std::mem::take).unwrap_or_default(),
        };
        (dispatch, more)
    }

    /// [`Master::poll`] without parking, reports or order delivery: just
    /// the grant. For callers that drive the scheduler in process (unit
    /// tests, the dispatch microbenchmark); queued orders stay queued for
    /// the slave's next real poll.
    pub fn get_tasks(&self, slave: SlaveId, free_slots: usize) -> Assignment {
        self.assign(&mut self.shared.state.lock(), slave, free_slots, Duration::ZERO, &[]).0
    }

    /// The grant half of a poll, under the state lock. First applies the
    /// piggybacked completion `reports` (applied *before* the dispatch
    /// budget is computed, so the slots they free are grantable in this
    /// same round trip). Then grants up to
    /// `min(free_slots, capacity − in_flight)` tasks, where `capacity` is
    /// the slot count the slave advertised at signin — filling an N-slot
    /// slave costs one poll, not N. With nothing runnable and a non-zero
    /// `park`, the request parks on the dispatch condvar and is woken
    /// precisely when a state transition makes work available. `Wait` is
    /// returned only when the (clamped) park deadline expires or a cancel
    /// order is due; beside the assignment, the hint of [`Self::poll`].
    fn assign(
        &self,
        st: &mut parking_lot::MutexGuard<'_, MState>,
        slave: SlaveId,
        free_slots: usize,
        park: Duration,
        reports: &[TaskReport],
    ) -> (Assignment, bool) {
        Self::touch(st, slave);
        // One wake for all of them, and only if one of them calls for it.
        let mut wake = false;
        for r in reports {
            wake |= self.apply_done_locked(st, slave, r.data, r.index, r.attempt, r.urls.clone());
        }
        if wake {
            Self::wake_dispatch(st, &self.shared.dispatch_cv);
        }
        st.metrics.add(Counter::PiggybackedReports, reports.len() as u64);
        // The clamp to `slave_timeout / 2` keeps a parked slave heartbeating
        // at least twice per death timeout.
        let park =
            park.min(self.shared.cfg.long_poll_timeout).min(self.shared.cfg.slave_timeout / 2);
        let deadline = Instant::now() + park;
        let mut parked = false;
        loop {
            if st.finished || st.error.is_some() {
                if parked {
                    st.parked -= 1;
                }
                return (Assignment::Exit, false);
            }
            if let Some((granted, more)) = self.dispatch_locked(st, slave, free_slots) {
                if parked {
                    st.parked -= 1;
                }
                return (Assignment::Tasks(granted), more);
            }
            // An undelivered cancel order must not sit behind the park: its
            // whole value is freeing the doomed slot *now* — so answer
            // `Wait` at once and let `poll` attach it.
            if st.pending_cancel.get(slave as usize).is_some_and(|v| !v.is_empty()) {
                if parked {
                    st.parked -= 1;
                }
                return (Assignment::Wait, false);
            }
            if park.is_zero() || Instant::now() >= deadline {
                if parked {
                    st.parked -= 1;
                    st.metrics.add(Counter::LongpollTimeouts, 1);
                }
                return (Assignment::Wait, false);
            }
            if !parked {
                parked = true;
                st.parked += 1;
                st.metrics.add(Counter::LongpollParks, 1);
            }
            // A running task becomes backup-eligible purely by time passing
            // — no state transition fires, so no wake would. Cap the sleep
            // at the earliest instant a task could cross the straggler
            // cutoff for this poller; the retried dispatch then grants the
            // backup within one wake of eligibility.
            let wake = match self.next_speculation_deadline(st, slave) {
                Some(spec) => deadline.min(spec),
                None => deadline,
            };
            self.shared.dispatch_cv.wait_until(st, wake);
            // Parked is not silent: the request being held here is proof of
            // life, so refresh `last_seen` on every wake.
            Self::touch(st, slave);
        }
    }

    /// Try to grant tasks under the lock; `None` when nothing is runnable
    /// for this slave right now (the park/`Wait` case). Beside the grant,
    /// whether a task this slave would be given is still runnable after it.
    fn dispatch_locked(
        &self,
        st: &mut MState,
        slave: SlaveId,
        free_slots: usize,
    ) -> Option<(Vec<TaskMsg>, bool)> {
        let capacity = st.slaves.get(slave as usize).map(|s| s.slots)?;

        // In-flight counts are derived from task states on every poll, not
        // kept as counters: a sweep's requeue or a duplicate/late report can
        // therefore never leave the accounting stale. Every racing attempt
        // occupies a slot on its slave, so attempts are counted, not slots.
        let mut in_flight = vec![0usize; st.slaves.len()];
        for (_, op) in st.plan.live_ops() {
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
            let (data, index, stolen, speculative) = match Self::pick_task(st, slave, &in_flight) {
                Some((d, i, s)) => (d, i, s, false),
                None => match self.pick_backup(st, slave, Instant::now()) {
                    Some((d, i)) => (d, i, false, true),
                    None => break,
                },
            };
            let spec = st.plan.at(data).expect("candidates only contain ops").spec;
            let inputs = st.plan.input(data, index);
            if speculative {
                st.metrics.add(Counter::SpeculativeLaunches, 1);
            } else {
                if self.shared.cfg.use_affinity {
                    if let Some(&pref) = st.affinity.get(&claim(&spec, index)) {
                        let hit = pref == slave;
                        let c = if hit { Counter::AffinityHits } else { Counter::AffinityMisses };
                        st.metrics.add(c, 1);
                    }
                }
                if stolen {
                    st.metrics.add(Counter::TasksStolen, 1);
                }
            }
            st.last_attempt += 1;
            let attempt =
                Attempt { id: st.last_attempt, slave, started: Instant::now(), speculative };
            let slot = st.plan.x_mut(data, index).expect("candidates only contain ops");
            slot.attempts += 1;
            slot.running.push(attempt);
            in_flight[slave as usize] += 1;
            let tag = mrs_trace::Tag::task(trace_op(&spec), data.0, index, attempt.id);
            self.trace_instant(slave, mrs_trace::Name::Dispatch, tag);
            if speculative {
                self.trace_instant(slave, mrs_trace::Name::Speculate, tag);
            }
            granted.push(TaskMsg::new(data.0, index, &spec, attempt.id, inputs));
        }
        if granted.is_empty() {
            return None;
        }
        let total: usize = in_flight.iter().sum();
        st.metrics.add(Counter::DispatchPolls, 1);
        st.metrics.add(Counter::DispatchedTasks, granted.len() as u64);
        st.metrics.max(Counter::PeakInFlight, total as u64);
        // One more pick, with this grant counted into the loads: work left
        // for an equally idle claimant is not work left for this slave.
        let more = Self::pick_task(st, slave, &in_flight).is_some();
        Some((granted, more))
    }

    /// Choose the next task for `slave`. Priority order: a task whose
    /// corresponding task ran on this slave last iteration (affinity), then
    /// a task nobody alive has a claim to, and only then — when every
    /// remaining candidate belongs to a live owner — an occupancy-driven
    /// steal from the busiest owner, gated on the poller being *strictly*
    /// less loaded (fractional occupancy, so 2-busy-of-4-slots loses to
    /// 0-busy-of-1-slot). An equally-idle owner keeps its claim: it will
    /// take the task on its own next poll, preserving affinity for free.
    /// Returns `(data, index, was_steal)`.
    fn pick_task(
        st: &MState,
        slave: SlaveId,
        in_flight: &[usize],
    ) -> Option<(DataId, usize, bool)> {
        // Collect dispatchable tasks: pending, with satisfied inputs.
        let mut candidates: Vec<(DataId, usize)> = Vec::new();
        st.plan.runnable().for_each(|(d, i, op)| {
            if op.tasks()[i].x.running.is_empty() {
                candidates.push((d, i));
            }
        });
        let &first = candidates.first()?;

        let owner_of = |d: DataId, i: usize| -> Option<SlaveId> {
            st.affinity.get(&claim(&st.plan.at(d)?.spec, i)).copied()
        };
        let live = |s: SlaveId| st.slaves.get(s as usize).map(|x| x.alive).unwrap_or(false);
        // Fractional load (busy, slots) for cross-multiplied comparison.
        let load = |s: SlaveId| -> (usize, usize) {
            let slots = st.slaves.get(s as usize).map(|x| x.slots.max(1)).unwrap_or(1);
            (in_flight.get(s as usize).copied().unwrap_or(0), slots)
        };

        if !st.affinity.is_empty() {
            // 1. A task this slave has an affinity claim to.
            for &(d, i) in &candidates {
                if owner_of(d, i) == Some(slave) {
                    return Some((d, i, false));
                }
            }
            // 2. A task with no claim, or whose claimant is dead.
            for &(d, i) in &candidates {
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
            for &(d, i) in &candidates {
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

    /// Straggler candidates for speculation: running single-attempt tasks
    /// of ops past the wave threshold (≥ 75% complete), each paired with
    /// its cutoff instant — `started +` [`straggler_cutoff`] of the median
    /// completed runtime. Empty when speculation is off or no runtime
    /// sample exists yet. One backup per task at most: racing more than
    /// two attempts buys little and burns a slot.
    fn straggler_candidates(&self, st: &MState) -> Vec<(DataId, usize, Attempt, Instant)> {
        let SpeculateMode::On { threshold } = self.shared.cfg.speculate else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (d, op) in st.plan.live_ops() {
            let tasks = op.tasks();
            if op.done() == 0 || op.done() * 4 < tasks.len() * 3 {
                continue;
            }
            let runtimes = tasks.iter().filter_map(|t| t.x.runtime_us).collect();
            let Some(median) = median_micros(runtimes) else { continue };
            let cutoff = straggler_cutoff(Duration::from_micros(median), threshold);
            for (i, task) in tasks.iter().enumerate() {
                let [a] = task.x.running.as_slice() else { continue };
                // A producer re-execution (dead slave on the direct plane)
                // can unready the input of a still-running consumer; a
                // backup could not fetch, so skip it.
                if st.plan.ready(op, i) {
                    out.push((d, i, *a, a.started + cutoff));
                }
            }
        }
        out
    }

    /// Choose a straggling task to back up on `slave`: the most overdue
    /// single-attempt task running on a *different* slave.
    fn pick_backup(&self, st: &MState, slave: SlaveId, now: Instant) -> Option<(DataId, usize)> {
        self.straggler_candidates(st)
            .into_iter()
            .filter(|(_, _, a, deadline)| a.slave != slave && now >= *deadline)
            .min_by_key(|(_, _, _, deadline)| *deadline)
            .map(|(d, i, _, _)| (d, i))
    }

    /// Earliest future instant at which a running task becomes eligible
    /// for a backup on `slave`. Bounds the dispatch park so an idle slave
    /// wakes exactly when speculation could grant it work. Instants
    /// already in the past are excluded: if an overdue task were grantable
    /// now, dispatch would have granted it — re-waking immediately for one
    /// it *cannot* take (e.g. no budget) would busy-loop the poll.
    fn next_speculation_deadline(&self, st: &MState, slave: SlaveId) -> Option<Instant> {
        let now = Instant::now();
        self.straggler_candidates(st)
            .into_iter()
            .filter(|(_, _, a, deadline)| a.slave != slave && *deadline > now)
            .map(|(_, _, _, deadline)| deadline)
            .min()
    }

    /// Report a completed task without a poll: what a report on
    /// [`Self::poll`] does, for callers that drive the scheduler in process
    /// (unit tests, the dispatch microbenchmark). `urls` are the output
    /// bucket URLs (one per partition for map tasks, exactly one for
    /// reduce tasks); `attempt` echoes the id carried by the task message.
    pub fn task_done(
        &self,
        slave: SlaveId,
        data: u32,
        index: usize,
        attempt: u32,
        urls: Vec<String>,
    ) {
        let mut st = self.shared.state.lock();
        Self::touch(&mut st, slave);
        if self.apply_done_locked(&mut st, slave, data, index, attempt, urls) {
            Self::wake_dispatch(&mut st, &self.shared.dispatch_cv);
        }
    }

    /// Record one completed task under the lock. Wakes the waiting drivers
    /// if it completes the op, and returns whether the caller must wake the
    /// parked polls: the op completed, a cancel order was queued, a map
    /// over this reduce output or a backup got nearer.
    fn apply_done_locked(
        &self,
        st: &mut MState,
        slave: SlaveId,
        data: u32,
        index: usize,
        attempt: u32,
        urls: Vec<String>,
    ) -> bool {
        let id = DataId(data);
        // The commit point. The report must name an attempt that is live
        // on the reporting slave. Any other report — a duplicate, one from
        // a superseded attempt (cancelled, swept, or beaten to this very
        // point), one for a slot a fetch failure sent back to pending — is
        // stale: its URLs are never published and its completion is never
        // counted.
        let Some(slot) = st.plan.x_mut(id, index) else { return false };
        let Some(won) = slot.running.iter().position(|a| a.slave == slave && a.id == attempt)
        else {
            return false;
        };
        // The racing attempts the winner beat.
        let mut losers = std::mem::take(&mut slot.running);
        let winner = losers.remove(won);
        let now = Instant::now();
        slot.runtime_us = Some((now - winner.started).as_micros() as u64);
        slot.owner = matches!(self.shared.plane, DataPlane::Direct).then_some(slave);
        let spec = st.plan.at(id).expect("the slot's op").spec;
        let done = st.plan.commit(id, index, urls);
        // Losers get cancellation orders piggybacked on their slave's next
        // poll; the winner's margin over the slowest loser is the straggler
        // time a speculative win saved.
        let op = trace_op(&spec);
        let slowest_loser = losers.iter().map(|l| now - l.started).max().unwrap_or(Duration::ZERO);
        let mut wake = !losers.is_empty();
        for l in losers {
            if let Some(q) = st.pending_cancel.get_mut(l.slave as usize) {
                q.push(CancelOrder { data, index, attempt: l.id });
            }
            self.trace_instant(
                l.slave,
                mrs_trace::Name::Cancel,
                mrs_trace::Tag::task(op, data, index, l.id),
            );
            st.metrics.add(Counter::CancelledTasks, 1);
            if l.speculative {
                st.metrics.add(Counter::SpeculativeLosses, 1);
            }
        }
        if winner.speculative {
            st.metrics.add(Counter::SpeculativeWins, 1);
            let saved = slowest_loser.saturating_sub(now - winner.started);
            st.metrics.add_time(Counter::StragglerTimeSaved, saved);
        }
        self.trace_instant(
            slave,
            mrs_trace::Name::Report,
            mrs_trace::Tag::task(op, data, index, attempt),
        );
        st.metrics.add(Counter::TasksExecuted, 1);
        if matches!(spec, TaskSpec::ReduceMap { .. }) {
            // Time and shuffle bytes happened slave-side; the master
            // only observes that a fused task completed.
            st.metrics.add(Counter::ReducemapTasks, 1);
        }
        if self.shared.cfg.use_affinity {
            st.affinity.insert(claim(&spec, index), slave);
        }
        // A map task reads one split of a reduce output, so it is runnable
        // with that split, ahead of the op's barrier; and a report that
        // leaves a straggler candidate behind moves the instant a parked
        // poll must wake to back it up.
        wake |= st.parked > 0
            && (spec.parts().is_none()
                && st.plan.live_ops().any(|(_, op)| op.input == id && !op.spec.gathers())
                || !done.completed && !self.straggler_candidates(st).is_empty());
        if done.completed {
            // The op's output is now fully materialized, and the op no
            // longer needs its input.
            st.metrics.dataset_live(true);
            if let Some(spent) = done.freed {
                self.reclaimed_locked(st, spent, false, true);
            }
            self.wake_sleepers(st);
        }
        wake || done.completed
    }

    /// The plan reclaimed dataset `data`: drop its storage everywhere.
    /// Master-held source frames are removed immediately; the buckets in
    /// slaves' output tables are purged via orders piggybacked on each
    /// slave's next poll (direct plane only — on a shared filesystem slaves
    /// hold no outputs).
    fn reclaimed_locked(&self, st: &mut MState, data: DataId, was_source: bool, by_gc: bool) {
        st.metrics.dataset_live(false);
        st.metrics.add(Counter::DatasetsFreed, by_gc as u64);
        if was_source {
            self.shared.source_frames.remove_prefix(&format!("src{}/", data.0));
        } else if matches!(self.shared.plane, DataPlane::Direct) {
            for (s, orders) in st.pending_purge.iter_mut().enumerate() {
                orders.push(format!("s{s}/d{}/", data.0));
            }
        }
    }

    /// Send a committed task whose output was lost back to pending; the
    /// plan rebuilds whatever it reads that lifetime GC reclaimed. Fails
    /// the job only when that lineage ends at a discarded source. An op
    /// that was complete stops counting as live until it is again.
    fn reopen_locked(st: &mut MState, data: DataId, index: usize) {
        match st.plan.reopen(data, index) {
            Ok(true) => st.metrics.dataset_live(false),
            Ok(false) => {}
            Err(e) => {
                st.error.get_or_insert(e.to_string());
            }
        }
    }

    /// A slave reports a failed task attempt.
    ///
    /// `failed_input` carries the input URL the slave could not fetch, if
    /// the failure was a fetch failure. Like Hadoop's "too many fetch
    /// failures" mechanism, a fetch failure indicts the *producer* of that
    /// URL: the task that wrote it is re-executed, and the reporting task
    /// is re-queued without being charged an attempt (its inputs were
    /// gone; it never really ran).
    pub fn task_failed(
        &self,
        slave: SlaveId,
        data: u32,
        index: usize,
        attempt: u32,
        msg: &str,
        failed_input: Option<&str>,
    ) {
        let mut st = self.shared.state.lock();
        Self::touch(&mut st, slave);
        // A failure naming no live attempt of this slave is stale (the
        // attempt was cancelled or superseded): the slot moved on, nothing
        // to re-queue or charge.
        let Some(slot) = st.plan.x_mut(DataId(data), index) else { return };
        let Some(pos) = slot.running.iter().position(|a| a.slave == slave && a.id == attempt)
        else {
            return;
        };
        // A failed backup while the original still runs is just a lost
        // speculation, not a task failure.
        let speculative_lost = slot.running.remove(pos).speculative && !slot.running.is_empty();
        if failed_input.is_some() {
            // Fetch failure: forgive the attempt.
            slot.attempts = slot.attempts.saturating_sub(1);
        }
        // With no attempt left the task is pending again, unless it has
        // used up its attempts.
        let attempts = slot.attempts;
        let exhausted = slot.running.is_empty() && attempts >= self.shared.cfg.max_attempts;
        if exhausted && failed_input.is_none() {
            st.error = Some(format!(
                "task (data {data}, index {index}) failed {attempts} times; last error: {msg}"
            ));
        }
        st.metrics.add(Counter::SpeculativeLosses, speculative_lost as u64);
        st.metrics.add(Counter::TasksRetried, 1);
        // Re-execute the task that produced the unfetchable URL.
        let producer = failed_input.and_then(|url| {
            let holds = |urls: &[String]| urls.iter().any(|u| u == url);
            st.plan.tasks_mut().find(|(_, _, t)| t.out().is_some_and(holds)).map(|(d, i, _)| (d, i))
        });
        if let Some((producer, task)) = producer {
            Self::reopen_locked(&mut st, producer, task);
        }
        Self::wake_dispatch(&mut st, &self.shared.dispatch_cv);
        if st.error.is_some() {
            self.wake_sleepers(&mut st);
        }
    }

    /// Sweep for dead slaves: re-queue their running tasks and (on the
    /// direct data plane) re-execute tasks whose completed outputs died
    /// with them. Call periodically.
    pub fn sweep(&self) {
        let timeout = self.shared.cfg.slave_timeout;
        let direct = matches!(self.shared.plane, DataPlane::Direct);
        let mut st = self.shared.state.lock();
        let now = Instant::now();
        let mut newly_dead: Vec<SlaveId> = Vec::new();
        for (id, info) in st.slaves.iter_mut().enumerate() {
            if info.alive && now.duration_since(info.last_seen) > timeout {
                info.alive = false;
                newly_dead.push(id as SlaveId);
            }
        }
        if newly_dead.is_empty() {
            return;
        }
        let mut requeued = 0u64;
        let mut speculative_lost = 0u64;
        let mut lost: Vec<(DataId, usize)> = Vec::new();
        for (d, i, task) in st.plan.tasks_mut() {
            let had_any = !task.x.running.is_empty();
            task.x.running.retain(|a| {
                let dead = newly_dead.contains(&a.slave);
                if dead && a.speculative {
                    speculative_lost += 1;
                }
                !dead
            });
            // Re-queue only when every racing attempt died; a surviving
            // attempt (original or backup) still owns the slot and will
            // report in its own time.
            if had_any && task.x.running.is_empty() {
                requeued += 1;
            } else if direct
                && task.out().is_some()
                && task.x.owner.is_some_and(|s| newly_dead.contains(&s))
            {
                lost.push((d, i));
            }
        }
        requeued += lost.len() as u64;
        for (d, i) in lost {
            Self::reopen_locked(&mut st, d, i);
        }
        st.metrics.add(Counter::TasksRetried, requeued);
        st.metrics.add(Counter::SpeculativeLosses, speculative_lost);
        // If nobody is left to run re-queued work, fail rather than hang.
        let any_alive = st.slaves.iter().any(|s| s.alive);
        if !any_alive && st.plan.live_ops().next().is_some() {
            st.error.get_or_insert("no live slaves remain".into());
        }
        // Requeued tasks (or the error) are runnable-state transitions.
        Self::wake_dispatch(&mut st, &self.shared.dispatch_cv);
        self.wake_sleepers(&mut st);
    }

    /// Earliest instant at which a currently-live slave could cross the
    /// death timeout (its `last_seen + slave_timeout`, plus a millisecond
    /// of grace so a sweep at the deadline sees *strictly* overdue).
    /// `None` when no slave is alive.
    fn next_death_deadline(&self, st: &MState) -> Option<Instant> {
        st.slaves
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.last_seen + self.shared.cfg.slave_timeout + Duration::from_millis(1))
            .min()
    }

    /// Run the dead-slave sweeper until the job finishes, errors, or
    /// `stop` is set (checked at every wake; `finish` is what wakes it).
    /// Sleeps on its own condvar until the earliest instant a slave could
    /// cross the death timeout, instead of a fixed interval — requeue
    /// happens as soon as it possibly could. Heartbeats move that instant
    /// without waking it: a healthy cluster costs one sweep per timeout.
    pub fn sweeper_loop(&self, stop: &AtomicBool) {
        loop {
            {
                let mut st = self.shared.state.lock();
                loop {
                    if stop.load(Ordering::Acquire) || st.finished || st.error.is_some() {
                        return;
                    }
                    let deadline = self
                        .next_death_deadline(&st)
                        .unwrap_or_else(|| Instant::now() + self.shared.cfg.slave_timeout);
                    if self.shared.sweep_cv.wait_until(&mut st, deadline).timed_out() {
                        break;
                    }
                }
            }
            self.sweep();
        }
    }

    /// Authority of a slave (for tests/diagnostics).
    pub fn slave_authority(&self, slave: SlaveId) -> Option<String> {
        self.shared.state.lock().slaves.get(slave as usize).map(|s| s.authority.clone())
    }

    /// Queue an op and wake the parked polls for its tasks.
    fn submit(&self, spec: TaskSpec, input: DataId) -> Result<DataId> {
        let mut st = self.shared.state.lock();
        let id = st.plan.op(spec, input)?;
        if matches!(spec, TaskSpec::ReduceMap { .. }) {
            st.metrics.add(Counter::FusedOps, 1);
        }
        Self::wake_dispatch(&mut st, &self.shared.dispatch_cv);
        Ok(id)
    }

    fn put_source_split(&self, id: u32, split: usize, records: &[Record]) -> Result<String> {
        let path = format!("src{id}/s{split}.mrsb");
        let wire = mrs_codec::encode_vec(write_bucket_bytes(records), self.shared.cfg.compress);
        match &self.shared.plane {
            DataPlane::Direct => {
                self.shared.source_frames.insert(&path, wire);
                let server =
                    self.shared.source_server.get().expect("server started at construction");
                Ok(server.url_for(&path))
            }
            DataPlane::SharedFs(store) => {
                store.put(&path, &wire)?;
                Ok(format!("file://{path}"))
            }
        }
    }
}

impl JobApi for Master {
    fn local_data(&mut self, records: Vec<Record>, splits: usize) -> Result<DataId> {
        if splits == 0 {
            return Err(Error::Invalid("need at least one split".into()));
        }
        // Reserve the slot first so concurrent driver clones cannot collide
        // on ids or bucket paths — as `Loading`, which `wait` sleeps on and
        // nothing consumes — and publish the source once its data is stored.
        let id = self.shared.state.lock().plan.reserve();
        let urls: Result<Vec<String>> = split_slices(&records, splits)
            .enumerate()
            .map(|(i, split)| self.put_source_split(id.0, i, split))
            .collect();
        let mut st = self.shared.state.lock();
        let published = st.plan.source(id, urls);
        if published.is_ok() {
            st.metrics.dataset_live(true);
        }
        Self::wake_dispatch(&mut st, &self.shared.dispatch_cv);
        self.wake_sleepers(&mut st);
        published
    }

    fn map_data(
        &mut self,
        input: DataId,
        func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        self.submit(TaskSpec::Map { func, parts, combine }, input)
    }

    fn reduce_data(&mut self, input: DataId, func: FuncId) -> Result<DataId> {
        self.submit(TaskSpec::Reduce { func }, input)
    }

    fn reduce_map_data(
        &mut self,
        input: DataId,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        self.submit(TaskSpec::ReduceMap { reduce_func, map_func, parts, combine }, input)
    }

    fn keep(&mut self, data: DataId) {
        self.shared.state.lock().plan.keep(data);
    }

    fn wait(&mut self, data: DataId) -> Result<()> {
        let mut st = self.shared.state.lock();
        loop {
            if let Some(e) = &st.error {
                return Err(Error::TaskFailed(e.clone()));
            }
            if st.plan.complete(data)? {
                return Ok(());
            }
            // Sleep until a completion wakes us, or until the earliest
            // instant a slave could cross the death timeout — then sweep.
            // No fixed interval: progress is observed immediately, and the
            // deadline exists only to run the sweep exactly when it could
            // first find something.
            let deadline = self
                .next_death_deadline(&st)
                .unwrap_or_else(|| Instant::now() + self.shared.cfg.slave_timeout);
            if self.shared.cv.wait_until(&mut st, deadline).timed_out() {
                drop(st);
                self.sweep();
                st = self.shared.state.lock();
            }
        }
    }

    fn fetch_all(&mut self, data: DataId) -> Result<Vec<Record>> {
        // A slave can die *after* the job completes but before the driver
        // fetches its buckets; on a fetch failure we sweep (so its lost
        // outputs get re-queued), wait for the recomputation, and retry.
        let mut last_err = None;
        for _attempt in 0..self.shared.cfg.max_attempts {
            self.wait(data)?;
            let urls = self.shared.state.lock().plan.outputs(data)?;
            // One round trip per slave holding a piece of the dataset,
            // parsed in URL order straight into the result vector.
            let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
            let mut out = Vec::new();
            let mut tally = JobMetrics::default();
            let shared = self.shared_store();
            let fetched = fetch_buckets(&urls, shared.as_ref(), None, &mut tally);
            self.shared.state.lock().metrics.merge(&tally);
            match fetched.into_iter().try_for_each(|b| read_bucket_records(&b?, &mut out)) {
                Ok(()) => return Ok(out),
                Err(e) => last_err = Some(e),
            }
            // The owner of the lost bucket stopped polling when it died, so
            // the earliest death deadline is its `last_seen + slave_timeout`.
            // Sweep as deadlines pass until a slave is actually declared
            // dead (its outputs then re-queue and we go around again), or a
            // full `slave_timeout` of patience elapses — nothing was going
            // to die; the failure was transient.
            let patience =
                Instant::now() + self.shared.cfg.slave_timeout + Duration::from_millis(1);
            loop {
                let before = self.live_slaves();
                {
                    let mut st = self.shared.state.lock();
                    let deadline = self.next_death_deadline(&st).unwrap_or(patience).min(patience);
                    while st.error.is_none() && Instant::now() < deadline {
                        self.shared.cv.wait_until(&mut st, deadline);
                    }
                }
                self.sweep();
                if self.live_slaves() < before || Instant::now() >= patience {
                    break;
                }
            }
        }
        Err(last_err.unwrap_or(Error::NoSlaves))
    }

    fn discard(&mut self, data: DataId) {
        let mut st = self.shared.state.lock();
        if let Some(old) = st.plan.discard(data) {
            self.reclaimed_locked(&mut st, data, matches!(old, Ds::Source(_)), false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_fs::MemFs;

    fn master_direct() -> Master {
        Master::new(MasterConfig::default(), DataPlane::Direct).unwrap()
    }

    fn shared_master() -> (Master, Arc<dyn Store>) {
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        (
            Master::new(MasterConfig::default(), DataPlane::SharedFs(Arc::clone(&store))).unwrap(),
            store,
        )
    }

    /// An empty bucket as a slave would store it: framed.
    fn empty_bucket() -> Vec<u8> {
        mrs_codec::encode_vec(write_bucket_bytes(&[]), CompressMode::default())
    }

    /// A poll that neither parks nor reports: the grant plus this slave's
    /// queued orders.
    fn poll(m: &Master, slave: SlaveId, free_slots: usize) -> Dispatch {
        m.poll(
            slave,
            free_slots,
            Duration::ZERO,
            &[],
            &JobMetrics::default(),
            &TraceBatch::default(),
        )
        .0
    }

    fn records(n: u64) -> Vec<Record> {
        (0..n).map(|i| (i.to_be_bytes().to_vec(), vec![])).collect()
    }

    /// Unwrap an assignment expected to grant exactly one task.
    fn take1(a: Assignment) -> TaskMsg {
        match a {
            Assignment::Tasks(mut ts) if ts.len() == 1 => ts.remove(0),
            other => panic!("expected exactly one task, got {other:?}"),
        }
    }

    /// Simulate a slave completing whatever it is handed, writing outputs to
    /// the shared store.
    fn fake_slave_step(m: &Master, store: &Arc<dyn Store>, slave: SlaveId) -> Assignment {
        let a = m.get_tasks(slave, 1);
        if let Assignment::Tasks(ts) = &a {
            for t in ts {
                finish_task(m, store, slave, t);
            }
        }
        a
    }

    #[test]
    fn signin_assigns_sequential_ids() {
        let m = master_direct();
        assert_eq!(m.signin("a:1", 1), 0);
        assert_eq!(m.signin("b:2", 4), 1);
        assert_eq!(m.live_slaves(), 2);
        assert_eq!(m.slave_authority(1).unwrap(), "b:2");
    }

    #[test]
    fn no_work_means_wait_then_exit_after_finish() {
        let m = master_direct();
        let s = m.signin("a:1", 1);
        assert_eq!(m.get_tasks(s, 1), Assignment::Wait);
        m.finish();
        assert_eq!(m.get_tasks(s, 1), Assignment::Exit);
    }

    #[test]
    fn map_tasks_dispatch_then_reduce_after_barrier() {
        let (mut m, store) = shared_master();
        let s = m.signin("a:1", 1);
        let src = m.local_data(records(10), 2).unwrap();
        let mapped = m.map_data(src, 0, 3, false).unwrap();
        let _reduced = m.reduce_data(mapped, 0).unwrap();

        // Two map tasks first.
        for _ in 0..2 {
            let a = fake_slave_step(&m, &store, s);
            assert!(
                matches!(a, Assignment::Tasks(ref ts) if ts.len() == 1 && ts[0].kind == TaskKind::Map),
                "{a:?}"
            );
        }
        // Then three reduce tasks (barrier passed).
        for _ in 0..3 {
            let a = fake_slave_step(&m, &store, s);
            assert!(
                matches!(a, Assignment::Tasks(ref ts) if ts.len() == 1 && ts[0].kind == TaskKind::Reduce),
                "{a:?}"
            );
        }
        assert_eq!(m.get_tasks(s, 1), Assignment::Wait);
    }

    #[test]
    fn failed_task_is_requeued_until_attempt_cap() {
        let cfg = MasterConfig { max_attempts: 2, ..MasterConfig::default() };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let mut m = Master::new(cfg, DataPlane::SharedFs(store)).unwrap();
        let s = m.signin("a:1", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let _mapped = m.map_data(src, 0, 1, false).unwrap();

        let t = take1(m.get_tasks(s, 1));
        m.task_failed(s, t.data, t.index, t.attempt, "boom", None);
        // Re-queued: same task handed out again.
        let t2 = take1(m.get_tasks(s, 1));
        assert_eq!((t2.data, t2.index), (t.data, t.index));
        m.task_failed(s, t2.data, t2.index, t2.attempt, "boom again", None);
        // Attempt cap reached: job errors out, slaves are told to exit.
        assert_eq!(m.get_tasks(s, 1), Assignment::Exit);
        assert!(m.wait(DataId(1)).is_err());
    }

    #[test]
    fn dead_slave_tasks_are_requeued() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(20), ..MasterConfig::default() };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let mut m = Master::new(cfg, DataPlane::SharedFs(store.clone())).unwrap();
        let s1 = m.signin("a:1", 1);
        let s2 = m.signin("b:2", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let _mapped = m.map_data(src, 0, 1, false).unwrap();

        // s1 takes the task and goes silent.
        let t = take1(m.get_tasks(s1, 1));
        std::thread::sleep(Duration::from_millis(40));
        // Keep s2 alive and sweep.
        assert_eq!(m.get_tasks(s2, 1), Assignment::Wait);
        m.sweep();
        assert_eq!(m.live_slaves(), 1);
        // s2 gets the re-queued task.
        let t2 = take1(m.get_tasks(s2, 1));
        assert_eq!((t2.data, t2.index), (t.data, t.index));
    }

    #[test]
    fn dead_slave_completed_outputs_recomputed_on_direct_plane() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(20), ..MasterConfig::default() };
        let mut m = Master::new(cfg, DataPlane::Direct).unwrap();
        let s1 = m.signin("a:1", 1);
        // s2 needs a second slot: it still holds the doomed reduce when it
        // later asks for the re-queued map.
        let s2 = m.signin("b:2", 2);
        let src = m.local_data(records(4), 1).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();
        let _reduced = m.reduce_data(mapped, 0).unwrap();

        // s1 completes the map (its output lives on s1), then dies.
        let t = take1(m.get_tasks(s1, 1));
        assert_eq!(t.kind, TaskKind::Map);
        m.task_done(s1, t.data, t.index, t.attempt, vec!["http://dead:1/data/x".into()]);
        // s2 picks up the now-ready reduce whose input lives on s1.
        let tr = take1(m.get_tasks(s2, 1));
        assert_eq!(tr.kind, TaskKind::Reduce);
        std::thread::sleep(Duration::from_millis(40));
        // Touch s2 so only s1 is swept; then the lost map output forces the
        // map task to be re-queued (direct plane: data died with s1).
        assert_eq!(m.get_tasks(s2, 1), Assignment::Wait);
        m.sweep();
        let t2 = take1(m.get_tasks(s2, 1));
        assert_eq!(t2.kind, TaskKind::Map, "expected requeued map, got {t2:?}");
        assert_eq!((t2.data, t2.index), (t.data, t.index));
    }

    #[test]
    fn all_slaves_dead_fails_job() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(10), ..MasterConfig::default() };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let mut m = Master::new(cfg, DataPlane::SharedFs(store)).unwrap();
        let s = m.signin("a:1", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();
        let _t = take1(m.get_tasks(s, 1));
        std::thread::sleep(Duration::from_millis(30));
        m.sweep();
        assert!(m.wait(mapped).is_err());
    }

    #[test]
    fn affinity_prefers_previous_owner() {
        let (mut m, store) = shared_master();
        let s0 = m.signin("a:1", 1);
        let s1 = m.signin("b:2", 1);

        // Iteration 1: two map tasks; s0 takes index 0, s1 takes index 1.
        let src = m.local_data(records(8), 2).unwrap();
        let m1 = m.map_data(src, 0, 2, false).unwrap();
        let r1 = m.reduce_data(m1, 0).unwrap();
        let t0 = take1(m.get_tasks(s0, 1));
        let t1 = take1(m.get_tasks(s1, 1));
        assert_eq!(t0.index, 0);
        assert_eq!(t1.index, 1);
        finish_task(&m, &store, s0, &t0);
        finish_task(&m, &store, s1, &t1);
        // Reduce round so iteration 2 maps become ready.
        while let Assignment::Tasks(ts) = m.get_tasks(s0, 1) {
            for t in &ts {
                finish_task(&m, &store, s0, t);
            }
        }
        let _ = m.wait(r1);

        // Iteration 2 over the reduce output: with affinity, s1 should again
        // be preferred for map index 1 even if s0 asks first.
        let m2 = m.map_data(r1, 0, 2, false).unwrap();
        let t = take1(m.get_tasks(s0, 1));
        assert_eq!(t.index, 0, "s0 must get its old index back, not steal s1's");
        let t = take1(m.get_tasks(s1, 1));
        assert_eq!(t.index, 1);
        let _ = m2;
        let hits = m.metrics().affinity_hits();
        assert!(hits >= 2, "affinity hits {hits}");
    }

    /// Store an empty bucket per output partition of `t` and name them:
    /// the URLs a slave would report.
    fn output_urls(store: &Arc<dyn Store>, t: &TaskMsg) -> Vec<String> {
        (0..t.parts)
            .map(|p| {
                let path = format!("out/d{}t{}p{p}", t.data, t.index);
                store.put(&path, &empty_bucket()).unwrap();
                format!("file://{path}")
            })
            .collect()
    }

    fn finish_task(m: &Master, store: &Arc<dyn Store>, slave: SlaveId, t: &TaskMsg) {
        m.task_done(slave, t.data, t.index, t.attempt, output_urls(store, t));
    }

    #[test]
    fn duplicate_done_reports_are_ignored() {
        let (mut m, store) = shared_master();
        let s = m.signin("a:1", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();
        let t = take1(m.get_tasks(s, 1));
        finish_task(&m, &store, s, &t);
        finish_task(&m, &store, s, &t); // duplicate
        m.wait(mapped).unwrap();
        assert_eq!(m.metrics().tasks_executed(), 1);
    }

    #[test]
    fn dispatch_batches_up_to_capacity() {
        let (mut m, _store) = shared_master();
        let s = m.signin("a:1", 4);
        let src = m.local_data(records(12), 6).unwrap();
        let _mapped = m.map_data(src, 0, 1, false).unwrap();

        // One poll with 4 free slots fills the slave in a single round trip.
        let Assignment::Tasks(ts) = m.get_tasks(s, 4) else { panic!() };
        assert_eq!(ts.len(), 4);
        // Capacity is exhausted even if the slave (wrongly) claims free slots.
        assert_eq!(m.get_tasks(s, 4), Assignment::Wait);
        // Finishing one task frees exactly one slot.
        m.task_done(s, ts[0].data, ts[0].index, ts[0].attempt, vec!["file://out/x".into()]);
        let Assignment::Tasks(ts2) = m.get_tasks(s, 4) else { panic!() };
        assert_eq!(ts2.len(), 1);
        // A poll asking for fewer slots than capacity is honored as-is.
        m.task_done(s, ts[1].data, ts[1].index, ts[1].attempt, vec!["file://out/y".into()]);
        let Assignment::Tasks(ts3) = m.get_tasks(s, 1) else { panic!() };
        assert_eq!(ts3.len(), 1);
        let metrics = m.metrics();
        assert_eq!(metrics.dispatched_tasks(), 6);
        assert_eq!(metrics.dispatch_polls(), 3);
        assert_eq!(metrics.peak_in_flight(), 4);
    }

    #[test]
    fn idle_claimant_keeps_its_task_busier_one_loses_it() {
        let (mut m, store) = shared_master();
        let s0 = m.signin("a:1", 1);
        let s1 = m.signin("b:2", 1);

        // Iteration 1 establishes affinity: s0 owns index 0, s1 owns index 1.
        let src = m.local_data(records(8), 2).unwrap();
        let m1 = m.map_data(src, 0, 2, false).unwrap();
        let r1 = m.reduce_data(m1, 0).unwrap();
        let t0 = take1(m.get_tasks(s0, 1));
        let t1 = take1(m.get_tasks(s1, 1));
        finish_task(&m, &store, s0, &t0);
        finish_task(&m, &store, s1, &t1);
        while let Assignment::Tasks(ts) = m.get_tasks(s0, 1) {
            for t in &ts {
                finish_task(&m, &store, s0, t);
            }
        }
        m.wait(r1).unwrap();

        // Iteration 2: after s0 takes and finishes its own claim, only s1's
        // claimed task (index 1) is left. s0 is idle — but so is s1, so s0
        // must NOT steal: s1 will claim it on its own next poll, keeping
        // the iteration-to-iteration affinity the paper's scheduler is for.
        let m2 = m.map_data(r1, 0, 2, false).unwrap();
        let mine = take1(m.get_tasks(s0, 1));
        assert_eq!(mine.index, 0);
        finish_task(&m, &store, s0, &mine);
        assert_eq!(m.get_tasks(s0, 1), Assignment::Wait, "must not steal from an idle peer");
        assert_eq!(m.metrics().tasks_stolen(), 0);
        let theirs = take1(m.get_tasks(s1, 1));
        assert_eq!(theirs.index, 1);
        let _ = m2;

        // Iteration 3: s1 still runs `theirs` (1/1 busy) while s0 is free
        // (0/1). Once s0 exhausts its own claim, stealing s1's is allowed
        // and counted.
        let m3 = m.map_data(r1, 0, 2, false).unwrap();
        let t = take1(m.get_tasks(s0, 1));
        assert_eq!(t.index, 0);
        finish_task(&m, &store, s0, &t);
        let stolen = take1(m.get_tasks(s0, 1));
        assert_eq!(stolen.index, 1);
        assert_eq!(m.metrics().tasks_stolen(), 1);
        let _ = m3;
    }

    #[test]
    fn parked_request_returns_wait_after_deadline() {
        let cfg = MasterConfig {
            long_poll_timeout: Duration::from_millis(30),
            ..MasterConfig::default()
        };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let m = Master::new(cfg, DataPlane::SharedFs(store)).unwrap();
        let s = m.signin("a:1", 1);
        // Nothing queued: the request parks, the deadline expires, and the
        // timeout fallback is Wait — not a hang, not a busy poll.
        let start = Instant::now();
        let a = m
            .poll(
                s,
                1,
                Duration::from_millis(200),
                &[],
                &JobMetrics::default(),
                &TraceBatch::default(),
            )
            .0
            .assignment;
        assert_eq!(a, Assignment::Wait);
        assert!(start.elapsed() >= Duration::from_millis(30), "{:?}", start.elapsed());
        let metrics = m.metrics();
        assert_eq!(metrics.longpoll_parks(), 1);
        assert_eq!(metrics.longpoll_timeouts(), 1);
    }

    #[test]
    fn parked_slave_woken_when_barrier_clears() {
        let (mut m, store) = shared_master();
        let s0 = m.signin("a:1", 1);
        let s1 = m.signin("b:2", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();
        let _reduced = m.reduce_data(mapped, 0).unwrap();

        // s0 holds the only map task; s1 has nothing runnable (the reduce
        // is blocked behind the map barrier) and parks.
        let t = take1(m.get_tasks(s0, 1));
        assert_eq!(t.kind, TaskKind::Map);
        let m2 = m.clone();
        let parked = std::thread::spawn(move || {
            let start = Instant::now();
            (
                m2.poll(
                    s1,
                    1,
                    Duration::from_millis(900),
                    &[],
                    &JobMetrics::default(),
                    &TraceBatch::default(),
                )
                .0
                .assignment,
                start.elapsed(),
            )
        });
        std::thread::sleep(Duration::from_millis(30));
        // Completing the map crosses the barrier and must wake s1 with the
        // reduce task well before its long-poll deadline.
        finish_task(&m, &store, s0, &t);
        let (a, elapsed) = parked.join().unwrap();
        let got = take1(a);
        assert_eq!(got.kind, TaskKind::Reduce, "parked slave should receive the unblocked reduce");
        assert!(elapsed < Duration::from_millis(700), "woke by deadline, not event: {elapsed:?}");
        let metrics = m.metrics();
        assert_eq!(metrics.longpoll_parks(), 1);
        assert_eq!(metrics.longpoll_timeouts(), 0);
        assert!(metrics.wakeups() >= 1);
    }

    #[test]
    fn finish_unparks_with_exit() {
        let (m, _store) = shared_master();
        let s = m.signin("a:1", 1);
        let m2 = m.clone();
        let parked = std::thread::spawn(move || {
            let start = Instant::now();
            (
                m2.poll(
                    s,
                    1,
                    Duration::from_millis(900),
                    &[],
                    &JobMetrics::default(),
                    &TraceBatch::default(),
                )
                .0
                .assignment,
                start.elapsed(),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        m.finish();
        let (a, elapsed) = parked.join().unwrap();
        assert_eq!(a, Assignment::Exit);
        assert!(elapsed < Duration::from_millis(700), "finish must unpark promptly: {elapsed:?}");
    }

    #[test]
    fn piggybacked_report_frees_slot_in_same_poll() {
        let (mut m, store) = shared_master();
        let s = m.signin("a:1", 1);
        let src = m.local_data(records(8), 2).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();

        let t1 = take1(m.get_tasks(s, 1));
        // The slave is at capacity (1 slot). Reporting t1 inside the next
        // poll must free the slot *before* the budget is computed, so the
        // second task is granted in the same round trip.
        let report = TaskReport {
            data: t1.data,
            index: t1.index,
            attempt: t1.attempt,
            urls: output_urls(&store, &t1),
        };
        let t2 = take1(
            m.poll(s, 1, Duration::ZERO, &[report], &JobMetrics::default(), &TraceBatch::default())
                .0
                .assignment,
        );
        assert_ne!(t1.index, t2.index);
        finish_task(&m, &store, s, &t2);
        m.wait(mapped).unwrap();
        let metrics = m.metrics();
        assert_eq!(metrics.piggybacked_reports(), 1);
        assert_eq!(metrics.tasks_executed(), 2);
    }

    #[test]
    fn sweeper_loop_requeues_dead_slave_work_and_stops_on_finish() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(30), ..MasterConfig::default() };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let mut m = Master::new(cfg, DataPlane::SharedFs(store)).unwrap();
        let s1 = m.signin("a:1", 1);
        let s2 = m.signin("b:2", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let _mapped = m.map_data(src, 0, 1, false).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let m2 = m.clone();
        let stop2 = Arc::clone(&stop);
        let sweeper = std::thread::spawn(move || m2.sweeper_loop(&stop2));

        // s1 takes the task and goes silent; s2 keeps heartbeating. The
        // sweeper must declare s1 dead on its own (no manual sweep) and the
        // task must become grantable to s2.
        let t = take1(m.get_tasks(s1, 1));
        let deadline = Instant::now() + Duration::from_secs(2);
        let t2 = loop {
            if let Assignment::Tasks(mut ts) = m.get_tasks(s2, 1) {
                break ts.remove(0);
            }
            assert!(Instant::now() < deadline, "sweeper never requeued the dead slave's task");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!((t2.data, t2.index), (t.data, t.index));
        assert_eq!(m.live_slaves(), 1);
        // finish() alone must end the loop (LocalCluster drops this way).
        m.finish();
        sweeper.join().unwrap();
    }

    #[test]
    fn reducemap_dispatches_after_map_barrier_with_fused_shape() {
        let (mut m, store) = shared_master();
        let s = m.signin("a:1", 1);
        let src = m.local_data(records(8), 2).unwrap();
        let mapped = m.map_data(src, 0, 3, false).unwrap();
        let fused = m.reduce_map_data(mapped, 1, 2, 4, true).unwrap();
        let _r = m.reduce_data(fused, 1).unwrap();

        // Two map tasks clear the barrier first.
        for _ in 0..2 {
            let a = fake_slave_step(&m, &store, s);
            assert!(matches!(a, Assignment::Tasks(ref ts) if ts[0].kind == TaskKind::Map), "{a:?}");
        }
        // Then one fused task per input partition, shaped like a map task
        // on the output side and a reduce task on the input side.
        for _ in 0..3 {
            let t = take1(m.get_tasks(s, 1));
            assert_eq!(t.kind, TaskKind::ReduceMap);
            assert_eq!((t.func, t.map_func), (1, 2));
            assert_eq!(t.parts, 4);
            assert!(t.combine);
            assert_eq!(t.inputs.len(), 2, "gathers its partition from both map tasks");
            finish_task(&m, &store, s, &t);
        }
        // The final reduce gathers one partition from every fused task.
        let t = take1(m.get_tasks(s, 1));
        assert_eq!(t.kind, TaskKind::Reduce);
        assert_eq!(t.inputs.len(), 3);
        let metrics = m.metrics();
        assert_eq!(metrics.fused_ops(), 1);
        assert_eq!(metrics.reducemap_tasks(), 3);
    }

    #[test]
    fn affinity_survives_fusion_across_iterations() {
        let (mut m, store) = shared_master();
        let s0 = m.signin("a:1", 1);
        let s1 = m.signin("b:2", 1);
        let src = m.local_data(records(8), 2).unwrap();
        let m1 = m.map_data(src, 0, 2, false).unwrap();

        // Iteration 1: a fused round; s0 ends up with index 0, s1 with 1.
        let f1 = m.reduce_map_data(m1, 0, 0, 2, false).unwrap();
        let t0 = take1(m.get_tasks(s0, 1));
        let t1 = take1(m.get_tasks(s1, 1));
        finish_task(&m, &store, s0, &t0);
        finish_task(&m, &store, s1, &t1);
        let t0 = take1(m.get_tasks(s0, 1));
        let t1 = take1(m.get_tasks(s1, 1));
        assert_eq!(t0.kind, TaskKind::ReduceMap);
        assert_eq!((t0.index, t1.index), (0, 1));
        finish_task(&m, &store, s0, &t0);
        finish_task(&m, &store, s1, &t1);

        // Iteration 2: another fused round. The claims recorded for the
        // fused shape hold — s0 gets its index back, and does not steal
        // s1's even when polling first.
        let f2 = m.reduce_map_data(f1, 0, 0, 2, false).unwrap();
        let t = take1(m.get_tasks(s0, 1));
        assert_eq!(t.index, 0, "s0 keeps its fused index across iterations");
        finish_task(&m, &store, s0, &t);
        assert_eq!(m.get_tasks(s0, 1), Assignment::Wait, "must not steal the idle peer's claim");
        let t = take1(m.get_tasks(s1, 1));
        assert_eq!(t.index, 1);
        let _ = f2;
        assert!(m.metrics().affinity_hits() >= 2);
    }

    #[test]
    fn gc_frees_spent_datasets_and_queues_purge_orders() {
        let mut m = master_direct();
        let s = m.signin("a:1", 2);
        let src = m.local_data(records(6), 1).unwrap();
        let m1 = m.map_data(src, 0, 1, false).unwrap();
        let _r1 = m.reduce_data(m1, 0).unwrap();

        let t = take1(m.get_tasks(s, 1));
        assert_eq!(t.kind, TaskKind::Map);
        m.task_done(
            s,
            t.data,
            t.index,
            t.attempt,
            vec![format!("http://a:1/data/s0/d{}/t0/b0.mrsb", t.data)],
        );
        let t = take1(m.get_tasks(s, 1));
        assert_eq!(t.kind, TaskKind::Reduce);
        m.task_done(
            s,
            t.data,
            t.index,
            t.attempt,
            vec![format!("http://a:1/data/s0/d{}/t0/b0.mrsb", t.data)],
        );

        // The reduce's completion released the map output: a purge order
        // for the slave's copy rides the next dispatch, exactly once.
        let d = poll(&m, s, 1);
        assert_eq!(d.assignment, Assignment::Wait);
        assert!(d.purge.contains(&format!("s0/d{}/", m1.0)), "{:?}", d.purge);
        let d2 = poll(&m, s, 1);
        assert!(d2.purge.is_empty(), "purge orders are drained on delivery");
        let metrics = m.metrics();
        assert_eq!(metrics.datasets_freed(), 1);
        // The source is exempt from lifetime GC.
        assert!(m.wait(src).is_ok());
    }

    #[test]
    fn dead_multislot_slave_has_all_running_tasks_requeued() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(20), ..MasterConfig::default() };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let mut m = Master::new(cfg, DataPlane::SharedFs(store)).unwrap();
        let s1 = m.signin("a:1", 4);
        let s2 = m.signin("b:2", 4);
        let src = m.local_data(records(8), 3).unwrap();
        let _mapped = m.map_data(src, 0, 1, false).unwrap();

        // s1 grabs all three tasks in one poll, then goes silent.
        let Assignment::Tasks(ts) = m.get_tasks(s1, 4) else { panic!() };
        assert_eq!(ts.len(), 3);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(m.get_tasks(s2, 4), Assignment::Wait);
        m.sweep();
        assert_eq!(m.live_slaves(), 1);
        // Every one of s1's running tasks is re-queued and lands on s2.
        let Assignment::Tasks(ts2) = m.get_tasks(s2, 4) else { panic!() };
        let mut got: Vec<usize> = ts2.iter().map(|t| t.index).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(m.metrics().tasks_retried(), 3);
    }

    /// A four-task map wave where s1 holds every task and finishes all but
    /// the last, which keeps running long enough to cross the speculation
    /// cutoff. Returns the still-running straggler's TaskMsg.
    fn straggler_wave(
        m: &mut Master,
        store: &Arc<dyn Store>,
        s1: SlaveId,
    ) -> (DataId, Vec<TaskMsg>) {
        let src = m.local_data(records(8), 4).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();
        let ts = match m.get_tasks(s1, 4) {
            Assignment::Tasks(ts) if ts.len() == 4 => ts,
            other => panic!("expected four tasks, got {other:?}"),
        };
        for t in &ts[..3] {
            finish_task(m, store, s1, t);
        }
        // Let the straggler run well past 1.5x the (tiny) median runtime.
        std::thread::sleep(Duration::from_millis(10));
        (mapped, ts)
    }

    #[test]
    fn backup_dispatched_for_straggler_and_first_completion_wins() {
        let (mut m, store) = shared_master();
        let s1 = m.signin("a:1", 4);
        let s2 = m.signin("b:2", 1);
        let (mapped, ts) = straggler_wave(&mut m, &store, s1);
        let straggler = &ts[3];

        // s2's idle poll is granted a speculative backup of the straggler,
        // under a fresh attempt id.
        let backup = take1(m.get_tasks(s2, 1));
        assert_eq!((backup.data, backup.index), (straggler.data, straggler.index));
        assert_ne!(backup.attempt, straggler.attempt);

        // The backup reports first: its completion is the commit point.
        finish_task(&m, &store, s2, &backup);
        m.wait(mapped).unwrap();
        let metrics = m.metrics();
        assert_eq!(metrics.speculative_launches(), 1);
        assert_eq!(metrics.speculative_wins(), 1);
        assert_eq!(metrics.speculative_losses(), 0);
        assert_eq!(metrics.cancelled_tasks(), 1);
        assert!(
            metrics.straggler_time_saved() > Duration::ZERO,
            "{:?}",
            metrics.straggler_time_saved()
        );

        // The loser's slave receives a cancel order on its next poll,
        // exactly once.
        let d = poll(&m, s1, 0);
        assert_eq!(d.cancel.len(), 1, "{:?}", d.cancel);
        assert_eq!(
            (d.cancel[0].data, d.cancel[0].index, d.cancel[0].attempt),
            (straggler.data, straggler.index, straggler.attempt)
        );
        assert!(poll(&m, s1, 0).cancel.is_empty());

        // The straggler's late report is stale: ignored entirely.
        finish_task(&m, &store, s1, straggler);
        assert_eq!(m.metrics().tasks_executed(), 4);
    }

    #[test]
    fn backup_loses_when_original_finishes_first() {
        let (mut m, store) = shared_master();
        let s1 = m.signin("a:1", 4);
        let s2 = m.signin("b:2", 1);
        let (mapped, ts) = straggler_wave(&mut m, &store, s1);
        let straggler = &ts[3];
        let backup = take1(m.get_tasks(s2, 1));

        // The original beats its backup: the backup is the cancelled loser.
        finish_task(&m, &store, s1, straggler);
        m.wait(mapped).unwrap();
        let metrics = m.metrics();
        assert_eq!(metrics.speculative_launches(), 1);
        assert_eq!(metrics.speculative_wins(), 0);
        assert_eq!(metrics.speculative_losses(), 1);
        assert_eq!(metrics.cancelled_tasks(), 1);
        let d = poll(&m, s2, 0);
        assert_eq!(d.cancel.len(), 1, "{:?}", d.cancel);
        assert_eq!(d.cancel[0].attempt, backup.attempt);

        // The backup's late report is stale.
        finish_task(&m, &store, s2, &backup);
        assert_eq!(m.metrics().tasks_executed(), 4);
    }

    #[test]
    fn stale_failure_from_cancelled_attempt_is_ignored() {
        let (mut m, store) = shared_master();
        let s1 = m.signin("a:1", 4);
        let s2 = m.signin("b:2", 1);
        let (mapped, ts) = straggler_wave(&mut m, &store, s1);
        let straggler = &ts[3];
        let backup = take1(m.get_tasks(s2, 1));
        finish_task(&m, &store, s2, &backup);
        m.wait(mapped).unwrap();

        // The loser aborts mid-run and reports a failure under its
        // superseded attempt id: the committed slot must stay untouched.
        m.task_failed(s1, straggler.data, straggler.index, straggler.attempt, "cancelled", None);
        assert_eq!(m.metrics().tasks_retried(), 0);
        assert_eq!(m.get_tasks(s1, 4), Assignment::Wait);
    }

    #[test]
    fn no_backup_until_the_launch_floor_has_passed() {
        let (mut m, store) = shared_master();
        let s1 = m.signin("a:1", 4);
        let s2 = m.signin("b:2", 1);
        let (mapped, ts) = straggler_wave(&mut m, &store, s1);
        // Pin the op's runtime sample to a 1 ms median and read when the
        // straggler started, so eligibility is a function of the instant
        // handed to `pick_backup` rather than of how fast this test runs.
        let median = Duration::from_millis(1);
        let mut st = m.shared.state.lock();
        for t in &ts[..3] {
            st.plan.x_mut(mapped, t.index).unwrap().runtime_us = Some(median.as_micros() as u64);
        }
        let started = st.plan.x_mut(mapped, ts[3].index).unwrap().running[0].started;
        // Three medians in — twice the 1.5x multiple — the task is still
        // younger than a backup's own dispatch + fetch + run.
        assert_eq!(m.pick_backup(&st, s2, started + 3 * median), None);
        assert_eq!(
            m.pick_backup(&st, s2, started + median + LAUNCH_FLOOR),
            Some((mapped, ts[3].index))
        );
        // A long task keeps the multiple: the floor only binds when
        // (threshold - 1) x median is below it.
        assert_eq!(straggler_cutoff(Duration::from_millis(40), 1.5), Duration::from_millis(60));
    }

    #[test]
    fn speculation_off_launches_no_backups() {
        let cfg = MasterConfig { speculate: SpeculateMode::Off, ..MasterConfig::default() };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let mut m = Master::new(cfg, DataPlane::SharedFs(Arc::clone(&store))).unwrap();
        let s1 = m.signin("a:1", 4);
        let s2 = m.signin("b:2", 1);
        let _wave = straggler_wave(&mut m, &store, s1);
        assert_eq!(m.get_tasks(s2, 1), Assignment::Wait);
        assert_eq!(m.metrics().speculative_launches(), 0);
    }

    #[test]
    fn no_backup_before_wave_mostly_done() {
        let (mut m, store) = shared_master();
        let s1 = m.signin("a:1", 4);
        let s2 = m.signin("b:2", 1);
        let src = m.local_data(records(8), 4).unwrap();
        let _mapped = m.map_data(src, 0, 1, false).unwrap();
        let ts = match m.get_tasks(s1, 4) {
            Assignment::Tasks(ts) => ts,
            other => panic!("{other:?}"),
        };
        // Only half the wave is done: below the 75% speculation gate.
        for t in &ts[..2] {
            finish_task(&m, &store, s1, t);
        }
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(m.get_tasks(s2, 1), Assignment::Wait);
        assert_eq!(m.metrics().speculative_launches(), 0);
    }

    #[test]
    fn no_backup_on_the_stragglers_own_slave() {
        let (mut m, store) = shared_master();
        let s1 = m.signin("a:1", 4);
        let _wave = straggler_wave(&mut m, &store, s1);
        // s1 now has three free slots, but a backup on the same machine
        // as the original cannot dodge that machine's slowness.
        assert_eq!(m.get_tasks(s1, 3), Assignment::Wait);
        assert_eq!(m.metrics().speculative_launches(), 0);
    }

    #[test]
    fn stale_attempt_report_is_ignored_after_requeue() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(20), ..MasterConfig::default() };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let mut m = Master::new(cfg, DataPlane::SharedFs(Arc::clone(&store))).unwrap();
        let s1 = m.signin("a:1", 1);
        let s2 = m.signin("b:2", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();

        // s1 takes the task and goes silent long enough to be swept.
        let t1 = take1(m.get_tasks(s1, 1));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(m.get_tasks(s2, 1), Assignment::Wait);
        m.sweep();
        let t2 = take1(m.get_tasks(s2, 1));
        assert_eq!((t2.data, t2.index), (t1.data, t1.index));
        assert_ne!(t2.attempt, t1.attempt, "attempt ids are never reused");

        // s1 was merely slow, not dead: its report names the superseded
        // attempt and must not commit (no double completion later).
        finish_task(&m, &store, s1, &t1);
        assert_eq!(m.metrics().tasks_executed(), 0);
        finish_task(&m, &store, s2, &t2);
        m.wait(mapped).unwrap();
        assert_eq!(m.metrics().tasks_executed(), 1);
    }

    #[test]
    fn report_naming_no_live_attempt_of_its_slave_is_dropped() {
        let (mut m, store) = shared_master();
        let s = m.signin("a:1", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();
        // Attempt 1 fails and the task is re-queued: the slave now holds
        // live attempt 2.
        let t1 = take1(m.get_tasks(s, 1));
        m.task_failed(s, t1.data, t1.index, t1.attempt, "boom", None);
        let t2 = take1(m.get_tasks(s, 1));
        assert_eq!((t1.attempt, t2.attempt), (1, 2));
        // A report without an attempt id, and one naming the superseded
        // attempt, both come from the right slave — and both are dropped
        // at the commit point: nothing published, the slot still running.
        for stale in [0, t1.attempt] {
            finish_task(&m, &store, s, &TaskMsg { attempt: stale, ..t2.clone() });
            assert_eq!(m.metrics().tasks_executed(), 0, "attempt {stale} committed");
            let st = m.shared.state.lock();
            let op = st.plan.at(mapped).expect("map op");
            assert_eq!(op.done(), 0);
            let running = &op.tasks()[t2.index].x.running;
            assert!(matches!(running.as_slice(), [a] if a.id == 2), "{running:?}");
        }
        // A stale failure is equally inert; the live attempt then commits.
        m.task_failed(s, t2.data, t2.index, 0, "late", None);
        assert_eq!(m.metrics().tasks_retried(), 1);
        finish_task(&m, &store, s, &t2);
        m.wait(mapped).unwrap();
        assert_eq!(m.metrics().tasks_executed(), 1);
    }

    #[test]
    fn a_replayed_report_for_a_reopened_producer_publishes_nothing() {
        let mut m = master_direct();
        let s0 = m.signin("a:1", 1);
        let s1 = m.signin("b:2", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();
        let _reduced = m.reduce_data(mapped, 0).unwrap();
        let map = take1(m.get_tasks(s0, 1));
        let urls = direct_urls(s0, &map);
        m.task_done(s0, map.data, map.index, map.attempt, urls.clone());
        let reduce = take1(m.get_tasks(s1, 1));
        assert_eq!(reduce.inputs, urls);
        // s1 cannot fetch the map's bucket: the producer is indicted and
        // sent back to pending.
        m.task_failed(s1, reduce.data, reduce.index, reduce.attempt, "fetch", Some(&urls[0]));
        assert_eq!(m.metrics().tasks_executed(), 1);
        // The original report is delivered again. It names no live attempt
        // — the slot has none — so the indicted URLs are not re-published
        // and the completion is not counted twice.
        m.task_done(s0, map.data, map.index, map.attempt, urls);
        assert_eq!(m.metrics().tasks_executed(), 1, "the replayed report was counted");
        {
            let st = m.shared.state.lock();
            let op = st.plan.at(mapped).expect("map op");
            assert_eq!(op.done(), 0);
            assert!(op.tasks()[map.index].out().is_none(), "the indicted URLs are back");
        }
        // The reduce stays behind the barrier; the map re-runs under a
        // fresh attempt id, the master's third.
        assert_eq!(m.get_tasks(s1, 1), Assignment::Wait);
        let again = take1(m.get_tasks(s0, 1));
        assert_eq!((again.kind, again.index, again.attempt), (TaskKind::Map, map.index, 3));
    }

    #[test]
    fn parked_idle_slave_wakes_for_speculation_deadline() {
        let (mut m, store) = shared_master();
        let s1 = m.signin("a:1", 4);
        let s2 = m.signin("b:2", 1);
        let src = m.local_data(records(8), 4).unwrap();
        let _mapped = m.map_data(src, 0, 1, false).unwrap();
        let ts = match m.get_tasks(s1, 4) {
            Assignment::Tasks(ts) => ts,
            other => panic!("{other:?}"),
        };
        // Three tasks complete after ~40ms, so the median runtime is
        // ~40ms and the straggler crosses the 1.5x cutoff ~20ms from now.
        std::thread::sleep(Duration::from_millis(40));
        for t in &ts[..3] {
            finish_task(&m, &store, s1, t);
        }
        // An idle slave parking for 900ms must be woken at the
        // speculation deadline instead of sleeping out its park.
        let start = Instant::now();
        let a = m
            .poll(
                s2,
                1,
                Duration::from_millis(900),
                &[],
                &JobMetrics::default(),
                &TraceBatch::default(),
            )
            .0
            .assignment;
        let elapsed = start.elapsed();
        let backup = take1(a);
        assert_eq!((backup.data, backup.index), (ts[3].data, ts[3].index));
        assert!(elapsed < Duration::from_millis(400), "woke too late: {elapsed:?}");
        assert_eq!(m.metrics().speculative_launches(), 1);
    }
    /// Block until a poll is parked on the dispatch condvar. A poll counts
    /// itself parked under the state lock it releases only by waiting, so
    /// once this returns it is asleep.
    fn await_parked(m: &Master) {
        while m.shared.state.lock().parked == 0 {
            std::thread::yield_now();
        }
    }

    /// URLs as a direct-plane slave would report them for `t`.
    fn direct_urls(slave: SlaveId, t: &TaskMsg) -> Vec<String> {
        (0..t.parts)
            .map(|p| format!("http://a:1/data/s{slave}/d{}/t{}/b{p}.mrsb", t.data, t.index))
            .collect()
    }

    #[test]
    fn parked_poll_sleeps_through_a_fragment_and_a_non_final_report_and_wakes_on_the_closing_one() {
        let mut m = master_direct();
        let s0 = m.signin("a:1", 2);
        let s1 = m.signin("b:2", 1);
        let src = m.local_data(records(4), 2).unwrap();
        let mapped = m.map_data(src, 0, 2, false).unwrap();
        let _reduced = m.reduce_data(mapped, 0).unwrap();
        let Assignment::Tasks(ts) = m.get_tasks(s0, 2) else { panic!("two maps") };
        let m2 = m.clone();
        let parked = std::thread::spawn(move || {
            m2.poll(
                s1,
                1,
                Duration::from_secs(60),
                &[],
                &JobMetrics::default(),
                &TraceBatch::default(),
            )
        });
        await_parked(&m);

        // The first report lands a fragment of the reduce's input but
        // completes nothing, and the barrier still holds: nobody is woken.
        m.task_done(s0, ts[0].data, ts[0].index, ts[0].attempt, direct_urls(s0, &ts[0]));
        {
            let st = m.shared.state.lock();
            assert_eq!((st.parked, st.metrics.wakeups()), (1, 0));
        }
        // The closing report wakes it with the reduce.
        m.task_done(s0, ts[1].data, ts[1].index, ts[1].attempt, direct_urls(s0, &ts[1]));
        let (d, _) = parked.join().unwrap();
        assert_eq!(take1(d.assignment).kind, TaskKind::Reduce);
        let metrics = m.metrics();
        assert_eq!((metrics.wakeups(), metrics.longpoll_timeouts()), (1, 0));
    }

    #[test]
    fn parked_poll_wakes_for_a_reduce_split_a_queued_map_reads() {
        let (mut m, store) = shared_master();
        let s0 = m.signin("a:1", 2);
        let s1 = m.signin("b:2", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let mapped = m.map_data(src, 0, 2, false).unwrap();
        let reduced = m.reduce_data(mapped, 0).unwrap();
        let _next = m.map_data(reduced, 0, 1, false).unwrap();
        finish_task(&m, &store, s0, &take1(m.get_tasks(s0, 1)));
        let Assignment::Tasks(ts) = m.get_tasks(s0, 2) else { panic!("two reduces") };
        let m2 = m.clone();
        let parked = std::thread::spawn(move || {
            m2.poll(
                s1,
                1,
                Duration::from_secs(60),
                &[],
                &JobMetrics::default(),
                &TraceBatch::default(),
            )
        });
        await_parked(&m);
        // Not the op's last report, but the map over split 0 is runnable.
        finish_task(&m, &store, s0, &ts[0]);
        let (d, _) = parked.join().unwrap();
        let t = take1(d.assignment);
        assert_eq!((t.kind, t.index), (TaskKind::Map, ts[0].index));
    }

    #[test]
    fn reports_that_complete_nothing_wake_neither_wait_nor_the_sweeper() {
        let (mut m, store) = shared_master();
        let s = m.signin("a:1", 4);
        let src = m.local_data(records(8), 4).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();
        let Assignment::Tasks(ts) = m.get_tasks(s, 4) else { panic!("four maps") };
        let wakes = |m: &Master| m.shared.state.lock().sleeper_wakes;
        let before = wakes(&m);
        for t in &ts[..3] {
            finish_task(&m, &store, s, t);
        }
        assert_eq!(wakes(&m), before, "a report that completes nothing woke a sleeper");
        finish_task(&m, &store, s, &ts[3]);
        assert_eq!(wakes(&m), before + 1, "the completed op wakes `wait`");
        m.wait(mapped).unwrap();
        m.finish();
        assert_eq!(wakes(&m), before + 2, "the end of the job wakes `wait` and the sweeper");
    }

    #[test]
    fn hint_is_true_while_work_is_left_false_on_wait_and_false_for_an_idle_peers_claim() {
        let (m, store) = shared_master();
        let s0 = m.signin("a:1", 1);
        let s1 = m.signin("b:2", 1);
        let full = |slave| {
            m.poll(slave, 1, Duration::ZERO, &[], &JobMetrics::default(), &TraceBatch::default())
        };

        // Round 1, nobody has a claim yet: one of two tasks granted, the
        // other is left for whoever asks — also for this slave.
        let src = m.clone().local_data(records(8), 2).unwrap();
        let m1 = m.clone().map_data(src, 0, 2, false).unwrap();
        let (d0, more) = full(s0);
        assert!(more, "a runnable task was left ungranted");
        let (d1, more) = full(s1);
        assert!(!more, "the wave is handed out");
        assert_eq!(full(s0), (poll(&m, s0, 1), false), "nothing granted, nothing hinted");
        let (t0, t1) = (take1(d0.assignment), take1(d1.assignment));
        finish_task(&m, &store, s0, &t0);
        finish_task(&m, &store, s1, &t1);

        // Round 2, a map wave over the reduced round 1: each slave owns the
        // index it ran. s0 is granted its own task; the one left is the
        // claim of a live peer no busier than s0 — s0 would not be given
        // it, so it is not "more" for s0.
        let r1 = m.clone().reduce_data(m1, 0).unwrap();
        while let Assignment::Tasks(ts) = m.get_tasks(s0, 1) {
            ts.iter().for_each(|t| finish_task(&m, &store, s0, t));
        }
        let _m2 = m.clone().map_data(r1, 0, 2, false).unwrap();
        let (d0, more) = full(s0);
        assert_eq!(take1(d0.assignment).index, t0.index);
        assert!(!more, "the rest of the wave belongs to an idle peer");
    }

    #[test]
    fn a_dispatch_walks_the_same_slots_after_500_discarded_jobs() {
        /// Task slots one poll of `m` looks at.
        fn walked(m: &Master) -> usize {
            m.shared.state.lock().plan.live_ops().map(|(_, op)| op.tasks().len()).sum()
        }
        fn submit(m: &mut Master) -> (DataId, DataId) {
            let src = m.local_data(records(4), 2).unwrap();
            let mapped = m.map_data(src, 0, 1, false).unwrap();
            (src, m.reduce_data(mapped, 0).unwrap())
        }
        let (mut fresh, _) = shared_master();
        fresh.signin("a:1", 1);
        submit(&mut fresh);

        let (mut used, store) = shared_master();
        let s = used.signin("a:1", 1);
        for _ in 0..500 {
            let (src, reduced) = submit(&mut used);
            while let Assignment::Tasks(_) = fake_slave_step(&used, &store, s) {}
            used.discard(src);
            used.discard(reduced);
        }
        assert_eq!(walked(&used), 0, "nothing is left to walk between jobs");
        submit(&mut used);
        assert_eq!(used.shared.state.lock().plan.datasets().len(), 501 * 3);
        assert_eq!(walked(&used), walked(&fresh), "2 maps + 1 reduce, whatever came before");
        assert_eq!(take1(used.get_tasks(s, 1)).kind, TaskKind::Map);
    }

    #[test]
    fn reopened_ops_are_walked_again() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(20), ..MasterConfig::default() };
        let mut m = Master::new(cfg, DataPlane::Direct).unwrap();
        let s1 = m.signin("a:1", 1);
        let s2 = m.signin("b:2", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let mapped = m.map_data(src, 0, 1, false).unwrap();
        let t = take1(m.get_tasks(s1, 1));
        m.task_done(s1, t.data, t.index, t.attempt, direct_urls(s1, &t));
        let live = |m: &Master| -> Vec<DataId> {
            m.shared.state.lock().plan.live_ops().map(|(d, _)| d).collect()
        };
        assert_eq!(live(&m), [], "the only op is complete");
        // s1 dies with the map's output: the op is incomplete again.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(m.get_tasks(s2, 1), Assignment::Wait);
        m.sweep();
        assert_eq!(live(&m), [mapped]);
        assert_eq!(take1(m.get_tasks(s2, 1)).index, t.index);
    }

    /// A direct-plane slave played by the test: it keeps the paths in its
    /// output table, applies an answer's purge orders before it runs the
    /// answer's tasks (as `run_slave` does), and checks that every input it
    /// produced itself is still cached when a task reading it is granted.
    struct FakeSlave {
        id: SlaveId,
        frames: std::collections::HashSet<String>,
        reports: Vec<TaskReport>,
    }

    impl FakeSlave {
        fn poll(&mut self, m: &Master) -> Dispatch {
            let reports = std::mem::take(&mut self.reports);
            let counts = JobMetrics::default();
            let (d, _) =
                m.poll(self.id, 1, Duration::ZERO, &reports, &counts, &TraceBatch::default());
            self.frames.retain(|path| !d.purge.iter().any(|p| path.starts_with(p.as_str())));
            let own = |url: &str| url.strip_prefix("http://a:1/data/").map(str::to_owned);
            for t in match &d.assignment {
                Assignment::Tasks(ts) => ts.as_slice(),
                _ => &[],
            } {
                for path in t.inputs.iter().filter_map(|u| own(u)) {
                    assert!(self.frames.contains(&path), "{t:?} granted, its input {path} purged");
                }
                let urls = direct_urls(self.id, t);
                self.frames.extend(urls.iter().filter_map(|u| own(u)));
                self.reports.push(TaskReport {
                    data: t.data,
                    index: t.index,
                    attempt: t.attempt,
                    urls,
                });
            }
            d
        }
    }

    /// Two rounds, `m1 -> r1 -> m2 -> r2`, on one fake slave, up to the
    /// moment r2 finds m2's output gone. By then GC has reclaimed m1 (its
    /// purge order delivered) and r1 (its purge order still queued), so
    /// re-running m2's task first rebuilds r1 and m1 from lineage. Returns
    /// the slave — its reports sent, nothing granted — and `[m1, r1, m2,
    /// r2]`.
    fn rebuild_after_a_lost_output(m: &mut Master) -> (FakeSlave, [DataId; 4]) {
        let id = m.signin("a:1", 1);
        let mut slave = FakeSlave { id, frames: Default::default(), reports: Vec::new() };
        let src = m.local_data(records(4), 1).unwrap();
        let m1 = m.map_data(src, 0, 1, false).unwrap();
        let r1 = m.reduce_data(m1, 0).unwrap();
        let m2 = m.map_data(r1, 0, 1, false).unwrap();
        let r2 = m.reduce_data(m2, 0).unwrap();
        // m1, r1 and m2 are granted in turn, each poll reporting the last.
        for want in [m1, r1, m2] {
            assert_eq!(take1(slave.poll(m).assignment).data, want.0);
        }
        // m2's report arrives without a poll: r1's purge order waits.
        let report = slave.reports.pop().expect("m2's report");
        m.task_done(id, report.data, report.index, report.attempt, report.urls.clone());
        assert_eq!(m.metrics().datasets_freed(), 2);
        let t = take1(m.get_tasks(id, 1));
        assert_eq!(t.data, r2.0);
        m.task_failed(id, t.data, t.index, t.attempt, "fetch", Some(&report.urls[0]));
        (slave, [m1, r1, m2, r2])
    }

    #[test]
    fn after_a_rebuild_a_report_from_the_previous_life_commits_nothing() {
        let mut m = master_direct();
        let (mut slave, [m1, ..]) = rebuild_after_a_lost_output(&mut m);
        let rebuilt = take1(slave.poll(&m).assignment);
        assert_eq!((rebuilt.data, rebuilt.index), (m1.0, 0), "the map at the chain's root");
        // The first life's report of that task, replayed: attempt 1, from
        // the same slave. Attempt ids are unique per master, so it names
        // no live attempt.
        let executed = m.metrics().tasks_executed();
        m.task_done(slave.id, m1.0, 0, 1, vec!["http://a:1/data/stale".into()]);
        assert_eq!(m.metrics().tasks_executed(), executed, "the stale report committed");
        {
            let st = m.shared.state.lock();
            let op = st.plan.at(m1).expect("rebuilt");
            assert_eq!(op.done(), 0);
            let running = &op.tasks()[0].x.running;
            assert!(matches!(running.as_slice(), [a] if a.id == rebuilt.attempt), "{running:?}");
        }
        // The live attempt's report commits.
        slave.poll(&m);
        assert_eq!(m.metrics().tasks_executed(), executed + 1);
    }

    #[test]
    fn a_rebuilt_tasks_output_on_the_same_slave_survives_the_old_purge_order() {
        let mut m = master_direct();
        let (mut slave, [m1, r1, _, r2]) = rebuild_after_a_lost_output(&mut m);
        // The answer granting the rebuilt map carries r1's first-life purge
        // order, so the slave drops r1's old output before the rebuilt r1
        // can write the same paths.
        let d = slave.poll(&m);
        assert_eq!(take1(d.assignment).data, m1.0);
        assert_eq!(d.purge, [format!("s{}/d{}/", slave.id, r1.0)]);
        // The chain drains; `FakeSlave::poll` checks every own input.
        loop {
            let d = slave.poll(&m);
            if m.shared.state.lock().plan.complete(r2).unwrap() {
                break;
            }
            assert_ne!(d.assignment, Assignment::Wait, "the chain stalled");
        }
        let metrics = m.metrics();
        assert_eq!(metrics.tasks_executed(), 3 + 4, "m1, r1 and m2 ran twice, r2 once");
        assert_eq!(metrics.datasets_freed(), 2 + 3, "m1 and r1 in both lives, m2 in its one");
        // The gauge is balanced across rebuild and re-free: the source and
        // r2 hold data, as if nothing had been lost.
        assert_eq!(metrics.live_datasets(), 2);
        assert_eq!(m.shared.state.lock().plan.live_ops().count(), 0);
    }

    #[test]
    fn pages_render_while_a_poll_is_parked() {
        let mut m = master_direct();
        let s = m.signin("a:1", 1);
        let _src = m.local_data(records(2), 1).unwrap();
        let m2 = m.clone();
        let parked = std::thread::spawn(move || {
            m2.poll(
                s,
                1,
                Duration::from_secs(60),
                &[],
                &JobMetrics::default(),
                &TraceBatch::default(),
            )
        });
        await_parked(&m);
        let status = m.status_page();
        assert!(status.contains("mrs master: running"), "{status}");
        assert!(status.contains("datasets: 1 live, 0 discarded"), "{status}");
        assert!(status.contains("data 0: source, 1 split(s)"), "{status}");
        assert!(m.metrics_page().contains("mrs_slaves_alive 1"));
        m.finish();
        assert_eq!(parked.join().unwrap().0.assignment, Assignment::Exit);
    }

    /// A store that runs `hook` inside `put`: the window in which
    /// `local_data` has reserved its id but not yet published the source.
    struct MidPutStore<F> {
        inner: MemFs,
        hook: F,
    }

    impl<F: Fn() + Send + Sync> Store for MidPutStore<F> {
        fn put(&self, path: &str, data: &[u8]) -> Result<()> {
            (self.hook)();
            self.inner.put(path, data)
        }
        fn get(&self, path: &str) -> Result<Vec<u8>> {
            self.inner.get(path)
        }
        fn exists(&self, path: &str) -> bool {
            self.inner.exists(path)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>> {
            self.inner.list(prefix)
        }
        fn delete(&self, path: &str) -> Result<()> {
            self.inner.delete(path)
        }
    }

    #[test]
    fn a_source_being_loaded_is_neither_complete_nor_consumable_from_another_handle() {
        let other: Arc<OnceLock<Master>> = Arc::new(OnceLock::new());
        let seen = Arc::clone(&other);
        let looked = Arc::new(AtomicBool::new(false));
        let looked2 = Arc::clone(&looked);
        // While the first handle is storing split 0, a second handle looks
        // at the dataset whose id it can already guess.
        let hook = move || {
            let mut m = seen.get().expect("set before local_data").clone();
            assert!(
                !m.shared.state.lock().plan.complete(DataId(0)).unwrap(),
                "`wait` would return"
            );
            let err = m.map_data(DataId(0), 0, 1, false).expect_err("an op over zero splits");
            assert!(matches!(err, Error::MissingData(_)), "{err}");
            assert_eq!(m.shared.state.lock().plan.datasets().len(), 1, "no op was queued");
            looked2.store(true, Ordering::SeqCst);
        };
        let store: Arc<dyn Store> = Arc::new(MidPutStore { inner: MemFs::new(), hook });
        let mut m = Master::new(MasterConfig::default(), DataPlane::SharedFs(store)).unwrap();
        other.set(m.clone()).ok().expect("set once");
        let src = m.local_data(records(4), 2).unwrap();
        assert!(looked.load(Ordering::SeqCst), "the hook never ran");
        // Published, it is an ordinary source for every handle.
        let mut second = other.get().unwrap().clone();
        second.wait(src).unwrap();
        assert_eq!(second.fetch_all(src).unwrap().len(), 4);
        let mapped = second.map_data(src, 0, 1, false).unwrap();
        assert_eq!(m.shared.state.lock().plan.at(mapped).expect("an op").tasks().len(), 2);
    }
}
