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
//! The core (`MasterCore`, in `master/core.rs`) makes every decision and
//! does no I/O: each entry takes `now` and returns its answer plus its
//! effects. [`Master`] is the shell around it. It holds the lock, reads
//! the clock and carries the effects out under the lock: it wakes parked
//! polls or the drivers in `wait` / `fetch_all`, deletes reclaimed storage
//! and arms the death timer. That timer, a thread holding the master
//! weakly, is the one place that sleeps until the core's next death
//! deadline and calls `tick`; nothing here discovers state by
//! fixed-interval sleep.

mod core;

use self::core::{Effects, Grant, MasterCore, MAX_ATTEMPTS};
use crate::data::{split_slices, DataId};
use crate::job::JobApi;
use crate::metrics::JobMetrics;
use crate::proto::{fetch_buckets, Assignment, DataPlane, Dispatch, TaskReport, TraceBatch};
use mrs_codec::CompressMode;
use mrs_core::{Error, FuncId, Record, Result, TaskSpec};
use mrs_fs::format::{frame_records, read_bucket_records};
use mrs_fs::url::EMPTY;
use mrs_rpc::{DataServer, FrameCache, Pages, Response};
use mrs_trace::{
    ClockSync, Event, GlobalEvent, JobTrace, Recorder, Ring, DEFAULT_CAPACITY, MASTER_PID,
};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies a signed-in slave.
pub type SlaveId = u32;

/// Master tuning knobs.
#[derive(Clone, Debug)]
pub struct MasterConfig {
    /// A slave silent for longer than this is presumed dead. A poll parks
    /// at most half of it, so a parked slave still heartbeats twice per
    /// timeout.
    pub slave_timeout: Duration,
    /// Prefer the slave that ran the corresponding task last time.
    pub use_affinity: bool,
    /// Shuffle payload compression policy for the master's own outputs
    /// (source splits). [`crate::LocalCluster`] propagates the same
    /// setting to its slaves.
    pub compress: CompressMode,
    /// Speculative execution policy (`--mrs-speculate`).
    pub speculate: SpeculateMode,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            slave_timeout: Duration::from_secs(2),
            use_affinity: true,
            compress: CompressMode::default(),
            speculate: SpeculateMode::default(),
        }
    }
}

/// Whether the master launches speculative backup copies of straggling
/// tasks. When a task wave is nearly drained and idle slots exist, a
/// running task whose elapsed time exceeds 1.5 times the median
/// completed-task runtime of its operation (and a fixed launch floor past
/// that median) gets a backup attempt on a different slave; the first
/// attempt to finish wins and the loser is cancelled cooperatively. `Off`
/// keeps the non-speculative scheduler as a first-class oracle for
/// benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpeculateMode {
    /// Launch backup attempts for stragglers.
    #[default]
    On,
    /// Never launch backup attempts.
    Off,
}

impl SpeculateMode {
    /// Parse a `--mrs-speculate` value: `on` or `off`.
    pub fn parse(s: &str) -> Result<SpeculateMode> {
        match s {
            "on" => Ok(SpeculateMode::On),
            "off" => Ok(SpeculateMode::Off),
            other => Err(Error::Invalid(format!("unknown speculate mode {other:?} (on|off)"))),
        }
    }
}

/// Master-side trace state: its own recorder (dispatch/report/cancel
/// instants, written by the core through one handle with per-slave lanes)
/// plus the ingest side that maps slave-shipped batches onto the master
/// clock.
struct MasterTrace {
    rec: Recorder,
    ingest: Mutex<TraceIngest>,
}

#[derive(Default)]
struct TraceIngest {
    /// Per slave: its clock-offset estimator, fed by batch RTT samples,
    /// and its events already mapped onto the master clock, in a ring of
    /// [`DEFAULT_CAPACITY`] that overwrites the oldest first.
    slaves: BTreeMap<SlaveId, (ClockSync, Ring)>,
    /// Ring-overflow losses slaves reported, not yet taken.
    reported: u64,
    /// Every loss reported or overwritten here, for `/metrics`.
    lost: u64,
}

/// The death timer: the one place that turns the core's death deadline
/// into a `tick`. It sleeps until the earliest deadline announced on
/// `alarms`, ticks the core and takes the deadline the tick names next.
/// Heartbeats only move deadlines later, so they need not wake it: a
/// healthy cluster costs one tick per timeout. It ends with the master.
fn death_timer(master: Weak<MasterShared>, alarms: Receiver<Instant>) {
    let mut next: Option<Instant> = None;
    loop {
        let heard = match next {
            None => alarms.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => alarms.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        match heard {
            Ok(at) => next = Some(next.map_or(at, |n| n.min(at))),
            Err(RecvTimeoutError::Timeout) => {
                next = None;
                let Some(shared) = master.upgrade() else { return };
                Master { shared }.with(|core, now| core.tick(now));
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

struct MasterShared {
    cfg: MasterConfig,
    state: Mutex<MasterCore>,
    /// Completion condvar: driver `wait`/`fetch_all`.
    cv: Condvar,
    /// Dispatch condvar: parked polls.
    dispatch_cv: Condvar,
    /// The death timer's deadlines, announced by the core's effects, and
    /// the timer itself.
    alarms: Option<Sender<Instant>>,
    timer: OnceLock<JoinHandle<()>>,
    plane: DataPlane,
    /// Master-local frame cache for source splits (direct plane): each
    /// split is encoded once and served zero-copy to every reader.
    source_frames: Arc<FrameCache>,
    /// Serves `source_frames` to slaves (direct plane) and the live
    /// `/status` + `/metrics` pages (both planes). Created right after
    /// the shared state exists — the pages closure needs a weak
    /// back-reference — so it is always set by the time `new` returns.
    source_server: OnceLock<DataServer>,
    trace: MasterTrace,
    /// The records of the last `local_data`, kept once its splits are
    /// stored: the next `fetch_all` writes its answer into them. Off the
    /// state lock, which neither edge needs while it copies.
    stock: Mutex<Vec<Record>>,
}

impl Drop for MasterShared {
    /// End the death timer and join it — unless this is the timer, which
    /// held the last handle while it ticked and ends on its own.
    fn drop(&mut self) {
        drop(self.alarms.take());
        let timer = self.timer.take().filter(|t| t.thread().id() != std::thread::current().id());
        if timer.is_some_and(|t| t.join().is_err()) {
            eprintln!("mrs master: the death timer panicked");
        }
    }
}

/// The master. Clone-cheap handle; all state is shared.
#[derive(Clone)]
pub struct Master {
    shared: Arc<MasterShared>,
}

impl Master {
    /// Create a master for the given data plane.
    pub fn new(cfg: MasterConfig, plane: DataPlane) -> Result<Master> {
        let trace = MasterTrace { rec: Recorder::new(), ingest: Mutex::default() };
        let handle = trace.rec.handle(0);
        let direct = matches!(plane, DataPlane::Direct);
        let (alarms, timer) = std::sync::mpsc::channel();
        let master = Master {
            shared: Arc::new(MasterShared {
                state: Mutex::new(MasterCore::new(cfg.clone(), direct, handle)),
                cfg,
                cv: Condvar::new(),
                dispatch_cv: Condvar::new(),
                alarms: Some(alarms),
                timer: OnceLock::new(),
                plane,
                source_frames: Arc::new(FrameCache::new()),
                source_server: OnceLock::new(),
                trace,
                stock: Mutex::default(),
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
            Some(Response::ok(content_type, text.into_bytes()))
        });
        let server = DataServer::serve_with_pages(0, master.shared.source_frames.provider(), pages)
            .map_err(Error::Io)?;
        let _ = master.shared.source_server.set(server);
        let weak = Arc::downgrade(&master.shared);
        let timer = std::thread::Builder::new()
            .name("mrs-death-timer".into())
            .spawn(move || death_timer(weak, timer))
            .map_err(Error::Io)?;
        let _ = master.shared.timer.set(timer);
        Ok(master)
    }

    /// Run one core entry at the current instant and carry out its effects
    /// under the same lock.
    fn with<T>(&self, entry: impl FnOnce(&mut MasterCore, Instant) -> (T, Effects)) -> T {
        let mut st = self.shared.state.lock();
        let (answer, fx) = entry(&mut st, Instant::now());
        self.apply(fx);
        answer
    }

    /// Carry out a core entry's effects; the caller holds the state lock.
    /// Deleting there orders a reclaimed dataset's delete before anything
    /// the lock guards later, such as the grant of a task rebuilding it.
    fn apply(&self, fx: Effects) {
        if fx.wake_polls {
            self.shared.dispatch_cv.notify_all();
        }
        if fx.wake_drivers {
            self.shared.cv.notify_all();
        }
        if let (Some(at), Some(alarms)) = (fx.death, &self.shared.alarms) {
            let _ = alarms.send(at);
        }
        for dir in fx.deletes {
            match &self.shared.plane {
                DataPlane::Direct => {
                    self.shared.source_frames.remove_prefix(&format!("{dir}/"));
                }
                // A delete that fails leaves a file behind; it never fails
                // the job.
                DataPlane::SharedFs(store) => {
                    for path in store.list(&dir).unwrap_or_default() {
                        let _ = store.delete(&path);
                    }
                }
            }
        }
    }

    /// `host:port` serving this master's `/status` and `/metrics` pages
    /// (and its source buckets on the direct plane).
    pub fn http_authority(&self) -> String {
        self.shared.source_server.get().expect("server started at construction").authority()
    }

    /// Human-readable live state: job phase, per-slave rows, task progress
    /// of every dataset holding data, the count kept as lineage. Served as
    /// `/status`; numbers are copied under the state lock, text after.
    pub fn status_page(&self) -> String {
        let st = self.shared.state.lock();
        let phase = match (&st.error, st.finished) {
            (Some(e), _) => format!("error: {e}"),
            (None, true) => "finished".to_owned(),
            (None, false) => "running".to_owned(),
        };
        let slaves = st.slaves.clone();
        let rows = st.plan.rows(|slot| !slot.running.is_empty());
        let lineage = st.plan.entries() - rows.len();
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
        out.push_str(&format!("datasets: {} live, {lineage} lineage\n", rows.len()));
        for row in rows {
            let (d, total) = (row.data, row.total);
            out.push_str(&match row.op {
                None => format!("  data {d}: source, {total} split(s)"),
                Some(op) => {
                    format!("  data {d}: {op} {}/{total} done, {} running", row.done, row.running)
                }
            });
            for (flag, name) in [(row.pinned, "pinned"), (row.doomed, "freed once complete")] {
                if flag {
                    out.push_str(&format!(", {name}"));
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("tasks executed: {executed}, retries: {retried}\n"));
        out
    }

    /// Prometheus text exposition over the job metrics — the whole
    /// cluster's, slave counts included — and a few master gauges. Served
    /// as `/metrics` by the master's HTTP server, formatted outside the lock.
    pub fn metrics_page(&self) -> String {
        let st = self.shared.state.lock();
        let (metrics, signed_in, alive) = (st.metrics, st.slaves.len(), st.live_slaves());
        drop(st);
        let mut out = metrics.to_prometheus();
        out.push_str(&format!("mrs_slaves_alive {alive}\n"));
        out.push_str(&format!("mrs_slaves_signed_in {signed_in}\n"));
        let lost = self.shared.trace.ingest.lock().lost;
        let dropped = self.shared.trace.rec.dropped_events() + lost;
        out.push_str(&format!("mrs_trace_dropped_events {dropped}\n"));
        out
    }

    /// Fold a slave's piggybacked trace batch into the job timeline,
    /// mapping its timestamps onto the master clock via the batch's RTT
    /// sample. The slave's ring keeps its newest [`DEFAULT_CAPACITY`]
    /// events; every one it overwrites, like every loss the slave
    /// reports, is counted. No-op when the batch is empty.
    pub fn ingest_trace(&self, slave: SlaveId, batch: &TraceBatch) {
        if batch.is_empty() {
            return;
        }
        let t = &self.shared.trace;
        let local_now = t.rec.now_us();
        let mut ing = t.ingest.lock();
        let (sync, ring) = ing
            .slaves
            .entry(slave)
            .or_insert_with(|| (ClockSync::new(), Ring::new(DEFAULT_CAPACITY)));
        sync.observe(batch.sent_at_us, batch.rtt_us, local_now);
        let overwritten = ring.dropped();
        for e in &batch.events {
            ring.push(Event { at_us: sync.map_monotone(e.at_us), ..*e });
        }
        let overwritten = ring.dropped() - overwritten;
        ing.reported += batch.dropped;
        ing.lost += batch.dropped + overwritten;
    }

    /// Take the job timeline assembled so far: master instants plus every
    /// ingested slave event still held, time-sorted on the master clock,
    /// and every loss since the last call. Drains the recorder and the
    /// slaves' rings — a second call returns only what happened since.
    pub fn take_trace(&self) -> JobTrace {
        let t = &self.shared.trace;
        let (master_events, mut dropped) = t.rec.drain();
        let mut events: Vec<GlobalEvent> =
            master_events.into_iter().map(|event| GlobalEvent { pid: MASTER_PID, event }).collect();
        let mut ing = t.ingest.lock();
        dropped += std::mem::take(&mut ing.reported);
        for (&slave, (_, ring)) in &mut ing.slaves {
            let (slave_events, overwritten) = ring.drain();
            events.extend(
                slave_events.into_iter().map(|event| GlobalEvent { pid: slave + 1, event }),
            );
            dropped += overwritten;
        }
        drop(ing);
        events.sort_by_key(|e| e.event.at_us);
        JobTrace { events, dropped }
    }

    /// Register a slave advertising `slots` task slots; returns its id.
    /// `slots` is clamped to at least 1.
    pub fn signin(&self, authority: &str, slots: usize) -> SlaveId {
        self.with(|core, now| core.signin(authority, slots, now))
    }

    /// Number of slaves currently considered alive.
    pub fn live_slaves(&self) -> usize {
        self.shared.state.lock().live_slaves()
    }

    /// Metrics snapshot: the master's own counts and every tally its
    /// slaves' polls delivered.
    pub fn metrics(&self) -> JobMetrics {
        self.shared.state.lock().metrics
    }

    /// Records held as stock for the next `fetch_all`: at most one
    /// `local_data` input. A diagnostic for tests, not a setting.
    #[doc(hidden)]
    pub fn stock_records(&self) -> usize {
        self.shared.stock.lock().len()
    }

    /// Mark the job finished: polling slaves are told to exit.
    pub fn finish(&self) {
        self.with(|core, now| core.finish(now))
    }

    /// A slave polls. In one critical section: merge its counter tally
    /// `counts` (what its fetches and tasks counted since its last poll —
    /// never later than the reports those tasks make), apply the
    /// piggybacked completion `reports`, grant up to `free_slots` tasks
    /// (parking up to `park` when nothing is runnable) and drain the purge and cancel orders queued for
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
        let (until, fx) = st.poll(slave, reports, counts, park, Instant::now());
        self.apply(fx);
        // The park loop: the core answers at once or names the instant to
        // park until; the poll sleeps until then or a wake, and asks again.
        let mut resumed = false;
        let (assignment, more) = loop {
            let (grant, fx) = st.grant(slave, free_slots, until, resumed, Instant::now());
            self.apply(fx);
            match grant {
                Grant::Now(assignment, more) => break (assignment, more),
                Grant::Park(at) => {
                    self.shared.dispatch_cv.wait_until(&mut st, at);
                    resumed = true;
                }
            }
        };
        let (purge, cancel) = st.orders(slave);
        (Dispatch { assignment, purge, eager: Vec::new(), cancel }, more)
    }

    /// [`Master::poll`] without parking, reports or order delivery: just
    /// the grant. For callers that drive the scheduler in process (unit
    /// tests, the dispatch microbenchmark); queued orders stay queued for
    /// the slave's next real poll.
    pub fn get_tasks(&self, slave: SlaveId, free_slots: usize) -> Assignment {
        match self.with(|core, now| core.grant(slave, free_slots, now, false, now)) {
            Grant::Now(assignment, _) => assignment,
            Grant::Park(_) => unreachable!("a grant due now does not park"),
        }
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
        self.with(|core, now| core.commit(slave, data, index, attempt, urls, now))
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
        self.with(|core, now| core.task_failed(slave, data, index, attempt, msg, failed_input, now))
    }

    /// Store and serve one source split; its URL. A split with no records
    /// (a job asking for more splits than it has records) is `empty:`,
    /// stored and served nowhere.
    fn put_source_split(&self, id: u32, split: usize, records: &[Record]) -> Result<String> {
        if records.is_empty() {
            return Ok(EMPTY.to_owned());
        }
        let path = format!("src{id}/s{split}.mrsb");
        let wire = frame_records(records, self.shared.cfg.compress);
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
        let id = self.with(|core, now| core.publish(id, urls, now));
        // The stock it replaces, if no `fetch_all` took it, is freed
        // outside the lock.
        drop(std::mem::replace(&mut *self.shared.stock.lock(), records));
        id
    }

    fn map_data(
        &mut self,
        input: DataId,
        func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        self.with(|core, now| core.submit(TaskSpec::Map { func, parts, combine }, input, now))
    }

    fn reduce_data(&mut self, input: DataId, func: FuncId) -> Result<DataId> {
        self.with(|core, now| core.submit(TaskSpec::Reduce { func }, input, now))
    }

    fn reduce_map_data(
        &mut self,
        input: DataId,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        let spec = TaskSpec::ReduceMap { reduce_func, map_func, parts, combine };
        self.with(|core, now| core.submit(spec, input, now))
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
            if st.plan.settled(data)? {
                return Ok(());
            }
            // Woken when `data` settles, a slave dies, the job fails or
            // ends: not by the completion of every op of a chain.
            st.waiting.push(data);
            self.shared.cv.wait(&mut st);
            let at = st.waiting.iter().position(|&d| d == data).expect("this wait's entry");
            st.waiting.swap_remove(at);
        }
    }

    fn fetch_all(&mut self, data: DataId) -> Result<Vec<Record>> {
        // A slave can die *after* the job completes but before the driver
        // fetches its buckets. After a failed fetch, wait until the death
        // timer declares a slave dead (its lost outputs then re-queue, and
        // the next round waits for the recomputation) or one
        // `slave_timeout` of patience passes: nothing was going to die;
        // the failure was transient.
        let mut last_err = None;
        // Every attempt writes over the stock; a failed one leaves it
        // emptied, never holding part of an answer.
        let mut out = std::mem::take(&mut *self.shared.stock.lock());
        for _attempt in 0..MAX_ATTEMPTS {
            self.wait(data)?;
            let urls = self.shared.state.lock().plan.outputs(data)?;
            // One round trip per slave holding a piece of the dataset,
            // parsed in URL order into the stock, grown at most once to
            // the buckets' header counts.
            let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
            let mut tally = JobMetrics::default();
            let shared = match &self.shared.plane {
                DataPlane::SharedFs(s) => Some(s),
                DataPlane::Direct => None,
            };
            let fetched = fetch_buckets(&urls, shared, None, None, &mut tally);
            self.shared.state.lock().metrics.merge(&tally);
            // An empty output adds nothing to parse.
            let fetched = fetched.into_iter().filter_map(Result::transpose);
            let fetched = fetched.collect::<Result<Vec<_>>>();
            match fetched.and_then(|buckets| read_bucket_records(&buckets, &mut out)) {
                Ok(()) => return Ok(out),
                Err(e) => last_err = Some(e),
            }
            let mut st = self.shared.state.lock();
            let (live, patience) =
                (st.live_slaves(), Instant::now() + self.shared.cfg.slave_timeout);
            while st.error.is_none()
                && st.live_slaves() >= live
                && !self.shared.cv.wait_until(&mut st, patience).timed_out()
            {}
        }
        Err(last_err.unwrap_or(Error::NoSlaves))
    }

    fn discard(&mut self, data: DataId) {
        self.with(|core, now| core.discard(data, now))
    }
}

#[cfg(test)]
mod tests {
    use super::core::{straggler_cutoff, LAUNCH_FLOOR};
    use super::*;
    use crate::proto::{TaskKind, TaskMsg};
    use mrs_fs::{MemFs, Store};
    use std::sync::atomic::{AtomicBool, Ordering};

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
        frame_records(&[], CompressMode::default())
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

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn timeout(millis: u64) -> MasterConfig {
        MasterConfig { slave_timeout: ms(millis), ..MasterConfig::default() }
    }

    /// A core driven by the test alone — no shell, no lock, no timer — at
    /// instants given as offsets from `t0`. Nothing here sleeps: time is
    /// whatever the test says it is.
    struct Sim {
        core: MasterCore,
        t0: Instant,
    }

    impl Sim {
        fn new(cfg: MasterConfig, direct: bool) -> Sim {
            Sim {
                core: MasterCore::new(cfg, direct, Recorder::new().handle(0)),
                t0: Instant::now(),
            }
        }

        fn at(&self, offset: Duration) -> Instant {
            self.t0 + offset
        }

        fn signin(&mut self, slots: usize) -> SlaveId {
            self.core.signin("a:1", slots, self.t0).0
        }

        fn source(&mut self, splits: usize) -> DataId {
            let id = self.core.plan.reserve();
            let urls = (0..splits).map(|i| format!("file://src{}/s{i}.mrsb", id.0)).collect();
            self.core.publish(id, Ok(urls), self.t0).0.unwrap()
        }

        fn map(&mut self, input: DataId, parts: usize) -> DataId {
            let spec = TaskSpec::Map { func: 0, parts, combine: false };
            self.core.submit(spec, input, self.t0).0.unwrap()
        }

        fn reduce(&mut self, input: DataId) -> DataId {
            self.core.submit(TaskSpec::Reduce { func: 0 }, input, self.t0).0.unwrap()
        }

        fn reducemap(&mut self, input: DataId, parts: usize) -> DataId {
            let spec = TaskSpec::ReduceMap { reduce_func: 0, map_func: 0, parts, combine: false };
            self.core.submit(spec, input, self.t0).0.unwrap()
        }

        /// A poll at `offset` that reports nothing and may park for a
        /// second: its grant, or the instant it would park until.
        fn poll(&mut self, slave: SlaveId, free_slots: usize, offset: Duration) -> Grant {
            let now = self.at(offset);
            self.core.grant(slave, free_slots, now + Duration::from_secs(1), false, now).0
        }

        /// A poll at `offset` that reports nothing and does not park.
        fn grant(&mut self, slave: SlaveId, free_slots: usize, offset: Duration) -> Assignment {
            let now = self.at(offset);
            match self.core.grant(slave, free_slots, now, false, now).0 {
                Grant::Now(a, _) => a,
                park => panic!("a poll that may not park parked: {park:?}"),
            }
        }

        /// `slave` reports `t` done at `offset`, every output with records.
        fn done(&mut self, slave: SlaveId, t: &TaskMsg, offset: Duration) -> Effects {
            let report =
                TaskReport { data: t.data, index: t.index, attempt: t.attempt, empty: vec![] };
            self.core.report(slave, &[report], self.at(offset)).1
        }

        fn tick(&mut self, offset: Duration) -> Effects {
            self.core.tick(self.at(offset)).1
        }
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
        assert_eq!(m.shared.state.lock().slaves[1].authority, "b:2");
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

    /// The master holds at most [`DEFAULT_CAPACITY`] of one slave's
    /// events — the newest — however many it ingests; every event its
    /// ring overwrote and every loss the slave reported is counted, in the
    /// taken trace and on `/metrics`.
    #[test]
    fn ingested_slave_events_are_bounded_and_every_loss_counted() {
        use mrs_trace::{Kind, Name, Op, Tag};
        let m = master_direct();
        let s = m.signin("a:1", 1);
        let batch = |from: usize, n: usize, dropped: u64| TraceBatch {
            sent_at_us: 0,
            rtt_us: 10,
            dropped,
            events: (from..from + n)
                .map(|i| Event {
                    at_us: i as u64,
                    kind: Kind::Instant,
                    name: Name::Exec,
                    lane: 0,
                    tag: Tag::task(Op::Map, 1, i, 1),
                })
                .collect(),
        };
        // 1,000 events past the capacity, in two batches, and 3 events the
        // slave's own ring lost.
        let excess = 1_000;
        m.ingest_trace(s, &batch(0, DEFAULT_CAPACITY, 0));
        m.ingest_trace(s, &batch(DEFAULT_CAPACITY, excess, 3));
        let lost = format!("\nmrs_trace_dropped_events {}\n", excess + 3);
        assert!(m.metrics_page().contains(&lost), "{}", m.metrics_page());
        let trace = m.take_trace();
        let held: Vec<u32> =
            trace.events.iter().filter(|e| e.pid == s + 1).map(|e| e.event.tag.index).collect();
        assert_eq!(held.len(), DEFAULT_CAPACITY);
        assert_eq!(
            (held[0], held[held.len() - 1]),
            (excess as u32, (DEFAULT_CAPACITY + excess - 1) as u32)
        );
        assert_eq!(trace.dropped, excess as u64 + 3);
        // Taken: nothing is held or counted twice, and `/metrics` keeps
        // the lifetime count.
        let again = m.take_trace();
        assert_eq!((again.events.len(), again.dropped), (0, 0));
        assert!(m.metrics_page().contains(&lost));
    }

    #[test]
    fn speculate_mode_parses_and_rejects() {
        assert_eq!(SpeculateMode::parse("off").unwrap(), SpeculateMode::Off);
        assert_eq!(SpeculateMode::parse("on").unwrap(), SpeculateMode::On);
        assert_eq!(SpeculateMode::default(), SpeculateMode::On);
        for retired in ["threshold=2.5", "threshold=0.5", "maybe"] {
            let err = SpeculateMode::parse(retired).unwrap_err().to_string();
            assert!(err.contains(retired) && err.contains("on|off"), "{err}");
        }
    }

    #[test]
    fn failed_task_is_requeued_until_attempt_cap() {
        let (mut m, _store) = shared_master();
        let s = m.signin("a:1", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let _mapped = m.map_data(src, 0, 1, false).unwrap();

        let first = take1(m.get_tasks(s, 1));
        for n in 1..=MAX_ATTEMPTS {
            // Re-queued until the cap: the same task is handed out again.
            let t = if n == 1 { first.clone() } else { take1(m.get_tasks(s, 1)) };
            assert_eq!((t.data, t.index), (first.data, first.index));
            m.task_failed(s, t.data, t.index, t.attempt, "boom", None);
        }
        // Attempt cap reached: job errors out, slaves are told to exit.
        assert_eq!(m.get_tasks(s, 1), Assignment::Exit);
        let err = m.wait(DataId(1)).unwrap_err().to_string();
        assert!(err.contains(&format!("failed {MAX_ATTEMPTS} times")), "{err}");
    }

    #[test]
    fn dead_slave_tasks_are_requeued() {
        let mut sim = Sim::new(timeout(20), false);
        let (s1, s2) = (sim.signin(1), sim.signin(1));
        let src = sim.source(1);
        sim.map(src, 1);

        // s1 takes the task and goes silent.
        let t = take1(sim.grant(s1, 1, ms(0)));
        // s2 keeps polling; the tick finds s1 overdue.
        assert_eq!(sim.grant(s2, 1, ms(40)), Assignment::Wait);
        sim.tick(ms(40));
        assert_eq!(sim.core.live_slaves(), 1);
        // s2 gets the re-queued task.
        let t2 = take1(sim.grant(s2, 1, ms(40)));
        assert_eq!((t2.data, t2.index), (t.data, t.index));
    }

    #[test]
    fn dead_slave_completed_outputs_recomputed_on_direct_plane() {
        let mut sim = Sim::new(timeout(20), true);
        let s1 = sim.signin(1);
        // s2 needs a second slot: it still holds the doomed reduce when it
        // later asks for the re-queued map.
        let s2 = sim.signin(2);
        let src = sim.source(1);
        let mapped = sim.map(src, 1);
        sim.reduce(mapped);

        // s1 completes the map (its output lives on s1), then dies.
        let t = take1(sim.grant(s1, 1, ms(0)));
        assert_eq!(t.kind, TaskKind::Map);
        sim.done(s1, &t, ms(0));
        // s2 picks up the now-ready reduce whose input lives on s1.
        let tr = take1(sim.grant(s2, 1, ms(0)));
        assert_eq!(tr.kind, TaskKind::Reduce);
        // s2 polls, so only s1 is overdue; the lost map output forces the
        // map task to be re-queued (direct plane: data died with s1).
        assert_eq!(sim.grant(s2, 1, ms(40)), Assignment::Wait);
        sim.tick(ms(40));
        let t2 = take1(sim.grant(s2, 1, ms(40)));
        assert_eq!(t2.kind, TaskKind::Map, "expected requeued map, got {t2:?}");
        assert_eq!((t2.data, t2.index), (t.data, t.index));
    }

    #[test]
    fn all_slaves_dead_fails_job() {
        let mut sim = Sim::new(timeout(10), false);
        let s = sim.signin(1);
        let src = sim.source(1);
        sim.map(src, 1);
        let _t = take1(sim.grant(s, 1, ms(0)));
        let fx = sim.tick(ms(30));
        assert!(fx.wake_drivers, "`wait` must see the error");
        assert_eq!(sim.core.error.as_deref(), Some("no live slaves remain"));
        assert_eq!(sim.grant(s, 1, ms(30)), Assignment::Exit);
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
        let (m, _store) = shared_master();
        let s = m.signin("a:1", 1);
        // Nothing queued: the request parks, the deadline expires, and the
        // timeout fallback is Wait — not a hang, not a busy poll.
        let start = Instant::now();
        let a = m
            .poll(
                s,
                1,
                Duration::from_millis(30),
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
        await_parked(&m);
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
        await_parked(&m);
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
        // second task is granted in the same round trip. Its one output
        // holds no records.
        let report =
            TaskReport { data: t1.data, index: t1.index, attempt: t1.attempt, empty: vec![0] };
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
    fn the_death_timer_requeues_a_silent_slaves_task_with_no_driver_waiting() {
        // Shaped like the CLI master: no cluster around it and no driver
        // in `wait` or `fetch_all`. Only the death timer can notice s1.
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let mut m = Master::new(timeout(200), DataPlane::SharedFs(store)).unwrap();
        let s1 = m.signin("a:1", 1);
        let s2 = m.signin("b:2", 1);
        let src = m.local_data(records(4), 1).unwrap();
        let _mapped = m.map_data(src, 0, 1, false).unwrap();

        // s1 takes the task and goes silent; s2 long-polls, parking up to
        // half the timeout each time, until the requeue wakes it with the
        // task — or a generous deadline passes.
        let t = take1(m.get_tasks(s1, 1));
        let (counts, trace) = (JobMetrics::default(), TraceBatch::default());
        let deadline = Instant::now() + Duration::from_secs(10);
        let t2 = loop {
            let (d, _) = m.poll(s2, 1, ms(60_000), &[], &counts, &trace);
            if let Assignment::Tasks(mut ts) = d.assignment {
                break ts.remove(0);
            }
            assert!(Instant::now() < deadline, "nothing declared the silent slave dead");
        };
        assert_eq!((t2.data, t2.index), (t.data, t.index));
        assert_eq!(m.live_slaves(), 1);
        assert_eq!(m.metrics().tasks_retried(), 1);
    }

    #[test]
    fn a_slave_is_alive_at_its_timeout_and_dead_a_millisecond_after() {
        let mut sim = Sim::new(timeout(2000), false);
        let (s, fx) = sim.core.signin("a:1", 1, sim.at(ms(0)));
        assert_eq!(fx.death, Some(sim.at(ms(2001))), "the sign-in arms the death timer");
        let fx = sim.tick(ms(2000));
        assert_eq!((sim.core.live_slaves(), fx.death), (1, Some(sim.at(ms(2001)))));
        assert!(!fx.wake_drivers, "nobody died");
        let fx = sim.tick(ms(2001));
        assert_eq!((sim.core.live_slaves(), fx.death), (0, None));
        assert!(fx.wake_drivers);
        // Heard from again, it is alive again and the timer is re-armed.
        let (_, fx) =
            sim.core.poll(s, &[], &JobMetrics::default(), Duration::ZERO, sim.at(ms(3000)));
        assert_eq!((sim.core.live_slaves(), fx.death), (1, Some(sim.at(ms(5001)))));
    }

    #[test]
    fn a_finished_job_arms_no_death_deadline_and_buries_nobody() {
        let mut sim = Sim::new(timeout(20), false);
        let s = sim.signin(1);
        let src = sim.source(1);
        sim.map(src, 1);
        let _t = take1(sim.grant(s, 1, ms(0)));
        let (_, fx) = sim.core.finish(sim.at(ms(1)));
        assert!(fx.wake_drivers);
        let fx = sim.tick(ms(100));
        assert_eq!((fx.death, sim.core.live_slaves()), (None, 1));
        assert_eq!(sim.core.metrics.tasks_retried(), 0);
    }

    #[test]
    fn a_park_is_clamped_to_half_the_slave_timeout() {
        let mut sim = Sim::new(timeout(2000), false);
        let s = sim.signin(1);
        let none = JobMetrics::default();
        let (until, _) = sim.core.poll(s, &[], &none, ms(60_000), sim.at(ms(0)));
        assert_eq!(until, sim.at(ms(1000)));
        assert_eq!(sim.core.grant(s, 1, until, false, sim.at(ms(0))).0, Grant::Park(until));
        assert_eq!(sim.core.parked, 1);
        // Woken at the deadline with nothing to do: `Wait`, counted as a
        // long-poll timeout, and the poll is no longer parked.
        let (grant, _) = sim.core.grant(s, 1, until, true, until);
        assert_eq!(grant, Grant::Now(Assignment::Wait, false));
        let metrics = sim.core.metrics;
        assert_eq!(
            (metrics.longpoll_parks(), metrics.longpoll_timeouts(), sim.core.parked),
            (1, 1, 0)
        );
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
        let mut sim = Sim::new(timeout(20), false);
        let (s1, s2) = (sim.signin(4), sim.signin(4));
        let src = sim.source(3);
        sim.map(src, 1);

        // s1 grabs all three tasks in one poll, then goes silent.
        let Assignment::Tasks(ts) = sim.grant(s1, 4, ms(0)) else { panic!() };
        assert_eq!(ts.len(), 3);
        assert_eq!(sim.grant(s2, 4, ms(40)), Assignment::Wait);
        sim.tick(ms(40));
        assert_eq!(sim.core.live_slaves(), 1);
        // Every one of s1's running tasks is re-queued and lands on s2.
        let Assignment::Tasks(ts2) = sim.grant(s2, 4, ms(40)) else { panic!() };
        let mut got: Vec<usize> = ts2.iter().map(|t| t.index).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(sim.core.metrics.tasks_retried(), 3);
    }

    /// A four-task map wave where s1 holds every task and finishes all but
    /// the last at `finished`, so the op's median runtime is `finished`.
    /// Returns the op and the tasks; the fourth is the straggler.
    fn straggler_wave(sim: &mut Sim, s1: SlaveId, finished: Duration) -> (DataId, Vec<TaskMsg>) {
        let src = sim.source(4);
        let mapped = sim.map(src, 1);
        let ts = match sim.grant(s1, 4, ms(0)) {
            Assignment::Tasks(ts) if ts.len() == 4 => ts,
            other => panic!("expected four tasks, got {other:?}"),
        };
        for t in &ts[..3] {
            sim.done(s1, t, finished);
        }
        (mapped, ts)
    }

    #[test]
    fn backup_dispatched_for_straggler_and_first_completion_wins() {
        let mut sim = Sim::new(MasterConfig::default(), false);
        let (s1, s2) = (sim.signin(4), sim.signin(1));
        let (mapped, ts) = straggler_wave(&mut sim, s1, ms(1));
        let straggler = &ts[3];

        // s2's idle poll is granted a speculative backup of the straggler,
        // under a fresh attempt id.
        let backup = take1(sim.grant(s2, 1, ms(20)));
        assert_eq!((backup.data, backup.index), (straggler.data, straggler.index));
        assert_ne!(backup.attempt, straggler.attempt);

        // The backup reports first: its completion is the commit point.
        sim.done(s2, &backup, ms(25));
        assert!(sim.core.plan.complete(mapped).unwrap());
        let metrics = sim.core.metrics;
        assert_eq!(metrics.speculative_launches(), 1);
        assert_eq!(metrics.speculative_wins(), 1);
        assert_eq!(metrics.speculative_losses(), 0);
        assert_eq!(metrics.cancelled_tasks(), 1);
        // The loser ran 25 ms, the winner 5 ms.
        assert_eq!(metrics.straggler_time_saved(), ms(20));

        // The loser's slave receives a cancel order on its next poll,
        // exactly once.
        let (_, cancel) = sim.core.orders(s1);
        assert_eq!(cancel.len(), 1, "{cancel:?}");
        assert_eq!(
            (cancel[0].data, cancel[0].index, cancel[0].attempt),
            (straggler.data, straggler.index, straggler.attempt)
        );
        assert!(sim.core.orders(s1).1.is_empty());

        // The straggler's late report is stale: ignored entirely.
        sim.done(s1, straggler, ms(30));
        assert_eq!(sim.core.metrics.tasks_executed(), 4);
    }

    #[test]
    fn backup_loses_when_original_finishes_first() {
        let mut sim = Sim::new(MasterConfig::default(), false);
        let (s1, s2) = (sim.signin(4), sim.signin(1));
        let (mapped, ts) = straggler_wave(&mut sim, s1, ms(1));
        let straggler = &ts[3];
        let backup = take1(sim.grant(s2, 1, ms(20)));

        // The original beats its backup: the backup is the cancelled loser.
        sim.done(s1, straggler, ms(25));
        assert!(sim.core.plan.complete(mapped).unwrap());
        let metrics = sim.core.metrics;
        assert_eq!(metrics.speculative_launches(), 1);
        assert_eq!(metrics.speculative_wins(), 0);
        assert_eq!(metrics.speculative_losses(), 1);
        assert_eq!(metrics.cancelled_tasks(), 1);
        let (_, cancel) = sim.core.orders(s2);
        assert_eq!(cancel.len(), 1, "{cancel:?}");
        assert_eq!(cancel[0].attempt, backup.attempt);

        // The backup's late report is stale.
        sim.done(s2, &backup, ms(30));
        assert_eq!(sim.core.metrics.tasks_executed(), 4);
    }

    #[test]
    fn stale_failure_from_cancelled_attempt_is_ignored() {
        let mut sim = Sim::new(MasterConfig::default(), false);
        let (s1, s2) = (sim.signin(4), sim.signin(1));
        let (mapped, ts) = straggler_wave(&mut sim, s1, ms(1));
        let straggler = &ts[3];
        let backup = take1(sim.grant(s2, 1, ms(20)));
        sim.done(s2, &backup, ms(25));
        assert!(sim.core.plan.complete(mapped).unwrap());

        // The loser aborts mid-run and reports a failure under its
        // superseded attempt id: the committed slot must stay untouched.
        let (data, index, attempt) = (straggler.data, straggler.index, straggler.attempt);
        sim.core.task_failed(s1, data, index, attempt, "cancelled", None, sim.at(ms(30)));
        assert_eq!(sim.core.metrics.tasks_retried(), 0);
        assert_eq!(sim.grant(s1, 4, ms(30)), Assignment::Wait);
    }

    #[test]
    fn no_backup_until_the_launch_floor_has_passed() {
        let mut sim = Sim::new(MasterConfig::default(), false);
        let (s1, s2) = (sim.signin(4), sim.signin(1));
        // A 1 ms median; the straggler started at 0.
        let (_, ts) = straggler_wave(&mut sim, s1, ms(1));
        // Three medians in — twice the 1.5x multiple — the task is still
        // younger than a backup's own dispatch + fetch + run.
        assert_eq!(sim.grant(s2, 1, ms(3)), Assignment::Wait);
        let backup = take1(sim.grant(s2, 1, ms(1) + LAUNCH_FLOOR));
        assert_eq!((backup.data, backup.index), (ts[3].data, ts[3].index));
        // A long task keeps the multiple: the floor only binds when
        // 0.5 x median is below it.
        assert_eq!(straggler_cutoff(Duration::from_millis(40)), Duration::from_millis(60));
    }

    #[test]
    fn no_backup_a_microsecond_before_the_cutoff_and_one_at_it() {
        let mut sim = Sim::new(MasterConfig::default(), false);
        let (s1, s2) = (sim.signin(4), sim.signin(1));
        // A 40 ms median: the 1.5x multiple binds, the cutoff is 60 ms.
        let (_, ts) = straggler_wave(&mut sim, s1, ms(40));
        let cutoff = ms(60);
        assert_eq!(sim.grant(s2, 1, cutoff - Duration::from_micros(1)), Assignment::Wait);
        let backup = take1(sim.grant(s2, 1, cutoff));
        assert_eq!((backup.data, backup.index), (ts[3].data, ts[3].index));
        assert_eq!(sim.core.metrics.speculative_launches(), 1);
    }

    #[test]
    fn speculation_off_launches_no_backups() {
        let cfg = MasterConfig { speculate: SpeculateMode::Off, ..MasterConfig::default() };
        let mut sim = Sim::new(cfg, false);
        let (s1, s2) = (sim.signin(4), sim.signin(1));
        let _wave = straggler_wave(&mut sim, s1, ms(1));
        assert_eq!(sim.grant(s2, 1, ms(100)), Assignment::Wait);
        assert_eq!(sim.core.metrics.speculative_launches(), 0);
    }

    #[test]
    fn no_backup_before_wave_mostly_done() {
        let mut sim = Sim::new(MasterConfig::default(), false);
        let (s1, s2) = (sim.signin(4), sim.signin(1));
        let src = sim.source(4);
        sim.map(src, 1);
        let Assignment::Tasks(ts) = sim.grant(s1, 4, ms(0)) else { panic!("four maps") };
        // Only half the wave is done: below the 75% speculation gate.
        for t in &ts[..2] {
            sim.done(s1, t, ms(1));
        }
        assert_eq!(sim.grant(s2, 1, ms(100)), Assignment::Wait);
        assert_eq!(sim.core.metrics.speculative_launches(), 0);
    }

    #[test]
    fn no_backup_on_the_stragglers_own_slave() {
        let mut sim = Sim::new(MasterConfig::default(), false);
        let s1 = sim.signin(4);
        let _wave = straggler_wave(&mut sim, s1, ms(1));
        // s1 now has three free slots, but a backup on the same machine
        // as the original cannot dodge that machine's slowness.
        assert_eq!(sim.grant(s1, 3, ms(100)), Assignment::Wait);
        assert_eq!(sim.core.metrics.speculative_launches(), 0);
    }

    #[test]
    fn stale_attempt_report_is_ignored_after_requeue() {
        let mut sim = Sim::new(timeout(20), false);
        let (s1, s2) = (sim.signin(1), sim.signin(1));
        let src = sim.source(1);
        let mapped = sim.map(src, 1);

        // s1 takes the task and goes silent long enough to be declared dead.
        let t1 = take1(sim.grant(s1, 1, ms(0)));
        assert_eq!(sim.grant(s2, 1, ms(40)), Assignment::Wait);
        sim.tick(ms(40));
        let t2 = take1(sim.grant(s2, 1, ms(40)));
        assert_eq!((t2.data, t2.index), (t1.data, t1.index));
        assert_ne!(t2.attempt, t1.attempt, "attempt ids are never reused");

        // s1 was merely slow, not dead: its report names the superseded
        // attempt and must not commit (no double completion later).
        sim.done(s1, &t1, ms(41));
        assert_eq!(sim.core.metrics.tasks_executed(), 0);
        sim.done(s2, &t2, ms(42));
        assert!(sim.core.plan.complete(mapped).unwrap());
        assert_eq!(sim.core.metrics.tasks_executed(), 1);
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
        let mut sim = Sim::new(MasterConfig::default(), false);
        let (s1, s2) = (sim.signin(4), sim.signin(1));
        // Three tasks complete at 40 ms, so the median runtime is 40 ms and
        // the straggler crosses the 1.5x cutoff at 60 ms.
        let (_, ts) = straggler_wave(&mut sim, s1, ms(40));
        // An idle slave parking for 900 ms is told to wake at the
        // speculation deadline instead of sleeping out its park.
        let none = JobMetrics::default();
        let (until, _) = sim.core.poll(s2, &[], &none, ms(900), sim.at(ms(40)));
        assert_eq!(until, sim.at(ms(940)));
        let (park, _) = sim.core.grant(s2, 1, until, false, sim.at(ms(40)));
        assert_eq!(park, Grant::Park(sim.at(ms(60))));
        // Woken then, it is granted the backup.
        let Grant::Now(a, _) = sim.core.grant(s2, 1, until, true, sim.at(ms(60))).0 else {
            panic!("a parked poll past its wake is answered")
        };
        let backup = take1(a);
        assert_eq!((backup.data, backup.index), (ts[3].data, ts[3].index));
        let metrics = sim.core.metrics;
        assert_eq!((metrics.speculative_launches(), metrics.longpoll_parks()), (1, 1));
        assert_eq!((metrics.longpoll_timeouts(), sim.core.parked), (0, 0));
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
    fn reports_that_complete_nothing_wake_no_driver() {
        let mut sim = Sim::new(MasterConfig::default(), false);
        let s = sim.signin(4);
        let src = sim.source(4);
        let mapped = sim.map(src, 1);
        sim.core.waiting.push(mapped);
        let Assignment::Tasks(ts) = sim.grant(s, 4, ms(0)) else { panic!("four maps") };
        for t in &ts[..3] {
            assert!(
                !sim.done(s, t, ms(1)).wake_drivers,
                "a report that completes nothing woke a driver"
            );
        }
        assert!(sim.done(s, &ts[3], ms(1)).wake_drivers, "the completed op wakes `wait`");
        assert!(sim.core.plan.complete(mapped).unwrap());
        assert!(sim.core.finish(sim.at(ms(2))).1.wake_drivers, "the end of the job wakes `wait`");
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
        assert_eq!(used.shared.state.lock().plan.entries(), 3, "the plan forgot the 500 jobs");
        assert_eq!(walked(&used), walked(&fresh), "2 maps + 1 reduce, whatever came before");
        assert_eq!(take1(used.get_tasks(s, 1)).kind, TaskKind::Map);
    }

    #[test]
    fn reopened_ops_are_walked_again() {
        let mut sim = Sim::new(timeout(20), true);
        let (s1, s2) = (sim.signin(1), sim.signin(1));
        let src = sim.source(1);
        let mapped = sim.map(src, 1);
        let t = take1(sim.grant(s1, 1, ms(0)));
        sim.done(s1, &t, ms(0));
        let live =
            |sim: &Sim| -> Vec<DataId> { sim.core.plan.live_ops().map(|(d, _)| d).collect() };
        assert_eq!(live(&sim), [], "the only op is complete");
        // s1 dies with the map's output: the op is incomplete again.
        assert_eq!(sim.grant(s2, 1, ms(40)), Assignment::Wait);
        sim.tick(ms(40));
        assert_eq!(live(&sim), [mapped]);
        assert_eq!(take1(sim.grant(s2, 1, ms(40))).index, t.index);
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
                self.frames.extend(direct_urls(self.id, t).iter().filter_map(|u| own(u)));
                let (data, index, attempt) = (t.data, t.index, t.attempt);
                self.reports.push(TaskReport { data, index, attempt, empty: vec![] });
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
        let url = format!("http://a:1/data/s{id}/d{}/t{}/b0.mrsb", report.data, report.index);
        m.task_done(id, report.data, report.index, report.attempt, vec![url.clone()]);
        assert_eq!(m.metrics().datasets_freed(), 2);
        let t = take1(m.get_tasks(id, 1));
        assert_eq!(t.data, r2.0);
        m.task_failed(id, t.data, t.index, t.attempt, "fetch", Some(&url));
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
        let src = m.local_data(records(2), 1).unwrap();
        m.keep(src);
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
        assert!(status.contains("datasets: 1 live, 0 lineage\n"), "{status}");
        assert!(status.contains("  data 0: source, 1 split(s), pinned\n"), "{status}");
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
            assert_eq!(m.shared.state.lock().plan.entries(), 1, "no op was queued");
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

    /// The tasks of a grant, as (data, index).
    fn tasks_of(grant: &Grant) -> Vec<(u32, usize)> {
        match grant {
            Grant::Now(Assignment::Tasks(ts), _) => ts.iter().map(|t| (t.data, t.index)).collect(),
            other => panic!("no tasks granted: {other:?}"),
        }
    }

    /// A direct-plane chain `src -> map -> f1 -> f2 -> f3 -> f4`, four
    /// tasks an op, on two slaves of `slots` slots, driven to where round
    /// f2 runs: the map and f1 completed, s0 ran indices 0 and 1 of f1 and
    /// s1 ran 2 and 3 (so each claims those indices of the fused shape),
    /// and f2's tasks are granted at 4 ms — s0 holds t0 and t1, s1 holds
    /// t2 and t3 — none reported. Returns the slaves, `[f2, f3, f4]` and
    /// f2's tasks.
    fn ahead_chain(sim: &mut Sim, slots: usize) -> (SlaveId, SlaveId, [DataId; 3], Vec<TaskMsg>) {
        let (s0, s1) = (sim.signin(slots), sim.signin(slots));
        let src = sim.source(4);
        let m = sim.map(src, 4);
        let f1 = sim.reducemap(m, 4);
        let f2 = sim.reducemap(f1, 4);
        let f3 = sim.reducemap(f2, 4);
        let f4 = sim.reducemap(f3, 4);
        for (round, at) in [(m, 0), (f1, 2), (f2, 4)] {
            let mut granted = Vec::new();
            for s in [s0, s1] {
                let Assignment::Tasks(ts) = sim.grant(s, 2, ms(at)) else { panic!("round {at}") };
                assert!(ts.iter().all(|t| t.data == round.0), "{ts:?}");
                granted.extend(ts.into_iter().map(|t| (s, t)));
            }
            assert_eq!(granted.iter().map(|(_, t)| t.index).collect::<Vec<_>>(), [0, 1, 2, 3]);
            if round == f2 {
                return (s0, s1, [f2, f3, f4], granted.into_iter().map(|(_, t)| t).collect());
            }
            for (s, t) in &granted {
                sim.done(*s, t, ms(at + 1));
            }
        }
        unreachable!("f2 is the third round")
    }

    /// The slave of `t` in an [`ahead_chain`]: indices 0 and 1 run on s0.
    fn runs_on(t: &TaskMsg) -> SlaveId {
        (t.index >= 2) as SlaveId
    }

    /// s0 finishes its half of round f2 while s1 still runs the other.
    /// Its poll is answered at once, not parked: the round after, f3, is
    /// granted to it ahead of its inputs — partition i of s0's committed
    /// outputs and of s1's pending ones, at the URLs s1 will enter them
    /// under.
    #[test]
    fn an_idle_slave_is_granted_the_next_round_ahead_not_parked() {
        let mut sim = Sim::new(MasterConfig::default(), true);
        let (s0, _, [_, f3, _], f2) = ahead_chain(&mut sim, 2);
        for t in &f2[..2] {
            sim.done(s0, t, ms(5));
        }
        let grant = sim.poll(s0, 2, ms(5));
        assert_eq!(tasks_of(&grant), [(f3.0, 0), (f3.0, 1)]);
        let Grant::Now(Assignment::Tasks(next), more) = grant else { unreachable!() };
        assert!(!more, "the rest of f3 is s1's");
        for t in &next {
            let want: Vec<String> =
                f2.iter().map(|p| direct_urls(runs_on(p), p)[t.index].clone()).collect();
            assert_eq!(t.inputs, want, "f3 task {}", t.index);
        }
        let m = sim.core.metrics;
        assert_eq!((m.ahead_grants(), m.longpoll_parks(), sim.core.parked), (2, 0, 0));
    }

    /// A reduce granted ahead of its inputs reports before the last map it
    /// read from: it is complete, but it settles — and wakes the driver
    /// waiting for it — only with that map's report, after which the
    /// driver's discards leave nothing live. (Woken at the reduce's own
    /// report, the driver would discard the source while the map,
    /// incomplete, still read it, and find it live until that report.)
    #[test]
    fn a_reduce_reported_before_a_map_it_read_settles_only_with_that_map() {
        let mut sim = Sim::new(MasterConfig::default(), true);
        let (s0, s1) = (sim.signin(2), sim.signin(2));
        // Two jobs of map (2 tasks) and reduce (2 tasks). The first gives
        // s0 the affinity claim to both reduce tasks.
        let mut jobs = Vec::new();
        for job in 0..2u64 {
            let src = sim.source(2);
            let m = sim.map(src, 2);
            let r = sim.reduce(m);
            jobs.push((src, m, r));
            let at = |n: u64| ms(10 * job + n);
            let map0 = take1(sim.grant(s0, 1, at(0)));
            let map1 = take1(sim.grant(s1, 1, at(0)));
            sim.done(s0, &map0, at(1));
            if job == 0 {
                sim.done(s1, &map1, at(1));
                let Assignment::Tasks(reduces) = sim.grant(s0, 2, at(2)) else { panic!() };
                for t in &reduces {
                    sim.done(s0, t, at(3));
                }
                continue;
            }
            let Grant::Now(Assignment::Tasks(ahead), _) = sim.poll(s0, 2, at(1)) else {
                panic!("no ahead grant")
            };
            assert_eq!(
                ahead.iter().map(|t| (t.data, t.index)).collect::<Vec<_>>(),
                [(r.0, 0), (r.0, 1)]
            );
            sim.core.waiting.push(r);
            for t in &ahead {
                assert!(!sim.done(s0, t, at(2)).wake_drivers, "woken before the map reported");
            }
            assert!(sim.core.plan.complete(r).unwrap());
            assert!(!sim.core.plan.settled(r).unwrap(), "settled before a map it read");
            assert!(sim.done(s1, &map1, at(3)).wake_drivers, "the map's report settles the reduce");
            assert!(sim.core.plan.settled(r).unwrap());
        }
        for (src, m, r) in jobs {
            for d in [src, m, r] {
                sim.core.discard(d, sim.at(ms(30)));
            }
        }
        assert_eq!(sim.core.metrics.live_datasets(), 0);
    }

    /// No task is granted ahead over a producer that is not dispatched, is
    /// racing a backup, or was itself granted ahead and still waits for
    /// its inputs; the poll parks instead.
    #[test]
    fn no_ahead_grant_over_an_undispatched_racing_or_waiting_producer() {
        // Undispatched: s1 has not taken its half of f2.
        let mut sim = Sim::new(MasterConfig::default(), true);
        let (s0, s1) = (sim.signin(2), sim.signin(2));
        let src = sim.source(2);
        let m = sim.map(src, 2);
        let f1 = sim.reducemap(m, 2);
        let f2 = sim.reducemap(f1, 2);
        let _f3 = sim.reducemap(f2, 2);
        for round in [m, f1] {
            for s in [s0, s1] {
                let t = take1(sim.grant(s, 1, ms(0)));
                assert_eq!(t.data, round.0);
                sim.done(s, &t, ms(1));
            }
        }
        let _ = f2;
        let mine = take1(sim.grant(s0, 1, ms(2)));
        sim.done(s0, &mine, ms(3));
        assert!(matches!(sim.poll(s0, 2, ms(3)), Grant::Park(_)), "over an undispatched producer");
        assert_eq!(sim.core.metrics.ahead_grants(), 0);

        // Racing a backup: s1's t3 of f2 straggles, and a third slave with
        // no claims backs it up.
        let mut sim = Sim::new(MasterConfig::default(), true);
        let (s0, s1, [_, _, _], f2) = ahead_chain(&mut sim, 2);
        let s2 = sim.signin(1);
        for t in &f2[..3] {
            sim.done(runs_on(t), t, ms(5));
        }
        let backup = take1(sim.grant(s2, 1, ms(20)));
        assert_eq!((backup.data, backup.index), (f2[3].data, 3));
        assert!(matches!(sim.poll(s0, 2, ms(20)), Grant::Park(_)), "over a racing producer");
        assert_eq!(sim.core.metrics.ahead_grants(), 0);
        let _ = s1;

        // Waiting: with room for a round more, s0 and s1 each take their
        // half of f3 ahead while f2 runs; f4 then reads producers that wait.
        let mut sim = Sim::new(MasterConfig::default(), true);
        let (s0, s1, [f2_id, f3, f4], f2) = ahead_chain(&mut sim, 4);
        for t in &f2[..2] {
            sim.done(s0, t, ms(5));
        }
        assert_eq!(tasks_of(&sim.poll(s0, 2, ms(5))), [(f3.0, 0), (f3.0, 1)]);
        assert_eq!(tasks_of(&sim.poll(s1, 2, ms(5))), [(f3.0, 2), (f3.0, 3)]);
        assert!(matches!(sim.poll(s0, 2, ms(6)), Grant::Park(_)), "over waiting producers");
        assert_eq!(sim.core.metrics.ahead_grants(), 4);
        // Once f2 is complete, f3's attempts wait for nothing: f4 may be
        // granted ahead of them.
        for t in &f2[2..] {
            sim.done(s1, t, ms(7));
        }
        assert!(sim.core.plan.complete(f2_id).unwrap());
        assert_eq!(tasks_of(&sim.poll(s0, 2, ms(7))), [(f4.0, 0), (f4.0, 1)]);
    }

    /// A producer's backup wins the race while s0 holds f3 granted ahead
    /// over the loser's URL. The consumer's fetch of that URL fails: it is
    /// requeued without being charged — however often — and granted again
    /// with the committed URLs, the winner's. A consumer that failed a
    /// read is never again granted ahead of its inputs.
    #[test]
    fn a_consumer_that_read_a_losers_url_is_requeued_uncharged_with_committed_urls() {
        let mut sim = Sim::new(MasterConfig::default(), true);
        let (s0, s1, [_, f3, _], f2) = ahead_chain(&mut sim, 2);
        let s2 = sim.signin(1);
        for t in &f2[..2] {
            sim.done(s0, t, ms(5));
        }
        let Grant::Now(Assignment::Tasks(ahead), _) = sim.poll(s0, 2, ms(5)) else {
            panic!("no ahead grant")
        };
        let loser_url = direct_urls(s1, &f2[3])[0].clone();
        assert_eq!(ahead[0].inputs[3], loser_url);
        // s1 reports t2; t3 straggles, s2's backup of it wins.
        sim.done(s1, &f2[2], ms(5));
        let backup = take1(sim.grant(s2, 1, ms(20)));
        sim.done(s2, &backup, ms(21));
        assert_eq!(sim.core.metrics.speculative_wins(), 1);
        // The loser is cancelled, so its URL is answered missing, again and
        // again: far more failures than the attempt cap, and no error.
        let (data, index) = (ahead[0].data, ahead[0].index);
        let mut attempt = ahead[0].attempt;
        for n in 0..2 * MAX_ATTEMPTS {
            sim.core.task_failed(
                s0,
                data,
                index,
                attempt,
                "gone",
                Some(&loser_url),
                sim.at(ms(22)),
            );
            assert!(sim.core.error.is_none(), "failure {n} was charged");
            let again = take1(sim.grant(s0, 1, ms(22)));
            assert_eq!((again.data, again.index), (data, index));
            let committed: Vec<String> = f2[..3]
                .iter()
                .map(|p| direct_urls(runs_on(p), p)[0].clone())
                .chain([direct_urls(s2, &backup)[0].clone()])
                .collect();
            assert_eq!(again.inputs, committed, "re-granted with committed URLs");
            attempt = again.attempt;
        }
        assert_eq!(sim.core.metrics.ahead_grants(), 2, "only the first grant was ahead");
        // None of those failures was charged: one failure of its own is
        // the task's first.
        sim.core.task_failed(s0, data, index, attempt, "boom", None, sim.at(ms(23)));
        assert!(sim.core.error.is_none(), "the fetch failures were charged");
        let _ = f3;

        // Failing while its inputs are still pending, a consumer waits for
        // them rather than being granted ahead again.
        let mut sim = Sim::new(MasterConfig::default(), true);
        let (s0, s1, [_, f3, _], f2) = ahead_chain(&mut sim, 2);
        for t in &f2[..2] {
            sim.done(s0, t, ms(5));
        }
        let Grant::Now(Assignment::Tasks(ahead), _) = sim.poll(s0, 2, ms(5)) else {
            panic!("no ahead grant")
        };
        let pending = direct_urls(s1, &f2[2])[0].clone();
        let t = &ahead[0];
        sim.core.task_failed(s0, t.data, t.index, t.attempt, "gone", Some(&pending), sim.at(ms(6)));
        assert!(matches!(sim.poll(s0, 1, ms(6)), Grant::Park(_)), "granted ahead again");
        for p in &f2[2..] {
            sim.done(s1, p, ms(7));
        }
        assert_eq!(tasks_of(&sim.poll(s0, 1, ms(7))), [(f3.0, 0)]);
        assert_eq!(sim.core.metrics.ahead_grants(), 2);
    }

    /// A driver waiting for the last dataset of a three-round chain is
    /// woken by its completion alone: the rounds before complete without
    /// a driver wake.
    #[test]
    fn only_the_waited_for_completion_wakes_the_driver() {
        let mut sim = Sim::new(MasterConfig::default(), false);
        let s = sim.signin(4);
        let src = sim.source(2);
        let m = sim.map(src, 2);
        let f = sim.reducemap(m, 2);
        let last = sim.reduce(f);
        sim.core.waiting.push(last);
        let mut wakes = Vec::new();
        for at in 0..3 {
            let Assignment::Tasks(ts) = sim.grant(s, 4, ms(at)) else { panic!("round {at}") };
            for t in &ts {
                wakes.push((t.data, sim.done(s, t, ms(at)).wake_drivers));
            }
        }
        let woke: Vec<u32> = wakes.iter().filter(|(_, w)| *w).map(|(d, _)| *d).collect();
        assert_eq!(woke, [last.0], "{wakes:?}");
        assert_eq!(wakes.len(), 6, "two tasks a round");
    }
}
