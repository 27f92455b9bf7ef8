//! The slave: poll the master, execute tasks, serve outputs.
//!
//! A slave "needs only the master's address and port to connect" (§IV).
//! On the direct data plane it keeps each task output as the bucket the
//! kernel returned and serves it to peers over its built-in HTTP data
//! server, framing it only when a peer asks; on the shared-filesystem
//! plane it writes framed bucket files to the common store.
//!
//! A slave is multicore-aware: it advertises a slot count at signin and
//! runs that many worker threads beside its polling thread, and nothing
//! else. Capacity is one more than the worker count: while every worker
//! runs, one more accepted task waits in the queue, so a round's two tasks
//! ride one poll. The polling thread never fetches data — a slow or dead
//! peer can stall a worker without silencing the control heartbeat.
//!
//! The workers are the pool's (the crate-private `workers`): a slave is a
//! pool whose inputs are remote. This module supplies their source — the
//! accepted queue —, the fetch each worker runs inside its attempt, and
//! their sink — the report to the master. The fetch costs one pipelined
//! round trip per peer ([`crate::proto::fetch_buckets`]). An input this
//! slave produced itself costs no bytes and no codec work: it is taken
//! from the output table by reference count, as on the pool (§IV-B's
//! writer reading its own local files).
//!
//! What a slave counts — bytes fetched, merge runs — it tallies beside its
//! pipe and drains into the next poll it sends anyway, so the master's
//! metrics are the cluster's. A task's counts enter the tally no later
//! than its report is queued, so they never reach the master after it.
//!
//! Every message to the master is a poll, except a failure report: a
//! completion rides the next poll. When a poll is answered `Exit` the job
//! is over, and the slave stops exactly as when it loses its master:
//! queued work and unsent reports are dropped, since nothing they could
//! tell the master would change what its driver sees.
//!
//! The slave is written against the [`MasterLink`] trait so the same loop
//! runs over real XML-RPC (production/distributed tests) or direct method
//! calls (scheduler unit tests).

use crate::master::SlaveId;
use crate::metrics::{Counter, JobMetrics};
use crate::proto::{
    fetch_buckets, trace_op, Assignment, CancelOrder, DataPlane, Dispatch, TaskMsg, TaskReport,
    TraceBatch,
};
use crate::workers::{
    bucket_path, join, sorted_run, trace_abandoned, Attempt, Done, Failure, Input, Plane, Workers,
};
use mrs_codec::CompressMode;
use mrs_core::{Bucket, Error, Program, Result};
use mrs_fs::format::write_bucket;
use mrs_fs::Store;
use mrs_rpc::{DataServer, Provider};
use mrs_trace::{Recorder, Tag, TraceHandle, POLL_LANE};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The slave's view of the master.
pub trait MasterLink: Send + Sync {
    /// Register, advertising how many assignments this slave can hold at
    /// once; returns the slave id.
    fn signin(&self, authority: &str, slots: usize) -> Result<SlaveId>;
    /// Poll for work with `free` idle slots (the master may grant up to
    /// `free` tasks in one batch), delivering piggybacked completion
    /// `reports` and the `counts` tallied since the last poll, and asking
    /// the master to hold the request up to `park` when nothing is
    /// runnable (long-poll dispatch). The `trace` batch
    /// piggybacks this slave's trace-event delta (empty when tracing is
    /// off). The answer is a full [`Dispatch`] — the assignment plus the
    /// purge and cancel orders queued for this slave — and the hint that
    /// runnable work was left ungranted for it, which decides whether its
    /// next completion is worth a poll of its own.
    fn poll(
        &self,
        slave: SlaveId,
        free: usize,
        park: Duration,
        reports: Vec<TaskReport>,
        counts: JobMetrics,
        trace: TraceBatch,
    ) -> Result<(Dispatch, bool)>;
    /// Report a failed attempt. `failed_input` is the input URL that could
    /// not be fetched, when the failure was a fetch failure.
    fn task_failed(
        &self,
        slave: SlaveId,
        data: u32,
        index: usize,
        attempt: u32,
        msg: &str,
        failed_input: Option<&str>,
    ) -> Result<()>;
}

/// In-process link: call the master directly (unit tests, benchmarks).
impl MasterLink for crate::master::Master {
    fn signin(&self, authority: &str, slots: usize) -> Result<SlaveId> {
        Ok(crate::master::Master::signin(self, authority, slots))
    }
    fn poll(
        &self,
        slave: SlaveId,
        free: usize,
        park: Duration,
        reports: Vec<TaskReport>,
        counts: JobMetrics,
        trace: TraceBatch,
    ) -> Result<(Dispatch, bool)> {
        Ok(crate::master::Master::poll(self, slave, free, park, &reports, &counts, &trace))
    }
    fn task_failed(
        &self,
        slave: SlaveId,
        data: u32,
        index: usize,
        attempt: u32,
        msg: &str,
        failed_input: Option<&str>,
    ) -> Result<()> {
        crate::master::Master::task_failed(self, slave, data, index, attempt, msg, failed_input);
        Ok(())
    }
}

/// Slave tuning knobs.
#[derive(Clone, Debug)]
pub struct SlaveOptions {
    /// Longest a busy slave stays away from the master: with nothing to
    /// ask for it polls this often anyway — its heartbeat, and the ride
    /// out for any completion report it is holding.
    pub max_poll_interval: Duration,
    /// Concurrent task slots (worker threads). Defaults to the number of
    /// available CPU cores.
    pub slots: usize,
    /// Server-side park requested on fully-idle polls.
    /// The master clamps it to its own `long_poll_timeout` and to half its
    /// slave death timeout, so requesting generously is safe.
    pub long_poll: Duration,
    /// Shuffle payload compression policy for this slave's outputs
    /// (`--mrs-compress`). Consumers auto-detect, so slaves with
    /// different settings interoperate.
    pub compress: CompressMode,
    /// Record task-attempt trace events (on by default; `--mrs-no-trace`
    /// turns it off). Events are shipped to the master piggybacked on the
    /// poll loop; the recorder is bounded, so tracing never grows memory
    /// without bound and costs one uncontended lock per event.
    pub trace: bool,
    /// Test-only straggler injection, `(data, index, ms)`: before running
    /// any attempt of the named task this slave sleeps the given
    /// milliseconds (checking its cancellation flag, so a backed-up
    /// straggler aborts promptly). A backup runs clean on a slave not
    /// given the delay.
    pub test_delays: Vec<(u32, usize, u64)>,
}

impl Default for SlaveOptions {
    fn default() -> Self {
        SlaveOptions {
            max_poll_interval: Duration::from_millis(50),
            slots: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            long_poll: Duration::from_secs(1),
            compress: CompressMode::default(),
            trace: true,
            test_delays: Vec::new(),
        }
    }
}

/// The accepted-task queue shared between the polling thread and the
/// workers.
#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    /// Wakes workers when tasks are queued (or on shutdown).
    cv: Condvar,
    /// Wakes the polling thread on worker events worth a poll: the slave
    /// went idle, a slot was freed that can be refilled (or shutdown).
    poll_cv: Condvar,
}

#[derive(Default)]
struct PipeState {
    /// Assignments accepted from the master that no worker has taken yet.
    /// The stamp is the recorder time the assignment arrived (0
    /// untraced), so the attempt span can reach back to acceptance.
    queue: VecDeque<(TaskMsg, u64)>,
    /// Assignments accepted from the master and not yet reported back.
    in_flight: usize,
    /// Completions waiting to ride on the next poll.
    reports: Vec<TaskReport>,
    /// What this slave counted since its last poll; the next one carries
    /// it. A task's counts land here before (or with) its report.
    tally: JobMetrics,
    /// The last poll answer said runnable work was left ungranted: a freed
    /// slot can be refilled, so a completion is worth a poll of its own.
    more: bool,
    /// Cancellation flags of the attempts workers hold, keyed by (data,
    /// index, attempt). A cancel order for such an attempt sets its flag;
    /// its fetch observes it between peers, its kernel at the next
    /// record/group boundary, and its sink before entering any output.
    active: HashMap<(u32, usize, u32), Arc<AtomicBool>>,
    /// Stop immediately and silently — crash semantics (the fault-injection
    /// hook), a lost control channel, or the end of the job. Nothing
    /// further is reported.
    halt: bool,
}

impl Pipe {
    fn shut_down(&self) {
        self.state.lock().halt = true;
        self.cv.notify_all();
        self.poll_cv.notify_all();
    }

    /// Queue the tasks one poll answer granted for the workers, with the
    /// answer's `more` hint in the same critical section, so no completion
    /// is judged by a stale one.
    fn enqueue(&self, tasks: Vec<TaskMsg>, accepted_us: u64, more: bool) {
        let mut st = self.state.lock();
        st.more = more;
        let queued = tasks.len();
        st.in_flight += queued;
        st.queue.extend(tasks.into_iter().map(|task| (task, accepted_us)));
        drop(st);
        for _ in 0..queued {
            self.cv.notify_one();
        }
    }

    /// Apply attempt-cancellation orders piggybacked on a dispatch. A loser
    /// still queued is dropped before it runs, freeing its slot at once;
    /// one a worker holds — fetching, running or about to report — gets
    /// its cooperative flag set. An order that finds neither names an
    /// attempt this slave has already finished, and is a no-op: the master
    /// orders cancels only for attempts it dispatched in an earlier answer,
    /// each answer is applied before the next poll is sent, and every move
    /// of an attempt between the queue, `active` and the reports is one
    /// lock section. A dequeued loser still shows on the timeline — its
    /// accepted→cancelled span and `Cancel` instant land on the poll lane,
    /// since no worker ever owned it.
    fn apply_cancels(&self, orders: &[CancelOrder], th: Option<&TraceHandle>) {
        let mut st = self.state.lock();
        let mut dequeued: Vec<(TaskMsg, u64)> = Vec::new();
        for o in orders {
            let id = (o.data, o.index, o.attempt);
            if let Some(pos) = st.queue.iter().position(|(t, _)| key(t) == id) {
                dequeued.extend(st.queue.remove(pos));
            } else if let Some(flag) = st.active.get(&id) {
                flag.store(true, Ordering::Relaxed);
            }
        }
        st.in_flight -= dequeued.len();
        drop(st);
        for (t, accepted_us) in &dequeued {
            trace_abandoned(th, *accepted_us, task_tag(t));
        }
        if !dequeued.is_empty() {
            self.poll_cv.notify_all();
        }
    }
}

/// Run the slave loop until the master says `Exit`, the link dies, or
/// `stop` is set (the fault-injection hook: a stopped slave goes silent
/// exactly like a crashed process). Every way out abandons queued and
/// running work unreported.
pub fn run_slave(
    link: &dyn MasterLink,
    program: Arc<dyn Program>,
    plane: DataPlane,
    opts: &SlaveOptions,
    stop: &AtomicBool,
) -> Result<()> {
    // The output table and (direct plane) the data server for peers: a
    // peer's GET frames the bucket it names, and this slave's own reduce
    // inputs are taken from the table without a socket or a codec.
    let outputs = Arc::new(Outputs::default());
    let (server, shared) = match &plane {
        DataPlane::Direct => {
            let provider = serve_outputs(&outputs, opts.compress);
            (Some(DataServer::serve(0, provider).map_err(Error::Io)?), None)
        }
        DataPlane::SharedFs(store) => (None, Some(store)),
    };
    let authority = server.as_ref().map(|s| s.authority()).unwrap_or_else(|| "shared".into());

    let slots = opts.slots.max(1);
    // Advertise one slot beyond the worker count: while all workers run,
    // one more assignment waits in the queue, so one poll carries a
    // round's next two tasks rather than each costing a poll of its own.
    let capacity = slots + 1;
    let id = link.signin(&authority, capacity)?;

    let slave = Slave {
        link,
        id,
        pipe: Pipe::default(),
        outputs: &outputs,
        server: server.as_ref(),
        shared,
        delays: &opts.test_delays,
    };
    let pipe = &slave.pipe;
    // Trace recording: one recorder per slave, one handle (ring shard)
    // per recording thread.
    let rec = opts.trace.then(Recorder::new);
    let poll_handle = rec.as_ref().map(|r| r.handle(POLL_LANE));
    let workers = Workers {
        program: program.as_ref(),
        store: shared.map(|store| (&**store, opts.compress)),
        slots,
        trace: rec.as_ref(),
    };
    std::thread::scope(|s| {
        // Workers fetch their own inputs, so a slow or dead peer stalls
        // only the worker waiting on it: the polling thread keeps
        // heartbeating, and fetch failures report standalone so recovery
        // starts immediately.
        let workers = workers.spawn(s, &slave);
        // The round-trip measured around the *previous* poll, shipped with
        // the next trace batch so the master's clock sync can bound the
        // one-way delay. Until a round-trip exists the batch stays empty —
        // an unmeasured sample would lock the min-RTT filter onto a bogus
        // offset.
        let mut prev_rtt_us: Option<u64> = None;
        let main_res: Result<()> = loop {
            if stop.load(Ordering::SeqCst) {
                pipe.shut_down();
                break Ok(());
            }
            if pipe.state.lock().halt {
                // A worker lost the control channel; nothing left to do.
                break Ok(());
            }
            // Occupancy, pending reports and the tally, read in one lock
            // section: every report leaves with its task's counts.
            let (free, reports, counts) = {
                let mut st = pipe.state.lock();
                let reports = std::mem::take(&mut st.reports);
                (capacity.saturating_sub(st.in_flight), reports, std::mem::take(&mut st.tally))
            };
            // Park server-side only when fully idle: with workers running,
            // a local completion could otherwise sit behind our own parked
            // request, so a busy slave polls without parking and waits
            // locally on the worker condvar instead.
            let park = if free == capacity { opts.long_poll } else { Duration::ZERO };
            // Drain the trace delta *after* taking the reports: any event a
            // worker recorded before queueing its report is guaranteed to
            // ride the same (or an earlier) poll as the report itself.
            let batch = match (&rec, prev_rtt_us) {
                (Some(r), Some(rtt_us)) => {
                    let (events, dropped) = r.drain();
                    TraceBatch { sent_at_us: r.now_us(), rtt_us, dropped, events }
                }
                _ => TraceBatch::default(),
            };
            let polled_at = Instant::now();
            let answer = link.poll(id, free, park, reports, counts, batch).map(|(d, more)| {
                slave.apply_orders(&d, poll_handle.as_ref());
                (d.assignment, more)
            });
            if rec.is_some() {
                // Parked long-polls inflate this sample; the master's
                // min-RTT filter discards inflated ones on its own.
                prev_rtt_us = Some(polled_at.elapsed().as_micros() as u64);
            }
            match answer {
                // The job is over, or the master has vanished — a normal end
                // of life for a slave: the paper's launch scripts tear
                // everything down together (the scheduler "kills processes
                // as soon as a job completes"). `Exit` is only answered once
                // the job has finished or failed, so nothing left to report
                // could change what the driver sees.
                Ok((Assignment::Exit, _)) | Err(Error::Rpc(_)) => {
                    pipe.shut_down();
                    break Ok(());
                }
                Ok((assignment, more)) => {
                    let tasks = match assignment {
                        Assignment::Tasks(tasks) => tasks,
                        _ => Vec::new(),
                    };
                    let accepted_us = rec.as_ref().map(|r| r.now_us()).unwrap_or(0);
                    pipe.enqueue(tasks, accepted_us, more);
                }
                Err(e) => {
                    pipe.shut_down();
                    break Err(e);
                }
            }
            // The next poll goes out when it can change something. An idle
            // slave polls at once (it parks at the master, and its reports
            // may close a wave); so does one with a free slot that was told
            // more is runnable. A busy slave told nothing is left holds only
            // reports the master cannot act on: it waits for a worker event
            // (going idle, a slot freed by a failure or a cancel), bounded
            // so that the empty request is its heartbeat and hears `Exit`.
            let mut st = pipe.state.lock();
            if st.in_flight > 0 && !(st.more && st.in_flight < capacity) && !st.halt {
                pipe.poll_cv.wait_for(&mut st, opts.max_poll_interval);
            }
        };

        main_res.and(join(workers))
    })
}

/// What a slave's polling thread and its workers' source, fetch and sink
/// share.
struct Slave<'a> {
    link: &'a dyn MasterLink,
    id: SlaveId,
    pipe: Pipe,
    outputs: &'a Outputs,
    /// The data server peers fetch this slave's outputs from (direct
    /// plane only).
    server: Option<&'a DataServer>,
    /// The shared-filesystem plane's store.
    shared: Option<&'a Arc<dyn Store>>,
    delays: &'a [(u32, usize, u64)],
}

impl Slave<'_> {
    /// Apply the orders a poll answer carries, before its tasks are
    /// queued. Cancels go first: an order for an attempt a worker holds
    /// raises its flag, and the sink never enters the outputs of a flagged
    /// attempt, so the purge that follows finds every output a loser of
    /// the purged dataset will ever enter. Lifetime-GC purges then take
    /// spent datasets off the output table, so long-running iterative jobs
    /// hold O(1) intermediate data, not O(iterations) — and a granted task
    /// that rebuilds a reclaimed dataset writes under the same paths only
    /// after its previous life's buckets are gone. Cancel orders never
    /// name a task granted in the same answer (they are issued for
    /// attempts dispatched earlier), so applying them before the
    /// assignment is queued is safe.
    fn apply_orders(&self, d: &Dispatch, th: Option<&TraceHandle>) {
        self.pipe.apply_cancels(&d.cancel, th);
        for prefix in &d.purge {
            self.outputs.lock().retain(|path, _| !path.starts_with(prefix.as_str()));
        }
    }

    /// Report a failed attempt standalone, so recovery starts at once,
    /// blaming the input it could not read, and wake the polling thread
    /// for the slot it freed. A lost master stops the slave quietly, as a
    /// failed poll does; any other error loudly.
    fn report_failure(&self, task: &TaskMsg, failure: Failure) -> Result<()> {
        let (msg, input) = (failure.error.to_string(), failure.input.map(|i| &*task.inputs[i]));
        let sent = self.link.task_failed(self.id, task.data, task.index, task.attempt, &msg, input);
        self.pipe.poll_cv.notify_all();
        if sent.is_err() {
            self.pipe.shut_down();
        }
        match sent {
            Err(Error::Rpc(_)) => Ok(()),
            sent => sent,
        }
    }
}

/// The workers' source, fetch and sink on a slave.
impl Plane for Slave<'_> {
    type Task = TaskMsg;

    /// The next accepted task, its inputs left to [`Plane::fetch`]. Its
    /// cancellation flag is registered in the lock section that dequeues
    /// it, so a cancel order lands on the queue entry or on the flag —
    /// never in a gap between. `None` once the slave halts.
    fn next(&self, _: Option<&TraceHandle>) -> Option<Attempt<TaskMsg>> {
        let mut st = self.pipe.state.lock();
        let (task, since_us) = loop {
            if st.halt {
                return None;
            }
            if let Some(entry) = st.queue.pop_front() {
                break entry;
            }
            self.pipe.cv.wait(&mut st);
        };
        let cancel = Arc::new(AtomicBool::new(false));
        st.active.insert(key(&task), Arc::clone(&cancel));
        drop(st);
        // Straggler injection (test-only). The sleep is sliced to observe
        // the cancellation flag promptly.
        if let Some(&(_, _, ms)) =
            self.delays.iter().find(|&&(d, i, _)| d == task.data && i == task.index)
        {
            let deadline = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < deadline
                && !cancel.load(Ordering::Relaxed)
                && !self.pipe.state.lock().halt
            {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let (spec, tag) = (task.spec(), task_tag(&task));
        Some(Attempt { task, spec, tag, since_us, inputs: None, cancel: Some(cancel) })
    }

    fn fetch(
        &self,
        task: &TaskMsg,
        cancel: Option<&AtomicBool>,
        tally: &mut JobMetrics,
    ) -> std::result::Result<Vec<Input>, Failure> {
        let authority = self.server.map(|s| s.authority());
        let own = authority.as_deref().map(|authority| (authority, self.outputs));
        fetch_inputs(&task.inputs, self.shared, own, cancel, tally)
    }

    fn stem(&self, tag: &Tag) -> String {
        format!("s{}/d{}/t{}", self.id, tag.data, tag.index)
    }

    /// In one lock section — the one a cancel order takes to raise the
    /// attempt's flag — free the slot, count the attempt and, unless the
    /// flag is raised, enter its outputs and queue its report: the poll
    /// that takes the report takes its counts too. A completion is queued
    /// to ride the next poll (one fewer control RPC per task); a failure
    /// reports standalone; a cancelled attempt — another attempt already
    /// won at the master's commit point — is abandoned silently, whatever
    /// it came back with. A halted slave goes silent (crash semantics).
    fn finish(&self, done: Done<TaskMsg>, _: Option<&TraceHandle>) -> Result<()> {
        let Done { task, spec, tag, outcome, tally, .. } = done;
        // On the direct plane each output stays the bucket itself, framed
        // when a peer asks for it; its sorted-run claim (a scan, for a
        // reduce's) is read before the lock section. A shared store holds
        // the frames.
        let claim = |b: Arc<Bucket>| (self.server.is_some() && sorted_run(&spec, &b), b);
        let outcome = outcome.map(|out| out.into_iter().map(claim).collect::<Vec<_>>());
        let mut st = self.pipe.state.lock();
        let flag = st.active.remove(&key(&task));
        if st.halt {
            return Ok(());
        }
        st.tally.merge(&tally);
        st.in_flight -= 1;
        let cancelled = flag.is_some_and(|flag| flag.load(Ordering::Relaxed));
        match outcome {
            Ok(outputs) if !cancelled => {
                let stem = self.stem(&tag);
                let name = |(p, (sorted, bucket)): (usize, (bool, Arc<Bucket>))| {
                    let path = bucket_path(&stem, p);
                    let Some(server) = self.server else { return format!("file://{path}") };
                    let url = server.url_for(&path);
                    self.outputs.lock().insert(path, (bucket, sorted));
                    url
                };
                let urls = outputs.into_iter().enumerate().map(name).collect();
                let TaskMsg { data, index, attempt, .. } = task;
                st.reports.push(TaskReport { data, index, attempt, urls });
                // Worth a poll of its own only if it may close a wave (the
                // slave is now idle) or the freed slot can be refilled;
                // otherwise it rides the poll made anyway.
                if st.in_flight == 0 || st.more {
                    self.pipe.poll_cv.notify_all();
                }
                Ok(())
            }
            Err(failure) if !cancelled && !matches!(failure.error, Error::Cancelled) => {
                drop(st);
                self.report_failure(&task, failure)
            }
            _ => {
                drop(st);
                self.pipe.poll_cv.notify_all();
                Ok(())
            }
        }
    }
}

/// A direct-plane slave's task outputs by path: each the bucket the
/// kernel returned, with whether its frame claims a sorted run. This
/// slave's own reduce inputs are taken from here by reference count; a
/// frame is built only when a peer asks for one ([`serve_outputs`]). A
/// re-executed task overwrites its paths; purge orders remove them.
type Outputs = Mutex<HashMap<String, (Arc<Bucket>, bool)>>;

/// The data server's provider: each GET frames the bucket it names,
/// compressed per this slave's policy. The frame is not kept — a bucket
/// is normally fetched once, and a kept frame would only hold memory
/// beside its bucket.
fn serve_outputs(outputs: &Arc<Outputs>, compress: CompressMode) -> Provider {
    let outputs = Arc::clone(outputs);
    Arc::new(move |path: &str| {
        let (bucket, sorted) = outputs.lock().get(path).cloned()?;
        Some(mrs_codec::encode_vec_sorted(write_bucket(&bucket), compress, sorted).into())
    })
}

/// Resolve every input URL, in input order (the determinism oracle
/// depends on it). A URL naming one of this slave's own outputs (`own`:
/// its data server authority and output table) is taken from the table
/// and counted as a short circuit; the rest are fetched with
/// [`fetch_buckets`], one round trip per peer. The first failing input
/// makes the [`Failure`], naming it; once `cancel` is set the remaining
/// fetches are skipped and the failure is a cancellation. What the fetch
/// counted is added to `tally`.
fn fetch_inputs(
    urls: &[String],
    shared: Option<&Arc<dyn Store>>,
    own: Option<(&str, &Outputs)>,
    cancel: Option<&AtomicBool>,
    tally: &mut JobMetrics,
) -> std::result::Result<Vec<Input>, Failure> {
    // The table path of each URL that names one of this slave's outputs.
    let own_paths: Vec<Option<&str>> = urls
        .iter()
        .map(|url| {
            let (authority, _) = own?;
            url.strip_prefix("http://")?.strip_prefix(authority)?.strip_prefix("/data/")
        })
        .collect();
    let remote = urls.iter().zip(&own_paths).filter(|(_, path)| path.is_none());
    let remote: Vec<&str> = remote.map(|(url, _)| url.as_str()).collect();
    let mut fetched = fetch_buckets(&remote, shared, cancel, tally).into_iter();
    own_paths
        .into_iter()
        .enumerate()
        .map(|(i, own_path)| {
            let input = match own_path.zip(own) {
                Some((path, (_, outputs))) => match outputs.lock().get(path) {
                    Some((bucket, _)) => {
                        tally.add(Counter::ShortcircuitFetches, 1);
                        Ok(Input::Own(Arc::clone(bucket)))
                    }
                    None => Err(Error::MissingData(format!("own bucket {path} is gone"))),
                },
                None => fetched.next().expect("one result per fetched url").map(Input::Wire),
            };
            input.map_err(|error| Failure { error, input: Some(i) })
        })
        .collect()
}

/// The trace tag of a task attempt.
fn task_tag(task: &TaskMsg) -> Tag {
    Tag::task(trace_op(&task.spec()), task.data, task.index, task.attempt)
}

/// The identity of a task attempt: (data, index, attempt).
fn key(task: &TaskMsg) -> (u32, usize, u32) {
    (task.data, task.index, task.attempt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobApi;
    use crate::master::{Master, MasterConfig};
    use crate::proto::TaskKind;
    use mrs_core::kv::encode_record;
    use mrs_core::task::run_task;
    use mrs_core::TaskSpec;
    use mrs_core::{Datum, MapReduce, Simple};
    use mrs_fs::MemFs;
    use std::sync::atomic::AtomicUsize;

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
    }

    /// Bucket bytes as every producer stores them: framed.
    fn framed(records: &[mrs_core::Record]) -> Vec<u8> {
        mrs_codec::encode_vec(mrs_fs::format::write_bucket_bytes(records), CompressMode::default())
    }

    fn input() -> Vec<mrs_core::Record> {
        ["a b a", "b c"]
            .iter()
            .enumerate()
            .map(|(i, l)| encode_record(&(i as u64), &l.to_string()))
            .collect()
    }

    /// Drive a full job with in-process slaves over the direct data plane:
    /// real HTTP data servers, no RPC layer.
    #[test]
    fn slave_loop_executes_job_direct_plane() {
        let master = Master::new(MasterConfig::default(), DataPlane::Direct).unwrap();
        let program: Arc<dyn Program> = Arc::new(Simple(WordCount));
        let stop = Arc::new(AtomicBool::new(false));
        let slaves: Vec<_> = (0..2)
            .map(|_| {
                let m = master.clone();
                let p = Arc::clone(&program);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    run_slave(&m, p, DataPlane::Direct, &SlaveOptions::default(), &stop)
                })
            })
            .collect();

        let mut driver = master.clone();
        let src = driver.local_data(input(), 2).unwrap();
        let mapped = driver.map_data(src, 0, 2, false).unwrap();
        let reduced = driver.reduce_data(mapped, 0).unwrap();
        let out = driver.fetch_all(reduced).unwrap();
        let mut counts: Vec<(String, u64)> = out
            .iter()
            .map(|(k, v)| (String::from_bytes(k).unwrap(), u64::from_bytes(v).unwrap()))
            .collect();
        counts.sort();
        assert_eq!(counts, vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)]);

        master.finish();
        for s in slaves {
            s.join().unwrap().unwrap();
        }
    }

    #[test]
    fn slave_loop_executes_job_shared_fs() {
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let plane = DataPlane::SharedFs(Arc::clone(&store));
        let master = Master::new(MasterConfig::default(), plane.clone()).unwrap();
        let program: Arc<dyn Program> = Arc::new(Simple(WordCount));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let m = master.clone();
            let p = Arc::clone(&program);
            let plane = plane.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_slave(&m, p, plane, &SlaveOptions::default(), &stop))
        };

        let mut driver = master.clone();
        let src = driver.local_data(input(), 1).unwrap();
        let mapped = driver.map_data(src, 0, 3, false).unwrap();
        let reduced = driver.reduce_data(mapped, 0).unwrap();
        let out = driver.fetch_all(reduced).unwrap();
        assert_eq!(out.len(), 3);

        master.finish();
        handle.join().unwrap().unwrap();
    }

    /// A multi-slot slave alone must still produce correct output (its
    /// workers preserve task semantics). Every reduce input is its own, so
    /// each is a short circuit.
    #[test]
    fn multislot_slave_executes_job() {
        let master = Master::new(MasterConfig::default(), DataPlane::Direct).unwrap();
        let program: Arc<dyn Program> = Arc::new(Simple(WordCount));
        let stop = Arc::new(AtomicBool::new(false));
        let opts = SlaveOptions { slots: 4, ..SlaveOptions::default() };
        let handle = {
            let m = master.clone();
            let p = Arc::clone(&program);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_slave(&m, p, DataPlane::Direct, &opts, &stop))
        };

        let mut driver = master.clone();
        let src = driver.local_data(input(), 2).unwrap();
        let mapped = driver.map_data(src, 0, 4, false).unwrap();
        let reduced = driver.reduce_data(mapped, 0).unwrap();
        let out = driver.fetch_all(reduced).unwrap();
        let mut counts: Vec<(String, u64)> = out
            .iter()
            .map(|(k, v)| (String::from_bytes(k).unwrap(), u64::from_bytes(v).unwrap()))
            .collect();
        counts.sort();
        assert_eq!(counts, vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)]);
        assert_eq!(master.metrics().shortcircuit_fetches(), 2 * 4, "one per map-output bucket");

        master.finish();
        handle.join().unwrap().unwrap();
    }

    /// What one poll carried.
    #[derive(Clone, Debug, PartialEq)]
    struct Polled {
        free: usize,
        park: Duration,
        /// (data, index) of every piggybacked report.
        reports: Vec<(u32, usize)>,
        /// The output URLs of every piggybacked report, in order.
        urls: Vec<String>,
        /// The merge runs in the poll's tally.
        merge_runs: u64,
    }

    /// A master that plays a script: every poll is logged and answered by
    /// `answer(n, log)` — `n` counts polls from 1 and `log[n - 1]` is the
    /// poll being answered. Failure reports are logged and handed to
    /// `on_failed`.
    struct Script<F> {
        answer: F,
        on_failed: fn(&Gate),
        gate: Arc<Gate>,
        polls: Mutex<Vec<Polled>>,
        failed: Mutex<Vec<(u32, usize)>>,
        /// (message, failed input) of every failure report.
        failed_inputs: Mutex<Vec<(String, Option<String>)>>,
    }

    impl<F> Script<F> {
        fn new(gate: &Arc<Gate>, answer: F) -> Arc<Self> {
            Arc::new(Script {
                answer,
                on_failed: |_| {},
                gate: Arc::clone(gate),
                polls: Mutex::default(),
                failed: Mutex::default(),
                failed_inputs: Mutex::default(),
            })
        }
    }

    /// Reports seen so far, over all polls.
    fn reported(log: &[Polled]) -> usize {
        log.iter().map(|p| p.reports.len()).sum()
    }

    impl<F> MasterLink for Script<F>
    where
        F: Fn(usize, &[Polled]) -> (Dispatch, bool) + Send + Sync,
    {
        fn signin(&self, _authority: &str, _slots: usize) -> Result<SlaveId> {
            Ok(0)
        }
        fn poll(
            &self,
            _slave: SlaveId,
            free: usize,
            park: Duration,
            reports: Vec<TaskReport>,
            counts: JobMetrics,
            _trace: TraceBatch,
        ) -> Result<(Dispatch, bool)> {
            let mut polls = self.polls.lock();
            let urls = reports.iter().flat_map(|r| r.urls.clone()).collect();
            let reports = reports.iter().map(|r| (r.data, r.index)).collect();
            polls.push(Polled { free, park, reports, urls, merge_runs: counts.merge_runs() });
            Ok((self.answer)(polls.len(), &polls))
        }
        fn task_failed(
            &self,
            _: SlaveId,
            data: u32,
            index: usize,
            _: u32,
            msg: &str,
            input: Option<&str>,
        ) -> Result<()> {
            self.failed.lock().push((data, index));
            self.failed_inputs.lock().push((msg.to_owned(), input.map(str::to_owned)));
            (self.on_failed)(&self.gate);
            Ok(())
        }
    }

    fn answer(assignment: Assignment, more: bool) -> (Dispatch, bool) {
        (Dispatch { assignment, purge: Vec::new(), eager: Vec::new(), cancel: Vec::new() }, more)
    }

    /// Map task `index` of dataset 1 over the one-record split `src{index}`.
    fn map_task(index: usize) -> TaskMsg {
        TaskMsg {
            data: 1,
            index,
            kind: TaskKind::Map,
            func: 0,
            map_func: 0,
            parts: 1,
            combine: false,
            attempt: 1,
            inputs: vec![format!("file://src{index}")],
        }
    }

    /// A gate in the middle of a map function: the interleaving "the
    /// second task is still running", forced rather than slept for.
    #[derive(Default)]
    struct Gate {
        /// (a map call is waiting at the gate, the gate is open)
        state: Mutex<(bool, bool)>,
        cv: Condvar,
    }

    impl Gate {
        fn pass(&self) {
            let mut g = self.state.lock();
            g.0 = true;
            self.cv.notify_all();
            while !g.1 {
                self.cv.wait(&mut g);
            }
        }
        fn open(&self) {
            self.state.lock().1 = true;
            self.cv.notify_all();
        }
        fn await_arrival(&self) {
            let mut g = self.state.lock();
            while !g.0 {
                self.cv.wait(&mut g);
            }
        }
    }

    /// WordCount whose map of the record keyed 1 stops at the gate.
    struct Gated(Arc<Gate>);

    impl MapReduce for Gated {
        type K1 = u64;
        type V1 = String;
        type K2 = String;
        type V2 = u64;

        fn map(&self, k: u64, v: &str, emit: &mut dyn FnMut(&str, u64)) {
            if k == 1 {
                self.0.pass();
            }
            WordCount.map(k, v, emit);
        }

        fn reduce(&self, k: &str, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
            WordCount.reduce(k, vs, emit);
        }
    }

    /// A store holding `input()` as the one-record splits `src0`, `src1`:
    /// task 0 runs free, task 1 stops at the gate.
    fn split_store() -> Arc<dyn Store> {
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        for (i, record) in input().into_iter().enumerate() {
            store.put(&format!("src{i}"), &framed(&[record])).unwrap();
        }
        store
    }

    /// Run a one-worker slave against `link` until it exits on its own; a
    /// slave that sleeps where it should poll hangs, and fails after 20 s.
    fn run_scripted(
        link: Arc<dyn MasterLink>,
        gate: &Arc<Gate>,
        store: &Arc<dyn Store>,
        max_poll_interval: Duration,
    ) {
        let opts = SlaveOptions { max_poll_interval, slots: 1, ..SlaveOptions::default() };
        let program: Arc<dyn Program> = Arc::new(Simple(Gated(Arc::clone(gate))));
        let plane = DataPlane::SharedFs(Arc::clone(store));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let slave = std::thread::spawn(move || {
            let r = run_slave(&*link, program, plane, &opts, &AtomicBool::new(false));
            let _ = done_tx.send(r);
        });
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("slave slept where it should have polled")
            .unwrap();
        slave.join().unwrap();
    }

    /// Longer than any test runs: a wait this long only ends by a wake.
    const NEVER: Duration = Duration::from_secs(60);

    /// An idle slave whose park is cut short by a delivery goes straight
    /// back to the master with the same park: the first (fully idle) poll
    /// is answered `Wait` plus one cancel order — what a long-polling
    /// master does when it cuts a park short to hand orders over — the
    /// second grants one map task, and the report ends the script.
    #[test]
    fn early_wait_with_deliveries_is_reparked_not_slept_on() {
        let gate = Arc::new(Gate::default());
        let link = Script::new(&gate, |n, log: &[Polled]| match n {
            1 => {
                let (mut d, more) = answer(Assignment::Wait, false);
                d.cancel.push(CancelOrder { data: 9, index: 0, attempt: 9 });
                (d, more)
            }
            2 => answer(Assignment::Tasks(vec![map_task(0)]), false),
            _ if reported(log) == 1 => answer(Assignment::Exit, false),
            _ => answer(Assignment::Wait, false),
        });
        run_scripted(link.clone(), &gate, &split_store(), NEVER);
        let polls = link.polls.lock().clone();
        assert_eq!(reported(&polls), 1, "the granted task must run and report");
        assert_eq!(polls[0].park, SlaveOptions::default().long_poll, "an idle slave parks");
        assert_eq!(polls[1].park, polls[0].park, "the re-poll after an early Wait parks too");
    }

    /// Told nothing is left for it, a slave with two queued tasks keeps
    /// the first report until the second task is done: one poll carries
    /// both, and finds the slave idle.
    #[test]
    fn told_nothing_left_one_poll_carries_both_reports() {
        let gate = Arc::new(Gate::default());
        gate.open();
        let link = Script::new(&gate, |n, _: &[Polled]| match n {
            1 => answer(Assignment::Tasks(vec![map_task(0), map_task(1)]), false),
            _ => answer(Assignment::Exit, false),
        });
        run_scripted(link.clone(), &gate, &split_store(), NEVER);
        let polls = link.polls.lock().clone();
        assert_eq!(polls.len(), 2, "{polls:?}");
        assert_eq!(polls[1].reports, [(1, 0), (1, 1)]);
        assert_eq!((polls[1].free, polls[1].park), (2, SlaveOptions::default().long_poll));
    }

    /// Told more is runnable, the first completion polls at once — while
    /// the second task still runs — so the freed slot is refilled.
    #[test]
    fn told_more_runnable_the_first_completion_polls_at_once() {
        let gate = Arc::new(Gate::default());
        let script_gate = Arc::clone(&gate);
        let link = Script::new(&gate, move |n, log: &[Polled]| match n {
            1 => answer(Assignment::Tasks(vec![map_task(0), map_task(1)]), true),
            _ if reported(log) == 2 => answer(Assignment::Exit, false),
            _ => {
                // Only now may the second task finish.
                script_gate.open();
                answer(Assignment::Wait, false)
            }
        });
        run_scripted(link.clone(), &gate, &split_store(), NEVER);
        let polls = link.polls.lock().clone();
        assert_eq!(polls[1].reports, [(1, 0)], "{polls:?}");
        assert_eq!((polls[1].free, polls[1].park), (1, Duration::ZERO), "a busy slave never parks");
    }

    /// A report withheld behind a running task leaves with the bounded
    /// heartbeat poll: nothing but `max_poll_interval` running out sends
    /// it, since the second task cannot finish before it has left.
    #[test]
    fn withheld_report_leaves_within_max_poll_interval() {
        let gate = Arc::new(Gate::default());
        let script_gate = Arc::clone(&gate);
        let link = Script::new(&gate, move |n, log: &[Polled]| match n {
            1 => answer(Assignment::Tasks(vec![map_task(0), map_task(1)]), false),
            _ if reported(log) == 2 => answer(Assignment::Exit, false),
            _ => {
                if reported(log) == 1 {
                    script_gate.open();
                }
                answer(Assignment::Wait, false)
            }
        });
        run_scripted(link.clone(), &gate, &split_store(), Duration::from_millis(5));
        let polls = link.polls.lock().clone();
        let carrier = polls.iter().find(|p| !p.reports.is_empty()).unwrap();
        assert_eq!(carrier.reports, [(1, 0)], "{polls:?}");
        assert_eq!(carrier.free, 1, "the second task still held its slot");
    }

    /// A failure is never withheld: it reports standalone while the other
    /// task is still running, whatever the last answer said.
    #[test]
    fn failure_reports_standalone_at_once() {
        let gate = Arc::new(Gate::default());
        let mut script = Script::new(&gate, |n, log: &[Polled]| match n {
            // Split 7 does not exist: the fetch of task 7 fails.
            1 => answer(Assignment::Tasks(vec![map_task(7), map_task(1)]), false),
            _ if reported(log) == 1 => answer(Assignment::Exit, false),
            _ => answer(Assignment::Wait, false),
        });
        // Only the failure report lets the other task finish.
        Arc::get_mut(&mut script).unwrap().on_failed = Gate::open;
        run_scripted(script.clone(), &gate, &split_store(), NEVER);
        assert_eq!(*script.failed.lock(), [(1, 7)]);
        let polls = script.polls.lock().clone();
        assert_eq!(polls.last().unwrap().reports, [(1, 1)], "{polls:?}");
    }

    /// A link to a real master that logs every completion report and
    /// every poll it forwards, and every call made after it forwarded an
    /// `Exit`.
    struct Spy {
        master: Master,
        reports: Mutex<Vec<(u32, usize)>>,
        polls: Mutex<Vec<Polled>>,
        exited: AtomicBool,
        after_exit: Mutex<Vec<&'static str>>,
    }

    impl Spy {
        fn new(master: &Master) -> Arc<Spy> {
            Arc::new(Spy {
                master: master.clone(),
                reports: Mutex::default(),
                polls: Mutex::default(),
                exited: AtomicBool::new(false),
                after_exit: Mutex::default(),
            })
        }

        fn called(&self, method: &'static str) {
            if self.exited.load(Ordering::SeqCst) {
                self.after_exit.lock().push(method);
            }
        }
    }

    impl MasterLink for Spy {
        fn signin(&self, authority: &str, slots: usize) -> Result<SlaveId> {
            MasterLink::signin(&self.master, authority, slots)
        }
        fn poll(
            &self,
            slave: SlaveId,
            free: usize,
            park: Duration,
            reports: Vec<TaskReport>,
            counts: JobMetrics,
            trace: TraceBatch,
        ) -> Result<(Dispatch, bool)> {
            self.called("poll");
            let carried: Vec<(u32, usize)> = reports.iter().map(|r| (r.data, r.index)).collect();
            self.reports.lock().extend(&carried);
            let (urls, merge_runs) = (Vec::new(), counts.merge_runs());
            self.polls.lock().push(Polled { free, park, reports: carried, urls, merge_runs });
            let answer = MasterLink::poll(&self.master, slave, free, park, reports, counts, trace);
            if matches!(&answer, Ok((d, _)) if d.assignment == Assignment::Exit) {
                self.exited.store(true, Ordering::SeqCst);
            }
            answer
        }
        fn task_failed(
            &self,
            s: SlaveId,
            d: u32,
            i: usize,
            a: u32,
            msg: &str,
            input: Option<&str>,
        ) -> Result<()> {
            self.called("task_failed");
            MasterLink::task_failed(&self.master, s, d, i, a, msg, input)
        }
    }

    /// `Exit` is the last word: a slave told the job is over while a task
    /// still runs stops there, as on a lost master, and the task's
    /// completion goes nowhere.
    #[test]
    fn a_slave_answered_exit_calls_the_master_no_more() {
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let plane = DataPlane::SharedFs(Arc::clone(&store));
        let master = Master::new(MasterConfig::default(), plane.clone()).unwrap();
        let gate = Arc::new(Gate::default());
        let program: Arc<dyn Program> = Arc::new(Simple(Gated(Arc::clone(&gate))));
        let mut driver = master.clone();
        let src = driver.local_data(input(), 2).unwrap();
        driver.map_data(src, 0, 1, false).unwrap();
        // One worker, granted both map tasks; it stops at the gate inside
        // the second while its heartbeat polls go on.
        let spy = Spy::new(&master);
        let slave = {
            let (spy, plane) = (Arc::clone(&spy), plane.clone());
            let opts = SlaveOptions {
                max_poll_interval: Duration::from_millis(5),
                slots: 1,
                ..SlaveOptions::default()
            };
            std::thread::spawn(move || {
                run_slave(&*spy, program, plane, &opts, &AtomicBool::new(false))
            })
        };
        gate.await_arrival();
        // The job ends; once a poll has been answered `Exit`, the task
        // finishes.
        master.finish();
        while !spy.exited.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        gate.open();
        slave.join().unwrap().unwrap();
        assert_eq!(*spy.after_exit.lock(), Vec::<&str>::new(), "the link was called after Exit");
    }

    /// Coalescing opens a window in which a finished task is unreported.
    /// A slave stopped inside it (crash semantics) takes the report with
    /// it — nothing is flushed on the way out — and the master re-runs the
    /// task elsewhere like any other lost attempt.
    #[test]
    fn stopped_slave_holding_an_unsent_completion_stays_silent_and_the_task_is_rerun() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(100), ..MasterConfig::default() };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let plane = DataPlane::SharedFs(Arc::clone(&store));
        let master = Master::new(cfg, plane.clone()).unwrap();
        let gate = Arc::new(Gate::default());
        let program: Arc<dyn Program> = Arc::new(Simple(Gated(Arc::clone(&gate))));
        let mut driver = master.clone();
        let src = driver.local_data(input(), 2).unwrap();
        let mapped = driver.map_data(src, 0, 1, false).unwrap();

        // The first slave is granted both map tasks and told nothing is
        // left. Its one worker reaches the gate inside the second task, so
        // the first task's report is queued by then — and stays queued:
        // the slave is busy, and its bounded wait is a minute.
        let spy = Spy::new(&master);
        let stop = Arc::new(AtomicBool::new(false));
        let first = {
            let (spy, program, plane, stop) =
                (Arc::clone(&spy), Arc::clone(&program), plane.clone(), Arc::clone(&stop));
            let opts =
                SlaveOptions { max_poll_interval: NEVER, slots: 1, ..SlaveOptions::default() };
            std::thread::spawn(move || run_slave(&*spy, program, plane, &opts, &stop))
        };
        gate.await_arrival();
        // Stop it, then let the second task finish: going idle wakes the
        // poll thread, which finds the stop flag instead of polling.
        stop.store(true, Ordering::SeqCst);
        gate.open();
        first.join().unwrap().unwrap();
        let reported = spy.reports.lock().clone();
        assert!(reported.is_empty(), "a stopped slave reported {reported:?}");

        // A second slave arrives; the master's death timer declares the
        // silent one dead and both tasks run again.
        let second = {
            let (m, stop) = (master.clone(), AtomicBool::new(false));
            std::thread::spawn(move || {
                run_slave(&m, program, plane, &SlaveOptions::default(), &stop)
            })
        };
        assert_eq!(driver.fetch_all(mapped).unwrap().len(), 5, "one record per token");
        let metrics = master.metrics();
        assert_eq!((metrics.tasks_executed(), metrics.tasks_retried()), (2, 2));
        master.finish();
        second.join().unwrap().unwrap();
    }

    /// A task's counts ride no later than its report: with one worker,
    /// each reduce's merge runs (one per map task) are in the tally of
    /// exactly the poll that carries its report, and of no other.
    #[test]
    fn every_poll_carrying_a_report_carries_that_tasks_merge_runs() {
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let plane = DataPlane::SharedFs(Arc::clone(&store));
        let master = Master::new(MasterConfig::default(), plane.clone()).unwrap();
        let spy = Spy::new(&master);
        let slave = {
            let (spy, plane) = (Arc::clone(&spy), plane.clone());
            let program: Arc<dyn Program> = Arc::new(Simple(WordCount));
            let opts = SlaveOptions { slots: 1, ..SlaveOptions::default() };
            std::thread::spawn(move || {
                run_slave(&*spy, program, plane, &opts, &AtomicBool::new(false))
            })
        };
        let (maps, reduces) = (3, 4);
        let mut driver = master.clone();
        let src = driver.local_data(input(), maps).unwrap();
        let mapped = driver.map_data(src, 0, reduces, false).unwrap();
        let reduced = driver.reduce_data(mapped, 0).unwrap();
        driver.fetch_all(reduced).unwrap();
        master.finish();
        slave.join().unwrap().unwrap();

        let polls = spy.polls.lock().clone();
        let reduce_reports = |p: &Polled| p.reports.iter().filter(|(d, _)| *d == reduced.0).count();
        for p in &polls {
            assert_eq!(p.merge_runs, (maps * reduce_reports(p)) as u64, "{polls:?}");
        }
        let carried: usize = polls.iter().map(reduce_reports).sum();
        assert_eq!(carried, reduces, "every reduce report rode a poll: {polls:?}");
        assert_eq!(master.metrics().merge_runs(), (maps * reduces) as u64);
    }

    /// A store whose `get` of `path` stops at `gate`: the interleaving "an
    /// attempt is being fetched", forced rather than raced for.
    struct GatedStore {
        inner: MemFs,
        path: &'static str,
        gate: Arc<Gate>,
    }

    impl Store for GatedStore {
        fn put(&self, path: &str, data: &[u8]) -> Result<()> {
            self.inner.put(path, data)
        }
        fn get(&self, path: &str) -> Result<Vec<u8>> {
            if path == self.path {
                self.gate.pass();
            }
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

    /// A link whose polls are never sent: the caller plays the polling
    /// thread. Failure reports are logged.
    fn unpolled() -> Arc<Script<Answer>> {
        Script::new(&Arc::new(Gate::default()), |_, _| answer(Assignment::Wait, false))
    }

    type Answer = fn(usize, &[Polled]) -> (Dispatch, bool);

    /// Run a one-worker slave's worker while `drive` plays its polling
    /// thread (recording on the poll lane); returns what `drive` returned
    /// and every event traced meanwhile. `shared` is the shared-filesystem
    /// plane's store; `server` the direct plane's.
    fn with_stages<R>(
        link: &dyn MasterLink,
        program: &dyn Program,
        shared: Option<&Arc<dyn Store>>,
        server: Option<&DataServer>,
        outputs: &Outputs,
        drive: impl FnOnce(&Slave, &TraceHandle) -> R,
    ) -> (R, Vec<mrs_trace::Event>) {
        /// Stops the worker even when `drive` panics.
        struct Halt<'a>(&'a Pipe);
        impl Drop for Halt<'_> {
            fn drop(&mut self) {
                self.0.shut_down();
            }
        }
        let pipe = Pipe::default();
        let slave = Slave { link, id: 0, pipe, outputs, server, shared, delays: &[] };
        let rec = Recorder::new();
        let poll_lane = rec.handle(POLL_LANE);
        let store = shared.map(|s| (&**s, CompressMode::default()));
        let workers = Workers { program, store, slots: 1, trace: Some(&rec) };
        let out = std::thread::scope(|s| {
            let worker = workers.spawn(s, &slave);
            let out = {
                let _halt = Halt(&slave.pipe);
                drive(&slave, &poll_lane)
            };
            join(worker).unwrap();
            out
        });
        (out, rec.drain().0)
    }

    /// Wait until `cond` holds of the pipe (re-checked whenever the slave
    /// signals its polling thread, and every millisecond).
    fn await_pipe(pipe: &Pipe, cond: impl Fn(&PipeState) -> bool) {
        let mut st = pipe.state.lock();
        while !cond(&st) {
            pipe.poll_cv.wait_for(&mut st, Duration::from_millis(1));
        }
    }

    /// How many entries the pipe holds for particular attempts.
    fn held(st: &PipeState) -> usize {
        let PipeState { queue, in_flight, reports, active, tally: _, more: _, halt: _ } = st;
        queue.len() + in_flight + reports.len() + active.len()
    }

    /// Where an accepted attempt is when its cancel order arrives. (There
    /// is no stage between its fetch and its kernel: the worker that
    /// fetched it runs it.)
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Stage {
        Queued,
        BeingFetched,
        Running,
        Reported,
    }

    /// A cancel order reaches an accepted attempt at every stage it can be
    /// in. The attempt is never reported (but for the one that reported
    /// before the order), its slot is freed, it has exactly one closed
    /// `Attempt` span — with a `Cancel` instant, unless it had already
    /// reported — and nothing about it is left in the pipe.
    #[test]
    fn cancel_order_reaches_an_accepted_attempt_at_every_stage() {
        use mrs_trace::{Kind, Name};
        use Stage::*;
        for stage in [Queued, BeingFetched, Running, Reported] {
            let (fetch_gate, kernel_gate) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
            // `free` is a split nothing stops; `slow` the same behind the
            // fetch gate; `gated` stops its kernel at its first record, and
            // its second lets a cancelled kernel see the flag.
            let store: Arc<dyn Store> = Arc::new(GatedStore {
                inner: MemFs::new(),
                path: "slow",
                gate: fetch_gate.clone(),
            });
            let free = framed(&[encode_record(&0u64, &"a b".to_string())]);
            store.put("free", &free).unwrap();
            store.put("slow", &free).unwrap();
            let gated =
                [encode_record(&1u64, &"x".to_string()), encode_record(&2u64, &"y".to_string())];
            store.put("gated", &framed(&gated)).unwrap();
            let task = |index, input: &str| TaskMsg {
                index,
                inputs: vec![format!("file://{input}")],
                ..map_task(0)
            };
            // (the input of an attempt accepted ahead of the target, the
            // target's input)
            let (ahead, input) = match stage {
                Queued => (Some("slow"), "free"),
                BeingFetched => (None, "slow"),
                Running => (None, "gated"),
                Reported => (None, "free"),
            };
            let target = task(1, input);
            let mut tasks: Vec<TaskMsg> = ahead.map(|i| task(0, i)).into_iter().collect();
            tasks.push(target.clone());
            let is_target = |t: &TaskMsg| key(t) == key(&target);

            let link = unpolled();
            let program = Simple(Gated(Arc::clone(&kernel_gate)));
            let outputs = Outputs::default();
            let (reported, events) =
                with_stages(&*link, &program, Some(&store), None, &outputs, |slave, th| {
                    slave.pipe.enqueue(tasks, th.now_us(), false);
                    match stage {
                        Queued | BeingFetched => fetch_gate.await_arrival(),
                        Running => kernel_gate.await_arrival(),
                        Reported => await_pipe(&slave.pipe, |st| st.in_flight == 0),
                    }
                    let order = CancelOrder { data: 1, index: 1, attempt: 1 };
                    slave.pipe.apply_cancels(&[order], Some(th));
                    fetch_gate.open();
                    kernel_gate.open();
                    await_pipe(&slave.pipe, |st| st.in_flight == 0);
                    let st = slave.pipe.state.lock();
                    assert!(!st.queue.iter().any(|(t, _)| is_target(t)), "{stage:?}");
                    assert!(!st.active.contains_key(&key(&target)), "{stage:?}");
                    st.reports.iter().filter(|r| r.index == target.index).count()
                });
            assert_eq!(reported, usize::from(stage == Reported), "{stage:?}");
            assert!(link.failed.lock().is_empty(), "{stage:?}");
            let traced = |name: Name, kind: Kind| {
                let mine = |e: &&mrs_trace::Event| e.tag.key() == (1, 1, 1);
                events.iter().filter(mine).filter(|e| e.name == name && e.kind == kind).count()
            };
            let span = (traced(Name::Attempt, Kind::Begin), traced(Name::Attempt, Kind::End));
            assert_eq!(span, (1, 1), "{stage:?}: {events:?}");
            let cancels = traced(Name::Cancel, Kind::Instant);
            assert_eq!(cancels, usize::from(stage != Reported), "{stage:?}: {events:?}");
        }
    }

    /// Cancel orders for attempts this slave has already reported find no
    /// record and leave none: after 1,000 of them the pipe holds nothing
    /// about any attempt.
    #[test]
    fn cancel_orders_for_reported_attempts_leave_nothing_behind() {
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        store.put("src0", &framed(&input()[..1])).unwrap();
        let (link, outputs) = (unpolled(), Outputs::default());
        let program = Simple(WordCount);
        with_stages(&*link, &program, Some(&store), None, &outputs, |slave, th| {
            let tasks = (0..1000).map(|index| TaskMsg { index, ..map_task(0) }).collect();
            slave.pipe.enqueue(tasks, th.now_us(), false);
            await_pipe(&slave.pipe, |st| st.in_flight == 0);
            // The poll that carries the reports home.
            let reports = std::mem::take(&mut slave.pipe.state.lock().reports);
            assert_eq!(reports.len(), 1000);
            let orders: Vec<CancelOrder> = reports
                .iter()
                .map(|r| CancelOrder { data: r.data, index: r.index, attempt: r.attempt })
                .collect();
            slave.pipe.apply_cancels(&orders, Some(th));
            assert_eq!(held(&slave.pipe.state.lock()), 0);
        });
    }

    /// A cancel order that reaches a worker while it fetches stops the
    /// fetch before its next peer: the peer is never asked, and the
    /// attempt goes unreported, not failed.
    #[test]
    fn cancelled_fetch_skips_remaining_inputs() {
        let fetch_gate = Arc::new(Gate::default());
        let store: Arc<dyn Store> =
            Arc::new(GatedStore { inner: MemFs::new(), path: "slow", gate: fetch_gate.clone() });
        store.put("slow", &framed(&input()[..1])).unwrap();
        let peer_outputs = Arc::new(Outputs::default());
        peer_outputs.lock().insert("b0".into(), (Arc::new(Bucket::new()), true));
        let (peer, calls) = counted_server(&peer_outputs);
        // The shared store's batch comes first, then the peer's.
        let task =
            TaskMsg { inputs: vec!["file://slow".into(), peer.url_for("b0")], ..map_task(0) };
        let (link, outputs) = (unpolled(), Outputs::default());
        let program = Simple(WordCount);
        let (reports, _) =
            with_stages(&*link, &program, Some(&store), None, &outputs, |slave, th| {
                slave.pipe.enqueue(vec![task], th.now_us(), false);
                fetch_gate.await_arrival();
                slave
                    .pipe
                    .apply_cancels(&[CancelOrder { data: 1, index: 0, attempt: 1 }], Some(th));
                fetch_gate.open();
                await_pipe(&slave.pipe, |st| st.in_flight == 0);
                slave.pipe.state.lock().reports.len()
            });
        assert_eq!((reports, calls.load(Ordering::SeqCst)), (0, 0));
        assert!(link.failed.lock().is_empty(), "a cancelled fetch reported a failure");
    }

    /// A bucket the peer no longer has fails the attempt, reported
    /// standalone, naming that bucket — the producer the master must
    /// re-execute — wherever in the peer's batch it sits.
    #[test]
    fn missing_bucket_mid_batch_is_the_failed_input() {
        let peer = Arc::new(mrs_rpc::FrameCache::new());
        for path in ["b0", "b1", "b3"] {
            peer.insert(path, framed(&[]));
        }
        let server = DataServer::serve(0, peer.provider()).unwrap();
        let urls: Vec<String> = (0..4).map(|i| server.url_for(&format!("b{i}"))).collect();
        let task = TaskMsg { kind: TaskKind::Reduce, inputs: urls.clone(), ..map_task(0) };
        let (link, outputs) = (unpolled(), Outputs::default());
        with_stages(&*link, &Simple(WordCount), None, None, &outputs, |slave, th| {
            slave.pipe.enqueue(vec![task], th.now_us(), false);
            await_pipe(&slave.pipe, |st| st.in_flight == 0);
        });
        let failed = link.failed_inputs.lock().clone();
        assert!(matches!(&failed[..], [(_, Some(input))] if *input == urls[2]), "{failed:?}");
        assert!(!failed[0].0.contains("cancelled"), "{failed:?}");
    }

    /// One poll answer can carry both the purge of a dataset and the
    /// cancel order for a loser of it whose kernel has already returned.
    /// The order raises the loser's flag before the purge runs, and the
    /// sink enters no output of a flagged attempt, so the table ends
    /// holding nothing of the dataset and nothing is reported.
    #[test]
    fn a_loser_cancelled_with_its_datasets_purge_leaves_no_outputs() {
        let kernel_gate = Arc::new(Gate::default());
        let outputs = Arc::new(Outputs::default());
        let (server, _) = counted_server(&outputs);
        // An own split of one record keyed 1: the map stops at the gate on
        // it, after the kernel's last cancel check.
        let split = Bucket::from_slice(&[encode_record(&1u64, &"x".to_string())]);
        outputs.lock().insert("s0/d0/t0/b0.mrsb".into(), (Arc::new(split), true));
        let task = TaskMsg { inputs: vec![server.url_for("s0/d0/t0/b0.mrsb")], ..map_task(0) };
        let link = unpolled();
        let program = Simple(Gated(Arc::clone(&kernel_gate)));
        let (reports, events) =
            with_stages(&*link, &program, None, Some(&server), &outputs, |slave, th| {
                slave.pipe.enqueue(vec![task], th.now_us(), false);
                kernel_gate.await_arrival();
                let (mut d, _) = answer(Assignment::Wait, false);
                d.purge.push("s0/d1/".into());
                d.cancel.push(CancelOrder { data: 1, index: 0, attempt: 1 });
                slave.apply_orders(&d, Some(th));
                kernel_gate.open();
                await_pipe(&slave.pipe, |st| st.in_flight == 0);
                slave.pipe.state.lock().reports.len()
            });
        let left: Vec<String> =
            outputs.lock().keys().filter(|path| path.starts_with("s0/d1/")).cloned().collect();
        assert_eq!((reports, left), (0, Vec::<String>::new()));
        assert!(link.failed.lock().is_empty());
        // The kernel returned its outputs: the order landed after it.
        assert!(!events.iter().any(|e| e.name == mrs_trace::Name::Cancel), "{events:?}");
    }

    #[test]
    fn stopped_slave_goes_silent_and_peer_takes_over() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(100), ..MasterConfig::default() };
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        let plane = DataPlane::SharedFs(Arc::clone(&store));
        let master = Master::new(cfg, plane.clone()).unwrap();
        let program: Arc<dyn Program> = Arc::new(Simple(WordCount));

        // Slave 1 signs in then is stopped immediately (goes silent).
        let stop1 = Arc::new(AtomicBool::new(false));
        let h1 = {
            let m = master.clone();
            let p = Arc::clone(&program);
            let plane = plane.clone();
            let stop = Arc::clone(&stop1);
            std::thread::spawn(move || run_slave(&m, p, plane, &SlaveOptions::default(), &stop))
        };
        std::thread::sleep(Duration::from_millis(20));
        stop1.store(true, Ordering::SeqCst);
        let _ = h1.join().unwrap();

        // Slave 2 arrives and completes the job; the master's death timer
        // declares the silent slave dead.
        let stop2 = Arc::new(AtomicBool::new(false));
        let h2 = {
            let m = master.clone();
            let p = Arc::clone(&program);
            let plane = plane.clone();
            let stop = Arc::clone(&stop2);
            std::thread::spawn(move || run_slave(&m, p, plane, &SlaveOptions::default(), &stop))
        };

        let mut driver = master.clone();
        let src = driver.local_data(input(), 2).unwrap();
        let mapped = driver.map_data(src, 0, 2, false).unwrap();
        let reduced = driver.reduce_data(mapped, 0).unwrap();
        let out = driver.fetch_all(reduced).unwrap();
        assert_eq!(out.len(), 3);

        master.finish();
        h2.join().unwrap().unwrap();
    }

    /// A data server over `outputs` that counts the GETs its provider
    /// answers.
    fn counted_server(outputs: &Arc<Outputs>) -> (DataServer, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let provider: Provider = {
            let (calls, inner) =
                (Arc::clone(&calls), serve_outputs(outputs, CompressMode::default()));
            Arc::new(move |path: &str| {
                calls.fetch_add(1, Ordering::SeqCst);
                inner(path)
            })
        };
        (DataServer::serve(0, provider).unwrap(), calls)
    }

    /// An own input costs no socket and no codec: it reaches the kernel's
    /// runs as the stored bucket itself, counted once as a short circuit,
    /// and this slave's data server is never asked for it. Seen from any
    /// other slave, the same URL is a peer's and crosses the wire.
    #[test]
    fn local_first_bypasses_the_socket_for_own_urls() {
        let outputs = Arc::new(Outputs::default());
        let bucket = Arc::new(Bucket::from_records(vec![(b"k".to_vec(), b"v".to_vec())]));
        outputs.lock().insert("s0/d1/t0/b0.mrsb".into(), (Arc::clone(&bucket), true));
        let (server, calls) = counted_server(&outputs);
        let urls = vec![server.url_for("s0/d1/t0/b0.mrsb")];
        let (authority, go) = (server.authority(), Some(&AtomicBool::new(false)));

        let mut tally = JobMetrics::default();
        let inputs = fetch_inputs(&urls, None, Some((&authority, &outputs)), go, &mut tally);
        let runs = crate::workers::gather(inputs.ok().unwrap(), &mut tally).ok().unwrap();
        assert!(Arc::ptr_eq(&runs[0], &bucket), "the run is the stored bucket, not a copy");
        assert_eq!((tally.shortcircuit_fetches(), tally.presorted_runs()), (1, 1));
        assert_eq!(tally.bytes_on_wire(), 0, "nothing crossed a socket");
        assert_eq!(calls.load(Ordering::SeqCst), 0, "the own data server was asked");

        let mut tally = JobMetrics::default();
        let inputs = fetch_inputs(&urls, None, None, go, &mut tally).ok().unwrap();
        assert!(matches!(&inputs[..], [Input::Wire(_)]));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(tally.shortcircuit_fetches(), 0);
        assert!(tally.bytes_on_wire() > 0);
    }

    /// Identity map; a reduce that emits every key complemented, so its
    /// output comes out in descending key order.
    struct Backwards;

    impl Program for Backwards {
        fn map_bytes(
            &self,
            _: mrs_core::FuncId,
            key: &[u8],
            value: &[u8],
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            emit(key, value);
            Ok(())
        }
        fn reduce_bytes(
            &self,
            _: mrs_core::FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            let complement: Vec<u8> = key.iter().map(|b| !b).collect();
            values.for_each(|v| emit(&complement, v));
            Ok(())
        }
    }

    /// A map output's frame claims a sorted run by the kernel's contract;
    /// a reduce output's claims one only when its keys are in order. Each
    /// frame is the one of the bucket the table holds.
    #[test]
    fn sorted_run_flag_comes_from_the_task_kind() {
        let outputs = Arc::new(Outputs::default());
        let (server, _) = counted_server(&outputs);
        // Each task reads one own output, named by `input`.
        let run = |kind: TaskKind, data: u32, input: &str| -> (Vec<u8>, Arc<Bucket>, String) {
            let inputs = vec![server.url_for(input)];
            let task = TaskMsg { data, kind, parts: 1, inputs, ..map_task(0) };
            let link = unpolled();
            let (urls, _) =
                with_stages(&*link, &Backwards, None, Some(&server), &outputs, |slave, th| {
                    slave.pipe.enqueue(vec![task], th.now_us(), false);
                    await_pipe(&slave.pipe, |st| st.in_flight == 0);
                    slave.pipe.state.lock().reports.pop().expect("a report").urls
                });
            let path = urls[0].strip_prefix(&format!("http://{}", server.authority())).unwrap();
            let frame = mrs_rpc::dataserver::fetch(&server.authority(), path).unwrap();
            let path = &path["/data/".len()..];
            (frame, Arc::clone(&outputs.lock()[path].0), path.to_owned())
        };
        let split = vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())];
        outputs.lock().insert("src".into(), (Arc::new(Bucket::from_records(split)), true));
        let (frame, mapped, mapped_path) = run(TaskKind::Map, 1, "src");
        assert_ne!(frame[5] & mrs_codec::FLAG_SORTED_RUN, 0, "a map output claims its order");
        let claimed = mrs_codec::encode_vec_sorted(write_bucket(&mapped), Default::default(), true);
        assert_eq!(frame, claimed);

        let (frame, reduced, _) = run(TaskKind::Reduce, 2, &mapped_path);
        assert!(!reduced.is_sorted(), "the program emitted its keys backwards");
        assert_eq!(frame[5] & mrs_codec::FLAG_SORTED_RUN, 0, "an unsorted reduce claimed order");
        let plain = mrs_codec::encode_vec_sorted(write_bucket(&reduced), Default::default(), false);
        assert_eq!(frame, plain);
    }

    /// One direct-plane slave through the lives of one map output: each
    /// attempt's frame is served from the bucket that attempt returned (a
    /// re-execution overwrites the first life's), a purge order takes the
    /// path off the data server, and a task that then reads it locally
    /// fails naming it.
    #[test]
    fn direct_plane_outputs_are_served_overwritten_and_purged() {
        // The map's two candidate splits, on a peer.
        let peer = Arc::new(mrs_rpc::FrameCache::new());
        let splits: Vec<Vec<mrs_core::Record>> = input().into_iter().map(|r| vec![r]).collect();
        for (i, split) in splits.iter().enumerate() {
            peer.insert(&format!("src{i}"), framed(split));
        }
        let peer_server = DataServer::serve(0, peer.provider()).unwrap();
        let attempt = |n: u32| TaskMsg {
            attempt: n,
            parts: 2,
            inputs: vec![peer_server.url_for(&format!("src{}", n - 1))],
            ..map_task(0)
        };
        // (frames served after each attempt, answers after the purge)
        type Seen = (Vec<Vec<Vec<u8>>>, Vec<Result<Vec<u8>>>);
        let seen: Arc<Mutex<Seen>> = Arc::default();
        let reduce_input = Arc::new(Mutex::new(String::new()));
        let get_all = |urls: &[String]| -> Vec<Result<Vec<u8>>> {
            urls.iter()
                .map(|url| {
                    let (authority, path) = url["http://".len()..].split_once('/').unwrap();
                    mrs_rpc::dataserver::fetch(authority, &format!("/{path}"))
                })
                .collect()
        };
        let stage = Mutex::new(0);
        let (seen2, reduce_input2) = (Arc::clone(&seen), Arc::clone(&reduce_input));
        let link = Script::new(&Arc::new(Gate::default()), move |_, log: &[Polled]| {
            let mut stage = stage.lock();
            let last = log.last().unwrap();
            let (tasks, purge) = match *stage {
                0 => (vec![attempt(1)], vec![]),
                1 | 2 if last.urls.is_empty() => (vec![], vec![]),
                1 | 2 => {
                    let frames = get_all(&last.urls).into_iter().map(|f| f.unwrap()).collect();
                    seen2.lock().0.push(frames);
                    *reduce_input2.lock() = last.urls[0].clone();
                    match *stage {
                        1 => (vec![attempt(2)], vec![]),
                        _ => (vec![], vec!["s0/d1/".to_owned()]),
                    }
                }
                3 => {
                    seen2.lock().1 = get_all(&[reduce_input2.lock().clone()]);
                    let input = reduce_input2.lock().clone();
                    let reduce = TaskMsg {
                        data: 2,
                        kind: TaskKind::Reduce,
                        inputs: vec![input],
                        ..map_task(0)
                    };
                    (vec![reduce], vec![])
                }
                _ => {
                    return answer(
                        if last.free == 2 { Assignment::Exit } else { Assignment::Wait },
                        false,
                    )
                }
            };
            if !tasks.is_empty() || !purge.is_empty() {
                *stage += 1;
            }
            let (mut d, more) = answer(Assignment::Tasks(tasks), false);
            d.purge = purge;
            (d, more)
        });
        let opts = SlaveOptions { max_poll_interval: NEVER, slots: 1, ..SlaveOptions::default() };
        let program: Arc<dyn Program> = Arc::new(Simple(WordCount));
        run_slave(&*link, program, DataPlane::Direct, &opts, &AtomicBool::new(false)).unwrap();

        let (served, after_purge) = std::mem::take(&mut *seen.lock());
        for (split, frames) in splits.iter().zip(&served) {
            let spec = TaskSpec::Map { func: 0, parts: 2, combine: false };
            let split = Bucket::from_slice(split);
            let buckets = run_task(&Simple(WordCount), &spec, &[split], None).unwrap();
            let want: Vec<Vec<u8>> = buckets
                .iter()
                .map(|b| mrs_codec::encode_vec_sorted(write_bucket(b), Default::default(), true))
                .collect();
            assert_eq!(frames, &want, "served frames are not those of the live attempt");
        }
        assert_eq!(served.len(), 2);
        assert!(
            matches!(&after_purge[..], [Err(Error::MissingData(m))] if m.contains("http 404")),
            "a purged path is still served: {after_purge:?}"
        );
        let failed = link.failed_inputs.lock().clone();
        let url = reduce_input.lock().clone();
        assert!(
            matches!(&failed[..], [(msg, Some(input))] if msg.contains("s0/d1/t0/b0.mrsb") && *input == url),
            "{failed:?}"
        );
    }
}
