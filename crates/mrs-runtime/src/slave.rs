//! The slave: poll the master, execute tasks, serve outputs.
//!
//! A slave "needs only the master's address and port to connect" (§IV).
//! On the direct data plane it keeps each task output as the bucket the
//! kernel returned and serves it to peers over its built-in HTTP data
//! server, framing it only when a peer asks; on the shared-filesystem
//! plane it writes framed bucket files to the common store.
//!
//! The master may grant a task ahead of its inputs, naming an input that
//! an accepted attempt of a slave has not written yet by the URL it will
//! have. So on the direct plane a lookup of such a path — a peer's GET,
//! or a worker's read of its own output — is held until the attempt has
//! entered it (served), finished it empty (the empty run), or was dropped
//! by a cancel, a failure, a purge or the slave's halt (missing: the
//! reader fails naming it, and the master requeues the reader). Only an
//! attempt granted before the reader is waited for — a GET names its
//! reader's attempt id, and ids grow with each grant —, so the earliest
//! unfinished attempt never waits and no set of holds can deadlock. A
//! hold ends after `HOLD` as "not yet", and the reader asks again.
//!
//! It advertises a slot count at signin and runs that many worker threads
//! beside its polling thread, and nothing else. Capacity is one more than
//! the worker count, so a round's two tasks ride one poll. The polling
//! thread never fetches data — a slow or dead peer can stall a worker
//! without silencing the control heartbeat. The workers are the pool's
//! (the crate-private `workers`); this module supplies their source — the
//! accepted queue —, the fetch each runs inside its attempt (one pipelined
//! round trip per peer, [`crate::proto::fetch_buckets`]; an input this
//! slave produced itself is taken from its output table by reference
//! count, as §IV-B's writer reads its own local files), and their sink —
//! the report to the master.
//!
//! What the slave decides — what a poll answer does, whether a finished
//! attempt reports, when the next poll is due and what it carries — is one
//! state machine, `SlaveCore` (`slave/core.rs`), with no thread, socket or
//! clock. This module is its shell: it runs each core entry and carries
//! out its effects under one lock, so an answer's cancels and purges are
//! one step, and so is an attempt's entry of its outputs. Every message to
//! the master is a poll but a failure report, and a poll carries the
//! counts tallied with its reports. Answered `Exit`, or having lost its
//! master, the slave stops and drops queued work and unsent reports:
//! nothing they could tell the master would change what its driver sees.
//!
//! The slave is written against the [`MasterLink`] trait so the same loop
//! runs over real XML-RPC or direct method calls (unit tests).

mod core;

use self::core::{Due, Effects, SlaveCore};
use crate::master::SlaveId;
use crate::metrics::{Counter, JobMetrics};
use crate::proto::{
    fetch_buckets, output_stem, trace_op, Assignment, DataPlane, Dispatch, TaskMsg, TaskReport,
    TraceBatch,
};
use crate::workers::{
    bucket_path, empty, join, sorted_run, trace_abandoned, Attempt, Done, Failure, Input, Plane,
    Workers,
};
use mrs_codec::CompressMode;
use mrs_core::{Bucket, Error, Program, Result};
use mrs_fs::format::frame_bucket;
use mrs_fs::Store;
use mrs_rpc::{DataServer, Provider, Served};
use mrs_trace::{Recorder, Tag, TraceHandle, POLL_LANE};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a lookup of an output that an accepted attempt will still
/// write is held — a peer's GET or a worker's own input — before it is
/// answered "not yet" and asked again: well inside the RPC client's 10 s
/// I/O timeout.
const HOLD: Duration = Duration::from_secs(5);

/// The slave's view of the master.
pub trait MasterLink: Send + Sync {
    /// Register, advertising how many assignments this slave can hold at
    /// once; returns the slave id.
    fn signin(&self, authority: &str, slots: usize) -> Result<SlaveId>;
    /// Poll for work with `free` idle slots (the master may grant up to
    /// `free` tasks in one batch), delivering piggybacked completion
    /// `reports` and the `counts` tallied since the last poll, and asking
    /// the master to hold the request up to `park` when nothing is
    /// runnable (long-poll dispatch). The `trace` batch piggybacks this
    /// slave's trace-event delta. The answer is a full [`Dispatch`] — the
    /// assignment plus the purge and cancel orders queued for this slave —
    /// and the hint that runnable work was left ungranted for it, which
    /// decides whether its next completion is worth a poll of its own.
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
    /// Concurrent task slots (worker threads). Defaults to the number of
    /// available CPU cores.
    pub slots: usize,
    /// Shuffle payload compression policy for this slave's outputs
    /// (`--mrs-compress`). Consumers auto-detect, so slaves with
    /// different settings interoperate.
    pub compress: CompressMode,
}

impl Default for SlaveOptions {
    fn default() -> Self {
        SlaveOptions {
            slots: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            compress: CompressMode::default(),
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

    // One slot beyond the worker count: one assignment waits queued.
    let (slots, outputs) = (opts.slots.max(1), &*outputs);
    let id = link.signin(&authority, slots + 1)?;
    outputs.lock().own = format!("s{id}/");
    let (core, work, poll_cv) =
        (Mutex::new(SlaveCore::new(slots + 1)), Condvar::new(), Condvar::new());
    let slave = Slave { link, id, core, work, poll_cv, outputs, server: server.as_ref(), shared };
    // One trace recorder per slave, one handle (ring shard) per thread.
    // Its events ride the polls to the master, so it is drained as often
    // as the slave polls.
    let rec = Recorder::new();
    let poll_handle = rec.handle(POLL_LANE);
    let workers = Workers {
        program: program.as_ref(),
        store: shared.map(|store| (&**store, opts.compress)),
        slots,
        trace: &rec,
    };
    std::thread::scope(|s| {
        let workers = workers.spawn(s, &slave);
        // The round-trip measured around the *previous* poll, shipped with
        // the next trace batch so the master's clock sync can bound the
        // one-way delay. Until a round-trip exists the batch stays empty —
        // an unmeasured sample would lock the min-RTT filter onto a bogus
        // offset.
        let mut prev_rtt_us: Option<u64> = None;
        let main_res: Result<()> = loop {
            if stop.load(Ordering::SeqCst) {
                slave.halt();
            }
            let (free, park, reports, tally) = {
                let mut core = slave.core.lock();
                match core.poll_due(Instant::now()) {
                    Due::Poll { free, park, reports, mut tally } => {
                        let mut table = outputs.lock();
                        tally.add(Counter::HeldFetches, std::mem::take(&mut table.held));
                        table.polling = true;
                        (free, park, reports, tally)
                    }
                    Due::Wait(until) => {
                        slave.poll_cv.wait_until(&mut core, until);
                        continue;
                    }
                    // Stopped, or a worker lost the control channel.
                    Due::Halt => break Ok(()),
                }
            };
            // Drain the trace delta *after* taking the reports: any event a
            // worker recorded before queueing its report is guaranteed to
            // ride the same (or an earlier) poll as the report itself.
            let batch = match prev_rtt_us {
                Some(rtt_us) => {
                    let (events, dropped) = rec.drain();
                    TraceBatch { sent_at_us: rec.now_us(), rtt_us, dropped, events }
                }
                None => TraceBatch::default(),
            };
            let polled_at = Instant::now();
            let answer = link.poll(id, free, park, reports, tally, batch);
            // Parked long-polls inflate this sample; the master's min-RTT
            // filter discards inflated ones on its own.
            prev_rtt_us = Some(polled_at.elapsed().as_micros() as u64);
            let end = match answer {
                Ok((d, more)) if d.assignment != Assignment::Exit => {
                    slave.answered(d, more, rec.now_us(), &poll_handle);
                    continue;
                }
                // The job is over, or the master has vanished — a normal end
                // of life: the paper's launch scripts tear everything down
                // together (the scheduler "kills processes as soon as a job
                // completes").
                Ok(_) | Err(Error::Rpc(_)) => Ok(()),
                Err(e) => Err(e),
            };
            slave.halt();
            break end;
        };

        main_res.and(join(workers))
    })
}

/// The shell around a [`SlaveCore`] that its polling thread and its
/// workers' source, fetch and sink share.
struct Slave<'a> {
    link: &'a dyn MasterLink,
    id: SlaveId,
    /// Every entry runs, and its effects are carried out, under this lock.
    core: Mutex<SlaveCore>,
    /// Wakes workers when tasks are queued (or on halt).
    work: Condvar,
    /// Wakes the polling thread when a poll may be due (or on halt).
    poll_cv: Condvar,
    outputs: &'a Outputs,
    /// The direct plane's data server, which peers fetch outputs from.
    server: Option<&'a DataServer>,
    /// The shared-filesystem plane's store.
    shared: Option<&'a Arc<dyn Store>>,
}

impl Slave<'_> {
    /// Stop: the workers and the poller, and every held lookup, which no
    /// attempt of this slave will ever answer now.
    fn halt(&self) {
        self.core.lock().halt = true;
        let mut table = self.outputs.lock();
        table.pending.clear();
        (table.polling, table.answers) = (false, table.answers + 1);
        drop(table);
        self.outputs.changed.notify_all();
        self.work.notify_all();
        self.poll_cv.notify_all();
    }

    /// Where this slave keeps the outputs of task `index` of `data`.
    fn stem_of(&self, data: u32, index: usize) -> String {
        output_stem(self.id, data, index)
    }

    /// An accepted attempt is over: enter its `outputs` and stop holding
    /// lookups of what it would have written. The caller holds the core's
    /// lock, so this is one step with the core's entry.
    fn settle(&self, task: &TaskMsg, outputs: Vec<(String, Entry)>) {
        if self.server.is_none() {
            return;
        }
        let mut table = self.outputs.lock();
        table.entered.extend(outputs);
        table.pending.remove(&(self.stem_of(task.data, task.index), task.attempt));
        drop(table);
        self.outputs.changed.notify_all();
    }

    /// Apply a poll answer — its cancels, its purges and its grant — as one
    /// entry ([`SlaveCore::answered`]). Its purges, and (direct plane) the
    /// outputs of the attempts it abandoned and accepted unmarked and
    /// marked pending — in that order, so a rebuilt task's paths are
    /// pending only after its previous life's are gone — are carried out in
    /// the entry's lock section too.
    fn answered(&self, d: Dispatch, more: bool, accepted_us: u64, th: &TraceHandle) {
        let mut core = self.core.lock();
        let fx = core.answered(d, more, accepted_us, Instant::now());
        let mut table = self.outputs.lock();
        (table.polling, table.answers) = (false, table.answers + 1);
        fx.purge.iter().for_each(|prefix| table.purge(prefix));
        if self.server.is_some() {
            for &(data, index, attempt) in &fx.abandoned {
                table.pending.remove(&(self.stem_of(data, index), attempt));
            }
            if !core.halt {
                let accepted = fx.accepted.iter();
                table.pending.extend(accepted.map(|&(d, i, a)| (self.stem_of(d, i), a)));
            }
        }
        drop(table);
        self.outputs.changed.notify_all();
        self.apply(core, fx, th);
    }

    /// Carry out an entry's effects: flags raised before the core's lock
    /// is released, then the wakes. A queued loser a cancel dropped still
    /// shows on the timeline: its span and `Cancel` instant land on the
    /// poll lane, since no worker owned it.
    fn apply(&self, core: MutexGuard<SlaveCore>, fx: Effects, th: &TraceHandle) {
        fx.raise.iter().for_each(|flag| flag.store(true, Ordering::Relaxed));
        drop(core);
        for (task, accepted_us) in &fx.dropped {
            trace_abandoned(th, *accepted_us, task_tag(task));
        }
        for _ in 0..fx.queued {
            self.work.notify_one();
        }
        if fx.wake_poller {
            self.poll_cv.notify_all();
        }
    }

    /// Report a failed attempt standalone, blaming the input it could not
    /// read. A lost master stops the slave quietly, as a failed poll does;
    /// any other error loudly.
    fn report_failure(&self, task: &TaskMsg, failure: Failure) -> Result<()> {
        let (msg, input) = (failure.error.to_string(), failure.input.map(|i| &*task.inputs[i]));
        let sent = self.link.task_failed(self.id, task.data, task.index, task.attempt, &msg, input);
        if sent.is_err() {
            self.halt();
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

    /// The next accepted task ([`SlaveCore::take`]), its inputs left to
    /// [`Plane::fetch`]. `None` once the slave halts.
    fn next(&self, _: &TraceHandle) -> Option<Attempt<TaskMsg>> {
        let mut core = self.core.lock();
        let (task, since_us, cancel) = loop {
            if core.halt {
                return None;
            }
            if let Some(taken) = core.take() {
                break taken;
            }
            self.work.wait(&mut core);
        };
        drop(core);
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
        fetch_inputs(&task.inputs, self.shared, own, task.attempt, cancel, tally)
    }

    fn stem(&self, tag: &Tag) -> String {
        self.stem_of(tag.data, tag.index as usize)
    }

    /// Hand the outcome to the core and do what it says: enter the outputs
    /// in its lock section, or report the failure after it.
    fn finish(&self, done: Done<TaskMsg>, th: &TraceHandle) -> Result<()> {
        let Done { task, spec, tag, outcome, tally, .. } = done;
        let outputs = match outcome {
            Ok(outputs) => outputs,
            Err(failure) => {
                let cancelled = matches!(failure.error, Error::Cancelled);
                let mut core = self.core.lock();
                let fx = core.failed(&task, &tally, cancelled);
                self.settle(&task, Vec::new());
                drop(core);
                let sent =
                    if fx.report_failure { self.report_failure(&task, failure) } else { Ok(()) };
                if fx.wake_poller {
                    self.poll_cv.notify_all();
                }
                return sent;
            }
        };
        // Named before the lock section. The report lists the outputs
        // with no records; the master names the others by their paths. On
        // the direct plane every output is entered, each other one as the
        // bucket itself with its sorted-run claim (a scan, for a reduce's)
        // and an empty one as what a lookup of its path, which a task
        // granted ahead may name, answers; a shared store holds the frames
        // of the others.
        let empty = (outputs.iter().enumerate())
            .filter_map(|(p, bucket)| bucket.is_empty().then_some(p))
            .collect();
        let mut entries = Vec::new();
        if self.server.is_some() {
            let stem = self.stem(&tag);
            for (p, bucket) in outputs.into_iter().enumerate() {
                let sorted = sorted_run(&spec, &bucket);
                let entry = (!bucket.is_empty()).then_some((bucket, sorted));
                entries.push((bucket_path(&stem, p), entry));
            }
        }
        let report =
            TaskReport { data: task.data, index: task.index, attempt: task.attempt, empty };
        let mut core = self.core.lock();
        let fx = core.finished(report, &tally);
        self.settle(&task, if fx.enter { entries } else { Vec::new() });
        self.apply(core, fx, th);
        Ok(())
    }
}

/// A direct-plane slave's task outputs by path, and the paths its
/// accepted, unfinished attempts will write. This slave's own reduce inputs
/// are taken from here by reference count; a frame is built only when a
/// peer asks for one ([`serve_outputs`]). A re-executed task overwrites its
/// paths; purge orders remove them.
#[derive(Default)]
struct Outputs {
    table: Mutex<Table>,
    /// Notified when an output is entered or an attempt's pending outputs
    /// are given up: what a held lookup waits for.
    changed: Condvar,
}

/// One entered output: the bucket the kernel returned and whether its
/// frame claims a sorted run — `None` for an output with no records,
/// which a lookup answers as the empty run.
type Entry = Option<(Arc<Bucket>, bool)>;

#[derive(Default)]
struct Table {
    /// Ordered by path, so a dataset's outputs (`s{slave}/d{data}/…`) are
    /// one range.
    entered: BTreeMap<String, Entry>,
    /// (stem, attempt) of every accepted attempt that has not finished: a
    /// lookup of a path under its stem that finds nothing entered is held
    /// while one granted before its reader is here.
    pending: BTreeSet<(String, u32)>,
    /// Lookups held since the last poll took the count.
    held: u64,
    /// A poll is out whose answer is not applied yet.
    polling: bool,
    /// Answers applied (and halts).
    answers: u64,
    /// The prefix of this slave's stems ([`output_stem`]), `s{id}/`.
    own: String,
}

impl Table {
    /// Remove every output and pending attempt under `prefix`.
    fn purge(&mut self, prefix: &str) {
        purge(&mut self.entered, prefix);
        self.pending.retain(|(stem, _)| !stem.starts_with(prefix));
    }
}

/// What a lookup of one path found.
#[derive(Debug)]
enum Found {
    Entered(Entry),
    /// An accepted attempt will still write it.
    NotYet,
    Missing,
}

impl Outputs {
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock()
    }

    /// Look `path` up for attempt `reader`, holding while an accepted
    /// attempt granted before `reader` will still write it and `until` has
    /// not passed. A `peer`'s GET may also race the poll answer that grants
    /// this slave the attempt it waits for — the master grants a task
    /// ahead only after its producers —, so one for a path under this
    /// slave's stems is held while a poll is out, until its answer is
    /// applied. (A worker's own lookup cannot race so: the answer that
    /// granted its producer was applied before the one granting it.)
    fn find(&self, path: &str, reader: u32, peer: bool, until: Instant) -> Found {
        let stem = path.rsplit_once('/').map_or("", |(stem, _)| stem).to_owned();
        let earlier = (stem.clone(), 0)..(stem, reader);
        let mut table = self.lock();
        let racing = peer && path.starts_with(&table.own);
        let (mut held, answers) = (false, table.answers);
        loop {
            if let Some(entry) = table.entered.get(path) {
                return Found::Entered(entry.clone());
            }
            let answering = racing && table.polling && table.answers == answers;
            if table.pending.range(earlier.clone()).next().is_none() && !answering {
                return Found::Missing;
            }
            if !std::mem::replace(&mut held, true) {
                table.held += 1;
            }
            if self.changed.wait_until(&mut table, until).timed_out() {
                return Found::NotYet;
            }
        }
    }
}

/// Remove every output under `prefix`: one range of the table, so a
/// purge costs what it removes, not what the table holds.
fn purge<V>(outputs: &mut BTreeMap<String, V>, prefix: &str) {
    let doomed: Vec<String> = outputs
        .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .map(|(path, _)| path)
        .take_while(|path| path.starts_with(prefix))
        .cloned()
        .collect();
    for path in doomed {
        outputs.remove(&path);
    }
}

/// The data server's provider: each GET frames the bucket it names in
/// place ([`frame_bucket`]), compressed per this slave's policy, once the
/// table holds it; a GET that names no reader waits for any attempt. The
/// frame is not kept — a bucket is normally fetched once, and a kept frame
/// would only hold memory beside its bucket.
fn serve_outputs(outputs: &Arc<Outputs>, compress: CompressMode) -> Provider {
    let outputs = Arc::clone(outputs);
    Arc::new(move |path: &str, reader: Option<u32>| {
        match outputs.find(path, reader.unwrap_or(u32::MAX), true, Instant::now() + HOLD) {
            Found::Entered(Some((bucket, sorted))) => {
                Served::Frame(Arc::new(frame_bucket(&bucket, compress, sorted)))
            }
            Found::Entered(None) => Served::Empty,
            Found::NotYet => Served::NotYet,
            Found::Missing => Served::Missing,
        }
    })
}

/// Resolve every input URL of attempt `reader`, in input order (the
/// determinism oracle depends on it). A URL naming one of this slave's own
/// outputs (`own`: its data server authority and output table) is taken
/// from the table — held there while an attempt of this slave granted
/// before `reader` will still write it — and counted as a short circuit;
/// an `empty:` one is the shared [`empty`] bucket; the rest are fetched
/// with [`fetch_buckets`], one round trip per peer. The first failing input
/// makes the [`Failure`], naming it; once `cancel` is set the remaining
/// fetches are skipped and the failure is a cancellation. What the fetch
/// counted is added to `tally`.
fn fetch_inputs(
    urls: &[String],
    shared: Option<&Arc<dyn Store>>,
    own: Option<(&str, &Outputs)>,
    reader: u32,
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
    let mut fetched = fetch_buckets(&remote, shared, Some(reader), cancel, tally).into_iter();
    own_paths
        .into_iter()
        .enumerate()
        .map(|(i, own_path)| {
            let input = match own_path.zip(own) {
                Some((path, (_, outputs))) => own_input(outputs, path, reader, cancel, tally),
                None => match fetched.next().expect("one result per fetched url") {
                    Ok(Some(payload)) => Ok(Input::Wire(payload)),
                    Ok(None) => Ok(Input::Own(empty())),
                    Err(e) => Err(e),
                },
            };
            input.map_err(|error| Failure { error, input: Some(i) })
        })
        .collect()
}

/// One of this slave's own outputs, by path, for attempt `reader`: held
/// while an attempt of this slave granted before `reader` will still write
/// it, and asked for again past each hold unless `cancel` is set. A bucket
/// with records counts as a short circuit.
fn own_input(
    outputs: &Outputs,
    path: &str,
    reader: u32,
    cancel: Option<&AtomicBool>,
    tally: &mut JobMetrics,
) -> Result<Input> {
    loop {
        match outputs.find(path, reader, false, Instant::now() + HOLD) {
            Found::Entered(Some((bucket, _))) => {
                tally.add(Counter::ShortcircuitFetches, 1);
                return Ok(Input::Own(bucket));
            }
            Found::Entered(None) => return Ok(Input::Own(empty())),
            Found::NotYet if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) => {
                return Err(Error::Cancelled)
            }
            Found::NotYet => {}
            Found::Missing => return Err(Error::MissingData(format!("own bucket {path} is gone"))),
        }
    }
}

/// The trace tag of a task attempt.
fn task_tag(task: &TaskMsg) -> Tag {
    Tag::task(trace_op(&task.spec()), task.data, task.index, task.attempt)
}

#[cfg(test)]
mod tests {
    use super::core::{key, IDLE_PARK, MAX_POLL_INTERVAL};
    use super::*;
    use crate::job::JobApi;
    use crate::master::{Master, MasterConfig};
    use crate::proto::{output_url, CancelOrder, TaskKind};
    use mrs_core::kv::encode_record;
    use mrs_core::task::run_task;
    use mrs_core::TaskSpec;
    use mrs_core::{Datum, MapReduce, Simple};
    use mrs_fs::format::write_bucket;
    use mrs_fs::url::EMPTY;
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
        // Every reduce merges both map outputs of its partition, but only
        // a bucket with records is taken from the table: an empty one is
        // `empty:`, resolved without it.
        let partitions = |words: &[&str]| {
            let part =
                |w: &&str| Simple(WordCount).partition(&encode_record(&w.to_string(), &0u64).0, 4);
            words.iter().map(part).collect::<std::collections::BTreeSet<_>>().len() as u64
        };
        let m = master.metrics();
        assert_eq!(m.merge_runs(), 2 * 4, "one run per map-output bucket");
        let with_records = partitions(&["a", "b"]) + partitions(&["b", "c"]);
        assert_eq!(m.shortcircuit_fetches(), with_records, "one per bucket with records");

        master.finish();
        handle.join().unwrap().unwrap();
    }

    /// What one poll carried.
    #[derive(Clone, Debug, PartialEq)]
    struct Polled {
        free: usize,
        /// (data, index) of every piggybacked report.
        reports: Vec<(u32, usize)>,
        /// The empty partitions of every piggybacked report, in order.
        empty: Vec<Vec<usize>>,
        /// The data server the slave signed in with.
        authority: String,
        /// The merge runs in the poll's tally.
        merge_runs: u64,
    }

    impl Polled {
        /// The output URLs a master derives for the reports, each task of
        /// slave 0 having `parts` outputs.
        fn urls(&self, parts: usize) -> Vec<String> {
            let at = |data, index| move |p| output_url(Some(&self.authority), 0, data, index, p);
            (self.reports.iter().zip(&self.empty))
                .flat_map(|(&(data, index), empty)| {
                    let r = TaskReport { data, index, attempt: 1, empty: empty.clone() };
                    r.urls(parts, at(data, index))
                })
                .collect()
        }
    }

    /// A master that plays a script: every poll is logged and answered by
    /// `answer(n, log)` — `n` counts polls from 1 and `log[n - 1]` is the
    /// poll being answered. Failure reports are logged.
    struct Script<F> {
        answer: F,
        authority: Mutex<String>,
        polls: Mutex<Vec<Polled>>,
        /// (message, failed input) of every failure report.
        failed: Mutex<Vec<(String, Option<String>)>>,
    }

    impl<F> Script<F> {
        fn new(answer: F) -> Arc<Self> {
            let (authority, polls, failed) = Default::default();
            Arc::new(Script { answer, authority, polls, failed })
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
        fn signin(&self, authority: &str, _slots: usize) -> Result<SlaveId> {
            *self.authority.lock() = authority.to_owned();
            Ok(0)
        }
        fn poll(
            &self,
            _slave: SlaveId,
            free: usize,
            _park: Duration,
            reports: Vec<TaskReport>,
            counts: JobMetrics,
            _trace: TraceBatch,
        ) -> Result<(Dispatch, bool)> {
            let mut polls = self.polls.lock();
            let empty = reports.iter().map(|r| r.empty.clone()).collect();
            let reports = reports.iter().map(|r| (r.data, r.index)).collect();
            let (authority, merge_runs) = (self.authority.lock().clone(), counts.merge_runs());
            polls.push(Polled { free, reports, empty, authority, merge_runs });
            Ok((self.answer)(polls.len(), &polls))
        }
        fn task_failed(
            &self,
            _: SlaveId,
            _: u32,
            _: usize,
            _: u32,
            msg: &str,
            input: Option<&str>,
        ) -> Result<()> {
            self.failed.lock().push((msg.to_owned(), input.map(str::to_owned)));
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

    /// A bare core, driven at instants given as offsets from `t0`, with
    /// one worker's capacity (two): nothing here sleeps or spawns.
    struct Sim {
        core: SlaveCore,
        t0: Instant,
    }

    /// What a poll carried: free slots, park, (data, index) of each report.
    #[derive(Debug)]
    struct Sent {
        free: usize,
        park: Duration,
        reports: Vec<(u32, usize)>,
    }

    impl Sim {
        fn new() -> Sim {
            Sim { core: SlaveCore::new(2), t0: Instant::now() }
        }

        /// A core whose first (idle) poll has gone out at `t0`.
        fn polled() -> Sim {
            let mut sim = Sim::new();
            sim.poll(Duration::ZERO);
            sim
        }

        fn at(&self, offset: Duration) -> Instant {
            self.t0 + offset
        }

        fn due(&mut self, offset: Duration) -> Due {
            self.core.poll_due(self.at(offset))
        }

        /// The poll due at `offset`; panics when none is.
        fn poll(&mut self, offset: Duration) -> Sent {
            match self.due(offset) {
                Due::Poll { free, park, reports, .. } => {
                    let reports = reports.iter().map(|r| (r.data, r.index)).collect();
                    Sent { free, park, reports }
                }
                other => panic!("no poll due at {offset:?}: {other:?}"),
            }
        }

        fn answer(&mut self, d: Dispatch, more: bool, offset: Duration) -> Effects {
            self.core.answered(d, more, 0, self.at(offset))
        }

        fn take(&mut self) -> TaskMsg {
            self.core.take().expect("an accepted attempt").0
        }

        fn finish(&mut self, task: &TaskMsg) -> Effects {
            let TaskMsg { data, index, attempt, .. } = *task;
            let report = TaskReport { data, index, attempt, empty: Vec::new() };
            self.core.finished(report, &JobMetrics::default())
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A poll answer granting `tasks`.
    fn grant(tasks: Vec<TaskMsg>) -> Dispatch {
        answer(Assignment::Tasks(tasks), false).0
    }

    /// A poll answer ordering attempt 1 of map task (`data`, `index`)
    /// cancelled.
    fn cancel(data: u32, index: usize) -> Dispatch {
        let (mut d, _) = answer(Assignment::Wait, false);
        d.cancel.push(CancelOrder { data, index, attempt: 1 });
        d
    }

    /// An idle slave whose park is cut short by a delivery goes straight
    /// back to the master with the same park: its first poll is answered
    /// `Wait` plus one cancel order — what a long-polling master does when
    /// it cuts a park short to hand orders over — and the next poll is due
    /// at that same instant.
    #[test]
    fn early_wait_with_deliveries_is_reparked_not_slept_on() {
        let mut sim = Sim::new();
        let first = sim.poll(Duration::ZERO);
        assert_eq!((first.free, first.park), (2, IDLE_PARK), "an idle slave parks");
        let fx = sim.answer(cancel(9, 0), false, ms(1));
        assert!(fx.raise.is_empty() && fx.dropped.is_empty() && fx.queued == 0);
        let again = sim.poll(ms(1));
        assert_eq!(again.park, first.park, "the re-poll after an early Wait parks too");
    }

    /// Told nothing is left for it, a slave with two accepted tasks keeps
    /// the first report until the second task is done: one poll carries
    /// both, and finds the slave idle.
    #[test]
    fn told_nothing_left_one_poll_carries_both_reports() {
        let mut sim = Sim::polled();
        sim.answer(grant(vec![map_task(0), map_task(1)]), false, ms(1));
        let first = sim.take();
        assert!(!sim.finish(&first).wake_poller);
        assert!(matches!(sim.due(ms(2)), Due::Wait(at) if at == sim.at(ms(1) + MAX_POLL_INTERVAL)));
        let second = sim.take();
        assert!(sim.finish(&second).wake_poller, "the slave went idle");
        let poll = sim.poll(ms(3));
        assert_eq!(poll.reports, [(1, 0), (1, 1)]);
        assert_eq!((poll.free, poll.park), (2, IDLE_PARK));
    }

    /// Told more is runnable, the first completion polls at once — while
    /// the second task still runs — so the freed slot is refilled.
    #[test]
    fn told_more_runnable_the_first_completion_polls_at_once() {
        let mut sim = Sim::polled();
        sim.answer(grant(vec![map_task(0), map_task(1)]), true, ms(1));
        let (first, _second) = (sim.take(), sim.take());
        assert!(sim.finish(&first).wake_poller);
        let poll = sim.poll(ms(1));
        assert_eq!(poll.reports, [(1, 0)]);
        assert_eq!((poll.free, poll.park), (1, Duration::ZERO), "a busy slave never parks");
    }

    /// A report withheld behind a running task leaves with the heartbeat:
    /// no poll is due 1 µs before `MAX_POLL_INTERVAL` has passed since the
    /// answer, one is at it.
    #[test]
    fn withheld_report_leaves_with_the_heartbeat() {
        let mut sim = Sim::polled();
        sim.answer(grant(vec![map_task(0), map_task(1)]), false, ms(1));
        let (first, _second) = (sim.take(), sim.take());
        assert!(!sim.finish(&first).wake_poller);
        let heartbeat = ms(1) + MAX_POLL_INTERVAL;
        let early = sim.due(heartbeat - Duration::from_micros(1));
        assert!(matches!(early, Due::Wait(at) if at == sim.at(heartbeat)), "{early:?}");
        let poll = sim.poll(heartbeat);
        assert_eq!(poll.reports, [(1, 0)]);
        assert_eq!(poll.free, 1, "the second task still held its slot");
    }

    /// A failure is never withheld: it reports standalone at once, and
    /// wakes the poller for its slot, whatever the last answer said. The
    /// wake is spent by the poll it causes: once that poll is answered,
    /// the busy slave waits for its heartbeat again. A cancelled attempt's
    /// failure reports nothing.
    #[test]
    fn failure_reports_standalone_at_once() {
        let mut sim = Sim::polled();
        sim.answer(grant(vec![map_task(7), map_task(1)]), false, ms(1));
        let (failing, running) = (sim.take(), sim.take());
        let fx = sim.core.failed(&failing, &JobMetrics::default(), false);
        assert!(fx.report_failure && fx.wake_poller);
        let poll = sim.poll(ms(2));
        assert!(poll.reports.is_empty() && poll.free == 1, "{poll:?}");
        sim.answer(answer(Assignment::Wait, false).0, false, ms(3));
        assert!(matches!(sim.due(ms(4)), Due::Wait(at) if at == sim.at(ms(3) + MAX_POLL_INTERVAL)));
        let fx = sim.core.failed(&running, &JobMetrics::default(), true);
        assert!(!fx.report_failure && fx.wake_poller);
    }

    /// A cancel order for an attempt a worker holds and the purge of its
    /// dataset arrive in one answer. Whether the attempt finishes before
    /// that answer (its report still waiting for a poll) or after it, none
    /// of its outputs stays entered and it reports nothing. Effects are
    /// applied to a model output table in the order the shell applies them.
    #[test]
    fn a_cancel_and_its_datasets_purge_in_one_answer_leave_nothing_in_either_order() {
        for finish_first in [true, false] {
            let mut sim = Sim::polled();
            sim.answer(grant(vec![map_task(0)]), false, ms(1));
            let task = sim.take();
            let mut table = BTreeMap::new();
            let finish = |sim: &mut Sim, table: &mut BTreeMap<_, _>| {
                if sim.finish(&task).enter {
                    table.insert("s0/d1/t0/b0.mrsb".to_owned(), (Arc::new(Bucket::new()), true));
                }
            };
            if finish_first {
                finish(&mut sim, &mut table);
            }
            let mut d = cancel(1, 0);
            d.purge.push("s0/d1/".into());
            let fx = sim.answer(d, false, ms(2));
            fx.purge.iter().for_each(|prefix| purge(&mut table, prefix));
            assert_eq!(fx.raise.len(), usize::from(!finish_first), "finish first: {finish_first}");
            if !finish_first {
                finish(&mut sim, &mut table);
            }
            let left: Vec<&String> = table.keys().collect();
            assert!(left.is_empty(), "finish first: {finish_first}: {left:?}");
            let poll = sim.poll(ms(3));
            assert!(poll.reports.is_empty(), "finish first: {finish_first}: {poll:?}");
            assert_eq!(held(&sim.core), 0);
        }
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
            let empty = reports.iter().map(|r| r.empty.clone()).collect();
            let (authority, merge_runs) = (String::new(), counts.merge_runs());
            let polled = Polled { free, reports: carried, empty, authority, merge_runs };
            self.polls.lock().push(polled);
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
            let opts = SlaveOptions { slots: 1, ..SlaveOptions::default() };
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
        // The gated record (keyed 1) first: map task 0 stops at the gate.
        let src = driver.local_data(input().into_iter().rev().collect(), 2).unwrap();
        let mapped = driver.map_data(src, 0, 1, false).unwrap();

        // The first slave is granted both map tasks and told nothing is
        // left. Its one worker stops at the gate inside the first; the
        // slave is stopped there, before either task has finished. Every
        // poll is preceded by a look at the stop flag, so the reports the
        // two tasks then queue — the first waiting behind the second, the
        // second for the poll its idleness wakes — are never sent.
        let spy = Spy::new(&master);
        let stop = Arc::new(AtomicBool::new(false));
        let first = {
            let (spy, program, plane, stop) =
                (Arc::clone(&spy), Arc::clone(&program), plane.clone(), Arc::clone(&stop));
            let opts = SlaveOptions { slots: 1, ..SlaveOptions::default() };
            std::thread::spawn(move || run_slave(&*spy, program, plane, &opts, &stop))
        };
        gate.await_arrival();
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
        Script::new(|_, _| answer(Assignment::Wait, false))
    }

    type Answer = fn(usize, &[Polled]) -> (Dispatch, bool);

    /// Slave 0's shell, holding one worker's capacity (two).
    fn shell<'a>(
        link: &'a dyn MasterLink,
        outputs: &'a Outputs,
        server: Option<&'a DataServer>,
        shared: Option<&'a Arc<dyn Store>>,
    ) -> Slave<'a> {
        let (core, work, poll_cv) = (Mutex::new(SlaveCore::new(2)), Condvar::new(), Condvar::new());
        Slave { link, id: 0, core, work, poll_cv, outputs, server, shared }
    }

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
        struct Halt<'a, 'b>(&'a Slave<'b>);
        impl Drop for Halt<'_, '_> {
            fn drop(&mut self) {
                self.0.halt();
            }
        }
        let slave = shell(link, outputs, server, shared);
        let rec = Recorder::new();
        let poll_lane = rec.handle(POLL_LANE);
        let store = shared.map(|s| (&**s, CompressMode::default()));
        let workers = Workers { program, store, slots: 1, trace: &rec };
        let out = std::thread::scope(|s| {
            let worker = workers.spawn(s, &slave);
            let out = {
                let _halt = Halt(&slave);
                drive(&slave, &poll_lane)
            };
            join(worker).unwrap();
            out
        });
        (out, rec.drain().0)
    }

    /// Wait until the slave's attempts are all finished (re-checked
    /// whenever the slave signals its polling thread, and every
    /// millisecond).
    fn await_idle(slave: &Slave) {
        let mut core = slave.core.lock();
        while core.in_flight > 0 {
            slave.poll_cv.wait_for(&mut core, Duration::from_millis(1));
        }
    }

    /// How many entries the core holds for particular attempts.
    fn held(core: &SlaveCore) -> usize {
        core.queue.len() + core.in_flight + core.reports.len() + core.active.len()
    }

    /// Where an accepted attempt is when its cancel order arrives. (There
    /// is no stage between its fetch and its kernel: the worker that
    /// fetched it runs it.) `Finished`: its report waits for a poll.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Stage {
        Queued,
        BeingFetched,
        Running,
        Finished,
    }

    /// A cancel order reaches an accepted attempt at every stage it can be
    /// in. The attempt is never reported (a report still waiting for a
    /// poll is withdrawn), its slot is freed, it has exactly one closed
    /// `Attempt` span — with a `Cancel` instant, unless it had already
    /// finished — and nothing about it is left in the core.
    #[test]
    fn cancel_order_reaches_an_accepted_attempt_at_every_stage() {
        use mrs_trace::{Kind, Name};
        use Stage::*;
        for stage in [Queued, BeingFetched, Running, Finished] {
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
                Finished => (None, "free"),
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
                    slave.answered(grant(tasks), false, th.now_us(), th);
                    match stage {
                        Queued | BeingFetched => fetch_gate.await_arrival(),
                        Running => kernel_gate.await_arrival(),
                        Finished => await_idle(slave),
                    }
                    slave.answered(cancel(1, 1), false, 0, th);
                    fetch_gate.open();
                    kernel_gate.open();
                    await_idle(slave);
                    let core = slave.core.lock();
                    assert!(!core.queue.iter().any(|(t, _)| is_target(t)), "{stage:?}");
                    assert!(!core.active.contains_key(&key(&target)), "{stage:?}");
                    core.reports.iter().filter(|r| r.index == target.index).count()
                });
            assert_eq!(reported, 0, "{stage:?}");
            assert!(link.failed.lock().is_empty(), "{stage:?}");
            let traced = |name: Name, kind: Kind| {
                let mine = |e: &&mrs_trace::Event| e.tag.key() == (1, 1, 1);
                events.iter().filter(mine).filter(|e| e.name == name && e.kind == kind).count()
            };
            let span = (traced(Name::Attempt, Kind::Begin), traced(Name::Attempt, Kind::End));
            assert_eq!(span, (1, 1), "{stage:?}: {events:?}");
            let cancels = traced(Name::Cancel, Kind::Instant);
            assert_eq!(cancels, usize::from(stage != Finished), "{stage:?}: {events:?}");
        }
    }

    /// Cancel orders for attempts this slave has already reported find no
    /// record and leave none: after 1,000 of them the core holds nothing
    /// about any attempt.
    #[test]
    fn cancel_orders_for_reported_attempts_leave_nothing_behind() {
        let store: Arc<dyn Store> = Arc::new(MemFs::new());
        store.put("src0", &framed(&input()[..1])).unwrap();
        let (link, outputs) = (unpolled(), Outputs::default());
        let program = Simple(WordCount);
        with_stages(&*link, &program, Some(&store), None, &outputs, |slave, th| {
            let tasks = (0..1000).map(|index| TaskMsg { index, ..map_task(0) }).collect();
            slave.answered(grant(tasks), false, th.now_us(), th);
            await_idle(slave);
            // The poll that carries the reports home.
            let reports = std::mem::take(&mut slave.core.lock().reports);
            assert_eq!(reports.len(), 1000);
            let (mut d, _) = answer(Assignment::Wait, false);
            d.cancel = reports
                .iter()
                .map(|r| CancelOrder { data: r.data, index: r.index, attempt: r.attempt })
                .collect();
            slave.answered(d, false, 0, th);
            assert_eq!(held(&slave.core.lock()), 0);
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
        peer_outputs.lock().entered.insert("b0".into(), Some((Arc::new(Bucket::new()), true)));
        let (peer, calls) = counted_server(&peer_outputs);
        // The shared store's batch comes first, then the peer's.
        let task =
            TaskMsg { inputs: vec!["file://slow".into(), peer.url_for("b0")], ..map_task(0) };
        let (link, outputs) = (unpolled(), Outputs::default());
        let program = Simple(WordCount);
        let (reports, _) =
            with_stages(&*link, &program, Some(&store), None, &outputs, |slave, th| {
                slave.answered(grant(vec![task]), false, th.now_us(), th);
                fetch_gate.await_arrival();
                slave.answered(cancel(1, 0), false, 0, th);
                fetch_gate.open();
                await_idle(slave);
                slave.core.lock().reports.len()
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
            slave.answered(grant(vec![task]), false, th.now_us(), th);
            await_idle(slave);
        });
        let failed = link.failed.lock().clone();
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
        outputs.lock().entered.insert("s0/d0/t0/b0.mrsb".into(), Some((Arc::new(split), true)));
        let task = TaskMsg { inputs: vec![server.url_for("s0/d0/t0/b0.mrsb")], ..map_task(0) };
        let link = unpolled();
        let program = Simple(Gated(Arc::clone(&kernel_gate)));
        let (reports, events) =
            with_stages(&*link, &program, None, Some(&server), &outputs, |slave, th| {
                slave.answered(grant(vec![task]), false, th.now_us(), th);
                kernel_gate.await_arrival();
                let mut d = cancel(1, 0);
                d.purge.push("s0/d1/".into());
                slave.answered(d, false, 0, th);
                kernel_gate.open();
                await_idle(slave);
                slave.core.lock().reports.len()
            });
        let left: Vec<String> = outputs
            .lock()
            .entered
            .keys()
            .filter(|path| path.starts_with("s0/d1/"))
            .cloned()
            .collect();
        assert_eq!((reports, left), (0, Vec::<String>::new()));
        assert!(link.failed.lock().is_empty());
        // The kernel returned its outputs: the order landed after it.
        assert!(!events.iter().any(|e| e.name == mrs_trace::Name::Cancel), "{events:?}");
    }

    /// A loser's sink and the answer that cancels it and purges its
    /// dataset, run side by side 200 times: the answer's cancels and its
    /// purges are one lock section, so wherever the sink's entry of the
    /// outputs lands, nothing of the dataset stays and nothing is
    /// reported. The purged dataset holds 1,000 other outputs, and the
    /// answer runs on the thread the barrier releases first while the sink
    /// must wake: a purge run outside that section leaves a wide window
    /// for the entry to land after it and stay.
    #[test]
    fn a_loser_finishing_beside_the_answer_that_cancels_and_purges_it_leaves_nothing() {
        let outputs = Arc::new(Outputs::default());
        let (server, _) = counted_server(&outputs);
        let link = unpolled();
        let slave = shell(&*link, &outputs, Some(&server), None);
        let bucket = Arc::new(Bucket::from_records(vec![(b"k".to_vec(), b"v".to_vec())]));
        let start = std::sync::Barrier::new(2);
        let th = Recorder::new().handle(0);
        for attempt in 1..=200 {
            slave.answered(grant(vec![TaskMsg { attempt, ..map_task(0) }]), false, 0, &th);
            let Attempt { task, spec, tag, .. } = slave.next(&th).expect("the granted attempt");
            let mut table = outputs.lock();
            for t in 1..=1000 {
                table
                    .entered
                    .insert(format!("s0/d1/t{t}/b0.mrsb"), Some((Arc::clone(&bucket), true)));
            }
            drop(table);
            let mut d = cancel(1, 0);
            d.cancel[0].attempt = attempt;
            d.purge.push("s0/d1/".into());
            let outcome = Ok(vec![Arc::clone(&bucket)]);
            let done = Done {
                task,
                spec,
                tag,
                outcome,
                elapsed: Duration::ZERO,
                tally: JobMetrics::default(),
            };
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    slave.finish(done, &th).unwrap();
                });
                start.wait();
                slave.answered(d, false, 0, &th);
            });
            let left: Vec<String> = outputs.lock().entered.keys().cloned().collect();
            assert_eq!(left, Vec::<String>::new(), "attempt {attempt}");
            assert!(slave.core.lock().reports.is_empty(), "attempt {attempt} reported");
        }
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
        while master.live_slaves() == 0 {
            std::thread::yield_now();
        }
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
            Arc::new(move |path: &str, reader| {
                calls.fetch_add(1, Ordering::SeqCst);
                inner(path, reader)
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
        outputs.lock().entered.insert("s0/d1/t0/b0.mrsb".into(), Some((Arc::clone(&bucket), true)));
        let (server, calls) = counted_server(&outputs);
        let urls = vec![server.url_for("s0/d1/t0/b0.mrsb")];
        let (authority, go) = (server.authority(), Some(&AtomicBool::new(false)));

        let mut tally = JobMetrics::default();
        let inputs = fetch_inputs(&urls, None, Some((&authority, &outputs)), 1, go, &mut tally);
        let runs = crate::workers::gather(inputs.ok().unwrap(), &mut tally).ok().unwrap();
        assert!(Arc::ptr_eq(&runs[0], &bucket), "the run is the stored bucket, not a copy");
        assert_eq!((tally.shortcircuit_fetches(), tally.presorted_runs()), (1, 1));
        assert_eq!(tally.bytes_on_wire(), 0, "nothing crossed a socket");
        assert_eq!(calls.load(Ordering::SeqCst), 0, "the own data server was asked");

        let mut tally = JobMetrics::default();
        let inputs = fetch_inputs(&urls, None, None, 1, go, &mut tally).ok().unwrap();
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
            let (url, _) =
                with_stages(&*link, &Backwards, None, Some(&server), &outputs, |slave, th| {
                    slave.answered(grant(vec![task]), false, th.now_us(), th);
                    await_idle(slave);
                    let r = slave.core.lock().reports.pop().expect("a report");
                    output_url(Some(&server.authority()), 0, r.data, r.index, 0)
                });
            let path = url.strip_prefix(&format!("http://{}", server.authority())).unwrap();
            let frame = mrs_rpc::dataserver::fetch(&server.authority(), path).unwrap();
            let path = &path["/data/".len()..];
            (
                frame,
                Arc::clone(&outputs.lock().entered[path].as_ref().expect("records").0),
                path.to_owned(),
            )
        };
        let split = vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())];
        outputs
            .lock()
            .entered
            .insert("src".into(), Some((Arc::new(Bucket::from_records(split)), true)));
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
    /// fails naming it. (A GET asked while the slave's poll is out is held
    /// until its answer is applied, which may grant what the path names:
    /// the GET after the purge is asked beside the answer, not inside it.)
    #[test]
    fn direct_plane_outputs_are_served_overwritten_and_purged() {
        // The map's two candidate splits, on a peer; every output of
        // either holds records, so each is served.
        let peer = Arc::new(mrs_rpc::FrameCache::new());
        let lines = ["a b c d e f", "b c d e f g"];
        let splits: Vec<Vec<mrs_core::Record>> =
            lines.iter().map(|l| vec![encode_record(&0u64, &l.to_string())]).collect();
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
        type Late = Option<std::thread::JoinHandle<Vec<Result<Vec<u8>>>>>;
        let late: Arc<Mutex<Late>> = Arc::default();
        let stage = Mutex::new(0);
        let (seen2, reduce_input2, late2) =
            (Arc::clone(&seen), Arc::clone(&reduce_input), Arc::clone(&late));
        let link = Script::new(move |_, log: &[Polled]| {
            let mut stage = stage.lock();
            let last = log.last().unwrap();
            let (tasks, purge) = match *stage {
                0 => (vec![attempt(1)], vec![]),
                1 | 2 if last.reports.is_empty() => (vec![], vec![]),
                1 | 2 => {
                    let urls = last.urls(2);
                    let frames = get_all(&urls).into_iter().map(|f| f.unwrap()).collect();
                    seen2.lock().0.push(frames);
                    *reduce_input2.lock() = urls[0].clone();
                    match *stage {
                        1 => (vec![attempt(2)], vec![]),
                        _ => (vec![], vec!["s0/d1/".to_owned()]),
                    }
                }
                3 => {
                    let input = reduce_input2.lock().clone();
                    // The purged path, asked for before this answer
                    // returns: held until it is applied, then answered.
                    let (sent, asked) = std::sync::mpsc::channel();
                    let url = input.clone();
                    *late2.lock() = Some(std::thread::spawn(move || {
                        let (authority, path) = url["http://".len()..].split_once('/').unwrap();
                        let path = format!("/{path}");
                        let paths = [path.as_str()];
                        let batch = mrs_rpc::dataserver::fetch_many(authority, &paths);
                        sent.send(()).unwrap();
                        let answers = batch.finish().0.into_iter();
                        answers.map(|a| a.map(Option::unwrap_or_default)).collect()
                    }));
                    asked.recv().unwrap();
                    let reduce = TaskMsg {
                        data: 2,
                        kind: TaskKind::Reduce,
                        inputs: vec![input],
                        ..map_task(0)
                    };
                    (vec![reduce], vec![])
                }
                // The job is over once the reduce failed, and the slave
                // exits with its data server once the late GET has its
                // answer: until then every poll is answered `Wait` (a GET
                // held through a poll is answered by the next answer).
                _ if last.free == 2 && late2.lock().as_ref().is_none_or(|g| g.is_finished()) => {
                    if let Some(get) = late2.lock().take() {
                        seen2.lock().1 = get.join().unwrap();
                    }
                    return answer(Assignment::Exit, false);
                }
                _ => return answer(Assignment::Wait, false),
            };
            if !tasks.is_empty() || !purge.is_empty() {
                *stage += 1;
            }
            let (mut d, more) = answer(Assignment::Tasks(tasks), false);
            d.purge = purge;
            (d, more)
        });
        let opts = SlaveOptions { slots: 1, ..SlaveOptions::default() };
        let program: Arc<dyn Program> = Arc::new(Simple(WordCount));
        run_slave(&*link, program, DataPlane::Direct, &opts, &AtomicBool::new(false)).unwrap();
        assert!(late.lock().is_none(), "the late GET was never answered");

        let (served, after_purge) = std::mem::take(&mut *seen.lock());
        for (split, frames) in splits.iter().zip(&served) {
            let spec = TaskSpec::Map { func: 0, parts: 2, combine: false };
            let split = Bucket::from_slice(split);
            let buckets = run_task(&Simple(WordCount), &spec, &[split], None).unwrap();
            assert!(buckets.iter().all(|b| !b.is_empty()), "an output without a frame to serve");
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
        let failed = link.failed.lock().clone();
        let url = reduce_input.lock().clone();
        assert!(
            matches!(&failed[..], [(msg, Some(input))] if msg.contains("s0/d1/t0/b0.mrsb") && *input == url),
            "{failed:?}"
        );
    }

    /// A map task with more partitions than its split has words reports
    /// `empty:` for every output with no records. The data server, which a
    /// task granted ahead may ask for any of its paths, serves each other
    /// output's frame and answers those with the empty run — an empty
    /// body, no frame. A map over an `empty:` split reports nothing but
    /// `empty:`.
    #[test]
    fn an_output_with_no_records_is_reported_empty_and_served_as_the_empty_run() {
        let peer = Arc::new(mrs_rpc::FrameCache::new());
        peer.insert("src", framed(&[encode_record(&0u64, &"a b a".to_string())]));
        let peer_server = DataServer::serve(0, peer.provider()).unwrap();
        let parts = 8;
        let task = |index: usize, input: String| TaskMsg {
            index,
            parts,
            inputs: vec![input],
            ..map_task(index)
        };
        let tasks = vec![task(0, peer_server.url_for("src")), task(1, EMPTY.to_owned())];
        let tasks = Mutex::new(Some(tasks));
        // (URLs reported, whether each of task 0's paths served a frame)
        type Seen = (Vec<String>, Vec<bool>);
        let seen: Arc<Mutex<Seen>> = Arc::default();
        let seen2 = Arc::clone(&seen);
        let link = Script::new(move |_, log: &[Polled]| {
            if let Some(tasks) = tasks.lock().take() {
                return answer(Assignment::Tasks(tasks), false);
            }
            if reported(log) < 2 {
                return answer(Assignment::Wait, false);
            }
            let urls: Vec<String> = log.iter().flat_map(|p| p.urls(parts)).collect();
            let own = urls.iter().find_map(|u| u.strip_prefix("http://")).expect("an own URL");
            let authority = own.split_once('/').unwrap().0;
            let served = (0..parts)
                .map(|p| framed_at(authority, &format!("/data/s0/d1/t0/b{p}.mrsb")))
                .collect();
            *seen2.lock() = (urls, served);
            answer(Assignment::Exit, false)
        });
        let opts = SlaveOptions { slots: 1, ..SlaveOptions::default() };
        let program: Arc<dyn Program> = Arc::new(Simple(WordCount));
        run_slave(&*link, program, DataPlane::Direct, &opts, &AtomicBool::new(false)).unwrap();

        let (urls, served) = std::mem::take(&mut *seen.lock());
        assert_eq!(urls.len(), 2 * parts);
        // Reports ride polls in completion order; task 1's are all empty.
        let (first, second) = urls.split_at(parts);
        let (with_records, all_empty) =
            if first.iter().all(|u| u == EMPTY) { (second, first) } else { (first, second) };
        assert!(all_empty.iter().all(|u| u == EMPTY), "{urls:?}");
        let spec = TaskSpec::Map { func: 0, parts, combine: false };
        let split = Bucket::from_records(vec![encode_record(&0u64, &"a b a".to_string())]);
        let buckets = run_task(&Simple(WordCount), &spec, &[&split], None).unwrap();
        for ((p, url), bucket) in with_records.iter().enumerate().zip(&buckets) {
            assert_eq!(url == EMPTY, bucket.is_empty(), "output {p}: {url}");
            assert_eq!(served[p], !bucket.is_empty(), "output {p} framed: {}", served[p]);
        }
        assert!(buckets.iter().any(Bucket::is_empty) && !buckets.iter().all(Bucket::is_empty));
    }

    /// Whether the data server at `authority` answers `path` with a frame
    /// rather than the empty run; anything else panics.
    fn framed_at(authority: &str, path: &str) -> bool {
        match mrs_rpc::dataserver::fetch(authority, path) {
            Ok(body) => !body.is_empty(),
            Err(e) => panic!("{path}: {e}"),
        }
    }

    /// A purge order removes exactly the outputs under its prefix: a
    /// dataset whose number extends the purged one's (`d1` vs `d10`), the
    /// same dataset of another slave and other datasets stay.
    #[test]
    fn a_purge_removes_exactly_its_prefixs_outputs() {
        let bucket = Arc::new(Bucket::new());
        let paths =
            ["s0/d1/t0/b0.mrsb", "s0/d1/t3/b1.mrsb", "s0/d10/t0/b0.mrsb", "s0/d0/t1/b0.mrsb"];
        let others = ["s0/d2/t0/b0.mrsb", "s1/d1/t0/b0.mrsb", "s0/d1", "s0/d1-"];
        let mut table: BTreeMap<String, (Arc<Bucket>, bool)> = paths
            .iter()
            .chain(&others)
            .map(|p| (p.to_string(), (Arc::clone(&bucket), true)))
            .collect();
        purge(&mut table, "s0/d1/");
        let left: Vec<&str> = table.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = paths[2..].iter().chain(&others).copied().collect();
        want.sort();
        assert_eq!(left, want);
        purge(&mut table, "s9/d9/");
        assert_eq!(table.len(), want.len(), "a purge of nothing removed something");
    }

    /// How an accepted attempt ends while a peer's GET for one of its
    /// outputs is held.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum End {
        Entered,
        EnteredEmpty,
        Cancelled,
        Failed,
        Purged,
        Halted,
    }

    /// A peer asks for an output of an accepted attempt before it exists.
    /// The GET is held, and answered by what becomes of the attempt: the
    /// frame once its output is entered, the empty run for a partition it
    /// finished empty, and missing once a cancel, a failure, a purge of
    /// its dataset or the slave's halt drops it.
    #[test]
    fn a_held_get_is_answered_by_what_becomes_of_its_attempt() {
        use End::*;
        for end in [Entered, EnteredEmpty, Cancelled, Failed, Purged, Halted] {
            let outputs = Arc::new(Outputs::default());
            let (server, _) = counted_server(&outputs);
            let link = unpolled();
            let slave = shell(&*link, &outputs, Some(&server), None);
            let th = Recorder::new().handle(0);
            slave.answered(grant(vec![TaskMsg { parts: 2, ..map_task(0) }]), false, 0, &th);
            let Attempt { task, spec, tag, .. } = slave.next(&th).expect("the accepted attempt");
            // Partition 1 is the one the attempt finishes empty.
            let path = format!("/data/s0/d1/t0/b{}.mrsb", usize::from(end == EnteredEmpty));
            let authority = server.authority();
            let get = std::thread::spawn(move || mrs_rpc::dataserver::fetch(&authority, &path));
            while outputs.lock().held == 0 && !get.is_finished() {
                std::thread::yield_now();
            }
            assert_eq!(outputs.lock().held, 1, "{end:?}: the GET was not held");
            let bucket = Arc::new(Bucket::from_records(vec![(b"k".to_vec(), b"v".to_vec())]));
            let done = |outcome| Done {
                task: task.clone(),
                spec,
                tag,
                outcome,
                elapsed: Duration::ZERO,
                tally: JobMetrics::default(),
            };
            match end {
                Entered | EnteredEmpty => {
                    let outcome = Ok(vec![Arc::clone(&bucket), Arc::new(Bucket::new())]);
                    slave.finish(done(outcome), &th).unwrap();
                }
                Cancelled => slave.answered(cancel(1, 0), false, 0, &th),
                Failed => {
                    let failure = Failure::from(Error::TaskFailed("boom".into()));
                    slave.finish(done(Err(failure)), &th).unwrap();
                }
                Purged => {
                    let (mut d, _) = answer(Assignment::Wait, false);
                    d.purge.push("s0/d1/".into());
                    slave.answered(d, false, 0, &th);
                }
                Halted => slave.halt(),
            }
            let got = get.join().unwrap();
            match end {
                Entered => {
                    let frame = mrs_codec::encode_vec_sorted(
                        write_bucket(&bucket),
                        Default::default(),
                        true,
                    );
                    assert_eq!(got.unwrap(), frame);
                }
                EnteredEmpty => assert_eq!(got.unwrap(), Vec::<u8>::new(), "the empty run"),
                _ => assert!(
                    matches!(&got, Err(Error::MissingData(m)) if m.contains("http 404")),
                    "{end:?}: {got:?}"
                ),
            }
        }
    }

    /// A lookup held past its bound is "not yet"; asked again once the
    /// output is entered, it finds it. A path no accepted attempt writes
    /// is missing at once, and so is one whose pending attempt was granted
    /// after the reader — a peer's GET names its reader, and one that names
    /// none waits for any attempt. While a poll is out, a peer's GET of a
    /// path under this slave's stems is held until the answer is applied;
    /// a worker's own lookup, or a GET of another slave's path, is not.
    #[test]
    fn a_hold_waits_only_for_an_earlier_attempt_or_a_poll_answer_and_ends_not_yet() {
        let outputs = Arc::new(Outputs::default());
        let (server, _) = counted_server(&outputs);
        let (path, other) = ("s0/d1/t0/b0.mrsb", "s0/d1/t1/b0.mrsb");
        let find = |path, reader, peer| outputs.find(path, reader, peer, Instant::now());
        outputs.lock().own = "s0/".into();
        outputs.lock().pending.insert(("s0/d1/t0".into(), 3));
        assert!(matches!(find(path, 4, false), Found::NotYet));
        assert!(matches!(find(path, u32::MAX, true), Found::NotYet));
        assert!(matches!(find(path, 2, false), Found::Missing), "granted after the reader");
        assert!(matches!(find(other, 4, true), Found::Missing));
        let get = mrs_rpc::dataserver::with_reader(&format!("/data/{path}"), 2);
        let got = mrs_rpc::dataserver::fetch(&server.authority(), &get);
        assert!(matches!(&got, Err(Error::MissingData(m)) if m.contains("http 404")), "{got:?}");
        outputs.lock().entered.insert(path.into(), None);
        assert!(matches!(find(path, 4, false), Found::Entered(None)));
        outputs.lock().polling = true;
        assert!(matches!(find(other, 4, true), Found::NotYet), "a poll is out");
        assert!(matches!(find(other, 4, false), Found::Missing), "an own lookup");
        assert!(matches!(find("s1/d1/t1/b0.mrsb", 4, true), Found::Missing), "another's path");
        let mut table = outputs.lock();
        (table.polling, table.answers) = (false, table.answers + 1);
        drop(table);
        assert!(matches!(find(other, 4, true), Found::Missing), "the answer is applied");
        assert_eq!(outputs.lock().held, 3, "the three lookups that waited");
    }

    /// A one-worker slave accepted a map (attempt 1) and, granted ahead of
    /// it, a reduce of its output (attempt 2). The map fails, and the
    /// master grants it again (attempt 3), queued behind the reduce. The
    /// reduce's worker must not wait for attempt 3, which only that worker
    /// would run: its own lookup is answered missing at once, and the
    /// reduce fails naming the input, for the master to requeue it.
    #[test]
    fn a_reader_queued_ahead_of_its_producers_next_attempt_does_not_wait_for_it() {
        let outputs = Arc::new(Outputs::default());
        let (server, _) = counted_server(&outputs);
        let link = unpolled();
        let slave = shell(&*link, &outputs, Some(&server), None);
        let th = Recorder::new().handle(0);
        let input = server.url_for("s0/d1/t0/b0.mrsb");
        let reduce = TaskMsg {
            data: 2,
            kind: TaskKind::Reduce,
            attempt: 2,
            inputs: vec![input],
            ..map_task(0)
        };
        slave.answered(grant(vec![map_task(0), reduce]), false, 0, &th);
        let Attempt { task, spec, tag, .. } = slave.next(&th).expect("the map");
        let failure = Failure::from(Error::TaskFailed("boom".into()));
        let (outcome, elapsed, tally) = (Err(failure), Duration::ZERO, JobMetrics::default());
        slave.finish(Done { task, spec, tag, outcome, elapsed, tally }, &th).unwrap();
        slave.answered(grant(vec![TaskMsg { attempt: 3, ..map_task(0) }]), false, 0, &th);
        let reader = slave.next(&th).expect("the reduce, queued first");
        assert_eq!(reader.task.attempt, 2);
        let cancel = reader.cancel.as_deref().expect("a slave attempt's cancel flag");
        let (sent, fetched) = std::sync::mpsc::channel();
        let got = std::thread::scope(|s| {
            s.spawn(|| {
                sent.send(slave.fetch(&reader.task, Some(cancel), &mut JobMetrics::default()))
            });
            // Past a hold the flag ends the lookup: a waiting reader fails
            // the assertions below instead of hanging the test.
            let got = fetched.recv_timeout(2 * HOLD);
            cancel.store(true, Ordering::Relaxed);
            got.unwrap_or_else(|_| fetched.recv().unwrap())
        });
        let failure = got.err().expect("the reduce's input is gone");
        assert!(matches!(failure.error, Error::MissingData(_)), "{}", failure.error);
        assert_eq!(failure.input, Some(0));
        assert_eq!(outputs.lock().held, 0, "the lookup waited for a later attempt");
        slave.halt();
    }

    /// A master grants a slave's next round ahead of the round it is
    /// running, naming each pending input by the URL it derives for that
    /// producer's output. When the producer reports, the master derives
    /// the same URL again, and it names the path the slave entered the
    /// output under: with its records, or as the empty run of an output
    /// the report lists empty (the master commits `empty:` for it). The
    /// ahead tasks run to completion on those URLs, and the driver reads
    /// the last round through the URLs the master committed for it.
    #[test]
    fn a_predicted_url_is_the_one_its_producer_reports() {
        let master = Master::new(MasterConfig::default(), DataPlane::Direct).unwrap();
        let outputs = Arc::new(Outputs::default());
        let (server, _) = counted_server(&outputs);
        assert_eq!(master.signin(&server.authority(), 4), 0, "the shell is slave 0");
        let mut driver = master.clone();
        let records: Vec<mrs_core::Record> = (0..8u64).map(|i| encode_record(&i, &i)).collect();
        let src = driver.local_data(records, 2).unwrap();
        let m = driver.map_data(src, 0, 3, false).unwrap();
        let f1 = driver.reduce_map_data(m, 0, 0, 3, false).unwrap();
        let f2 = driver.reduce_map_data(f1, 0, 0, 2, false).unwrap();
        let f3 = driver.reduce_map_data(f2, 0, 0, 2, false).unwrap();
        let link = unpolled();
        with_stages(&*link, &Backwards, None, Some(&server), &outputs, |slave, th| {
            // The reports reach the master as a poll carries them.
            let run = |tasks: Vec<TaskMsg>| -> Vec<TaskReport> {
                slave.answered(grant(tasks), false, th.now_us(), th);
                await_idle(slave);
                let mut reports = std::mem::take(&mut slave.core.lock().reports);
                reports.sort_by_key(|r| r.index);
                let (none, no_trace) = (JobMetrics::default(), TraceBatch::default());
                master.poll(0, 0, Duration::ZERO, &reports, &none, &no_trace);
                reports
            };
            let granted = || match master.get_tasks(0, 3) {
                Assignment::Tasks(ts) => ts,
                other => panic!("nothing granted: {other:?}"),
            };
            // The map and f1 run whole: the slave claims f1's indices.
            run(granted());
            run(granted());
            // f2 is granted, then f3 ahead of it.
            let f2_tasks = granted();
            assert!(f2_tasks.iter().all(|t| t.data == f2.0), "{f2_tasks:?}");
            let ahead = granted();
            assert!(ahead.iter().all(|t| t.data == f3.0), "{ahead:?}");
            assert_eq!(master.metrics().ahead_grants(), ahead.len() as u64);
            let f2_reports = run(f2_tasks);
            let own = format!("http://{}/data/", server.authority());
            for t in &ahead {
                for (named, r) in t.inputs.iter().zip(&f2_reports) {
                    let path = named.strip_prefix(&own).expect("an output of this slave");
                    let entered = outputs.lock().entered.get(path).map(Option::is_some);
                    let empty = r.empty.contains(&t.index);
                    assert_eq!(entered, Some(!empty), "f3 task {} input {named}", t.index);
                    let derived =
                        r.urls(2, |p| output_url(Some(&server.authority()), 0, f2.0, r.index, p));
                    let committed = if empty { EMPTY } else { named.as_str() };
                    assert_eq!(
                        derived[t.index], committed,
                        "f3 task {} input {}",
                        t.index, r.index
                    );
                }
            }
            let n = ahead.len();
            assert_eq!(run(ahead).len(), n, "every task granted ahead reported");
            // The rest of f3, granted once f2 is committed.
            if n < 2 {
                run(granted());
            }
            let out = driver.fetch_all(f3).unwrap();
            assert_eq!(out.len(), 8, "the last round, read where committed");
        });
        let failed = link.failed.lock().clone();
        assert!(failed.is_empty(), "{failed:?}");
    }
}
