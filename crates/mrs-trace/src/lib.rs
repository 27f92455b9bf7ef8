//! Task-attempt tracing for Mrs jobs.
//!
//! A bounded, lock-cheap event recorder plus the machinery that turns raw
//! events into something a scientist can look at: cross-machine clock
//! mapping, Chrome trace-event JSON (viewable in Perfetto or
//! `chrome://tracing`), and an end-of-job critical-path sweep that
//! attributes wall-clock time to compute, shuffle wait, merge, and idle.
//!
//! Design constraints, in order:
//!
//! * **Never perturb the job.** Each recording thread owns its own shard
//!   (an uncontended `Mutex` around a fixed ring), so the hot path is a
//!   lock with no waiters plus a slot write — no allocation, no I/O.
//! * **Never grow without bound.** Every event is held in a [`Ring`] of
//!   fixed capacity — a recording shard's, or the one a master keeps per
//!   slave for the events it ingests; overflow overwrites the *oldest*
//!   events and counts every loss in `dropped_events` — a visible
//!   counter, not a silent cap.
//! * **No dependencies.** Standard library only, like the rest of the
//!   networking stack; the runtime and benches both link this crate.
//!
//! The span vocabulary is fixed (see [`Name`]) and shared by every
//! execution plane — serial, mock-parallel, thread pool, and the RPC
//! cluster all emit the same names, so serial-mode debugging keeps its
//! fidelity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default ring capacity: 64k events ≈ 2 MiB per recording thread (or per
/// slave, at a master), enough for tens of thousands of task phases
/// between drains on any realistic job.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Lane id used for a slave's poll/main loop; its workers record on lanes
/// `0..slots`.
pub const POLL_LANE: u32 = 1_002;
/// Chrome `pid` of the master's timeline; slave `s` renders as `s + 1`.
pub const MASTER_PID: u32 = 0;

/// What a trace event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A span opens at this instant (Chrome `B`).
    Begin,
    /// The innermost open span of this name closes (Chrome `E`).
    End,
    /// A point event (Chrome `i`).
    Instant,
}

impl Kind {
    /// Compact wire code.
    pub fn code(self) -> u8 {
        match self {
            Kind::Begin => 0,
            Kind::End => 1,
            Kind::Instant => 2,
        }
    }

    /// Decode a wire code.
    pub fn from_code(c: u8) -> Option<Kind> {
        match c {
            0 => Some(Kind::Begin),
            1 => Some(Kind::End),
            2 => Some(Kind::Instant),
            _ => None,
        }
    }
}

/// The span/event vocabulary — identical on every execution plane.
///
/// Spans (`Begin`/`End` pairs): [`Name::Attempt`] wraps one task attempt
/// on its worker lane; [`Name::Fetch`], [`Name::Merge`], [`Name::Exec`],
/// and [`Name::Emit`] are its phases (input transfer, merge-ready input
/// assembly, the map/reduce kernel, output encode+publish).
///
/// Instants: [`Name::Dispatch`] and [`Name::Report`] bracket the
/// master's view of an attempt; [`Name::Speculate`] marks a backup
/// launch; [`Name::Cancel`] marks an attempt aborted (master side: the
/// order was issued; slave side: the worker actually stopped — a
/// cancelled attempt emits `Cancel` instead of a `Report`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Name {
    /// One task attempt, dequeue → report, on its worker lane.
    Attempt,
    /// Input transfer: a worker fetching its attempt's inputs, inside the
    /// attempt's span.
    Fetch,
    /// The task kernel (map, reduce, or fused reduce+map).
    Exec,
    /// Merge-ready input assembly for reduce-like tasks.
    Merge,
    /// Output bucket encode + publish.
    Emit,
    /// Master handed the attempt to a slave.
    Dispatch,
    /// The attempt's completion committed at the master.
    Report,
    /// The attempt was launched as a speculative backup.
    Speculate,
    /// The attempt was cancelled (no `Report` follows for it).
    Cancel,
}

impl Name {
    /// Stable lowercase name (Chrome event name, docs, tests).
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Attempt => "attempt",
            Name::Fetch => "fetch",
            Name::Exec => "exec",
            Name::Merge => "merge",
            Name::Emit => "emit",
            Name::Dispatch => "dispatch",
            Name::Report => "report",
            Name::Speculate => "speculate",
            Name::Cancel => "cancel",
        }
    }

    /// Compact wire code.
    pub fn code(self) -> u8 {
        match self {
            Name::Attempt => 0,
            Name::Fetch => 1,
            Name::Exec => 2,
            Name::Merge => 3,
            Name::Emit => 4,
            Name::Dispatch => 5,
            Name::Report => 6,
            Name::Speculate => 7,
            Name::Cancel => 8,
        }
    }

    /// Decode a wire code. Code 9 is retired (it marked an eager-shuffle
    /// fetch) and, like any unknown code, decodes to nothing.
    pub fn from_code(c: u8) -> Option<Name> {
        Some(match c {
            0 => Name::Attempt,
            1 => Name::Fetch,
            2 => Name::Exec,
            3 => Name::Merge,
            4 => Name::Emit,
            5 => Name::Dispatch,
            6 => Name::Report,
            7 => Name::Speculate,
            8 => Name::Cancel,
            _ => return None,
        })
    }
}

/// The operation kind a traced attempt belongs to (mirrors the runtime's
/// task kinds without depending on it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Op {
    /// Not a task-scoped event.
    #[default]
    None,
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
    /// A fused reduce+map task.
    ReduceMap,
}

impl Op {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::None => "",
            Op::Map => "map",
            Op::Reduce => "reduce",
            Op::ReduceMap => "reducemap",
        }
    }

    /// Compact wire code.
    pub fn code(self) -> u8 {
        match self {
            Op::None => 0,
            Op::Map => 1,
            Op::Reduce => 2,
            Op::ReduceMap => 3,
        }
    }

    /// Decode a wire code.
    pub fn from_code(c: u8) -> Option<Op> {
        Some(match c {
            0 => Op::None,
            1 => Op::Map,
            2 => Op::Reduce,
            3 => Op::ReduceMap,
            _ => return None,
        })
    }
}

/// The task identity an event is about. All-zero [`Tag::NONE`] for
/// events that are not task-scoped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Tag {
    /// Operation kind of the task.
    pub op: Op,
    /// Output dataset id.
    pub data: u32,
    /// Task index within the dataset.
    pub index: u32,
    /// Attempt id (1-based; 0 when unknown).
    pub attempt: u32,
}

impl Tag {
    /// The non-task tag.
    pub const NONE: Tag = Tag { op: Op::None, data: 0, index: 0, attempt: 0 };

    /// A task-scoped tag.
    pub fn task(op: Op, data: u32, index: usize, attempt: u32) -> Tag {
        Tag { op, data, index: index as u32, attempt }
    }

    /// The identity triple (ignores `op`), for grouping an attempt's
    /// events across lanes and machines.
    pub fn key(&self) -> (u32, u32, u32) {
        (self.data, self.index, self.attempt)
    }
}

/// One trace event. `at_us` is microseconds since the recorder's epoch
/// (monotonic within a recorder; the master maps remote epochs onto its
/// own with [`ClockSync`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the recorder epoch.
    pub at_us: u64,
    /// Begin/End/Instant.
    pub kind: Kind,
    /// Vocabulary name.
    pub name: Name,
    /// Timeline lane: worker slot index, or [`POLL_LANE`]; on
    /// master-recorded events, the slave id the event is about.
    pub lane: u32,
    /// Task identity (or [`Tag::NONE`]).
    pub tag: Tag,
}

/// Fixed-capacity ring that overwrites its *oldest* event on overflow
/// and counts every overwrite: each recording shard is one, and so is
/// each slave's share of a master's timeline.
pub struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    /// An empty ring holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Ring {
        Ring { buf: Vec::new(), head: 0, capacity: capacity.max(1), dropped: 0 }
    }

    /// Append `e`, overwriting the oldest event when full.
    pub fn push(&mut self, e: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events overwritten since the last drain.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events in insertion order (oldest first) and the number overwritten
    /// since the last drain, leaving the ring empty.
    pub fn drain(&mut self) -> (Vec<Event>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        (out, std::mem::take(&mut self.dropped))
    }
}

struct Shard {
    ring: Mutex<Ring>,
}

struct RecorderInner {
    epoch: Instant,
    capacity: usize,
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Dropped counts already folded out of drained rings.
    drained_dropped: AtomicU64,
}

/// A job-scoped event recorder. Clone-cheap handle; threads register
/// their own [`TraceHandle`] (one shard each) and record through it, so
/// the hot path never contends. [`Recorder::drain`] merges every shard
/// into one time-sorted batch.
///
/// Deliberately an explicit object, not a process-global: parallel jobs
/// (and parallel tests) each get their own timeline.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default per-shard capacity.
    pub fn new() -> Recorder {
        Recorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder whose shards each hold at most `capacity` events
    /// between drains.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            inner: Arc::new(RecorderInner {
                epoch: Instant::now(),
                capacity,
                shards: Mutex::new(Vec::new()),
                drained_dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Microseconds since this recorder's epoch.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Register a recording handle for timeline lane `lane` (a worker
    /// slot index or one of the `*_LANE` constants). Each handle owns
    /// its own shard; give each recording thread its own handle.
    pub fn handle(&self, lane: u32) -> TraceHandle {
        let shard = Arc::new(Shard { ring: Mutex::new(Ring::new(self.inner.capacity)) });
        self.inner.shards.lock().unwrap().push(Arc::clone(&shard));
        TraceHandle { shard, epoch: self.inner.epoch, lane, last_us: AtomicU64::new(0) }
    }

    /// Take every recorded event (sorted by timestamp) plus the number
    /// of events lost to ring overflow since the last drain. Rings are
    /// left empty; handles keep recording.
    pub fn drain(&self) -> (Vec<Event>, u64) {
        let shards: Vec<Arc<Shard>> = self.inner.shards.lock().unwrap().clone();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for shard in shards {
            let (mut ev, d) = shard.ring.lock().unwrap().drain();
            events.append(&mut ev);
            dropped += d;
        }
        self.inner.drained_dropped.fetch_add(dropped, Ordering::Relaxed);
        events.sort_by_key(|e| e.at_us);
        (events, dropped)
    }

    /// Total events lost to ring overflow over this recorder's lifetime
    /// (drained and still-pending losses both included).
    pub fn dropped_events(&self) -> u64 {
        let shards = self.inner.shards.lock().unwrap();
        let pending: u64 = shards.iter().map(|s| s.ring.lock().unwrap().dropped()).sum();
        self.inner.drained_dropped.load(Ordering::Relaxed) + pending
    }
}

/// A per-thread recording handle (one ring shard). Timestamps are
/// clamped monotone per handle so a Begin backdated past the previous
/// event can never produce an out-of-order lane.
pub struct TraceHandle {
    shard: Arc<Shard>,
    epoch: Instant,
    lane: u32,
    last_us: AtomicU64,
}

impl TraceHandle {
    /// Microseconds since the parent recorder's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn record(&self, at_us: u64, kind: Kind, name: Name, lane: u32, tag: Tag) {
        // Monotone clamp: max with the last timestamp this handle wrote.
        let prev = self.last_us.fetch_max(at_us, Ordering::Relaxed);
        let at_us = at_us.max(prev);
        self.shard.ring.lock().unwrap().push(Event { at_us, kind, name, lane, tag });
    }

    /// Open a span now.
    pub fn begin(&self, name: Name, tag: Tag) {
        self.record(self.now_us(), Kind::Begin, name, self.lane, tag);
    }

    /// Open a span at an explicit (earlier) timestamp — e.g. an attempt
    /// span reaching back to when its assignment arrived. Clamped so it
    /// never precedes this handle's previous event.
    pub fn begin_at(&self, at_us: u64, name: Name, tag: Tag) {
        self.record(at_us, Kind::Begin, name, self.lane, tag);
    }

    /// Close the innermost open span of `name`.
    pub fn end(&self, name: Name, tag: Tag) {
        self.record(self.now_us(), Kind::End, name, self.lane, tag);
    }

    /// Record a point event now.
    pub fn instant(&self, name: Name, tag: Tag) {
        self.record(self.now_us(), Kind::Instant, name, self.lane, tag);
    }

    /// Record a point event on an explicit lane — the master uses this
    /// to put dispatch/report instants on the lane of the slave they
    /// concern while sharing one handle across its RPC threads.
    pub fn instant_on(&self, lane: u32, name: Name, tag: Tag) {
        self.record(self.now_us(), Kind::Instant, name, lane, tag);
    }
}

/// Maps one remote recorder's epoch-relative timestamps onto the local
/// timeline, using offsets estimated from RPC round-trips.
///
/// Each trace batch a slave ships carries `sent_at_us` (its clock at
/// send time) and `rtt_us` (its measurement of the *previous* control
/// round-trip). On receipt the local side observes
/// `offset = local_now − rtt/2 − sent_at`, and keeps the estimate from
/// the smallest round-trip seen — the sample least inflated by queueing
/// (the classic NTP argument). [`ClockSync::map_monotone`] additionally
/// clamps mapped times to be non-decreasing, so an offset re-estimate
/// between batches can never fold a later event before an earlier one.
#[derive(Debug, Default)]
pub struct ClockSync {
    offset_us: i64,
    best_rtt_us: Option<u64>,
    last_mapped_us: u64,
}

impl ClockSync {
    /// A sync with no samples: remote times pass through unshifted.
    pub fn new() -> ClockSync {
        ClockSync::default()
    }

    /// Feed one batch arrival. Returns true when the offset estimate
    /// was updated (this sample's round-trip beat the best so far).
    pub fn observe(&mut self, sent_at_us: u64, rtt_us: u64, local_now_us: u64) -> bool {
        if self.best_rtt_us.is_some_and(|best| rtt_us > best) {
            return false;
        }
        self.best_rtt_us = Some(rtt_us);
        self.offset_us = local_now_us as i64 - (rtt_us / 2) as i64 - sent_at_us as i64;
        true
    }

    /// Map a remote timestamp onto the local timeline (saturating at 0).
    pub fn map(&self, remote_us: u64) -> u64 {
        (remote_us as i64).saturating_add(self.offset_us).max(0) as u64
    }

    /// Like [`ClockSync::map`], clamped so successive calls never go
    /// backwards. Feed events in remote-time order.
    pub fn map_monotone(&mut self, remote_us: u64) -> u64 {
        let mapped = self.map(remote_us).max(self.last_mapped_us);
        self.last_mapped_us = mapped;
        mapped
    }
}

/// An event placed on the job-wide timeline: `pid` is
/// [`MASTER_PID`] for master-recorded events and `slave + 1` for slave
/// `s`'s events (matching Chrome's process rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalEvent {
    /// Timeline process row.
    pub pid: u32,
    /// The event, with `at_us` already on the master clock.
    pub event: Event,
}

/// A whole job's assembled timeline plus its loss counter.
#[derive(Clone, Debug, Default)]
pub struct JobTrace {
    /// All events, master clock, sorted by timestamp.
    pub events: Vec<GlobalEvent>,
    /// Events lost to ring overflow anywhere in the job.
    pub dropped: u64,
}

fn pid_name(pid: u32) -> String {
    if pid == MASTER_PID {
        "master".to_owned()
    } else {
        format!("slave {}", pid - 1)
    }
}

fn lane_name(pid: u32, lane: u32) -> String {
    if pid == MASTER_PID {
        return format!("slave {lane}");
    }
    match lane {
        POLL_LANE => "poll".to_owned(),
        w => format!("worker {w}"),
    }
}

impl JobTrace {
    /// Assemble a timeline from a single-process recording (the serial
    /// and mock-parallel/pool planes, where the scheduler and the
    /// workers share one clock). Scheduler-side instants (Dispatch,
    /// Report, Speculate, Cancel) move to the master process row on lane
    /// 0 — the whole process plays "slave 0" — while execution spans
    /// keep their worker lane under pid 1, so [`coverage`](Self::coverage)
    /// and [`critical_path`](Self::critical_path) read these planes
    /// exactly like a one-slave cluster.
    pub fn from_local(events: Vec<Event>, dropped: u64) -> JobTrace {
        let events = events
            .into_iter()
            .map(|mut event| {
                let pid = match event.name {
                    Name::Dispatch | Name::Report | Name::Speculate | Name::Cancel => {
                        event.lane = 0;
                        MASTER_PID
                    }
                    _ => 1,
                };
                GlobalEvent { pid, event }
            })
            .collect();
        JobTrace { events, dropped }
    }

    /// Render as Chrome trace-event JSON (the array-of-events object
    /// form), loadable in Perfetto or `chrome://tracing`. One process
    /// row per machine, one lane per slave worker slot (plus the poll
    /// service lane and the master's per-slave dispatch lanes).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut seen: Vec<(u32, Option<u32>)> = Vec::new();
        let push = |out: &mut String, first: &mut bool, s: &str| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(s);
        };
        // Metadata rows first: process and thread names.
        for e in &self.events {
            if !seen.contains(&(e.pid, None)) {
                seen.push((e.pid, None));
                push(
                    &mut out,
                    &mut first,
                    &format!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        e.pid,
                        pid_name(e.pid)
                    ),
                );
            }
            if !seen.contains(&(e.pid, Some(e.event.lane))) {
                seen.push((e.pid, Some(e.event.lane)));
                push(
                    &mut out,
                    &mut first,
                    &format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        e.pid,
                        e.event.lane,
                        lane_name(e.pid, e.event.lane)
                    ),
                );
            }
        }
        for ge in &self.events {
            let e = &ge.event;
            let ph = match e.kind {
                Kind::Begin => "B",
                Kind::End => "E",
                Kind::Instant => "i",
            };
            let scope = if e.kind == Kind::Instant { ",\"s\":\"t\"" } else { "" };
            let args = if e.tag == Tag::NONE {
                String::new()
            } else {
                format!(
                    ",\"args\":{{\"op\":\"{}\",\"data\":{},\"index\":{},\"attempt\":{}}}",
                    e.tag.op.as_str(),
                    e.tag.data,
                    e.tag.index,
                    e.tag.attempt
                )
            };
            push(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"{}\",\"ph\":\"{ph}\"{scope},\"ts\":{},\"pid\":{},\"tid\":{}{args}}}",
                    e.name.as_str(),
                    e.at_us,
                    ge.pid,
                    e.lane
                ),
            );
        }
        out.push_str("]}");
        out
    }

    /// Closed spans `(pid, interval)` for one vocabulary name. Spans a
    /// `Begin` opened but nothing closed are clipped at the last event
    /// timestamp (a cancelled attempt's phases still occupy time).
    fn spans_named(&self, want: Name) -> Vec<(u32, Tag, u64, u64)> {
        let end_ts = self.events.last().map(|e| e.event.at_us).unwrap_or(0);
        let mut open: Vec<(u32, u32, Tag, u64)> = Vec::new(); // pid, lane, tag, begin
        let mut out = Vec::new();
        for ge in &self.events {
            let e = &ge.event;
            if e.name != want {
                continue;
            }
            match e.kind {
                Kind::Begin => open.push((ge.pid, e.lane, e.tag, e.at_us)),
                Kind::End => {
                    // Innermost matching begin on the same pid+lane.
                    if let Some(pos) = open.iter().rposition(|(p, l, t, _)| {
                        *p == ge.pid && *l == e.lane && t.key() == e.tag.key()
                    }) {
                        let (pid, _, tag, begin) = open.remove(pos);
                        out.push((pid, tag, begin, e.at_us.max(begin)));
                    }
                }
                Kind::Instant => {}
            }
        }
        for (pid, _, tag, begin) in open {
            out.push((pid, tag, begin, end_ts.max(begin)));
        }
        out
    }

    /// Count events matching a predicate — test/assertion convenience.
    pub fn count(&self, f: impl Fn(&GlobalEvent) -> bool) -> usize {
        self.events.iter().filter(|e| f(e)).count()
    }

    /// Wall-clock attribution by a priority sweep over the global
    /// timeline; see [`PhaseTotals`].
    pub fn critical_path(&self) -> PhaseTotals {
        let (first, last) = match (self.events.first(), self.events.last()) {
            (Some(f), Some(l)) => (f.event.at_us, l.event.at_us),
            _ => return PhaseTotals::default(),
        };
        // Category priority (highest wins where spans overlap):
        // exec > fetch > merge > emit > idle. Exec splits by op kind at
        // bucket time.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Cat {
            MapExec,
            ReduceExec,
            Fetch,
            Merge,
            Emit,
        }
        let mut edges: Vec<(u64, Cat, i32)> = Vec::new();
        for (name, fetch_cat) in [
            (Name::Exec, None),
            (Name::Fetch, Some(Cat::Fetch)),
            (Name::Merge, Some(Cat::Merge)),
            (Name::Emit, Some(Cat::Emit)),
        ] {
            for (_, tag, b, e) in self.spans_named(name) {
                let cat = fetch_cat.unwrap_or(if tag.op == Op::Map {
                    Cat::MapExec
                } else {
                    Cat::ReduceExec
                });
                edges.push((b, cat, 1));
                edges.push((e, cat, -1));
            }
        }
        edges.sort_by_key(|(t, c, d)| (*t, *c, -*d));
        let mut active = [0i32; 5];
        let mut totals = PhaseTotals { wall_us: last - first, ..PhaseTotals::default() };
        let mut cursor = first;
        let mut i = 0;
        while i < edges.len() {
            let t = edges[i].0;
            if t > cursor {
                let dt = t - cursor;
                let bucket = if active[Cat::MapExec as usize] > 0 {
                    &mut totals.map_exec_us
                } else if active[Cat::ReduceExec as usize] > 0 {
                    &mut totals.reduce_exec_us
                } else if active[Cat::Fetch as usize] > 0 {
                    &mut totals.fetch_us
                } else if active[Cat::Merge as usize] > 0 {
                    &mut totals.merge_us
                } else if active[Cat::Emit as usize] > 0 {
                    &mut totals.emit_us
                } else {
                    &mut totals.idle_us
                };
                *bucket += dt;
                cursor = t;
            }
            while i < edges.len() && edges[i].0 == t {
                active[edges[i].1 as usize] += edges[i].2;
                i += 1;
            }
        }
        if last > cursor {
            totals.idle_us += last - cursor;
        }
        totals
    }

    /// Per-attempt span coverage: for every attempt the master both
    /// dispatched and saw reported (its `Dispatch`/`Report` instants),
    /// the fraction of the dispatch→report interval covered by the union
    /// of that attempt's recorded spans (any lane, any machine).
    pub fn coverage(&self) -> Vec<AttemptCoverage> {
        // Master-side windows per attempt key.
        let mut windows: Vec<(Tag, u64, Option<u64>)> = Vec::new();
        for ge in &self.events {
            let e = &ge.event;
            if ge.pid != MASTER_PID || e.kind != Kind::Instant {
                continue;
            }
            match e.name {
                Name::Dispatch => windows.push((e.tag, e.at_us, None)),
                Name::Report => {
                    if let Some(w) = windows
                        .iter_mut()
                        .find(|(t, _, end)| t.key() == e.tag.key() && end.is_none())
                    {
                        w.2 = Some(e.at_us);
                    }
                }
                _ => {}
            }
        }
        // Attempt-phase spans per key.
        let mut spans: Vec<(Tag, u64, u64)> = Vec::new();
        for name in [Name::Attempt, Name::Fetch, Name::Exec, Name::Merge, Name::Emit] {
            for (_, tag, b, e) in self.spans_named(name) {
                spans.push((tag, b, e));
            }
        }
        let mut out = Vec::new();
        for (tag, d, r) in windows {
            let Some(r) = r else { continue };
            if r <= d {
                continue;
            }
            let mut mine: Vec<(u64, u64)> = spans
                .iter()
                .filter(|(t, _, _)| t.key() == tag.key())
                .map(|(_, b, e)| (b.max(&d).to_owned(), e.min(&r).to_owned()))
                .filter(|(b, e)| e > b)
                .collect();
            mine.sort_unstable();
            let mut covered = 0u64;
            let mut hi = d;
            for (b, e) in mine {
                let b = b.max(hi);
                if e > b {
                    covered += e - b;
                    hi = e;
                }
            }
            out.push(AttemptCoverage { tag, window_us: r - d, covered_us: covered });
        }
        out
    }
}

/// One attempt's span coverage of its master-side dispatch→report
/// window.
#[derive(Clone, Copy, Debug)]
pub struct AttemptCoverage {
    /// The attempt.
    pub tag: Tag,
    /// Dispatch→report, microseconds.
    pub window_us: u64,
    /// Microseconds of the window covered by the attempt's spans.
    pub covered_us: u64,
}

impl AttemptCoverage {
    /// Covered fraction in [0, 1].
    pub fn fraction(&self) -> f64 {
        if self.window_us == 0 {
            return 1.0;
        }
        self.covered_us as f64 / self.window_us as f64
    }
}

/// Wall-clock attribution from [`JobTrace::critical_path`]: every
/// microsecond of the traced window lands in exactly one bucket, chosen
/// by priority where phases overlap across lanes (exec beats fetch
/// beats merge beats emit beats idle), so the buckets always sum to
/// `wall_us` exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// First event → last event.
    pub wall_us: u64,
    /// Some map-like kernel was running.
    pub map_exec_us: u64,
    /// Some reduce-like kernel was running (and no map).
    pub reduce_exec_us: u64,
    /// Input transfer was the best thing happening (shuffle wait).
    pub fetch_us: u64,
    /// Merge-ready input assembly was the best thing happening.
    pub merge_us: u64,
    /// Output encode/publish was the best thing happening.
    pub emit_us: u64,
    /// Nothing traced was running (barrier/dispatch idle).
    pub idle_us: u64,
}

impl PhaseTotals {
    /// The buckets, in priority order, as (label, µs).
    pub fn buckets(&self) -> [(&'static str, u64); 6] {
        [
            ("map compute", self.map_exec_us),
            ("reduce compute", self.reduce_exec_us),
            ("shuffle wait", self.fetch_us),
            ("merge", self.merge_us),
            ("emit", self.emit_us),
            ("idle", self.idle_us),
        ]
    }

    /// Human-readable critical-path report (one line per bucket).
    pub fn render(&self) -> String {
        let wall_ms = self.wall_us as f64 / 1000.0;
        let mut out = format!("critical path over {wall_ms:.1} ms traced:\n");
        for (label, us) in self.buckets() {
            let ms = us as f64 / 1000.0;
            let pct = if self.wall_us == 0 { 0.0 } else { 100.0 * us as f64 / self.wall_us as f64 };
            out.push_str(&format!("  {label:<14} {ms:>10.1} ms  {pct:>5.1}%\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, kind: Kind, name: Name, lane: u32, tag: Tag) -> Event {
        Event { at_us, kind, name, lane, tag }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let rec = Recorder::with_capacity(4);
        let h = rec.handle(0);
        for i in 0..7u64 {
            h.begin_at(i, Name::Exec, Tag::task(Op::Map, 0, i as usize, 1));
        }
        let (events, dropped) = rec.drain();
        assert_eq!(dropped, 3, "three oldest events overwritten");
        assert_eq!(rec.dropped_events(), 3);
        let indices: Vec<u32> = events.iter().map(|e| e.tag.index).collect();
        assert_eq!(indices, vec![3, 4, 5, 6], "oldest dropped, newest kept, order preserved");
        // Drained: the ring is empty and keeps accepting.
        let (events, dropped) = rec.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
        h.instant(Name::Report, Tag::NONE);
        assert_eq!(rec.drain().0.len(), 1);
        assert_eq!(rec.dropped_events(), 3, "lifetime counter survives drains");
    }

    #[test]
    fn drain_merges_shards_sorted_by_time() {
        let rec = Recorder::new();
        let a = rec.handle(0);
        let b = rec.handle(1);
        a.begin_at(10, Name::Exec, Tag::NONE);
        b.begin_at(5, Name::Fetch, Tag::NONE);
        a.begin_at(20, Name::Emit, Tag::NONE);
        b.begin_at(15, Name::Merge, Tag::NONE);
        let (events, _) = rec.drain();
        let times: Vec<u64> = events.iter().map(|e| e.at_us).collect();
        assert_eq!(times, vec![5, 10, 15, 20]);
        assert_eq!(events[0].lane, 1);
        assert_eq!(events[1].lane, 0);
    }

    #[test]
    fn handle_timestamps_are_monotone_even_when_backdated() {
        let rec = Recorder::new();
        let h = rec.handle(2);
        h.begin_at(100, Name::Exec, Tag::NONE);
        // A backdated begin cannot rewind the lane.
        h.begin_at(50, Name::Fetch, Tag::NONE);
        let (events, _) = rec.drain();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.at_us == 100));
    }

    #[test]
    fn clock_sync_keeps_best_rtt_sample() {
        let mut c = ClockSync::new();
        // Slave clock is 1000µs behind master: true offset +1000.
        assert!(c.observe(500, 200, 1600)); // offset = 1600-100-500 = 1000
        assert_eq!(c.map(700), 1700);
        // A worse (queue-inflated) round trip must not disturb the estimate.
        assert!(!c.observe(900, 800, 2700));
        assert_eq!(c.map(700), 1700);
        // A better one refines it.
        assert!(c.observe(1500, 100, 2540)); // offset = 2540-50-1500 = 990
        assert_eq!(c.map(700), 1690);
    }

    #[test]
    fn clock_sync_mapping_is_monotone_across_offset_updates() {
        let mut c = ClockSync::new();
        c.observe(0, 100, 2000);
        let a = c.map_monotone(100);
        // The offset shrinks by more than the event spacing: an un-clamped
        // mapping would step backwards.
        c.observe(1000, 10, 2500);
        let b = c.map_monotone(110);
        let d = c.map_monotone(200);
        assert!(a <= b, "{a} > {b}");
        assert!(b <= d, "{b} > {d}");
        // Zero-sample sync passes through.
        let c2 = ClockSync::new();
        assert_eq!(c2.map(42), 42);
    }

    fn demo_trace() -> JobTrace {
        let tag = Tag::task(Op::Map, 1, 0, 1);
        let rtag = Tag::task(Op::Reduce, 2, 0, 1);
        JobTrace {
            events: vec![
                GlobalEvent {
                    pid: MASTER_PID,
                    event: ev(0, Kind::Instant, Name::Dispatch, 0, tag),
                },
                GlobalEvent { pid: 1, event: ev(10, Kind::Begin, Name::Attempt, 0, tag) },
                GlobalEvent { pid: 1, event: ev(10, Kind::Begin, Name::Fetch, 0, tag) },
                GlobalEvent { pid: 1, event: ev(30, Kind::End, Name::Fetch, 0, tag) },
                GlobalEvent { pid: 1, event: ev(30, Kind::Begin, Name::Exec, 0, tag) },
                GlobalEvent { pid: 1, event: ev(80, Kind::End, Name::Exec, 0, tag) },
                GlobalEvent { pid: 1, event: ev(80, Kind::Begin, Name::Emit, 0, tag) },
                GlobalEvent { pid: 1, event: ev(90, Kind::End, Name::Emit, 0, tag) },
                GlobalEvent { pid: 1, event: ev(95, Kind::End, Name::Attempt, 0, tag) },
                GlobalEvent {
                    pid: MASTER_PID,
                    event: ev(100, Kind::Instant, Name::Report, 0, tag),
                },
                GlobalEvent { pid: 2, event: ev(120, Kind::Begin, Name::Exec, 0, rtag) },
                GlobalEvent { pid: 2, event: ev(200, Kind::End, Name::Exec, 0, rtag) },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn critical_path_buckets_sum_to_wall_exactly() {
        let t = demo_trace().critical_path();
        assert_eq!(t.wall_us, 200);
        assert_eq!(t.map_exec_us, 50);
        assert_eq!(t.reduce_exec_us, 80);
        assert_eq!(t.fetch_us, 20);
        assert_eq!(t.emit_us, 10);
        let sum: u64 = t.buckets().iter().map(|(_, us)| us).sum();
        assert_eq!(sum, t.wall_us, "sweep partitions every microsecond exactly once");
        assert!(t.render().contains("map compute"));
    }

    #[test]
    fn coverage_measures_dispatch_report_window() {
        let cov = demo_trace().coverage();
        assert_eq!(cov.len(), 1, "only the map attempt has both instants");
        let c = cov[0];
        assert_eq!(c.window_us, 100);
        // Attempt span [10, 95] covers the union of the phases.
        assert_eq!(c.covered_us, 85);
        assert!((c.fraction() - 0.85).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_is_wellformed_and_named() {
        let json = demo_trace().chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"slave 0\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"op\":\"map\""));
        // Balanced braces/brackets — a cheap well-formedness check that
        // catches any comma/quote slip without a JSON parser dependency.
        let (mut braces, mut brackets) = (0i64, 0i64);
        let mut in_str = false;
        let mut prev = ' ';
        for ch in json.chars() {
            if in_str {
                if ch == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match ch {
                    '"' => in_str = true,
                    '{' => braces += 1,
                    '}' => braces -= 1,
                    '[' => brackets += 1,
                    ']' => brackets -= 1,
                    _ => {}
                }
            }
            prev = ch;
        }
        assert_eq!((braces, brackets), (0, 0));
    }

    #[test]
    fn codes_roundtrip() {
        for name in [
            Name::Attempt,
            Name::Fetch,
            Name::Exec,
            Name::Merge,
            Name::Emit,
            Name::Dispatch,
            Name::Report,
            Name::Speculate,
            Name::Cancel,
        ] {
            assert_eq!(Name::from_code(name.code()), Some(name));
        }
        assert_eq!(Name::from_code(9), None, "a retired code");
        for kind in [Kind::Begin, Kind::End, Kind::Instant] {
            assert_eq!(Kind::from_code(kind.code()), Some(kind));
        }
        for op in [Op::None, Op::Map, Op::Reduce, Op::ReduceMap] {
            assert_eq!(Op::from_code(op.code()), Some(op));
        }
        assert_eq!(Name::from_code(99), None);
        assert_eq!(Kind::from_code(99), None);
        assert_eq!(Op::from_code(99), None);
    }

    #[test]
    fn unclosed_span_is_clipped_at_trace_end() {
        let tag = Tag::task(Op::Map, 0, 0, 1);
        let t = JobTrace {
            events: vec![
                GlobalEvent { pid: 1, event: ev(0, Kind::Begin, Name::Exec, 0, tag) },
                GlobalEvent { pid: 1, event: ev(50, Kind::Instant, Name::Cancel, 0, tag) },
            ],
            dropped: 0,
        };
        let cp = t.critical_path();
        assert_eq!(cp.map_exec_us, 50);
        assert_eq!(cp.idle_us, 0);
    }
}
