//! Master↔slave protocol messages and their XML-RPC encoding.
//!
//! The control channel (§IV-B) is genuine XML-RPC; these are the typed
//! views of the `signin` / `get_task` / `task_failed` payloads plus the URL
//! resolver both sides use to read bucket data (`http://` direct transfer,
//! `file://` / `mem://` shared filesystem).
//!
//! The wire has exactly one version, [`PROTOCOL_VERSION`]: a slave names
//! it at `signin` and a master refuses any other, so behind that gate
//! every decoder here *requires* every field its encoder writes. What the
//! encoders leave out — empty `purge` / `cancel` lists, an empty
//! trace batch, a zero counter in a slave's tally — is left out for
//! compactness and means "none".

use crate::metrics::{Counter, JobMetrics};
use mrs_codec::FrameError;
use mrs_core::{Error, Record, Result, TaskSpec};
use mrs_fs::format::read_bucket_records;
use mrs_fs::{BucketUrl, Store};
use mrs_rpc::dataserver;
use mrs_rpc::xmlrpc::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The version of the master↔slave wire protocol this build speaks: the
/// set of RPC methods, their positional parameters, and the keys of every
/// struct in this module. A slave sends it as `signin`'s third parameter;
/// a master answers a missing or different version with a fault naming
/// both, which ends the slave. Every node of a cluster is built from one
/// commit, so there are no older peers to stay readable for — bump this
/// on any change to the wire instead of adding a fallback.
pub const PROTOCOL_VERSION: i64 = 5;

/// Whether the master launches speculative backup copies of straggling
/// tasks (§ speculative execution). When a task wave is nearly drained and
/// idle slots exist, a running task whose elapsed time exceeds
/// `threshold ×` the median completed-task runtime of its operation (and
/// a fixed launch floor past that median) gets a backup attempt on a
/// different slave; the first attempt to finish wins and the loser is
/// cancelled cooperatively. `Off` keeps the non-speculative scheduler as
/// a first-class oracle for benchmarks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpeculateMode {
    /// Never launch backup attempts.
    Off,
    /// Launch a backup when a task has run longer than `threshold` times
    /// the median completed runtime of its operation.
    On {
        /// Straggler multiple; 1.5 by default.
        threshold: f64,
    },
}

impl Default for SpeculateMode {
    fn default() -> Self {
        SpeculateMode::On { threshold: 1.5 }
    }
}

impl SpeculateMode {
    /// Parse a `--mrs-speculate` value: `on`, `off`, or `threshold=X`.
    pub fn parse(s: &str) -> Result<SpeculateMode> {
        match s {
            "off" => Ok(SpeculateMode::Off),
            "on" => Ok(SpeculateMode::default()),
            other => match other.strip_prefix("threshold=") {
                Some(t) => match t.parse::<f64>() {
                    Ok(x) if x.is_finite() && x >= 1.0 => Ok(SpeculateMode::On { threshold: x }),
                    _ => Err(Error::Invalid(format!("speculate threshold {t:?} must be >= 1.0"))),
                },
                None => Err(Error::Invalid(format!(
                    "unknown speculate mode {other:?} (on|off|threshold=X)"
                ))),
            },
        }
    }
}

/// Integer field `name` of struct `v`, a `what` message.
fn int_field(v: &Value, what: &str, name: &str) -> Result<i64> {
    v.field(name)
        .and_then(Value::as_int)
        .ok_or_else(|| Error::Rpc(format!("{what} missing {name}")))
}

/// The strings of array `items`, the `name` list of a `what` message.
fn strings(items: &[Value], what: &str, name: &str) -> Result<Vec<String>> {
    items
        .iter()
        .map(|s| s.as_str().map(str::to_owned))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| Error::Rpc(format!("non-string entry in {what} {name}")))
}

/// String-array field `name` of struct `v`, a `what` message.
fn strings_field(v: &Value, what: &str, name: &str) -> Result<Vec<String>> {
    let items = v
        .field(name)
        .and_then(Value::as_array)
        .ok_or_else(|| Error::Rpc(format!("{what} missing {name}")))?;
    strings(items, what, name)
}

/// Attempt ids are 1-based; 0 (or anything that does not fit) on the wire
/// is a malformed message, not "no attempt tracking".
pub(crate) fn attempt_id(wire: i64) -> Result<u32> {
    u32::try_from(wire)
        .ok()
        .filter(|&a| a >= 1)
        .ok_or_else(|| Error::Rpc(format!("attempt id {wire} out of range (ids start at 1)")))
}

/// A task-completion report, batched on `get_task` calls as the
/// piggybacked `reports` parameter: one control round trip both returns
/// finished work and fetches the next batch.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskReport {
    /// Output dataset id the task contributed to.
    pub data: u32,
    /// Task index within the dataset.
    pub index: usize,
    /// The attempt id the task message carried (never 0).
    pub attempt: u32,
    /// Output bucket URLs (one per partition for map, one for reduce).
    pub urls: Vec<String>,
}

impl TaskReport {
    /// Encode for the RPC request.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("data".to_owned(), Value::Int(self.data as i64));
        m.insert("index".to_owned(), Value::Int(self.index as i64));
        m.insert("attempt".to_owned(), Value::Int(self.attempt as i64));
        m.insert(
            "urls".to_owned(),
            Value::Array(self.urls.iter().map(|u| Value::Str(u.clone())).collect()),
        );
        Value::Struct(m)
    }

    /// Decode from the RPC request.
    pub fn from_value(v: &Value) -> Result<TaskReport> {
        let int = |name| int_field(v, "report", name);
        Ok(TaskReport {
            data: int("data")? as u32,
            index: int("index")? as usize,
            attempt: attempt_id(int("attempt")?)?,
            urls: strings_field(v, "report", "urls")?,
        })
    }
}

/// What `get_task` returns to a polling slave.
///
/// A multicore slave polls with its free slot count and can be handed a
/// whole batch in one round trip, so filling an N-slot slave costs one
/// poll, not N — the per-round control-channel latency the BSP analysis
/// (PAPERS.md) identifies as the iterative-workload tax.
#[derive(Clone, Debug, PartialEq)]
pub enum Assignment {
    /// Run these tasks (never empty; at most the `free_slots` the slave
    /// asked for, and never more than the master believes it has free).
    Tasks(Vec<TaskMsg>),
    /// Nothing runnable right now; poll again.
    Wait,
    /// The job is over; the slave should exit its loop.
    Exit,
}

/// What a task does with its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Map each input record, partitioning output into `parts` buckets.
    Map,
    /// Sort-group-reduce the gathered partition into one output bucket.
    Reduce,
    /// Fused reduce+map (§ iterative jobs): sort-group-reduce the gathered
    /// partition and feed every reduced record straight into the map
    /// function, partitioning like a map task — one scheduling round and
    /// one shuffle instead of two, with no materialized reduce output.
    ReduceMap,
}

impl TaskKind {
    /// The wire discriminator of a task description.
    pub fn of(spec: &TaskSpec) -> TaskKind {
        match spec {
            TaskSpec::Map { .. } => TaskKind::Map,
            TaskSpec::Reduce { .. } => TaskKind::Reduce,
            TaskSpec::ReduceMap { .. } => TaskKind::ReduceMap,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
            TaskKind::ReduceMap => "reducemap",
        }
    }

    fn parse(s: &str) -> Result<TaskKind> {
        match s {
            "map" => Ok(TaskKind::Map),
            "reduce" => Ok(TaskKind::Reduce),
            "reducemap" => Ok(TaskKind::ReduceMap),
            other => Err(Error::Rpc(format!("unknown task kind {other:?}"))),
        }
    }
}

/// The trace-vocabulary operation of a task description.
pub(crate) fn trace_op(spec: &TaskSpec) -> mrs_trace::Op {
    match spec {
        TaskSpec::Map { .. } => mrs_trace::Op::Map,
        TaskSpec::Reduce { .. } => mrs_trace::Op::Reduce,
        TaskSpec::ReduceMap { .. } => mrs_trace::Op::ReduceMap,
    }
}

/// A task assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskMsg {
    /// Output dataset id the task contributes to.
    pub data: u32,
    /// Task index within the dataset.
    pub index: usize,
    /// What the task does with its input.
    pub kind: TaskKind,
    /// Program function id (the reduce function for fused tasks).
    pub func: u32,
    /// Map function id for fused `ReduceMap` tasks; 0 otherwise.
    pub map_func: u32,
    /// Output partitions (map-like only; 1 for reduce).
    pub parts: usize,
    /// Run the combiner after mapping.
    pub combine: bool,
    /// Attempt id (1-based, unique per master): echoed back in the
    /// completion report so the master can reject reports from attempts
    /// that have since been cancelled or superseded — also from a life of
    /// the task before its dataset was reclaimed and rebuilt.
    pub attempt: u32,
    /// Input bucket URLs.
    pub inputs: Vec<String>,
}

impl TaskMsg {
    /// The message for attempt `attempt` of task `index` of dataset
    /// `data`, running `spec` over `inputs`. A reduce is written with
    /// `map_func` 0, `parts` 1 and no combiner.
    pub fn new(
        data: u32,
        index: usize,
        spec: &TaskSpec,
        attempt: u32,
        inputs: Vec<String>,
    ) -> Self {
        let (func, map_func, parts, combine) = match *spec {
            TaskSpec::Map { func, parts, combine } => (func, 0, parts, combine),
            TaskSpec::Reduce { func } => (func, 0, 1, false),
            TaskSpec::ReduceMap { reduce_func, map_func, parts, combine } => {
                (reduce_func, map_func, parts, combine)
            }
        };
        let kind = TaskKind::of(spec);
        TaskMsg { data, index, kind, func, map_func, parts, combine, attempt, inputs }
    }

    /// The task's kernel description: what [`mrs_core::task::run_task`]
    /// runs over the fetched inputs.
    pub fn spec(&self) -> TaskSpec {
        match self.kind {
            TaskKind::Map => {
                TaskSpec::Map { func: self.func, parts: self.parts, combine: self.combine }
            }
            TaskKind::Reduce => TaskSpec::Reduce { func: self.func },
            TaskKind::ReduceMap => TaskSpec::ReduceMap {
                reduce_func: self.func,
                map_func: self.map_func,
                parts: self.parts,
                combine: self.combine,
            },
        }
    }

    /// Encode for the RPC response.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("data".to_owned(), Value::Int(self.data as i64));
        m.insert("index".to_owned(), Value::Int(self.index as i64));
        m.insert("kind".to_owned(), Value::Str(self.kind.as_str().into()));
        m.insert("func".to_owned(), Value::Int(self.func as i64));
        m.insert("map_func".to_owned(), Value::Int(self.map_func as i64));
        m.insert("parts".to_owned(), Value::Int(self.parts as i64));
        m.insert("combine".to_owned(), Value::Bool(self.combine));
        m.insert("attempt".to_owned(), Value::Int(self.attempt as i64));
        m.insert(
            "inputs".to_owned(),
            Value::Array(self.inputs.iter().map(|u| Value::Str(u.clone())).collect()),
        );
        Value::Struct(m)
    }

    /// Decode from the RPC response; every key `to_value` writes is
    /// required.
    pub fn from_value(v: &Value) -> Result<TaskMsg> {
        let int = |name| int_field(v, "assignment", name);
        let kind = v
            .field("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| Error::Rpc("assignment missing kind".into()))?;
        let combine = match v.field("combine") {
            Some(Value::Bool(b)) => *b,
            _ => return Err(Error::Rpc("assignment missing combine".into())),
        };
        Ok(TaskMsg {
            data: int("data")? as u32,
            index: int("index")? as usize,
            kind: TaskKind::parse(kind)?,
            func: int("func")? as u32,
            map_func: int("map_func")? as u32,
            parts: int("parts")? as usize,
            combine,
            attempt: attempt_id(int("attempt")?)?,
            inputs: strings_field(v, "assignment", "inputs")?,
        })
    }
}

impl Assignment {
    /// Encode for the RPC response.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        match self {
            Assignment::Wait => {
                m.insert("type".to_owned(), Value::Str("wait".into()));
            }
            Assignment::Exit => {
                m.insert("type".to_owned(), Value::Str("exit".into()));
            }
            Assignment::Tasks(tasks) => {
                m.insert("type".to_owned(), Value::Str("tasks".into()));
                m.insert(
                    "tasks".to_owned(),
                    Value::Array(tasks.iter().map(TaskMsg::to_value).collect()),
                );
            }
        }
        Value::Struct(m)
    }

    /// Decode from the RPC response.
    pub fn from_value(v: &Value) -> Result<Assignment> {
        let ty = v
            .field("type")
            .and_then(Value::as_str)
            .ok_or_else(|| Error::Rpc("assignment missing type".into()))?;
        match ty {
            "wait" => Ok(Assignment::Wait),
            "exit" => Ok(Assignment::Exit),
            "tasks" => {
                let tasks = v
                    .field("tasks")
                    .and_then(Value::as_array)
                    .ok_or_else(|| Error::Rpc("assignment missing tasks".into()))?
                    .iter()
                    .map(TaskMsg::from_value)
                    .collect::<Result<Vec<_>>>()?;
                if tasks.is_empty() {
                    return Err(Error::Rpc("empty task batch".into()));
                }
                Ok(Assignment::Tasks(tasks))
            }
            other => Err(Error::Rpc(format!("unknown assignment type {other:?}"))),
        }
    }
}

/// An order to abort a specific running attempt: piggybacked on the
/// `Dispatch` response to the slave that is running an attempt which lost
/// the first-completion race (or whose task became moot). The slave sets
/// the attempt's cancellation flag — checked at kernel record/group
/// boundaries — and silently discards the partial output, freeing the slot
/// without reporting. An order that arrives too late to stop the attempt
/// costs nothing: its stale report is rejected by attempt id.
#[derive(Clone, Debug, PartialEq)]
pub struct CancelOrder {
    /// Output dataset id of the task.
    pub data: u32,
    /// Task index within the dataset.
    pub index: usize,
    /// The specific attempt to abort (never 0).
    pub attempt: u32,
}

impl CancelOrder {
    /// Encode for the RPC response.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("data".to_owned(), Value::Int(self.data as i64));
        m.insert("index".to_owned(), Value::Int(self.index as i64));
        m.insert("attempt".to_owned(), Value::Int(self.attempt as i64));
        Value::Struct(m)
    }

    /// Decode from the RPC response.
    pub fn from_value(v: &Value) -> Result<CancelOrder> {
        let int = |name| int_field(v, "cancel order", name);
        Ok(CancelOrder {
            data: int("data")? as u32,
            index: int("index")? as usize,
            attempt: attempt_id(int("attempt")?)?,
        })
    }
}

/// Bytes per event in a [`TraceBatch`] blob, all little-endian: `at_us`
/// u64, then `lane`, `data`, `index`, `attempt` u32 each, then the
/// `kind`, `name`, `op` codes one byte each.
const EVENT_RECORD: usize = 27;

/// A batch of trace events piggybacked on a `get_task` call: the slave
/// drains its recorder every poll and ships the delta, so tracing costs
/// zero extra RPCs. `sent_at_us` is the slave's clock at send time and
/// `rtt_us` the slave-measured round trip of its *previous* poll (0 =
/// not yet known); together they let the master fit a clock offset
/// ([`mrs_trace::ClockSync`]) and map the events onto its own timeline.
/// An empty batch (tracing off, or nothing recorded) is not sent at all.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceBatch {
    /// Slave recorder clock (µs since its epoch) when the batch was sent.
    pub sent_at_us: u64,
    /// Slave-measured RTT of the previous `get_task` call (0 = unknown).
    pub rtt_us: u64,
    /// Events lost to ring-buffer overflow since the last batch.
    pub dropped: u64,
    /// The drained events, time-sorted on the slave's clock.
    pub events: Vec<mrs_trace::Event>,
}

impl TraceBatch {
    /// True when there is nothing worth shipping (tracing off or idle).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Encode for the RPC request. The events travel as one `<base64>`
    /// blob of [`EVENT_RECORD`]-byte records rather than XML values: a
    /// busy poll ships dozens of events, and an `<int>` element per field
    /// made the trace delta the bulk of the request.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("sent_at".to_owned(), Value::Int(self.sent_at_us as i64));
        m.insert("rtt".to_owned(), Value::Int(self.rtt_us as i64));
        m.insert("dropped".to_owned(), Value::Int(self.dropped as i64));
        let mut blob = Vec::with_capacity(self.events.len() * EVENT_RECORD);
        for e in &self.events {
            blob.extend_from_slice(&e.at_us.to_le_bytes());
            blob.extend_from_slice(&e.lane.to_le_bytes());
            blob.extend_from_slice(&e.tag.data.to_le_bytes());
            blob.extend_from_slice(&e.tag.index.to_le_bytes());
            blob.extend_from_slice(&e.tag.attempt.to_le_bytes());
            blob.extend_from_slice(&[e.kind.code(), e.name.code(), e.tag.op.code()]);
        }
        m.insert("events".to_owned(), Value::Bytes(blob));
        Value::Struct(m)
    }

    /// Decode from the RPC request. Tracing is best-effort observability:
    /// an event with an unknown kind/name/op code is skipped rather than
    /// failing the whole dispatch; only a structurally malformed batch is
    /// an error.
    pub fn from_value(v: &Value) -> Result<TraceBatch> {
        let int = |name| int_field(v, "trace batch", name);
        let blob = v
            .field("events")
            .and_then(Value::as_bytes)
            .ok_or_else(|| Error::Rpc("trace batch missing events".into()))?;
        if blob.len() % EVENT_RECORD != 0 {
            return Err(Error::Rpc(format!(
                "trace event blob of {} bytes is not a multiple of {EVENT_RECORD}",
                blob.len()
            )));
        }
        let u32_at = |r: &[u8], at: usize| {
            u32::from_le_bytes(r[at..at + 4].try_into().expect("four-byte slice"))
        };
        let mut events = Vec::with_capacity(blob.len() / EVENT_RECORD);
        for r in blob.chunks_exact(EVENT_RECORD) {
            let (Some(kind), Some(name), Some(op)) = (
                mrs_trace::Kind::from_code(r[24]),
                mrs_trace::Name::from_code(r[25]),
                mrs_trace::Op::from_code(r[26]),
            ) else {
                continue;
            };
            events.push(mrs_trace::Event {
                at_us: u64::from_le_bytes(r[..8].try_into().expect("eight-byte slice")),
                kind,
                name,
                lane: u32_at(r, 8),
                tag: mrs_trace::Tag {
                    op,
                    data: u32_at(r, 12),
                    index: u32_at(r, 16),
                    attempt: u32_at(r, 20),
                },
            });
        }
        Ok(TraceBatch {
            sent_at_us: int("sent_at")? as u64,
            rtt_us: int("rtt")? as u64,
            dropped: int("dropped")? as u64,
            events,
        })
    }
}

/// Encode a slave's counter tally for `get_task` (its fifth parameter):
/// a struct of one non-negative int per *nonzero* counter, keyed by the
/// counter's `JobMetrics` accessor name — microseconds for a time
/// counter. An idle poll's tally is the empty struct.
pub fn counts_value(tally: &JobMetrics) -> Value {
    let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
    let nonzero = Counter::ALL.iter().filter(|&&c| tally.get(c) > 0);
    Value::Struct(nonzero.map(|&c| (c.name().to_owned(), int(tally.get(c)))).collect())
}

/// Decode a [`counts_value`] tally. Strict: anything but a struct of
/// known counter names mapped to non-negative ints is an error.
pub fn counts_from_value(v: &Value) -> Result<JobMetrics> {
    let Value::Struct(fields) = v else {
        return Err(Error::Rpc("counts is not a struct".into()));
    };
    let mut tally = JobMetrics::default();
    for (name, value) in fields {
        let c = Counter::named(name)
            .ok_or_else(|| Error::Rpc(format!("unknown counter {name:?} in counts")))?;
        let n = value
            .as_int()
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| Error::Rpc(format!("counter {name} is not a non-negative int")))?;
        // One key per counter: adding to zero sets every kind alike.
        tally.add(c, n);
    }
    Ok(tally)
}

/// A full `get_task` answer: the assignment plus lifetime-GC purge
/// orders and attempt-cancellation orders. `purge` lists output-path
/// prefixes whose datasets have no remaining consumers; the slave drops
/// the matching frames from its cache before it queues the answer's
/// tasks. `cancel` lists attempts this slave should abort cooperatively.
/// Both ride as extra keys on the assignment struct, each written only
/// when non-empty.
#[derive(Clone, Debug, PartialEq)]
pub struct Dispatch {
    /// What to run (or wait/exit).
    pub assignment: Assignment,
    /// Frame-cache path prefixes to drop.
    pub purge: Vec<String>,
    /// Always empty, and neither encoded nor decoded: the eager shuffle
    /// that filled it is gone. Kept only because the repo benchmark
    /// builds a `Dispatch` naming it (`bench/src/layers.rs:84`).
    pub eager: Vec<std::convert::Infallible>,
    /// Running attempts to abort.
    pub cancel: Vec<CancelOrder>,
}

impl Dispatch {
    /// Encode for the RPC response.
    pub fn to_value(&self) -> Value {
        let mut v = self.assignment.to_value();
        if let Value::Struct(m) = &mut v {
            if !self.purge.is_empty() {
                m.insert(
                    "purge".to_owned(),
                    Value::Array(self.purge.iter().map(|p| Value::Str(p.clone())).collect()),
                );
            }
            if !self.cancel.is_empty() {
                m.insert(
                    "cancel".to_owned(),
                    Value::Array(self.cancel.iter().map(CancelOrder::to_value).collect()),
                );
            }
        }
        v
    }

    /// Decode from the RPC response. A missing `purge` or `cancel` key
    /// means nothing to drop or abort.
    pub fn from_value(v: &Value) -> Result<Dispatch> {
        let assignment = Assignment::from_value(v)?;
        let purge = match v.field("purge").and_then(Value::as_array) {
            Some(items) => strings(items, "dispatch", "purge")?,
            None => Vec::new(),
        };
        let cancel = match v.field("cancel").and_then(Value::as_array) {
            Some(items) => items.iter().map(CancelOrder::from_value).collect::<Result<Vec<_>>>()?,
            None => Vec::new(),
        };
        Ok(Dispatch { assignment, purge, eager: Vec::new(), cancel })
    }

    /// Encode a whole `get_task` answer: this dispatch and, as one more key
    /// of the same struct, the hint `more` of [`crate::Master::poll`].
    pub fn answer_value(&self, more: bool) -> Value {
        let mut v = self.to_value();
        if let Value::Struct(m) = &mut v {
            m.insert("more".to_owned(), Value::Bool(more));
        }
        v
    }

    /// Decode a whole `get_task` answer (`more` is always written).
    pub fn from_answer(v: &Value) -> Result<(Dispatch, bool)> {
        match v.field("more") {
            Some(&Value::Bool(more)) => Ok((Dispatch::from_value(v)?, more)),
            _ => Err(Error::Rpc("dispatch missing more".into())),
        }
    }
}

/// How intermediate data moves between slaves.
#[derive(Clone)]
pub enum DataPlane {
    /// Each slave serves its own outputs over HTTP; URLs are `http://`.
    /// "direct communication for high performance" (§IV-B).
    Direct,
    /// All outputs go to a shared store; URLs are `file://`. "storage on a
    /// filesystem for increased fault-tolerance".
    SharedFs(Arc<dyn Store>),
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataPlane::Direct => f.write_str("DataPlane::Direct"),
            DataPlane::SharedFs(_) => f.write_str("DataPlane::SharedFs"),
        }
    }
}

/// Fetch and parse a bucket by URL. `shared` resolves `file://`/`mem://`
/// URLs; `http://` URLs are fetched from the owning peer's data server.
/// The transfer is counted into `tally`.
pub fn fetch_records(
    url: &str,
    shared: Option<&Arc<dyn Store>>,
    tally: &mut JobMetrics,
) -> Result<Vec<Record>> {
    let fetched = fetch_buckets(&[url], shared, None, tally).pop();
    let mut out = Vec::new();
    read_bucket_records(&fetched.expect("one result per url")?, &mut out)?;
    Ok(out)
}

/// One group of [`fetch_buckets`]' URLs: everything one peer serves, or
/// (`peer == None`) everything the shared store serves.
struct Batch<'a> {
    peer: Option<&'a str>,
    /// Result slot of each member, in input order.
    slots: Vec<usize>,
    /// Each member's request path on the peer, or its path in the store.
    paths: Vec<&'a str>,
}

/// The transfer half of a fetch: resolve every URL to its raw (decoded
/// `MRSB1`) bucket bytes without parsing them, one result per URL in
/// input order, at one round trip per peer. URLs are grouped into batches
/// in order of first appearance: one per peer authority, and one for the
/// `file://`/`mem://` URLs served inline from the `shared` store. Each
/// peer is sent its whole batch as pipelined GETs where the batch first
/// appears, the inline batch is served where it first appears, and only
/// then are the peers' answers read, so peers serve concurrently without
/// a thread per fetch. `cancel` is observed between batches (and between
/// inline fetches): once set, nothing further is sent or read and every
/// slot not yet filled reads `Err(Error::Cancelled)`. A slave resolves
/// the URLs of its own outputs before it calls this, by reference count
/// (see [`crate::slave`]); every URL here is read.
///
/// What the fetch moved — bytes decoded and on the wire, refetches — is
/// added to `tally`, which the caller merges into its node's store (a
/// slave's rides its next poll).
///
/// Every resolution path runs the wire bytes through the `MRSF1` frame
/// decoder, which verifies magic and checksum. A *remote* frame that
/// fails either is fetched once more from the peer, alone (transient
/// corruption), before the error surfaces; shared-store corruption is not
/// retried — re-reading the same bytes cannot help.
pub fn fetch_buckets(
    urls: &[&str],
    shared: Option<&Arc<dyn Store>>,
    cancel: Option<&AtomicBool>,
    tally: &mut JobMetrics,
) -> Vec<Result<Vec<u8>>> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let mut slots: Vec<Result<Vec<u8>>> = Vec::with_capacity(urls.len());
    let parsed: Vec<Option<BucketUrl>> = urls
        .iter()
        .map(|url| match BucketUrl::parse(url) {
            Ok(parsed) => {
                slots.push(Err(Error::Cancelled));
                Some(parsed)
            }
            Err(e) => {
                slots.push(Err(e));
                None
            }
        })
        .collect();
    let mut batches: Vec<Batch> = Vec::new();
    for (i, url) in parsed.iter().enumerate() {
        let (peer, path) = match url {
            Some(BucketUrl::Http { authority, path }) => (Some(authority.as_str()), path.as_str()),
            Some(BucketUrl::File(path) | BucketUrl::Mem(path)) => (None, path.as_str()),
            None => continue,
        };
        let batch = match batches.iter().position(|b| b.peer == peer) {
            Some(known) => &mut batches[known],
            None => {
                batches.push(Batch { peer, slots: Vec::new(), paths: Vec::new() });
                batches.last_mut().expect("just pushed")
            }
        };
        batch.slots.push(i);
        batch.paths.push(path);
    }
    let mut in_flight = Vec::new();
    for batch in &batches {
        if cancelled() {
            return slots;
        }
        match batch.peer {
            Some(peer) => in_flight.push((peer, batch, dataserver::fetch_many(peer, &batch.paths))),
            None => {
                for (&i, path) in batch.slots.iter().zip(&batch.paths) {
                    if cancelled() {
                        return slots;
                    }
                    slots[i] = fetch_shared(urls[i], path, shared);
                }
            }
        }
    }
    for (peer, batch, answers) in in_flight {
        if cancelled() {
            return slots;
        }
        for ((&i, path), wire) in batch.slots.iter().zip(&batch.paths).zip(answers.finish()) {
            slots[i] = wire.and_then(|wire| verify_remote(peer, path, wire, tally));
        }
    }
    slots
}

/// Read and decode `url`, whose path in the `shared` store is `path`.
fn fetch_shared(url: &str, path: &str, shared: Option<&Arc<dyn Store>>) -> Result<Vec<u8>> {
    let store = shared.ok_or_else(|| Error::Url(format!("no shared store to resolve {url}")))?;
    mrs_codec::decode_vec(store.get(path)?).map_err(|e| Error::Codec(format!("bucket {path}: {e}")))
}

/// Decode the frame a peer answered with, re-fetching that one bucket
/// once when the bytes were damaged on the way (bad checksum, bad magic).
/// Successful transfers count their raw and on-wire bytes into `tally`.
fn verify_remote(
    authority: &str,
    path: &str,
    wire: Vec<u8>,
    tally: &mut JobMetrics,
) -> Result<Vec<u8>> {
    let moved = |tally: &mut JobMetrics, raw: &[u8], wire_len: usize| {
        tally.add(Counter::BytesPreCompress, raw.len() as u64);
        tally.add(Counter::BytesOnWire, wire_len as u64);
    };
    let wire_len = wire.len();
    match mrs_codec::decode_vec(wire) {
        Ok(raw) => {
            moved(tally, &raw, wire_len);
            Ok(raw)
        }
        Err(FrameError::Checksum { .. } | FrameError::NotFramed) => {
            tally.add(Counter::ChecksumRetries, 1);
            let wire = dataserver::fetch(authority, path)?;
            let wire_len = wire.len();
            let raw = mrs_codec::decode_vec(wire).map_err(|e| {
                Error::Codec(format!("bucket {authority}{path} corrupt after refetch: {e}"))
            })?;
            moved(tally, &raw, wire_len);
            Ok(raw)
        }
        Err(e) => Err(Error::Codec(format!("bucket {authority}{path}: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_roundtrip_tasks() {
        let t = TaskMsg {
            data: 3,
            index: 7,
            kind: TaskKind::Map,
            func: 2,
            map_func: 0,
            parts: 5,
            combine: true,
            attempt: 1,
            inputs: vec!["http://h:1/data/x".into(), "file://y".into()],
        };
        let mut t2 = t.clone();
        t2.index = 8;
        t2.kind = TaskKind::Reduce;
        let mut t3 = t.clone();
        t3.index = 9;
        t3.kind = TaskKind::ReduceMap;
        t3.map_func = 4;
        for a in [Assignment::Tasks(vec![t.clone()]), Assignment::Tasks(vec![t, t2, t3])] {
            assert_eq!(Assignment::from_value(&a.to_value()).unwrap(), a);
        }
    }

    /// The golden shape of a task on the wire: exactly these nine keys,
    /// each one required by the decoder.
    #[test]
    fn task_msg_wire_has_exactly_its_nine_keys_and_requires_each() {
        let t = TaskMsg {
            data: 2,
            index: 3,
            kind: TaskKind::ReduceMap,
            func: 1,
            map_func: 4,
            parts: 2,
            combine: true,
            attempt: 7,
            inputs: vec!["http://h:1/data/s0/d1/t0/b3.mrsb".into()],
        };
        let Value::Struct(m) = t.to_value() else { panic!("struct") };
        let keys: Vec<&str> = m.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["attempt", "combine", "data", "func", "index", "inputs", "kind", "map_func", "parts"]
        );
        assert_eq!(TaskMsg::from_value(&Value::Struct(m.clone())).unwrap(), t);
        for key in keys {
            let mut without = m.clone();
            without.remove(key);
            let err = TaskMsg::from_value(&Value::Struct(without)).unwrap_err();
            assert!(err.to_string().contains(key), "dropping {key}: {err}");
        }
    }

    #[test]
    fn task_msg_spec_is_the_kernel_view_of_the_message() {
        let mut t = TaskMsg {
            data: 0,
            index: 0,
            kind: TaskKind::Map,
            func: 1,
            map_func: 4,
            parts: 3,
            combine: true,
            attempt: 1,
            inputs: vec![],
        };
        assert_eq!(t.spec(), TaskSpec::Map { func: 1, parts: 3, combine: true });
        t.kind = TaskKind::Reduce;
        assert_eq!(t.spec(), TaskSpec::Reduce { func: 1 });
        t.kind = TaskKind::ReduceMap;
        assert_eq!(
            t.spec(),
            TaskSpec::ReduceMap { reduce_func: 1, map_func: 4, parts: 3, combine: true }
        );
    }

    #[test]
    fn attempt_ids_roundtrip_and_zero_or_missing_is_rejected() {
        let t = TaskMsg {
            data: 2,
            index: 3,
            kind: TaskKind::Map,
            func: 0,
            map_func: 0,
            parts: 2,
            combine: false,
            attempt: 7,
            inputs: vec![],
        };
        assert_eq!(TaskMsg::from_value(&t.to_value()).unwrap().attempt, 7);
        let r = TaskReport { data: 2, index: 3, attempt: 5, urls: vec!["file://a".into()] };
        assert_eq!(TaskReport::from_value(&r.to_value()).unwrap().attempt, 5);
        let c = CancelOrder { data: 2, index: 3, attempt: 5 };
        // Attempt ids start at 1: a 0, a negative or an absent id is a
        // malformed message in every struct that carries one.
        for v in [t.to_value(), r.to_value(), c.to_value()] {
            let Value::Struct(m) = v else { panic!("struct") };
            for bad in [Some(0), Some(-1), Some(i64::from(u32::MAX) + 1), None] {
                let mut m = m.clone();
                match bad {
                    Some(a) => m.insert("attempt".to_owned(), Value::Int(a)),
                    None => m.remove("attempt"),
                };
                let v = Value::Struct(m);
                assert!(TaskMsg::from_value(&v).is_err(), "{bad:?}");
                assert!(TaskReport::from_value(&v).is_err(), "{bad:?}");
                assert!(CancelOrder::from_value(&v).is_err(), "{bad:?}");
            }
        }
    }

    #[test]
    fn cancel_order_roundtrips_beside_the_assignment() {
        let c = CancelOrder { data: 4, index: 2, attempt: 3 };
        assert_eq!(CancelOrder::from_value(&c.to_value()).unwrap(), c);
        // Malformed orders are rejected, not mis-decoded.
        assert!(CancelOrder::from_value(&Value::Int(1)).is_err());
        let mut m = BTreeMap::new();
        m.insert("data".to_owned(), Value::Int(4));
        assert!(CancelOrder::from_value(&Value::Struct(m)).is_err());
        // A dispatch carrying cancel orders round-trips...
        let d = Dispatch {
            assignment: Assignment::Wait,
            purge: vec![],
            eager: vec![],
            cancel: vec![c.clone(), CancelOrder { data: 4, index: 5, attempt: 1 }],
        };
        assert_eq!(Dispatch::from_value(&d.to_value()).unwrap(), d);
        // ...the assignment-only view reads the same struct, the cancel
        // key riding along ignored...
        assert_eq!(Assignment::from_value(&d.to_value()).unwrap(), Assignment::Wait);
        // ...and an absent key means no cancels.
        let bare = Assignment::Wait.to_value();
        assert!(Dispatch::from_value(&bare).unwrap().cancel.is_empty());
    }

    #[test]
    fn dispatch_roundtrip_with_and_without_purge() {
        let a = Assignment::Wait;
        let d = Dispatch {
            assignment: a.clone(),
            purge: vec!["s0/d3/".into(), "src2/".into()],
            eager: vec![],
            cancel: vec![],
        };
        assert_eq!(Dispatch::from_value(&d.to_value()).unwrap(), d);
        let bare = Dispatch { assignment: a.clone(), purge: vec![], eager: vec![], cancel: vec![] };
        assert_eq!(Dispatch::from_value(&bare.to_value()).unwrap(), bare);
        // Empty lists are not written: the bare dispatch *is* the plain
        // assignment on the wire.
        assert_eq!(bare.to_value(), a.to_value());
        assert_eq!(Dispatch::from_value(&a.to_value()).unwrap(), bare);
    }

    /// The golden shape of a `get_task` answer: the dispatch's own keys
    /// plus `more`, always written and required — a bare dispatch (what a
    /// version-2 master sent) is not an answer.
    #[test]
    fn answer_wire_is_the_dispatch_plus_a_required_more_key() {
        let d = Dispatch {
            assignment: Assignment::Wait,
            purge: vec!["s0/d3/".into()],
            eager: vec![],
            cancel: vec![],
        };
        for more in [false, true] {
            let v = d.answer_value(more);
            let Value::Struct(m) = &v else { panic!("an answer is a struct") };
            let keys: Vec<&str> = m.keys().map(String::as_str).collect();
            assert_eq!(keys, ["more", "purge", "type"]);
            assert_eq!(m["more"], Value::Bool(more));
            assert_eq!(Dispatch::from_answer(&v).unwrap(), (d.clone(), more));
            // The dispatch inside reads as before: `more` sits beside it.
            assert_eq!(Dispatch::from_value(&v).unwrap(), d);
        }
        let err = Dispatch::from_answer(&d.to_value()).unwrap_err().to_string();
        assert!(err.contains("missing more"), "{err}");
        let mut mistyped = d.answer_value(true);
        if let Value::Struct(m) = &mut mistyped {
            m.insert("more".into(), Value::Int(1));
        }
        assert!(Dispatch::from_answer(&mistyped).is_err(), "an int is not the hint");
    }

    /// The golden shape of a slave's tally on `get_task`: one int per
    /// nonzero counter under its accessor name, raw microseconds for a
    /// time; an idle tally is the empty struct. Decoding is strict.
    #[test]
    fn counts_wire_is_one_int_per_nonzero_counter() {
        let mut tally = JobMetrics::default();
        tally.add(Counter::MergeRuns, 4);
        tally.max(Counter::PeakReduceRecords, 900);
        tally.add_time(Counter::MergeTime, std::time::Duration::from_micros(1500));
        let mut golden = BTreeMap::new();
        golden.insert("merge_runs".to_owned(), Value::Int(4));
        golden.insert("merge_time".to_owned(), Value::Int(1500));
        golden.insert("peak_reduce_records".to_owned(), Value::Int(900));
        assert_eq!(counts_value(&tally), Value::Struct(golden.clone()));
        assert_eq!(counts_from_value(&counts_value(&tally)).unwrap(), tally);
        assert_eq!(counts_value(&JobMetrics::default()), Value::Struct(BTreeMap::new()));
        let empty = counts_from_value(&Value::Struct(BTreeMap::new())).unwrap();
        assert_eq!(empty, JobMetrics::default());
        // Every counter travels under its own name.
        let mut all = JobMetrics::default();
        for (n, &c) in Counter::ALL.iter().enumerate() {
            all.add(c, n as u64 + 1);
        }
        assert_eq!(counts_from_value(&counts_value(&all)).unwrap(), all);
        // An unknown name, a non-int and a negative value are malformed.
        for (key, bad) in [
            ("mrs_merge_runs_total", Value::Int(1)),
            ("merge_runs", Value::Str("4".into())),
            ("merge_runs", Value::Int(-1)),
        ] {
            let mut m = golden.clone();
            m.insert(key.to_owned(), bad);
            let err = counts_from_value(&Value::Struct(m)).unwrap_err().to_string();
            assert!(err.contains(key), "{key}: {err}");
        }
        assert!(counts_from_value(&Value::Array(vec![])).is_err(), "not a struct");
    }

    #[test]
    fn assignment_roundtrip_wait_exit() {
        for a in [Assignment::Wait, Assignment::Exit] {
            assert_eq!(Assignment::from_value(&a.to_value()).unwrap(), a);
        }
    }

    #[test]
    fn malformed_assignment_rejected() {
        assert!(Assignment::from_value(&Value::Int(3)).is_err());
        let mut m = BTreeMap::new();
        m.insert("type".to_owned(), Value::Str("tasks".into()));
        assert!(Assignment::from_value(&Value::Struct(m)).is_err());
        // An empty batch is a protocol violation, not a silent Wait.
        let mut m = BTreeMap::new();
        m.insert("type".to_owned(), Value::Str("tasks".into()));
        m.insert("tasks".to_owned(), Value::Array(vec![]));
        assert!(Assignment::from_value(&Value::Struct(m)).is_err());
    }

    #[test]
    fn task_report_roundtrip() {
        let r = TaskReport {
            data: 9,
            index: 4,
            attempt: 2,
            urls: vec!["http://h:1/data/a".into(), "file://b".into()],
        };
        assert_eq!(TaskReport::from_value(&r.to_value()).unwrap(), r);
        let empty = TaskReport { data: 0, index: 0, attempt: 1, urls: vec![] };
        assert_eq!(TaskReport::from_value(&empty.to_value()).unwrap(), empty);
    }

    #[test]
    fn malformed_task_report_rejected() {
        assert!(TaskReport::from_value(&Value::Int(1)).is_err());
        let mut m = BTreeMap::new();
        m.insert("data".to_owned(), Value::Int(1));
        // Missing index/urls.
        assert!(TaskReport::from_value(&Value::Struct(m)).is_err());
    }

    #[test]
    fn trace_batch_roundtrips_and_skips_unknown_codes() {
        use mrs_trace::{Event, Kind, Name, Op, Tag};
        let e = |at: u64| Event {
            at_us: at,
            kind: Kind::Begin,
            name: Name::Exec,
            lane: 2,
            tag: Tag::task(Op::Map, 3, 7, 1),
        };
        let b = TraceBatch {
            sent_at_us: 1_000_000,
            rtt_us: 450,
            dropped: 2,
            events: vec![e(10), e(20)],
        };
        assert_eq!(TraceBatch::from_value(&b.to_value()).unwrap(), b);
        assert!(!b.is_empty());
        assert!(TraceBatch::default().is_empty());
        assert_eq!(TraceBatch::from_value(&TraceBatch::default().to_value()).unwrap().events, []);
        // An event with an unknown name code (future vocabulary) is
        // skipped, not fatal…
        let Value::Struct(mut m) = b.to_value() else { panic!("struct") };
        let Some(Value::Bytes(mut blob)) = m.remove("events") else { panic!("bytes") };
        assert_eq!(blob.len(), 2 * EVENT_RECORD);
        blob[25] = 200;
        m.insert("events".to_owned(), Value::Bytes(blob.clone()));
        assert_eq!(TraceBatch::from_value(&Value::Struct(m.clone())).unwrap().events, [e(20)]);
        // …but a structurally broken batch is rejected: not a struct, a
        // blob cut mid-record, or events in anything but a blob.
        assert!(TraceBatch::from_value(&Value::Int(3)).is_err());
        blob.pop();
        m.insert("events".to_owned(), Value::Bytes(blob));
        assert!(TraceBatch::from_value(&Value::Struct(m.clone())).is_err());
        m.insert("events".to_owned(), Value::Array(vec![]));
        assert!(TraceBatch::from_value(&Value::Struct(m)).is_err());
    }

    #[test]
    fn speculate_mode_parses_and_rejects() {
        assert_eq!(SpeculateMode::parse("off").unwrap(), SpeculateMode::Off);
        assert_eq!(SpeculateMode::parse("on").unwrap(), SpeculateMode::On { threshold: 1.5 });
        assert_eq!(
            SpeculateMode::parse("threshold=2.5").unwrap(),
            SpeculateMode::On { threshold: 2.5 }
        );
        assert!(SpeculateMode::parse("threshold=0.5").is_err(), "sub-1 multiples thrash");
        assert!(SpeculateMode::parse("threshold=nan").is_err());
        assert!(SpeculateMode::parse("maybe").is_err());
        assert_eq!(SpeculateMode::default(), SpeculateMode::On { threshold: 1.5 });
    }

    #[test]
    fn fetch_from_shared_store() {
        use mrs_fs::format::write_bucket_bytes;
        let store: Arc<dyn Store> = Arc::new(mrs_fs::MemFs::new());
        let records = vec![(b"k".to_vec(), b"v".to_vec())];
        let frame = mrs_codec::encode_vec(write_bucket_bytes(&records), Default::default());
        store.put("op/b0", &frame).unwrap();
        // Whatever reaches a store through the runtime is framed; bare
        // bucket bytes there are damage, not a format.
        store.put("op/bare", &write_bucket_bytes(&records)).unwrap();
        let mut tally = JobMetrics::default();
        assert!(matches!(
            fetch_records("file://op/bare", Some(&store), &mut tally),
            Err(Error::Codec(_))
        ));
        let got = fetch_records("file://op/b0", Some(&store), &mut tally).unwrap();
        assert_eq!(got, records);
    }

    #[test]
    fn fetch_without_shared_store_fails() {
        assert!(fetch_records("file://x", None, &mut JobMetrics::default()).is_err());
    }

    #[test]
    fn shared_store_frames_are_verified_and_decoded() {
        use mrs_fs::format::write_bucket_bytes;
        let store: Arc<dyn Store> = Arc::new(mrs_fs::MemFs::new());
        let records = vec![(b"key".to_vec(), vec![3u8; 64])];
        let frame =
            mrs_codec::encode_vec(write_bucket_bytes(&records), mrs_codec::CompressMode::On);
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        store.put("good", &frame).unwrap();
        store.put("bad", &bad).unwrap();
        let mut tally = JobMetrics::default();
        assert_eq!(fetch_records("mem://good", Some(&store), &mut tally).unwrap(), records);
        // Local corruption is not retried — it surfaces immediately.
        assert!(matches!(
            fetch_records("mem://bad", Some(&store), &mut tally),
            Err(Error::Codec(_))
        ));
    }

    /// A peer that serves a corrupt frame once is given a second chance;
    /// one that serves corruption persistently surfaces an error. Stored
    /// and compressed frames alike, and wherever the damage lands: the
    /// checksum covers the payload as shipped, and a damaged magic byte
    /// is damage too, not an unframed bucket.
    #[test]
    fn corrupt_remote_frame_is_refetched_once() {
        use mrs_fs::format::write_bucket_bytes;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let records = vec![(b"key".to_vec(), vec![9u8; 800])];
        let modes = [mrs_codec::CompressMode::Off, mrs_codec::CompressMode::On];
        for (mode, flip_first) in modes.into_iter().flat_map(|m| [(m, false), (m, true)]) {
            let good: Arc<[u8]> = mrs_codec::encode_vec(write_bucket_bytes(&records), mode).into();
            let bad: Arc<[u8]> = {
                let mut b = good.to_vec();
                let at = if flip_first { 0 } else { b.len() - 1 };
                b[at] ^= 0xff;
                b.into()
            };

            let hits = Arc::new(AtomicUsize::new(0));
            let provider: mrs_rpc::dataserver::Provider = {
                let hits = Arc::clone(&hits);
                let good = Arc::clone(&good);
                let bad = Arc::clone(&bad);
                Arc::new(move |p: &str| match p {
                    // First request corrupt, later ones clean.
                    "flaky" => Some(if hits.fetch_add(1, Ordering::SeqCst) == 0 {
                        Arc::clone(&bad)
                    } else {
                        Arc::clone(&good)
                    }),
                    "hosed" => Some(Arc::clone(&bad)),
                    _ => None,
                })
            };
            let server = mrs_rpc::DataServer::serve(0, provider).unwrap();

            let mut tally = JobMetrics::default();
            let got = fetch_records(&server.url_for("flaky"), None, &mut tally).unwrap();
            assert_eq!(got, records);
            assert_eq!(
                hits.load(Ordering::SeqCst),
                2,
                "exactly one refetch ({mode:?}, first byte: {flip_first})"
            );
            // The damaged copy is counted as a retry, the clean one as moved.
            assert_eq!(tally.checksum_retries(), 1);
            assert_eq!(tally.bytes_on_wire(), good.len() as u64);
            assert_eq!(tally.bytes_pre_compress(), write_bucket_bytes(&records).len() as u64);

            let mut tally = JobMetrics::default();
            let err = fetch_records(&server.url_for("hosed"), None, &mut tally).unwrap_err();
            assert_eq!((tally.checksum_retries(), tally.bytes_on_wire()), (1, 0));
            assert!(matches!(err, Error::Codec(_)), "persistent corruption must surface: {err}");
        }
    }
    /// A data server over a fixed set of frames that counts the requests
    /// each path received.
    fn counting_server(
        frames: Vec<(&'static str, Arc<[u8]>)>,
    ) -> (mrs_rpc::DataServer, Arc<parking_lot::Mutex<Vec<String>>>) {
        let hits = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let provider: mrs_rpc::dataserver::Provider = {
            let hits = Arc::clone(&hits);
            Arc::new(move |p: &str| {
                hits.lock().push(p.to_owned());
                frames.iter().find(|(path, _)| *path == p).map(|(_, f)| Arc::clone(f))
            })
        };
        (mrs_rpc::DataServer::serve(0, provider).unwrap(), hits)
    }

    fn frame_of(tag: u8) -> (Vec<u8>, Arc<[u8]>) {
        let raw = mrs_fs::format::write_bucket_bytes(&[(vec![tag], vec![tag; 40])]);
        let frame = mrs_codec::encode_vec(raw.clone(), mrs_codec::CompressMode::Off);
        (raw, frame.into())
    }

    /// One damaged bucket in a batch costs one extra request for that
    /// bucket alone; its batch-mates are fetched once, and every slot
    /// holds its own bucket.
    #[test]
    fn flipped_byte_in_one_bucket_of_a_batch_refetches_only_that_bucket() {
        let (raws, frames): (Vec<_>, Vec<_>) = (0..4).map(frame_of).unzip();
        let wire_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
        let bad: Arc<[u8]> = {
            let mut b = frames[2].to_vec();
            let last = b.len() - 1;
            b[last] ^= 0x10;
            b.into()
        };
        let served = Arc::new(AtomicBool::new(false));
        let hits = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let provider: mrs_rpc::dataserver::Provider = {
            let (hits, served) = (Arc::clone(&hits), Arc::clone(&served));
            Arc::new(move |p: &str| {
                hits.lock().push(p.to_owned());
                let i: usize = p.strip_prefix('b')?.parse().ok()?;
                // Bucket 2 arrives damaged the first time only.
                let first = i == 2 && !served.swap(true, Ordering::SeqCst);
                Some(Arc::clone(if first { &bad } else { frames.get(i)? }))
            })
        };
        let server = mrs_rpc::DataServer::serve(0, provider).unwrap();
        let urls: Vec<String> = (0..4).map(|i| server.url_for(&format!("b{i}"))).collect();
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();

        let mut tally = JobMetrics::default();
        let got: Vec<Vec<u8>> =
            fetch_buckets(&urls, None, None, &mut tally).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, raws);
        assert_eq!(*hits.lock(), ["b0", "b1", "b2", "b3", "b2"], "one refetch, of b2 only");
        assert_eq!(tally.checksum_retries(), 1);
        assert_eq!(tally.bytes_on_wire(), wire_bytes, "each bucket's clean frame, once");
        assert_eq!(tally.bytes_pre_compress(), raws.iter().map(|r| r.len() as u64).sum::<u64>());
    }

    /// A bucket the peer does not have fails its own slot, naming itself;
    /// the rest of the batch arrives.
    #[test]
    fn missing_bucket_mid_batch_fails_only_its_slot() {
        let (raw, frame) = frame_of(7);
        let (server, hits) = counting_server(vec![("a", Arc::clone(&frame)), ("c", frame)]);
        let urls = [server.url_for("a"), server.url_for("gone"), server.url_for("c")];
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
        let mut got = fetch_buckets(&urls, None, None, &mut JobMetrics::default());
        assert_eq!(got.remove(0).unwrap(), raw);
        let err = got.remove(0).unwrap_err();
        assert!(matches!(&err, Error::MissingData(m) if m.contains("/data/gone")), "{err}");
        assert_eq!(got.remove(0).unwrap(), raw);
        assert_eq!(*hits.lock(), ["a", "gone", "c"]);
    }

    /// `cancel` is observed between batches: set while the inline batch is
    /// being served, it keeps the next peer from ever being contacted and
    /// the first peer's answers from being read.
    #[test]
    fn cancel_before_the_second_peer_never_contacts_it() {
        struct CancellingStore(Arc<AtomicBool>);
        impl Store for CancellingStore {
            fn put(&self, _: &str, _: &[u8]) -> Result<()> {
                Ok(())
            }
            fn get(&self, _: &str) -> Result<Vec<u8>> {
                self.0.store(true, Ordering::SeqCst);
                Ok(frame_of(0).1.to_vec())
            }
            fn exists(&self, _: &str) -> bool {
                true
            }
            fn list(&self, _: &str) -> Result<Vec<String>> {
                Ok(Vec::new())
            }
            fn delete(&self, _: &str) -> Result<()> {
                Ok(())
            }
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let store: Arc<dyn Store> = Arc::new(CancellingStore(Arc::clone(&cancel)));
        let (_, frame) = frame_of(1);
        let (first, _) = counting_server(vec![("x", Arc::clone(&frame))]);
        let (second, second_hits) = counting_server(vec![("y", frame)]);
        let urls = [first.url_for("x"), "file://inline".to_owned(), second.url_for("y")];
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();

        let got = fetch_buckets(&urls, Some(&store), Some(&cancel), &mut JobMetrics::default());
        assert!(matches!(got[0], Err(Error::Cancelled)), "sent, never read");
        assert!(got[1].is_ok(), "the fetch that was under way completes");
        assert!(matches!(got[2], Err(Error::Cancelled)));
        assert!(second_hits.lock().is_empty(), "the second peer was contacted");
        // Set from the start, nothing is contacted at all.
        let got = fetch_buckets(&urls[2..], None, Some(&cancel), &mut JobMetrics::default());
        assert!(matches!(got[0], Err(Error::Cancelled)));
        assert!(second_hits.lock().is_empty());
    }

    /// A URL that does not parse fails its slot and nothing else.
    #[test]
    fn unparseable_url_fails_only_its_slot() {
        let store: Arc<dyn Store> = Arc::new(mrs_fs::MemFs::new());
        store.put("ok", &frame_of(0).1).unwrap();
        let mut tally = JobMetrics::default();
        let got = fetch_buckets(&["ftp://nope", "file://ok"], Some(&store), None, &mut tally);
        assert!(matches!(got[0], Err(Error::Url(_))));
        assert!(got[1].is_ok());
        assert!(fetch_buckets(&[], None, None, &mut tally).is_empty());
    }
}
