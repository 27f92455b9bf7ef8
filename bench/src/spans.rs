//! The benchmark's own span recorder.
//!
//! Spans are recorded here, around the calls the benchmark makes into
//! each layer, and nowhere inside the program. They live in memory and
//! are written out as a Chrome trace when the pass ends. Everything runs
//! on the one driver thread, so the recorder is a plain stack.

use mrs_core::{FuncId, Record, Result};
use mrs_runtime::{DataId, JobApi};
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span. Ids are indices into the recorder.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The cluster job the span belongs to; 0 for microbench calls.
    pub job: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store. With `enabled` off every call returns at once
/// without reading the clock, which is what the untraced jobs run with.
pub struct Recorder {
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { enabled: false, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: u32) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, parent, job, start_us: now, end_us: now });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_us = now;
    }

    /// Microseconds spent in spans called `name`, summed per job: a job
    /// may open a phase more than once (every queueing call is a submit).
    pub fn job_totals_us(&self, name: &str) -> Vec<f64> {
        let mut totals = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.job).or_insert(0.0) += s.dur_us();
        }
        totals.into_values().collect()
    }

    /// A span's self time: its duration less what its direct children
    /// cover. Children of one parent never overlap (one thread, one
    /// stack), so their durations add.
    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us();
            }
        }
        own
    }

    /// Every span is closed and lies inside its parent. Returns the first
    /// violation found.
    pub fn check_nesting(&self) -> std::result::Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans left open", self.open.len()));
        }
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start_us < parent.start_us || s.end_us > parent.end_us {
                    return Err(format!(
                        "span {id} ({}) exceeds its parent {p} ({})",
                        s.name, parent.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete ("X") event per span carrying id, parent, job and self
    /// time; `meta` (already JSON-escaped `key`/`value` pairs) names the
    /// process and is repeated under `otherData`.
    pub fn chrome_json(&self, title: &str, meta: &[(&str, String)]) -> String {
        let own = self.self_us();
        let mut out = String::from("{\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{title}\"}}}}"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            // Cluster jobs on lane 1, microbench calls on lane 2.
            let tid = if s.job > 0 { 1 } else { 2 };
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"job\":{},\"self_us\":{}}}}}",
                s.name,
                s.start_us,
                s.dur_us(),
                s.job,
                own[id]
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\"{k}\":\"{v}\"");
        }
        out.push_str("}}");
        out
    }
}

/// Splits a cluster job into its driver-visible phases from outside: a
/// [`JobApi`] that forwards every call to the runtime and wraps it in a
/// span. Any driver written against `Job` — `map_reduce`, PSO's
/// `run_islands` — is measured unchanged.
///
/// Queueing calls are `driver.submit`. `fetch_all` is split into the
/// waits it would perform anyway: first for the job's first map output
/// (`driver.map_wave`), then for the fetched dataset
/// (`driver.reduce_wave`), then the transfer itself (`driver.fetch_out`).
/// The extra waits only block the driver thread; the plan is fully queued
/// by then, so the cluster schedules exactly as under a bare `fetch_all`.
///
/// When the job is over it discards every dataset the driver created, as
/// a driver that keeps one cluster for many jobs has to: `map_reduce`
/// and `run_islands` leave their source and result datasets behind, and
/// memory would otherwise grow with the number of jobs run.
pub struct PhaseJob<'a> {
    inner: &'a mut dyn JobApi,
    rec: &'a mut Recorder,
    job: u32,
    first_map: Option<DataId>,
    created: Vec<DataId>,
}

impl<'a> PhaseJob<'a> {
    /// Opens the enclosing `driver.job` span; [`PhaseJob::finish`] closes it.
    pub fn begin(inner: &'a mut dyn JobApi, rec: &'a mut Recorder, job: u32) -> PhaseJob<'a> {
        rec.begin("driver.job", job);
        PhaseJob { inner, rec, job, first_map: None, created: Vec::new() }
    }

    /// Close `driver.job`, then release the job's datasets.
    pub fn finish(self) {
        self.rec.end();
        for data in self.created {
            self.inner.discard(data);
        }
    }

    fn submit<T>(&mut self, f: impl FnOnce(&mut dyn JobApi) -> T) -> T {
        self.rec.begin("driver.submit", self.job);
        let out = f(self.inner);
        self.rec.end();
        out
    }

    /// A queueing call: a submit span, and the new dataset is remembered.
    fn queue(&mut self, f: impl FnOnce(&mut dyn JobApi) -> Result<DataId>) -> Result<DataId> {
        let id = self.submit(f)?;
        self.created.push(id);
        Ok(id)
    }
}

impl JobApi for PhaseJob<'_> {
    fn local_data(&mut self, records: Vec<Record>, splits: usize) -> Result<DataId> {
        self.queue(|j| j.local_data(records, splits))
    }

    fn map_data(
        &mut self,
        input: DataId,
        func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        let id = self.queue(|j| j.map_data(input, func, parts, combine))?;
        self.first_map.get_or_insert(id);
        Ok(id)
    }

    fn reduce_data(&mut self, input: DataId, func: FuncId) -> Result<DataId> {
        self.queue(|j| j.reduce_data(input, func))
    }

    fn reduce_map_data(
        &mut self,
        input: DataId,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        self.queue(|j| j.reduce_map_data(input, reduce_func, map_func, parts, combine))
    }

    fn wait(&mut self, data: DataId) -> Result<()> {
        let name =
            if self.first_map == Some(data) { "driver.map_wave" } else { "driver.reduce_wave" };
        self.rec.begin(name, self.job);
        let out = self.inner.wait(data);
        self.rec.end();
        out
    }

    fn fetch_all(&mut self, data: DataId) -> Result<Vec<Record>> {
        if let Some(first) = self.first_map {
            self.wait(first)?;
        }
        self.wait(data)?;
        self.rec.begin("driver.fetch_out", self.job);
        let out = self.inner.fetch_all(data);
        self.rec.end();
        out
    }

    fn discard(&mut self, data: DataId) {
        self.submit(|j| j.discard(data))
    }

    fn keep(&mut self, data: DataId) {
        self.submit(|j| j.keep(data))
    }
}
