//! The serial implementation: one task per operation, executed eagerly.
//!
//! "The serial implementation performs all work sequentially on a single
//! processor and makes all work deterministic" (§IV-A). Operations run
//! inline at submission time, so `wait` is a no-op; this is the reference
//! implementation against which the others are checked.

use crate::data::{concat, count_task, materialize, partition_runs, split_buckets, DataId};
use crate::job::JobApi;
use crate::metrics::{Counter, JobMetrics};
use crate::proto::trace_op;
use mrs_core::task::run_task;
use mrs_core::{Bucket, Error, FuncId, Program, Record, Result, TaskSpec};
use mrs_trace::{JobTrace, Name, Op, Recorder, Tag, TraceHandle};
use std::sync::Arc;

/// The serial runtime. Create one per job via [`SerialRuntime::new`].
pub struct SerialRuntime {
    program: Arc<dyn Program>,
    datasets: Vec<SerialData>,
    metrics: JobMetrics,
    rec: Recorder,
    th: TraceHandle,
}

enum SerialData {
    /// Sources and reduce outputs: one bucket per split.
    Plain(Vec<Arc<Bucket>>),
    /// Map-like output (map or fused reducemap): per task, per partition
    /// buckets. Serial runs one map task (`len() == 1`), but a reducemap
    /// runs one task per input partition.
    Mapped(Vec<Vec<Arc<Bucket>>>),
    /// Reclaimed by `discard`.
    Discarded,
}

impl SerialRuntime {
    /// A serial job for `program`.
    pub fn new(program: Arc<dyn Program>) -> Self {
        let rec = Recorder::new();
        let th = rec.handle(0);
        SerialRuntime { program, datasets: Vec::new(), metrics: JobMetrics::default(), rec, th }
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &JobMetrics {
        &self.metrics
    }

    /// Drain the recorded timeline. Serial tasks run inline, so each
    /// task's Dispatch and Report instants bracket its Attempt span
    /// exactly; a second call returns only events recorded since.
    pub fn take_trace(&self) -> JobTrace {
        let (events, dropped) = self.rec.drain();
        JobTrace::from_local(events, dropped)
    }

    /// The per-task buckets of a map-like dataset, borrowed from its slot.
    /// Takes the dataset table, not `self`, so callers keep using the
    /// recorder and metrics while they hold the borrow.
    fn mapped<'d>(
        datasets: &'d [SerialData],
        id: DataId,
        op: &str,
    ) -> Result<&'d [Vec<Arc<Bucket>>]> {
        match datasets.get(id.0 as usize) {
            Some(SerialData::Mapped(tasks)) => Ok(tasks),
            _ => Err(Error::Invalid(format!("{op} must consume a map output"))),
        }
    }

    fn get(&self, id: DataId) -> Result<&SerialData> {
        self.datasets
            .get(id.0 as usize)
            .ok_or_else(|| Error::MissingData(format!("dataset {id:?}")))
    }

    fn push(&mut self, d: SerialData) -> DataId {
        self.datasets.push(d);
        DataId(self.datasets.len() as u32 - 1)
    }

    /// Run every task of the reduce-like op `spec` over `input`: per
    /// partition, take its runs by reference count (the Merge span), run
    /// the kernel over them (the Exec span) and collect its output buckets.
    fn reduce_like(&mut self, input: DataId, spec: TaskSpec) -> Result<Vec<Vec<Arc<Bucket>>>> {
        let op = trace_op(&spec);
        let tasks = Self::mapped(&self.datasets, input, op.as_str())?;
        let parts = tasks.first().map_or(0, Vec::len);
        let out_data = self.datasets.len() as u32;
        let mut outs = Vec::with_capacity(parts);
        for p in 0..parts {
            let tag = Tag::task(op, out_data, p, 1);
            self.th.instant(Name::Dispatch, tag);
            self.th.begin(Name::Attempt, tag);
            self.th.begin(Name::Merge, tag);
            let runs = partition_runs(tasks.iter(), p, &mut self.metrics);
            self.th.end(Name::Merge, tag);
            self.th.begin(Name::Exec, tag);
            let out = run_task(self.program.as_ref(), &spec, &runs, None);
            self.th.end(Name::Exec, tag);
            self.th.end(Name::Attempt, tag);
            outs.push(out?.into_iter().map(Arc::new).collect());
            self.th.instant(Name::Report, tag);
        }
        Ok(outs)
    }
}

impl JobApi for SerialRuntime {
    fn local_data(&mut self, records: Vec<Record>, _splits: usize) -> Result<DataId> {
        // Serial ignores the split hint: everything is one task.
        Ok(self.push(SerialData::Plain(split_buckets(&records, 1))))
    }

    fn map_data(
        &mut self,
        input: DataId,
        func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        // One split (every source) is mapped where it lies; only a
        // multi-split reduce output is concatenated into the one bucket
        // the single serial map task reads.
        let split = match self.get(input)? {
            SerialData::Plain(splits) => match splits.as_slice() {
                [split] => Arc::clone(split),
                splits => Arc::new(concat(splits)),
            },
            SerialData::Mapped(_) => {
                return Err(Error::Invalid("map cannot consume an unreduced map output".into()))
            }
            SerialData::Discarded => {
                return Err(Error::MissingData(format!("dataset {input:?} was discarded")))
            }
        };
        let tag = Tag::task(Op::Map, self.datasets.len() as u32, 0, 1);
        self.th.instant(Name::Dispatch, tag);
        self.th.begin(Name::Attempt, tag);
        self.th.begin(Name::Exec, tag);
        let t0 = std::time::Instant::now();
        let spec = TaskSpec::Map { func, parts, combine };
        let buckets = run_task(self.program.as_ref(), &spec, &[split], None);
        self.th.end(Name::Exec, tag);
        self.th.end(Name::Attempt, tag);
        let buckets = buckets?;
        self.th.instant(Name::Report, tag);
        let bytes = buckets.iter().map(|b| b.byte_size()).sum();
        count_task(&mut self.metrics, &spec, t0.elapsed(), bytes);
        Ok(self.push(SerialData::Mapped(vec![buckets.into_iter().map(Arc::new).collect()])))
    }

    fn reduce_data(&mut self, input: DataId, func: FuncId) -> Result<DataId> {
        let t0 = std::time::Instant::now();
        let spec = TaskSpec::Reduce { func };
        let tasks = self.reduce_like(input, spec)?;
        count_task(&mut self.metrics, &spec, t0.elapsed(), 0);
        // A reduce task's one output bucket is one split of the dataset.
        Ok(self.push(SerialData::Plain(tasks.into_iter().flatten().collect())))
    }

    fn reduce_map_data(
        &mut self,
        input: DataId,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        let t0 = std::time::Instant::now();
        let spec = TaskSpec::ReduceMap { reduce_func, map_func, parts, combine };
        let out_tasks = self.reduce_like(input, spec)?;
        let elapsed = t0.elapsed();
        self.metrics.add(Counter::FusedOps, 1);
        for task in &out_tasks {
            let bytes = task.iter().map(|b| b.byte_size()).sum();
            count_task(&mut self.metrics, &spec, elapsed / out_tasks.len().max(1) as u32, bytes);
        }
        Ok(self.push(SerialData::Mapped(out_tasks)))
    }

    fn wait(&mut self, data: DataId) -> Result<()> {
        // Everything is already materialized; just validate the id.
        self.get(data).map(|_| ())
    }

    fn fetch_all(&mut self, data: DataId) -> Result<Vec<Record>> {
        match self.get(data)? {
            SerialData::Plain(splits) => Ok(materialize(splits, Vec::new())),
            SerialData::Mapped(tasks) => Ok(materialize(&tasks.concat(), Vec::new())),
            SerialData::Discarded => {
                Err(Error::MissingData(format!("dataset {data:?} was discarded")))
            }
        }
    }

    fn discard(&mut self, data: DataId) {
        if let Some(slot) = self.datasets.get_mut(data.0 as usize) {
            *slot = SerialData::Discarded;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use mrs_core::kv::encode_record;
    use mrs_core::{Datum, MapReduce, Simple};

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

        fn has_combiner(&self) -> bool {
            true
        }
    }

    fn input() -> Vec<Record> {
        ["the cat sat", "on the mat", "the end"]
            .iter()
            .enumerate()
            .map(|(i, line)| encode_record(&(i as u64), &line.to_string()))
            .collect()
    }

    fn sorted_counts(records: Vec<Record>) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = records
            .iter()
            .map(|(k, v)| (String::from_bytes(k).unwrap(), u64::from_bytes(v).unwrap()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn wordcount_end_to_end() {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(input(), 2, 3, true).unwrap();
        assert_eq!(
            sorted_counts(out),
            vec![
                ("cat".into(), 1),
                ("end".into(), 1),
                ("mat".into(), 1),
                ("on".into(), 1),
                ("sat".into(), 1),
                ("the".into(), 3),
            ]
        );
    }

    #[test]
    fn iterative_chain_runs() {
        // Two map+reduce rounds: counts of counts.
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        let mut job = Job::new(&mut rt);
        let src = job.local_data(input(), 1).unwrap();
        let m1 = job.map_data(src, 0, 2, false).unwrap();
        let r1 = job.reduce_data(m1, 0).unwrap();
        // Feed reduce output (word -> count) into another map: it splits the
        // *word* again (value is a count, not a string) — so instead check
        // that fetching r1 and resubmitting works.
        let counts = job.fetch_all(r1).unwrap();
        assert_eq!(counts.len(), 6);
        let src2 = job.local_data(counts, 1).unwrap();
        let _ = src2;
    }

    #[test]
    fn reduce_of_plain_data_is_error() {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        let mut job = Job::new(&mut rt);
        let src = job.local_data(input(), 1).unwrap();
        assert!(job.reduce_data(src, 0).is_err());
    }

    #[test]
    fn discard_frees_dataset() {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        let mut job = Job::new(&mut rt);
        let src = job.local_data(input(), 1).unwrap();
        job.discard(src);
        assert!(job.fetch_all(src).is_err());
    }

    #[test]
    fn unknown_dataset_is_error() {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        let mut job = Job::new(&mut rt);
        assert!(job.wait(DataId(99)).is_err());
    }

    #[test]
    fn metrics_track_ops() {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        {
            let mut job = Job::new(&mut rt);
            job.map_reduce(input(), 1, 2, false).unwrap();
        }
        assert_eq!(rt.metrics().map_ops(), 1);
        assert_eq!(rt.metrics().reduce_ops(), 1);
        assert!(rt.metrics().shuffle_bytes() > 0);
    }

    /// An iterative program whose reduce output feeds its map: keys and
    /// values are both `u64`, so rounds chain indefinitely.
    struct Relabel;

    impl MapReduce for Relabel {
        type K1 = u64;
        type V1 = u64;
        type K2 = u64;
        type V2 = u64;

        fn map(&self, k: u64, v: u64, emit: &mut dyn FnMut(u64, u64)) {
            emit(k % 3, v + 1);
            emit((k + 1) % 3, v);
        }

        fn reduce(&self, _k: u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
            emit(vs.sum());
        }
    }

    fn relabel_input() -> Vec<Record> {
        (0..24u64).map(|i| encode_record(&i, &(i * 5))).collect()
    }

    #[test]
    fn reducemap_matches_reduce_then_map() {
        let iters: u64 = 4;
        let unfused = {
            let mut rt = SerialRuntime::new(Arc::new(Simple(Relabel)));
            let mut job = Job::new(&mut rt);
            let src = job.local_data(relabel_input(), 1).unwrap();
            let mut m = job.map_data(src, 0, 3, false).unwrap();
            for _ in 1..iters {
                let r = job.reduce_data(m, 0).unwrap();
                m = job.map_data(r, 0, 3, false).unwrap();
            }
            let out = job.reduce_data(m, 0).unwrap();
            job.fetch_all(out).unwrap()
        };
        let fused = {
            let mut rt = SerialRuntime::new(Arc::new(Simple(Relabel)));
            let records = {
                let mut job = Job::new(&mut rt);
                let src = job.local_data(relabel_input(), 1).unwrap();
                let mut m = job.map_data(src, 0, 3, false).unwrap();
                for _ in 1..iters {
                    m = job.reduce_map_data(m, 0, 0, 3, false).unwrap();
                }
                let out = job.reduce_data(m, 0).unwrap();
                job.fetch_all(out).unwrap()
            };
            assert_eq!(rt.metrics().fused_ops(), iters - 1);
            assert_eq!(rt.metrics().reducemap_tasks(), 3 * (iters - 1));
            records
        };
        assert_eq!(unfused, fused, "fused chain diverged from unfused");
    }

    #[test]
    fn every_reduce_input_run_is_a_presorted_merge_run() {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        {
            let mut job = Job::new(&mut rt);
            job.map_reduce(input(), 2, 3, false).unwrap();
        }
        let m = rt.metrics();
        // One serial map task, three reduce partitions: one run each.
        assert_eq!(m.merge_runs(), 3);
        assert_eq!(m.merge_runs(), m.presorted_runs(), "in-process runs are always sorted");
        assert!(m.peak_reduce_records() > 0);
    }

    #[test]
    fn reducemap_of_plain_data_is_error() {
        let mut rt = SerialRuntime::new(Arc::new(Simple(Relabel)));
        let mut job = Job::new(&mut rt);
        let src = job.local_data(relabel_input(), 1).unwrap();
        assert!(job.reduce_map_data(src, 0, 0, 2, false).is_err());
    }

    #[test]
    fn trace_covers_every_task() {
        use mrs_trace::Kind;
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        {
            let mut job = Job::new(&mut rt);
            job.map_reduce(input(), 2, 3, true).unwrap();
        }
        let trace = rt.take_trace();
        assert_eq!(trace.dropped, 0);
        // One map task plus three reduce partitions, each fully spanned.
        let begins = |n: Name| trace.count(|g| g.event.name == n && g.event.kind == Kind::Begin);
        assert_eq!(begins(Name::Attempt), 4);
        assert_eq!(begins(Name::Exec), 4);
        assert_eq!(begins(Name::Merge), 3, "one merge per reduce partition");
        let cov = trace.coverage();
        assert_eq!(cov.len(), 4, "every dispatch/report pair yields a window");
        for c in &cov {
            // Tasks here finish in microseconds, so bound the uncovered
            // remainder absolutely rather than as a flaky ratio.
            assert!(c.window_us - c.covered_us < 1_000, "attempt should fill its window: {c:?}");
        }
        // A second drain only sees new work.
        assert!(rt.take_trace().events.is_empty());
    }
}
