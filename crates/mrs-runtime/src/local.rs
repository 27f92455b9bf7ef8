//! Mock-parallel and thread-pool execution in one scheduler.
//!
//! The scheduler decomposes operations into the *same tasks* as the
//! distributed implementation — one map task per input split, one reduce
//! task per partition — and tracks fine-grained readiness: a map task over
//! a reduce output only waits for *its own* input split, so consecutive
//! iterations pipeline exactly as §IV-A describes, while reduce tasks wait
//! for every map task of their operation (the barrier of Fig. 1).
//!
//! * `LocalRuntime::mock_parallel(program, store)` — one worker, every task
//!   output additionally spilled to bucket files on `store` for debugging:
//!   the paper's mock parallel implementation.
//! * `LocalRuntime::pool(program, n)` — N worker threads, in-memory.
//!
//! The workers are the slave's (the crate-private `workers`): this
//! module is only their source — a claim of the oldest runnable task
//! under the scheduler lock — and their sink — the commit that publishes
//! a task's outputs. Mock-parallel's spill is the workers' store step, as
//! on the shared-filesystem plane.
//!
//! Speculative execution (`--mrs-speculate`) is deliberately a no-op on
//! both of these planes: in a single process there is no "slow machine"
//! for a backup attempt to dodge, every task here runs exactly once, and
//! output stays byte-identical to the distributed planes with speculation
//! on or off (the implementations-agree oracle enforces it).

use crate::data::{count_task, materialize, split_buckets, DataId};
use crate::job::JobApi;
use crate::metrics::{Counter, JobMetrics};
use crate::plan::Plan;
use crate::proto::trace_op;
use crate::workers::{Attempt, Done, Input, Plane, Workers};
use mrs_codec::CompressMode;
use mrs_core::{Bucket, Error, FuncId, Program, Record, Result, TaskSpec};
use mrs_fs::Store;
use mrs_trace::{JobTrace, Name, Recorder, Tag, TraceHandle};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;

struct State {
    /// The task graph. All this executor adds to a task is whether a
    /// worker has claimed it: every task here runs exactly once.
    plan: Plan<Arc<Bucket>, bool>,
    error: Option<String>,
    shutdown: bool,
    metrics: JobMetrics,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    /// Mock-parallel: each map-output bucket a reduce task receives is an
    /// in-memory handover of data that the distributed runtime would fetch
    /// over a socket — counted as a short-circuit fetch so mock-parallel
    /// metrics mirror colocated fetches.
    count_handover: bool,
    trace: Recorder,
}

/// The local (mock-parallel / thread-pool) runtime.
pub struct LocalRuntime {
    shared: Arc<Shared>,
    workers: Option<JoinHandle<Result<()>>>,
    /// The records of the last `local_data`, kept once their splits are
    /// stored: the next `fetch_all` writes its answer into them.
    stock: Vec<Record>,
}

impl LocalRuntime {
    /// The paper's mock parallel implementation: distributed task split,
    /// one processor, intermediate data spilled to `store`.
    pub fn mock_parallel(program: Arc<dyn Program>, store: Arc<dyn Store>) -> Self {
        Self::mock_parallel_with(program, store, CompressMode::default())
    }

    /// Mock parallel with an explicit spill-compression policy — the same
    /// `--mrs-compress` knob the distributed planes honour.
    pub fn mock_parallel_with(
        program: Arc<dyn Program>,
        store: Arc<dyn Store>,
        compress: CompressMode,
    ) -> Self {
        Self::build(program, 1, Some((store, compress)))
    }

    /// Thread-pool parallelism with `workers` threads, in-memory data.
    pub fn pool(program: Arc<dyn Program>, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self::build(program, workers, None)
    }

    fn build(
        program: Arc<dyn Program>,
        slots: usize,
        spill: Option<(Arc<dyn Store>, CompressMode)>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                plan: Plan::new(),
                error: None,
                shutdown: false,
                metrics: JobMetrics::default(),
            }),
            cv: Condvar::new(),
            count_handover: spill.is_some(),
            trace: Recorder::new(),
        });
        let workers = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mrs-workers".into())
                .spawn(move || {
                    let store = spill.as_ref().map(|(store, compress)| (&**store, *compress));
                    let trace = &shared.trace;
                    Workers { program: program.as_ref(), store, slots, trace }.run(&*shared)
                })
                .expect("spawn workers")
        };
        LocalRuntime { shared, workers: Some(workers), stock: Vec::new() }
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> JobMetrics {
        self.shared.state.lock().metrics
    }

    /// Records held as stock for the next `fetch_all`: at most one
    /// `local_data` input. A diagnostic for tests, not a setting.
    #[doc(hidden)]
    pub fn stock_records(&self) -> usize {
        self.stock.len()
    }

    /// Entries the plan holds, lineage included: a test diagnostic, not a setting.
    #[doc(hidden)]
    pub fn plan_entries(&self) -> usize {
        self.shared.state.lock().plan.entries()
    }

    /// Drain the recorded timeline: one lane per pool worker, the same
    /// span vocabulary as the distributed slaves. A second call returns
    /// only events recorded since the first. Between calls each worker
    /// holds its newest `DEFAULT_CAPACITY` events; older ones are counted
    /// in `dropped`.
    pub fn take_trace(&self) -> JobTrace {
        let (events, dropped) = self.shared.trace.drain();
        JobTrace::from_local(events, dropped)
    }
}

impl Drop for LocalRuntime {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Some(w) = self.workers.take() {
            let _ = w.join();
        }
    }
}

impl Plane for Shared {
    type Task = (DataId, usize);

    /// Claim the oldest runnable task no worker has yet and take its input
    /// (under the lock: O(1) per split or run, never per record; execution
    /// happens outside it).
    fn next(&self, th: &TraceHandle) -> Option<Attempt<(DataId, usize)>> {
        let mut st = self.state.lock();
        let (data, index, spec) = loop {
            if st.shutdown {
                return None;
            }
            let unclaimed = st.plan.runnable().find(|(_, i, op)| !op.tasks()[*i].x);
            if let Some((data, index, op)) = unclaimed {
                break (data, index, op.spec);
            }
            self.cv.wait(&mut st);
        };
        // The attempt reaches back to the claim, so the handover of its
        // input is on the timeline too.
        let since_us = th.now_us();
        *st.plan.x_mut(data, index).expect("a runnable task") = true;
        let inputs: Vec<Input> = st.plan.input(data, index).into_iter().map(Input::Own).collect();
        if self.count_handover && spec.gathers() {
            st.metrics.add(Counter::ShortcircuitFetches, inputs.len() as u64);
        }
        let tag = Tag::task(trace_op(&spec), data.0, index, 1);
        th.instant(Name::Dispatch, tag);
        let inputs = Some(inputs);
        Some(Attempt { task: (data, index), spec, tag, since_us, inputs, cancel: None })
    }

    fn stem(&self, tag: &Tag) -> String {
        format!("ds{}/{}{}", tag.data, tag.op.as_str(), tag.index)
    }

    fn finish(&self, done: Done<(DataId, usize)>, th: &TraceHandle) -> Result<()> {
        let Done { task: (data, index), spec, tag, outcome, elapsed, tally } = done;
        // Reported before the lock is taken, so a wait for it never opens
        // a gap after the attempt's span.
        if outcome.is_ok() {
            th.instant(Name::Report, tag);
        }
        let mut st = self.state.lock();
        st.metrics.merge(&tally);
        match outcome {
            Ok(out) => {
                let bytes = out.iter().map(|b| b.byte_size()).sum();
                count_task(&mut st.metrics, &spec, elapsed, bytes);
                st.metrics.add(Counter::TasksExecuted, 1);
                // Op outputs count as live when their last task lands, so
                // `peak_live_datasets` tracks held storage, not queue depth.
                if let Some(freed) = st.plan.commit(data, index, out) {
                    st.metrics.dataset_live(true);
                    freed.iter().for_each(|_| st.metrics.dataset_freed(true));
                }
            }
            Err(f) => st.error = Some(f.error.to_string()),
        }
        self.cv.notify_all();
        Ok(())
    }
}

impl LocalRuntime {
    /// Queue an op and wake the workers for its tasks.
    fn submit(&mut self, spec: TaskSpec, input: DataId) -> Result<DataId> {
        let mut st = self.shared.state.lock();
        let id = st.plan.op(spec, input)?;
        if matches!(spec, TaskSpec::ReduceMap { .. }) {
            st.metrics.add(Counter::FusedOps, 1);
        }
        drop(st);
        self.shared.cv.notify_all();
        Ok(id)
    }
}

impl JobApi for LocalRuntime {
    fn local_data(&mut self, records: Vec<Record>, splits: usize) -> Result<DataId> {
        if splits == 0 {
            return Err(Error::Invalid("need at least one split".into()));
        }
        let splits = split_buckets(&records, splits);
        let id = {
            let mut st = self.shared.state.lock();
            let id = st.plan.reserve();
            st.metrics.dataset_live(true);
            st.plan.source(id, Ok(splits))
        };
        self.stock = records;
        id
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
            if st.plan.settled(data)? {
                return Ok(());
            }
            self.shared.cv.wait(&mut st);
        }
    }

    fn fetch_all(&mut self, data: DataId) -> Result<Vec<Record>> {
        self.wait(data)?;
        // Under the lock only the reference counts move; the records are
        // materialized once, after it is released, over the stock.
        let buckets = self.shared.state.lock().plan.outputs(data)?;
        Ok(materialize(&buckets, std::mem::take(&mut self.stock)))
    }

    fn discard(&mut self, data: DataId) {
        let mut st = self.shared.state.lock();
        let freed = st.plan.discard(data);
        freed.iter().for_each(|_| st.metrics.dataset_freed(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::master::{Master, MasterConfig, SpeculateMode};
    use crate::proto::DataPlane;
    use crate::slave::{run_slave, SlaveOptions};
    use mrs_core::kv::encode_record;
    use mrs_core::{Datum, MapReduce, Simple};
    use mrs_fs::MemFs;
    use mrs_trace::POLL_LANE;
    use std::sync::atomic::AtomicBool;

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

    fn input(lines: &[&str]) -> Vec<Record> {
        lines.iter().enumerate().map(|(i, l)| encode_record(&(i as u64), &l.to_string())).collect()
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
    fn pool_wordcount_matches_expected() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 4);
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(input(&["a b a", "c a", "b b c", "a"]), 3, 4, true).unwrap();
        assert_eq!(sorted_counts(out), vec![("a".into(), 4), ("b".into(), 3), ("c".into(), 2)]);
    }

    #[test]
    fn mock_parallel_spills_bucket_files() {
        let store = Arc::new(MemFs::new());
        let mut rt = LocalRuntime::mock_parallel(Arc::new(Simple(WordCount)), store.clone());
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(input(&["x y", "y z"]), 2, 2, false).unwrap();
        assert_eq!(sorted_counts(out).len(), 3);
        // One file per bucket with records: each map task's partitions
        // that a word of its split lands in, and each reduce partition
        // that holds a word. An empty bucket is stored nowhere.
        let partitions = |words: &[&str]| {
            let part =
                |w: &&str| Simple(WordCount).partition(&encode_record(&w.to_string(), &0u64).0, 2);
            words.iter().map(part).collect::<std::collections::BTreeSet<_>>().len()
        };
        let files = store.list("").unwrap();
        let maps = files.iter().filter(|f| f.contains("/map")).count();
        let reduces = files.iter().filter(|f| f.contains("/reduce")).count();
        assert_eq!(maps, partitions(&["x", "y"]) + partitions(&["y", "z"]), "{files:?}");
        assert_eq!(reduces, partitions(&["x", "y", "z"]), "{files:?}");
    }

    #[test]
    fn mock_parallel_counts_handovers_and_frames_spills() {
        let store = Arc::new(MemFs::new());
        let mut rt = LocalRuntime::mock_parallel_with(
            Arc::new(Simple(WordCount)),
            store.clone(),
            CompressMode::On,
        );
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(input(&["x y", "y z", "x x"]), 3, 2, false).unwrap();
        assert_eq!(sorted_counts(out).len(), 3);
        // Every reduce partition took all 3 map outputs by in-memory
        // handover: 2 partitions × 3 map tasks, none of them over a wire.
        let m = rt.metrics();
        assert_eq!((m.shortcircuit_fetches(), m.bytes_on_wire(), m.checksum_retries()), (6, 0, 0));
        // Spilled buckets carry the MRSF1 frame and decode back to MRSB1.
        let files = store.list("").unwrap();
        let spilled = store.get(files.iter().find(|f| f.contains("/map")).unwrap()).unwrap();
        assert!(mrs_codec::is_framed(&spilled));
        let raw = mrs_codec::open_vec(spilled).unwrap();
        assert!(raw.as_ref().starts_with(b"MRSB1"));
    }

    #[test]
    fn pool_matches_mock_parallel_output() {
        let data = input(&["the quick brown fox", "jumps over the lazy dog", "the end"]);
        let run = |mut rt: LocalRuntime| {
            let mut job = Job::new(&mut rt);
            sorted_counts(job.map_reduce(data.clone(), 3, 5, true).unwrap())
        };
        let pool = run(LocalRuntime::pool(Arc::new(Simple(WordCount)), 6));
        let mock =
            run(LocalRuntime::mock_parallel(Arc::new(Simple(WordCount)), Arc::new(MemFs::new())));
        assert_eq!(pool, mock);
    }

    #[test]
    fn pipelined_iterations_complete_without_waits() {
        // Queue two chained map+reduce rounds before waiting on anything:
        // identity-ish second round re-counts counts of words.
        struct CountValues;
        impl MapReduce for CountValues {
            type K1 = String;
            type V1 = u64;
            type K2 = String;
            type V2 = u64;
            fn map(&self, k: &str, v: u64, emit: &mut dyn FnMut(&str, u64)) {
                emit(k, v);
            }
            fn reduce(
                &self,
                _k: &str,
                vs: &mut dyn Iterator<Item = u64>,
                emit: &mut dyn FnMut(u64),
            ) {
                emit(vs.sum());
            }
        }
        let mut rt = LocalRuntime::pool(Arc::new(Simple(CountValues)), 3);
        let mut job = Job::new(&mut rt);
        let recs: Vec<Record> =
            (0..20u64).map(|i| encode_record(&format!("k{}", i % 4), &1u64)).collect();
        let src = job.local_data(recs, 4).unwrap();
        let m1 = job.map_data(src, 0, 4, false).unwrap();
        let r1 = job.reduce_data(m1, 0).unwrap();
        // Second round queued immediately — no wait in between.
        let m2 = job.map_data(r1, 0, 2, false).unwrap();
        let r2 = job.reduce_data(m2, 0).unwrap();
        let out = sorted_counts(job.fetch_all(r2).unwrap());
        assert_eq!(
            out,
            vec![("k0".into(), 5), ("k1".into(), 5), ("k2".into(), 5), ("k3".into(), 5)]
        );
    }

    #[test]
    fn task_error_is_reported_on_wait() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 2);
        let mut job = Job::new(&mut rt);
        // Corrupt input records: map will fail to decode.
        let src = job.local_data(vec![(vec![1], vec![2])], 1).unwrap();
        let m = job.map_data(src, 0, 1, false).unwrap();
        let err = job.wait(m).unwrap_err();
        assert!(matches!(err, Error::TaskFailed(_)));
    }

    #[test]
    fn discard_only_frees_completed_data() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 2);
        let mut job = Job::new(&mut rt);
        let src = job.local_data(input(&["a b"]), 1).unwrap();
        let m = job.map_data(src, 0, 1, false).unwrap();
        let r = job.reduce_data(m, 0).unwrap();
        job.wait(r).unwrap();
        job.discard(m);
        // r is still fetchable; m is gone.
        assert!(job.fetch_all(r).is_ok());
        assert!(job.fetch_all(m).is_err());
    }

    /// Self-feeding chain program for iterative tests: reduce output is
    /// valid map input, map scatters across keys so every partition mixes.
    struct Rotate;
    impl MapReduce for Rotate {
        type K1 = u64;
        type V1 = u64;
        type K2 = u64;
        type V2 = u64;
        fn map(&self, k: u64, v: u64, emit: &mut dyn FnMut(u64, u64)) {
            emit(k % 5, v + 1);
            emit((k * 3 + 1) % 5, v);
        }
        fn reduce(&self, _k: u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
            emit(vs.sum());
        }
        fn has_combiner(&self) -> bool {
            true
        }
    }

    fn rotate_input() -> Vec<Record> {
        (0..24u64).map(|i| encode_record(&i, &(i * i % 11))).collect()
    }

    fn rotate_unfused(rt: &mut LocalRuntime, iters: usize, parts: usize) -> Vec<Record> {
        let mut job = Job::new(rt);
        let src = job.local_data(rotate_input(), 3).unwrap();
        let mut m = job.map_data(src, 0, parts, true).unwrap();
        for _ in 1..iters {
            let r = job.reduce_data(m, 0).unwrap();
            m = job.map_data(r, 0, parts, true).unwrap();
        }
        let last = job.reduce_data(m, 0).unwrap();
        job.fetch_all(last).unwrap()
    }

    fn rotate_fused(rt: &mut LocalRuntime, iters: usize, parts: usize) -> Vec<Record> {
        let mut job = Job::new(rt);
        let src = job.local_data(rotate_input(), 3).unwrap();
        let mut m = job.map_data(src, 0, parts, true).unwrap();
        for _ in 1..iters {
            m = job.reduce_map_data(m, 0, 0, parts, true).unwrap();
        }
        let last = job.reduce_data(m, 0).unwrap();
        job.fetch_all(last).unwrap()
    }

    #[test]
    fn pool_reducemap_matches_unfused_chain() {
        let (iters, parts) = (4usize, 3usize);
        let mut plain = LocalRuntime::pool(Arc::new(Simple(Rotate)), 4);
        let unfused = rotate_unfused(&mut plain, iters, parts);
        let mut fused_rt = LocalRuntime::pool(Arc::new(Simple(Rotate)), 4);
        let fused = rotate_fused(&mut fused_rt, iters, parts);
        assert_eq!(fused, unfused, "fused chain must be byte-identical");
        let m = fused_rt.metrics();
        assert_eq!(m.fused_ops(), (iters - 1) as u64);
        assert_eq!(m.reducemap_tasks(), ((iters - 1) * parts) as u64);
        assert!(m.datasets_freed() > 0, "GC should reclaim interior datasets");
    }

    #[test]
    fn mock_parallel_reducemap_matches_pool() {
        let (iters, parts) = (3usize, 2usize);
        let mut pool = LocalRuntime::pool(Arc::new(Simple(Rotate)), 3);
        let a = rotate_fused(&mut pool, iters, parts);
        let mut mock =
            LocalRuntime::mock_parallel(Arc::new(Simple(Rotate)), Arc::new(MemFs::new()));
        let b = rotate_fused(&mut mock, iters, parts);
        assert_eq!(a, b);
    }

    #[test]
    fn gc_bounds_live_datasets_independent_of_iterations() {
        let peak_at = |iters: usize| {
            let mut rt = LocalRuntime::pool(Arc::new(Simple(Rotate)), 1);
            rotate_fused(&mut rt, iters, 2);
            rt.metrics().peak_live_datasets()
        };
        let (short, long) = (peak_at(3), peak_at(12));
        assert_eq!(short, long, "peak live datasets must not grow with iteration count");
        assert!(long <= 4, "chain should hold O(1) datasets, saw {long}");
    }

    #[test]
    fn every_reduce_input_run_is_a_presorted_merge_run_on_both_planes() {
        let data = input(&["the quick brown fox", "jumps over the lazy dog", "the end the"]);
        let run = |mut rt: LocalRuntime| {
            let out = {
                let mut job = Job::new(&mut rt);
                job.map_reduce(data.clone(), 3, 4, false).unwrap()
            };
            (out, rt.metrics())
        };
        let (pool, pm) = run(LocalRuntime::pool(Arc::new(Simple(WordCount)), 4));
        // 4 partitions × 3 map tasks, every run sorted at the producer.
        assert_eq!(pm.merge_runs(), 12);
        assert_eq!(pm.presorted_runs(), 12);
        assert!(pm.peak_reduce_records() > 0);
        let (mock, _) =
            run(LocalRuntime::mock_parallel(Arc::new(Simple(WordCount)), Arc::new(MemFs::new())));
        assert_eq!(mock, pool);
    }

    #[test]
    fn trace_covers_every_task_across_worker_lanes() {
        use mrs_trace::{Kind, Name, MASTER_PID};
        // Looped: the last attempt's end and report used to be recorded
        // after its completion was published, so a trace taken right after
        // `wait` returned could miss them about once in a hundred runs.
        for _ in 0..200 {
            let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 4);
            {
                let mut job = Job::new(&mut rt);
                job.map_reduce(input(&["a b a", "c a", "b b c", "a"]), 3, 4, true).unwrap();
            }
            let trace = rt.take_trace();
            assert_eq!(trace.dropped, 0);
            let count = |n: Name, k: Kind| trace.count(|g| g.event.name == n && g.event.kind == k);
            // 3 map tasks + 4 reduce partitions.
            assert_eq!(count(Name::Attempt, Kind::Begin), 7);
            assert_eq!(count(Name::Attempt, Kind::End), 7);
            assert_eq!(count(Name::Exec, Kind::Begin), 7);
            assert_eq!(count(Name::Merge, Kind::Begin), 4, "one merge per reduce");
            assert_eq!(count(Name::Dispatch, Kind::Instant), 7);
            assert_eq!(count(Name::Report, Kind::Instant), 7);
            // Scheduler instants sit on the master row; execution spans keep
            // their worker lane under the single slave pid.
            assert!(trace
                .events
                .iter()
                .all(|g| (g.pid == MASTER_PID)
                    == matches!(g.event.name, Name::Dispatch | Name::Report)));
            assert!(trace.events.iter().all(|g| g.pid == MASTER_PID || g.event.lane < 4));
            assert_eq!(trace.coverage().len(), 7);
            let json = trace.chrome_json();
            assert!(json.contains("\"ph\":\"B\"") && json.contains("process_name"));
            // Structural, not timed: on the pool's one clock each attempt's
            // span begins at its claim, before the master row's dispatch,
            // its phases follow one another inside it, each ending before
            // the next begins, and it ends before the report.
            let at = |name: Name| -> std::collections::HashMap<_, u64> {
                let instants = trace.events.iter().filter(|g| g.event.name == name);
                instants.map(|g| (g.event.tag.key(), g.event.at_us)).collect()
            };
            let (dispatched, reported) = (at(Name::Dispatch), at(Name::Report));
            for span in assert_attempt_shapes(&trace, false, false, 7) {
                let key = span[0].tag.key();
                let times: Vec<u64> = span.iter().map(|e| e.at_us).collect();
                assert!(times.windows(2).all(|w| w[0] <= w[1]), "phases out of order: {span:?}");
                let (claim, first_phase, end) = (times[0], times[1], times[times.len() - 1]);
                assert!((claim..=first_phase).contains(&dispatched[&key]), "{span:?}");
                assert!(end <= reported[&key], "reported before its span ended: {span:?}");
            }
        }

        // One attempt-span shape on every plane that runs the workers,
        // over a map, a fused reduce-map and a reduce: 3 + 4 + 2 tasks.
        let program: Arc<dyn Program> = Arc::new(Simple(Rotate));
        for (mut rt, store) in [
            (LocalRuntime::pool(Arc::clone(&program), 4), false),
            (LocalRuntime::mock_parallel(Arc::clone(&program), Arc::new(MemFs::new())), true),
        ] {
            fused_job(&mut rt);
            assert_attempt_shapes(&rt.take_trace(), false, store, 9);
        }
        let cfg = MasterConfig { speculate: SpeculateMode::Off, ..MasterConfig::default() };
        let master = Master::new(cfg, DataPlane::Direct).unwrap();
        let slaves: Vec<_> = (0..2)
            .map(|_| {
                let (master, program) = (master.clone(), Arc::clone(&program));
                let opts = SlaveOptions { slots: 2, ..SlaveOptions::default() };
                std::thread::spawn(move || {
                    run_slave(&master, program, DataPlane::Direct, &opts, &AtomicBool::new(false))
                })
            })
            .collect();
        fused_job(&mut master.clone());
        let cluster = master.take_trace();
        master.finish();
        for slave in slaves {
            slave.join().unwrap().unwrap();
        }
        // A slave records on its worker lanes and its poll lane alone: its
        // workers fetch their own inputs, inside each attempt's span.
        let lanes = |g: &&mrs_trace::GlobalEvent| g.event.lane < 2 || g.event.lane == POLL_LANE;
        let slave_events = cluster.events.iter().filter(|g| g.pid != mrs_trace::MASTER_PID);
        assert!(slave_events.clone().all(|g| lanes(&g)), "an event off the slave's lanes");
        assert!(slave_events.clone().any(|g| g.event.name == Name::Fetch));
        assert_attempt_shapes(&cluster, true, false, 9);
    }

    /// Run `Rotate` as map → fused reduce-map → reduce on `rt`.
    fn fused_job(rt: &mut impl JobApi) {
        let src = rt.local_data(rotate_input(), 3).unwrap();
        let mapped = rt.map_data(src, 0, 4, true).unwrap();
        let fused = rt.reduce_map_data(mapped, 0, 0, 2, true).unwrap();
        let reduced = rt.reduce_data(fused, 0).unwrap();
        assert!(!rt.fetch_all(reduced).unwrap().is_empty());
    }

    /// On every worker lane of `trace`, each of the job's `tasks` attempts
    /// has exactly one `Attempt` span, holding — in order — `Fetch` when
    /// the plane `fetch`es its inputs, `Merge` when it gathers, `Exec`,
    /// and `Emit` when the plane has a `store`. Returns the spans' events.
    fn assert_attempt_shapes(
        trace: &JobTrace,
        fetch: bool,
        store: bool,
        tasks: usize,
    ) -> Vec<Vec<mrs_trace::Event>> {
        use mrs_trace::{Event, Kind, Op, MASTER_PID};
        let mut lanes: std::collections::BTreeMap<(u32, u32), Vec<&Event>> = Default::default();
        for g in trace.events.iter().filter(|g| g.pid != MASTER_PID) {
            if g.event.lane < POLL_LANE {
                lanes.entry((g.pid, g.event.lane)).or_default().push(&g.event);
            }
        }
        let (mut attempts, mut spans) = (std::collections::HashSet::new(), Vec::new());
        for events in lanes.values() {
            let mut rest = &events[..];
            while let Some(first) = rest.first() {
                let tag = first.tag;
                let mut want = vec![(Kind::Begin, Name::Attempt)];
                if fetch {
                    want.extend([(Kind::Begin, Name::Fetch), (Kind::End, Name::Fetch)]);
                }
                if tag.op != Op::Map {
                    want.extend([(Kind::Begin, Name::Merge), (Kind::End, Name::Merge)]);
                }
                want.extend([(Kind::Begin, Name::Exec), (Kind::End, Name::Exec)]);
                if store {
                    want.extend([(Kind::Begin, Name::Emit), (Kind::End, Name::Emit)]);
                }
                want.push((Kind::End, Name::Attempt));
                let (span, after) = rest.split_at(want.len().min(rest.len()));
                let got: Vec<(Kind, Name)> = span.iter().map(|e| (e.kind, e.name)).collect();
                assert_eq!(got, want, "{tag:?}");
                assert!(span.iter().all(|e| e.tag == tag), "{span:?}");
                assert!(attempts.insert(tag.key()), "a second Attempt span for {tag:?}");
                spans.push(span.iter().map(|e| **e).collect());
                rest = after;
            }
        }
        assert_eq!(attempts.len(), tasks);
        spans
    }

    #[test]
    fn tasks_take_their_input_by_reference_count_and_fetch_all_repeats() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(Rotate)), 2);
        let src = rt.local_data(rotate_input(), 2).unwrap();
        let mapped = rt.map_data(src, 0, 3, false).unwrap();
        rt.wait(mapped).unwrap();
        rt.keep(mapped);
        {
            let st = rt.shared.state.lock();
            let split = st.plan.input(mapped, 1);
            let splits = st.plan.outputs(src).unwrap();
            assert_eq!(split.len(), 1);
            assert!(Arc::ptr_eq(&split[0], &splits[1]), "the split is handed over, not copied");
        }
        let reduced = rt.reduce_data(mapped, 0).unwrap();
        rt.keep(reduced);
        rt.wait(reduced).unwrap();
        {
            let st = rt.shared.state.lock();
            let runs = st.plan.input(reduced, 2);
            let tasks = st.plan.at(mapped).expect("map output").tasks();
            assert_eq!(runs.len(), 2, "one run per map task");
            for (run, task) in runs.iter().zip(tasks) {
                assert!(Arc::ptr_eq(run, &task.out().unwrap()[2]), "runs are handed over");
            }
        }
        let first = rt.fetch_all(reduced).unwrap();
        assert!(!first.is_empty());
        assert_eq!(rt.fetch_all(reduced).unwrap(), first, "fetch_all leaves the dataset intact");
    }

    #[test]
    fn many_workers_no_deadlock_on_large_fanout() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 8);
        let mut job = Job::new(&mut rt);
        let lines: Vec<String> =
            (0..200).map(|i| format!("w{} w{} shared", i % 17, i % 5)).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let out = job.map_reduce(input(&refs), 32, 16, true).unwrap();
        let counts = sorted_counts(out);
        let shared = counts.iter().find(|(w, _)| w == "shared").unwrap();
        assert_eq!(shared.1, 200);
    }
}
