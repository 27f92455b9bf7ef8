//! Wiring the master and slaves together over real XML-RPC.
//!
//! [`serve_master`] exposes a [`Master`] as the paper's HTTP/XML-RPC control
//! endpoint; [`RpcMasterLink`] is the slave-side stub; [`LocalCluster`]
//! assembles a complete cluster on localhost — master RPC server and
//! N slave threads each with its own data server and real TCP sockets in
//! between. This is the multi-node substitution documented in DESIGN.md:
//! every protocol byte is real, only the process boundary is elided (slave
//! threads instead of `pssh`-started remote processes).

use crate::data::DataId;
use crate::job::JobApi;
use crate::master::{Master, MasterConfig, SlaveId};
use crate::metrics::{Counter, JobMetrics};
use crate::proto::{
    Answer, DataPlane, Dispatch, GetTask, Signin, TaskFailed, TaskReport, TraceBatch, BAD_PARAMS,
    PROTOCOL_VERSION,
};
use crate::slave::{run_slave, MasterLink, SlaveOptions};
use mrs_core::{Error, FuncId, Program, Record, Result};
use mrs_rpc::rpc::{Dispatch as RpcDispatch, RpcClient, RpcServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Expose a master over XML-RPC. The returned server lives as long as the
/// handle; slaves connect to `server.authority()`. The methods, each
/// declared once in [`crate::proto`] with its positional parameters:
///
/// | method | parameters |
/// |---|---|
/// | `signin` | authority, slots, version |
/// | `get_task` | slave, free, park_ms, reports, counts, trace |
/// | `task_failed` | slave, data, index, message, failed_input, attempt |
///
/// A completion report rides `get_task`; there is no call of its own.
/// It names its attempt and the partitions that came out empty, not a
/// URL: the master derives every output's. `counts` and the trace's
/// events are packed `<base64>` blobs, and the trace is left out when
/// empty (protocol 8).
pub fn serve_master(master: Master, port: u16) -> std::io::Result<RpcServer> {
    let (m1, m2, m3) = (master.clone(), master.clone(), master);
    let rpc = Signin::serve(RpcDispatch::new(), move |call| match call.slots {
        0 => Err((BAD_PARAMS, "signin: 0 slots (need at least 1)".to_owned())),
        slots => Ok(m1.signin(&call.authority, slots)),
    });
    let rpc = GetTask::serve(rpc, move |call| {
        let park = Duration::from_millis(call.park_ms);
        let (dispatch, more) =
            m2.poll(call.slave, call.free, park, &call.reports, &call.counts, &call.trace);
        Ok(Answer { dispatch, more })
    });
    let rpc = TaskFailed::serve(rpc, move |call| {
        let input = Some(call.failed_input.as_str()).filter(|u| !u.is_empty());
        m3.task_failed(call.slave, call.data, call.index, call.attempt, &call.message, input);
        Ok(true)
    });
    RpcServer::serve(port, rpc)
}

/// Slave-side stub speaking XML-RPC to a remote master.
pub struct RpcMasterLink {
    client: RpcClient,
}

impl RpcMasterLink {
    /// Connect to `host:port` of a [`serve_master`] endpoint.
    pub fn new(authority: impl Into<String>) -> Self {
        RpcMasterLink { client: RpcClient::new(authority) }
    }
}

impl MasterLink for RpcMasterLink {
    fn signin(&self, authority: &str, slots: usize) -> Result<SlaveId> {
        let authority = authority.to_owned();
        Signin { authority, slots, version: PROTOCOL_VERSION }.call(&self.client)
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
        let park_ms = u64::try_from(park.as_millis()).unwrap_or(u64::MAX);
        // The bytes of every call answered before this one ride its tally.
        let mut counts = counts;
        counts.add(Counter::ControlBytes, self.client.take_moved());
        let answer = GetTask { slave, free, park_ms, reports, counts, trace }.call(&self.client)?;
        Ok((answer.dispatch, answer.more))
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
        let (message, failed_input) = (msg.to_owned(), failed_input.unwrap_or_default().to_owned());
        TaskFailed { slave, data, index, message, failed_input, attempt }.call(&self.client)?;
        Ok(())
    }
}

struct SlaveThread {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<()>>>,
}

/// A complete master/slave cluster on localhost.
///
/// Starting one mirrors the paper's launch story: start the master (it
/// binds a port), then point any number of slaves at `host:port`.
pub struct LocalCluster {
    master: Master,
    server: RpcServer,
    slaves: Vec<SlaveThread>,
    program: Arc<dyn Program>,
    plane: DataPlane,
    options: SlaveOptions,
}

impl LocalCluster {
    /// Start a cluster with `n_slaves` slave threads using default slave
    /// options (slot count = available cores).
    pub fn start(
        program: Arc<dyn Program>,
        n_slaves: usize,
        plane: DataPlane,
        cfg: MasterConfig,
    ) -> Result<LocalCluster> {
        Self::start_with(program, n_slaves, plane, cfg, SlaveOptions::default())
    }

    /// Start a cluster with explicit slave options — the scaling bench uses
    /// this to pin per-slave slot counts.
    pub fn start_with(
        program: Arc<dyn Program>,
        n_slaves: usize,
        plane: DataPlane,
        cfg: MasterConfig,
        mut options: SlaveOptions,
    ) -> Result<LocalCluster> {
        // Compression would interoperate mixed (decoders read the bit per
        // payload), but a uniform default keeps the benchmarks honest;
        // add_slave_with can diverge.
        options.compress = cfg.compress;
        let master = Master::new(cfg, plane.clone())?;
        let server = serve_master(master.clone(), 0).map_err(Error::Io)?;
        let mut cluster =
            LocalCluster { master, server, slaves: Vec::new(), program, plane, options };
        for _ in 0..n_slaves {
            cluster.add_slave();
        }
        Ok(cluster)
    }

    /// The master's RPC `host:port` (what you would hand to remote slaves).
    pub fn master_authority(&self) -> String {
        self.server.authority()
    }

    /// The master's HTTP `host:port` serving `/status` and `/metrics`
    /// (and, on the direct plane, source-split buckets under `/data/`).
    pub fn http_authority(&self) -> String {
        self.master.http_authority()
    }

    /// Drain the assembled job trace (master events plus every ingested
    /// slave delta, on the master clock); a second call returns only
    /// events recorded since the first. Always `Some`: tracing is always
    /// on.
    pub fn take_trace(&self) -> Option<mrs_trace::JobTrace> {
        Some(self.master.take_trace())
    }

    /// Add one slave thread to the cluster.
    pub fn add_slave(&mut self) {
        self.add_slave_with(self.options.clone());
    }

    /// Add one slave with its own options — e.g. a divergent compression
    /// setting, to exercise mixed-mode shuffle interop.
    pub fn add_slave_with(&mut self, options: SlaveOptions) {
        let stop = Arc::new(AtomicBool::new(false));
        let authority = self.master_authority();
        let program = Arc::clone(&self.program);
        let plane = self.plane.clone();
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("mrs-slave-{}", self.slaves.len()))
            .spawn(move || {
                let link = RpcMasterLink::new(authority);
                run_slave(&link, program, plane, &options, &stop2)
            })
            .expect("spawn slave");
        self.slaves.push(SlaveThread { stop, handle: Some(handle) });
    }

    /// Fault injection: stop slave `i`'s loop so it goes silent, exactly
    /// like a crashed node. Returns false if `i` is out of range.
    pub fn kill_slave(&mut self, i: usize) -> bool {
        match self.slaves.get_mut(i) {
            Some(s) => {
                s.stop.store(true, Ordering::SeqCst);
                if let Some(h) = s.handle.take() {
                    let _ = h.join();
                }
                true
            }
            None => false,
        }
    }

    /// Number of slaves the master currently believes alive.
    pub fn live_slaves(&self) -> usize {
        self.master.live_slaves()
    }

    /// Control-channel RPC requests the master has served so far (signin,
    /// `get_task`, `task_failed`).
    pub fn control_requests(&self) -> u64 {
        self.server.request_count()
    }

    /// Job metrics snapshot: the master's, which its slaves' polls keep
    /// whole — the connection counters too, each counted by the fetch
    /// whose data-plane batch dialled or reused it.
    pub fn metrics(&self) -> JobMetrics {
        self.master.metrics()
    }

    /// See [`Master::stock_records`].
    #[doc(hidden)]
    pub fn stock_records(&self) -> usize {
        self.master.stock_records()
    }
}

impl JobApi for LocalCluster {
    fn local_data(&mut self, records: Vec<Record>, splits: usize) -> Result<DataId> {
        self.master.local_data(records, splits)
    }
    fn map_data(
        &mut self,
        input: DataId,
        func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        self.master.map_data(input, func, parts, combine)
    }
    fn reduce_data(&mut self, input: DataId, func: FuncId) -> Result<DataId> {
        self.master.reduce_data(input, func)
    }
    fn reduce_map_data(
        &mut self,
        input: DataId,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        self.master.reduce_map_data(input, reduce_func, map_func, parts, combine)
    }
    fn wait(&mut self, data: DataId) -> Result<()> {
        self.master.wait(data)
    }
    fn fetch_all(&mut self, data: DataId) -> Result<Vec<Record>> {
        self.master.fetch_all(data)
    }
    fn keep(&mut self, data: DataId) {
        self.master.keep(data)
    }
    fn discard(&mut self, data: DataId) {
        self.master.discard(data)
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        self.master.finish();
        for s in &mut self.slaves {
            s.stop.store(true, Ordering::SeqCst);
        }
        for s in &mut self.slaves {
            if let Some(h) = s.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::master::SpeculateMode;
    use mrs_core::kv::encode_record;
    use mrs_core::{Datum, MapReduce, Simple};
    use mrs_fs::MemFs;
    use mrs_rpc::Value;

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

    thread_local! {
        /// This worker is in the first run of map task 0.
        static STRAGGLING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// WordCount whose map pauses before each record of a slow run, so a
    /// cancelled run stops at its next record. With `every_run` every map
    /// run is slow; otherwise only the first run of map task 0 (the split
    /// of the lines below `split`) is — a straggler whose backup runs at
    /// full speed. That run's start is signalled.
    struct Slow {
        split: u64,
        pause: Duration,
        every_run: bool,
        /// Whether the first run of map task 0 has started.
        started: (parking_lot::Mutex<bool>, parking_lot::Condvar),
    }

    impl Slow {
        fn new(split: u64, pause: Duration, every_run: bool) -> Arc<Slow> {
            Arc::new(Slow { split, pause, every_run, started: Default::default() })
        }

        fn await_start(&self) {
            let mut started = self.started.0.lock();
            while !*started {
                self.started.1.wait(&mut started);
            }
        }
    }

    impl Program for Slow {
        fn map_bytes(
            &self,
            func: FuncId,
            key: &[u8],
            value: &[u8],
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            let line = u64::from_bytes(key)?;
            if line == 0 {
                let mut started = self.started.0.lock();
                STRAGGLING.set(!*started);
                *started = true;
                self.started.1.notify_all();
            }
            if self.every_run || line < self.split && STRAGGLING.get() {
                std::thread::sleep(self.pause);
            }
            Simple(WordCount).map_bytes(func, key, value, emit)
        }
        fn reduce_bytes(
            &self,
            func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            Simple(WordCount).reduce_bytes(func, key, values, emit)
        }
        fn combine_bytes(
            &self,
            func: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            Simple(WordCount).combine_bytes(func, key, values, emit)
        }
        fn has_combiner(&self, func: FuncId) -> bool {
            Simple(WordCount).has_combiner(func)
        }
    }

    fn lines(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| encode_record(&(i as u64), &format!("w{} w{} common", i % 7, i % 3)))
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
    fn cluster_runs_wordcount_over_rpc_direct() {
        let mut cluster = LocalCluster::start(
            Arc::new(Simple(WordCount)),
            3,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        let mut job = Job::new(&mut cluster);
        let out = job.map_reduce(lines(50), 4, 3, true).unwrap();
        let counts = sorted_counts(out);
        assert_eq!(counts.iter().find(|(w, _)| w == "common").unwrap().1, 50);
    }

    #[test]
    fn cluster_runs_wordcount_over_rpc_shared_fs() {
        let store: Arc<dyn mrs_fs::Store> = Arc::new(MemFs::new());
        let mut cluster = LocalCluster::start(
            Arc::new(Simple(WordCount)),
            2,
            DataPlane::SharedFs(store),
            MasterConfig::default(),
        )
        .unwrap();
        let mut job = Job::new(&mut cluster);
        let out = job.map_reduce(lines(30), 3, 2, false).unwrap();
        let counts = sorted_counts(out);
        assert_eq!(counts.iter().find(|(w, _)| w == "common").unwrap().1, 30);
    }

    #[test]
    fn job_survives_slave_death_mid_run() {
        let cfg =
            MasterConfig { slave_timeout: Duration::from_millis(150), ..MasterConfig::default() };
        let mut cluster =
            LocalCluster::start(Arc::new(Simple(WordCount)), 3, DataPlane::Direct, cfg).unwrap();

        // Submit a job large enough to still be running when we kill a slave.
        let reduced = {
            let mut job = Job::new(&mut cluster);
            let src = job.local_data(lines(400), 16).unwrap();
            let mapped = job.map_data(src, 0, 8, true).unwrap();
            job.reduce_data(mapped, 0).unwrap()
        };

        cluster.kill_slave(0);

        let mut job = Job::new(&mut cluster);
        let out = job.fetch_all(reduced).unwrap();
        let counts = sorted_counts(out);
        assert_eq!(counts.iter().find(|(w, _)| w == "common").unwrap().1, 400);
        // The master's death timer eventually notices the silent slave.
        for _ in 0..50 {
            if cluster.live_slaves() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(cluster.live_slaves(), 2);
    }

    #[test]
    fn late_joining_slave_participates() {
        let mut cluster = LocalCluster::start(
            Arc::new(Simple(WordCount)),
            0, // start with no slaves at all
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        let reduced = {
            let mut job = Job::new(&mut cluster);
            let src = job.local_data(lines(10), 2).unwrap();
            let mapped = job.map_data(src, 0, 2, false).unwrap();
            job.reduce_data(mapped, 0).unwrap()
        };
        // Nothing can run yet; now a slave arrives.
        cluster.add_slave();
        let mut job = Job::new(&mut cluster);
        let out = job.fetch_all(reduced).unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn keep_alive_keeps_connections_near_peer_count() {
        // No backups: a cancelled fetch closes its connection.
        let cfg = MasterConfig { speculate: SpeculateMode::Off, ..MasterConfig::default() };
        let (slaves, slots) = (3, 1);
        let opts = SlaveOptions { slots, ..SlaveOptions::default() };
        let program = Arc::new(Simple(WordCount));
        let mut cluster =
            LocalCluster::start_with(program, slaves, DataPlane::Direct, cfg, opts).unwrap();
        let mut job = Job::new(&mut cluster);
        // 24 map splits × 4 partitions: 24 split fetches from the master
        // and 96 bucket transfers, most of them from a peer slave. Every
        // line holds the same 40 words, which land in all 4 partitions, so
        // no bucket is empty and each of the 96 is read.
        let words = (0..40).map(|w| format!("w{w}")).collect::<Vec<_>>();
        let part = |w: &String| Simple(WordCount).partition(&encode_record(w, &0u64).0, 4);
        let parts = words.iter().map(part).collect::<std::collections::BTreeSet<_>>();
        assert_eq!(parts.len(), 4, "a partition holds none of the words");
        let line = words.join(" ");
        let input = (0..240).map(|i| encode_record(&(i as u64), &line)).collect();
        let out = job.map_reduce(input, 24, 4, true).unwrap();
        assert!(!out.is_empty());
        let m = cluster.metrics();
        // Each fetching worker reads from the master (splits) and from the
        // other slaves (map outputs), one batch at a time, and no peer
        // serves more fetchers at once than the pool keeps per authority:
        // with keep-alive a dial per (fetcher, peer) pair is the most. A
        // dial per batch (24 split fetches alone) would exceed it.
        let pairs = (slaves * slots * slaves) as u64;
        let (opened, reused) = (m.connections_opened(), m.connections_reused());
        assert!((1..=pairs).contains(&opened), "{opened} dials for {pairs} pairs");
        assert!(reused > opened, "expected reuse to dominate: opened={opened} reused={reused}");
    }

    /// Two clusters in one process, side by side, each count only their
    /// own dials: one slave with one worker fetches every split from its
    /// master, one batch per map task, the first dialling and the rest
    /// reusing (its reduces read only its own outputs, over no socket).
    /// A pooled connection to a recycled port that went stale adds one
    /// reuse and one redial; the sibling's traffic adds nothing.
    #[test]
    fn clusters_side_by_side_each_count_their_own_dials() {
        let run = |maps: usize| {
            let opts = SlaveOptions { slots: 1, ..SlaveOptions::default() };
            let cfg = MasterConfig::default();
            let program = Arc::new(Simple(WordCount));
            let mut cluster =
                LocalCluster::start_with(program, 1, DataPlane::Direct, cfg, opts).unwrap();
            Job::new(&mut cluster).map_reduce(lines(10 * maps), maps, 2, true).unwrap();
            let m = cluster.metrics();
            (m.connections_opened(), m.connections_reused())
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(6));
            let b = s.spawn(|| run(10));
            (a.join().unwrap(), b.join().unwrap())
        });
        for ((opened, reused), maps) in [(a, 6), (b, 10)] {
            let batches = opened + reused;
            assert!((1..=2).contains(&opened), "{maps} maps: {opened} dials");
            assert!((maps..=maps + 1).contains(&batches), "{maps} maps: {opened} + {reused}");
        }
    }

    #[test]
    fn distributed_matches_serial_output() {
        let input = lines(37);
        let serial = {
            let mut rt = crate::serial::SerialRuntime::new(Arc::new(Simple(WordCount)));
            let mut job = Job::new(&mut rt);
            sorted_counts(job.map_reduce(input.clone(), 1, 1, false).unwrap())
        };
        let distributed = {
            let mut cluster = LocalCluster::start(
                Arc::new(Simple(WordCount)),
                4,
                DataPlane::Direct,
                MasterConfig::default(),
            )
            .unwrap();
            let mut job = Job::new(&mut cluster);
            sorted_counts(job.map_reduce(input, 5, 3, true).unwrap())
        };
        assert_eq!(serial, distributed);
    }

    #[test]
    fn cluster_trace_pins_attempt_spans_and_serves_http() {
        use mrs_trace::{Kind, Name, MASTER_PID};
        let cfg = MasterConfig { speculate: SpeculateMode::Off, ..MasterConfig::default() };
        // Every map task (data 1) holds its worker for more than 50 ms
        // (9 ms before each of its 6 or 7 lines). Whichever slave polls
        // first is granted three at once (two workers and the task queued
        // ahead), so both its workers run side by side, and it stays full
        // for the 200 ms it would need to run all eight: the rest can only
        // go to the other slave. Both slave rows and both worker lanes are
        // in the trace whatever the machine's load.
        let slow = Slow::new(0, Duration::from_millis(9), true);
        let opts = SlaveOptions { slots: 2, ..SlaveOptions::default() };
        let mut cluster = LocalCluster::start_with(slow, 2, DataPlane::Direct, cfg, opts).unwrap();
        while cluster.live_slaves() < 2 {
            std::thread::yield_now();
        }
        // The live pages answer over plain HTTP on the master's data port:
        // every `/metrics` line is one `mrs_*` sample with a numeric
        // value, and no sample is named twice.
        let authority = cluster.http_authority();
        let get = |path: &str| {
            let (code, body) = mrs_rpc::HttpClient::request(&authority, "GET", path, &[]).unwrap();
            assert_eq!(code, 200, "{path}");
            String::from_utf8(body).unwrap()
        };
        let metrics_page = || {
            let metrics = get("/metrics");
            let mut names = std::collections::HashSet::new();
            for line in metrics.lines() {
                let mut it = line.split_whitespace();
                let (name, value) = (it.next().unwrap(), it.next().expect(line));
                assert!(it.next().is_none(), "{line}");
                assert!(name.starts_with("mrs_"), "{line}");
                assert!(names.insert(name), "{name} appears twice:\n{metrics}");
                value.parse::<f64>().unwrap_or_else(|e| panic!("{line}: {e}"));
            }
            metrics
        };
        let started = std::time::Instant::now();
        let reduced = {
            let mut job = Job::new(&mut cluster);
            let src = job.local_data(lines(50), 8).unwrap();
            let mapped = job.map_data(src, 0, 3, true).unwrap();
            job.reduce_data(mapped, 0).unwrap()
        };
        // Asked while the map wave holds its workers.
        metrics_page();
        let out = Job::new(&mut cluster).fetch_all(reduced).unwrap();
        let job_us = started.elapsed().as_micros() as u64;
        assert!(!out.is_empty());

        let status = get("/status");
        assert!(status.contains("mrs master:"), "{status}");
        assert!(status.contains("slaves: 2 signed in"), "{status}");
        let metrics = metrics_page();
        assert!(metrics.contains("mrs_slaves_alive 2"), "{metrics}");
        assert!(metrics.contains("mrs_trace_dropped_events 0"), "{metrics}");

        let trace = cluster.take_trace().expect("tracing on by default");
        assert_eq!(trace.dropped, 0);
        let count = |n: Name, k: Kind| trace.count(|g| g.event.name == n && g.event.kind == k);
        // 8 map tasks + 3 reduce partitions, exactly one attempt each
        // with speculation off.
        assert_eq!(count(Name::Attempt, Kind::Begin), 11);
        assert_eq!(count(Name::Attempt, Kind::End), 11);
        assert_eq!(count(Name::Exec, Kind::Begin), 11);
        assert_eq!(count(Name::Fetch, Kind::Begin), 11);
        assert_eq!(count(Name::Merge, Kind::Begin), 3, "one gather per reduce");
        assert_eq!(count(Name::Dispatch, Kind::Instant), 11);
        assert_eq!(count(Name::Report, Kind::Instant), 11);
        assert_eq!(count(Name::Cancel, Kind::Instant), 0);
        // Dispatch/Report ride the master row; execution spans ride the
        // slave rows, one pid per slave process.
        assert!(trace
            .events
            .iter()
            .filter(|g| matches!(g.event.name, Name::Dispatch | Name::Report))
            .all(|g| g.pid == MASTER_PID));
        assert!(trace
            .events
            .iter()
            .filter(|g| g.event.name == Name::Attempt)
            .all(|g| g.pid == 1 || g.pid == 2));
        for pid in [1, 2] {
            let spans = trace.count(|g| g.pid == pid && g.event.name == Name::Attempt);
            assert!(spans > 0, "slave pid {pid} recorded no attempt spans");
        }
        // Every dispatch→report window matches an attempt and is covered
        // by its spans up to control-plane latency.
        let cov = trace.coverage();
        assert_eq!(cov.len(), 11);
        for c in &cov {
            assert!(c.window_us - c.covered_us < 200_000, "uncovered gap too wide: {c:?}");
        }
        // Phase totals partition the traced wall clock exactly.
        let phases = trace.critical_path();
        assert_eq!(phases.buckets().iter().map(|(_, us)| *us).sum::<u64>(), phases.wall_us);
        // The master stamps its own row on the test's clock, between the
        // job's submission and its answer: that row spans no more than the
        // job, and no less than the 8 x 50 ms of held maps spread over
        // four workers.
        let master_row: Vec<u64> =
            trace.events.iter().filter(|g| g.pid == MASTER_PID).map(|g| g.event.at_us).collect();
        let master_span = master_row.last().unwrap() - master_row[0];
        assert!((100_000..=job_us).contains(&master_span), "{master_span} us of a {job_us} us job");
        assert!(phases.wall_us >= master_span);
        let json = trace.chrome_json();
        assert!(json.contains("\"traceEvents\"") && json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"name\":\"master\""), "missing master row");
        assert!(json.contains("\"name\":\"slave 0\"") && json.contains("\"name\":\"slave 1\""));
        assert!(json.contains("worker 0") && json.contains("worker 1"), "one lane per slot");
    }

    /// The master's `/metrics` page is the cluster's: every data-plane
    /// sample — counted by the slaves, delivered on their polls — reads
    /// what `LocalCluster::metrics` reads, and no sample is printed twice.
    #[test]
    fn metrics_page_carries_the_slaves_data_plane_counts() {
        let mut cluster = LocalCluster::start(
            Arc::new(Simple(WordCount)),
            2,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        let out = Job::new(&mut cluster).map_reduce(lines(200), 6, 3, false).unwrap();
        assert_eq!(sorted_counts(out).iter().find(|(w, _)| w == "common").unwrap().1, 200);

        let secs = |d: Duration| format!("{:.6}", d.as_secs_f64());
        let expected = |m: &JobMetrics| {
            [
                ("mrs_bytes_pre_compress_total", m.bytes_pre_compress().to_string()),
                ("mrs_bytes_on_wire_total", m.bytes_on_wire().to_string()),
                ("mrs_shortcircuit_fetches_total", m.shortcircuit_fetches().to_string()),
                ("mrs_checksum_retries_total", m.checksum_retries().to_string()),
                ("mrs_merge_runs_total", m.merge_runs().to_string()),
                ("mrs_presorted_runs_total", m.presorted_runs().to_string()),
                ("mrs_merge_seconds_total", secs(m.merge_time())),
                ("mrs_peak_reduce_records", m.peak_reduce_records().to_string()),
            ]
        };
        let authority = cluster.http_authority();
        // A straggler's backup may still deliver counts on a later poll:
        // read until a page sits between two equal snapshots.
        let (want, page) = loop {
            let before = expected(&cluster.metrics());
            let (code, body) =
                mrs_rpc::HttpClient::request(&authority, "GET", "/metrics", &[]).unwrap();
            assert_eq!(code, 200);
            if expected(&cluster.metrics()) == before {
                break (before, String::from_utf8(body).unwrap());
            }
        };
        let samples: Vec<(&str, &str)> =
            page.lines().map(|l| l.split_once(' ').expect(l)).collect();
        let names: std::collections::HashSet<&str> = samples.iter().map(|s| s.0).collect();
        assert_eq!(names.len(), samples.len(), "a sample name appears twice:\n{page}");
        for (name, value) in want {
            let got = samples.iter().find(|s| s.0 == name).map(|s| s.1);
            assert_eq!(got, Some(value.as_str()), "{name}:\n{page}");
        }
        let on_wire = samples.iter().find(|s| s.0 == "mrs_bytes_on_wire_total").unwrap().1;
        assert!(on_wire.parse::<u64>().unwrap() > 0, "the shuffle crossed no socket:\n{page}");
    }

    /// A slave's link to the master that counts the polls it sends after
    /// the first answer carrying a cancel order.
    struct CancelWatch {
        link: RpcMasterLink,
        /// Polls sent since an answer first carried a cancel order; `None`
        /// until one did.
        since_cancel: parking_lot::Mutex<Option<usize>>,
    }

    impl MasterLink for CancelWatch {
        fn signin(&self, authority: &str, slots: usize) -> Result<SlaveId> {
            self.link.signin(authority, slots)
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
            if let Some(n) = self.since_cancel.lock().as_mut() {
                *n += 1;
            }
            let answer = self.link.poll(slave, free, park, reports, counts, trace)?;
            if !answer.0.cancel.is_empty() {
                self.since_cancel.lock().get_or_insert(0);
            }
            Ok(answer)
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
            self.link.task_failed(slave, data, index, attempt, msg, failed_input)
        }
    }

    #[test]
    fn cancelled_speculative_loser_traces_cancel_not_report() {
        use mrs_trace::{Kind, Name, MASTER_PID};
        // The first slave draws map task 0 (data 1), the first task
        // dispatched, and its first run is a straggler: 24 ms before each
        // of its 25 lines, far past the speculation cutoff. The clean slave
        // that joins once that run has started gets a backup, wins, and
        // the sleeper is cancelled. Both slaves poll through a
        // `CancelWatch`, in sign-in order, so slave id = index.
        let mut cluster = LocalCluster::start(
            Arc::new(Simple(WordCount)),
            0,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        let slow = Slow::new(25, Duration::from_millis(24), false);
        let stop = Arc::new(AtomicBool::new(false));
        let mut watches = Vec::new();
        let mut slaves = Vec::new();
        let authority = cluster.master_authority();
        let mut add_slave = |options: SlaveOptions| {
            let link = RpcMasterLink::new(authority.clone());
            let watch = Arc::new(CancelWatch { link, since_cancel: Default::default() });
            let (w, stop) = (Arc::clone(&watch), Arc::clone(&stop));
            let program: Arc<dyn Program> = slow.clone();
            slaves.push(std::thread::spawn(move || {
                run_slave(&*w, program, DataPlane::Direct, &options, &stop)
            }));
            watches.push(watch);
        };
        add_slave(SlaveOptions { slots: 2, ..Default::default() });
        let reduced = {
            let mut job = Job::new(&mut cluster);
            let src = job.local_data(lines(200), 8).unwrap();
            let mapped = job.map_data(src, 0, 2, true).unwrap();
            job.reduce_data(mapped, 0).unwrap()
        };
        slow.await_start();
        add_slave(SlaveOptions { slots: 2, ..Default::default() });
        let out = Job::new(&mut cluster).fetch_all(reduced).unwrap();
        assert!(!out.is_empty());
        let m = cluster.metrics();
        assert!(m.speculative_wins() >= 1, "backup never won: {m:?}");
        assert!(m.cancelled_tasks() >= 1);

        // The master row shows the speculative dispatch, the winner's
        // report, and the loser's cancellation, on the loser's slave lane.
        let mut trace = cluster.take_trace().expect("tracing on by default");
        let master_cancels: Vec<_> = trace
            .events
            .iter()
            .filter(|g| g.pid == MASTER_PID && g.event.name == Name::Cancel)
            .map(|g| (g.event.lane, g.event.tag))
            .collect();
        assert!(!master_cancels.is_empty(), "no cancel order on the master row");
        assert!(
            trace.count(|g| g.pid == MASTER_PID && g.event.name == Name::Speculate) >= 1,
            "no speculative dispatch recorded"
        );
        // The cancelled attempt never commits: no Report instant under
        // the loser's attempt id.
        for (_, tag) in &master_cancels {
            assert_eq!(
                trace.count(|g| g.pid == MASTER_PID
                    && g.event.name == Name::Report
                    && g.event.tag.key() == tag.key()),
                0,
                "a cancelled attempt also reported: {tag:?}"
            );
        }
        // The sleeper notices the order its slave's next poll brings, closes
        // its attempt with a Cancel instant, and the following polls ship
        // both: wait for them, for as many polls as that takes, however
        // slow the box; a slave that polled `POLLS` times after the order
        // without shipping the Cancel never will. The wait is for the
        // sleeper's cancel: another task may also have raced and lost once
        // it had finished, with nothing left to cancel.
        const POLLS: usize = 10;
        let &(lane, loser) = master_cancels
            .iter()
            .find(|(_, tag)| (tag.data, tag.index) == (1, 0))
            .unwrap_or_else(|| panic!("the sleeper was never cancelled: {master_cancels:?}"));
        loop {
            let slave_cancelled = trace.count(|g| {
                g.pid != MASTER_PID
                    && g.event.name == Name::Cancel
                    && g.event.kind == Kind::Instant
                    && g.event.tag.key() == loser.key()
            });
            if slave_cancelled >= 1 {
                // The loser's attempt span is closed by an End, not left
                // dangling: cancel is an orderly outcome on the timeline.
                assert!(
                    trace.count(|g| g.pid != MASTER_PID
                        && g.event.name == Name::Attempt
                        && g.event.kind == Kind::End
                        && g.event.tag.key() == loser.key())
                        >= 1
                );
                break;
            }
            let polls = watches[lane as usize].since_cancel.lock().unwrap_or(0);
            assert!(
                polls < POLLS,
                "loser never traced its cancel in {polls} polls after the order"
            );
            std::thread::sleep(Duration::from_millis(10));
            if let Some(more) = cluster.take_trace() {
                trace.events.extend(more.events);
            }
        }
        drop(cluster);
        stop.store(true, Ordering::SeqCst);
        for slave in slaves {
            slave.join().unwrap().unwrap();
        }
    }

    /// Every integer on the wire decodes into its declared type or not at
    /// all: -1 is out of range everywhere, 2^32 wherever the type is a
    /// `u32`. Either is refused naming the field — a decode error in a
    /// message, fault 3 in a call — never narrowed into some other id.
    #[test]
    fn wire_integers_are_range_checked_not_cast() {
        use crate::proto::{CancelOrder, TaskKind, TaskMsg};
        use mrs_rpc::RpcClient;
        let big = 1i64 << 32;
        type Decode = fn(&Value) -> Result<()>;
        type Keys = &'static [(&'static str, bool)];
        type Positions = &'static [(usize, &'static str, bool)];
        let task = TaskMsg {
            data: 1,
            index: 2,
            kind: TaskKind::Map,
            func: 3,
            map_func: 0,
            parts: 4,
            combine: false,
            attempt: 5,
            inputs: vec![],
        };
        let report = TaskReport { data: 1, index: 2, attempt: 3, empty: vec![] };
        let cancel = CancelOrder { data: 1, index: 2, attempt: 3 };
        let trace = TraceBatch { sent_at_us: 1, rtt_us: 2, dropped: 3, events: vec![] };
        // Per message: its value, its decoder, and each integer key with
        // whether its type is a `u32`.
        let messages: [(Value, Decode, Keys); 4] = [
            (
                task.to_value(),
                |v| TaskMsg::from_value(v).map(drop),
                &[
                    ("data", true),
                    ("index", false),
                    ("func", true),
                    ("map_func", true),
                    ("parts", false),
                    ("attempt", true),
                ],
            ),
            (
                report.to_value(),
                |v| TaskReport::from_value(v).map(drop),
                &[("data", true), ("index", false), ("attempt", true)],
            ),
            (
                cancel.to_value(),
                |v| CancelOrder::from_value(v).map(drop),
                &[("data", true), ("index", false), ("attempt", true)],
            ),
            (
                trace.to_value(),
                |v| TraceBatch::from_value(v).map(drop),
                &[("sent_at", false), ("rtt", false), ("dropped", false)],
            ),
        ];
        for (value, decode, ints) in messages {
            decode(&value).unwrap();
            let Value::Struct(fields) = value else { panic!("a message is a struct") };
            for &(key, narrow) in ints {
                for (bad, refused) in [(-1, true), (big, narrow)] {
                    let mut fields = fields.clone();
                    fields.insert(key.to_owned(), Value::Int(bad));
                    match decode(&Value::Struct(fields)) {
                        Err(e) => {
                            assert!(refused && e.to_string().contains(key), "{key} {bad}: {e}")
                        }
                        Ok(()) => assert!(!refused, "{key} = {bad} was accepted"),
                    }
                }
            }
        }

        // The calls, on a master whose job is over, so that no poll parks.
        let master = Master::new(MasterConfig::default(), DataPlane::Direct).unwrap();
        let server = serve_master(master.clone(), 0).unwrap();
        let client = RpcClient::new(server.authority());
        let signin =
            vec![Value::Str("127.0.0.1:1".into()), Value::Int(1), Value::Int(PROTOCOL_VERSION)];
        let slave = client.call("signin", &signin).unwrap();
        master.finish();
        let no_reports = Value::Array(vec![]);
        let no_counts = Value::Bytes(vec![]);
        let get_task = vec![slave.clone(), Value::Int(1), Value::Int(0), no_reports, no_counts];
        let (msg, no_input) = (Value::Str("boom".into()), Value::Str(String::new()));
        let task_failed = vec![slave, Value::Int(1), Value::Int(0), msg, no_input, Value::Int(1)];
        // Per method: a well-formed call, and each integer parameter's
        // position, name and whether its type is a `u32`.
        let calls: [(&str, Vec<Value>, Positions); 3] = [
            ("signin", signin, &[(1, "slots", false)]),
            ("get_task", get_task, &[(0, "slave", true), (1, "free", false), (2, "park", false)]),
            (
                "task_failed",
                task_failed,
                &[(0, "slave", true), (1, "data", true), (2, "index", false), (5, "attempt", true)],
            ),
        ];
        for (method, good, ints) in calls {
            client.call(method, &good).unwrap();
            for &(at, name, narrow) in ints {
                for (bad, refused) in [(-1, true), (big, narrow)] {
                    let mut params = good.clone();
                    params[at] = Value::Int(bad);
                    match client.call(method, &params) {
                        Err(e) => {
                            let e = e.to_string();
                            assert!(refused && e.contains("fault 3"), "{method} {name} {bad}: {e}");
                            assert!(e.contains(name), "{method} {name} {bad}: {e}");
                        }
                        Ok(_) => assert!(!refused, "{method} {name} = {bad} was accepted"),
                    }
                }
            }
        }
    }

    /// `serve_master`'s method table is the declared one: one row per
    /// method, naming its parameters in their declared order.
    #[test]
    fn serve_master_doc_table_is_the_declaration() {
        let source = include_str!("distributed.rs");
        let rows: Vec<&str> = source.lines().filter(|l| l.starts_with("/// | `")).collect();
        let declared = [
            (Signin::METHOD, Signin::PARAMS),
            (GetTask::METHOD, GetTask::PARAMS),
            (TaskFailed::METHOD, TaskFailed::PARAMS),
        ];
        let want: Vec<String> = declared
            .iter()
            .map(|(method, params)| format!("/// | `{method}` | {} |", params.join(", ")))
            .collect();
        assert_eq!(rows, want);
    }

    /// A `pso_iter` round trip as one slave of its 2 x 1 cluster sends and
    /// receives it: the poll reports the round's two fused tasks (on the
    /// 4-island ring two partitions of each come out empty), tallies what
    /// their fetches moved and ships their 16 trace events; the answer
    /// grants the next round's two tasks, each reading four partitions
    /// (one of them empty), and a purge. Pinned to the byte, so a change
    /// that grows the poll fails here. At protocol 7 the same poll was
    /// 2,805 bytes (without the control bytes, uncounted then) and its
    /// answer 2,284: the answer's members are the same, in another order.
    #[test]
    fn a_pso_iter_poll_and_its_answer_are_pinned_in_bytes() {
        use crate::proto::{Answer, Assignment, TaskKind, TaskMsg, Wire};
        use mrs_rpc::xmlrpc::Writer;
        use mrs_trace::{Event, Kind, Name, Op, Tag};
        let report = |index, attempt, empty| TaskReport { data: 1035, index, attempt, empty };
        let reports = vec![report(2, 3985, vec![0, 1]), report(3, 3986, vec![1, 2])];
        let mut counts = JobMetrics::default();
        for (c, n) in [
            (Counter::ConnectionsReused, 2),
            (Counter::ControlBytes, 3_734),
            (Counter::BytesPreCompress, 2_028),
            (Counter::BytesOnWire, 2_046),
            (Counter::ShortcircuitFetches, 3),
            (Counter::MergeRuns, 8),
            (Counter::PresortedRuns, 8),
            (Counter::PeakReduceRecords, 2),
        ] {
            counts.add(c, n);
        }
        let mut events = Vec::new();
        for (index, attempt, lane) in [(2, 3985, 0), (3, 3986, 1)] {
            let tag = Tag::task(Op::ReduceMap, 1035, index, attempt);
            let span = [Name::Fetch, Name::Merge, Name::Exec]
                .into_iter()
                .flat_map(|name| [(name, Kind::Begin), (name, Kind::End)]);
            let span = std::iter::once((Name::Attempt, Kind::Begin))
                .chain(span)
                .chain([(Name::Attempt, Kind::End)]);
            for (i, (name, kind)) in span.enumerate() {
                let at_us = 406_500 + 100 * lane as u64 + 13 * i as u64;
                events.push(Event { at_us, kind, name, lane, tag });
            }
        }
        events.sort_by_key(|e| e.at_us);
        let trace = TraceBatch { sent_at_us: 406_623, rtt_us: 40, dropped: 0, events };
        let poll = GetTask { slave: 1, free: 2, park_ms: 5000, reports, counts, trace };

        let input = |slave: u32, port, t| {
            format!("http://127.0.0.1:{port}/data/s{slave}/d1035/t{t}/b2.mrsb")
        };
        let task = |index, attempt| TaskMsg {
            data: 1036,
            index,
            kind: TaskKind::ReduceMap,
            func: 1,
            map_func: 1,
            parts: 4,
            combine: false,
            attempt,
            inputs: vec![
                input(0, 39343, 0),
                input(0, 39343, 1),
                input(1, 34413, 2),
                "empty:".into(),
            ],
        };
        let dispatch = Dispatch {
            assignment: Assignment::Tasks(vec![task(2, 3989), task(3, 3990)]),
            purge: vec!["s1/d1033/".into()],
            eager: vec![],
            cancel: vec![],
        };
        let mut w = Writer::response();
        Answer::put(&Answer { dispatch, more: false }, &mut w);
        assert_eq!((poll.request().len(), w.finish().len()), (1_476, 2_284));
    }

    /// The typed calls and answers of the wire golden test.
    mod golden {
        use crate::metrics::{Counter, JobMetrics};
        use crate::proto::{
            Assignment, CancelOrder, Dispatch, TaskKind, TaskMsg, TaskReport, TraceBatch,
        };
        use mrs_trace::{Event, Kind, Name, Op, Tag};

        pub fn reports() -> Vec<TaskReport> {
            vec![
                TaskReport { data: 1, index: 0, attempt: 1, empty: vec![] },
                TaskReport { data: 2, index: 3, attempt: 2, empty: vec![0, 2] },
            ]
        }

        pub fn tally() -> JobMetrics {
            let mut tally = JobMetrics::default();
            tally.add(Counter::MergeRuns, 4);
            tally.max(Counter::PeakReduceRecords, 900);
            tally.add_time(Counter::MergeTime, std::time::Duration::from_micros(1500));
            tally
        }

        pub fn trace() -> TraceBatch {
            let e = |at_us, kind| Event {
                at_us,
                kind,
                name: Name::Exec,
                lane: 2,
                tag: Tag::task(Op::Map, 3, 7, 1),
            };
            let events = vec![e(10, Kind::Begin), e(20, Kind::End)];
            TraceBatch { sent_at_us: 1_000_000, rtt_us: 450, dropped: 1, events }
        }

        /// Each answer under test and its `more` hint.
        pub fn answers() -> Vec<(Dispatch, bool)> {
            let task = |index, kind, map_func, parts| TaskMsg {
                data: 2,
                index,
                kind,
                func: 1,
                map_func,
                parts,
                combine: kind == TaskKind::ReduceMap,
                attempt: 3,
                inputs: vec!["http://127.0.0.1:40001/data/s7/d1/t0/b0.mrsb".into()],
            };
            let tasks = vec![task(0, TaskKind::Reduce, 0, 1), task(1, TaskKind::ReduceMap, 4, 2)];
            let dispatch = |assignment, purge: &[&str], cancel| Dispatch {
                assignment,
                purge: purge.iter().map(|p| p.to_string()).collect(),
                eager: vec![],
                cancel,
            };
            vec![
                (
                    dispatch(
                        Assignment::Tasks(tasks),
                        &["s7/d1/", "src0/"],
                        vec![CancelOrder { data: 2, index: 1, attempt: 2 }],
                    ),
                    true,
                ),
                (dispatch(Assignment::Wait, &[], vec![]), false),
                (dispatch(Assignment::Exit, &[], vec![]), false),
            ]
        }
    }

    /// Every control message as the wire carries it, byte for byte: the
    /// request body the slave stub sends for each call, and the response
    /// body the master's handler answers with for each answer kind, as
    /// protocol 8 writes them (a report without URLs, packed tally and
    /// trace events, members in declaration order). Each request goes
    /// through `RpcMasterLink` to a server that keeps the raw body and
    /// answers the next canned reply, which the stub must decode back to
    /// its typed value; each golden request decodes back to its call.
    #[test]
    fn wire_bytes_are_golden() {
        use crate::proto::{Answer, Wire};
        use mrs_rpc::xmlrpc::{encode_response, parse_request, Writer};
        use mrs_rpc::{HttpServer, Request, Response};
        let answers = golden::answers();
        // Each answer as the master's handler writes it.
        let answer_doc = |(d, more): &(Dispatch, bool)| {
            let mut w = Writer::response();
            Answer::put(&Answer { dispatch: d.clone(), more: *more }, &mut w);
            w.finish()
        };
        let replies: Vec<String> = std::iter::once(encode_response(&Value::Int(7)))
            .chain(answers.iter().map(answer_doc))
            .chain([Value::Bool(true), Value::Bool(true)].iter().map(encode_response))
            .collect();
        let bodies = Arc::new(parking_lot::Mutex::new(Vec::<String>::new()));
        let server = {
            let (bodies, replies) = (Arc::clone(&bodies), replies.clone());
            HttpServer::bind(
                0,
                Arc::new(move |req: Request| {
                    let mut bodies = bodies.lock();
                    bodies.push(String::from_utf8(req.body).unwrap());
                    Response::ok("text/xml", replies[bodies.len() - 1].clone().into_bytes())
                }),
            )
            .unwrap()
        };
        let link = RpcMasterLink::new(server.authority());
        assert_eq!(link.signin("127.0.0.1:40001", 2).unwrap(), 7);
        let full = link.poll(
            7,
            2,
            Duration::from_millis(250),
            golden::reports(),
            golden::tally(),
            golden::trace(),
        );
        assert_eq!(full.unwrap(), answers[0]);
        for (want, (free, park)) in answers[1..].iter().zip([(1, 0), (3, 1000)]) {
            let park = Duration::from_millis(park);
            let idle =
                link.poll(7, free, park, vec![], JobMetrics::default(), TraceBatch::default());
            assert_eq!(&idle.unwrap(), want);
        }
        let failed_input = "http://127.0.0.1:40002/data/s8/d1/t3/b0.mrsb";
        link.task_failed(7, 2, 3, 2, "bad <record> & more", Some(failed_input)).unwrap();
        link.task_failed(7, 2, 4, 1, "kernel panicked", None).unwrap();

        let requests = bodies.lock().clone();
        let got: Vec<&str> = requests.iter().chain(&replies[1..4]).map(String::as_str).collect();
        for (i, (&got, want)) in got.iter().zip(GOLDEN).enumerate() {
            assert_eq!(got, want, "wire document {i}");
        }
        assert_eq!(got.len(), GOLDEN.len());

        // The golden requests decode back to the typed calls.
        let params = |i: usize| parse_request(GOLDEN[i]).unwrap().1;
        let signin = Signin { authority: "127.0.0.1:40001".into(), slots: 2, version: 8 };
        assert_eq!(Signin::from_params(&params(0)).unwrap(), signin);
        let poll = |free, park_ms, reports, counts, trace| GetTask {
            slave: 7,
            free,
            park_ms,
            reports,
            counts,
            trace,
        };
        // Each poll's tally carries the body bytes of the call before it.
        let moved = |call: usize| {
            let mut tally = JobMetrics::default();
            tally.add(Counter::ControlBytes, (GOLDEN[call].len() + replies[call].len()) as u64);
            tally
        };
        let mut counts = golden::tally();
        counts.merge(&moved(0));
        let full = poll(2, 250, golden::reports(), counts, golden::trace());
        assert_eq!(GetTask::from_params(&params(1)).unwrap(), full);
        let idle = |free, park, call| poll(free, park, vec![], moved(call), Default::default());
        assert_eq!(GetTask::from_params(&params(2)).unwrap(), idle(1, 0, 1));
        assert_eq!(GetTask::from_params(&params(3)).unwrap(), idle(3, 1000, 2));
        let failed = |index, message: &str, failed_input: Option<&str>, attempt| TaskFailed {
            slave: 7,
            data: 2,
            index,
            message: message.into(),
            failed_input: failed_input.unwrap_or_default().into(),
            attempt,
        };
        let with_input = failed(3, "bad <record> & more", Some(failed_input), 2);
        assert_eq!(TaskFailed::from_params(&params(4)).unwrap(), with_input);
        let without = failed(4, "kernel panicked", None, 1);
        assert_eq!(TaskFailed::from_params(&params(5)).unwrap(), without);
    }

    /// The wire documents of `wire_bytes_are_golden`, in call order: signin,
    /// a full and two idle `get_task` calls, two `task_failed` calls, then
    /// the answers `Tasks` (with purge, cancel and `more`), `Wait` and `Exit`.
    const GOLDEN: [&str; 9] = [
        r#"<?xml version="1.0"?>
<methodCall><methodName>signin</methodName><params><param><value><string>127.0.0.1:40001</string></value></param><param><value><int>2</int></value></param><param><value><int>8</int></value></param></params></methodCall>"#,
        r#"<?xml version="1.0"?>
<methodCall><methodName>get_task</methodName><params><param><value><int>7</int></value></param><param><value><int>2</int></value></param><param><value><int>250</int></value></param><param><value><array><data><value><struct><member><name>data</name><value><int>1</int></value></member><member><name>index</name><value><int>0</int></value></member><member><name>attempt</name><value><int>1</int></value></member></struct></value><value><struct><member><name>data</name><value><int>2</int></value></member><member><name>index</name><value><int>3</int></value></member><member><name>attempt</name><value><int>2</int></value></member><member><name>empty</name><value><base64>BQ==</base64></value></member></struct></value></data></array></value></param><param><value><base64>E+MCIQQjhAcn3As=</base64></value></param><param><value><struct><member><name>sent_at</name><value><int>1000000</int></value></member><member><name>rtt</name><value><int>450</int></value></member><member><name>dropped</name><value><int>1</int></value></member><member><name>events</name><value><base64>FAIDBwEAAgEUAgMHAQECAQ==</base64></value></member></struct></value></param></params></methodCall>"#,
        r#"<?xml version="1.0"?>
<methodCall><methodName>get_task</methodName><params><param><value><int>7</int></value></param><param><value><int>1</int></value></param><param><value><int>0</int></value></param><param><value><array><data></data></array></value></param><param><value><base64>E8Ea</base64></value></param></params></methodCall>"#,
        r#"<?xml version="1.0"?>
<methodCall><methodName>get_task</methodName><params><param><value><int>7</int></value></param><param><value><int>3</int></value></param><param><value><int>1000</int></value></param><param><value><array><data></data></array></value></param><param><value><base64>E84E</base64></value></param></params></methodCall>"#,
        r#"<?xml version="1.0"?>
<methodCall><methodName>task_failed</methodName><params><param><value><int>7</int></value></param><param><value><int>2</int></value></param><param><value><int>3</int></value></param><param><value><string>bad &lt;record&gt; &amp; more</string></value></param><param><value><string>http://127.0.0.1:40002/data/s8/d1/t3/b0.mrsb</string></value></param><param><value><int>2</int></value></param></params></methodCall>"#,
        r#"<?xml version="1.0"?>
<methodCall><methodName>task_failed</methodName><params><param><value><int>7</int></value></param><param><value><int>2</int></value></param><param><value><int>4</int></value></param><param><value><string>kernel panicked</string></value></param><param><value><string></string></value></param><param><value><int>1</int></value></param></params></methodCall>"#,
        r#"<?xml version="1.0"?>
<methodResponse><params><param><value><struct><member><name>type</name><value><string>tasks</string></value></member><member><name>tasks</name><value><array><data><value><struct><member><name>data</name><value><int>2</int></value></member><member><name>index</name><value><int>0</int></value></member><member><name>kind</name><value><string>reduce</string></value></member><member><name>func</name><value><int>1</int></value></member><member><name>map_func</name><value><int>0</int></value></member><member><name>parts</name><value><int>1</int></value></member><member><name>combine</name><value><boolean>0</boolean></value></member><member><name>attempt</name><value><int>3</int></value></member><member><name>inputs</name><value><array><data><value><string>http://127.0.0.1:40001/data/s7/d1/t0/b0.mrsb</string></value></data></array></value></member></struct></value><value><struct><member><name>data</name><value><int>2</int></value></member><member><name>index</name><value><int>1</int></value></member><member><name>kind</name><value><string>reducemap</string></value></member><member><name>func</name><value><int>1</int></value></member><member><name>map_func</name><value><int>4</int></value></member><member><name>parts</name><value><int>2</int></value></member><member><name>combine</name><value><boolean>1</boolean></value></member><member><name>attempt</name><value><int>3</int></value></member><member><name>inputs</name><value><array><data><value><string>http://127.0.0.1:40001/data/s7/d1/t0/b0.mrsb</string></value></data></array></value></member></struct></value></data></array></value></member><member><name>purge</name><value><array><data><value><string>s7/d1/</string></value><value><string>src0/</string></value></data></array></value></member><member><name>cancel</name><value><array><data><value><struct><member><name>data</name><value><int>2</int></value></member><member><name>index</name><value><int>1</int></value></member><member><name>attempt</name><value><int>2</int></value></member></struct></value></data></array></value></member><member><name>more</name><value><boolean>1</boolean></value></member></struct></value></param></params></methodResponse>"#,
        r#"<?xml version="1.0"?>
<methodResponse><params><param><value><struct><member><name>type</name><value><string>wait</string></value></member><member><name>more</name><value><boolean>0</boolean></value></member></struct></value></param></params></methodResponse>"#,
        r#"<?xml version="1.0"?>
<methodResponse><params><param><value><struct><member><name>type</name><value><string>exit</string></value></member><member><name>more</name><value><boolean>0</boolean></value></member></struct></value></param></params></methodResponse>"#,
    ];
}
