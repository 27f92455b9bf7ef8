//! Fault-tolerance behaviour of the master/slave implementation: slave
//! crashes, storage hiccups, and poisoned tasks — on the default config,
//! where lifetime GC reclaims every intermediate its readers are done
//! with, so recovery rebuilds what it needs from lineage.

use mrs::apps::wordcount::{decode_counts, lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_core::FuncId;
use mrs_fs::{MemFs, Store};
use mrs_runtime::master::SlaveId;
use mrs_runtime::metrics::JobMetrics;
use mrs_runtime::proto::{Dispatch, TaskReport, TraceBatch};
use mrs_runtime::slave::{run_slave, MasterLink};
use mrs_runtime::LocalCluster;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

mod common;

fn big_input() -> Vec<mrs_core::Record> {
    let lines: Vec<String> =
        (0..600).map(|i| format!("common w{} w{} w{}", i % 13, i % 29, i % 7)).collect();
    lines_to_records(lines.iter().map(String::as_str))
}

fn quick_sweep_config() -> MasterConfig {
    MasterConfig { slave_timeout: Duration::from_millis(150), ..MasterConfig::default() }
}

#[test]
fn killing_one_slave_mid_job_preserves_the_answer() {
    let mut cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        4,
        DataPlane::Direct,
        quick_sweep_config(),
    )
    .unwrap();

    let reduced = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(big_input(), 24).unwrap();
        let mapped = job.map_data(src, 0, 8, true).unwrap();
        job.reduce_data(mapped, 0).unwrap()
    };
    cluster.kill_slave(1);
    let out = {
        let mut job = Job::new(&mut cluster);
        job.fetch_all(reduced).unwrap()
    };
    let counts = decode_counts(&out).unwrap();
    assert_eq!(counts["common"], 600);
}

/// Producer death mid-shuffle: a slave that produced some map outputs
/// dies while the job runs. The master re-executes its map tasks on a
/// surviving slave, whose outputs get fresh URLs (a new `s{slave}/`
/// prefix), and the reduces fetch those. The answer must be exact in
/// every interleaving — the kill may land mid-map, mid-reduce, or after
/// completion, once GC has reclaimed the map output, depending on build
/// and scheduling — and every run a reduce merges arrives sorted, fresh or
/// re-executed.
#[test]
fn producer_death_mid_shuffle_keeps_the_answer_and_every_run_presorted() {
    let mut cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        3,
        DataPlane::Direct,
        quick_sweep_config(),
    )
    .unwrap();
    let reduced = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(big_input(), 24).unwrap();
        // No combiner: every map output record crosses the shuffle.
        let mapped = job.map_data(src, 0, 8, false).unwrap();
        job.reduce_data(mapped, 0).unwrap()
    };
    // Let some maps finish, then kill a slave that (very likely) produced
    // some of them.
    std::thread::sleep(Duration::from_millis(3));
    cluster.kill_slave(1);
    let out = {
        let mut job = Job::new(&mut cluster);
        job.fetch_all(reduced).unwrap()
    };
    let counts = decode_counts(&out).unwrap();
    assert_eq!(counts["common"], 600);
    assert_eq!(counts.values().sum::<u64>(), 2400, "one count per input token");
    let m = cluster.metrics();
    assert!(m.merge_runs() > 0, "reduce tasks should consume merge runs");
    assert_eq!(
        m.presorted_runs(),
        m.merge_runs(),
        "fresh or re-executed, every run arrives sorted"
    );
}

#[test]
fn killing_all_but_one_slave_still_completes() {
    let mut cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        3,
        DataPlane::Direct,
        quick_sweep_config(),
    )
    .unwrap();
    let reduced = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(big_input(), 12).unwrap();
        let mapped = job.map_data(src, 0, 4, true).unwrap();
        job.reduce_data(mapped, 0).unwrap()
    };
    cluster.kill_slave(0);
    cluster.kill_slave(2);
    let out = {
        let mut job = Job::new(&mut cluster);
        job.fetch_all(reduced).unwrap()
    };
    assert_eq!(decode_counts(&out).unwrap()["common"], 600);
}

/// Kill the slave that won a speculative race *after* its completion was
/// committed. The winner's published outputs die with it on the direct
/// plane, so the master must re-queue the task under a fresh attempt id
/// and recompute — trusting neither the dead winner's URLs nor a stale
/// report from the cancelled loser.
#[test]
fn winners_slave_dying_after_commit_recomputes_the_task() {
    // Map task 0 reads lines 0..75; its first run waits for the release.
    let straggler = common::Straggler::new(75);
    let mut cluster =
        LocalCluster::start(straggler.clone(), 0, DataPlane::Direct, quick_sweep_config()).unwrap();
    // The first slave draws map task 0: it is the first task dispatched.
    // Only once its straggling run has started does a clean slave join,
    // whose backup of the task commits first.
    cluster.add_slave_with(SlaveOptions { slots: 2, ..Default::default() });
    let (mapped, reduced) = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(big_input(), 8).unwrap();
        let mapped = job.map_data(src, 0, 4, false).unwrap();
        (mapped, job.reduce_data(mapped, 0).unwrap())
    };
    straggler.await_start();
    cluster.add_slave_with(SlaveOptions { slots: 2, ..Default::default() });
    // Once the map wave is complete, the backup's completion is committed.
    Job::new(&mut cluster).wait(mapped).unwrap();
    straggler.release();
    assert!(cluster.metrics().speculative_wins() >= 1, "speculative backup never won");
    // The winner is the second slave; kill both, with a replacement
    // arriving first so the job is never slave-less.
    cluster.add_slave();
    cluster.kill_slave(0);
    cluster.kill_slave(1);
    let out = {
        let mut job = Job::new(&mut cluster);
        job.fetch_all(reduced).unwrap()
    };
    let counts = decode_counts(&out).unwrap();
    assert_eq!(counts["common"], 600);
    assert_eq!(counts.values().sum::<u64>(), 2400, "one count per input token");
    assert!(cluster.metrics().speculative_wins() >= 1);
}

#[test]
fn transient_shared_fs_failures_are_retried() {
    let store = MemFs::new();
    let shared: Arc<dyn mrs_fs::Store> = Arc::new(store.clone());
    let mut cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        2,
        DataPlane::SharedFs(shared),
        MasterConfig::default(),
    )
    .unwrap();
    let out = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(big_input(), 8).unwrap();
        // Break the next few storage operations: some task attempts will
        // fail and must be re-queued, not fail the job.
        store.fail_next(3);
        let mapped = job.map_data(src, 0, 4, true).unwrap();
        let reduced = job.reduce_data(mapped, 0).unwrap();
        job.fetch_all(reduced).unwrap()
    };
    assert_eq!(decode_counts(&out).unwrap()["common"], 600);
    assert!(cluster.metrics().tasks_retried() > 0, "expected at least one retry");
}

#[test]
fn poisoned_task_fails_the_job_after_attempt_cap() {
    // A program whose map always fails on decode: give it garbage records.
    let mut cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        2,
        DataPlane::Direct,
        MasterConfig::default(),
    )
    .unwrap();
    let mut job = Job::new(&mut cluster);
    let src = job.local_data(vec![(vec![1, 2], vec![3])], 1).unwrap();
    let mapped = job.map_data(src, 0, 1, false).unwrap();
    let err = job.wait(mapped).unwrap_err();
    let msg = err.to_string();
    // The cap is four attempts.
    assert!(msg.contains("failed 4 times"), "{msg}");
    assert_eq!(cluster.metrics().tasks_retried(), 4, "{msg}");
}

#[test]
fn job_submitted_before_any_slave_completes_when_one_arrives() {
    let mut cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        0,
        DataPlane::Direct,
        MasterConfig::default(),
    )
    .unwrap();
    let reduced = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(big_input(), 4).unwrap();
        let mapped = job.map_data(src, 0, 2, false).unwrap();
        job.reduce_data(mapped, 0).unwrap()
    };
    cluster.add_slave();
    let out = {
        let mut job = Job::new(&mut cluster);
        job.fetch_all(reduced).unwrap()
    };
    assert_eq!(decode_counts(&out).unwrap()["common"], 600);
}

/// A chainable program: its reduce output is valid input for its map, and
/// every map task scatters over every partition.
struct Relay;

impl MapReduce for Relay {
    type K1 = u64;
    type V1 = u64;
    type K2 = u64;
    type V2 = u64;

    fn map(&self, k: u64, v: u64, emit: &mut dyn FnMut(u64, u64)) {
        emit(k % 5, v + 1);
        emit((k * 3 + 1) % 7, v);
    }

    fn reduce(&self, _k: u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
        emit(vs.sum());
    }
}

/// Queue one map+reduce round of [`Relay`] over `input`.
fn relay_round(job: &mut Job, input: DataId) -> DataId {
    let mapped = job.map_data(input, 0, 3, false).unwrap();
    job.reduce_data(mapped, 0).unwrap()
}

fn relay_input() -> Vec<Record> {
    (0..40u64).map(|i| mrs_core::kv::encode_record(&i, &(i * i % 13))).collect()
}

/// Recovery needs no `keep`: a three-round chain on the default config,
/// where lifetime GC has reclaimed rounds 1 and 2 (all but round 2's
/// output) by the time round 2 is done. Then every slave holding round 2's
/// output dies, so round 3 can only run once the master rebuilds rounds 1
/// and 2 from the source, by lineage — and the answer must equal serial.
#[test]
fn a_chain_whose_reclaimed_rounds_died_with_their_slaves_is_rebuilt_from_lineage() {
    let mut serial = SerialRuntime::new(Arc::new(Simple(Relay)));
    let want = {
        let mut job = Job::new(&mut serial);
        let src = job.local_data(relay_input(), 4).unwrap();
        let r1 = relay_round(&mut job, src);
        let r2 = relay_round(&mut job, r1);
        let r3 = relay_round(&mut job, r2);
        let mut out = job.fetch_all(r3).unwrap();
        out.sort();
        out
    };

    let mut cluster =
        LocalCluster::start(Arc::new(Simple(Relay)), 2, DataPlane::Direct, quick_sweep_config())
            .unwrap();
    let r2 = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(relay_input(), 4).unwrap();
        let r1 = relay_round(&mut job, src);
        let r2 = relay_round(&mut job, r1);
        job.wait(r2).unwrap();
        r2
    };
    assert_eq!(cluster.metrics().datasets_freed(), 3, "both maps and round 1's reduce");
    cluster.add_slave();
    while cluster.live_slaves() < 3 {
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.kill_slave(0);
    cluster.kill_slave(1);
    let mut got = {
        let mut job = Job::new(&mut cluster);
        let r3 = relay_round(&mut job, r2);
        job.fetch_all(r3).unwrap()
    };
    got.sort();
    assert_eq!(got, want, "rebuilt chain vs serial");
    assert!(cluster.metrics().tasks_retried() > 0, "round 2's output was lost and recomputed");
}

/// A shared store whose first read of a dataset-3 file fails as if the
/// file were gone.
struct LosesOnce {
    inner: MemFs,
    lost: AtomicBool,
}

impl Store for LosesOnce {
    fn put(&self, path: &str, data: &[u8]) -> mrs_core::Result<()> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &str) -> mrs_core::Result<Vec<u8>> {
        if path.contains("/d3/") && !self.lost.swap(true, Ordering::SeqCst) {
            return Err(mrs_core::Error::MissingData(path.to_owned()));
        }
        self.inner.get(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, prefix: &str) -> mrs_core::Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, path: &str) -> mrs_core::Result<()> {
        self.inner.delete(path)
    }
}

/// On a shared store, lifetime GC deletes a reclaimed dataset's files. A
/// two-round chain loses one of round 2's map outputs (dataset 3) when
/// round 2's reduce reads it. By then round 1's map and reduce were
/// reclaimed and their files deleted, so the master rebuilds both from
/// lineage, writing the deleted paths again — and the answer must equal
/// serial. The rebuilt lives are freed in turn.
#[test]
fn a_rebuild_after_the_shared_store_deleted_its_inputs_equals_serial() {
    let mut serial = SerialRuntime::new(Arc::new(Simple(Relay)));
    let want = {
        let mut job = Job::new(&mut serial);
        let src = job.local_data(relay_input(), 4).unwrap();
        let r1 = relay_round(&mut job, src);
        let r2 = relay_round(&mut job, r1);
        let mut out = job.fetch_all(r2).unwrap();
        out.sort();
        out
    };

    let store = Arc::new(LosesOnce { inner: MemFs::new(), lost: AtomicBool::new(false) });
    let plane = DataPlane::SharedFs(store.clone());
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(Relay)), 2, plane, MasterConfig::default()).unwrap();
    let mut got = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(relay_input(), 4).unwrap();
        let r1 = relay_round(&mut job, src);
        let r2 = relay_round(&mut job, r1);
        assert_eq!(r2, DataId(4));
        job.fetch_all(r2).unwrap()
    };
    got.sort();
    assert_eq!(got, want, "rebuilt chain vs serial");
    assert!(store.lost.load(Ordering::SeqCst), "no read of round 2's map output failed");
    assert!(cluster.metrics().tasks_retried() > 0, "the lost output was recomputed");
    // The answer needs one split of the rebuilt round 1 reduce, which is
    // rebuilt whole: its other tasks may outlast the job, and it is freed
    // (with its input) once they land. Live are then the source and the
    // answer.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster.metrics().live_datasets() > 2 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let left = store.inner.list("").unwrap();
    let kept = |path: &String| path.starts_with("src0/") || path.contains("/d4/");
    assert!(left.iter().all(kept), "only the source and the answer remain: {left:?}");
}

/// Relay, whose function ids 0 and 1 are the same functions (so two ops
/// can differ in their affinity claims alone), and whose map stops at
/// `gate` on the first record keyed `key` it is ever given: the first
/// run of the map task over that record's split, which then holds it.
/// Every later run passes.
struct GatedRelay {
    key: u64,
    gate: Gate,
}

/// Shut until opened; records whether a map call has reached it.
#[derive(Default)]
struct Gate {
    /// (a map call reached the gate, the gate is open)
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn pass(&self) {
        let mut g = self.state.lock().unwrap();
        if std::mem::replace(&mut g.0, true) {
            return;
        }
        self.cv.notify_all();
        drop(self.cv.wait_while(g, |g| !g.1).unwrap());
    }

    fn await_arrival(&self) {
        drop(self.cv.wait_while(self.state.lock().unwrap(), |g| !g.0).unwrap());
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

impl Program for GatedRelay {
    fn map_bytes(
        &self,
        _: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> mrs_core::Result<()> {
        if u64::from_bytes(key)? == self.key {
            self.gate.pass();
        }
        Simple(Relay).map_bytes(0, key, value, emit)
    }

    fn reduce_bytes(
        &self,
        _: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> mrs_core::Result<()> {
        Simple(Relay).reduce_bytes(0, key, values, emit)
    }
}

/// A link to the master that a test can shut: a poll made while it is
/// shut waits in the link, before it reaches the master.
struct Valve {
    master: Master,
    /// (shut, a poll is waiting)
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Valve {
    fn new(master: &Master) -> Arc<Valve> {
        Arc::new(Valve { master: master.clone(), state: Mutex::default(), cv: Condvar::new() })
    }

    /// Shut the valve and wait until the slave's next poll waits in it:
    /// none of its polls is at the master then.
    fn shut(&self) {
        self.state.lock().unwrap().0 = true;
        drop(self.cv.wait_while(self.state.lock().unwrap(), |s| !s.1).unwrap());
    }

    fn open(&self) {
        self.state.lock().unwrap().0 = false;
        self.cv.notify_all();
    }
}

impl MasterLink for Valve {
    fn signin(&self, authority: &str, slots: usize) -> mrs_core::Result<SlaveId> {
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
    ) -> mrs_core::Result<(Dispatch, bool)> {
        let mut state = self.state.lock().unwrap();
        while state.0 {
            state.1 = true;
            self.cv.notify_all();
            state = self.cv.wait(state).unwrap();
        }
        state.1 = false;
        drop(state);
        MasterLink::poll(&self.master, slave, free, park, reports, counts, trace)
    }

    fn task_failed(
        &self,
        slave: SlaveId,
        data: u32,
        index: usize,
        attempt: u32,
        msg: &str,
        failed_input: Option<&str>,
    ) -> mrs_core::Result<()> {
        MasterLink::task_failed(&self.master, slave, data, index, attempt, msg, failed_input)
    }
}

/// A slave thread of a hand-built cluster, and its stop flag.
struct Running {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<mrs_core::Result<()>>,
}

fn start(link: Arc<dyn MasterLink>, program: Arc<dyn Program>) -> Running {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let opts = SlaveOptions { slots: 1, ..SlaveOptions::default() };
        run_slave(&*link, program, DataPlane::Direct, &opts, &stop2)
    });
    Running { stop, handle }
}

/// One map over `splits` splits (function `map`) and its reduce, on
/// Relay's input.
fn map_then_reduce(job: &mut dyn JobApi, splits: usize, map: FuncId) -> Vec<Record> {
    let src = job.local_data(relay_input(), splits).unwrap();
    let mapped = job.map_data(src, map, 2, false).unwrap();
    let reduced = job.reduce_data(mapped, 0).unwrap();
    let mut out = job.fetch_all(reduced).unwrap();
    out.sort();
    out
}

/// A two-slave direct cluster, hand-built so the test holds each slave's
/// link and stop flag: the consumer `c` joins first and runs a warm-up
/// job alone, so it claims both tasks of every reduce of function 0; the
/// producer `p` runs `program`. Then, with `c` shut out of the master,
/// the job `map_then_reduce(splits)` is submitted from another thread
/// and `p` takes every map task, until one stops at the gate. Opened
/// again, `c` is idle with a claim to the reduce: it is granted both
/// reduce tasks ahead of the gated map's output, and its worker holds a
/// GET for that output at `p`. Returns the master, the consumer's and
/// the producer's threads and the job's driver.
fn a_consumer_holding_a_get_at_a_gated_producer(
    splits: usize,
    program: Arc<GatedRelay>,
) -> (Master, Running, Running, std::thread::JoinHandle<Vec<Record>>) {
    let cfg = MasterConfig { slave_timeout: Duration::from_millis(600), ..MasterConfig::default() };
    let master = Master::new(cfg, DataPlane::Direct).unwrap();
    let valve = Valve::new(&master);
    // No record has the key that would stop the consumer's map.
    let relay = GatedRelay { key: u64::MAX, gate: Gate::default() };
    let consumer = start(valve.clone(), Arc::new(relay));
    map_then_reduce(&mut master.clone(), 1, 1);
    valve.shut();
    let producer = start(Arc::new(master.clone()), program.clone());
    let mut driver = master.clone();
    let job = std::thread::spawn(move || map_then_reduce(&mut driver, splits, 0));
    program.gate.await_arrival();
    valve.open();
    while master.metrics().held_fetches() == 0 {
        std::thread::yield_now();
    }
    assert!(master.metrics().ahead_grants() >= 1);
    (master, consumer, producer, job)
}

fn serial_map_then_reduce(splits: usize) -> Vec<Record> {
    map_then_reduce(&mut SerialRuntime::new(Arc::new(Simple(Relay))), splits, 0)
}

/// (a) The producer's slave dies while a consumer on the other slave
/// holds a GET for the output it will now never write. The GET is
/// answered missing, the consumer is requeued without being charged, and
/// once the dead slave is declared dead its map tasks run again on the
/// consumer's slave: the answer equals serial.
#[test]
fn a_producers_death_under_a_held_get_requeues_the_consumer_and_equals_serial() {
    // 40 records in two splits: key 20 opens split 1.
    let program = Arc::new(GatedRelay { key: 20, gate: Gate::default() });
    let (master, consumer, producer, job) =
        a_consumer_holding_a_get_at_a_gated_producer(2, program.clone());
    producer.stop.store(true, Ordering::SeqCst);
    let got = job.join().unwrap();
    assert_eq!(got, serial_map_then_reduce(2), "rebuilt on the consumer's slave vs serial");
    let m = master.metrics();
    assert!(m.tasks_retried() >= 2, "the held consumer and the dead slave's maps: {m:?}");
    program.gate.open();
    producer.handle.join().unwrap().unwrap();
    master.finish();
    consumer.handle.join().unwrap().unwrap();
}

/// (b) A backup of the gated map wins its race while the consumer holds
/// a GET for the loser's output. The loser is cancelled, the GET is
/// answered missing, and the consumer, requeued uncharged, runs again on
/// the winner's committed URLs: the answer equals serial.
#[test]
fn a_backup_winning_under_a_held_get_of_the_losers_url_equals_serial() {
    // 40 records in four splits: key 30 opens split 3, the last map.
    let program = Arc::new(GatedRelay { key: 30, gate: Gate::default() });
    let (master, consumer, producer, job) =
        a_consumer_holding_a_get_at_a_gated_producer(4, program.clone());
    // A third slave, claiming nothing, backs the gated map up; its run of
    // it passes the gate.
    let backup = start(Arc::new(master.clone()), program.clone());
    let got = job.join().unwrap();
    assert_eq!(got, serial_map_then_reduce(4), "the winner's output vs serial");
    let m = master.metrics();
    // The warm-up's map and two reduces, the job's four maps and two
    // reduces: the loser and the held consumer's failed attempts commit
    // nothing.
    assert_eq!((m.speculative_wins(), m.tasks_executed()), (1, 3 + 6), "{m:?}");
    assert!(m.tasks_retried() >= 1, "the held consumer was requeued: {m:?}");
    program.gate.open();
    master.finish();
    for slave in [producer, consumer, backup] {
        slave.handle.join().unwrap().unwrap();
    }
}

/// Relay whose map fails its first call for a record keyed `key` under
/// function 0: the first run of that record's map task fails, every
/// later run passes.
struct FailsOnce {
    key: u64,
    failed: AtomicBool,
}

impl Program for FailsOnce {
    fn map_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> mrs_core::Result<()> {
        if func == 0
            && u64::from_bytes(key)? == self.key
            && !self.failed.swap(true, Ordering::SeqCst)
        {
            return Err(mrs_core::Error::TaskFailed("the first run fails".into()));
        }
        Simple(Relay).map_bytes(0, key, value, emit)
    }

    fn reduce_bytes(
        &self,
        _: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> mrs_core::Result<()> {
        Simple(Relay).reduce_bytes(0, key, values, emit)
    }
}

/// A one-slot slave, speculation off, that claims the reduce (a warm-up
/// job ran it) is granted the job's map and, ahead of it, a reduce: the
/// job is submitted whole while the slave's poll waits in a shut valve,
/// so its next poll is granted both, the reduce queued behind the map.
/// The map fails, and the master grants it again to the same slave,
/// queued behind the reduce. The reduce must not wait for that attempt,
/// which only its own worker could run: it fails on the missing input,
/// is requeued uncharged, and the job finishes equal to serial.
#[test]
fn a_producer_failing_under_its_ahead_consumer_on_a_one_slot_slave_equals_serial() {
    let cfg = MasterConfig { speculate: SpeculateMode::Off, ..MasterConfig::default() };
    let master = Master::new(cfg, DataPlane::Direct).unwrap();
    let valve = Valve::new(&master);
    let program = Arc::new(FailsOnce { key: 0, failed: AtomicBool::new(false) });
    let slave = start(valve.clone(), program.clone());
    map_then_reduce(&mut master.clone(), 1, 1);
    valve.shut();
    let mut driver = master.clone();
    let src = driver.local_data(relay_input(), 1).unwrap();
    let mapped = driver.map_data(src, 0, 2, false).unwrap();
    let reduced = driver.reduce_data(mapped, 0).unwrap();
    let ahead = master.metrics().ahead_grants();
    valve.open();
    let mut got = driver.fetch_all(reduced).unwrap();
    got.sort();
    assert_eq!(got, serial_map_then_reduce(1), "after the failure vs serial");
    assert!(program.failed.load(Ordering::SeqCst), "the map never failed");
    let m = master.metrics();
    assert!(m.ahead_grants() > ahead, "no reduce was granted ahead of the map: {m:?}");
    assert!(m.tasks_retried() >= 1, "the failed map ran again: {m:?}");
    master.finish();
    slave.handle.join().unwrap().unwrap();
}

/// A shared store whose first read of the last reduce task's output of a
/// `map_reduce` (dataset 2, task 2 of 3) is a well-formed frame holding
/// the first half of that bucket's bytes: a parse error in the middle of
/// a bucket, after the earlier buckets' records were parsed.
struct CutsOnce {
    inner: MemFs,
    cut: AtomicBool,
}

impl Store for CutsOnce {
    fn put(&self, path: &str, data: &[u8]) -> mrs_core::Result<()> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &str) -> mrs_core::Result<Vec<u8>> {
        let bytes = self.inner.get(path)?;
        if !path.contains("/d2/t2/") || self.cut.swap(true, Ordering::SeqCst) {
            return Ok(bytes);
        }
        let mut raw = mrs_codec::open_vec(bytes).expect("a stored frame").as_ref().to_vec();
        raw.truncate(raw.len() / 2);
        Ok(mrs_codec::encode_vec(raw, mrs_codec::CompressMode::Off))
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, prefix: &str) -> mrs_core::Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, path: &str) -> mrs_core::Result<()> {
        self.inner.delete(path)
    }
}

/// The driver's `fetch_all` fails to parse the answer once, part way
/// through, and tries again: the retry returns serial's answer, written
/// into the records the driver handed to `local_data` (its vector is the
/// answer's), and no part of the failed read survives into it.
#[test]
fn a_fetch_all_retried_after_a_parse_error_returns_serials_answer_from_the_stock() {
    let mut rng = mrs_rng::SplitMix64::new(3);
    let keys: Vec<u64> = (0..3_000).map(|_| rng.next_u64()).collect();
    let input = || mrs::apps::sort::keyed_records(&keys);
    let sample = mrs::apps::sort::RangeSort::sample(&input(), 128, 3);
    let program = Arc::new(Simple(mrs::apps::sort::RangeSort::plan(&sample, 3).unwrap()));
    let want = Job::new(&mut SerialRuntime::new(program.clone()))
        .map_reduce(input(), 4, 3, false)
        .unwrap();

    let store = Arc::new(CutsOnce { inner: MemFs::new(), cut: AtomicBool::new(false) });
    let plane = DataPlane::SharedFs(store.clone());
    let mut cluster = LocalCluster::start(program, 2, plane, quick_sweep_config()).unwrap();
    let input = input();
    let spine = input.as_ptr();
    let got = Job::new(&mut cluster).map_reduce(input, 4, 3, false).unwrap();
    assert!(store.cut.load(Ordering::SeqCst), "no read was cut");
    assert!(got == want, "the retried answer differs from serial's");
    assert_eq!(got.as_ptr(), spine, "the answer is not the driver's input vector");
    assert_eq!(cluster.stock_records(), 0, "the stock outlived its fetch");
}
