//! Fault-tolerance behaviour of the master/slave implementation: slave
//! crashes, storage hiccups, and poisoned tasks — on the default config,
//! where lifetime GC reclaims every intermediate its readers are done
//! with, so recovery rebuilds what it needs from lineage.

use mrs::apps::wordcount::{decode_counts, lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_fs::{MemFs, Store};
use mrs_runtime::LocalCluster;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    // Map task 0 reads lines 0..75; its first run takes 75 x 6 ms.
    let straggler = common::Straggler::new(75, Duration::from_millis(6));
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
    let left = store.inner.list("").unwrap();
    let kept = |path: &String| path.starts_with("src0/") || path.contains("/d4/");
    assert!(left.iter().all(kept), "only the source and the answer remain: {left:?}");
}
