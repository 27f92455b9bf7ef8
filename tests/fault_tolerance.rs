//! Fault-tolerance behaviour of the master/slave implementation: slave
//! crashes, storage hiccups, and poisoned tasks.

use mrs::apps::wordcount::{decode_counts, lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_fs::MemFs;
use mrs_runtime::LocalCluster;
use std::sync::Arc;
use std::time::Duration;

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

/// Producer death mid-overlap: slaves eagerly fetch map-output fragments
/// while the map phase is still running; then a slave that produced some
/// of those outputs dies. The master re-executes its map tasks on a
/// surviving slave, whose outputs get fresh URLs (a new `s{slave}/`
/// prefix) — so the warm fragments keyed by the dead slave's URLs are
/// simply never consumed, and the residual fetch at reduce time pulls the
/// re-executed outputs. The answer must be exact in every interleaving:
/// the kill may land mid-map, mid-reduce, or after completion depending
/// on build and scheduling, so keep-data stays on to make recovery
/// possible from any of them (the eager-invalidation path under test
/// needs the mid-flight interleavings, which the short sleep makes the
/// common case).
#[test]
fn producer_death_mid_overlap_invalidates_eager_fragments() {
    let cfg = MasterConfig { keep_data: true, ..quick_sweep_config() };
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), 3, DataPlane::Direct, cfg).unwrap();
    let reduced = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(big_input(), 24).unwrap();
        // No combiner: every map output record crosses the shuffle, so
        // eager fetches move real data before the kill lands.
        let mapped = job.map_data(src, 0, 8, false).unwrap();
        job.reduce_data(mapped, 0).unwrap()
    };
    // Let some maps finish and their fragments get eagerly fetched, then
    // kill a slave that (very likely) produced some of them.
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
    assert!(
        m.eager_fragments() > 0,
        "eager shuffle should have moved fragments before the barrier"
    );
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
    let cfg = MasterConfig { keep_data: true, ..quick_sweep_config() };
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), 0, DataPlane::Direct, cfg).unwrap();
    // Dataset ids are deterministic per job: source = 0, map = 1. The
    // first attempt of map task (1, 0) sleeps 400ms on whichever slave
    // draws it, so the backup attempt on the other slave commits first.
    let straggly = SlaveOptions { slots: 2, test_delays: vec![(1, 0, 400)], ..Default::default() };
    cluster.add_slave_with(straggly.clone());
    cluster.add_slave_with(straggly);

    let reduced = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(big_input(), 8).unwrap();
        let mapped = job.map_data(src, 0, 4, false).unwrap();
        job.reduce_data(mapped, 0).unwrap()
    };
    // Wait for the backup's completion to be committed.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster.metrics().speculative_wins() == 0 {
        assert!(std::time::Instant::now() < deadline, "speculative backup never won");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The winner is one of the two original slaves; kill them both, with
    // a replacement arriving first so the job is never slave-less.
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
    let cfg = MasterConfig { max_attempts: 2, ..MasterConfig::default() };
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), 2, DataPlane::Direct, cfg).unwrap();
    let mut job = Job::new(&mut cluster);
    let src = job.local_data(vec![(vec![1, 2], vec![3])], 1).unwrap();
    let mapped = job.map_data(src, 0, 1, false).unwrap();
    let err = job.wait(mapped).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("failed"), "{msg}");
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
