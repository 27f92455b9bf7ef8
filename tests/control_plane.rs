//! The event-driven control plane must be a pure latency/RPC-count
//! feature: long-poll dispatch and piggybacked completions change *when*
//! control messages flow, never the answer. These tests pin the RPC
//! economics — an iteration's control traffic scales with the number of
//! slaves, not the number of tasks — and the one gate in front of the
//! wire: a slave speaking another protocol version is refused at signin.

use mrs::apps::wordcount::WordCount;
use mrs::prelude::*;
use mrs_pso::mapreduce::{PsoProgram, FUNC_PARTICLE};
use mrs_pso::{Objective, PsoConfig, Topology};
use mrs_rpc::rpc::RpcClient;
use mrs_rpc::Value;
use mrs_runtime::distributed::serve_master;
use mrs_runtime::master::SlaveId;
use mrs_runtime::metrics::JobMetrics;
use mrs_runtime::proto::{Dispatch, TaskReport, TraceBatch, PROTOCOL_VERSION};
use mrs_runtime::slave::{run_slave, MasterLink};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn pso_config() -> PsoConfig {
    PsoConfig {
        objective: Objective::Sphere,
        dim: 4,
        n_particles: 12,
        topology: Topology::Ring { k: 1 },
        seed: 11,
    }
}

/// Piggybacking makes completions free: the bulk of task reports must
/// ride on `get_task` polls instead of costing standalone RPCs, so the
/// per-iteration control traffic of an iterative tiny-task PSO job is
/// O(slaves), not O(tasks).
#[test]
fn piggybacking_bounds_control_rpcs_by_slaves_not_tasks() {
    let iters = 10;
    let parts = 6;
    let mut cluster = LocalCluster::start_with(
        Arc::new(PsoProgram::new(pso_config(), 1)),
        2,
        DataPlane::Direct,
        MasterConfig::default(),
        SlaveOptions { slots: 2, ..SlaveOptions::default() },
    )
    .unwrap();
    {
        let mut job = Job::new(&mut cluster);
        let program = PsoProgram::new(pso_config(), 1);
        let mut ds = job.local_data(program.initial_particles(), parts).unwrap();
        for _ in 0..iters {
            let m = job.map_data(ds, FUNC_PARTICLE, parts, false).unwrap();
            ds = job.reduce_data(m, FUNC_PARTICLE).unwrap();
        }
        job.fetch_all(ds).unwrap();
    }
    let rpcs = cluster.control_requests();
    let piggybacked = cluster.metrics().piggybacked_reports();
    let tasks = iters * (parts as u64 + 1); // per iteration: `parts` maps + 1 reduce batch
    assert!(cluster.metrics().longpoll_parks() > 0, "idle polls must park at the master");
    assert!(
        piggybacked >= tasks / 2,
        "most completions should ride polls: {piggybacked} piggybacked of {tasks} tasks"
    );
    // A slave that polled for every task and reported every completion
    // standalone would spend two control RPCs per task; batched grants
    // and piggybacked reports must undercut that floor.
    assert!(
        rpcs < 2 * tasks,
        "control RPCs must undercut two per task: {rpcs} RPCs for {tasks} tasks"
    );
}

/// Reports coalesce and announcements are silent: a fused round of four
/// tiny tasks on two one-slot slaves needs one poll per slave — both
/// reports out, both next tasks in — so a chain's control traffic is
/// bounded by two polls per slave per round, with room to spare for the
/// first round (no task has an owner yet, so slaves are told more is
/// runnable and report as they go) and the final reduce.
#[test]
fn fused_chain_costs_at_most_two_polls_per_slave_per_round() {
    let cfg = PsoConfig { topology: Topology::Subswarms { size: 3 }, ..pso_config() };
    let program = PsoProgram::new(cfg.clone(), 1);
    assert_eq!(program.n_islands(), 4, "four tasks per round");
    let (rounds, slaves) = (10, 2);
    let mut cluster = LocalCluster::start_with(
        Arc::new(PsoProgram::new(cfg, 1)),
        slaves,
        DataPlane::Direct,
        MasterConfig::default(),
        SlaveOptions { slots: 1, ..SlaveOptions::default() },
    )
    .unwrap();
    while cluster.live_slaves() < slaves {
        std::thread::yield_now();
    }
    let before = cluster.control_requests();
    program.run_islands(&mut Job::new(&mut cluster), rounds, true).unwrap();
    let polls = cluster.control_requests() - before;
    let metrics = cluster.metrics();
    assert_eq!(metrics.tasks_executed(), 4 * (rounds + 1), "map, nine fused rounds, reduce");
    assert!(
        polls <= 2 * slaves as u64 * rounds + 8,
        "{polls} control RPCs for {rounds} rounds on {slaves} slaves"
    );
}

/// An idle cluster under long-poll parks instead of burning empty polls:
/// with no work queued, a waiting slave's requests are held server-side.
#[test]
fn idle_slaves_park_instead_of_polling() {
    let cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        1,
        DataPlane::Direct,
        MasterConfig::default(),
    )
    .unwrap();
    // Give the slave time to sign in, drain its first Wait, and park.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while cluster.metrics().longpoll_parks() == 0 {
        assert!(std::time::Instant::now() < deadline, "slave never parked on an idle master");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let parks_settled = cluster.metrics().longpoll_parks();
    let rpcs_settled = cluster.control_requests();
    // While parked, a long-poll request spans the whole wait: RPC volume
    // over the next stretch stays far below what 2 ms poll loops would
    // produce (a parked request is at most ~2 per park window).
    std::thread::sleep(std::time::Duration::from_millis(300));
    let new_rpcs = cluster.control_requests() - rpcs_settled;
    assert!(
        new_rpcs <= 20,
        "an idle long-poll slave must not busy-poll: {new_rpcs} RPCs in 300ms \
         (parks at settle: {parks_settled})"
    );
}

/// A slave as another build would sign in: over real XML-RPC, naming
/// `version` (or no version at all) as `signin`'s third parameter.
struct OtherBuild {
    client: RpcClient,
    version: Option<i64>,
}

impl MasterLink for OtherBuild {
    fn signin(&self, authority: &str, slots: usize) -> Result<SlaveId> {
        let mut params = vec![Value::Str(authority.to_owned()), Value::Int(slots as i64)];
        params.extend(self.version.map(Value::Int));
        let id = self.client.call("signin", &params)?;
        Ok(id.as_int().expect("slave id") as SlaveId)
    }
    fn poll(
        &self,
        _: SlaveId,
        _: usize,
        _: Duration,
        _: Vec<TaskReport>,
        _: JobMetrics,
        _: TraceBatch,
    ) -> Result<(Dispatch, bool)> {
        panic!("a refused slave must never poll")
    }
    fn task_failed(
        &self,
        _: SlaveId,
        _: u32,
        _: usize,
        _: u32,
        _: &str,
        _: Option<&str>,
    ) -> Result<()> {
        panic!("a refused slave must never report")
    }
}

/// `signin` without a protocol version, or with another build's, is an
/// XML-RPC fault naming both versions, and registers nobody.
#[test]
fn signin_with_a_missing_or_different_protocol_version_is_a_fault() {
    let master = Master::new(MasterConfig::default(), DataPlane::Direct).unwrap();
    let server = serve_master(master.clone(), 0).unwrap();
    // No version, the next one, and the last five: a version-7 slave
    // reports a URL per output and a tally of named ints, which this wire
    // reads as neither, a version-5 slave cannot parse the `empty:`
    // location of an output with no records, a version-4 slave flushes
    // its last reports with `task_done`, which this wire no longer has, a
    // version-3 slave sends no counts (its shuffle counts would be visible
    // nowhere), and version 2's answers had no `more` key.
    assert_eq!(PROTOCOL_VERSION, 8);
    for version in [None, Some(PROTOCOL_VERSION + 1), Some(7), Some(5), Some(4), Some(3), Some(2)] {
        let link = OtherBuild { client: RpcClient::new(server.authority()), version };
        let err = link.signin("127.0.0.1:1", 2).unwrap_err().to_string();
        let theirs = version.map_or("none".to_owned(), |v| v.to_string());
        assert!(err.contains("fault 4"), "{err}");
        assert!(
            err.contains(&format!("version {theirs},"))
                && err.contains(&format!("speaks {PROTOCOL_VERSION};")),
            "the fault must name both versions: {err}"
        );
        assert_eq!(master.live_slaves(), 0, "a refused slave was registered");
    }
    // The same call with this build's version is a sign-in.
    let version = Some(PROTOCOL_VERSION);
    let link = OtherBuild { client: RpcClient::new(server.authority()), version };
    assert_eq!(link.signin("127.0.0.1:1", 2).unwrap(), 0);
    assert_eq!(master.live_slaves(), 1);
}

/// A slave the master refuses ends with an error after that one round
/// trip — not the silent `Ok(())` of a slave whose master went away.
#[test]
fn slave_refused_at_signin_is_a_hard_error_not_a_retry() {
    let master = Master::new(MasterConfig::default(), DataPlane::Direct).unwrap();
    let server = serve_master(master.clone(), 0).unwrap();
    for version in [None, Some(PROTOCOL_VERSION + 1)] {
        let before = server.request_count();
        let link = OtherBuild { client: RpcClient::new(server.authority()), version };
        let result = run_slave(
            &link,
            Arc::new(Simple(WordCount)),
            DataPlane::Direct,
            &SlaveOptions::default(),
            &AtomicBool::new(false),
        );
        let err = result.expect_err("a refused slave must not exit cleanly").to_string();
        assert!(err.contains("protocol version"), "{err}");
        assert_eq!(server.request_count() - before, 1, "exactly one round trip");
        assert_eq!(master.live_slaves(), 0);
    }
}

/// Behind the version gate every positional parameter is required: a
/// short `get_task`, a `signin` without slots and one with none to offer
/// are all fault 3 (malformed call).
#[test]
fn calls_with_missing_parameters_are_fault_3() {
    let master = Master::new(MasterConfig::default(), DataPlane::Direct).unwrap();
    let server = serve_master(master.clone(), 0).unwrap();
    let client = RpcClient::new(server.authority());
    let version = Value::Int(PROTOCOL_VERSION);
    let slave = client
        .call("signin", &[Value::Str("127.0.0.1:1".into()), Value::Int(1), version.clone()])
        .unwrap();
    let counts = Value::Bytes(vec![]);
    let full = [slave, Value::Int(1), Value::Int(0), Value::Array(vec![]), counts];
    assert!(client.call("get_task", &full).is_ok());
    for given in 0..full.len() {
        let err = client.call("get_task", &full[..given]).unwrap_err().to_string();
        assert!(err.contains("fault 3"), "{given} parameters: {err}");
    }
    let authority = Value::Str("127.0.0.1:2".into());
    for slots in [vec![], vec![Value::Int(0), version.clone()], vec![Value::Int(-3), version]] {
        let params: Vec<Value> = std::iter::once(authority.clone()).chain(slots).collect();
        let err = client.call("signin", &params).unwrap_err().to_string();
        assert!(err.contains("fault 3"), "{params:?}: {err}");
    }
    assert_eq!(master.live_slaves(), 1, "only the well-formed signin registered");
}

/// A completion rides `get_task`: `task_done` is no method of this wire,
/// whatever its parameters.
#[test]
fn task_done_is_an_unknown_method() {
    let master = Master::new(MasterConfig::default(), DataPlane::Direct).unwrap();
    let server = serve_master(master.clone(), 0).unwrap();
    let client = RpcClient::new(server.authority());
    let version = Value::Int(PROTOCOL_VERSION);
    let slave =
        client.call("signin", &[Value::Str("127.0.0.1:1".into()), Value::Int(1), version]).unwrap();
    // A version-4 report: slave, data, index, urls, attempt.
    let urls = Value::Array(vec![Value::Str("http://127.0.0.1:1/data/s0/d1/t0/b0.mrsb".into())]);
    let report = [slave, Value::Int(1), Value::Int(0), urls, Value::Int(1)];
    let err = client.call("task_done", &report).unwrap_err().to_string();
    assert!(err.contains("fault 2") && err.contains("unknown method"), "{err}");
    assert_eq!(master.metrics().tasks_executed(), 0);
}

/// A slave's counter tally is decoded strictly: a code no counter has, a
/// code not above the one before it, a zero, a value cut short or a tally
/// that is not a blob makes the whole `get_task` a malformed call (fault
/// 3) — and nothing of it is counted.
#[test]
fn get_task_with_malformed_counts_is_fault_3() {
    let master = Master::new(MasterConfig::default(), DataPlane::Direct).unwrap();
    let server = serve_master(master.clone(), 0).unwrap();
    let client = RpcClient::new(server.authority());
    let version = Value::Int(PROTOCOL_VERSION);
    let slave =
        client.call("signin", &[Value::Str("127.0.0.1:1".into()), Value::Int(1), version]).unwrap();
    let poll = |counts: Value| {
        let params = [slave.clone(), Value::Int(1), Value::Int(0), Value::Array(vec![]), counts];
        client.call("get_task", &params)
    };
    // A counter's code is its place in the table: the order `/metrics`
    // prints its samples in.
    let code = |sample: &str| {
        let page = JobMetrics::default().to_prometheus();
        page.lines().position(|l| l.split(' ').next() == Some(sample)).unwrap() as u8
    };
    let (runs, wire) = (code("mrs_merge_runs_total"), code("mrs_bytes_on_wire_total"));
    assert!(wire < runs, "the table lists bytes on the wire first");
    assert!(poll(Value::Bytes(vec![runs, 3])).is_ok());
    assert_eq!(master.metrics().merge_runs(), 3, "a well-formed tally is merged");
    let unknown = JobMetrics::default().to_prometheus().lines().count() as u8;
    for (bad, named) in [
        (vec![wire, 1, unknown, 1], format!("code {unknown}")),
        (vec![runs, 1, wire, 7], "bytes_on_wire".to_owned()),
        (vec![wire, 7, wire, 7], "bytes_on_wire".to_owned()),
        (vec![runs, 1, wire, 0], "bytes_on_wire".to_owned()),
        (vec![runs, 1, wire, 0x87], "bytes_on_wire".to_owned()),
    ] {
        let err = poll(Value::Bytes(bad.clone())).unwrap_err().to_string();
        assert!(err.contains("fault 3") && err.contains(&named), "{bad:?}: {err}");
    }
    let m = master.metrics();
    assert_eq!((m.merge_runs(), m.bytes_on_wire()), (3, 0), "a refused tally counted");
    for not_a_blob in [Value::Int(0), Value::Struct(BTreeMap::new())] {
        let err = poll(not_a_blob).unwrap_err().to_string();
        assert!(err.contains("fault 3"), "counts must be a blob: {err}");
    }
}
