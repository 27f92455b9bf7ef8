//! **Control latency** — the event-driven control plane experiment: a
//! tiny-task iterative PSO job (the paper's hardest regime — per-iteration
//! barriers, sub-millisecond tasks) driven once under the legacy
//! sleep-and-poll plane and once under long-poll dispatch with piggybacked
//! completions. Reports per-iteration round latency and total control-RPC
//! count per mode, and verifies the two planes produce byte-identical
//! output (the implementations-agree discipline applied to the control
//! plane).
//!
//! ```text
//! cargo run --release -p mrs-bench --bin control_latency \
//!     [--iters 50] [--parts 4] [--slaves 2] [--slots 2]
//! ```
//!
//! Writes `results/BENCH_control.json`. Latency numbers on a 1-core host
//! still separate the modes cleanly: the gap measured here is scheduler
//! *wait* time (poll backoff vs condvar wake), not compute parallelism, so
//! it does not need spare cores to show — but absolute per-iteration times
//! on loaded or single-core hosts carry scheduling noise; read medians,
//! not tails.

use mrs::prelude::*;
use mrs_bench::{Args, Report, Table};
use mrs_core::Record;
use mrs_pso::mapreduce::{PsoProgram, FUNC_PARTICLE};
use mrs_pso::{Objective, PsoConfig, Topology};
use std::sync::Arc;
use std::time::Instant;

fn pso_config() -> PsoConfig {
    PsoConfig {
        objective: Objective::Sphere,
        dim: 4,
        n_particles: 16,
        topology: Topology::Ring { k: 1 },
        seed: 404,
    }
}

struct ModeRun {
    iter_secs: Vec<f64>,
    total_secs: f64,
    rpcs: u64,
    parks: u64,
    timeouts: u64,
    piggybacked: u64,
    wakeups: u64,
    output: Vec<Record>,
}

/// Drive `iters` map+reduce rounds with a per-iteration barrier (the
/// driver waits on each reduce, so one sample = one full control round
/// trip through dispatch, execution, and completion).
fn run_mode(
    control: ControlMode,
    iters: u64,
    parts: usize,
    slaves: usize,
    slots: usize,
) -> ModeRun {
    let cfg = MasterConfig { control, ..MasterConfig::default() };
    let mut cluster = LocalCluster::start_with(
        Arc::new(PsoProgram::new(pso_config(), 1)),
        slaves,
        DataPlane::Direct,
        cfg,
        SlaveOptions { slots, ..SlaveOptions::default() },
    )
    .expect("cluster");

    let (iter_secs, total_secs, mut output) = {
        let mut job = Job::new(&mut cluster);
        let program = PsoProgram::new(pso_config(), 1);
        let t0 = Instant::now();
        let mut ds = job.local_data(program.initial_particles(), parts).expect("scatter");
        let mut iter_secs = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let it0 = Instant::now();
            let m = job.map_data(ds, FUNC_PARTICLE, parts, false).expect("map");
            let r = job.reduce_data(m, FUNC_PARTICLE).expect("reduce");
            job.wait(r).expect("barrier");
            job.discard(m);
            ds = r;
            iter_secs.push(it0.elapsed().as_secs_f64());
        }
        let output = job.fetch_all(ds).expect("fetch");
        (iter_secs, t0.elapsed().as_secs_f64(), output)
    };
    output.sort();

    let rpcs = cluster.control_requests();
    let m = cluster.metrics();
    ModeRun {
        iter_secs,
        total_secs,
        rpcs,
        parks: m.longpoll_parks(),
        timeouts: m.longpoll_timeouts(),
        piggybacked: m.piggybacked_reports(),
        wakeups: m.wakeups(),
        output,
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn json_f64s(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let args = Args::parse();
    let iters: u64 = args.flag("iters", 50);
    let parts: usize = args.flag("parts", 4);
    let slaves: usize = args.flag("slaves", 2);
    let slots: usize = args.flag("slots", 2);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "Control latency: tiny-task PSO, {iters} iterations, {parts} partitions, \
         {slaves} slave(s) x {slots} slot(s), {cores} core(s)\n"
    );

    let long = run_mode(ControlMode::LongPoll, iters, parts, slaves, slots);
    let poll = run_mode(ControlMode::Poll, iters, parts, slaves, slots);

    // Implementations-agree across control planes, byte for byte.
    assert_eq!(long.output, poll.output, "control mode changed the answer");
    // The event-driven machinery must actually have engaged.
    assert!(long.parks > 0, "long-poll run never parked a request");
    assert!(long.piggybacked > 0, "long-poll run never piggybacked a report");
    assert_eq!(poll.parks, 0, "poll mode must never park");

    let mut table = Table::new(["mode", "iter_median_ms", "iter_mean_ms", "total_s", "rpcs"]);
    for (name, run) in [("longpoll", &long), ("poll", &poll)] {
        table.row([
            name.to_string(),
            format!("{:.3}", median(&run.iter_secs) * 1e3),
            format!("{:.3}", mean(&run.iter_secs) * 1e3),
            format!("{:.3}", run.total_secs),
            run.rpcs.to_string(),
        ]);
    }
    table.emit("control_latency");
    println!(
        "\nlongpoll counters: parks={} timeouts={} piggybacked={} wakeups={}",
        long.parks, long.timeouts, long.piggybacked, long.wakeups
    );

    // The headline claims: fewer control RPCs and lower per-iteration
    // latency than the sleep-and-poll plane.
    assert!(
        long.rpcs < poll.rpcs,
        "event-driven plane must reduce control RPCs: longpoll={} poll={}",
        long.rpcs,
        poll.rpcs
    );
    assert!(
        median(&long.iter_secs) < median(&poll.iter_secs),
        "event-driven plane must reduce per-iteration latency: longpoll={:.3}ms poll={:.3}ms",
        median(&long.iter_secs) * 1e3,
        median(&poll.iter_secs) * 1e3
    );

    Report::new("control_latency")
        .int("cores", cores as u64)
        .int("iters", iters)
        .int("parts", parts as u64)
        .int("slaves", slaves as u64)
        .int("slots", slots as u64)
        .raw("longpoll_iter_secs", &json_f64s(&long.iter_secs))
        .raw("poll_iter_secs", &json_f64s(&poll.iter_secs))
        .secs("longpoll_iter_median_secs", median(&long.iter_secs))
        .secs("poll_iter_median_secs", median(&poll.iter_secs))
        .secs("longpoll_total_secs", long.total_secs)
        .secs("poll_total_secs", poll.total_secs)
        .int("longpoll_rpcs", long.rpcs)
        .int("poll_rpcs", poll.rpcs)
        .int("longpoll_parks", long.parks)
        .int("longpoll_timeouts", long.timeouts)
        .int("piggybacked_reports", long.piggybacked)
        .int("wakeups", long.wakeups)
        .bool("outputs_identical", true)
        .write("control", "outputs verified identical across control modes.");
}
