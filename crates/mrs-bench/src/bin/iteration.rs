//! **Iteration** — the fused-ReduceMap experiment: an iterative PSO job
//! (Rosenbrock, subswarm islands — the paper's Fig. 4 workload at smoke
//! scale) driven once as the classic map/reduce chain and once with every
//! interior round fused into a single ReduceMap op. Fusion halves the
//! scheduling rounds and skips the materialized reduce output, so the
//! per-iteration framework overhead — the quantity the paper's serial-phase
//! analysis bounds — drops; dataset lifetime GC keeps the live-dataset
//! footprint O(1) in the iteration count either way. Verifies byte-identical
//! output across fusion modes and across planes (cluster vs pool vs serial).
//!
//! ```text
//! cargo run --release -p mrs-bench --bin iteration \
//!     [--iters 50] [--particles 20] [--slaves 2] [--slots 2]
//! ```
//!
//! Writes `results/BENCH_iteration.json`. The headline ratio is
//! per-iteration wall time unfused vs fused on the RPC cluster; with tiny
//! tasks the gap is control-plane rounds, not compute, so it shows on a
//! 1-core host too.

use mrs::prelude::*;
use mrs_bench::{Args, Report, Table};
use mrs_core::Record;
use mrs_pso::mapreduce::PsoProgram;
use mrs_pso::PsoConfig;
use mrs_runtime::{LocalRuntime, SerialRuntime};
use std::sync::Arc;
use std::time::Instant;

fn pso_config(particles: u64) -> PsoConfig {
    PsoConfig::rosenbrock_250(particles, 404)
}

struct ClusterRun {
    total_secs: f64,
    rpcs: u64,
    tasks: u64,
    fused_ops: u64,
    reducemap_tasks: u64,
    datasets_freed: u64,
    peak_live: u64,
    output: Vec<Record>,
}

/// Drive `iters` island iterations on a fresh RPC cluster, fused or not.
fn run_cluster(fused: bool, iters: u64, particles: u64, slaves: usize, slots: usize) -> ClusterRun {
    let mut cluster = LocalCluster::start_with(
        Arc::new(PsoProgram::new(pso_config(particles), 1)),
        slaves,
        DataPlane::Direct,
        MasterConfig::default(),
        SlaveOptions { slots, ..SlaveOptions::default() },
    )
    .expect("cluster");
    let (total_secs, output) = {
        let mut job = Job::new(&mut cluster);
        let program = PsoProgram::new(pso_config(particles), 1);
        let t0 = Instant::now();
        let output = program.run_islands(&mut job, iters, fused).expect("run");
        (t0.elapsed().as_secs_f64(), output)
    };
    let rpcs = cluster.control_requests();
    let m = cluster.metrics();
    ClusterRun {
        total_secs,
        rpcs,
        tasks: m.tasks_executed(),
        fused_ops: m.fused_ops(),
        reducemap_tasks: m.reducemap_tasks(),
        datasets_freed: m.datasets_freed(),
        peak_live: m.peak_live_datasets(),
        output,
    }
}

fn main() {
    let args = Args::parse();
    let iters: u64 = args.flag("iters", 50);
    let particles: u64 = args.flag("particles", 20);
    let slaves: usize = args.flag("slaves", 2);
    let slots: usize = args.flag("slots", 2);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let islands = pso_config(particles).topology.islands(particles);

    println!(
        "Iteration rounds: Rosenbrock-250 PSO, {particles} particles in {islands} islands, \
         {iters} iterations, {slaves} slave(s) x {slots} slot(s), {cores} core(s)\n"
    );

    let unfused = run_cluster(false, iters, particles, slaves, slots);
    let fused = run_cluster(true, iters, particles, slaves, slots);

    // Byte-identity: fusion must be a pure perf transform, and the other
    // planes must agree with the cluster.
    assert_eq!(fused.output, unfused.output, "fusion changed the answer");
    let pool_fused = {
        let mut rt = LocalRuntime::pool(Arc::new(PsoProgram::new(pso_config(particles), 1)), 4);
        let program = PsoProgram::new(pso_config(particles), 1);
        program.run_islands(&mut Job::new(&mut rt), iters, true).expect("pool run")
    };
    assert_eq!(pool_fused, fused.output, "pool plane disagreed with the cluster");
    let serial_unfused = {
        let mut rt = SerialRuntime::new(Arc::new(PsoProgram::new(pso_config(particles), 1)));
        let program = PsoProgram::new(pso_config(particles), 1);
        program.run_islands(&mut Job::new(&mut rt), iters, false).expect("serial run")
    };
    assert_eq!(serial_unfused, fused.output, "serial plane disagreed with the cluster");

    // The fusion and GC machinery must actually have engaged.
    assert_eq!(fused.fused_ops, iters - 1, "every interior round should fuse");
    assert_eq!(fused.reducemap_tasks, (iters - 1) * islands, "one fused task per partition");
    assert_eq!(unfused.fused_ops, 0, "unfused run must not fuse");
    assert!(fused.datasets_freed > 0, "lifetime GC never freed a dataset (fused)");
    assert!(unfused.datasets_freed > 0, "lifetime GC never freed a dataset (unfused)");
    // GC bounds the footprint: peak live datasets is a small constant,
    // independent of the iteration count.
    assert!(fused.peak_live <= 4, "fused peak live datasets {} not O(1)", fused.peak_live);
    assert!(unfused.peak_live <= 5, "unfused peak live datasets {} not O(1)", unfused.peak_live);
    // One fewer scheduling round and materialized dataset per interior
    // iteration: exactly `islands` fewer tasks per fused round.
    assert_eq!(
        unfused.tasks - fused.tasks,
        (iters - 1) * islands,
        "fusion should eliminate one task per partition per interior round"
    );
    assert!(
        fused.rpcs < unfused.rpcs,
        "fusion must reduce control RPCs: fused={} unfused={}",
        fused.rpcs,
        unfused.rpcs
    );

    let mut table = Table::new(["mode", "iter_ms", "total_s", "rpcs", "tasks", "peak_live"]);
    for (name, run) in [("unfused", &unfused), ("fused", &fused)] {
        table.row([
            name.to_string(),
            format!("{:.3}", run.total_secs * 1e3 / iters as f64),
            format!("{:.3}", run.total_secs),
            run.rpcs.to_string(),
            run.tasks.to_string(),
            run.peak_live.to_string(),
        ]);
    }
    table.emit("iteration");

    let speedup = unfused.total_secs / fused.total_secs;
    println!(
        "\nfused counters: fused_ops={} reducemap_tasks={} datasets_freed={} peak_live={}",
        fused.fused_ops, fused.reducemap_tasks, fused.datasets_freed, fused.peak_live
    );
    // Reported, not asserted: the counts above are the stable part.
    println!("per-iteration speedup from fusion: {speedup:.2}x");

    Report::new("iteration")
        .int("cores", cores as u64)
        .int("iters", iters)
        .int("particles", particles)
        .int("islands", islands)
        .int("slaves", slaves as u64)
        .int("slots", slots as u64)
        .secs("unfused_total_secs", unfused.total_secs)
        .secs("fused_total_secs", fused.total_secs)
        .secs("unfused_iter_secs", unfused.total_secs / iters as f64)
        .secs("fused_iter_secs", fused.total_secs / iters as f64)
        .float("speedup", speedup, 3)
        .int("unfused_rpcs", unfused.rpcs)
        .int("fused_rpcs", fused.rpcs)
        .int("unfused_tasks", unfused.tasks)
        .int("fused_tasks", fused.tasks)
        .int("fused_ops", fused.fused_ops)
        .int("reducemap_tasks", fused.reducemap_tasks)
        .int("unfused_datasets_freed", unfused.datasets_freed)
        .int("fused_datasets_freed", fused.datasets_freed)
        .int("unfused_peak_live_datasets", unfused.peak_live)
        .int("fused_peak_live_datasets", fused.peak_live)
        .bool("outputs_identical", true)
        .write("iteration", "outputs verified identical across fusion modes and planes.");
}
