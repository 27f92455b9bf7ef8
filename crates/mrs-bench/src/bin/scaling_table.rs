//! **Scaling** — how the Mrs master/slave implementation scales with
//! slave count, the dimension the paper's 21-machine private cluster
//! provides implicitly. Three columns:
//!
//! * latency-bound: map tasks that *wait* a fixed 50 ms (an expensive
//!   external objective — instrument, simulation service, disk). This
//!   isolates the **scheduler's** scaling and works on any host.
//! * compute-bound: the π estimator. On a multi-core host this scales
//!   toward the core count; on a single-core host it is flat — the
//!   hardware ceiling, which the binary reports.
//! * overhead-bound: tiny WordCount — never scales (it measures the
//!   framework floor), the contrast the paper draws for iterative jobs.
//!
//! ```text
//! cargo run --release -p mrs-bench --bin scaling_table [--samples 4000000]
//! ```

use mrs::apps::pi::{slabs, Kernel, PiEstimator};
use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_bench::{Args, Table};
use mrs_core::kv::encode_record;
use mrs_core::MapReduce;
use mrs_runtime::LocalCluster;
use std::sync::Arc;
use std::time::Instant;

/// A map task standing in for an expensive external objective: it waits,
/// it does not compute.
struct ExternalEval;

impl MapReduce for ExternalEval {
    type K1 = u64;
    type V1 = u64;
    type K2 = u64;
    type V2 = u64;

    fn map(&self, k: u64, v: u64, emit: &mut dyn FnMut(u64, u64)) {
        std::thread::sleep(std::time::Duration::from_millis(50));
        emit(k % 4, v);
    }

    fn reduce(&self, _k: u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
        emit(vs.sum());
    }
}

fn timed<P: mrs_core::Program>(
    program: P,
    n_slaves: usize,
    input: Vec<mrs_core::Record>,
    maps: usize,
    reduces: usize,
) -> f64 {
    let mut cluster = LocalCluster::start(
        Arc::new(program),
        n_slaves,
        DataPlane::Direct,
        MasterConfig::default(),
    )
    .expect("cluster");
    let mut job = Job::new(&mut cluster);
    let t0 = Instant::now();
    job.map_reduce(input, maps, reduces, false).expect("job");
    t0.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::parse();
    let samples: u64 = args.flag("samples", 4_000_000);
    let slave_counts = [1usize, 2, 4, 8];
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!("Scaling with slave count (real RPC cluster on localhost, {cores} core(s))\n");
    let mut table = Table::new([
        "slaves",
        "latency_bound_s",
        "latency_speedup",
        "pi_compute_s",
        "wordcount_tiny_s",
    ]);
    let mut latency_base = None;
    for &n in &slave_counts {
        // 32 external evaluations of 50 ms each: 1.6 s of task time.
        let latency_secs = {
            let input: Vec<mrs_core::Record> = (0..32u64).map(|i| encode_record(&i, &i)).collect();
            timed(Simple(ExternalEval), n, input, 32, 4)
        };
        let base = *latency_base.get_or_insert(latency_secs);

        let tasks = (n * 4) as u64;
        let pi_secs = timed(
            Simple(PiEstimator { kernel: Kernel::Native }),
            n,
            slabs(samples, tasks),
            tasks as usize,
            1,
        );

        let wc_secs = timed(Simple(WordCount), n, lines_to_records(["a b c", "d e f"]), 2, 2);

        table.row([
            n.to_string(),
            format!("{latency_secs:.3}"),
            format!("{:.2}", base / latency_secs),
            format!("{pi_secs:.3}"),
            format!("{wc_secs:.4}"),
        ]);
    }
    table.emit("scaling_table");
    println!(
        "\nshape: the latency-bound column scales near-linearly with slaves (the scheduler\n\
         imposes no serialization); the compute column scales only up to the host's {cores}\n\
         core(s); the tiny job is flat — adding machines cannot buy back per-operation\n\
         overhead, which is why the paper attacks the overhead itself."
    );
}
