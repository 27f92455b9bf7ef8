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
//! Every job's output is checked against `SerialRuntime`'s on the same
//! input and task counts; a disagreement panics, naming the arm and the
//! slave count.
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

/// One arm's job: its program, input and task counts.
struct Arm {
    name: &'static str,
    program: Arc<dyn Program>,
    input: Vec<Record>,
    maps: usize,
    reduces: usize,
}

impl Arm {
    /// The job's output on `rt`.
    fn run(&self, rt: &mut dyn JobApi) -> Vec<Record> {
        let mut job = Job::new(rt);
        job.map_reduce(self.input.clone(), self.maps, self.reduces, false).expect(self.name)
    }

    /// What `SerialRuntime` makes of this arm: the oracle every cluster
    /// run must reproduce.
    fn serial(&self) -> Vec<Record> {
        self.run(&mut SerialRuntime::new(Arc::clone(&self.program)))
    }

    /// Seconds for the job on a fresh `n_slaves` cluster, whose output
    /// must equal `expected`.
    fn timed(&self, n_slaves: usize, expected: &[Record]) -> f64 {
        let mut cluster = LocalCluster::start(
            Arc::clone(&self.program),
            n_slaves,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .expect("cluster");
        let t0 = Instant::now();
        let out = self.run(&mut cluster);
        let secs = t0.elapsed().as_secs_f64();
        assert!(out == expected, "{}: {n_slaves} slave(s) disagree with SerialRuntime", self.name);
        secs
    }
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
    // 32 external evaluations of 50 ms each: 1.6 s of task time.
    let latency = Arm {
        name: "latency-bound",
        program: Arc::new(Simple(ExternalEval)),
        input: (0..32u64).map(|i| encode_record(&i, &i)).collect(),
        maps: 32,
        reduces: 4,
    };
    let wordcount = Arm {
        name: "tiny wordcount",
        program: Arc::new(Simple(WordCount)),
        input: lines_to_records(["a b c", "d e f"]),
        maps: 2,
        reduces: 2,
    };
    let (latency_serial, wordcount_serial) = (latency.serial(), wordcount.serial());
    let mut latency_base = None;
    for &n in &slave_counts {
        let latency_secs = latency.timed(n, &latency_serial);
        let base = *latency_base.get_or_insert(latency_secs);

        let pi = Arm {
            name: "pi",
            program: Arc::new(Simple(PiEstimator { kernel: Kernel::Native })),
            input: slabs(samples, (n * 4) as u64),
            maps: n * 4,
            reduces: 1,
        };
        let pi_secs = pi.timed(n, &pi.serial());

        let wc_secs = wordcount.timed(n, &wordcount_serial);

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
