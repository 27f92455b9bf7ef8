//! **Slot scaling** — throughput of one slave as its task-slot count
//! grows, the capacity-aware-scheduling experiment. Two workloads:
//!
//! * Zipf WordCount — data-parallel, compute-bound in the map stage
//!   (tokenize + hash); scales with slots up to the host's core count.
//! * PSO — iterative (10 outer iterations by default); per-iteration
//!   barriers and tiny tasks expose scheduling overhead, the regime the
//!   paper's iterative jobs live in.
//!
//! The bench also *checks* the scaling is sound: each configuration's
//! output must be byte-identical to the 1-slot baseline (the
//! implementations-agree discipline applied to the worker pool).
//!
//! ```text
//! cargo run --release -p mrs-bench --bin slot_scaling \
//!     [--words 120000] [--pso-iters 10]
//! ```
//!
//! Writes `results/BENCH_slots.json`. On a single-core host the speedup
//! columns are flat (~1x); the JSON records `cores` so readers can tell
//! the hardware ceiling from a scheduler regression.

use corpus::{Corpus, CorpusConfig};
use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_bench::{Args, Report, Table};
use mrs_core::Record;
use mrs_pso::mapreduce::{PsoProgram, FUNC_PARTICLE};
use mrs_pso::{Objective, PsoConfig, Topology};
use std::sync::Arc;
use std::time::Instant;

const SLOT_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WC_MAPS: usize = 16;
const WC_REDUCES: usize = 8;
const PSO_PARTS: usize = 8;

fn cluster_with_slots(program: Arc<dyn Program>, slots: usize) -> LocalCluster {
    LocalCluster::start_with(
        program,
        1,
        DataPlane::Direct,
        MasterConfig::default(),
        SlaveOptions { slots, ..SlaveOptions::default() },
    )
    .expect("cluster")
}

fn sorted(mut records: Vec<Record>) -> Vec<Record> {
    records.sort();
    records
}

/// Zipf text totalling roughly `words` tokens, as input records.
fn zipf_input(words: u64) -> Vec<Record> {
    let config = CorpusConfig {
        n_files: 16,
        seed: 7,
        mean_tokens: (words / 16).max(1),
        ..CorpusConfig::default()
    };
    let corpus = Corpus::new(config);
    let docs: Vec<String> = (0..16).map(|i| corpus.document(i)).collect();
    lines_to_records(docs.iter().flat_map(|d| d.lines()))
}

/// One timed WordCount over `input` on a 1-slave cluster with `slots`.
fn wordcount_run(input: &[Record], slots: usize) -> (f64, Vec<Record>) {
    let mut cluster = cluster_with_slots(Arc::new(Simple(WordCount)), slots);
    let mut job = Job::new(&mut cluster);
    let t0 = Instant::now();
    let out = job.map_reduce(input.to_vec(), WC_MAPS, WC_REDUCES, true).expect("wordcount");
    (t0.elapsed().as_secs_f64(), sorted(out))
}

/// One timed PSO run (`iters` outer iterations) with `slots`.
fn pso_run(iters: u64, slots: usize) -> (f64, Vec<Record>) {
    let cfg = PsoConfig {
        objective: Objective::Rastrigin,
        dim: 24,
        n_particles: 48,
        topology: Topology::Ring { k: 1 },
        seed: 1234,
    };
    let program = PsoProgram::new(cfg.clone(), 1);
    let mut cluster = cluster_with_slots(Arc::new(PsoProgram::new(cfg, 1)), slots);
    let mut job = Job::new(&mut cluster);
    let t0 = Instant::now();
    let mut ds = job.local_data(program.initial_particles(), PSO_PARTS).expect("scatter");
    for _ in 0..iters {
        let m = job.map_data(ds, FUNC_PARTICLE, PSO_PARTS, false).expect("map");
        ds = job.reduce_data(m, FUNC_PARTICLE).expect("reduce");
    }
    let out = job.fetch_all(ds).expect("fetch");
    (t0.elapsed().as_secs_f64(), sorted(out))
}

fn json_f64s(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", items.join(", "))
}

fn json_usizes(xs: &[usize]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let args = Args::parse();
    let words: u64 = args.flag("words", 120_000);
    let pso_iters: u64 = args.flag("pso-iters", 10);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "Slot scaling: 1 slave, slots {SLOT_COUNTS:?}, {cores} core(s); \
         WordCount ~{words} Zipf words ({WC_MAPS} maps/{WC_REDUCES} reduces), \
         PSO {pso_iters} iterations ({PSO_PARTS} partitions)\n"
    );

    let input = zipf_input(words);
    let mut wc_secs = Vec::new();
    let mut pso_secs = Vec::new();
    let mut wc_baseline: Option<Vec<Record>> = None;
    let mut pso_baseline: Option<Vec<Record>> = None;

    let mut table = Table::new(["slots", "wordcount_s", "wc_speedup", "pso_s", "pso_speedup"]);
    for &slots in &SLOT_COUNTS {
        let (wc_t, wc_out) = wordcount_run(&input, slots);
        let (pso_t, pso_out) = pso_run(pso_iters, slots);

        // Implementations-agree: every slot count must reproduce the
        // 1-slot answer byte for byte.
        match &wc_baseline {
            None => wc_baseline = Some(wc_out),
            Some(base) => assert_eq!(base, &wc_out, "WordCount output diverged at {slots} slots"),
        }
        match &pso_baseline {
            None => pso_baseline = Some(pso_out),
            Some(base) => assert_eq!(base, &pso_out, "PSO output diverged at {slots} slots"),
        }

        wc_secs.push(wc_t);
        pso_secs.push(pso_t);
        table.row([
            slots.to_string(),
            format!("{wc_t:.3}"),
            format!("{:.2}", wc_secs[0] / wc_t),
            format!("{pso_t:.3}"),
            format!("{:.2}", pso_secs[0] / pso_t),
        ]);
    }
    table.emit("slot_scaling");

    let wc_speedup: Vec<f64> = wc_secs.iter().map(|t| wc_secs[0] / t).collect();
    let pso_speedup: Vec<f64> = pso_secs.iter().map(|t| pso_secs[0] / t).collect();
    Report::new("slot_scaling")
        .int("cores", cores as u64)
        .int("words", words)
        .int("pso_iters", pso_iters)
        .raw("slots", &json_usizes(&SLOT_COUNTS))
        .raw("wordcount_secs", &json_f64s(&wc_secs))
        .raw("pso_secs", &json_f64s(&pso_secs))
        .raw("wordcount_speedup", &json_f64s(&wc_speedup))
        .raw("pso_speedup", &json_f64s(&pso_speedup))
        .write(
            "slots",
            &format!(
                "outputs verified identical across all slot counts. \
                 Speedup is bounded by the host's {cores} core(s)."
            ),
        );
}
