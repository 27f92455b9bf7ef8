//! **Reduce merge** — the sorted-run shuffle experiment: one Zipf
//! WordCount shuffle workload (combiner off, so every map token crosses
//! the data plane) run on identical clusters with the streaming k-way
//! merge reduce (`--mrs-merge=merge`, the default) and the legacy
//! concatenate-then-sort oracle (`--mrs-merge=sort`). The map phase is
//! barriered out of the measurement so the timed window is exactly the
//! reduce phase: input assembly (merge vs concat+sort) plus the reduce
//! kernel. A third arm re-runs the merge plan with the hash combiner on
//! to check the sorted-run guarantee end to end.
//!
//! Checked claims: every map-output fragment reaches its merge-mode
//! reduce task as a run of its own (`merge_runs == maps x reduces`) and
//! arrives presorted (`presorted_runs == merge_runs` — the map-side sort
//! guarantee, on both the combiner and no-combiner arms); the sort oracle
//! records no merge activity; and outputs are byte-identical across every
//! arm (the implementations-agree discipline applied to the reduce input
//! path). The reduce-phase ratio between the arms is reported, not
//! asserted: two ~20 ms phases on a shared host do not hold a bound.
//!
//! ```text
//! cargo run --release -p mrs-bench --bin reduce_merge \
//!     [--words 500000] [--maps 16] [--reduces 4] [--slaves 2] [--repeats 3]
//! ```
//!
//! Writes `results/BENCH_merge.json`. Each timed arm runs `repeats` times
//! interleaved and the fastest reduce phase is kept; the counter
//! assertions hold for every run.

use corpus::{Corpus, CorpusConfig};
use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_bench::{Args, Report, Table};
use mrs_core::Record;
use std::sync::Arc;
use std::time::Instant;

/// Zipf text totalling roughly `words` tokens, as input records.
fn zipf_input(words: u64) -> Vec<Record> {
    let config = CorpusConfig {
        n_files: 16,
        seed: 23,
        mean_tokens: (words / 16).max(1),
        ..CorpusConfig::default()
    };
    let corpus = Corpus::new(config);
    let docs: Vec<String> = (0..16).map(|i| corpus.document(i)).collect();
    lines_to_records(docs.iter().flat_map(|d| d.lines()))
}

fn sorted(mut records: Vec<Record>) -> Vec<Record> {
    records.sort();
    records
}

struct ArmRun {
    reduce_secs: f64,
    total_secs: f64,
    merge_runs: u64,
    presorted_runs: u64,
    merge_ms: f64,
    peak_reduce_records: u64,
    output: Vec<Record>,
}

/// One WordCount on a fresh cluster with the given merge mode. The map
/// phase runs to completion first (while the eager fetcher stages
/// fragments in the background); only then is the reduce
/// submitted and timed, so `reduce_secs` isolates the input-assembly
/// difference between the arms.
fn cluster_run(
    input: &[Record],
    merge: MergeMode,
    combine: bool,
    maps: usize,
    reduces: usize,
    slaves: usize,
) -> ArmRun {
    let cfg = MasterConfig { merge, ..MasterConfig::default() };
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), slaves, DataPlane::Direct, cfg)
            .expect("cluster");
    let t_all = Instant::now();
    let (output, reduce_secs) = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(input.to_vec(), maps).expect("local_data");
        let mapped = job.map_data(src, 0, reduces, combine).expect("map_data");
        // Barrier: the timed window below is purely the reduce phase.
        job.wait(mapped).expect("map phase");
        let t0 = Instant::now();
        let reduced = job.reduce_data(mapped, 0).expect("reduce_data");
        job.wait(reduced).expect("reduce phase");
        let reduce_secs = t0.elapsed().as_secs_f64();
        (sorted(job.fetch_all(reduced).expect("fetch")), reduce_secs)
    };
    let total_secs = t_all.elapsed().as_secs_f64();
    let m = cluster.metrics();
    ArmRun {
        reduce_secs,
        total_secs,
        merge_runs: m.merge_runs(),
        presorted_runs: m.presorted_runs(),
        merge_ms: m.merge_time().as_secs_f64() * 1000.0,
        peak_reduce_records: m.peak_reduce_records(),
        output,
    }
}

/// Keep the fastest-reduce repeat, asserting every repeat returns the
/// same bytes and the counter invariants hold for every run, not just
/// the kept one.
fn keep_best(best: &mut Option<ArmRun>, run: ArmRun) {
    assert_eq!(
        run.presorted_runs, run.merge_runs,
        "a run reached a reduce task unsorted despite the map-side guarantee"
    );
    match best {
        Some(b) => {
            assert_eq!(b.output, run.output, "repeat run changed the answer");
            if run.reduce_secs < b.reduce_secs {
                *best = Some(run);
            }
        }
        None => *best = Some(run),
    }
}

fn main() {
    let args = Args::parse();
    let words: u64 = args.flag("words", 500_000);
    let maps: usize = args.flag("maps", 16);
    let reduces: usize = args.flag("reduces", 4);
    let slaves: usize = args.flag("slaves", 2);
    let repeats: usize = args.flag("repeats", 3);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "Reduce merge: Zipf WordCount, ~{words} words, {maps} maps/{reduces} reduces \
         (no combiner), {slaves} slave(s), {cores} core(s), best of {repeats}\n"
    );

    let input = zipf_input(words);
    // Interleave the arms so host-load drift lands on both equally, and
    // keep each arm's fastest reduce phase.
    let (mut merge, mut sort) = (None, None);
    for _ in 0..repeats.max(1) {
        keep_best(&mut merge, cluster_run(&input, MergeMode::Merge, false, maps, reduces, slaves));
        keep_best(&mut sort, cluster_run(&input, MergeMode::Sort, false, maps, reduces, slaves));
    }
    let (merge, sort) = (merge.expect("merge arm"), sort.expect("sort arm"));
    // The sorted-run guarantee must also hold for hash-combined map
    // output (the combiner path emits in hash order; the kernel re-sorts
    // before writing the bucket).
    let combined = cluster_run(&input, MergeMode::Merge, true, maps, reduces, slaves);

    // Implementations-agree across reduce input paths, byte for byte.
    assert_eq!(merge.output, sort.output, "merge mode changed the answer");
    assert_eq!(merge.output, combined.output, "the combiner changed the answer");
    // The merge plane must have engaged: each reduce task merged one
    // run per map task, every one presorted map-side (`keep_best`).
    let fragments = (maps * reduces) as u64;
    assert_eq!(merge.merge_runs, fragments, "merge arm: one run per map-output fragment");
    assert_eq!(combined.merge_runs, fragments, "combine arm: one run per fragment");
    assert_eq!(
        combined.presorted_runs, combined.merge_runs,
        "hash-combined map output broke the sorted-run guarantee"
    );
    // The oracle arm must be inert.
    assert_eq!(sort.merge_runs, 0, "sort oracle recorded merge activity");
    // Reported, not asserted (best-of-N, interleaved arms).
    let speedup = sort.reduce_secs / merge.reduce_secs.max(1e-9);

    let mut table = Table::new([
        "arm",
        "reduce_s",
        "total_s",
        "merge_runs",
        "presorted",
        "merge_ms",
        "peak_records",
    ]);
    for (name, run) in [("merge", &merge), ("sort", &sort), ("merge+combine", &combined)] {
        table.row([
            name.to_string(),
            format!("{:.3}", run.reduce_secs),
            format!("{:.3}", run.total_secs),
            run.merge_runs.to_string(),
            run.presorted_runs.to_string(),
            format!("{:.3}", run.merge_ms),
            run.peak_reduce_records.to_string(),
        ]);
    }
    table.emit("reduce_merge");
    println!("\nreduce-phase speedup: {speedup:.2}x (concat+sort vs streaming merge)");

    Report::new("reduce_merge")
        .int("cores", cores as u64)
        .int("words", words)
        .int("maps", maps as u64)
        .int("reduces", reduces as u64)
        .int("slaves", slaves as u64)
        .int("repeats", repeats as u64)
        .secs("merge_reduce_secs", merge.reduce_secs)
        .secs("sort_reduce_secs", sort.reduce_secs)
        .float("speedup", speedup, 3)
        .int("merge_runs", merge.merge_runs)
        .int("presorted_runs", merge.presorted_runs)
        .float("merge_ms", merge.merge_ms, 3)
        .int("peak_reduce_records", merge.peak_reduce_records)
        .int("combine_merge_runs", combined.merge_runs)
        .int("combine_presorted_runs", combined.presorted_runs)
        .bool("outputs_identical", true)
        .write("merge", "outputs verified identical across merge modes.");
}
