//! **Shuffle overlap** — the eager-shuffle experiment: one Zipf WordCount
//! shuffle workload (combiner off, so every map token crosses the data
//! plane) run on identical clusters with eager shuffle on and off, plus a
//! mock-parallel run as the perfect-overlap oracle (every handover is a
//! colocated in-memory transfer, i.e. 100% of reduce input pre-staged).
//! Reports fragments and bytes moved ahead of the barrier, residual
//! fetches still needed at reduce time, and the overlap window (time each
//! warm fragment sat ready before its reduce task consumed it) — and
//! *checks* the claims: eager fragments moved, a positive overlap window,
//! an inert eager-off arm, outputs byte-identical across all arms (the
//! implementations-agree discipline applied to the shuffle schedule). The
//! wall-clock ratio between the arms is reported, not asserted.
//!
//! ```text
//! cargo run --release -p mrs-bench --bin shuffle_overlap \
//!     [--words 500000] [--maps 16] [--reduces 8] [--slaves 2] [--repeats 3]
//! ```
//!
//! Writes `results/BENCH_overlap.json`. Each cluster arm runs `repeats`
//! times and the fastest run is kept; the counters are
//! schedule-dependent but the assertions hold for every run.

use corpus::{Corpus, CorpusConfig};
use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_bench::{Args, Report, Table};
use mrs_core::Record;
use mrs_fs::MemFs;
use std::sync::Arc;
use std::time::Instant;

/// Zipf text totalling roughly `words` tokens, as input records.
fn zipf_input(words: u64) -> Vec<Record> {
    let config = CorpusConfig {
        n_files: 16,
        seed: 11,
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
    secs: f64,
    eager_fragments: u64,
    eager_bytes: u64,
    residual_fetches: u64,
    overlap_ms: f64,
    output: Vec<Record>,
}

/// One WordCount (combiner off — the full shuffle) on a fresh cluster
/// with the given eager-shuffle setting.
fn cluster_run(
    input: &[Record],
    eager_shuffle: bool,
    maps: usize,
    reduces: usize,
    slaves: usize,
) -> ArmRun {
    let cfg = MasterConfig { eager_shuffle, ..MasterConfig::default() };
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), slaves, DataPlane::Direct, cfg)
            .expect("cluster");
    let t0 = Instant::now();
    let output = {
        let mut job = Job::new(&mut cluster);
        job.map_reduce(input.to_vec(), maps, reduces, false).expect("wordcount")
    };
    let secs = t0.elapsed().as_secs_f64();
    let m = cluster.metrics();
    ArmRun {
        secs,
        eager_fragments: m.eager_fragments(),
        eager_bytes: m.eager_bytes(),
        residual_fetches: m.residual_fetches(),
        overlap_ms: m.overlap_time().as_secs_f64() * 1000.0,
        output: sorted(output),
    }
}

/// Keep the fastest repeat, asserting every repeat returns the same bytes.
fn keep_best(best: &mut Option<ArmRun>, run: ArmRun) {
    match best {
        Some(b) => {
            assert_eq!(b.output, run.output, "repeat run changed the answer");
            if run.secs < b.secs {
                *best = Some(run);
            }
        }
        None => *best = Some(run),
    }
}

/// The same job under the mock-parallel runtime: every reduce input is a
/// colocated in-memory handover — perfect overlap, the oracle ceiling.
fn mock_run(input: &[Record], maps: usize, reduces: usize) -> ArmRun {
    let mut rt = LocalRuntime::mock_parallel_with(
        Arc::new(Simple(WordCount)),
        Arc::new(MemFs::new()),
        CompressMode::On,
    );
    let t0 = Instant::now();
    let output = {
        let mut job = Job::new(&mut rt);
        job.map_reduce(input.to_vec(), maps, reduces, false).expect("wordcount")
    };
    let secs = t0.elapsed().as_secs_f64();
    let m = rt.metrics();
    ArmRun {
        secs,
        eager_fragments: m.eager_fragments(),
        eager_bytes: m.eager_bytes(),
        residual_fetches: m.residual_fetches(),
        overlap_ms: m.overlap_time().as_secs_f64() * 1000.0,
        output: sorted(output),
    }
}

fn main() {
    let args = Args::parse();
    let words: u64 = args.flag("words", 500_000);
    let maps: usize = args.flag("maps", 16);
    let reduces: usize = args.flag("reduces", 8);
    let slaves: usize = args.flag("slaves", 2);
    let repeats: usize = args.flag("repeats", 3);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "Shuffle overlap: Zipf WordCount, ~{words} words, {maps} maps/{reduces} reduces \
         (no combiner), {slaves} slave(s), {cores} core(s), best of {repeats}\n"
    );

    let input = zipf_input(words);
    // Interleave the arms so host-load drift lands on both equally, and
    // keep each arm's fastest repeat.
    let (mut eager, mut off) = (None, None);
    for _ in 0..repeats.max(1) {
        keep_best(&mut eager, cluster_run(&input, true, maps, reduces, slaves));
        keep_best(&mut off, cluster_run(&input, false, maps, reduces, slaves));
    }
    let (eager, off) = (eager.expect("eager arm"), off.expect("off arm"));
    let mock = mock_run(&input, maps, reduces);

    // Implementations-agree across shuffle schedules, byte for byte.
    assert_eq!(eager.output, off.output, "eager shuffle changed the answer");
    assert_eq!(eager.output, mock.output, "mock parallel changed the answer");
    // The eager plane must have engaged: fragments moved before the
    // barrier, and each sat warm for a positive window before its reduce
    // task consumed it.
    assert!(eager.eager_fragments > 0, "eager arm moved no fragments ahead of the barrier");
    assert!(eager.eager_bytes > 0, "eager fragments carried no bytes");
    assert!(eager.overlap_ms > 0.0, "no overlap window: fragments never consumed warm");
    // The oracle arm must be inert.
    assert_eq!(off.eager_fragments, 0, "eager-off arm announced fragments");
    assert_eq!(off.overlap_ms, 0.0, "eager-off arm recorded overlap");
    // Mock parallel is the perfect-overlap limit: every handover counted.
    assert_eq!(
        mock.eager_fragments,
        (maps * reduces) as u64,
        "mock parallel should hand over every map-output fragment in memory"
    );
    assert_eq!(mock.residual_fetches, 0, "mock parallel made a residual fetch");

    // Reported, not asserted (best-of-N, interleaved arms).
    let speedup = off.secs / eager.secs.max(1e-9);
    let total = (maps * reduces) as u64;
    let warm = total.saturating_sub(eager.residual_fetches);
    let mut table =
        Table::new(["arm", "secs", "eager_frags", "eager_bytes", "residual", "overlap_ms"]);
    for (name, run) in [("eager-on", &eager), ("eager-off", &off), ("mock-parallel", &mock)] {
        table.row([
            name.to_string(),
            format!("{:.3}", run.secs),
            run.eager_fragments.to_string(),
            run.eager_bytes.to_string(),
            run.residual_fetches.to_string(),
            format!("{:.3}", run.overlap_ms),
        ]);
    }
    table.emit("shuffle_overlap");
    println!(
        "\nspeedup: {speedup:.2}x (eager-off vs eager-on); {warm} of {total} reduce-input \
         fragments pre-staged before the barrier"
    );

    Report::new("shuffle_overlap")
        .int("cores", cores as u64)
        .int("words", words)
        .int("maps", maps as u64)
        .int("reduces", reduces as u64)
        .int("slaves", slaves as u64)
        .int("repeats", repeats as u64)
        .secs("eager_secs", eager.secs)
        .secs("off_secs", off.secs)
        .secs("mock_secs", mock.secs)
        .float("speedup", speedup, 3)
        .int("eager_fragments", eager.eager_fragments)
        .int("eager_bytes", eager.eager_bytes)
        .int("residual_fetches", eager.residual_fetches)
        .float("overlap_ms", eager.overlap_ms, 3)
        .int("mock_eager_fragments", mock.eager_fragments)
        .bool("outputs_identical", true)
        .write("overlap", "outputs verified identical across shuffle schedules.");
}
