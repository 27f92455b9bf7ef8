//! **Data plane** — the compressed-shuffle experiment: one Zipf WordCount
//! shuffle workload (combiner off, so every map token crosses the data
//! plane) run on identical clusters with compression on and off, plus a
//! mock-parallel run for the colocated short-circuit path. Reports bytes
//! before compression vs bytes actually moved over HTTP, the compression
//! ratio, short-circuited (loopback-free) fetches, and checksum retries —
//! and *checks* the claims: compressed wire bytes at least 2x below raw,
//! short circuits engaged, zero checksum failures, outputs byte-identical
//! across all arms (the implementations-agree discipline applied to the
//! shuffle codec).
//!
//! ```text
//! cargo run --release -p mrs-bench --bin dataplane \
//!     [--words 500000] [--maps 16] [--reduces 8] [--slaves 2]
//! ```
//!
//! Writes `results/BENCH_dataplane.json`. Wire counters are consumer-side:
//! they count real HTTP body bytes of bucket fetches, so short-circuited
//! local reads contribute nothing — exactly the traffic a real network
//! would carry.

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
    bytes_pre_compress: u64,
    bytes_on_wire: u64,
    shortcircuit_fetches: u64,
    checksum_retries: u64,
    output: Vec<Record>,
}

/// One WordCount (combiner off — the full shuffle) on a fresh cluster
/// with the given compression policy.
fn cluster_run(
    input: &[Record],
    compress: CompressMode,
    maps: usize,
    reduces: usize,
    slaves: usize,
) -> ArmRun {
    let cfg = MasterConfig { compress, ..MasterConfig::default() };
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
        bytes_pre_compress: m.bytes_pre_compress(),
        bytes_on_wire: m.bytes_on_wire(),
        shortcircuit_fetches: m.shortcircuit_fetches(),
        checksum_retries: m.checksum_retries(),
        output: sorted(output),
    }
}

/// The same job under the mock-parallel runtime: every reduce input is a
/// colocated in-memory handover, the pure short-circuit regime.
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
        bytes_pre_compress: m.bytes_pre_compress(),
        bytes_on_wire: m.bytes_on_wire(),
        shortcircuit_fetches: m.shortcircuit_fetches(),
        checksum_retries: m.checksum_retries(),
        output: sorted(output),
    }
}

fn main() {
    let args = Args::parse();
    let words: u64 = args.flag("words", 500_000);
    let maps: usize = args.flag("maps", 16);
    let reduces: usize = args.flag("reduces", 8);
    let slaves: usize = args.flag("slaves", 2);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "Data plane: Zipf WordCount, ~{words} words, {maps} maps/{reduces} reduces \
         (no combiner), {slaves} slave(s), {cores} core(s)\n"
    );

    let input = zipf_input(words);
    let on = cluster_run(&input, CompressMode::On, maps, reduces, slaves);
    let off = cluster_run(&input, CompressMode::Off, maps, reduces, slaves);
    let mock = mock_run(&input, maps, reduces);

    // Implementations-agree across codec settings, byte for byte.
    assert_eq!(on.output, off.output, "compression changed the answer");
    assert_eq!(on.output, mock.output, "mock parallel changed the answer");
    // The codec must have engaged, cleanly.
    assert!(
        on.bytes_on_wire < on.bytes_pre_compress,
        "compression must shrink the Zipf shuffle: wire={} pre={}",
        on.bytes_on_wire,
        on.bytes_pre_compress
    );
    assert!(
        on.bytes_on_wire * 2 <= off.bytes_on_wire,
        "expected >= 2x wire reduction: on={} off={}",
        on.bytes_on_wire,
        off.bytes_on_wire
    );
    assert!(
        off.bytes_on_wire > off.bytes_pre_compress,
        "compression-off ships stored frames: the bucket plus a header"
    );
    assert!(mock.shortcircuit_fetches > 0, "mock parallel never short-circuited a fetch");
    assert_eq!(mock.bytes_on_wire, 0, "mock parallel moved bytes over a wire");
    for (name, run) in [("on", &on), ("off", &off), ("mock", &mock)] {
        assert_eq!(run.checksum_retries, 0, "checksum failures in arm {name}");
    }

    let ratio = off.bytes_on_wire as f64 / on.bytes_on_wire.max(1) as f64;
    let mut table =
        Table::new(["arm", "secs", "pre_compress_b", "on_wire_b", "shortcircuit", "retries"]);
    for (name, run) in [("compress-on", &on), ("compress-off", &off), ("mock-parallel", &mock)] {
        table.row([
            name.to_string(),
            format!("{:.3}", run.secs),
            run.bytes_pre_compress.to_string(),
            run.bytes_on_wire.to_string(),
            run.shortcircuit_fetches.to_string(),
            run.checksum_retries.to_string(),
        ]);
    }
    table.emit("dataplane");
    println!("\nwire reduction: {ratio:.2}x (compress-off vs compress-on)");

    Report::new("dataplane")
        .int("cores", cores as u64)
        .int("words", words)
        .int("maps", maps as u64)
        .int("reduces", reduces as u64)
        .int("slaves", slaves as u64)
        .secs("on_secs", on.secs)
        .secs("off_secs", off.secs)
        .secs("mock_secs", mock.secs)
        .int("on_bytes_pre_compress", on.bytes_pre_compress)
        .int("on_bytes_on_wire", on.bytes_on_wire)
        .int("off_bytes_on_wire", off.bytes_on_wire)
        .float("wire_reduction", ratio, 3)
        .int("on_shortcircuit_fetches", on.shortcircuit_fetches)
        .int("mock_shortcircuit_fetches", mock.shortcircuit_fetches)
        .int("checksum_retries", 0u32)
        .bool("outputs_identical", true)
        .write("dataplane", "outputs verified identical across codec settings.");
}
