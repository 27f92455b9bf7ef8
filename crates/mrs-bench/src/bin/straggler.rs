//! **Straggler mitigation** — the speculative-execution experiment: one
//! WordCount run on identical 2-slave clusters, with a hidden test hook
//! (`--mrs-test-delay` in the CLI) making one slave hold one map task far
//! past the speculation cutoff. The speculating arm (`--mrs-speculate
//! on`, the default) must launch a backup on the other slave, commit the
//! backup's completion, and cancel the sleeper; the
//! non-speculating arm (`--mrs-speculate off`) has to sit out the full
//! injected delay. A mock-parallel run is the no-stragglers oracle.
//!
//! Checks the claims: the speculating arm records at least one
//! first-completion win and cancels the loser, and both arms (and the
//! oracle) produce byte-identical output; the off arm must not launch a
//! single backup. The on/off speedup is reported, not asserted.
//!
//! ```text
//! cargo run --release -p mrs-bench --bin straggler \
//!     [--words 200000] [--maps 8] [--reduces 4] [--slots 2] \
//!     [--delay-ms 2000] [--repeats 1]
//! ```
//!
//! Writes `results/BENCH_straggler.json`.

use corpus::{Corpus, CorpusConfig};
use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_bench::{Args, Report, Table};
use mrs_core::Record;
use mrs_fs::MemFs;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    secs: f64,
    launches: u64,
    wins: u64,
    losses: u64,
    cancelled: u64,
    saved_ms: f64,
    output: Vec<Record>,
}

/// One WordCount on a fresh 2-slave cluster. The first slave carries the
/// straggler injection (dataset ids are deterministic per job: source = 0,
/// map = 1, so `(1, 0, delay_ms)` delays map task 0) and draws that task,
/// the first dispatched; only then does the clean second slave join.
fn cluster_run(
    input: &[Record],
    speculate: SpeculateMode,
    maps: usize,
    reduces: usize,
    slots: usize,
    delay_ms: u64,
) -> ArmRun {
    let cfg = MasterConfig { speculate, ..MasterConfig::default() };
    let mut cluster = LocalCluster::start(Arc::new(Simple(WordCount)), 0, DataPlane::Direct, cfg)
        .expect("cluster");
    let straggly =
        SlaveOptions { slots, test_delays: vec![(1, 0, delay_ms)], ..SlaveOptions::default() };
    cluster.add_slave_with(straggly);
    let t0 = Instant::now();
    let reduced = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(input.to_vec(), maps).expect("input");
        let mapped = job.map_data(src, 0, reduces, true).expect("map");
        job.reduce_data(mapped, 0).expect("reduce")
    };
    while cluster.metrics().dispatched_tasks() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.add_slave_with(SlaveOptions { slots, ..SlaveOptions::default() });
    let output = Job::new(&mut cluster).fetch_all(reduced).expect("wordcount");
    let secs = t0.elapsed().as_secs_f64();
    let m = cluster.metrics();
    ArmRun {
        secs,
        launches: m.speculative_launches(),
        wins: m.speculative_wins(),
        losses: m.speculative_losses(),
        cancelled: m.cancelled_tasks(),
        saved_ms: m.straggler_time_saved().as_secs_f64() * 1000.0,
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

/// The same job under the mock-parallel runtime: no machines, no
/// stragglers, no speculation — the clean-schedule oracle.
fn mock_run(input: &[Record], maps: usize, reduces: usize) -> ArmRun {
    let mut rt = LocalRuntime::mock_parallel(Arc::new(Simple(WordCount)), Arc::new(MemFs::new()));
    let t0 = Instant::now();
    let output = {
        let mut job = Job::new(&mut rt);
        job.map_reduce(input.to_vec(), maps, reduces, true).expect("wordcount")
    };
    let secs = t0.elapsed().as_secs_f64();
    ArmRun {
        secs,
        launches: 0,
        wins: 0,
        losses: 0,
        cancelled: 0,
        saved_ms: 0.0,
        output: sorted(output),
    }
}

fn main() {
    let args = Args::parse();
    let words: u64 = args.flag("words", 200_000);
    let maps: usize = args.flag("maps", 8);
    let reduces: usize = args.flag("reduces", 4);
    let slots: usize = args.flag("slots", 2);
    let delay_ms: u64 = args.flag("delay-ms", 2000);
    let repeats: usize = args.flag("repeats", 1);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "Straggler mitigation: WordCount, ~{words} words, {maps} maps/{reduces} reduces, \
         2 slaves x {slots} slots, one map attempt delayed {delay_ms}ms, {cores} core(s), \
         best of {repeats}\n"
    );

    let input = zipf_input(words);
    // Interleave the arms so host-load drift lands on both equally, and
    // keep each arm's fastest repeat.
    let (mut on, mut off) = (None, None);
    for _ in 0..repeats.max(1) {
        keep_best(
            &mut on,
            cluster_run(&input, SpeculateMode::default(), maps, reduces, slots, delay_ms),
        );
        keep_best(
            &mut off,
            cluster_run(&input, SpeculateMode::Off, maps, reduces, slots, delay_ms),
        );
    }
    let (on, off) = (on.expect("on arm"), off.expect("off arm"));
    let mock = mock_run(&input, maps, reduces);

    // Implementations-agree across scheduling policies, byte for byte:
    // first-completion-wins arbitration must be invisible to the answer.
    assert_eq!(on.output, off.output, "speculation changed the answer");
    assert_eq!(on.output, mock.output, "mock parallel changed the answer");
    // The speculating arm must actually have raced and won: the sleeper
    // cannot finish for delay_ms, so the backup commits first.
    assert!(
        on.wins >= 1,
        "speculation never won a race: {} launches, {} wins",
        on.launches,
        on.wins
    );
    assert_eq!(
        on.launches,
        on.wins + on.losses,
        "every speculative attempt must resolve as a win or a loss"
    );
    assert!(on.cancelled >= 1, "the losing attempt was never cancelled");
    assert!(on.saved_ms > 0.0, "a won race must bank straggler time saved");
    // The oracle arm must be inert and pay the full injected delay.
    assert_eq!(off.launches, 0, "speculate=off launched a backup");
    assert!(
        off.secs >= delay_ms as f64 / 1000.0,
        "off arm finished before the sleeper woke: {:.3}s",
        off.secs
    );
    // The point of the mechanism is wall clock bought by dodging the
    // straggler. Reported, not asserted: how much depends on how loaded
    // the host is, and the counts above already prove the race was won.
    let speedup = off.secs / on.secs.max(1e-9);

    let mut table =
        Table::new(["arm", "secs", "backups", "wins", "losses", "cancelled", "saved_ms"]);
    for (name, run) in [("speculate-on", &on), ("speculate-off", &off), ("mock-parallel", &mock)] {
        table.row([
            name.to_string(),
            format!("{:.3}", run.secs),
            run.launches.to_string(),
            run.wins.to_string(),
            run.losses.to_string(),
            run.cancelled.to_string(),
            format!("{:.1}", run.saved_ms),
        ]);
    }
    table.emit("straggler");
    println!("\nspeedup: {speedup:.2}x (speculate-off vs speculate-on)");

    Report::new("straggler")
        .int("cores", cores as u64)
        .int("words", words)
        .int("maps", maps as u64)
        .int("reduces", reduces as u64)
        .int("slots", slots as u64)
        .int("delay_ms", delay_ms)
        .int("repeats", repeats as u64)
        .secs("on_secs", on.secs)
        .secs("off_secs", off.secs)
        .secs("mock_secs", mock.secs)
        .float("speedup", speedup, 3)
        .int("speculative_launches", on.launches)
        .int("speculative_wins", on.wins)
        .int("speculative_losses", on.losses)
        .int("cancelled_tasks", on.cancelled)
        .float("straggler_ms_saved", on.saved_ms, 3)
        .int("off_speculative_launches", off.launches)
        .bool("outputs_identical", true)
        .write("straggler", "outputs verified identical across speculation policies.");
}
