//! **Tracing overhead** — the observability-is-free experiment:
//! back-to-back WordCount jobs on identical 2-slave clusters, once with
//! the tracing plane on (the default) and once with `trace: false`,
//! interleaved repeats in alternating order. While each run's jobs
//! execute, a probe thread hits the master's live `/status` and
//! `/metrics` endpoints and validates every Prometheus sample it gets
//! back. The arms are compared on total process CPU time (falling back
//! to wall clock where `/proc` is absent) so a noisy co-tenant host
//! can't masquerade as tracing cost.
//!
//! Reports what tracing costs (it is not asserted: the number is the
//! host's load as much as the code's) and checks the claims: the bounded
//! recorder drops zero events under a real workload, both arms (and the
//! mock-parallel oracle) produce byte-identical output, every attempt's
//! spans cover its dispatch→report window, the critical-path phase
//! buckets sum exactly to the trace wall-clock and that wall-clock
//! agrees with the measured job time, and the Chrome-trace export names
//! one process lane per worker.
//!
//! ```text
//! cargo run --release -p mrs-bench --bin trace_overhead \
//!     [--words 500000] [--maps 8] [--reduces 4] [--slots 2] \
//!     [--jobs 6] [--repeats 5]
//! ```
//!
//! Writes `results/BENCH_trace.json`.

use corpus::{Corpus, CorpusConfig};
use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_bench::{Args, Report, Table};
use mrs_core::Record;
use mrs_fs::MemFs;
use mrs_trace::{AttemptCoverage, JobTrace, Kind, Name, MASTER_PID};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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

/// Every line of a Prometheus text page must be `mrs_* <float>`, and no
/// sample name may appear twice. Returns the sample count; panics on any
/// malformed line.
fn check_prometheus(body: &str) -> u64 {
    let mut samples = 0;
    let mut names = std::collections::HashSet::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        let mut parts = line.split_whitespace();
        let (name, value) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        assert!(
            name.starts_with("mrs_") && parts.next().is_none(),
            "malformed metrics line: {line:?}"
        );
        assert!(names.insert(name), "sample {name} appears twice on the page");
        value.parse::<f64>().unwrap_or_else(|_| panic!("bad sample value in {line:?}"));
        samples += 1;
    }
    assert!(samples > 0, "empty metrics page");
    samples
}

/// Cumulative user+system CPU of this whole process in clock ticks,
/// from `/proc/self/stat`; 0 when unavailable (non-Linux). CPU time is
/// what the overhead comparison wants on a shared host: a co-tenant
/// stealing the core inflates wall clock but not our ticks, while real
/// tracing work (recording, draining, piggybacking deltas) does.
fn cpu_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0 };
    // utime/stime are fields 14/15; split after the parenthesised comm,
    // which may itself contain spaces.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or(&stat);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|s| s.parse().ok()).unwrap_or(0u64);
    tick(11) + tick(12)
}

#[derive(Default)]
struct Probe {
    status: String,
    metrics: String,
    polls: u64,
}

struct ArmRun {
    secs: f64,
    cpu: u64,
    output: Vec<Record>,
    trace: Option<JobTrace>,
    probe: Probe,
}

/// One WordCount on a fresh 2-slave cluster. A probe thread polls
/// `/status` and `/metrics` while the job runs (plus one guaranteed
/// fetch after it finishes) — on *both* arms, because the live HTTP
/// plane is independent of tracing and probing only one arm would bill
/// its CPU time to the tracing column. With `trace` on, the assembled
/// job trace is drained before teardown. Speculation is pinned off so
/// both arms schedule identically and the comparison is apples-to-apples.
fn cluster_run(
    input: &[Record],
    trace: bool,
    jobs: usize,
    maps: usize,
    reduces: usize,
    slots: usize,
) -> ArmRun {
    let cfg = MasterConfig { trace, speculate: SpeculateMode::Off, ..MasterConfig::default() };
    let options = SlaveOptions { slots, ..SlaveOptions::default() };
    let mut cluster =
        LocalCluster::start_with(Arc::new(Simple(WordCount)), 2, DataPlane::Direct, cfg, options)
            .expect("cluster");

    let authority = cluster.http_authority();
    let fetch = |path: &str| -> Option<String> {
        match mrs_rpc::HttpClient::request(&authority, "GET", path, &[]) {
            Ok((200, body)) => Some(String::from_utf8_lossy(&body).into_owned()),
            _ => None,
        }
    };
    let shared = Arc::new(Mutex::new(Probe::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let authority = authority.clone();
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Fixed poll budget: the probe must cost the same CPU on
            // both arms, not scale with how long a noisy host stretches
            // the run.
            let mut budget = 10;
            while !stop.load(Ordering::Relaxed) && budget > 0 {
                budget -= 1;
                std::thread::sleep(Duration::from_millis(25));
                let get =
                    |path: &str| match mrs_rpc::HttpClient::request(&authority, "GET", path, &[]) {
                        Ok((200, body)) => Some(String::from_utf8_lossy(&body).into_owned()),
                        _ => None,
                    };
                let (status, metrics) = (get("/status"), get("/metrics"));
                let mut p = shared.lock().unwrap();
                if let Some(s) = status {
                    p.status = s;
                    p.polls += 1;
                }
                if let Some(m) = metrics {
                    check_prometheus(&m);
                    p.metrics = m;
                }
            }
        })
    };

    // Several jobs back to back on the one cluster: each timing sample
    // carries `jobs` worth of compute and zero startup cost, so the
    // on/off comparison measures the tracing plane, not thread-spawn and
    // port-bind jitter.
    let t0 = Instant::now();
    let cpu0 = cpu_ticks();
    let mut output = None;
    for _ in 0..jobs.max(1) {
        let out = {
            let mut job = Job::new(&mut cluster);
            sorted(job.map_reduce(input.to_vec(), maps, reduces, true).expect("wordcount"))
        };
        match &output {
            Some(prev) => assert_eq!(*prev, out, "repeat job changed the answer"),
            None => output = Some(out),
        }
    }
    let cpu = cpu_ticks() - cpu0;
    let secs = t0.elapsed().as_secs_f64();
    let output = output.expect("at least one job");

    stop.store(true, Ordering::Relaxed);
    prober.join().expect("probe thread");
    let mut probe = Arc::try_unwrap(shared).ok().expect("probe refs").into_inner().unwrap();
    // The probe may never land on a fast run; the endpoints stay up
    // until teardown, so sample them at least once either way.
    if probe.metrics.is_empty() {
        probe.metrics = fetch("/metrics").expect("metrics page");
        check_prometheus(&probe.metrics);
    }
    if probe.status.is_empty() {
        probe.status = fetch("/status").expect("status page");
    }

    let trace = cluster.take_trace();
    ArmRun { secs, cpu, output, trace, probe }
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

/// The same job under the mock-parallel runtime — the oracle answer.
fn mock_output(input: &[Record], maps: usize, reduces: usize) -> Vec<Record> {
    let mut rt = LocalRuntime::mock_parallel(Arc::new(Simple(WordCount)), Arc::new(MemFs::new()));
    let mut job = Job::new(&mut rt);
    sorted(job.map_reduce(input.to_vec(), maps, reduces, true).expect("wordcount"))
}

fn main() {
    let args = Args::parse();
    let words: u64 = args.flag("words", 500_000);
    let maps: usize = args.flag("maps", 8);
    let reduces: usize = args.flag("reduces", 4);
    let slots: usize = args.flag("slots", 2);
    let jobs: usize = args.flag("jobs", 6);
    let repeats: usize = args.flag("repeats", 5);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "Tracing overhead: WordCount, ~{words} words, {maps} maps/{reduces} reduces, \
         2 slaves x {slots} slots, {jobs} jobs per cluster, {cores} core(s), \
         best of {repeats}\n"
    );

    let input = zipf_input(words);
    // One discarded warmup run pages in the binary and warms the
    // allocator, then interleave the arms in alternating order so
    // host-load drift and any first-of-pair cost land on both equally;
    // keep each arm's fastest repeat.
    drop(cluster_run(&input, true, 1, maps, reduces, slots));
    let (mut on, mut off) = (None, None);
    let (mut on_cpu, mut off_cpu) = (u64::MAX, u64::MAX);
    for i in 0..repeats.max(1) {
        let run = |on: &mut _, cpu: &mut u64, traced| {
            let r = cluster_run(&input, traced, jobs, maps, reduces, slots);
            *cpu = (*cpu).min(r.cpu);
            keep_best(on, r);
        };
        // Alternate the pair order so any first-of-pair cost (allocator
        // state, page cache) lands on both arms equally.
        if i % 2 == 0 {
            run(&mut on, &mut on_cpu, true);
            run(&mut off, &mut off_cpu, false);
        } else {
            run(&mut off, &mut off_cpu, false);
            run(&mut on, &mut on_cpu, true);
        }
    }
    let (on, off) = (on.expect("on arm"), off.expect("off arm"));
    let mock = mock_output(&input, maps, reduces);

    // Tracing must be invisible to the answer, byte for byte.
    assert_eq!(on.output, off.output, "tracing changed the answer");
    assert_eq!(on.output, mock, "mock parallel changed the answer");
    assert!(off.trace.is_none(), "trace=false still assembled a trace");

    // The recorder is bounded; a real workload must not overflow it.
    let trace = on.trace.expect("traced arm has a trace");
    assert_eq!(trace.dropped, 0, "recorder dropped events");

    // One process row per worker: the master plus both slaves must have
    // recorded attempt spans, and the Chrome export must name them all.
    let attempts = |pid: u32| {
        trace.count(|g| {
            g.pid == pid
                && matches!(g.event.kind, Kind::Begin)
                && matches!(g.event.name, Name::Attempt)
        })
    };
    let span_attempts = attempts(1) + attempts(2);
    assert!(attempts(1) >= 1, "slave 0 recorded no attempt spans");
    assert!(attempts(2) >= 1, "slave 1 recorded no attempt spans");
    assert_eq!(attempts(MASTER_PID), 0, "master must not own execution spans");
    assert_eq!(span_attempts, jobs * (maps + reduces), "one attempt span per task");
    let chrome = trace.chrome_json();
    for needle in ["\"traceEvents\"", "\"ph\":\"B\"", "master", "slave 0", "slave 1"] {
        assert!(chrome.contains(needle), "chrome export missing {needle}");
    }

    // Spans must cover each attempt's dispatch→report window: ≥95%, with
    // an absolute floor for the uncovered remainder — report-poll latency
    // and clock-offset error are control-plane costs, not tracing gaps,
    // and on an oversubscribed host they can dominate a short window.
    let coverage = trace.coverage();
    assert_eq!(coverage.len(), jobs * (maps + reduces), "one coverage window per attempt");
    let min_coverage = coverage.iter().map(AttemptCoverage::fraction).fold(f64::INFINITY, f64::min);
    for c in &coverage {
        assert!(
            c.fraction() >= 0.95 || c.window_us - c.covered_us < 250_000,
            "attempt spans cover only {:.1}% of its window: {c:?}",
            c.fraction() * 100.0
        );
    }

    // The critical-path report partitions the trace wall-clock exactly,
    // and that wall-clock must agree with the measured job time.
    let phases = trace.critical_path();
    let bucket_sum: u64 = phases.buckets().iter().map(|(_, us)| *us).sum();
    assert_eq!(bucket_sum, phases.wall_us, "phase buckets must partition the wall clock");
    let wall_secs = phases.wall_us as f64 / 1e6;
    assert!(
        (wall_secs - on.secs).abs() <= 0.10 * on.secs + 0.05,
        "trace wall-clock {wall_secs:.3}s disagrees with measured {:.3}s",
        on.secs
    );

    // The live plane must have answered with well-formed pages.
    let metrics_lines = check_prometheus(&on.probe.metrics);
    assert!(on.probe.status.contains("mrs master:"), "status page missing header");
    assert!(on.probe.metrics.contains("mrs_trace_dropped_events 0"), "dropped gauge missing");

    // The headline number: what the whole plane costs. Reported, not
    // asserted — on a loaded host the arms differ by more than tracing
    // does. Compared on each arm's *minimum* process-CPU repeat: on a
    // shared host, wall clock measures the co-tenants, and even CPU
    // inflates with bursts (a stretched run spends more ticks in poll
    // loops), but that noise only ever adds ticks, so the minima are the
    // clean samples.
    // Off-Linux (no /proc) the ticks read 0 and we fall back to the
    // best wall-clock of each arm.
    let overhead = if on_cpu > 0 && off_cpu > 0 && on_cpu < u64::MAX && off_cpu < u64::MAX {
        on_cpu as f64 / off_cpu as f64 - 1.0
    } else {
        on.secs / off.secs.max(1e-9) - 1.0
    };

    let mut table = Table::new(["arm", "secs", "events", "dropped"]);
    table.row([
        "trace-on".into(),
        format!("{:.3}", on.secs),
        trace.events.len().to_string(),
        trace.dropped.to_string(),
    ]);
    table.row(["trace-off".into(), format!("{:.3}", off.secs), "-".into(), "-".into()]);
    table.emit("trace_overhead");
    println!(
        "\noverhead: {:.2}% | min span coverage: {:.1}% | mid-run metric polls: {}\n",
        overhead * 100.0,
        min_coverage * 100.0,
        on.probe.polls
    );
    println!("{}", phases.render());

    Report::new("trace")
        .int("cores", cores as u64)
        .int("words", words)
        .int("maps", maps as u64)
        .int("reduces", reduces as u64)
        .int("slots", slots as u64)
        .int("jobs_per_cluster", jobs as u64)
        .int("repeats", repeats as u64)
        .secs("traced_secs", on.secs)
        .secs("untraced_secs", off.secs)
        .int("traced_cpu_ticks_min", on_cpu)
        .int("untraced_cpu_ticks_min", off_cpu)
        .float("overhead_frac", overhead, 4)
        .int("trace_events", trace.events.len() as u64)
        .int("dropped_events", trace.dropped)
        .int("attempt_spans", span_attempts as u64)
        .float("min_coverage_frac", min_coverage, 4)
        .secs("trace_wall_secs", wall_secs)
        .int("metrics_lines", metrics_lines)
        .int("status_polls", on.probe.polls)
        .bool("outputs_identical", true)
        .write("trace", "tracing on/off outputs verified byte-identical; overhead reported.");
}
