//! `mrs-e2e` — the repo benchmark. See `bench/README.md`.
//!
//! With `--trace 0|1` it runs one pass of one workload in this process
//! and prints the contract's JSON object as its last line. Without it,
//! it runs the whole suite: one child process per (workload, pass),
//! because the program's data-plane counters are process-global.

mod calib;
mod layers;
mod spans;
mod stats;
mod suite;
mod workload;

use calib::Calibration;
use mrs_core::Record;
use mrs_fs::MemFs;
use mrs_runtime::metrics::JobMetrics;
use mrs_runtime::{
    DataPlane, JobApi, LocalCluster, LocalRuntime, MasterConfig, SerialRuntime, SlaveOptions,
};
use mrs_trace::PhaseTotals;
use spans::{PhaseJob, Recorder};
use stats::{cpu_seconds, median, peak_rss_mb, percentile, Metrics, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Sizes, Workload, WORKLOADS};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// The cluster arm's shape: `nproc` of the reference box.
const SLAVES: usize = 2;
const SLOTS: usize = 1;

struct Options {
    workload: Option<String>,
    seed: u64,
    trace: Option<bool>,
    quick: bool,
    out_dir: String,
}

fn parse_options() -> Res<Options> {
    let mut o =
        Options { workload: None, seed: 1, trace: None, quick: false, out_dir: "bench/out".into() };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse()?,
            // The benchmark driver passes it. A pass measures a fixed
            // amount of work (`Plan`), so it only has to be a number.
            "--seconds" => drop(value()?.parse::<f64>()?),
            "--trace" => o.trace = Some(value()?.parse::<u8>()? != 0),
            "--out" => o.out_dir = value()?,
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if let Some(w) = &o.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w}").into());
        }
    }
    Ok(o)
}

/// How much one pass runs. Timings state their sample count; a pass that
/// ends with fewer fails.
///
/// The untraced pass runs `blocks` blocks. A block is a full set-up (one
/// `setup_s` sample, fresh cluster) followed by `cluster_jobs` rounds of
/// one calibration call and one cluster, one pool and one serial job.
/// The amount of work is fixed, not the time: a cluster's job time creeps
/// up with the jobs it has run (README, findings), so a count that moved
/// with speed would move the median with it.
struct Plan {
    sizes: Sizes,
    /// Untimed jobs on every fresh cluster and pool.
    warmups: usize,
    blocks: usize,
    /// Cluster jobs per block in the untraced pass, in all in the traced.
    cluster_jobs: usize,
    /// Jobs of the other planes in the traced pass.
    pool_jobs: usize,
    serial_jobs: usize,
    mock_jobs: usize,
    /// Calls per microbench.
    calls: usize,
}

impl Plan {
    fn new(o: &Options, traced: bool) -> Plan {
        match (o.quick, traced) {
            // 10 x 10 = 100 rounds.
            (false, false) => Plan {
                sizes: Sizes::full(),
                warmups: 5,
                blocks: 10,
                cluster_jobs: 10,
                pool_jobs: 0,
                serial_jobs: 0,
                mock_jobs: 0,
                calls: 0,
            },
            // 30 untraced and 30 traced jobs, alternating, on one cluster.
            (false, true) => Plan {
                sizes: Sizes::full(),
                warmups: 5,
                blocks: 1,
                cluster_jobs: 60,
                pool_jobs: 21,
                serial_jobs: 21,
                mock_jobs: 11,
                calls: 200,
            },
            (true, traced) => Plan {
                sizes: Sizes::quick(),
                warmups: 1,
                blocks: 1,
                cluster_jobs: if traced { 10 } else { 5 },
                pool_jobs: 5,
                serial_jobs: 5,
                mock_jobs: 5,
                calls: 20,
            },
        }
    }
}

/// Jobs attempted and failed over the whole pass, every arm included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// What every arm needs to run and check jobs: the workload, the serial
/// oracle its outputs must equal, and the pass's tally.
struct Bench<'a> {
    w: &'a Workload,
    oracle: &'a [Record],
    tally: &'a mut Tally,
}

impl Bench<'_> {
    /// A job fails if it returns `Err` or if its sorted output differs
    /// from the serial oracle by a single byte.
    fn check(&mut self, result: mrs_core::Result<Vec<Record>>) {
        self.tally.attempted += 1;
        let job = self.tally.attempted;
        match result {
            Ok(mut out) => {
                out.sort();
                if out != self.oracle {
                    self.tally.failed += 1;
                    eprintln!("job {job}: output differs from the serial oracle");
                }
            }
            Err(e) => {
                self.tally.failed += 1;
                eprintln!("job {job}: {e}");
            }
        }
    }

    /// Wall clock of `jobs` checked jobs, each run by `run` on its input.
    fn timed_jobs(
        &mut self,
        jobs: usize,
        mut run: impl FnMut(Vec<Record>) -> mrs_core::Result<Vec<Record>>,
    ) -> Vec<f64> {
        (0..jobs)
            .map(|_| {
                let input = self.w.job_input();
                let t0 = Instant::now();
                let result = run(input);
                let secs = t0.elapsed().as_secs_f64();
                self.check(result);
                secs
            })
            .collect()
    }

    /// Wall clock of `jobs` checked jobs on `api`, recorder off.
    fn phased_jobs(&mut self, api: &mut dyn JobApi, jobs: usize) -> Vec<f64> {
        let (w, mut off) = (self.w, Recorder::new());
        self.timed_jobs(jobs, |input| phased_job(w, api, &mut off, 0, input))
    }

    fn serial_jobs(&mut self, jobs: usize) -> Vec<f64> {
        let w = self.w;
        self.timed_jobs(jobs, |input| {
            w.run_job(&mut SerialRuntime::new(Arc::clone(&w.program)), input)
        })
    }

    /// A warm two-worker pool, as the pool arm and its null rounds use it.
    fn warm_pool(&mut self, plan: &Plan) -> LocalRuntime {
        let mut pool = LocalRuntime::pool(Arc::clone(&self.w.program), SLAVES * SLOTS);
        self.phased_jobs(&mut pool, plan.warmups);
        pool
    }
}

/// One job through [`PhaseJob`]: its phases become spans if the recorder
/// is on, and its datasets are discarded when it is over.
fn phased_job(
    w: &Workload,
    api: &mut dyn JobApi,
    rec: &mut Recorder,
    number: u32,
    input: Vec<Record>,
) -> mrs_core::Result<Vec<Record>> {
    let mut job = PhaseJob::begin(api, rec, number);
    let result = w.run_job(&mut job, input);
    job.finish();
    result
}

fn start_cluster(w: &Workload) -> Res<LocalCluster> {
    let options = SlaveOptions { slots: SLOTS, ..SlaveOptions::default() };
    let cluster = LocalCluster::start_with(
        Arc::clone(&w.program),
        SLAVES,
        DataPlane::Direct,
        MasterConfig::default(),
        options,
    )?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.live_slaves() < SLAVES {
        if Instant::now() > deadline {
            return Err("slaves did not sign in within 10 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(cluster)
}

/// Set-up: generate the input, compute the serial oracle, start the
/// cluster and run the warm-up jobs.
fn set_up(
    name: &str,
    seed: u64,
    plan: &Plan,
    tally: &mut Tally,
) -> Res<(Workload, Vec<Record>, LocalCluster)> {
    let w = Workload::generate(name, seed, &plan.sizes).ok_or("unknown workload")?;
    let mut oracle = w.run_job(&mut SerialRuntime::new(Arc::clone(&w.program)), w.job_input())?;
    oracle.sort();
    let mut cluster = start_cluster(&w)?;
    Bench { w: &w, oracle: &oracle, tally }.phased_jobs(&mut cluster, plan.warmups);
    Ok((w, oracle, cluster))
}

/// The cumulative counters a cluster exposes, read before and after the
/// timed jobs.
struct Counters {
    control_rpcs: u64,
    m: JobMetrics,
}

impl Counters {
    fn read(cluster: &LocalCluster) -> Counters {
        Counters { control_rpcs: cluster.control_requests(), m: cluster.metrics() }
    }
}

/// What the timed cluster jobs of a pass measured.
#[derive(Default)]
struct ClusterArm {
    /// Wall clock of each job with the benchmark recorder off / on.
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Wall and process CPU summed over the job intervals only: output
    /// checking between jobs is the benchmark's cost, not the program's.
    busy_s: f64,
    cpu_s: f64,
    /// The program's own critical-path totals, summed over the jobs.
    phases: PhaseTotals,
    dropped_events: u64,
}

impl ClusterArm {
    fn jobs(&self) -> usize {
        self.untraced_s.len() + self.traced_s.len()
    }

    /// Run `jobs` more timed jobs on `cluster`.
    fn run(
        &mut self,
        b: &mut Bench,
        cluster: &mut LocalCluster,
        jobs: usize,
        traced_pass: bool,
        rec: &mut Recorder,
    ) {
        if traced_pass {
            // Drop what set-up and warm-up left in the program's trace.
            cluster.take_trace();
        }
        for _ in 0..jobs {
            // The traced pass alternates recorder off / on, so both arms
            // see the same drift and their medians give its overhead.
            rec.enabled = traced_pass && self.jobs() % 2 == 1;
            let input = b.w.job_input();
            let cpu0 = cpu_seconds();
            let t0 = Instant::now();
            let result = phased_job(b.w, cluster, rec, self.jobs() as u32 + 1, input);
            let secs = t0.elapsed().as_secs_f64();
            self.cpu_s += cpu_seconds() - cpu0;
            self.busy_s += secs;
            if rec.enabled { &mut self.traced_s } else { &mut self.untraced_s }.push(secs);
            b.check(result);
            if !traced_pass {
                continue;
            }
            if let Some(trace) = cluster.take_trace() {
                let p = trace.critical_path();
                self.phases.wall_us += p.wall_us;
                self.phases.map_exec_us += p.map_exec_us;
                self.phases.reduce_exec_us += p.reduce_exec_us;
                self.phases.fetch_us += p.fetch_us;
                self.phases.merge_us += p.merge_us;
                self.phases.emit_us += p.emit_us;
                self.phases.idle_us += p.idle_us;
                self.dropped_events += trace.dropped;
            }
        }
        rec.enabled = false;
    }
}

/// The untraced pass: the end-to-end metrics.
///
/// Inside a block a round is one calibration call, then one job on each
/// runtime — cluster, pool, serial — on the same input, so every job has
/// a calibration call next to it in time. On this box everything that
/// touches memory runs about half again as slow for seconds at a time,
/// whatever process it is in; the ratio of neighbours cancels that, where
/// the seconds themselves do not.
fn end_to_end_pass(o: &Options, name: &str, tally: &mut Tally) -> Res<Metrics> {
    let plan = Plan::new(o, false);
    let mut rec = Recorder::new();
    let mut arm = ClusterArm::default();
    let (mut setups, mut calib_s) = (Vec::new(), Vec::new());
    let (mut pool_s, mut serial_s) = (Vec::new(), Vec::new());
    let mut rss = f64::NAN;
    for _ in 0..plan.blocks {
        // Made anew in every block, so that where one process's pages
        // happen to lie does not set the unit for a whole pass.
        let mut calibration = Calibration::new();
        let t0 = Instant::now();
        let (w, oracle, mut cluster) = set_up(name, o.seed, &plan, tally)?;
        setups.push(t0.elapsed().as_secs_f64());
        let mut b = Bench { w: &w, oracle: &oracle, tally };
        let mut pool = b.warm_pool(&plan);
        for _ in 0..plan.cluster_jobs {
            calib_s.push(calibration.timed());
            arm.run(&mut b, &mut cluster, 1, false, &mut rec);
            pool_s.extend(b.phased_jobs(&mut pool, 1));
            serial_s.extend(b.serial_jobs(1));
        }
        if setups.len() == 1 {
            // Of the first block only: later blocks start on what the
            // earlier ones left in the heap (README, findings).
            rss = peak_rss_mb();
        }
    }

    let rounds = calib_s.len();
    let need = plan.blocks * plan.cluster_jobs;
    let in_calibrations = |secs: &[f64]| -> f64 {
        median(&secs.iter().zip(&calib_s).map(|(s, unit)| s / unit).collect::<Vec<f64>>())
    };
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), setups.len(), plan.blocks);
    m.put("job_vs_calib_p50", in_calibrations(&arm.untraced_s), rounds, need);
    m.put("pool_vs_calib_p50", in_calibrations(&pool_s), rounds, need);
    m.put("serial_vs_calib_p50", in_calibrations(&serial_s), rounds, need);
    m.put("cpu_vs_calib", arm.cpu_s / calib_s.iter().sum::<f64>(), rounds, need);
    m.put_value("peak_rss_mb", rss);
    Ok(m)
}

/// The traced pass: per-layer metrics, and the Chrome trace on disk.
fn per_layer_pass(o: &Options, name: &str, tally: &mut Tally) -> Res<Metrics> {
    let plan = Plan::new(o, true);
    let (w, oracle, mut cluster) = set_up(name, o.seed, &plan, tally)?;
    let mut b = Bench { w: &w, oracle: &oracle, tally };
    let mut rec = Recorder::new();
    let mut arm = ClusterArm::default();
    let before = Counters::read(&cluster);
    arm.run(&mut b, &mut cluster, plan.cluster_jobs, true, &mut rec);
    let after = Counters::read(&cluster);
    let pairs = plan.cluster_jobs / 2;
    let mut m = Metrics::default();

    // driver: the phases of the traced jobs, from their spans.
    for (metric, span) in [
        ("driver.submit_ms_p50", "driver.submit"),
        ("driver.map_wave_ms_p50", "driver.map_wave"),
        ("driver.reduce_wave_ms_p50", "driver.reduce_wave"),
        ("driver.fetch_out_ms_p50", "driver.fetch_out"),
    ] {
        let per_job: Vec<f64> = rec.job_totals_us(span).iter().map(|us| us / 1e3).collect();
        m.put(metric, median(&per_job), per_job.len(), pairs);
    }
    let job_s = median(&arm.untraced_s);
    let traced_job_s = median(&arm.traced_s);
    m.put("driver.job_s_p50", job_s, arm.untraced_s.len(), pairs);
    m.put("driver.job_s_p90", percentile(&arm.untraced_s, 90.0), arm.untraced_s.len(), pairs);
    m.put(
        "driver.records_per_s",
        (w.records_per_job * arm.jobs() as u64) as f64 / arm.busy_s,
        arm.jobs(),
        plan.cluster_jobs,
    );
    m.put("driver.cpu_s_per_job", arm.cpu_s / arm.jobs() as f64, arm.jobs(), plan.cluster_jobs);
    m.put("driver.iter_ms_p50", traced_job_s * 1e3 / w.rounds as f64, arm.traced_s.len(), pairs);
    m.put("trace.overhead_frac", traced_job_s / job_s - 1.0, arm.traced_s.len(), pairs);

    // runtime: null rounds, the other planes, and the per-job counts.
    rec.enabled = true;
    let us = layers::null_rounds(&w, &mut cluster, "runtime.null_round", plan.calls, &mut rec)?;
    let null_round_us = median(&us);
    m.put("runtime.null_round_us_p50", null_round_us, us.len(), plan.calls);
    drop(cluster);
    let mut pool = b.warm_pool(&plan);
    let pool_s = b.phased_jobs(&mut pool, plan.pool_jobs);
    m.put("driver.pool_job_s_p50", median(&pool_s), pool_s.len(), plan.pool_jobs);
    let us = layers::null_rounds(&w, &mut pool, "runtime.pool_null_round", plan.calls, &mut rec)?;
    m.put("runtime.pool_null_round_us_p50", median(&us), us.len(), plan.calls);
    drop(pool);
    let serial_s = b.serial_jobs(plan.serial_jobs);
    m.put("driver.serial_job_s_p50", median(&serial_s), serial_s.len(), plan.serial_jobs);
    let mock_s = b.timed_jobs(plan.mock_jobs, |input| {
        let mut mock = LocalRuntime::mock_parallel(Arc::clone(&w.program), Arc::new(MemFs::new()));
        w.run_job(&mut mock, input)
    });
    m.put("runtime.mock_job_s_p50", median(&mock_s), mock_s.len(), plan.mock_jobs);
    m.put("runtime.overhead_s", job_s - median(&pool_s), pool_s.len(), plan.pool_jobs);
    runtime_counts(&before, &after, arm.jobs(), &mut m);

    // trace: the program's own critical path, as shares of traced wall.
    let wall = arm.phases.wall_us.max(1) as f64;
    for (metric, us) in [
        ("trace.map_exec_frac", arm.phases.map_exec_us),
        ("trace.reduce_exec_frac", arm.phases.reduce_exec_us),
        ("trace.fetch_frac", arm.phases.fetch_us),
        ("trace.merge_frac", arm.phases.merge_us),
        ("trace.emit_frac", arm.phases.emit_us),
        ("trace.idle_frac", arm.phases.idle_us),
    ] {
        m.put_value(metric, us as f64 / wall);
    }
    m.put_value("trace.dropped_events", arm.dropped_events as f64);

    layers::run(&w, plan.calls, &mut rec, &mut m)?;

    // model (Sanders): work / p + volume / bandwidth + rounds x latency.
    // What the prediction leaves over is unattributed framework overhead.
    // The volume is the shuffle alone, map output as framed for the wire:
    // `runtime.bytes_on_wire_per_job` also counts input splits and output.
    let get = |name: &str| m.get(name).unwrap_or(f64::NAN);
    let workers = (SLAVES * SLOTS) as f64;
    let map_us = w.rounds as f64 * w.maps as f64 * get("core.map_us_p50");
    let reduce_us = w.rounds as f64 * w.reduces as f64 * get("core.reduce_us_p50");
    println!("share {name} core.map {}", map_us * 1e-6 / workers / job_s);
    let shuffle_bytes =
        w.rounds as f64 * get("core.map_output_bytes_per_wave") * get("codec.ratio");
    let predicted = (map_us + reduce_us) * 1e-6 / workers
        + shuffle_bytes / (get("rpc.fetch_mb_s") * 1e6)
        + w.rounds as f64 * null_round_us * 1e-6;
    m.put_value("model.predicted_job_s", predicted);
    m.put_value("model.residual_frac", (job_s - predicted) / job_s);

    rec.check_nesting()?;
    write_trace(o, &w, &rec)?;
    Ok(m)
}

/// Fill the `runtime.*` counts from the counter deltas over `jobs` jobs.
fn runtime_counts(before: &Counters, after: &Counters, jobs: usize, m: &mut Metrics) {
    type Read = fn(&JobMetrics) -> u64;
    let (a, b) = (&before.m, &after.m);
    let per_job: [(&'static str, Read); 12] = [
        ("runtime.tasks_per_job", JobMetrics::tasks_executed),
        ("runtime.dispatch_polls_per_job", JobMetrics::dispatch_polls),
        ("runtime.longpoll_parks_per_job", JobMetrics::longpoll_parks),
        ("runtime.piggybacked_reports_per_job", JobMetrics::piggybacked_reports),
        ("runtime.wakeups_per_job", JobMetrics::wakeups),
        ("runtime.bytes_pre_compress_per_job", JobMetrics::bytes_pre_compress),
        ("runtime.bytes_on_wire_per_job", JobMetrics::bytes_on_wire),
        ("runtime.shortcircuit_fetches_per_job", JobMetrics::shortcircuit_fetches),
        ("runtime.eager_fragments_per_job", JobMetrics::eager_fragments),
        ("runtime.residual_fetches_per_job", JobMetrics::residual_fetches),
        ("runtime.merge_runs_per_job", JobMetrics::merge_runs),
        ("runtime.premerged_runs_per_job", JobMetrics::premerged_runs),
    ];
    // Event totals over the whole arm, not per job.
    let totals: [(&'static str, Read); 3] = [
        ("runtime.connections_opened", JobMetrics::connections_opened),
        ("runtime.tasks_retried", JobMetrics::tasks_retried),
        ("runtime.speculative_launches", JobMetrics::speculative_launches),
    ];
    let delta = |read: Read| (read(b) - read(a)) as f64;
    m.put_value(
        "runtime.control_rpcs_per_job",
        (after.control_rpcs - before.control_rpcs) as f64 / jobs as f64,
    );
    for (name, read) in per_job {
        m.put_value(name, delta(read) / jobs as f64);
    }
    for (name, read) in totals {
        m.put_value(name, delta(read));
    }
    // A high-water mark since the cluster started.
    m.put_value("runtime.peak_reduce_records", b.peak_reduce_records() as f64);
    // Committed attempts over launched attempts.
    m.put_value(
        "runtime.attempt_efficiency",
        delta(JobMetrics::tasks_executed) / delta(JobMetrics::dispatched_tasks).max(1.0),
    );
}

fn provenance(o: &Options) -> Vec<(&'static str, String)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("seed", o.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("cluster", format!("{SLAVES} slaves x {SLOTS} slot")),
        ("commit", env("MRS_BENCH_COMMIT")),
        ("rustc", env("MRS_BENCH_RUSTC")),
        ("quick", o.quick.to_string()),
    ]
}

fn provenance_line(o: &Options) -> String {
    provenance(o).iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" | ")
}

fn write_trace(o: &Options, w: &Workload, rec: &Recorder) -> Res<()> {
    std::fs::create_dir_all(&o.out_dir)?;
    let path = format!("{}/{}.trace.json", o.out_dir, w.name);
    let title = format!("mrs-e2e {} seed {}", w.name, o.seed);
    std::fs::write(&path, rec.chrome_json(&title, &provenance(o)))?;
    println!("trace written to {path}");
    Ok(())
}

/// One pass of one workload in this process. Prints every metric by
/// name with unit and sample count, then the contract's JSON object.
fn run_pass(o: &Options, name: &str, traced: bool) -> Res<bool> {
    println!("# pass {name} trace={} | {}", traced as u8, provenance_line(o));
    let mut tally = Tally::default();
    let (metrics, schema): (_, &[(&str, &str)]) = if traced {
        (per_layer_pass(o, name, &mut tally)?, &PER_LAYER)
    } else {
        (end_to_end_pass(o, name, &mut tally)?, &END_TO_END)
    };
    let problems = metrics.check(schema);
    for p in &problems {
        eprintln!("schema: {p}");
    }
    let unit = |name: &str| schema.iter().find(|(n, _)| *n == name).map_or("?", |(_, u)| u);
    let mut json = String::new();
    for m in &metrics.0 {
        println!("metric {name} {} {} {} n={}", m.name, m.value, unit(m.name), m.n);
        let comma = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            m.value,
            unit(m.name)
        );
    }
    println!("jobs {name} jobs_attempted {} jobs_failed {}", tally.attempted, tally.failed);
    if !problems.is_empty() {
        // No result line: a pass whose metrics break the schema has none.
        return Ok(false);
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.attempted, tally.failed
    );
    Ok(correct)
}

fn main() {
    let code = match parse_options().and_then(|o| match (o.trace, o.workload.clone()) {
        (Some(traced), Some(name)) => run_pass(&o, &name, traced),
        (Some(_), None) => Err("--trace needs --workload".into()),
        (None, _) => suite::run(&o),
    }) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("mrs-e2e: {e}");
            2
        }
    };
    std::process::exit(code);
}
