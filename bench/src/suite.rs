//! The whole suite: both passes of every workload, one child process
//! each, then one table of every metric by name and the checks that the
//! workloads separate the layers as `README.md` predicts.

use crate::stats::{END_TO_END, PER_LAYER};
use crate::workload::WORKLOADS;
use crate::{provenance_line, Options, Res};
use std::collections::BTreeMap;
use std::process::Command;

/// `workload -> metric -> (value, samples)`, plus the job counts.
#[derive(Default)]
struct Results {
    metrics: BTreeMap<String, BTreeMap<String, (f64, usize)>>,
    /// `workload -> share of job_s_p50 spent in the map kernel`.
    map_share: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

impl Results {
    /// Take the `metric` and `jobs` lines out of one pass's output.
    fn absorb(&mut self, stdout: &str) {
        for line in stdout.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["metric", workload, name, value, _unit, n] => {
                    let value = value.parse().unwrap_or(f64::NAN);
                    let n = n.trim_start_matches("n=").parse().unwrap_or(0);
                    self.metrics
                        .entry((*workload).into())
                        .or_default()
                        .insert((*name).into(), (value, n));
                }
                ["share", workload, "core.map", share] => {
                    self.map_share.insert((*workload).into(), share.parse().unwrap_or(f64::NAN));
                }
                ["jobs", _, "jobs_attempted", attempted, "jobs_failed", failed] => {
                    self.attempted += attempted.parse().unwrap_or(0);
                    self.failed += failed.parse().unwrap_or(1);
                }
                _ => {}
            }
        }
    }

    fn get(&self, workload: &str, metric: &str) -> f64 {
        self.metrics.get(workload).and_then(|m| m.get(metric)).map_or(f64::NAN, |(v, _)| *v)
    }
}

/// `BENCHMARK.json` has to name exactly the workloads and metrics this
/// binary reports; returns what it lacks or has in excess.
fn check_benchmark_json() -> Vec<String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return vec!["BENCHMARK.json not found in the working directory".into()];
    };
    let expected = WORKLOADS.iter().chain(END_TO_END.iter()).chain(PER_LAYER.iter());
    let mut problems: Vec<String> = expected
        .clone()
        .filter(|(name, _)| !text.contains(&format!("\"name\": \"{name}\"")))
        .map(|(name, _)| format!("BENCHMARK.json does not name {name}"))
        .collect();
    let named = text.matches("\"name\":").count();
    if named != expected.count() {
        problems.push(format!("BENCHMARK.json names {named} things, the benchmark reports others"));
    }
    problems
}

pub fn run(o: &Options) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![WORKLOADS.iter().find(|(n, _)| n == w).ok_or("unknown workload")?.0],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut results = Results::default();
    let mut ok = true;
    for problem in check_benchmark_json() {
        eprintln!("suite: {problem}");
        ok = false;
    }
    for name in &names {
        for traced in ["0", "1"] {
            let mut child = Command::new(&exe);
            child.args(["--workload", name, "--trace", traced, "--out", &o.out_dir]);
            child.args(["--seed", &o.seed.to_string()]);
            if o.quick {
                child.arg("--quick");
            }
            // stderr is inherited: job failures and schema problems show.
            let output = child.stderr(std::process::Stdio::inherit()).output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            results.absorb(&stdout);
            if !output.status.success() {
                eprintln!("suite: pass {name} trace={traced} exited with {}", output.status);
                ok = false;
            }
        }
    }

    println!("\n## Summary\n\n{}\n", provenance_line(o));
    println!("jobs_attempted {} | jobs_failed {}\n", results.attempted, results.failed);
    println!("| metric | unit | {} |", names.join(" | "));
    println!("|---|---|{}", "---|".repeat(names.len()));
    for (metric, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let cells: Vec<String> = names
            .iter()
            .map(|w| match results.metrics.get(*w).and_then(|m| m.get(*metric)) {
                Some((value, n)) => format!("{} (n={n})", short(*value)),
                None => {
                    eprintln!("suite: metric {metric} is missing for {w}");
                    ok = false;
                    "missing".into()
                }
            })
            .collect();
        println!("| `{metric}` | {unit} | {} |", cells.join(" | "));
    }
    if o.workload.is_none() && !o.quick {
        separation(&results);
    }
    Ok(ok && results.failed == 0)
}

/// Four significant digits: the table is for reading, the `metric` lines
/// above it carry every digit.
fn short(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return v.to_string();
    }
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// The predictions of `README.md`, checked on this run. A miss means a
/// workload needs resizing, not that the program regressed, so it does
/// not change the exit code.
fn separation(r: &Results) {
    let share = |w: &str| r.map_share.get(w).copied().unwrap_or(f64::NAN);
    let highest_on = |metric: &str, w: &str| {
        WORKLOADS.iter().all(|(other, _)| *other == w || r.get(other, metric) < r.get(w, metric))
    };
    let tenfold = |metric: &str| r.get("wc_shuffle", metric) >= 10.0 * r.get("wc_combine", metric);
    let checks = [
        // The issue's check. That counter also counts the input splits
        // and the fetched output, equal on both workloads, so it cannot
        // hold at any size; the line below it checks the shuffle alone.
        (
            "runtime.bytes_on_wire_per_job: wc_shuffle >= 10 x wc_combine (the issue's check)",
            tenfold("runtime.bytes_on_wire_per_job"),
        ),
        (
            "core.map_output_bytes_per_wave: wc_shuffle >= 10 x wc_combine (in its place)",
            tenfold("core.map_output_bytes_per_wave"),
        ),
        ("codec.ratio on sort_range >= 0.9", r.get("sort_range", "codec.ratio") >= 0.9),
        ("codec.ratio on wc_shuffle <= 0.6", r.get("wc_shuffle", "codec.ratio") <= 0.6),
        (
            "control_rpcs_per_job highest on pso_iter",
            highest_on("runtime.control_rpcs_per_job", "pso_iter"),
        ),
        ("trace.idle_frac highest on pso_iter", highest_on("trace.idle_frac", "pso_iter")),
        (
            "core.map share of job_s_p50 highest on wc_combine",
            WORKLOADS.iter().all(|(w, _)| *w == "wc_combine" || share(w) < share("wc_combine")),
        ),
    ];
    println!("\n## Layer separation\n");
    for (what, holds) in checks {
        println!("- {}: {what}", if holds { "holds" } else { "MISSED" });
    }
}
