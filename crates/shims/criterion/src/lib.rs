//! Offline drop-in replacement for the subset of `criterion` this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so external
//! dependencies are vendored as minimal shims (see `crates/shims/`).
//! This harness keeps Criterion's bench-definition API
//! (`criterion_group!`/`criterion_main!`, groups, `Bencher::iter`) and
//! reports mean/min wall-clock time per iteration. There is no
//! statistical analysis, HTML report, or saved baseline — numbers are
//! printed to stdout, one line per benchmark. As with Criterion, the
//! first argument that is not a flag (`cargo bench -- bucket_sort`)
//! runs only the benchmarks whose `group/id` label contains it.

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export for convenience; real criterion has its own `black_box`.
pub use std::hint::black_box;

/// Top-level harness handle, passed to every bench function.
pub struct Criterion {
    /// Target measurement time per benchmark.
    measurement_time: Duration,
    /// Substring a benchmark's `group/id` label must contain to run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Cargo passes `--bench` ahead of the user's own arguments.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { measurement_time: Duration::from_secs(1), filter }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 100,
            measurement_time: None,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut group = self.benchmark_group(id.clone());
        group.bench_function("", f);
        group.finish();
        self
    }
}

/// Identifier `function_name/parameter` used by `bench_with_input`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = Some(d);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let label = if id.is_empty() { self.name.clone() } else { format!("{}/{}", self.name, id) };
        if self.criterion.filter.as_ref().is_some_and(|f| !label.contains(f.as_str())) {
            return self;
        }
        let budget = self.measurement_time.unwrap_or(self.criterion.measurement_time);
        let mut bencher = Bencher { budget, samples: self.sample_size, measurements: Vec::new() };
        f(&mut bencher);
        report(&label, &bencher.measurements);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id.to_string(), |b| f(b, input))
    }

    pub fn finish(self) {}
}

/// Timing loop handle. `iter` runs the closure repeatedly and records
/// per-iteration wall-clock time.
pub struct Bencher {
    budget: Duration,
    samples: usize,
    measurements: Vec<Duration>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and per-iteration cost estimate.
        let start = Instant::now();
        black_box(f());
        let estimate = start.elapsed().max(Duration::from_nanos(1));

        // Aim for `samples` samples inside the time budget, at least one
        // iteration per sample.
        let per_sample = self.budget / self.samples as u32;
        let iters = (per_sample.as_nanos() / estimate.as_nanos()).clamp(1, 1_000_000) as u32;

        let deadline = Instant::now() + self.budget;
        self.measurements.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.measurements.push(start.elapsed() / iters);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

fn report(label: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{label:<40} (no samples)");
        return;
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    let max = samples.iter().max().copied().unwrap_or_default();
    println!(
        "{label:<40} time: [{} {} {}]  ({} samples)",
        fmt_duration(min),
        fmt_duration(mean),
        fmt_duration(max),
        samples.len()
    );
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.3} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.3} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.3} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Collect bench functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Entry point running each group in sequence.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion { measurement_time: Duration::from_millis(20), filter: None };
        let mut group = c.benchmark_group("shim_smoke");
        group.sample_size(5);
        let mut count = 0u64;
        group.bench_function("increment", |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        group.finish();
        assert!(count > 0);
    }

    #[test]
    fn filter_skips_benchmarks_whose_label_does_not_contain_it() {
        let filter = Some("sort/wc".to_string());
        let mut c = Criterion { measurement_time: Duration::from_millis(5), filter };
        let mut group = c.benchmark_group("bucket_sort");
        group.sample_size(1);
        let (mut matched, mut skipped) = (0u64, 0u64);
        group.bench_function("wc_map_partition", |b| b.iter(|| matched += 1));
        group.bench_function("sort_range_bucket", |_| skipped += 1);
        group.finish();
        c.bench_function("shuffle_combine/wc", |_| skipped += 1);
        assert!(matched > 0, "a matching label runs");
        assert_eq!(skipped, 0, "a label without the filter never calls its closure");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("kernel", 42).to_string(), "kernel/42");
    }
}
