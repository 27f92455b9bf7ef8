//! Metric names (the schema every later issue cites), percentiles, and
//! the process-level readings.

/// End-to-end metrics, reported by the untraced pass. `BENCHMARK.json`
/// fixes a regression bound for each.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("job_vs_calib_p50", "ratio"),
    ("pool_vs_calib_p50", "ratio"),
    ("serial_vs_calib_p50", "ratio"),
    ("cpu_vs_calib", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced pass; the prefix is the
/// module the number belongs to.
pub const PER_LAYER: [(&str, &str); 61] = [
    // Wall-clock and CPU seconds as a user reads them. Too unsteady on
    // the reference box to carry a bound (README, "Why ratios"), so they
    // sit here, their names prefixed with `driver.`.
    ("driver.job_s_p50", "s"),
    ("driver.job_s_p90", "s"),
    ("driver.records_per_s", "1/s"),
    ("driver.cpu_s_per_job", "s"),
    ("driver.pool_job_s_p50", "s"),
    ("driver.serial_job_s_p50", "s"),
    ("driver.submit_ms_p50", "ms"),
    ("driver.map_wave_ms_p50", "ms"),
    ("driver.reduce_wave_ms_p50", "ms"),
    ("driver.fetch_out_ms_p50", "ms"),
    ("driver.iter_ms_p50", "ms"),
    ("core.map_us_p50", "us"),
    ("core.map_records_per_s", "1/s"),
    ("core.map_output_bytes_per_wave", "bytes"),
    ("core.sort_us_p50", "us"),
    ("core.merge_us_p50", "us"),
    ("core.reduce_us_p50", "us"),
    ("codec.encode_mb_s", "MB/s"),
    ("codec.decode_mb_s", "MB/s"),
    ("codec.ratio", "ratio"),
    ("fs.write_bucket_mb_s", "MB/s"),
    ("fs.read_bucket_mb_s", "MB/s"),
    ("rpc.fetch_us_p50", "us"),
    ("rpc.fetch_mb_s", "MB/s"),
    ("rpc.get64_us_p50", "us"),
    ("rpc.xmlrpc_call_us_p50", "us"),
    ("rpc.xmlrpc_codec_us_p50", "us"),
    ("proto.dispatch_codec_us_p50", "us"),
    ("master.dispatch_us_p50", "us"),
    ("runtime.null_round_us_p50", "us"),
    ("runtime.pool_null_round_us_p50", "us"),
    ("runtime.mock_job_s_p50", "s"),
    ("runtime.overhead_s", "s"),
    ("runtime.control_rpcs_per_job", "count"),
    ("runtime.tasks_per_job", "count"),
    ("runtime.dispatch_polls_per_job", "count"),
    ("runtime.longpoll_parks_per_job", "count"),
    ("runtime.piggybacked_reports_per_job", "count"),
    ("runtime.wakeups_per_job", "count"),
    ("runtime.bytes_pre_compress_per_job", "bytes"),
    ("runtime.bytes_on_wire_per_job", "bytes"),
    ("runtime.shortcircuit_fetches_per_job", "count"),
    ("runtime.eager_fragments_per_job", "count"),
    ("runtime.residual_fetches_per_job", "count"),
    ("runtime.merge_runs_per_job", "count"),
    ("runtime.premerged_runs_per_job", "count"),
    ("runtime.peak_reduce_records", "count"),
    ("runtime.connections_opened", "count"),
    ("runtime.tasks_retried", "count"),
    ("runtime.speculative_launches", "count"),
    ("runtime.attempt_efficiency", "ratio"),
    ("trace.map_exec_frac", "ratio"),
    ("trace.reduce_exec_frac", "ratio"),
    ("trace.fetch_frac", "ratio"),
    ("trace.merge_frac", "ratio"),
    ("trace.emit_frac", "ratio"),
    ("trace.idle_frac", "ratio"),
    ("trace.dropped_events", "count"),
    ("trace.overhead_frac", "ratio"),
    ("model.predicted_job_s", "s"),
    ("model.residual_frac", "ratio"),
];

/// One reported number. `n` is the sample count behind it and `need` the
/// count the pass states for it; a metric with `n < need` fails the run.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub n: usize,
    pub need: usize,
}

/// Collects a pass's metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A number derived from `n` samples, of which `need` were required.
    pub fn put(&mut self, name: &'static str, value: f64, n: usize, need: usize) {
        self.0.push(Metric { name, value, n, need });
    }

    /// A count or ratio that is not a sample statistic.
    pub fn put_value(&mut self, name: &'static str, value: f64) {
        self.put(name, value, 1, 1);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Check the pass against its schema: every name present exactly
    /// once, nothing unnamed, every value finite, every sample count met.
    pub fn check(&self, schema: &[(&str, &str)]) -> Vec<String> {
        let mut problems = Vec::new();
        for (name, _) in schema {
            match self.0.iter().filter(|m| m.name == *name).count() {
                1 => {}
                0 => problems.push(format!("metric {name} is missing")),
                k => problems.push(format!("metric {name} reported {k} times")),
            }
        }
        for m in &self.0 {
            if !schema.iter().any(|(name, _)| *name == m.name) {
                problems.push(format!("metric {} is not in the schema", m.name));
            }
            if !m.value.is_finite() {
                problems.push(format!("metric {} is not finite", m.name));
            }
            if m.n < m.need {
                problems.push(format!("metric {} has {} samples, needs {}", m.name, m.n, m.need));
            }
        }
        problems
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// User+system CPU seconds of this whole process so far — driver, master
/// and slaves together — from `/proc/self/stat` (fields 14 and 15, in
/// clock ticks of 1/100 s on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The parenthesised command name may contain spaces: split after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
