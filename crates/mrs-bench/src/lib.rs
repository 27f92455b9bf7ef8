//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation (§V) has a binary in
//! `src/bin/` that regenerates it as `results/<bin>.csv` (see DESIGN.md's
//! experiment index), and nothing else lives there: the system's own
//! end-to-end and per-layer numbers come from the benchmark in `bench/`,
//! and its correctness claims are tier-1 tests. This library holds the
//! common pieces: aligned table printing, CSV output, repeat-and-summarize
//! timing, and the standard experiment scales.

pub mod pi_sweep;
pub mod table;
pub mod timing;

pub use table::Table;
pub use timing::{median_secs, time_secs};

/// Directory experiment binaries write CSVs into.
pub const RESULTS_DIR: &str = "results";

/// Ensure the results directory exists and return a path inside it.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(RESULTS_DIR);
    let _ = std::fs::create_dir_all(dir);
    dir.join(name)
}

/// Parse `--flag value`-style options plus positionals from `args`.
/// Tiny on purpose: the binaries take at most a couple of knobs.
pub struct Args {
    positionals: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    /// Parse the process arguments (after argv\[0\]).
    pub fn parse() -> Args {
        let mut positionals = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = iter.next().unwrap_or_default();
                flags.insert(name.to_owned(), value);
            } else {
                positionals.push(a);
            }
        }
        Args { positionals, flags }
    }

    /// Positional argument `i`, parsed, or the default.
    pub fn pos<T: std::str::FromStr>(&self, i: usize, default: T) -> T {
        self.positionals.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    }

    /// Flag `--name`, parsed, or the default.
    pub fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flags.get(name).and_then(|s| s.parse().ok()).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_path_is_under_results_dir() {
        let p = super::results_path("x.csv");
        assert!(p.starts_with(super::RESULTS_DIR));
    }
}
