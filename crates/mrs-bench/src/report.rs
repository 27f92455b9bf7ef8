//! Shared `BENCH_*.json` writer for the experiment binaries.
//!
//! Every bench emits a flat JSON object summarizing its run — read by
//! humans and by the CI smoke checks. Until PR 10 each binary
//! hand-rolled its own `format!` block; this module is the one place
//! that knows the conventions: insertion order preserved (the file reads
//! top-down like the experiment), fixed float precision, one copy under
//! `results/` next to the CSVs, and the closing "wrote ..." line.

use crate::results_path;

/// An order-preserving flat JSON object, written as
/// `results/BENCH_<file>.json`.
pub struct Report {
    entries: Vec<(String, String)>,
}

impl Report {
    /// Start a report for the named bench (`"bench": name` first).
    pub fn new(bench: &str) -> Report {
        let mut r = Report { entries: Vec::new() };
        r.str("bench", bench);
        r
    }

    fn push(&mut self, key: &str, rendered: String) -> &mut Self {
        self.entries.push((key.to_owned(), rendered));
        self
    }

    /// A string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.push(key, format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
    }

    /// An integer field.
    pub fn int(&mut self, key: &str, v: impl Into<i128>) -> &mut Self {
        self.push(key, v.into().to_string())
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.push(key, v.to_string())
    }

    /// A float field with explicit decimal places (the benches use 6 for
    /// seconds, 3 for milliseconds and ratios).
    pub fn float(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        self.push(key, format!("{v:.decimals$}"))
    }

    /// A seconds duration (6 decimals, the bench convention).
    pub fn secs(&mut self, key: &str, v: f64) -> &mut Self {
        self.float(key, v, 6)
    }

    /// A pre-rendered JSON value (arrays, nested objects). The caller
    /// vouches for its validity.
    pub fn raw(&mut self, key: &str, v: &str) -> &mut Self {
        self.push(key, v.to_owned())
    }

    /// Render the JSON object, keys in insertion order.
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            out.push_str(&format!("  \"{k}\": {v}"));
            out.push_str(if i + 1 == self.entries.len() { "\n" } else { ",\n" });
        }
        out.push_str("}\n");
        out
    }

    /// Write `results/BENCH_<file>.json` and print the conventional
    /// closing line with `note` appended after a semicolon.
    pub fn write(&self, file: &str, note: &str) {
        let path = results_path(&format!("BENCH_{file}.json"));
        std::fs::write(&path, self.json())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("\nwrote {}; {note}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_in_insertion_order_with_fixed_precision() {
        let mut r = Report::new("demo");
        r.int("words", 500u32).secs("wall", 1.25).float("speedup", 2.0, 3).bool("ok", true);
        assert_eq!(
            r.json(),
            "{\n  \"bench\": \"demo\",\n  \"words\": 500,\n  \"wall\": 1.250000,\n  \
             \"speedup\": 2.000,\n  \"ok\": true\n}\n"
        );
    }

    #[test]
    fn escapes_strings() {
        let mut r = Report::new("demo");
        r.str("path", "a\"b\\c");
        assert!(r.json().contains("\"path\": \"a\\\"b\\\\c\""));
    }
}
