//! Distributed grep — the first example in Dean & Ghemawat's original
//! MapReduce paper (the paper's ref \[1\]): map emits the lines that
//! contain a pattern, keyed by line number so the reduce (identity)
//! returns matches in input order.

use mrs_core::{Datum, MapReduce, Record, Result};

/// The grep program: substring match, identity reduce.
pub struct Grep {
    /// The substring to search for.
    pub pattern: String,
}

impl MapReduce for Grep {
    type K1 = u64; // line number
    type V1 = String; // line
    type K2 = u64; // line number (so output can be re-ordered)
    type V2 = String; // matching line

    fn map(&self, line_no: u64, line: &str, emit: &mut dyn FnMut(u64, &str)) {
        if line.contains(&self.pattern) {
            emit(line_no, line);
        }
    }

    fn reduce(
        &self,
        _line_no: u64,
        values: &mut dyn Iterator<Item = &str>,
        emit: &mut dyn FnMut(&str),
    ) {
        for line in values {
            emit(line);
        }
    }
}

/// Decode grep output into `(line_no, line)` pairs sorted by line number.
pub fn decode_matches(records: &[Record]) -> Result<Vec<(u64, String)>> {
    let mut out: Vec<(u64, String)> = records
        .iter()
        .map(|(k, v)| Ok((u64::from_bytes(k)?, String::from_bytes(v)?)))
        .collect::<Result<_>>()?;
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::wordcount::lines_to_records;
    use mrs_core::Simple;
    use mrs_runtime::{Job, LocalRuntime};
    use std::sync::Arc;

    fn run_grep(pattern: &str, lines: &[&str]) -> Vec<(u64, String)> {
        let program = Arc::new(Simple(Grep { pattern: pattern.to_owned() }));
        let mut rt = LocalRuntime::pool(program, 3);
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(lines_to_records(lines.iter().copied()), 3, 2, false).unwrap();
        decode_matches(&out).unwrap()
    }

    #[test]
    fn finds_matching_lines_in_order() {
        let lines = ["alpha beta", "gamma", "beta gamma", "delta"];
        let matches = run_grep("beta", &lines);
        assert_eq!(matches, vec![(0, "alpha beta".to_string()), (2, "beta gamma".to_string())]);
    }

    #[test]
    fn no_matches_is_empty() {
        assert!(run_grep("zzz", &["a", "b"]).is_empty());
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let lines = ["x", "y"];
        assert_eq!(run_grep("", &lines).len(), 2);
    }

    #[test]
    fn matches_agree_with_std_filter() {
        let corpus = corpus::Corpus::new(corpus::CorpusConfig {
            n_files: 3,
            mean_tokens: 200,
            vocab: 50,
            ..corpus::CorpusConfig::default()
        });
        let doc = corpus.document(0) + &corpus.document(1) + &corpus.document(2);
        let lines: Vec<&str> = doc.lines().collect();
        let pattern = "ba";
        let expected: Vec<String> =
            lines.iter().filter(|l| l.contains(pattern)).map(|l| l.to_string()).collect();
        let got: Vec<String> = run_grep(pattern, &lines).into_iter().map(|(_, l)| l).collect();
        assert_eq!(got, expected);
    }
}
