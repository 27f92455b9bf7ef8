//! WordCount — the Rust rendering of the paper's Program 1.
//!
//! The whole program, like the Python version, is just a `map` that splits
//! lines and a `reduce` that sums; the reduce doubles as the combiner
//! without modification (§V-A).

use corpus::tokenizer::tokenize;
use mrs_core::kv::encode_record;
use mrs_core::{Datum, MapReduce, Record, Result};
use std::collections::HashMap;

/// The WordCount program.
///
/// `map` sees its line as a `&str` borrowed from the input record and
/// emits each word as a `&str` borrowed from that line: from `emit` to the
/// driver a record is only ever bytes, and a token costs no allocation.
/// Words are split by [`tokenize`], the one tokenizer the reference
/// counts use too.
///
/// ```
/// use mrs_core::MapReduce;
/// let p = mrs::apps::wordcount::WordCount;
/// let mut out = Vec::new();
/// p.map(0, "a b a", &mut |w, c| out.push((w.to_owned(), c)));
/// assert_eq!(out, [("a".to_owned(), 1), ("b".to_owned(), 1), ("a".to_owned(), 1)]);
/// ```
pub struct WordCount;

impl MapReduce for WordCount {
    type K1 = u64;
    type V1 = String;
    type K2 = String;
    type V2 = u64;

    fn map(&self, _line_no: u64, line: &str, emit: &mut dyn FnMut(&str, u64)) {
        for word in tokenize(line) {
            emit(word, 1);
        }
    }

    fn reduce(
        &self,
        _word: &str,
        counts: &mut dyn Iterator<Item = u64>,
        emit: &mut dyn FnMut(u64),
    ) {
        emit(counts.sum());
    }

    fn has_combiner(&self) -> bool {
        true
    }
}

/// Turn text lines into `(line_no, line)` input records.
pub fn lines_to_records<'a, I: IntoIterator<Item = &'a str>>(lines: I) -> Vec<Record> {
    lines.into_iter().enumerate().map(|(i, l)| encode_record(&(i as u64), &l.to_string())).collect()
}

/// Turn a whole multi-document corpus (name, text) list into records with
/// globally distinct line numbers.
pub fn documents_to_records<'a, I: IntoIterator<Item = &'a str>>(documents: I) -> Vec<Record> {
    let mut records = Vec::new();
    let mut next_line = 0u64;
    for doc in documents {
        for line in doc.lines() {
            records.push(encode_record(&next_line, &line.to_string()));
            next_line += 1;
        }
    }
    records
}

/// Decode WordCount output records into a count map.
pub fn decode_counts(records: &[Record]) -> Result<HashMap<String, u64>> {
    let mut out = HashMap::with_capacity(records.len());
    for (k, v) in records {
        out.insert(String::from_bytes(k)?, u64::from_bytes(v)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::Simple;
    use mrs_runtime::{Job, SerialRuntime};
    use std::sync::Arc;

    #[test]
    fn end_to_end_matches_reference() {
        let lines = ["the cat sat on the mat", "the end", ""];
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(lines_to_records(lines), 1, 2, true).unwrap();
        let counts = decode_counts(&out).unwrap();
        let reference = corpus::tokenizer::reference_counts(lines);
        assert_eq!(counts.len(), reference.len());
        for (w, c) in reference {
            assert_eq!(counts.get(&w), Some(&c), "word {w}");
        }
    }

    #[test]
    fn documents_get_distinct_line_numbers() {
        let records = documents_to_records(["a\nb\n", "c\n"]);
        assert_eq!(records.len(), 3);
        let keys: Vec<u64> = records.iter().map(|(k, _)| u64::from_bytes(k).unwrap()).collect();
        assert_eq!(keys, vec![0, 1, 2]);
    }

    #[test]
    fn empty_input_empty_output() {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(vec![], 1, 1, false).unwrap();
        assert!(out.is_empty());
    }
}
