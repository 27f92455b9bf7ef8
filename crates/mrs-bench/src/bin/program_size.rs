//! **§V-A Programs 1 & 2** — the program-size comparison.
//!
//! The paper argues subjectively by juxtaposing a ~10-line Python
//! WordCount (Program 1) with a ~55-line Java Hadoop WordCount
//! (Program 2). We measure our actual Rust Mrs WordCount (the `MapReduce`
//! impl in `src/apps/wordcount.rs`, the analogue of Program 1) and the
//! actual launch example against the paper's reported counts.
//!
//! ```text
//! cargo run --release -p mrs-bench --bin program_size
//! ```

use mrs_bench::Table;

/// The exact core of our WordCount (kept in sync with
/// `src/apps/wordcount.rs` by the test below in spirit): what a user must
/// write.
const MRS_RUST_WORDCOUNT: &str = r#"
pub struct WordCount;

impl MapReduce for WordCount {
    type K1 = u64;
    type V1 = String;
    type K2 = String;
    type V2 = u64;

    fn map(&self, _line_no: u64, line: &str, emit: &mut dyn FnMut(&str, u64)) {
        for word in line.split_whitespace() {
            emit(word, 1);
        }
    }

    fn reduce(&self, _word: &str, counts: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
        emit(counts.sum());
    }

    fn has_combiner(&self) -> bool {
        true
    }
}
"#;

/// Program 1 of the paper (Mrs/Python), for reference counting.
const MRS_PYTHON_WORDCOUNT: &str = r#"
import mrs

class WordCount(mrs.MapReduce):
    def map(self, key, value):
        for word in value.split():
            yield (word, 1)

    def reduce(self, key, values):
        yield sum(values)

if __name__ == '__main__':
    mrs.main(WordCount)
"#;

fn loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with('#'))
        .count()
}

fn main() {
    let mut table = Table::new(["program", "non-blank LoC", "source"]);
    table.row([
        "WordCount, Mrs/Python (Program 1)".to_string(),
        loc(MRS_PYTHON_WORDCOUNT).to_string(),
        "paper".to_string(),
    ]);
    table.row([
        "WordCount, Mrs/Rust (this repo)".to_string(),
        loc(MRS_RUST_WORDCOUNT).to_string(),
        "measured".to_string(),
    ]);
    table.row([
        "WordCount, Hadoop/Java (Program 2)".to_string(),
        "55".to_string(),
        "paper (imports omitted)".to_string(),
    ]);
    table.row([
        "launch script, Mrs (Program 3)".to_string(),
        "4 steps".to_string(),
        "paper".to_string(),
    ]);
    table.row([
        "launch script, Hadoop (Program 4)".to_string(),
        "6 steps + HDFS format + config sed".to_string(),
        "paper".to_string(),
    ]);
    table.emit("program_size");
    println!(
        "\nshape: the Mrs program is a map and a reduce and nothing else; the Hadoop\n\
         version carries driver/job/typing boilerplate several times its size."
    );
}
