//! The calibration kernel: the unit the end-to-end timings are given in.
//!
//! A fixed computation on standard-library types only. It calls nothing
//! of the repo, so no change to the program can move it, and it is the
//! same on every seed and workload. One call is timed at the head of
//! every round, next to that round's cluster, pool and serial job; what
//! the machine does to all four cancels in their ratio, and what a change
//! does to the program's own code does not (dividing by the serial job
//! instead would cancel a change to the kernels all runtimes share).
//!
//! The mix follows what a job spends its time on: hashing and counting
//! byte-string keys, sorting records, and copying buffers. A call
//! allocates nothing: every buffer is one contiguous `Vec` made in
//! [`Calibration::new`], so neither the allocator's speed nor how the
//! program's jobs left the heap reaches the timing.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

const TOKENS: usize = 120_000;
const VOCAB: u64 = 4_096;
const PAIRS: usize = 60_000;
const COPY_BYTES: usize = 1 << 20;

/// A word of up to eight bytes, zero-padded.
type Word = [u8; 8];

pub struct Calibration {
    tokens: Vec<Word>,
    pairs: Vec<(u64, u64)>,
    buffer: Vec<u8>,
    /// Scratch space of a call, emptied and refilled but never freed.
    /// The hasher's keys are fixed: `RandomState` would differ from
    /// process to process.
    counts: HashMap<Word, u64, BuildHasherDefault<DefaultHasher>>,
    words: Vec<(Word, u64)>,
    sorted: Vec<(u64, u64)>,
    copy: Vec<u8>,
    /// What every call must return: the result of the first one.
    checksum: u64,
}

/// SplitMix64 step, written out here so the kernel shares no code with
/// the repo's `mrs-rng`.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Calibration {
    /// The same inputs in every process: the unit must not depend on
    /// `--seed`.
    pub fn new() -> Calibration {
        let mut state = 0x006d_7273_5f65_3265_u64;
        let tokens = (0..TOKENS)
            .map(|_| {
                let mut word = Word::default();
                let text = format!("w{:x}", next(&mut state) % VOCAB);
                word[..text.len()].copy_from_slice(text.as_bytes());
                word
            })
            .collect();
        let mut calibration = Calibration {
            tokens,
            pairs: (0..PAIRS).map(|_| (next(&mut state), next(&mut state))).collect(),
            buffer: (0..COPY_BYTES).map(|_| next(&mut state) as u8).collect(),
            counts: HashMap::default(),
            words: Vec::new(),
            sorted: Vec::new(),
            copy: Vec::new(),
            checksum: 0,
        };
        // The first call also brings the scratch space to its size.
        calibration.checksum = calibration.run();
        calibration
    }

    /// One call of the kernel; the result is a checksum of all its work.
    fn run(&mut self) -> u64 {
        self.counts.clear();
        for token in &self.tokens {
            *self.counts.entry(*token).or_insert(0) += 1;
        }
        self.words.clear();
        self.words.extend(self.counts.iter().map(|(word, n)| (*word, *n)));
        self.words.sort_unstable();
        let mut sum =
            self.words.iter().fold(0u64, |s, (w, n)| s.wrapping_mul(31) + u64::from(w[1]) * n);

        self.sorted.clone_from(&self.pairs);
        self.sorted.sort_unstable();
        sum = sum.wrapping_add(self.sorted[PAIRS / 2].1);

        self.copy.clone_from(&self.buffer);
        sum.wrapping_add(self.copy.iter().fold(0u64, |s, b| s.wrapping_mul(131) + u64::from(*b)))
    }

    /// Seconds one call takes. Its checksum must be that of the first
    /// call, so the compiler cannot drop the work and a wrong result
    /// cannot pass.
    pub fn timed(&mut self) -> f64 {
        let t0 = Instant::now();
        let sum = black_box(&mut *self).run();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(black_box(sum), self.checksum, "calibration kernel gave another result");
        secs
    }
}
