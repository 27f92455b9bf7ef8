//! Streaming k-way merge over sorted runs (the shuffle merge step).
//!
//! The paper's contract is that reduce sees its partition "sorted and
//! grouped by key" (§II). The concatenate-then-sort path honors it with
//! O(n log n) comparisons over the whole partition; when every fetched
//! bucket is already a *sorted run* (map kernels sort their output
//! map-side), a k-way merge produces the same grouped stream in
//! O(n log k) — and never materializes the concatenated bucket.
//!
//! The merger is a classic loser tree (tournament tree storing the loser
//! of each internal match, winner at the root): advancing a run costs one
//! replay along its leaf-to-root path, ⌈log₂ k⌉ matches. Three refinements
//! keep constant factors down:
//!
//! * each run's head key is cached as its 8-byte prefix
//!   ([`key_prefix`](crate::bucket::key_prefix)), refreshed when the head
//!   advances, so a match is an integer compare and reads the runs'
//!   arenas only when two prefixes tie — and so is each step of the
//!   equal-key scan below;
//! * equal keys break ties by **run index**, so the merged stream is
//!   byte-identical to a *stable* sort of the runs concatenated in input
//!   order — the exact order the concatenate+sort oracle produces;
//! * the winner's whole equal-key prefix is consumed in one linear scan
//!   before the tree is replayed, so the tree pays per *group-span*, not
//!   per record, and a single-run merge degenerates to plain group
//!   iteration with no matches played at all.

use crate::bucket::{cmp_keys, Bucket};
use std::borrow::Borrow;
use std::cmp::Ordering;

/// One contiguous slice of a run contributing to the current group:
/// `(run, start, end)` — records `start..end` of `runs[run]`.
pub type GroupSpan = (usize, usize, usize);

/// Streaming merger over `k` sorted runs, yielding `(key, spans)` groups
/// in ascending key order with values ordered exactly as the stable
/// concatenate+sort oracle orders them (run index, then in-run position).
///
/// Every run must be sorted (`Bucket::is_sorted`); debug builds assert it.
/// Runs are anything that lends a bucket — `Bucket` itself where the task
/// owns its decoded input, `Arc<Bucket>` where a dataset shares it.
pub struct RunMerger<'a, B = Bucket> {
    runs: &'a [B],
    /// Next unconsumed record per run.
    pos: Vec<usize>,
    /// [`key_prefix`] of each run's head key (stale once the run is
    /// exhausted; `exhausted` is checked first everywhere).
    heads: Vec<u64>,
    /// Loser tree: `tree[0]` is the current overall winner, `tree[1..k]`
    /// hold the loser of the match played at each internal node. Leaves
    /// are implicit at `k..2k` (leaf of run `r` at `k + r`).
    tree: Vec<usize>,
}

impl<'a, B: Borrow<Bucket>> RunMerger<'a, B> {
    /// Build a merger over `runs`. Empty runs are handled (they start
    /// exhausted); an empty slice yields no groups.
    pub fn new(runs: &'a [B]) -> Self {
        let buckets = runs.iter().map(Borrow::borrow);
        debug_assert!(buckets.clone().all(Bucket::is_sorted), "RunMerger requires sorted runs");
        let k = runs.len();
        let heads = buckets.map(|r| if r.is_empty() { 0 } else { r.key_prefix_at(0) });
        let mut m =
            RunMerger { runs, pos: vec![0; k], heads: heads.collect(), tree: vec![0; k.max(1)] };
        if k == 0 {
            return m;
        }
        // Initial tournament, bottom-up: `winners[i]` is the winner of the
        // subtree rooted at node i, losers are committed into the tree.
        let mut winners = vec![0usize; 2 * k];
        for (r, w) in winners[k..].iter_mut().enumerate() {
            *w = r;
        }
        for i in (1..k).rev() {
            let (a, b) = (winners[2 * i], winners[2 * i + 1]);
            let (w, l) = if m.beats(a, b) { (a, b) } else { (b, a) };
            winners[i] = w;
            m.tree[i] = l;
        }
        m.tree[0] = winners[1];
        m
    }

    fn run(&self, r: usize) -> &'a Bucket {
        self.runs[r].borrow()
    }

    fn exhausted(&self, r: usize) -> bool {
        self.pos[r] >= self.run(r).len()
    }

    /// Does run `a` win against run `b`? Smaller head key wins; an
    /// exhausted run always loses; equal keys go to the smaller run index
    /// (the stability tiebreak).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.exhausted(a), self.exhausted(b)) {
            (true, _) => false,
            (false, true) => true,
            (false, false) => {
                let head = |r: usize| self.run(r).key_at(self.pos[r]);
                match cmp_keys(self.heads[a], self.heads[b], || (head(a), head(b))) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => a < b,
                }
            }
        }
    }

    /// Replay the leaf-to-root path of run `r` after its head advanced:
    /// ⌈log₂ k⌉ comparisons re-seat it in the tournament.
    fn replay(&mut self, r: usize) {
        let k = self.runs.len();
        let mut cur = r;
        let mut i = (k + r) / 2;
        while i >= 1 {
            if self.beats(self.tree[i], cur) {
                std::mem::swap(&mut self.tree[i], &mut cur);
            }
            i /= 2;
        }
        self.tree[0] = cur;
    }

    /// Produce the next key group. Returns the key, and fills `spans`
    /// with the contributing run slices in oracle order (ascending run
    /// index; each span's records are consecutive in its run). Returns
    /// `None` when all runs are exhausted.
    pub fn next_group(&mut self, spans: &mut Vec<GroupSpan>) -> Option<&'a [u8]> {
        spans.clear();
        if self.runs.is_empty() || self.exhausted(self.tree[0]) {
            return None;
        }
        let mut w = self.tree[0];
        let (key, prefix): (&'a [u8], u64) = (self.run(w).key_at(self.pos[w]), self.heads[w]);
        loop {
            // Consume the winner's whole equal-key prefix in one scan,
            // prefix first; the first prefix past it is the new head's.
            let run = self.run(w);
            let start = self.pos[w];
            let mut end = start + 1;
            let mut next = prefix;
            while end < run.len() {
                next = run.key_prefix_at(end);
                if cmp_keys(next, prefix, || (run.key_at(end), key)).is_ne() {
                    break;
                }
                end += 1;
            }
            self.heads[w] = next;
            self.pos[w] = end;
            spans.push((w, start, end));
            self.replay(w);
            // The next winner joins the group only if its head is this key.
            w = self.tree[0];
            if self.exhausted(w)
                || self.heads[w] != prefix
                || self.run(w).key_at(self.pos[w]) != key
            {
                break;
            }
        }
        Some(key)
    }

    /// Total records remaining across all runs.
    pub fn remaining(&self) -> usize {
        self.runs.iter().zip(&self.pos).map(|(r, &p)| r.borrow().len() - p).sum()
    }
}

/// Merge sorted runs into one sorted bucket (reference/oracle helper for
/// tests and the background pre-merge: the streaming kernels consume
/// [`RunMerger`] directly and never materialize this).
pub fn merge_runs(runs: &[Bucket]) -> Bucket {
    let bytes = runs.iter().map(Bucket::byte_size).sum();
    let records = runs.iter().map(Bucket::len).sum();
    let mut out = Bucket::with_capacity(records, bytes);
    let mut merger = RunMerger::new(runs);
    let mut spans = Vec::new();
    while let Some(key) = merger.next_group(&mut spans) {
        for &(r, s, e) in spans.iter() {
            for i in s..e {
                out.push(key, runs[r].get(i).1);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::tests::{colliding_key, tagged};
    use crate::kv::Record;
    use proptest::prelude::*;

    fn bucket(recs: &[(&str, &str)]) -> Bucket {
        recs.iter().map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec())).collect()
    }

    /// The oracle: concatenate in run order, stable-sort by key — with the
    /// std sort over owned records, never through `Bucket::sort`.
    fn concat_sort(runs: &[Bucket]) -> Bucket {
        let mut all: Vec<Record> = runs.iter().flat_map(Bucket::to_records).collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        Bucket::from_records(all)
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert_eq!(merge_runs(&[]), Bucket::new());
        assert_eq!(merge_runs(&[Bucket::new(), Bucket::new()]), Bucket::new());
        let mut m = RunMerger::<Bucket>::new(&[]);
        assert_eq!(m.next_group(&mut Vec::new()), None);
    }

    #[test]
    fn single_run_fast_path_is_identity() {
        let run = bucket(&[("a", "1"), ("a", "2"), ("c", "3")]);
        assert_eq!(merge_runs(std::slice::from_ref(&run)), run);
    }

    #[test]
    fn equal_keys_come_out_in_run_order() {
        let runs = [
            bucket(&[("k", "r0a"), ("k", "r0b")]),
            bucket(&[("a", "x"), ("k", "r1a")]),
            bucket(&[("k", "r2a")]),
        ];
        let merged = merge_runs(&runs);
        assert_eq!(merged, concat_sort(&runs));
        let vals: Vec<&[u8]> = merged.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![&b"x"[..], b"r0a", b"r0b", b"r1a", b"r2a"]);
    }

    #[test]
    fn empty_and_nonempty_runs_mix() {
        let runs = [Bucket::new(), bucket(&[("b", "1")]), Bucket::new(), bucket(&[("a", "2")])];
        assert_eq!(merge_runs(&runs), concat_sort(&runs));
    }

    #[test]
    fn group_spans_cover_each_key_once() {
        let runs = [bucket(&[("a", "1"), ("b", "2")]), bucket(&[("a", "3"), ("c", "4")])];
        let mut m = RunMerger::new(&runs);
        let mut spans = Vec::new();
        let mut keys = Vec::new();
        while let Some(k) = m.next_group(&mut spans) {
            keys.push(k.to_vec());
            assert!(!spans.is_empty());
        }
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(m.remaining(), 0);
    }

    proptest! {
        /// merge(runs) == concat+sort over random run splits: records
        /// whose keys collide on the 8-byte prefix, values tagged with
        /// arrival order, cut at random points into runs — including
        /// empty runs at either end and the single-run case — each run
        /// sorted (by the std sort), then merged.
        #[test]
        fn merge_agrees_with_concat_sort(
            keys in proptest::collection::vec(colliding_key(), 0..120),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let records = tagged(keys);
            // Random split points (duplicates allowed => empty runs).
            let mut bounds: Vec<usize> =
                cuts.iter().map(|c| c % (records.len() + 1)).collect();
            bounds.push(0);
            bounds.push(records.len());
            bounds.sort_unstable();
            let runs: Vec<Bucket> = bounds
                .windows(2)
                .map(|w| concat_sort(&[Bucket::from_records(records[w[0]..w[1]].to_vec())]))
                .collect();
            // The oracle concatenates the *sorted* runs in run order —
            // exactly what the reduce path sees arriving off the wire.
            prop_assert_eq!(merge_runs(&runs), concat_sort(&runs));
        }
    }
}
