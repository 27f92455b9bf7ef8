//! Independent pseudorandom streams keyed by argument tuples.
//!
//! This reproduces the `mrs.MapReduce.random(*args)` method (§IV-A): every
//! distinct tuple of integers yields an *independent* generator, so that
//!
//! * each task can deterministically derive its own stream
//!   (`random(op_id, task_id)`), and
//! * two tasks that must duplicate a calculation can construct *identical*
//!   generators by passing identical arguments.
//!
//! The tuple — prefixed with the program-level seed — is absorbed into the
//! MT19937-64 state via `init_by_array64`, exactly the mechanism that lets
//! the paper claim "around 300 arguments that are each 64-bit integers".

use crate::Mt19937_64;

/// Maximum number of key words that can be absorbed without aliasing: the
/// MT19937-64 state is 312 words; one is reserved for the base seed.
pub const MAX_STREAM_ARGS: usize = 311;

/// Factory deriving independent generators from argument tuples.
#[derive(Clone, Debug)]
pub struct StreamFactory {
    base: u64,
}

impl StreamFactory {
    /// Create a factory for a program-level seed.
    pub fn new(seed: u64) -> Self {
        StreamFactory { base: seed }
    }

    /// The program-level seed this factory was constructed with.
    pub fn seed(&self) -> u64 {
        self.base
    }

    /// Derive the generator for an argument tuple. Identical `(seed, args)`
    /// always produce identical generators; tuples differing in any element
    /// or in length produce independent streams.
    pub fn stream(&self, args: &[u64]) -> Mt19937_64 {
        assert!(
            args.len() <= MAX_STREAM_ARGS,
            "stream(): at most {MAX_STREAM_ARGS} arguments (got {})",
            args.len()
        );
        let mut key = Vec::with_capacity(args.len() + 2);
        key.push(self.base);
        key.extend_from_slice(args);
        // Length tag prevents (a) and (a, 0) from colliding when a trailing
        // zero would otherwise be indistinguishable under key cycling.
        key.push(0x6d72_735f_7374_7265 ^ args.len() as u64); // "mrs_stre" ^ len
        Mt19937_64::from_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_args_identical_streams() {
        let f = StreamFactory::new(42);
        let mut a = f.stream(&[1, 2, 3]);
        let mut b = f.stream(&[1, 2, 3]);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = StreamFactory::new(1).stream(&[5]);
        let mut b = StreamFactory::new(2).stream(&[5]);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn trailing_zero_does_not_collide() {
        let f = StreamFactory::new(0);
        let mut a = f.stream(&[7]);
        let mut b = f.stream(&[7, 0]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn empty_tuple_is_valid() {
        let f = StreamFactory::new(3);
        let mut a = f.stream(&[]);
        let mut b = f.stream(&[]);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn max_args_accepted() {
        let f = StreamFactory::new(0);
        let args: Vec<u64> = (0..MAX_STREAM_ARGS as u64).collect();
        let _ = f.stream(&args);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_args_panics() {
        let f = StreamFactory::new(0);
        let args = vec![0u64; MAX_STREAM_ARGS + 1];
        let _ = f.stream(&args);
    }

    /// The first three draws and the 700th, which comes from the third refill.
    fn fingerprint(mut g: Mt19937_64) -> ([u64; 3], u64) {
        let first = [g.next_u64(), g.next_u64(), g.next_u64()];
        (first, (3..700).map(|_| g.next_u64()).last().unwrap())
    }

    #[test]
    fn streams_match_their_goldens() {
        // A program's output depends on these draws on every plane and in
        // every rerun, so a change to how streams are derived must
        // reproduce them exactly.
        let f = StreamFactory::new(42);
        assert_eq!(
            fingerprint(f.stream(&[])),
            (
                [10_984_952_841_892_987_572, 16_399_869_582_966_900_329, 1_035_973_155_936_334_285],
                12_816_589_329_666_897_317
            )
        );
        // A PSO "move" tuple: (tag, particle id, iteration).
        assert_eq!(
            fingerprint(f.stream(&[0x6d6f_7665, 17, 250])),
            (
                [5_590_964_652_699_104_620, 3_777_575_530_005_282_678, 2_758_762_938_231_070_843],
                14_802_227_945_575_093_013
            )
        );
        // 311 arguments make a 313-word key: longer than the state, so the
        // first absorption loop wraps with key words still to come.
        let long: Vec<u64> =
            (0..MAX_STREAM_ARGS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        assert_eq!(
            fingerprint(f.stream(&long)),
            (
                [
                    14_622_135_083_460_168_870,
                    15_831_851_377_606_564_905,
                    15_003_919_466_256_738_977
                ],
                17_575_934_034_113_690_892
            )
        );
    }

    proptest! {
        #[test]
        fn distinct_tuples_distinct_streams(
            a in proptest::collection::vec(any::<u64>(), 0..8),
            b in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            prop_assume!(a != b);
            let f = StreamFactory::new(99);
            let mut ga = f.stream(&a);
            let mut gb = f.stream(&b);
            let va: Vec<u64> = (0..4).map(|_| ga.next_u64()).collect();
            let vb: Vec<u64> = (0..4).map(|_| gb.next_u64()).collect();
            prop_assert_ne!(va, vb);
        }

        #[test]
        fn stream_is_pure(args in proptest::collection::vec(any::<u64>(), 0..16), seed in any::<u64>()) {
            let f = StreamFactory::new(seed);
            let mut a = f.stream(&args);
            let mut b = f.stream(&args);
            for _ in 0..8 {
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }
}
