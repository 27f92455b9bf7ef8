//! The programming model: typed map/reduce functions over the byte plane.
//!
//! Two layers, mirroring the paper's design:
//!
//! * [`MapReduce`] — what a user writes: a typed `map` and `reduce` (and an
//!   optional `combine`), the Rust analogue of Program 1. Like the paper's
//!   API, functions *emit* records one at a time rather than returning
//!   lists.
//! * [`Program`] — the object-safe, byte-level interface every runtime
//!   drives. Iterative programs (PSO) implement it directly so one program
//!   can expose several map/reduce functions addressed by [`FuncId`]
//!   (the paper passes bound methods to `job.map_data`; a function id is the
//!   serializable equivalent).
//!
//! [`Simple`] adapts any [`MapReduce`] into a [`Program`] as function id 0.
//!
//! Records stay bytes from `emit` to the driver. A typed program sees
//! *views* ([`Datum::View`]: `&str` for a `String` key, numbers by value)
//! decoded in place from the input bytes, and emits views that [`Simple`]
//! encodes straight into a pair of thread-local scratch buffers reused
//! across every emit of a task; `emit(&[u8], &[u8])` then lets the runtime
//! copy them into its bucket arena. The hot path makes no heap allocation
//! per emitted record, per decoded input value or per reduce key.

use crate::error::{Error, Result};
use crate::kv::{Datum, View};
use crate::partition::Partition;
use std::cell::Cell;

/// Identifies one of a program's map/reduce functions.
pub type FuncId = u32;

/// A typed, single-stage MapReduce program.
///
/// `map : (K1, V1) → list((K2, V2))` and
/// `reduce : (K2, list(V2)) → list(V2)` exactly as defined in §II. The
/// reduce output keeps its input key, so a reduce dataset is again a
/// key-value dataset and can feed another map (Fig. 2).
pub trait MapReduce: Send + Sync + 'static {
    /// Input key type (often a line number or file offset).
    type K1: Datum;
    /// Input value type.
    type V1: Datum;
    /// Intermediate/output key type.
    type K2: Datum;
    /// Intermediate/output value type.
    type V2: Datum;

    /// Called once per input record; may emit any number of pairs.
    #[allow(clippy::type_complexity)] // an alias would hide the emit shape from implementors
    fn map(
        &self,
        key: View<'_, Self::K1>,
        value: View<'_, Self::V1>,
        emit: &mut dyn FnMut(View<'_, Self::K2>, View<'_, Self::V2>),
    );

    /// Called once per distinct key with all its values; may emit any
    /// number of output values for that key.
    fn reduce(
        &self,
        key: View<'_, Self::K2>,
        values: &mut dyn Iterator<Item = View<'_, Self::V2>>,
        emit: &mut dyn FnMut(View<'_, Self::V2>),
    );

    /// Optional combiner ("local reduce", §V-A). Only invoked when
    /// [`MapReduce::has_combiner`] returns true. The default delegates to
    /// [`MapReduce::reduce`], which is correct whenever the reduction is
    /// associative and type-preserving — as in WordCount, where "the reduce
    /// function can function as a combiner without any modifications".
    fn combine(
        &self,
        key: View<'_, Self::K2>,
        values: &mut dyn Iterator<Item = View<'_, Self::V2>>,
        emit: &mut dyn FnMut(View<'_, Self::V2>),
    ) {
        self.reduce(key, values, emit);
    }

    /// Whether a combiner should run after map tasks.
    fn has_combiner(&self) -> bool {
        false
    }

    /// Partitioning strategy for intermediate keys.
    fn partition(&self) -> Partition {
        Partition::Hash
    }

    /// Fully custom partitioning over the *encoded* key: return
    /// `Some(index)` to override [`MapReduce::partition`]. Programs that
    /// need data-dependent placement (e.g. range partitioning for a
    /// distributed sort) implement this; the default defers to the
    /// strategy enum.
    fn custom_partition(&self, _key: &[u8], _parts: usize) -> Option<usize> {
        None
    }
}

/// The object-safe byte-level program interface driven by runtimes.
///
/// All methods take a [`FuncId`] so that a single program can expose
/// multiple map and reduce functions for multi-stage/iterative jobs.
///
/// Emitted slices are only valid for the duration of the `emit` call; the
/// receiver copies what it wants to keep (typically into a bucket arena).
pub trait Program: Send + Sync + 'static {
    /// Apply map function `func` to one encoded record.
    fn map_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()>;

    /// Apply reduce function `func` to one key group.
    fn reduce_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()>;

    /// Apply the combiner for map function `func`, if any.
    fn combine_bytes(
        &self,
        func: FuncId,
        _key: &[u8],
        _values: &mut dyn Iterator<Item = &[u8]>,
        _emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        Err(Error::UnknownFunc(func))
    }

    /// Whether map function `func` has a combiner.
    fn has_combiner(&self, _func: FuncId) -> bool {
        false
    }

    /// Partition an encoded intermediate key into one of `n` parts.
    fn partition(&self, key: &[u8], n: usize) -> usize {
        Partition::Hash.index(key, n)
    }
}

/// Adapter: any typed [`MapReduce`] is a [`Program`] whose single map and
/// reduce function are both function id 0.
pub struct Simple<P>(pub P);

/// The function id used by [`Simple`] for both map and reduce.
pub const SIMPLE_FUNC: FuncId = 0;

/// A pair of reusable (key, value) encode buffers.
type ScratchBufs = Box<(Vec<u8>, Vec<u8>)>;

thread_local! {
    /// Reusable (key, value) encode buffers for [`Simple`]'s emit path.
    /// Taken for the duration of one `*_bytes` call and put back after, so
    /// a task's emits share two buffers instead of allocating two fresh
    /// `Vec<u8>` per record. Re-entrant calls (a map that drives another
    /// program) find the slot empty and fall back to fresh buffers.
    static SCRATCH: Cell<Option<ScratchBufs>> = const { Cell::new(None) };
}

fn with_scratch<R>(f: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>) -> R) -> R {
    let mut buf = SCRATCH.take().unwrap_or_default();
    let r = f(&mut buf.0, &mut buf.1);
    buf.0.clear();
    buf.1.clear();
    SCRATCH.set(Some(buf));
    r
}

impl<P: MapReduce> Simple<P> {
    fn check(func: FuncId) -> Result<()> {
        if func == SIMPLE_FUNC {
            Ok(())
        } else {
            Err(Error::UnknownFunc(func))
        }
    }
}

/// Lazily views each value of a group. The first decode failure is stashed
/// in `error` and ends the iteration, so the typed reduce never sees
/// corrupt data.
struct ViewValues<'i, 'd, V: Datum> {
    inner: &'i mut dyn Iterator<Item = &'d [u8]>,
    error: &'i mut Option<Error>,
    _marker: std::marker::PhantomData<V>,
}

impl<'d, V: Datum> Iterator for ViewValues<'_, 'd, V> {
    type Item = V::View<'d>;

    fn next(&mut self) -> Option<V::View<'d>> {
        if self.error.is_some() {
            return None;
        }
        match V::view(self.inner.next()?) {
            Ok(v) => Some(v),
            Err(e) => {
                *self.error = Some(e);
                None
            }
        }
    }
}

/// What [`Simple`] hands a typed reduce or combine: the viewed key, the
/// viewed values and an emit of viewed values.
type TypedFold<'f, P> = &'f dyn Fn(
    View<'_, <P as MapReduce>::K2>,
    &mut dyn Iterator<Item = View<'_, <P as MapReduce>::V2>>,
    &mut dyn FnMut(View<'_, <P as MapReduce>::V2>),
);

impl<P: MapReduce> Simple<P> {
    /// The shared body of `reduce_bytes` and `combine_bytes`: view the key
    /// and values in place, run `fold`, re-emit under the input key bytes.
    fn fold_bytes(
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
        fold: TypedFold<'_, P>,
    ) -> Result<()> {
        Self::check(func)?;
        let k = P::K2::view(key)?;
        let mut error = None;
        let mut views = ViewValues::<P::V2> {
            inner: values,
            error: &mut error,
            _marker: std::marker::PhantomData,
        };
        with_scratch(|_, vbuf| {
            fold(k, &mut views, &mut |v2| {
                vbuf.clear();
                P::V2::encode_view(&v2, vbuf);
                emit(key, vbuf);
            });
        });
        error.map_or(Ok(()), Err)
    }
}

impl<P: MapReduce> Program for Simple<P> {
    fn map_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        Self::check(func)?;
        let k = P::K1::view(key)?;
        let v = P::V1::view(value)?;
        with_scratch(|kbuf, vbuf| {
            self.0.map(k, v, &mut |k2, v2| {
                kbuf.clear();
                vbuf.clear();
                P::K2::encode_view(&k2, kbuf);
                P::V2::encode_view(&v2, vbuf);
                emit(kbuf, vbuf);
            });
        });
        Ok(())
    }

    fn reduce_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        Self::fold_bytes(func, key, values, emit, &|k, vs, e| self.0.reduce(k, vs, e))
    }

    fn combine_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        Self::fold_bytes(func, key, values, emit, &|k, vs, e| self.0.combine(k, vs, e))
    }

    fn has_combiner(&self, func: FuncId) -> bool {
        func == SIMPLE_FUNC && self.0.has_combiner()
    }

    fn partition(&self, key: &[u8], n: usize) -> usize {
        match self.0.custom_partition(key, n) {
            Some(i) => {
                assert!(i < n, "custom_partition returned {i} for {n} parts");
                i
            }
            None => self.0.partition().index(key, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::encode_record;

    /// The canonical WordCount of Program 1.
    struct WordCount;

    impl MapReduce for WordCount {
        type K1 = u64;
        type V1 = String;
        type K2 = String;
        type V2 = u64;

        fn map(&self, _key: u64, value: &str, emit: &mut dyn FnMut(&str, u64)) {
            for word in value.split_whitespace() {
                emit(word, 1);
            }
        }

        fn reduce(
            &self,
            _key: &str,
            values: &mut dyn Iterator<Item = u64>,
            emit: &mut dyn FnMut(u64),
        ) {
            emit(values.sum());
        }

        fn has_combiner(&self) -> bool {
            true
        }
    }

    #[test]
    fn map_bytes_emits_encoded_pairs() {
        let p = Simple(WordCount);
        let (k, v) = encode_record(&0u64, &"the cat the".to_string());
        let mut out = Vec::new();
        p.map_bytes(0, &k, &v, &mut |k2, v2| out.push((k2.to_vec(), v2.to_vec()))).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(String::from_bytes(&out[0].0).unwrap(), "the");
        assert_eq!(u64::from_bytes(&out[0].1).unwrap(), 1);
    }

    #[test]
    fn reduce_bytes_sums_and_keeps_key() {
        let p = Simple(WordCount);
        let key = "cat".to_string().to_bytes();
        let vals: Vec<Vec<u8>> = vec![1u64.to_bytes(), 1u64.to_bytes(), 1u64.to_bytes()];
        let mut it = vals.iter().map(|v| v.as_slice());
        let mut out = Vec::new();
        p.reduce_bytes(0, &key, &mut it, &mut |k, v| out.push((k.to_vec(), v.to_vec()))).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, key);
        assert_eq!(u64::from_bytes(&out[0].1).unwrap(), 3);
    }

    #[test]
    fn combiner_defaults_to_reduce() {
        let p = Simple(WordCount);
        assert!(Program::has_combiner(&p, 0));
        let key = "k".to_string().to_bytes();
        let vals = [2u64.to_bytes(), 5u64.to_bytes()];
        let mut it = vals.iter().map(|v| v.as_slice());
        let mut out = Vec::new();
        p.combine_bytes(0, &key, &mut it, &mut |k, v| out.push((k.to_vec(), v.to_vec()))).unwrap();
        assert_eq!(u64::from_bytes(&out[0].1).unwrap(), 7);
    }

    #[test]
    fn unknown_func_is_rejected() {
        let p = Simple(WordCount);
        let (k, v) = encode_record(&0u64, &"x".to_string());
        let r = p.map_bytes(3, &k, &v, &mut |_, _| {});
        assert!(matches!(r, Err(Error::UnknownFunc(3))));
    }

    #[test]
    fn corrupt_input_key_is_reported() {
        let p = Simple(WordCount);
        let r = p.map_bytes(0, &[1, 2], b"bad", &mut |_, _| {});
        assert!(matches!(r, Err(Error::Codec(_))));
    }

    #[test]
    fn corrupt_value_in_reduce_is_reported() {
        let p = Simple(WordCount);
        let key = "w".to_string().to_bytes();
        let vals: [Vec<u8>; 2] = [1u64.to_bytes(), vec![9]]; // second is truncated
        let mut it = vals.iter().map(|v| v.as_slice());
        let r = p.reduce_bytes(0, &key, &mut it, &mut |_, _| {});
        assert!(matches!(r, Err(Error::Codec(_))));
    }

    #[test]
    fn default_partition_is_stable_across_calls() {
        let p = Simple(WordCount);
        let k = "word".to_string().to_bytes();
        assert_eq!(Program::partition(&p, &k, 13), Program::partition(&p, &k, 13));
        assert!(Program::partition(&p, &k, 13) < 13);
    }

    #[test]
    fn emitted_slices_are_reused_scratch_buffers() {
        // Two consecutive emits hand out the same buffer addresses: the
        // encode path recycles its scratch rather than allocating.
        let p = Simple(WordCount);
        let (k, v) = encode_record(&0u64, &"aa bb".to_string());
        let mut ptrs = Vec::new();
        p.map_bytes(0, &k, &v, &mut |k2, v2| ptrs.push((k2.as_ptr(), v2.as_ptr()))).unwrap();
        assert_eq!(ptrs.len(), 2);
        assert_eq!(ptrs[0], ptrs[1]);
    }
}
