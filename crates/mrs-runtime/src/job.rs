//! The job API a program's driver uses, shared by all implementations.
//!
//! Mirrors the Mrs `run(job)` interface: a driver submits datasets and
//! operations, *without waiting* between submissions — "Mrs allows a
//! program to queue up map and reduce operations so that each is ready to
//! begin as soon as the previous operation finishes" (§IV-A). `wait` blocks
//! only when the driver actually needs data (e.g. a convergence check), and
//! already-queued later operations keep running meanwhile.

use crate::data::DataId;
use mrs_core::{FuncId, Record, Result};

/// Object-safe job interface implemented by every runtime.
pub trait JobApi {
    /// Introduce a source dataset from in-memory records, split into
    /// `splits` map-task inputs.
    fn local_data(&mut self, records: Vec<Record>, splits: usize) -> Result<DataId>;

    /// Queue a map over `input` using the program's map function `func`,
    /// partitioning output into `parts` buckets (the reduce task count).
    /// `combine` runs the program's combiner after each map task.
    fn map_data(
        &mut self,
        input: DataId,
        func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId>;

    /// Queue a reduce over a map output using reduce function `func`.
    /// Produces one output split per partition of `input`.
    fn reduce_data(&mut self, input: DataId, func: FuncId) -> Result<DataId>;

    /// Queue a fused reduce+map over a map-like output: each partition of
    /// `input` is sorted, grouped, reduced with `reduce_func`, and every
    /// reduced record is fed straight into `map_func`, partitioning the
    /// output into `parts` buckets — one scheduling/shuffle round instead
    /// of two, and the reduce output is never materialized. The result is
    /// map-like: feed it to another `reduce_map_data` or a final
    /// `reduce_data`, byte-identical to the unfused pair.
    fn reduce_map_data(
        &mut self,
        input: DataId,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId>;

    /// Block until a dataset is fully materialized.
    fn wait(&mut self, data: DataId) -> Result<()>;

    /// Wait for and gather a dataset's records (splits concatenated in
    /// order).
    fn fetch_all(&mut self, data: DataId) -> Result<Vec<Record>>;

    /// The driver is done with a dataset, pinned or not: it is freed now,
    /// or once it is complete and its last queued reader has completed.
    /// Never refused: a driver may call it once the readers are queued.
    fn discard(&mut self, data: DataId);

    /// Pin a dataset against automatic lifetime GC: it stays fetchable
    /// after its last queued consumer finishes, until it is discarded.
    /// Drivers that queue iteration `t+1` before fetching iteration `t`'s
    /// result pin that result first. A no-op without lifetime GC.
    fn keep(&mut self, _data: DataId) {}
}

/// Convenience wrapper so drivers can be written against a concrete type.
pub struct Job<'a> {
    inner: &'a mut dyn JobApi,
}

impl<'a> Job<'a> {
    /// Wrap a runtime's job interface.
    pub fn new(inner: &'a mut dyn JobApi) -> Self {
        Job { inner }
    }

    /// See [`JobApi::local_data`].
    pub fn local_data(&mut self, records: Vec<Record>, splits: usize) -> Result<DataId> {
        self.inner.local_data(records, splits)
    }

    /// See [`JobApi::map_data`].
    pub fn map_data(
        &mut self,
        input: DataId,
        func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        self.inner.map_data(input, func, parts, combine)
    }

    /// See [`JobApi::reduce_data`].
    pub fn reduce_data(&mut self, input: DataId, func: FuncId) -> Result<DataId> {
        self.inner.reduce_data(input, func)
    }

    /// See [`JobApi::reduce_map_data`].
    pub fn reduce_map_data(
        &mut self,
        input: DataId,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        self.inner.reduce_map_data(input, reduce_func, map_func, parts, combine)
    }

    /// See [`JobApi::keep`].
    pub fn keep(&mut self, data: DataId) {
        self.inner.keep(data)
    }

    /// See [`JobApi::wait`].
    pub fn wait(&mut self, data: DataId) -> Result<()> {
        self.inner.wait(data)
    }

    /// See [`JobApi::fetch_all`].
    pub fn fetch_all(&mut self, data: DataId) -> Result<Vec<Record>> {
        self.inner.fetch_all(data)
    }

    /// See [`JobApi::discard`].
    pub fn discard(&mut self, data: DataId) {
        self.inner.discard(data)
    }

    /// The Mrs `file_data` call: read text files from a store and submit
    /// them as a source dataset of `(line_no, line)` records with globally
    /// distinct line numbers, split into `splits` map inputs. Missing
    /// paths are an error; order of `paths` defines line numbering.
    pub fn file_data(
        &mut self,
        store: &dyn mrs_fs::Store,
        paths: &[String],
        splits: usize,
    ) -> Result<DataId> {
        let mut records = Vec::new();
        let mut next_line = 0u64;
        for path in paths {
            let bytes = store.get(path)?;
            let text = String::from_utf8(bytes)
                .map_err(|e| mrs_core::Error::Codec(format!("{path}: not utf-8 text: {e}")))?;
            let recs = mrs_fs::format::text_to_records(&text, next_line);
            next_line += recs.len() as u64;
            records.extend(recs);
        }
        self.local_data(records, splits)
    }

    /// Checkpoint a dataset to a store as a bucket file under `prefix`.
    /// Returns the number of records saved. Together with
    /// [`Job::restore`], this lets long iterative jobs (thousands of PSO
    /// or EM iterations) survive driver restarts: because every Mrs
    /// program is deterministic given its state, resuming from a
    /// checkpoint continues the *exact* trajectory.
    pub fn save(&mut self, data: DataId, store: &dyn mrs_fs::Store, prefix: &str) -> Result<u64> {
        let records = self.fetch_all(data)?;
        let n = records.len() as u64;
        let path = format!("{prefix}/checkpoint.mrsb");
        store.put(&path, &mrs_fs::format::write_bucket_bytes(&records))?;
        Ok(n)
    }

    /// Load a dataset checkpointed by [`Job::save`] back into the job as a
    /// source dataset with `splits` map inputs.
    pub fn restore(
        &mut self,
        store: &dyn mrs_fs::Store,
        prefix: &str,
        splits: usize,
    ) -> Result<DataId> {
        let path = format!("{prefix}/checkpoint.mrsb");
        let mut bucket = mrs_core::Bucket::new();
        mrs_fs::format::read_bucket_into(&store.get(&path)?, &mut bucket)?;
        self.local_data(bucket.to_records(), splits)
    }

    /// The classic one-shot pattern: map then reduce with the `Simple`
    /// program's single function pair, returning the reduce output. Once
    /// it is fetched the job holds nothing: every dataset it made is
    /// discarded (lifetime GC already took the map output, on a runtime
    /// that has it).
    pub fn map_reduce(
        &mut self,
        input: Vec<Record>,
        map_tasks: usize,
        reduce_tasks: usize,
        combine: bool,
    ) -> Result<Vec<Record>> {
        let src = self.local_data(input, map_tasks)?;
        let mapped = self.map_data(src, 0, reduce_tasks, combine)?;
        let reduced = self.reduce_data(mapped, 0)?;
        let out = self.fetch_all(reduced)?;
        for data in [src, mapped, reduced] {
            self.discard(data);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialRuntime;
    use mrs_core::{Datum, MapReduce, Simple};
    use mrs_fs::{MemFs, Store};
    use std::sync::Arc;

    struct LineCount;
    impl MapReduce for LineCount {
        type K1 = u64;
        type V1 = String;
        type K2 = u64;
        type V2 = u64;
        fn map(&self, _k: u64, _v: &str, emit: &mut dyn FnMut(u64, u64)) {
            emit(0, 1);
        }
        fn reduce(&self, _k: u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
            emit(vs.sum());
        }
    }

    #[test]
    fn file_data_reads_and_numbers_lines_across_files() {
        let store = MemFs::new();
        store.put("a.txt", b"one\ntwo\n").unwrap();
        store.put("b.txt", b"three\n").unwrap();
        let mut rt = SerialRuntime::new(Arc::new(Simple(LineCount)));
        let mut job = Job::new(&mut rt);
        let src = job.file_data(&store, &["a.txt".into(), "b.txt".into()], 2).unwrap();
        let m = job.map_data(src, 0, 1, false).unwrap();
        let r = job.reduce_data(m, 0).unwrap();
        let out = job.fetch_all(r).unwrap();
        assert_eq!(u64::from_bytes(&out[0].1).unwrap(), 3);
    }

    #[test]
    fn file_data_missing_file_is_error() {
        let store = MemFs::new();
        let mut rt = SerialRuntime::new(Arc::new(Simple(LineCount)));
        let mut job = Job::new(&mut rt);
        assert!(job.file_data(&store, &["nope.txt".into()], 1).is_err());
    }

    #[test]
    fn file_data_rejects_non_utf8() {
        let store = MemFs::new();
        store.put("bin", &[0xff, 0xfe, 0x00]).unwrap();
        let mut rt = SerialRuntime::new(Arc::new(Simple(LineCount)));
        let mut job = Job::new(&mut rt);
        assert!(job.file_data(&store, &["bin".into()], 1).is_err());
    }
}
