//! The one worker loop of the pool and the slave.
//!
//! A worker takes an attempt from its plane's source, fetches the inputs
//! the source left remote, gathers them into the kernel's runs, calls
//! [`run_task`] under the attempt's cancel flag, stores the outputs and
//! hands the outcome to its plane's sink. Everything from "an attempt has
//! been picked" to "its outcome is handed back" is written here, once. A
//! [`Plane`] supplies only where an attempt comes from (the pool's `Plan`
//! claim, the slave's accepted queue), how its remote inputs are fetched
//! (the slave's only) and where its outcome goes (the pool's commit, the
//! slave's report to the master).
//!
//! A fetched input is never copied into an arena: it arrives as the frame
//! its producer wrote, opened where it lies ([`mrs_codec::Payload`]), and
//! the worker indexes it in place ([`index_bucket`]) — the map arm and the
//! gather alike — so the received buffer is the bucket the kernel reads.
//!
//! Every attempt is traced on its worker's lane in one shape: an `Attempt`
//! span from the claim or acceptance stamp, with `Fetch` (remote inputs
//! only), `Merge` (gathering tasks only), `Exec` and `Emit` (only when the
//! outputs go to a store) nested inside it, a `Cancel` instant when the
//! attempt was cancelled, and the `Attempt` closed before the sink
//! publishes the outcome — so whoever sees the outcome can see the whole
//! span.

use crate::data::{concat, count_merge_input};
use crate::metrics::JobMetrics;
use mrs_codec::{CompressMode, Payload};
use mrs_core::task::run_task;
use mrs_core::{Bucket, Error, Program, Result, TaskSpec};
use mrs_fs::format::{frame_bucket, index_bucket, RunInfo};
use mrs_fs::Store;
use mrs_trace::{Name, Recorder, Tag, TraceHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// One input of an attempt.
pub(crate) enum Input {
    /// A bucket this process holds — a source split or a task's output,
    /// or the [`empty`] bucket an `empty:` URL names — by reference count.
    Own(Arc<Bucket>),
    /// A fetched bucket's verified frame, unparsed: its `MRSB1` bytes where they arrived.
    Wire(Payload),
}

/// An attempt, as a plane's source hands it to a worker.
pub(crate) struct Attempt<T> {
    /// What the plane's sink needs back about the attempt.
    pub task: T,
    pub spec: TaskSpec,
    pub tag: Tag,
    /// When the attempt was claimed or accepted (the recorder's clock):
    /// its span reaches back to here.
    pub since_us: u64,
    /// One per input, in input order (the determinism oracle depends on
    /// it); `None` when the plane's [`Plane::fetch`] resolves them.
    pub inputs: Option<Vec<Input>>,
    /// Set to stop the attempt at the kernel's next record or group.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// An attempt's outcome, as a worker hands it to its plane's sink.
pub(crate) struct Done<T> {
    pub task: T,
    pub spec: TaskSpec,
    pub tag: Tag,
    /// The output buckets, or why there are none.
    pub outcome: std::result::Result<Vec<Arc<Bucket>>, Failure>,
    /// Fetch, gather, kernel and store time.
    pub elapsed: Duration,
    /// What the fetch and the gather counted.
    pub tally: JobMetrics,
}

/// Why an attempt has no outputs.
pub(crate) struct Failure {
    pub error: Error,
    /// The position of the input that could not be read, when that was
    /// the cause.
    pub input: Option<usize>,
}

impl From<Error> for Failure {
    fn from(error: Error) -> Failure {
        Failure { error, input: None }
    }
}

/// What differs between the planes that run [`Workers`].
pub(crate) trait Plane: Sync {
    /// What the sink needs back about an attempt.
    type Task;
    /// Block until the next attempt for the worker recording on `th`;
    /// `None` stops the worker.
    fn next(&self, th: &TraceHandle) -> Option<Attempt<Self::Task>>;
    /// The inputs of an attempt handed over without them, in input order,
    /// fetched inside its span and under its cancel flag; what the fetch
    /// counted goes into `tally`. Only a plane whose source leaves inputs
    /// remote is asked.
    fn fetch(
        &self,
        _task: &Self::Task,
        _cancel: Option<&AtomicBool>,
        _tally: &mut JobMetrics,
    ) -> std::result::Result<Vec<Input>, Failure> {
        unreachable!("this plane hands every attempt over with its inputs")
    }
    /// The path prefix of the outputs of attempt `tag`: output `p` is
    /// [`bucket_path`]`(stem, p)`.
    fn stem(&self, tag: &Tag) -> String;
    /// Take an attempt's outcome. An error stops the worker.
    fn finish(&self, done: Done<Self::Task>, th: &TraceHandle) -> Result<()>;
}

/// A plane's worker slots.
pub(crate) struct Workers<'a> {
    pub program: &'a dyn Program,
    /// Where every output is also put, framed with its sorted-run flag
    /// (mock-parallel's spill, the shared-filesystem plane). Without a
    /// store the sink only keeps the buckets.
    pub store: Option<(&'a dyn Store, CompressMode)>,
    pub slots: usize,
    /// Each slot records on its own lane, its slot index.
    pub trace: &'a Recorder,
}

impl Workers<'_> {
    /// Run the slots until the source stops each of them; the first
    /// error any of them met.
    pub fn run<P: Plane>(&self, plane: &P) -> Result<()> {
        std::thread::scope(|s| join(self.spawn(s, plane)))
    }

    /// Start the slots in `scope`, for a caller that has work of its own
    /// to do on its thread meanwhile; [`join`] them.
    pub fn spawn<'s, P: Plane>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        plane: &'s P,
    ) -> Vec<ScopedJoinHandle<'s, Result<()>>> {
        (0..self.slots)
            .map(|slot| {
                let th = self.trace.handle(slot as u32);
                std::thread::Builder::new()
                    .name(format!("mrs-worker-{slot}"))
                    .spawn_scoped(scope, move || self.work(plane, &th))
                    .expect("spawn worker")
            })
            .collect()
    }

    fn work<P: Plane>(&self, plane: &P, th: &TraceHandle) -> Result<()> {
        while let Some(Attempt { task, spec, tag, since_us, inputs, cancel }) = plane.next(th) {
            th.begin_at(since_us, Name::Attempt, tag);
            let t0 = Instant::now();
            let mut tally = JobMetrics::default();
            let cancel = cancel.as_deref();
            let outcome = if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                Err(Error::Cancelled.into())
            } else {
                self.attempt(plane, &task, &spec, tag, inputs, cancel, &mut tally, th)
            };
            close(th, tag, matches!(outcome, Err(Failure { error: Error::Cancelled, .. })));
            let elapsed = t0.elapsed();
            plane.finish(Done { task, spec, tag, outcome, elapsed, tally }, th)?;
        }
        Ok(())
    }

    /// Fetch, gather, run and store one attempt.
    #[allow(clippy::too_many_arguments)]
    fn attempt<P: Plane>(
        &self,
        plane: &P,
        task: &P::Task,
        spec: &TaskSpec,
        tag: Tag,
        inputs: Option<Vec<Input>>,
        cancel: Option<&AtomicBool>,
        tally: &mut JobMetrics,
        th: &TraceHandle,
    ) -> std::result::Result<Vec<Arc<Bucket>>, Failure> {
        let inputs = match inputs {
            Some(inputs) => inputs,
            None => span(th, Name::Fetch, tag, || plane.fetch(task, cancel, tally))?,
        };
        // A map runs on its split as it is — its own, or the fetched one
        // indexed where it arrived; several splits are read as one.
        let runs: Vec<Arc<Bucket>> = if spec.gathers() {
            span(th, Name::Merge, tag, || gather(inputs, tally))?
        } else {
            let splits = inputs.into_iter().enumerate().map(|(i, input)| match input {
                Input::Own(split) => Ok(split),
                Input::Wire(payload) => index(payload, i).map(|(split, _)| Arc::new(split)),
            });
            let splits = splits.collect::<std::result::Result<Vec<_>, Failure>>()?;
            if splits.len() == 1 {
                splits
            } else {
                vec![Arc::new(concat(&splits))]
            }
        };
        let out = span(th, Name::Exec, tag, || run_task(self.program, spec, &runs, cancel))?;
        let out: Vec<Arc<Bucket>> = out.into_iter().map(Arc::new).collect();
        // An output with no records is stored nowhere: its location is
        // `empty:`.
        if let Some((store, compress)) = self.store {
            span(th, Name::Emit, tag, || {
                let stem = plane.stem(&tag);
                out.iter().enumerate().filter(|(_, b)| !b.is_empty()).try_for_each(|(p, b)| {
                    let frame = frame_bucket(b, compress, sorted_run(spec, b));
                    store.put(&bucket_path(&stem, p), &frame)
                })
            })?;
        }
        Ok(out)
    }
}

/// Wait for every slot [`Workers::spawn`] started; the first error any
/// of them met.
pub(crate) fn join(slots: Vec<ScopedJoinHandle<'_, Result<()>>>) -> Result<()> {
    slots
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|_| Err(Error::TaskFailed("worker panicked".into()))))
        .fold(Ok(()), Result::and)
}

/// The merge runs of a reduce-like attempt, one per input, counted into
/// `tally`. An own input is a map's output, presorted by the kernel's
/// contract; a fetched one is indexed where it arrived, and sorted on
/// arrival unless its records, checked in the same pass, are in order.
pub(crate) fn gather(
    inputs: Vec<Input>,
    tally: &mut JobMetrics,
) -> std::result::Result<Vec<Arc<Bucket>>, Failure> {
    let t0 = Instant::now();
    let mut presorted = 0usize;
    let runs = inputs
        .into_iter()
        .enumerate()
        .map(|(i, input)| match input {
            Input::Own(run) => {
                presorted += 1;
                Ok(run)
            }
            Input::Wire(payload) => {
                let (mut run, info) = index(payload, i)?;
                if info.sorted {
                    presorted += 1;
                } else {
                    run.sort();
                }
                Ok(Arc::new(run))
            }
        })
        .collect::<std::result::Result<Vec<_>, Failure>>()?;
    let records = runs.iter().map(|run| run.len()).sum();
    count_merge_input(tally, runs.len(), presorted, records, t0);
    Ok(runs)
}

/// Fetched input `i` as a bucket on the buffer it arrived in, and what
/// the index learned of its order; a malformed one fails the attempt,
/// naming the input.
fn index(payload: Payload, i: usize) -> std::result::Result<(Bucket, RunInfo), Failure> {
    index_bucket(payload).map_err(|error| Failure { error, input: Some(i) })
}

/// The bucket with no records that every `empty:` input of this process
/// shares.
pub(crate) fn empty() -> Arc<Bucket> {
    static EMPTY: OnceLock<Arc<Bucket>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(Arc::default))
}

/// Whether `bucket`, an output of `spec`, is a sorted run: a map-like
/// task's outputs are by the kernel's contract, unscanned; a reduce's
/// keys come in whatever order its program emitted them.
pub(crate) fn sorted_run(spec: &TaskSpec, bucket: &Bucket) -> bool {
    spec.parts().is_some() || bucket.is_sorted()
}

/// The path of output `p` of the attempt whose outputs live under `stem`.
pub(crate) fn bucket_path(stem: &str, p: usize) -> String {
    format!("{stem}/b{p}.mrsb")
}

/// Trace an attempt cancelled before a worker took it: its span from
/// `since_us`, closed at once with a `Cancel` instant.
pub(crate) fn trace_abandoned(th: &TraceHandle, since_us: u64, tag: Tag) {
    th.begin_at(since_us, Name::Attempt, tag);
    close(th, tag, true);
}

/// Close an attempt's span, marking a cancelled one.
fn close(th: &TraceHandle, tag: Tag, cancelled: bool) {
    if cancelled {
        th.instant(Name::Cancel, tag);
    }
    th.end(Name::Attempt, tag);
}

/// Run `f` inside a span `name` of attempt `tag`.
fn span<R>(th: &TraceHandle, name: Name, tag: Tag, f: impl FnOnce() -> R) -> R {
    th.begin(name, tag);
    let r = f();
    th.end(name, tag);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::FuncId;
    use mrs_fs::format::write_bucket;
    use mrs_fs::MemFs;
    use mrs_trace::{Event, Kind, Op};
    use parking_lot::Mutex;

    /// Identity map and reduce; the map raises `flag`, when there is one,
    /// at its first record — a cancel order landing mid-kernel.
    struct Raise(Option<Arc<AtomicBool>>);

    impl Program for Raise {
        fn map_bytes(
            &self,
            _: FuncId,
            key: &[u8],
            value: &[u8],
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            if let Some(flag) = &self.0 {
                flag.store(true, Ordering::Relaxed);
            }
            emit(key, value);
            Ok(())
        }
        fn reduce_bytes(
            &self,
            _: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            values.for_each(|v| emit(key, v));
            Ok(())
        }
    }

    /// An attempt's outcome (its output count), tally and events, as its
    /// sink saw them.
    type Seen = (std::result::Result<usize, Error>, JobMetrics, Vec<Event>);

    /// A plane handing out one attempt, fetching `remote` for it when it
    /// came without inputs; its sink keeps the outcome and every event
    /// recorded before the sink ran.
    struct OneAttempt {
        attempt: Mutex<Option<Attempt<()>>>,
        remote: Vec<Bucket>,
        rec: Recorder,
        seen: Mutex<Option<Seen>>,
    }

    impl Plane for OneAttempt {
        type Task = ();
        fn next(&self, _: &TraceHandle) -> Option<Attempt<()>> {
            self.attempt.lock().take()
        }
        fn fetch(
            &self,
            _: &(),
            _: Option<&AtomicBool>,
            _: &mut JobMetrics,
        ) -> std::result::Result<Vec<Input>, Failure> {
            Ok(self.remote.iter().map(|b| Input::Wire(Payload::raw(write_bucket(b)))).collect())
        }
        fn stem(&self, tag: &Tag) -> String {
            format!("t{}", tag.index)
        }
        fn finish(&self, done: Done<()>, _: &TraceHandle) -> Result<()> {
            let outcome = done.outcome.map(|out| out.len()).map_err(|f| f.error);
            *self.seen.lock() = Some((outcome, done.tally, self.rec.drain().0));
            Ok(())
        }
    }

    /// Each attempt shape through the one loop, on a plane with a store: a
    /// map, a reduce gathering two own runs, a map whose cancel flag is
    /// raised inside the kernel, and a reduce whose two runs the plane
    /// fetches. Before the sink runs, the attempt's span is closed and
    /// holds exactly its phases, in order; the gather counted own runs and
    /// fetched sorted ones as presorted; a cancelled attempt stored
    /// nothing.
    #[test]
    fn one_span_shape_closed_before_the_sink() {
        use Kind::{Begin, End, Instant};
        use Name::{Cancel, Emit, Exec, Fetch, Merge};
        let bucket = || {
            let records = [(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())];
            Bucket::from_records(records.to_vec())
        };
        let split = || Input::Own(Arc::new(bucket()));
        let map = TaskSpec::Map { func: 0, parts: 2, combine: false };
        let flag = Arc::new(AtomicBool::new(false));
        type Row = (TaskSpec, Option<Vec<Input>>, Option<Arc<AtomicBool>>, Vec<(Kind, Name)>);
        let rows: [Row; 4] = [
            (
                map,
                Some(vec![split()]),
                None,
                vec![(Begin, Exec), (End, Exec), (Begin, Emit), (End, Emit)],
            ),
            (
                TaskSpec::Reduce { func: 0 },
                Some(vec![split(), split()]),
                None,
                vec![
                    (Begin, Merge),
                    (End, Merge),
                    (Begin, Exec),
                    (End, Exec),
                    (Begin, Emit),
                    (End, Emit),
                ],
            ),
            (
                map,
                Some(vec![split()]),
                Some(flag.clone()),
                vec![(Begin, Exec), (End, Exec), (Instant, Cancel)],
            ),
            (
                TaskSpec::Reduce { func: 0 },
                None,
                None,
                vec![
                    (Begin, Fetch),
                    (End, Fetch),
                    (Begin, Merge),
                    (End, Merge),
                    (Begin, Exec),
                    (End, Exec),
                    (Begin, Emit),
                    (End, Emit),
                ],
            ),
        ];
        for (index, (spec, inputs, cancel, phases)) in rows.into_iter().enumerate() {
            let store = MemFs::new();
            let tag = Tag::task(crate::proto::trace_op(&spec), 1, index, 1);
            let cancelled = cancel.is_some();
            let plane = OneAttempt {
                attempt: Mutex::new(Some(Attempt {
                    task: (),
                    spec,
                    tag,
                    since_us: 0,
                    inputs,
                    cancel,
                })),
                remote: vec![bucket(), bucket()],
                rec: Recorder::new(),
                seen: Mutex::default(),
            };
            let program = Raise(cancelled.then(|| flag.clone()));
            let store_step = Some((&store as &dyn Store, CompressMode::default()));
            let workers =
                Workers { program: &program, store: store_step, slots: 1, trace: &plane.rec };
            workers.run(&plane).unwrap();

            let (outcome, tally, events) = plane.seen.lock().take().expect("the sink ran");
            let mut want = vec![(Begin, Name::Attempt)];
            want.extend(phases);
            want.push((End, Name::Attempt));
            assert!(events.iter().all(|e| e.tag == tag && e.lane == 0), "{events:?}");
            assert_eq!(events.iter().map(|e| (e.kind, e.name)).collect::<Vec<_>>(), want);
            match outcome {
                Err(Error::Cancelled) => assert!(cancelled),
                Ok(n) => {
                    assert_eq!((n, store.list("").unwrap().len()), (spec.parts().unwrap_or(1), n))
                }
                Err(e) => panic!("{e}"),
            }
            assert!(!cancelled || store.list("").unwrap().is_empty(), "a cancelled attempt stored");
            let gathered = if tag.op == Op::Map { 0 } else { 2 };
            assert_eq!((tally.merge_runs(), tally.presorted_runs()), (gathered, gathered));
        }
    }

    /// Notes the address range of every key and value slice the kernel
    /// is handed; identity map and reduce.
    #[derive(Default)]
    struct Addresses(Mutex<Vec<std::ops::Range<usize>>>);

    impl Addresses {
        fn note(&self, bytes: &[u8]) {
            let range = bytes.as_ptr_range();
            self.0.lock().push(range.start as usize..range.end as usize);
        }
    }

    impl Program for Addresses {
        fn map_bytes(
            &self,
            _: FuncId,
            key: &[u8],
            value: &[u8],
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            self.note(key);
            self.note(value);
            emit(key, value);
            Ok(())
        }
        fn reduce_bytes(
            &self,
            _: FuncId,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            emit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<()> {
            self.note(key);
            for value in values {
                self.note(value);
                emit(key, value);
            }
            Ok(())
        }
    }

    /// A map's fetched split and a reduce's fetched runs reach the kernel
    /// where they arrived: every key and value slice it reads lies inside
    /// a body the fetch received off the socket, not in a copy of it.
    #[test]
    fn fetched_inputs_are_read_where_they_arrived() {
        let cache = Arc::new(mrs_rpc::FrameCache::new());
        let records = |tag: u8| -> Vec<mrs_core::Record> {
            (1..40u8).map(|i| (vec![tag, i, i], vec![i; 1 + i as usize % 9])).collect()
        };
        cache.insert("split", mrs_fs::format::frame_records(&records(0), CompressMode::Off));
        for (path, tag) in [("run0", 1), ("run1", 2)] {
            let run = Bucket::from_records(records(tag));
            cache.insert(path, frame_bucket(&run, CompressMode::Off, true));
        }
        let server = mrs_rpc::DataServer::serve(0, cache.provider()).unwrap();
        let map = TaskSpec::Map { func: 0, parts: 2, combine: false };
        for (spec, paths) in
            [(map, vec!["split"]), (TaskSpec::Reduce { func: 0 }, vec!["run0", "run1"])]
        {
            let urls: Vec<String> = paths.iter().map(|p| server.url_for(p)).collect();
            let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
            let fetched =
                crate::proto::fetch_buckets(&urls, None, None, None, &mut JobMetrics::default());
            let (inputs, bodies): (Vec<Input>, Vec<std::ops::Range<usize>>) = fetched
                .into_iter()
                .map(|got| {
                    let payload = got.unwrap().expect("a bucket with records");
                    let body = payload.as_ref().as_ptr_range();
                    (Input::Wire(payload), body.start as usize..body.end as usize)
                })
                .unzip();
            let tag = Tag::task(crate::proto::trace_op(&spec), 1, 0, 1);
            let plane = OneAttempt {
                attempt: Mutex::new(Some(Attempt {
                    task: (),
                    spec,
                    tag,
                    since_us: 0,
                    inputs: Some(inputs),
                    cancel: None,
                })),
                remote: Vec::new(),
                rec: Recorder::new(),
                seen: Mutex::default(),
            };
            let program = Addresses::default();
            let workers = Workers { program: &program, store: None, slots: 1, trace: &plane.rec };
            workers.run(&plane).unwrap();
            let (outcome, _, _) = plane.seen.lock().take().expect("the sink ran");
            assert!(outcome.is_ok(), "{spec:?}");
            let read = program.0.lock();
            assert_eq!(read.len(), 2 * 39 * paths.len(), "{spec:?}: every key and value");
            for slice in read.iter() {
                let inside = bodies.iter().any(|b| b.start <= slice.start && slice.end <= b.end);
                assert!(inside, "{spec:?}: a slice at {slice:?} lies outside every received body");
            }
        }
    }
}
