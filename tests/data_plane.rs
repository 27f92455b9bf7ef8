//! What a default-config cluster puts on the data plane: checksummed
//! *stored* `MRSF1` frames that advertise their sort order — and what a
//! consumer does when one of them arrives damaged. A direct-plane slave
//! holds buckets and frames one only when a peer asks; the frame is the
//! same bytes either way.

use corpus::{Corpus, CorpusConfig};
use mrs::apps::wordcount::{decode_counts, lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_core::task::{run_map_task_bucket, run_task};
use mrs_core::{Bucket, TaskSpec};
use mrs_fs::format::{read_bucket_run, write_bucket, RunInfo};
use mrs_fs::{MemFs, Store, TempFs};
use mrs_rpc::{dataserver, DataServer, HttpClient, Served};
use mrs_runtime::data::split_evenly;
use mrs_runtime::metrics::JobMetrics;
use mrs_runtime::proto::{fetch_records, Assignment};
use mrs_runtime::slave::run_slave;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

const FRAME_HEADER_LEN: usize = 18;

fn lines() -> Vec<String> {
    (0..400).map(|i| format!("common w{} w{} w{}", i % 13, i % 29, i % 7)).collect()
}

/// Run a no-combiner WordCount (every token crosses the shuffle) on
/// `slaves` slaves and return the cluster's metrics. With `sync`, the
/// cluster waits there once started and once the job is done, so that
/// clusters sharing it overlap for their whole jobs.
fn wordcount_on(plane: DataPlane, slaves: usize, sync: Option<&Barrier>) -> JobMetrics {
    let lines = lines();
    let input = lines_to_records(lines.iter().map(String::as_str));
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), slaves, plane, MasterConfig::default())
            .unwrap();
    let meet = || sync.map(|b| b.wait());
    meet();
    let out = Job::new(&mut cluster).map_reduce(input, 6, 3, false).unwrap();
    meet();
    let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));
    assert_eq!(decode_counts(&out).unwrap(), bypass);
    cluster.metrics()
}

fn wordcount(plane: DataPlane) -> JobMetrics {
    wordcount_on(plane, 2, None)
}

/// A store that keeps a copy of everything ever put in it. The master
/// deletes a reclaimed dataset's files as soon as it is reclaimed; `seen`
/// still holds every frame the job stored.
struct Tee {
    live: MemFs,
    seen: MemFs,
}

impl Store for Tee {
    fn put(&self, path: &str, data: &[u8]) -> mrs_core::Result<()> {
        self.seen.put(path, data)?;
        self.live.put(path, data)
    }
    fn get(&self, path: &str) -> mrs_core::Result<Vec<u8>> {
        self.live.get(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.live.exists(path)
    }
    fn list(&self, prefix: &str) -> mrs_core::Result<Vec<String>> {
        self.live.list(prefix)
    }
    fn delete(&self, path: &str) -> mrs_core::Result<()> {
        self.live.delete(path)
    }
}

/// Run the WordCount on a shared store; return every frame it stored,
/// reclaimed ones included.
fn wordcount_stored() -> MemFs {
    let seen = MemFs::new();
    wordcount(DataPlane::SharedFs(Arc::new(Tee { live: MemFs::new(), seen: seen.clone() })));
    seen
}

/// Every bucket a default-config cluster wrote to `store`, with what the
/// bucket reader made of it.
fn stored_frames(store: &dyn Store) -> Vec<(String, Vec<u8>, Bucket, RunInfo)> {
    let mut paths = store.list("").unwrap();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let wire = store.get(&path).unwrap();
            let mut bucket = Bucket::new();
            let info = read_bucket_run(&wire, &mut bucket).unwrap();
            (path, wire, bucket, info)
        })
        .collect()
}

#[test]
fn default_config_cluster_ships_stored_sorted_frames() {
    // Over sockets: a stored frame is its bucket plus a header, so the
    // wire carries no less than the decoded volume.
    let m = wordcount(DataPlane::Direct);
    assert!(m.bytes_pre_compress() > 0, "the job moved nothing over HTTP");
    assert!(
        m.bytes_on_wire() >= m.bytes_pre_compress(),
        "default frames are stored, not compressed: {} on wire, {} decoded",
        m.bytes_on_wire(),
        m.bytes_pre_compress()
    );
    assert!(m.merge_runs() > 0);
    assert_eq!(m.presorted_runs(), m.merge_runs(), "every fragment reaches the merge sorted");

    // On a shared store the frames themselves can be inspected: master
    // source splits and slave task outputs alike are framed and stored,
    // and task outputs carry the sorted-run flag the reader honours.
    let frames = stored_frames(&wordcount_stored());
    let task_outputs = frames.iter().filter(|(path, ..)| path.contains("/t")).count();
    assert!(task_outputs >= 6 * 3 + 3, "map and reduce outputs are in the store: {task_outputs}");
    assert!(frames.len() > task_outputs, "so are the master's source splits");
    for (path, wire, bucket, info) in &frames {
        assert_eq!(&wire[..5], b"MRSF1", "{path} is not framed");
        assert_eq!(wire[5] & 1, 0, "{path} is compressed");
        assert_eq!(&wire[FRAME_HEADER_LEN..], &write_bucket(bucket)[..], "{path} payload");
        if path.contains("/t") {
            assert_eq!(*info, RunInfo { claimed_sorted: true, sorted: true }, "{path}");
        }
    }
}

/// Zipf text of about 32 000 tokens, as WordCount input records.
fn zipf_input() -> Vec<Record> {
    let config = CorpusConfig { n_files: 16, seed: 11, mean_tokens: 2_000, ..Default::default() };
    let corpus = Corpus::new(config);
    let docs: Vec<String> = (0..16).map(|i| corpus.document(i)).collect();
    lines_to_records(docs.iter().flat_map(|d| d.lines()))
}

/// The direct-plane twin of the stored-frame check above: on a real
/// cluster, every frame a slave serves is, byte for byte, the frame of the
/// bucket its kernel returned — computed here from the same splits — in
/// both compression modes. Map outputs claim a sorted run; so do these
/// reduce outputs, whose keys are in order. On Zipf text, compression
/// at least halves the bytes a socket carries per decoded byte, and a
/// stored frame carries more than its bucket: the bucket plus a header.
#[test]
fn direct_plane_serves_the_frame_of_the_bucket_the_kernel_returned() {
    let (maps, reduces) = (4, 3);
    let input = zipf_input();
    let program = Simple(WordCount);
    let map = TaskSpec::Map { func: 0, parts: reduces, combine: false };
    let mapped_buckets: Vec<Vec<Bucket>> = split_evenly(input.clone(), maps)
        .into_iter()
        .map(|split| run_task(&program, &map, &[Bucket::from_records(split)], None).unwrap())
        .collect();
    let reduced_buckets: Vec<Vec<Bucket>> = (0..reduces)
        .map(|p| {
            let runs: Vec<&Bucket> = mapped_buckets.iter().map(|task| &task[p]).collect();
            run_task(&program, &TaskSpec::Reduce { func: 0 }, &runs, None).unwrap()
        })
        .collect();

    let wire = [CompressMode::Off, CompressMode::On].map(|mode| {
        let cfg = MasterConfig { compress: mode, ..MasterConfig::default() };
        let mut cluster =
            LocalCluster::start(Arc::new(Simple(WordCount)), 2, DataPlane::Direct, cfg).unwrap();
        let src = cluster.local_data(input.clone(), maps).unwrap();
        let mapped = cluster.map_data(src, 0, reduces, false).unwrap();
        cluster.keep(mapped);
        let reduced = cluster.reduce_data(mapped, 0).unwrap();
        cluster.wait(reduced).unwrap();

        // Every slave's data server, by slave id, from the master's page.
        let (_, status) = HttpClient::get(&cluster.http_authority(), "/status").unwrap();
        let status = String::from_utf8(status).unwrap();
        let slaves: Vec<(&str, &str)> = status
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("slave ")?.split_once(": "))
            .map(|(id, rest)| (id, rest.split(' ').next().unwrap()))
            .collect();
        assert_eq!(slaves.len(), 2, "{status}");

        for (data, buckets) in [(mapped, &mapped_buckets), (reduced, &reduced_buckets)] {
            for (t, task) in buckets.iter().enumerate() {
                for (p, bucket) in task.iter().enumerate() {
                    let want = mrs_codec::encode_vec_sorted(write_bucket(bucket), mode, true);
                    let served: Vec<Vec<u8>> = slaves
                        .iter()
                        .filter_map(|(s, authority)| {
                            let path = format!("/data/s{s}/d{}/t{t}/b{p}.mrsb", data.0);
                            dataserver::fetch(authority, &path).ok()
                        })
                        .collect();
                    assert!(!served.is_empty(), "no slave serves d{}/t{t}/b{p}", data.0);
                    for frame in served {
                        assert!(frame == want, "d{}/t{t}/b{p} ({mode:?}) differs", data.0);
                    }
                }
            }
        }
        let m = cluster.metrics();
        assert_eq!(m.checksum_retries(), 0, "{mode:?}");
        (m.bytes_pre_compress(), m.bytes_on_wire())
    });
    // Which buckets cross a socket depends on where the tasks ran, so the
    // modes are compared per decoded byte.
    let [(off_pre, off_wire), (on_pre, on_wire)] = wire;
    assert!(
        off_wire > off_pre,
        "a stored frame is its bucket plus a header: {off_wire} <= {off_pre}"
    );
    assert!(
        on_wire * 2 * off_pre <= off_wire * on_pre,
        "compressed: {on_wire} of {on_pre} bytes; stored: {off_wire} of {off_pre}"
    );
}

#[test]
fn flipped_byte_in_a_stored_frame_is_refetched_exactly_once() {
    // A frame as a default-config slave emits it.
    let (_, good, bucket, _) = stored_frames(&wordcount_stored())
        .into_iter()
        .find(|(path, _, bucket, _)| path.contains("/t") && bucket.len() > 1)
        .expect("a non-trivial map output");
    let mut bad = good.clone();
    let mid = FRAME_HEADER_LEN + (bad.len() - FRAME_HEADER_LEN) / 2;
    bad[mid] ^= 0x04;

    // A peer that serves the damaged copy first and the clean one after.
    let (good, bad): (Arc<Vec<u8>>, Arc<Vec<u8>>) = (good.into(), bad.into());
    let hits = Arc::new(AtomicUsize::new(0));
    let server = {
        let hits = Arc::clone(&hits);
        DataServer::serve(
            0,
            Arc::new(move |_: &str, _| {
                Served::Frame(Arc::clone(if hits.fetch_add(1, Ordering::SeqCst) == 0 {
                    &bad
                } else {
                    &good
                }))
            }),
        )
        .unwrap()
    };

    let mut tally = JobMetrics::default();
    let got = fetch_records(&server.url_for("flaky"), None, &mut tally).unwrap();
    assert_eq!(got, bucket.to_records(), "the clean copy is what the consumer parses");
    assert_eq!(hits.load(Ordering::SeqCst), 2, "one fetch, one refetch");
    assert_eq!(tally.checksum_retries(), 1);
}

/// The same damage landing on the frame's first byte, inside a running
/// job: a reduce task's fetch sees a map output without its `MRSF1` magic.
/// That is wire damage like any other — the one bucket is fetched once
/// more and the job goes on — not an unframed bucket whose parse failure
/// would indict the producer and re-execute it.
#[test]
fn flipped_magic_byte_costs_one_refetch_and_no_reexecution() {
    let (maps, reduces) = (2, 2);
    let lines = lines();
    let input = lines_to_records(lines.iter().map(String::as_str));
    let program = Arc::new(Simple(WordCount));
    // A generous death timeout keeps the silent producer below valid for
    // the whole job, and with no backups every task runs exactly once.
    let cfg = MasterConfig {
        speculate: SpeculateMode::Off,
        slave_timeout: std::time::Duration::from_secs(120),
        ..MasterConfig::default()
    };
    let mut master = Master::new(cfg, DataPlane::Direct).unwrap();
    let src = master.local_data(input, maps).unwrap();
    let mapped = master.map_data(src, 0, reduces, false).unwrap();
    let reduced = master.reduce_data(mapped, 0).unwrap();

    // The map wave runs on a hand-driven producer whose data server
    // damages the first byte of the first frame it is asked for, once.
    let frames: Arc<Mutex<HashMap<String, Arc<Vec<u8>>>>> = Arc::default();
    let hits: Arc<Mutex<Vec<String>>> = Arc::default();
    let server = {
        let (frames, hits) = (Arc::clone(&frames), Arc::clone(&hits));
        DataServer::serve(
            0,
            Arc::new(move |path: &str, _| {
                let Some(frame) = frames.lock().unwrap().get(path).cloned() else {
                    return Served::Missing;
                };
                let mut hits = hits.lock().unwrap();
                hits.push(path.to_owned());
                if hits.len() > 1 {
                    return Served::Frame(frame);
                }
                let mut damaged = frame.to_vec();
                damaged[0] ^= 0x20;
                Served::Frame(damaged.into())
            }),
        )
        .unwrap()
    };
    let producer = master.signin(&server.authority(), maps);
    let Assignment::Tasks(tasks) = master.get_tasks(producer, maps) else {
        panic!("the map wave is ready")
    };
    assert_eq!(tasks.len(), maps);
    for t in &tasks {
        let split = fetch_records(&t.inputs[0], None, &mut JobMetrics::default()).unwrap();
        let split = Bucket::from_records(split);
        let out =
            run_map_task_bucket(program.as_ref(), t.func, &split, t.parts, t.combine).unwrap();
        let urls = (0..t.parts)
            .map(|p| {
                let path = format!("s{producer}/d{}/t{}/b{p}.mrsb", t.data, t.index);
                let frame = mrs_codec::encode_vec_sorted(
                    write_bucket(&out[p]),
                    CompressMode::default(),
                    true,
                );
                frames.lock().unwrap().insert(path.clone(), frame.into());
                server.url_for(&path)
            })
            .collect();
        master.task_done(producer, t.data, t.index, t.attempt, urls);
    }

    // A real slave takes the reduce wave and fetches from that server;
    // its counts reach the master on the polls that report the reduces.
    let slave = {
        let (master, program) = (master.clone(), Arc::clone(&program));
        std::thread::spawn(move || {
            let opts = SlaveOptions::default();
            run_slave(&master, program, DataPlane::Direct, &opts, &AtomicBool::new(false))
        })
    };
    let out = master.fetch_all(reduced).unwrap();
    master.finish();
    slave.join().unwrap().unwrap();

    let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));
    assert_eq!(decode_counts(&out).unwrap(), bypass, "job output");
    let m = master.metrics();
    assert_eq!(m.checksum_retries(), 1);
    assert_eq!(m.merge_runs(), (maps * reduces) as u64, "one merge run per map-output bucket");
    assert_eq!(m.presorted_runs(), m.merge_runs(), "each of them arriving sorted");
    let hits = hits.lock().unwrap();
    assert_eq!(hits.len(), maps * reduces + 1, "every bucket once, one of them twice: {hits:?}");
    assert_eq!(hits.iter().filter(|p| **p == hits[0]).count(), 2, "{hits:?}");
    assert_eq!(m.tasks_retried(), 0, "a damaged transfer must not re-execute its producer");
    assert_eq!(m.tasks_executed(), (maps + reduces) as u64);
}

/// Counters belong to a cluster, not to the process: two clusters running
/// the same job side by side each count exactly what that job counts
/// alone. One slave each, so every reduce input is the slave's own and
/// what crosses a socket (source splits in, results out) does not depend
/// on where the scheduler put a task.
#[test]
fn two_clusters_at_once_each_count_only_their_own_job() {
    let counted = |m: &JobMetrics| {
        (m.merge_runs(), m.presorted_runs(), m.bytes_pre_compress(), m.peak_reduce_records())
    };
    let solo = counted(&wordcount_on(DataPlane::Direct, 1, None));
    assert!(solo.0 > 0 && solo.2 > 0 && solo.3 > 0, "{solo:?}");
    let sync = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| wordcount_on(DataPlane::Direct, 1, Some(&sync)));
        let b = s.spawn(|| wordcount_on(DataPlane::Direct, 1, Some(&sync)));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(counted(&a), solo);
    assert_eq!(counted(&b), solo);
}

/// Two lines over three words, in more splits than records and more
/// partitions than words: most buckets of the job have no records.
fn sparse_lines() -> Vec<String> {
    vec!["a b".into(), "b c".into()]
}

/// (splits, partitions) of the sparse job.
const SPARSE: (usize, usize) = (3, 8);

/// The buckets with records the sparse job makes: (source splits, map
/// outputs, reduce outputs). A map task's output holds records in each
/// partition a word of its split lands in; a reduce's, when its
/// partition holds a word.
fn sparse_buckets_with_records() -> (usize, usize, usize) {
    let (splits, parts) = SPARSE;
    let lines = sparse_lines();
    let records = lines_to_records(lines.iter().map(String::as_str));
    let partitions = |lines: &[String]| {
        let words = lines.iter().flat_map(|l| l.split_whitespace());
        let part = |w: &str| {
            let key = mrs_core::kv::encode_record(&w.to_owned(), &0u64).0;
            Simple(WordCount).partition(&key, parts)
        };
        words.map(part).collect::<std::collections::BTreeSet<_>>().len()
    };
    let mut rest = &lines[..];
    let mut split_lines = Vec::new();
    for split in split_evenly(records, splits) {
        let (head, tail) = rest.split_at(split.len());
        split_lines.push(head);
        rest = tail;
    }
    let sources = split_lines.iter().filter(|s| !s.is_empty()).count();
    (sources, split_lines.iter().map(|s| partitions(s)).sum(), partitions(&lines))
}

/// Run the sparse job on `api`, check its answer and discard its input
/// and its answer.
fn sparse_job(api: &mut dyn JobApi) {
    let lines = sparse_lines();
    let (splits, parts) = SPARSE;
    let mut job = Job::new(api);
    let src = job.local_data(lines_to_records(lines.iter().map(String::as_str)), splits).unwrap();
    let mapped = job.map_data(src, 0, parts, false).unwrap();
    let reduced = job.reduce_data(mapped, 0).unwrap();
    let out = job.fetch_all(reduced).unwrap();
    let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));
    assert_eq!(decode_counts(&out).unwrap(), bypass);
    job.discard(src);
    job.discard(reduced);
}

/// An output with no records has no file. On the shared-filesystem plane
/// the master stores only the source splits with records and the slaves
/// only the map and reduce outputs with records; every stored frame holds
/// records, and once the job's datasets are discarded the store is as
/// empty as before the job. Mock parallel spills only the outputs with
/// records, too.
#[test]
fn an_output_with_no_records_is_stored_nowhere() {
    let (sources, maps, reduces) = sparse_buckets_with_records();
    let (splits, parts) = SPARSE;
    assert!(sources < splits && maps < splits * parts && reduces < parts, "nothing is empty");

    let (live, seen) = (MemFs::new(), MemFs::new());
    let tee = Tee { live: live.clone(), seen: seen.clone() };
    let plane = DataPlane::SharedFs(Arc::new(tee));
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), 2, plane, MasterConfig::default())
            .unwrap();
    sparse_job(&mut cluster);
    drop(cluster);
    let stored = stored_frames(&seen);
    assert!(stored.iter().all(|(_, _, bucket, _)| !bucket.is_empty()), "an empty frame was stored");
    let paths: Vec<&str> = stored.iter().map(|(path, ..)| path.as_str()).collect();
    let count = |f: &dyn Fn(&str) -> bool| paths.iter().filter(|p| f(p)).count();
    assert_eq!(count(&|p| p.starts_with("src")), sources, "{paths:?}");
    assert_eq!(
        count(&|p| p.starts_with('s') && !p.starts_with("src")),
        maps + reduces,
        "{paths:?}"
    );
    assert!(live.list("").unwrap().is_empty(), "left behind: {:?}", live.list(""));

    let spill = MemFs::new();
    sparse_job(&mut LocalRuntime::mock_parallel(
        Arc::new(Simple(WordCount)),
        Arc::new(spill.clone()),
    ));
    let stored = stored_frames(&spill);
    assert!(
        stored.iter().all(|(_, _, bucket, _)| !bucket.is_empty()),
        "an empty frame was spilled"
    );
    let paths: Vec<&str> = stored.iter().map(|(path, ..)| path.as_str()).collect();
    assert_eq!(paths.iter().filter(|p| p.contains("/map")).count(), maps, "{paths:?}");
    assert_eq!(paths.len(), maps + reduces, "{paths:?}");
}

/// Run `jobs` WordCount jobs (6 maps and 3 reduces on 2 slaves) on a
/// cluster sharing `store`, each discarding its input and its answer.
fn discarded_jobs(store: Arc<dyn Store>, jobs: usize) {
    let plane = DataPlane::SharedFs(store);
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), 2, plane, MasterConfig::default())
            .unwrap();
    let lines = lines();
    for _ in 0..jobs {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(lines_to_records(lines.iter().map(String::as_str)), 6).unwrap();
        let mapped = job.map_data(src, 0, 3, false).unwrap();
        let reduced = job.reduce_data(mapped, 0).unwrap();
        job.fetch_all(reduced).unwrap();
        job.discard(src);
        job.discard(reduced);
    }
}

/// Files left in a shared store after `jobs` discarded jobs.
fn files_after_discarded_jobs(jobs: usize) -> usize {
    let store = MemFs::new();
    discarded_jobs(Arc::new(store.clone()), jobs);
    store.list("").unwrap().len()
}

/// Directories under the root of a shared `LocalFs` store after `jobs`
/// discarded jobs.
fn directories_after_discarded_jobs(jobs: usize) -> usize {
    fn count(dir: &Path) -> usize {
        let subdirs =
            std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).filter(|p| p.is_dir());
        subdirs.map(|d| 1 + count(&d)).sum()
    }
    let store = Arc::new(TempFs::new("dirs").unwrap());
    discarded_jobs(store.clone(), jobs);
    count(store.fs().root())
}

/// A reclaimed dataset's files leave the shared store: the source's
/// splits and the answer on discard, the map outputs when lifetime GC
/// frees them.
#[test]
fn a_shared_store_holds_as_many_files_after_30_discarded_jobs_as_after_10() {
    let files = [10, 20, 30].map(files_after_discarded_jobs);
    assert_eq!(files, [files[0]; 3], "files left after 10, 20 and 30 jobs");
}

/// On a `LocalFs` store the deletes also take the directories they empty,
/// so no `s{slave}/d{d}/t{i}/` tree outlives a reclaimed dataset.
#[test]
fn a_shared_local_fs_holds_as_many_directories_after_30_discarded_jobs_as_after_10() {
    let dirs = [10, 30].map(directories_after_discarded_jobs);
    assert_eq!(dirs, [dirs[0]; 2], "directories left after 10 and 30 jobs");
}
