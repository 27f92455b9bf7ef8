//! The paper's central debugging discipline (§IV-A): "A program's
//! master/slave, serial, mock parallel, and bypass implementations should
//! all produce identical answers. Differences in behavior between any two
//! implementations, even in stochastic algorithms, indicate a bug."
//!
//! These tests enforce that property across every runtime in the
//! workspace, for both WordCount (data-parallel) and PSO (stochastic,
//! iterative).

use mrs::apps::wordcount::{decode_counts, lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_core::FuncId;
use mrs_fs::MemFs;
use mrs_pso::mapreduce::{PsoProgram, FUNC_PARTICLE};
use mrs_pso::serial::SerialPso;
use mrs_pso::{Objective, Particle, PsoConfig, Topology};
use mrs_runtime::{LocalCluster, LocalRuntime};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod common;

fn sample_lines() -> Vec<String> {
    (0..60).map(|i| format!("alpha w{} w{} beta w{}", i % 7, i % 11, i % 3)).collect()
}

fn wordcount_on(job: &mut Job, maps: usize, reduces: usize) -> HashMap<String, u64> {
    let lines = sample_lines();
    let input = lines_to_records(lines.iter().map(String::as_str));
    let out = job.map_reduce(input, maps, reduces, true).unwrap();
    decode_counts(&out).unwrap()
}

#[test]
fn wordcount_identical_across_all_five_runtimes() {
    let lines = sample_lines();
    let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));

    let serial = {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        wordcount_on(&mut Job::new(&mut rt), 1, 1)
    };
    let mock = {
        let mut rt =
            LocalRuntime::mock_parallel(Arc::new(Simple(WordCount)), Arc::new(MemFs::new()));
        wordcount_on(&mut Job::new(&mut rt), 4, 3)
    };
    let pool = {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 6);
        wordcount_on(&mut Job::new(&mut rt), 5, 4)
    };
    let direct = {
        let mut cluster = LocalCluster::start(
            Arc::new(Simple(WordCount)),
            3,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        wordcount_on(&mut Job::new(&mut cluster), 4, 3)
    };
    let shared = {
        let store: Arc<dyn mrs_fs::Store> = Arc::new(MemFs::new());
        let mut cluster = LocalCluster::start(
            Arc::new(Simple(WordCount)),
            2,
            DataPlane::SharedFs(store),
            MasterConfig::default(),
        )
        .unwrap();
        wordcount_on(&mut Job::new(&mut cluster), 3, 2)
    };
    // Multi-slot slaves (capacity batching, workers fetching their own
    // inputs) must not perturb the answer.
    let multislot = {
        let mut cluster = LocalCluster::start_with(
            Arc::new(Simple(WordCount)),
            2,
            DataPlane::Direct,
            MasterConfig::default(),
            SlaveOptions { slots: 4, ..SlaveOptions::default() },
        )
        .unwrap();
        wordcount_on(&mut Job::new(&mut cluster), 6, 3)
    };
    // The shuffle codec must be invisible to the answer: a compressing
    // cluster and an explicitly storing one (the default the clusters
    // above run) cover both framing paths.
    let compress_on = {
        let cfg = MasterConfig { compress: CompressMode::On, ..MasterConfig::default() };
        let mut cluster =
            LocalCluster::start(Arc::new(Simple(WordCount)), 2, DataPlane::Direct, cfg).unwrap();
        wordcount_on(&mut Job::new(&mut cluster), 4, 3)
    };
    let compress_off = {
        let cfg = MasterConfig { compress: CompressMode::Off, ..MasterConfig::default() };
        let mut cluster =
            LocalCluster::start(Arc::new(Simple(WordCount)), 2, DataPlane::Direct, cfg).unwrap();
        wordcount_on(&mut Job::new(&mut cluster), 4, 3)
    };

    // Speculative execution is on by default in every cluster above; the
    // non-speculative scheduler is its oracle and must agree exactly.
    let speculate_off = {
        let cfg = MasterConfig { speculate: SpeculateMode::Off, ..MasterConfig::default() };
        let mut cluster =
            LocalCluster::start(Arc::new(Simple(WordCount)), 2, DataPlane::Direct, cfg).unwrap();
        let out = wordcount_on(&mut Job::new(&mut cluster), 4, 3);
        assert_eq!(
            cluster.metrics().speculative_launches(),
            0,
            "speculate=off must never launch a backup"
        );
        out
    };

    assert_eq!(bypass, serial, "serial vs bypass");
    assert_eq!(serial, mock, "mock vs serial");
    assert_eq!(mock, pool, "pool vs mock");
    assert_eq!(pool, direct, "distributed-direct vs pool");
    assert_eq!(direct, shared, "distributed-sharedfs vs distributed-direct");
    assert_eq!(shared, multislot, "multi-slot cluster vs distributed-sharedfs");
    assert_eq!(multislot, compress_on, "compress-on cluster vs multi-slot cluster");
    assert_eq!(compress_on, compress_off, "compress-off cluster vs compress-on cluster");
    assert_eq!(compress_off, speculate_off, "speculate-off cluster vs compress-off cluster");
}

/// Force an actual backup-vs-original race and check it is answer-neutral:
/// the first run of one map task is a straggler that runs far past the
/// speculation cutoff, so the master launches a backup on the other
/// slave, the backup wins, and the straggler is cancelled.
/// First-completion-wins arbitration must keep the output byte-identical
/// to the bypass count.
#[test]
fn forced_backup_race_preserves_the_answer() {
    let lines = sample_lines();
    let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));

    // Map task 0 reads lines 0..8; its first run waits for the release.
    let straggler = common::Straggler::new(8);
    let mut cluster =
        LocalCluster::start(straggler.clone(), 0, DataPlane::Direct, MasterConfig::default())
            .unwrap();
    // The first slave draws map task 0: it is the first task dispatched.
    // Only once its straggling run has started does a clean slave join.
    cluster.add_slave_with(SlaveOptions { slots: 2, ..Default::default() });
    let reduced = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(lines_to_records(lines.iter().map(String::as_str)), 8).unwrap();
        let mapped = job.map_data(src, 0, 3, true).unwrap();
        job.reduce_data(mapped, 0).unwrap()
    };
    straggler.await_start();
    cluster.add_slave_with(SlaveOptions { slots: 2, ..Default::default() });

    let raced = decode_counts(&Job::new(&mut cluster).fetch_all(reduced).unwrap()).unwrap();
    straggler.release();
    assert_eq!(raced, bypass, "forced-backup cluster vs bypass");
    let metrics = cluster.metrics();
    assert!(metrics.speculative_launches() >= 1, "the injected straggler never got a backup");
    assert!(metrics.speculative_wins() >= 1, "a full-speed backup should beat a held straggler");
    assert_eq!(
        metrics.speculative_launches(),
        metrics.speculative_wins() + metrics.speculative_losses(),
        "every speculative attempt must resolve as a win or a loss"
    );
}

#[test]
fn mixed_compression_slaves_interoperate() {
    // The master (source splits) and one slave compress their buckets,
    // the other slave stores them; consumers read the compressed bit per
    // payload, so a mixed cluster must still produce the exact answer.
    let lines = sample_lines();
    let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));
    let cfg = MasterConfig { compress: CompressMode::On, ..MasterConfig::default() };
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), 1, DataPlane::Direct, cfg).unwrap();
    cluster.add_slave_with(SlaveOptions { compress: CompressMode::Off, ..SlaveOptions::default() });
    let mixed = wordcount_on(&mut Job::new(&mut cluster), 6, 4);
    assert_eq!(mixed, bypass, "mixed-compression cluster vs bypass");
}

/// The merge reduce on the plan that stresses it hardest: with no
/// combiner, map tasks emit full unaggregated runs, so reduce tasks see
/// many duplicate keys per run and the streaming k-way merge must group
/// them exactly as the bypass count does. Any divergence — grouping,
/// value order within a key, output order — is a bug, so the comparison
/// is on the raw decoded counts across every plane.
#[test]
fn merge_oracle_wordcount_no_combiner_identical() {
    let lines = sample_lines();
    let input = lines_to_records(lines.iter().map(String::as_str));
    let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));

    let serial_merge = {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        let out = Job::new(&mut rt).map_reduce(input.clone(), 5, 4, false).unwrap();
        decode_counts(&out).unwrap()
    };
    let pool_merge = {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 4);
        let out = Job::new(&mut rt).map_reduce(input.clone(), 5, 4, false).unwrap();
        decode_counts(&out).unwrap()
    };
    let cluster_merge = {
        let mut cluster = LocalCluster::start(
            Arc::new(Simple(WordCount)),
            2,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        let out = Job::new(&mut cluster).map_reduce(input.clone(), 5, 4, false).unwrap();
        let counts = decode_counts(&out).unwrap();
        let m = cluster.metrics();
        assert!(m.merge_runs() > 0, "the cluster never recorded a merge run");
        assert_eq!(
            m.presorted_runs(),
            m.merge_runs(),
            "every map output must arrive as a presorted run"
        );
        counts
    };

    assert_eq!(serial_merge, bypass, "serial merge vs bypass");
    assert_eq!(pool_merge, serial_merge, "pool merge vs serial merge");
    assert_eq!(cluster_merge, pool_merge, "cluster merge vs pool merge");
}

/// Long words whose encoded keys (a length byte, then the word) share an
/// 8-byte prefix: the three 16-letter ones all begin `\x10interna`.
const LONG_WORDS: [&str; 5] = [
    "internationalization",
    "internationalize",
    "internationally",
    "internationalism",
    "internationalist",
];

/// 400 lines mixing the long words, in no sorted order, with short
/// ones: four map tasks see about 170 records per partition.
fn long_word_lines() -> Vec<String> {
    (0..400)
        .map(|i| {
            let long = |k: usize| LONG_WORDS[(i * 7 + k * 3) % LONG_WORDS.len()];
            format!("{} w{} {} alpha {} w{}", long(0), i % 9, long(1), long(2), i % 5)
        })
        .collect()
}

/// No-combiner WordCount where each map task's partitions repeat a few
/// dozen words, some of them long words that tie on the 8-byte prefix:
/// every bucket sort counts its entries into groups and then orders the
/// tied long words by their bytes. The raw output is byte-identical on
/// serial, mock parallel, the pool and a 2-slave cluster on both data
/// planes, and counts what the bypass counts.
#[test]
fn no_combiner_wordcount_over_prefix_sharing_words_is_byte_identical_on_every_plane() {
    let lines = long_word_lines();
    let input = lines_to_records(lines.iter().map(String::as_str));
    let (maps, reduces) = (4, 3);
    let tied = LONG_WORDS.iter().filter(|w| w.len() == 16).map(|w| {
        let key = mrs_core::kv::encode_record(&w.to_string(), &0u64).0;
        Simple(WordCount).partition(&key, reduces)
    });
    let mut tied: Vec<usize> = tied.collect();
    tied.sort();
    assert!(tied.windows(2).any(|w| w[0] == w[1]), "no partition holds two tied long words");

    let run = |api: &mut dyn JobApi| {
        Job::new(api).map_reduce(input.clone(), maps, reduces, false).unwrap()
    };
    let program = || Arc::new(Simple(WordCount));
    let serial = run(&mut SerialRuntime::new(program()));
    let mock = run(&mut LocalRuntime::mock_parallel(program(), Arc::new(MemFs::new())));
    let pool = run(&mut LocalRuntime::pool(program(), 4));
    let direct =
        run(&mut LocalCluster::start(program(), 2, DataPlane::Direct, MasterConfig::default())
            .unwrap());
    let shared = {
        let plane = DataPlane::SharedFs(Arc::new(MemFs::new()));
        run(&mut LocalCluster::start(program(), 2, plane, MasterConfig::default()).unwrap())
    };

    let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));
    assert_eq!(decode_counts(&serial).unwrap(), bypass, "serial vs bypass");
    assert_eq!(mock, serial, "mock parallel vs serial");
    assert_eq!(pool, serial, "pool vs serial");
    assert_eq!(direct, serial, "2-slave direct cluster vs serial");
    assert_eq!(shared, serial, "2-slave shared-FS cluster vs serial");
}

/// WordCount whose partitioner sends every key to partition 0: every
/// other partition of every map task is empty, and so is every other
/// reduce's output.
struct AllToZero;

impl Program for AllToZero {
    fn map_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        Simple(WordCount).map_bytes(func, key, value, emit)
    }
    fn reduce_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        Simple(WordCount).reduce_bytes(func, key, values, emit)
    }
    fn combine_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        Simple(WordCount).combine_bytes(func, key, values, emit)
    }
    fn has_combiner(&self, func: FuncId) -> bool {
        Simple(WordCount).has_combiner(func)
    }
    fn partition(&self, _key: &[u8], _n: usize) -> usize {
        0
    }
}

/// A shared store that counts the reads it serves.
#[derive(Default)]
struct CountingStore {
    fs: MemFs,
    gets: AtomicUsize,
}

impl mrs_fs::Store for CountingStore {
    fn put(&self, path: &str, data: &[u8]) -> Result<()> {
        self.fs.put(path, data)
    }
    fn get(&self, path: &str) -> Result<Vec<u8>> {
        self.gets.fetch_add(1, Ordering::SeqCst);
        self.fs.get(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.fs.exists(path)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.fs.list(prefix)
    }
    fn delete(&self, path: &str) -> Result<()> {
        self.fs.delete(path)
    }
}

/// One job's raw output on every plane, each named, serial first; beside
/// it the direct cluster's metrics, how many reads the shared-FS
/// cluster's store served, and the datasets each parallel plane still
/// held live after the job.
struct EveryPlane {
    outputs: Vec<(&'static str, Vec<Record>)>,
    direct: mrs_runtime::metrics::JobMetrics,
    shared_reads: u64,
    live: Vec<(&'static str, u64)>,
}

/// Run `job` on serial, mock parallel, the pool, and 2-slave clusters on
/// the direct and the shared-filesystem plane. The clusters store their
/// frames uncompressed and do not speculate, so what they move is exactly
/// what the job needs.
fn on_every_plane(
    program: &dyn Fn() -> Arc<dyn Program>,
    job: &dyn Fn(&mut Job) -> Vec<Record>,
) -> EveryPlane {
    let serial = job(&mut Job::new(&mut SerialRuntime::new(program())));
    let mut mock_rt = LocalRuntime::mock_parallel(program(), Arc::new(MemFs::new()));
    let mock = job(&mut Job::new(&mut mock_rt));
    let mut pool_rt = LocalRuntime::pool(program(), 4);
    let pool = job(&mut Job::new(&mut pool_rt));
    let cfg = MasterConfig {
        compress: CompressMode::Off,
        speculate: SpeculateMode::Off,
        ..MasterConfig::default()
    };
    let mut cluster = LocalCluster::start(program(), 2, DataPlane::Direct, cfg.clone()).unwrap();
    let direct = job(&mut Job::new(&mut cluster));
    let direct_metrics = cluster.metrics();
    let store = Arc::new(CountingStore::default());
    let plane = DataPlane::SharedFs(store.clone());
    let mut shared_cluster = LocalCluster::start(program(), 2, plane, cfg).unwrap();
    let shared = job(&mut Job::new(&mut shared_cluster));
    EveryPlane {
        outputs: vec![
            ("serial", serial),
            ("mock parallel", mock),
            ("pool", pool),
            ("2-slave direct cluster", direct),
            ("2-slave shared-FS cluster", shared),
        ],
        live: vec![
            ("mock parallel", mock_rt.metrics().live_datasets()),
            ("pool", pool_rt.metrics().live_datasets()),
            ("2-slave direct cluster", direct_metrics.live_datasets()),
            ("2-slave shared-FS cluster", shared_cluster.metrics().live_datasets()),
        ],
        direct: direct_metrics,
        shared_reads: store.gets.load(Ordering::SeqCst) as u64,
    }
}

/// A driver that discards each dataset as soon as its reader is queued —
/// the source after its map, the map after its reduce, the result once it
/// is fetched — gets serial's answer on every plane, and no plane holds a
/// dataset live after it: each is freed once its reader completes.
#[test]
fn early_discards_are_byte_identical_and_free_everything_on_every_plane() {
    let lines = sample_lines();
    let input = lines_to_records(lines.iter().map(String::as_str));
    let job = |job: &mut Job| {
        let src = job.local_data(input.clone(), 4).unwrap();
        let mapped = job.map_data(src, 0, 3, true).unwrap();
        job.discard(src);
        let reduced = job.reduce_data(mapped, 0).unwrap();
        job.discard(mapped);
        let out = job.fetch_all(reduced).unwrap();
        job.discard(reduced);
        out
    };
    let program = || -> Arc<dyn Program> { Arc::new(Simple(WordCount)) };
    let planes = on_every_plane(&program, &job);
    let (_, serial) = &planes.outputs[0];
    for (plane, out) in &planes.outputs[1..] {
        assert_eq!(out, serial, "{plane} vs serial");
    }
    for (plane, live) in &planes.live {
        assert_eq!(*live, 0, "{plane}: datasets left live");
    }
}

/// Jobs whose buckets are mostly or wholly empty — no records at all,
/// more splits than records, every key sent to partition 0 — give the
/// same raw output on every plane, and count what the bypass counts.
#[test]
fn empty_buckets_are_byte_identical_on_every_plane() {
    let lines = sample_lines();
    type Shape = (&'static str, fn() -> Arc<dyn Program>, Vec<String>, usize, usize);
    let shapes: [Shape; 3] = [
        ("zero records", || Arc::new(Simple(WordCount)), Vec::new(), 3, 4),
        ("more splits than records", || Arc::new(Simple(WordCount)), lines[..3].to_vec(), 8, 4),
        ("every key to partition 0", || Arc::new(AllToZero), lines, 4, 3),
    ];
    for (shape, program, lines, maps, reduces) in shapes {
        let input = lines_to_records(lines.iter().map(String::as_str));
        let job = |job: &mut Job| job.map_reduce(input.clone(), maps, reduces, true).unwrap();
        let planes = on_every_plane(&program, &job);
        let (_, serial) = &planes.outputs[0];
        let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));
        assert_eq!(decode_counts(serial).unwrap(), bypass, "{shape}: serial vs bypass");
        for (plane, out) in &planes.outputs[1..] {
            assert_eq!(out, serial, "{shape}: {plane} vs serial");
        }
    }
}

/// PSO islands on the ring (the Apiary topology): a map task sends its
/// island to its own partition and its best to the next island's, so of
/// the 8 × 8 buckets of a round only 16 hold records. Fused and unfused,
/// the chain is byte-identical on every plane, and each reduce still
/// merges all 8 of its runs. But no request names an empty bucket: the
/// frames the direct cluster fetched (counted by their headers) plus the
/// buckets it took from its own tables, and the reads the shared-FS
/// cluster's store served, are exactly the reads of buckets with records.
#[test]
fn ring_islands_agree_on_every_plane_and_never_fetch_an_empty_bucket() {
    let cfg = PsoConfig {
        objective: Objective::Sphere,
        dim: 4,
        n_particles: 40,
        topology: Topology::Subswarms { size: 5 },
        seed: 11,
    };
    let (iters, inner) = (4, 2);
    let islands = PsoProgram::new(cfg.clone(), inner).n_islands();
    assert_eq!(islands, 8);
    let program = || Arc::new(PsoProgram::new(cfg.clone(), inner)) as Arc<dyn Program>;
    let mut answers = Vec::new();
    for fused in [true, false] {
        let job = |job: &mut Job| {
            PsoProgram::new(cfg.clone(), inner).run_islands(job, iters, fused).unwrap()
        };
        let planes = on_every_plane(&program, &job);
        let (_, serial) = &planes.outputs[0];
        for (plane, out) in &planes.outputs[1..] {
            assert_eq!(out, serial, "fused {fused}: {plane} vs serial");
        }
        answers.push(serial.clone());

        // Reads of a bucket with records: the source splits; two per task
        // of each of the `iters` gathering ops (the fused rounds or the
        // reduces, and the last reduce); unfused, one per task of each
        // interior map; the answer's buckets.
        let maps = if fused { 0 } else { iters - 1 };
        let with_records = islands * (1 + 2 * iters + maps + 1);
        let m = &planes.direct;
        assert_eq!(m.merge_runs(), islands * islands * iters, "fused {fused}: runs merged");
        assert_eq!(m.checksum_retries(), 0);
        let frames =
            (m.bytes_on_wire() - m.bytes_pre_compress()) / mrs_codec::FRAME_HEADER_LEN as u64;
        assert_eq!(
            frames + m.shortcircuit_fetches(),
            with_records,
            "fused {fused}: the direct cluster read an empty bucket"
        );
        assert_eq!(
            planes.shared_reads, with_records,
            "fused {fused}: the store served an empty one"
        );
    }
    assert_eq!(answers[0], answers[1], "fused vs unfused");
}

/// A byte-level program over raw keys: map swaps each input record so
/// its value becomes the intermediate key and its key (an arrival tag)
/// the value; reduce — and the combiner, concatenation being associative —
/// joins a key's tags in the order they arrive.
struct RawKeys;

impl Program for RawKeys {
    fn map_bytes(
        &self,
        _func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        emit(value, key);
        Ok(())
    }

    fn reduce_bytes(
        &self,
        _func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        emit(key, &values.collect::<Vec<_>>().concat());
        Ok(())
    }

    fn combine_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        self.reduce_bytes(func, key, values, emit)
    }

    fn has_combiner(&self, _func: FuncId) -> bool {
        true
    }
}

/// 2 000 `(arrival tag, key)` records over keys built to collide on the
/// 8-byte prefix the ordering kernels compare first: three 12-byte stems
/// cut to every length 0..=12 (so `""`, `"\0"`, `"\0\0"` must stay apart
/// under zero padding, an 8-byte key meets its extension by `\0`, and every
/// key is a strict prefix of its longer cuts), plus variants that differ
/// only at byte 9. Every other record goes to one of the four shortest
/// keys, so a single map task sees groups long enough for the hash
/// combiner's incremental folds.
fn colliding_input() -> Vec<Record> {
    let mut pool: Vec<Vec<u8>> = Vec::new();
    for stem in [&[0u8; 12][..], b"prefix--\0\0\0\0", b"prefix--tail"] {
        for len in 0..=12 {
            pool.push(stem[..len].to_vec());
            if len > 9 {
                let mut bumped = stem[..len].to_vec();
                bumped[9] += 1;
                pool.push(bumped);
            }
        }
    }
    (0..2000u32)
        .map(|i| {
            let pick = if i % 2 == 0 { i / 2 % 4 } else { i.wrapping_mul(2_654_435_761) >> 7 };
            (i.to_be_bytes().to_vec(), pool[pick as usize % pool.len()].clone())
        })
        .collect()
}

/// Key order, grouping and per-key value order on keys that tie on the
/// cached prefix, byte for byte on every plane, against an oracle that
/// never sorts a bucket: a `BTreeMap` per partition, tags appended in input
/// order. Without the combiner this drives `Bucket::sort` and the run
/// merger; with it, the hash combiner's final ordering pass.
#[test]
fn prefix_colliding_keys_identical_across_planes_and_oracle() {
    let reduces = 3;
    let input = colliding_input();
    let mut parts = vec![BTreeMap::<Vec<u8>, Vec<u8>>::new(); reduces];
    for (tag, key) in &input {
        parts[RawKeys.partition(key, reduces)].entry(key.clone()).or_default().extend(tag);
    }
    let oracle: Vec<Record> = parts.into_iter().flatten().collect();

    let mut cluster =
        LocalCluster::start(Arc::new(RawKeys), 2, DataPlane::Direct, MasterConfig::default())
            .unwrap();
    for combine in [false, true] {
        let run = |job: &mut Job, maps| job.map_reduce(input.clone(), maps, reduces, combine);
        let serial = run(&mut Job::new(&mut SerialRuntime::new(Arc::new(RawKeys))), 1).unwrap();
        let pool = run(&mut Job::new(&mut LocalRuntime::pool(Arc::new(RawKeys), 4)), 5).unwrap();
        let mock = {
            let mut rt = LocalRuntime::mock_parallel(Arc::new(RawKeys), Arc::new(MemFs::new()));
            run(&mut Job::new(&mut rt), 4).unwrap()
        };
        let clustered = run(&mut Job::new(&mut cluster), 4).unwrap();

        assert_eq!(serial, oracle, "serial vs BTreeMap oracle, combine={combine}");
        assert_eq!(pool, oracle, "pool, combine={combine}");
        assert_eq!(mock, oracle, "mock-parallel, combine={combine}");
        assert_eq!(clustered, oracle, "2-slave cluster, combine={combine}");
    }
}

fn pso_config() -> PsoConfig {
    PsoConfig {
        objective: Objective::Rastrigin,
        dim: 8,
        n_particles: 10,
        topology: Topology::Ring { k: 1 },
        seed: 2024,
    }
}

fn pso_swarm_on(job: &mut Job, parts: usize, iters: u64) -> Vec<Particle> {
    let program = PsoProgram::new(pso_config(), 1);
    let mut ds = job.local_data(program.initial_particles(), parts).unwrap();
    for _ in 0..iters {
        let m = job.map_data(ds, FUNC_PARTICLE, parts, false).unwrap();
        ds = job.reduce_data(m, FUNC_PARTICLE).unwrap();
    }
    PsoProgram::particles_of(&job.fetch_all(ds).unwrap()).unwrap()
}

#[test]
fn stochastic_pso_bitwise_identical_across_runtimes() {
    let iters = 12;

    // Bypass: the plain serial loop.
    let mut bypass = SerialPso::new(pso_config());
    bypass.run(iters);
    let expected: Vec<Particle> = bypass.swarm().to_vec();

    let serial = {
        let mut rt = SerialRuntime::new(Arc::new(PsoProgram::new(pso_config(), 1)));
        pso_swarm_on(&mut Job::new(&mut rt), 1, iters)
    };
    let pool = {
        let mut rt = LocalRuntime::pool(Arc::new(PsoProgram::new(pso_config(), 1)), 4);
        pso_swarm_on(&mut Job::new(&mut rt), 5, iters)
    };
    let cluster = {
        let mut cluster = LocalCluster::start(
            Arc::new(PsoProgram::new(pso_config(), 1)),
            3,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        pso_swarm_on(&mut Job::new(&mut cluster), 5, iters)
    };
    let multislot = {
        let mut cluster = LocalCluster::start_with(
            Arc::new(PsoProgram::new(pso_config(), 1)),
            2,
            DataPlane::Direct,
            MasterConfig::default(),
            SlaveOptions { slots: 4, ..SlaveOptions::default() },
        )
        .unwrap();
        pso_swarm_on(&mut Job::new(&mut cluster), 5, iters)
    };
    // The stochastic trajectory is the sharpest oracle for speculation
    // too: a backup attempt re-running a particle task with any hidden
    // state, or a loser's output leaking past the commit point, would
    // diverge the swarm bit-for-bit within an iteration or two.
    let speculate_off = {
        let cfg = MasterConfig { speculate: SpeculateMode::Off, ..MasterConfig::default() };
        let mut cluster = LocalCluster::start(
            Arc::new(PsoProgram::new(pso_config(), 1)),
            2,
            DataPlane::Direct,
            cfg,
        )
        .unwrap();
        pso_swarm_on(&mut Job::new(&mut cluster), 5, iters)
    };

    assert_eq!(serial, expected, "MapReduce-serial vs bypass");
    assert_eq!(pool, expected, "pool vs bypass");
    assert_eq!(cluster, expected, "cluster vs bypass");
    assert_eq!(multislot, expected, "multi-slot cluster vs bypass");
    assert_eq!(speculate_off, expected, "speculate-off cluster vs bypass");
}

/// The fused-ReduceMap oracle: the same iterative island chain run
/// unfused (materialized reduce then map) and fused (one ReduceMap op per
/// interior round), across every plane, with lifetime GC reclaiming every
/// interior round. Fusion and GC are perf transforms only — any byte of
/// divergence is a bug. On the cluster, fusion saves exactly one task per
/// island per interior round, and GC holds the live datasets to a constant
/// either way.
#[test]
fn fused_reducemap_identical_across_runtimes_and_gc_modes() {
    let cfg = PsoConfig {
        objective: Objective::Sphere,
        dim: 6,
        n_particles: 15,
        topology: Topology::Subswarms { size: 5 },
        seed: 7,
    };
    let iters = 8;
    let run = |job: &mut Job, fused: bool| {
        let program = PsoProgram::new(cfg.clone(), 4);
        program.run_islands(job, iters, fused).unwrap()
    };

    let serial_unfused = {
        let mut rt = SerialRuntime::new(Arc::new(PsoProgram::new(cfg.clone(), 4)));
        run(&mut Job::new(&mut rt), false)
    };
    let serial_fused = {
        let mut rt = SerialRuntime::new(Arc::new(PsoProgram::new(cfg.clone(), 4)));
        run(&mut Job::new(&mut rt), true)
    };
    let mock_fused = {
        let mut rt = LocalRuntime::mock_parallel(
            Arc::new(PsoProgram::new(cfg.clone(), 4)),
            Arc::new(MemFs::new()),
        );
        run(&mut Job::new(&mut rt), true)
    };
    let (pool_fused, pool_freed) = {
        let mut rt = LocalRuntime::pool(Arc::new(PsoProgram::new(cfg.clone(), 4)), 5);
        let out = run(&mut Job::new(&mut rt), true);
        (out, rt.metrics().datasets_freed())
    };
    let on_cluster = |fused: bool| {
        let mut cluster = LocalCluster::start(
            Arc::new(PsoProgram::new(cfg.clone(), 4)),
            2,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        let out = run(&mut Job::new(&mut cluster), fused);
        (out, cluster.metrics(), cluster.control_requests())
    };
    let (cluster_fused, fused, fused_rpcs) = on_cluster(true);
    let (cluster_unfused, unfused, unfused_rpcs) = on_cluster(false);
    let cluster_sharedfs = {
        let store: Arc<dyn mrs_fs::Store> = Arc::new(MemFs::new());
        let mut cluster = LocalCluster::start(
            Arc::new(PsoProgram::new(cfg.clone(), 4)),
            2,
            DataPlane::SharedFs(store),
            MasterConfig::default(),
        )
        .unwrap();
        run(&mut Job::new(&mut cluster), true)
    };

    assert_eq!(serial_fused, serial_unfused, "serial fused vs unfused");
    assert_eq!(mock_fused, serial_unfused, "mock fused vs serial unfused");
    assert_eq!(pool_fused, serial_unfused, "pool fused vs serial unfused");
    assert_eq!(cluster_fused, serial_unfused, "cluster fused vs serial unfused");
    assert_eq!(cluster_unfused, serial_unfused, "cluster unfused vs serial unfused");
    assert_eq!(cluster_sharedfs, serial_unfused, "shared-fs cluster fused");
    // The machinery under test must actually have engaged.
    let islands = PsoProgram::new(cfg.clone(), 4).n_islands();
    assert_eq!(fused.fused_ops(), iters - 1, "cluster should run every interior round fused");
    assert_eq!(fused.reducemap_tasks(), (iters - 1) * islands, "one fused task per island");
    assert_eq!(unfused.fused_ops(), 0, "an unfused chain fused a round");
    assert_eq!(
        unfused.tasks_executed() - fused.tasks_executed(),
        (iters - 1) * islands,
        "fusion saves one task per island per interior round"
    );
    assert!(fused_rpcs < unfused_rpcs, "fused {fused_rpcs} control RPCs, unfused {unfused_rpcs}");
    for (name, m) in [("fused", &fused), ("unfused", &unfused)] {
        assert!(m.datasets_freed() > 0, "cluster lifetime GC never freed a dataset ({name})");
    }
    // Eight rounds without GC would hold a dataset per op.
    assert!(fused.peak_live_datasets() <= 4, "fused peak live {}", fused.peak_live_datasets());
    assert!(
        unfused.peak_live_datasets() <= 5,
        "unfused peak live {}",
        unfused.peak_live_datasets()
    );
    assert!(pool_freed > 0, "pool lifetime GC never freed a dataset");
}

#[test]
fn island_granularity_identical_serial_vs_pool() {
    let cfg = PsoConfig {
        objective: Objective::Sphere,
        dim: 6,
        n_particles: 15,
        topology: Topology::Subswarms { size: 5 },
        seed: 7,
    };
    let drive = |job: &mut Job| {
        let program = PsoProgram::new(cfg.clone(), 8);
        program.drive_islands(job, 10).unwrap()
    };
    let a = {
        let mut rt = SerialRuntime::new(Arc::new(PsoProgram::new(cfg.clone(), 8)));
        drive(&mut Job::new(&mut rt))
    };
    let b = {
        let mut rt = LocalRuntime::pool(Arc::new(PsoProgram::new(cfg.clone(), 8)), 5);
        drive(&mut Job::new(&mut rt))
    };
    let c = {
        let mut cluster = LocalCluster::start(
            Arc::new(PsoProgram::new(cfg.clone(), 8)),
            2,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        drive(&mut Job::new(&mut cluster))
    };
    assert_eq!(a, b, "pool vs serial");
    assert_eq!(b, c, "cluster vs pool");
}

/// The pool and the cluster queue operations through one plan, so a
/// malformed one is refused in the same words on both: same `Error`
/// variant, same message, nothing queued.
#[test]
fn malformed_plans_are_rejected_identically_by_pool_and_cluster() {
    fn rejections(job: &mut Job) -> Vec<String> {
        let records = || lines_to_records(["a b", "b c"]);
        let src = job.local_data(records(), 2).unwrap();
        let mapped = job.map_data(src, 0, 2, false).unwrap();
        let gone = job.local_data(records(), 1).unwrap();
        job.discard(gone);
        let mut refused = vec![
            job.reduce_data(src, 0),
            job.reduce_map_data(src, 0, 0, 2, false),
            job.map_data(mapped, 0, 2, false),
            job.map_data(gone, 0, 2, false),
            job.reduce_data(gone, 0),
            job.map_data(src, 0, 0, false),
            job.reduce_map_data(mapped, 0, 0, 0, false),
            job.map_data(DataId(77), 0, 1, false),
        ];
        let reduced = job.reduce_data(mapped, 0).unwrap();
        refused.push(job.reduce_data(reduced, 0));
        refused.push(job.reduce_map_data(reduced, 0, 0, 2, false));
        // The well-formed part of the plan is unharmed.
        assert_eq!(job.fetch_all(reduced).unwrap().len(), 3);
        refused.into_iter().map(|r| format!("{:?}", r.expect_err("a malformed plan"))).collect()
    }
    let pool = {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 2);
        rejections(&mut Job::new(&mut rt))
    };
    let cluster = {
        let mut cluster = LocalCluster::start(
            Arc::new(Simple(WordCount)),
            2,
            DataPlane::Direct,
            MasterConfig::default(),
        )
        .unwrap();
        rejections(&mut Job::new(&mut cluster))
    };
    assert_eq!(pool, cluster);
    let variants: Vec<&str> = pool.iter().map(|e| e.split('(').next().unwrap()).collect();
    let (invalid, missing) = ("Invalid", "MissingData");
    assert_eq!(
        variants,
        [invalid, invalid, invalid, missing, missing, invalid, invalid, missing, invalid, invalid],
        "{pool:#?}"
    );
}

/// A byte-level program whose map is the function it holds and whose
/// reduce emits every value under its key: jobs that reshape their input
/// so that the answer fits the records the driver handed in (the stock a
/// recycling `fetch_all` writes over) in every way it can fail to.
struct Reshape(MapFn);

type MapFn = fn(&[u8], &[u8], &mut dyn FnMut(&[u8], &[u8]));

impl Program for Reshape {
    fn map_bytes(
        &self,
        _func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        (self.0)(key, value, emit);
        Ok(())
    }
    fn reduce_bytes(
        &self,
        _func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        values.for_each(|v| emit(key, v));
        Ok(())
    }
}

/// An answer longer or shorter than its input, keys and values longer
/// than the input's buffers, empty values, no answer at all, a range
/// sort, and a second fetch of one dataset — when the first took the
/// stock — are byte-identical to serial's on every plane.
#[test]
fn answers_of_every_shape_against_the_stock_are_byte_identical_on_every_plane() {
    let mut rng = mrs_rng::SplitMix64::new(11);
    let keys: Vec<u64> = (0..1_500).map(|_| rng.next_u64()).collect();
    let input = mrs::apps::sort::keyed_records(&keys);
    let sample = mrs::apps::sort::RangeSort::sample(&input, 128, 11);
    type Maker = Box<dyn Fn() -> Arc<dyn Program>>;
    let reshape = |map: MapFn| -> Maker { Box::new(move || Arc::new(Reshape(map))) };
    let shapes: [(&str, Maker); 6] = [
        ("range sort", {
            let sample = sample.clone();
            Box::new(move || {
                Arc::new(Simple(mrs::apps::sort::RangeSort::plan(&sample, 3).unwrap()))
            })
        }),
        (
            "twice as long",
            reshape(|k, v, emit| {
                emit(k, v);
                emit(k, v);
            }),
        ),
        (
            "shorter",
            reshape(|k, v, emit| {
                if k[k.len() - 1] % 3 == 0 {
                    emit(k, v)
                }
            }),
        ),
        ("longer keys and values", reshape(|k, v, emit| emit(&[k, k, k].concat(), &v.repeat(40)))),
        ("empty values", reshape(|k, _, emit| emit(k, b""))),
        ("empty answer", reshape(|_, _, _| {})),
    ];
    for (shape, program) in &shapes {
        let job = |job: &mut Job| job.map_reduce(input.clone(), 4, 3, false).unwrap();
        let planes = on_every_plane(program.as_ref(), &job);
        let (_, serial) = &planes.outputs[0];
        assert_eq!(serial.is_empty(), *shape == "empty answer", "{shape}");
        for (plane, out) in &planes.outputs[1..] {
            assert!(out == serial, "{shape}: {plane} vs serial");
        }
    }

    // The first fetch takes the stock; the second writes into nothing.
    let twice = |job: &mut Job| {
        let src = job.local_data(input.clone(), 4).unwrap();
        let mapped = job.map_data(src, 0, 3, false).unwrap();
        let reduced = job.reduce_data(mapped, 0).unwrap();
        let first = job.fetch_all(reduced).unwrap();
        let second = job.fetch_all(reduced).unwrap();
        assert!(first == second, "two fetches of one dataset differ");
        second
    };
    let planes = on_every_plane(shapes[1].1.as_ref(), &twice);
    let (_, serial) = &planes.outputs[0];
    assert_eq!(serial.len(), 2 * input.len());
    for (plane, out) in &planes.outputs[1..] {
        assert!(out == serial, "second fetch: {plane} vs serial");
    }
}
