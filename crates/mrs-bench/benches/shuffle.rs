//! Shuffle data-plane benchmarks: the two halves of the overhaul.
//!
//! * `shuffle_combine` — in-mapper combining on Zipf-distributed WordCount
//!   input (the shape where streaming hash combining wins: a few very hot
//!   keys fold incrementally instead of being buffered and sorted). The
//!   `seed_sort_combine` arm reconstructs the pre-overhaul pipeline
//!   (per-emit record allocation + stable `Vec<Record>` sort), so the
//!   speedup is measured against the original implementation. Two more
//!   rows time the combiner on the map tasks the suite runs:
//!   `hash_combine_wc_split` is one `wc_combine` map task (10 000 tokens
//!   over a 1 000-word vocabulary, 8 partitions), where most words repeat
//!   a few times, and `hash_combine_distinct_heavy` is one E2 map task
//!   (156 000 tokens over a 50 000-word vocabulary, 12 partitions), where
//!   most groups hold a value or two.
//! * `shuffle_transfer` — bucket fetch over a persistent pooled connection
//!   vs. a fresh TCP dial per request (the keep-alive ablation, A4).
//! * `bucket_sort` — the map-side sort step alone, `Bucket::sort` on the
//!   shapes the suite's workloads hand it: `wc_shuffle_bucket`, 1 300
//!   Zipf words over the whole 1 000-word vocabulary (mostly distinct);
//!   `wc_map_partition`, of the partitions of one 10 000-token
//!   `wc_shuffle` map task the one nearest the mean size (1 518 records;
//!   the mean is 1 250); `wc_serial_partition`, the largest partition of
//!   the serial plane's one map task over all 160 000 tokens (about
//!   62 000 records); one `sort_range` map output bucket (random `u64`
//!   keys); and eight `sort_range` buckets concatenated as sorted runs
//!   (what the layer metric `core.sort_us_p50` sorts). The two
//!   `wc_*_partition` inputs are built with the benchmark's corpus
//!   parameters (16 documents, seed 1, a 1 000-word vocabulary). Each
//!   case's result is checked once against a std stable sort; each
//!   iteration clones the unsorted bucket first, the same cost on every
//!   arm.

use corpus::zipf::{word_for_rank, Zipf};
use corpus::{Corpus, CorpusConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use mrs::apps::wordcount::lines_to_records;
use mrs_core::kv::encode_record;
use mrs_core::program::Program;
use mrs_core::task::run_map_task_bucket;
use mrs_core::{Bucket, MapReduce, Record, Simple};
use mrs_rng::SplitMix64;
use mrs_rpc::http::{HttpClient, HttpServer, Response, ServerOptions};
use std::hint::black_box;
use std::sync::Arc;

struct WordCount;

impl MapReduce for WordCount {
    type K1 = u64;
    type V1 = String;
    type K2 = String;
    type V2 = u64;

    fn map(&self, _k: u64, v: &str, emit: &mut dyn FnMut(&str, u64)) {
        for w in v.split_whitespace() {
            emit(w, 1);
        }
    }

    fn reduce(&self, _k: &str, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
        emit(vs.sum());
    }

    fn has_combiner(&self) -> bool {
        true
    }
}

/// Zipf(1.1) WordCount input: `lines` lines of `words_per_line` words drawn
/// from a `vocab`-word vocabulary. Over 50k words rank 0 alone is ~10% of
/// all draws, so the combiner's hot-key path dominates.
fn zipf_lines(lines: usize, words_per_line: usize, vocab: usize) -> Vec<Record> {
    let zipf = Zipf::new(vocab, 1.1);
    let mut rng = SplitMix64::new(42);
    (0..lines)
        .map(|i| {
            let line: Vec<String> =
                (0..words_per_line).map(|_| word_for_rank(zipf.sample(&mut rng))).collect();
            encode_record(&(i as u64), &line.join(" "))
        })
        .collect()
}

/// The seed's sort-then-combine map task, reconstructed verbatim: every emit
/// allocates an owned `(Vec<u8>, Vec<u8>)` record, buckets are plain record
/// vectors, and combining stable-sorts each bucket before grouping. This is
/// the pre-overhaul baseline the acceptance criterion measures against.
fn seed_sort_combine_map_task(
    program: &dyn Program,
    input: &[Record],
    parts: usize,
) -> Vec<Vec<Record>> {
    let mut buckets: Vec<Vec<Record>> = (0..parts).map(|_| Vec::new()).collect();
    for (key, value) in input {
        program
            .map_bytes(0, key, value, &mut |k2, v2| {
                let p = program.partition(k2, parts);
                buckets[p].push((k2.to_vec(), v2.to_vec()));
            })
            .unwrap();
    }
    for b in &mut buckets {
        b.sort_by(|x, y| x.0.cmp(&y.0));
        let mut out: Vec<Record> = Vec::new();
        for group in b.chunk_by(|x, y| x.0 == y.0) {
            let mut values = group.iter().map(|r| r.1.as_slice());
            program
                .combine_bytes(0, &group[0].0, &mut values, &mut |k, v| {
                    out.push((k.to_vec(), v.to_vec()))
                })
                .unwrap();
        }
        *b = out;
    }
    buckets
}

fn bench_combine(c: &mut Criterion) {
    let records = zipf_lines(10_000, 50, 50_000); // 500k words
    let input = Bucket::from_slice(&records);
    let program = Simple(WordCount);

    // Sanity: the reconstructed seed path and the new hash path must agree
    // byte-for-byte, or the benchmark would be comparing different work.
    let hash = run_map_task_bucket(&program, 0, &input, 4, true).unwrap();
    let seed = seed_sort_combine_map_task(&program, &records, 4);
    assert_eq!(hash.iter().map(|b| b.to_records()).collect::<Vec<_>>(), seed);

    let mut group = c.benchmark_group("shuffle_combine");
    group.bench_function("hash_combine_zipf_500k", |b| {
        b.iter(|| black_box(run_map_task_bucket(&program, 0, black_box(&input), 4, true).unwrap()))
    });
    group.bench_function("seed_sort_combine_zipf_500k", |b| {
        b.iter(|| black_box(seed_sort_combine_map_task(&program, black_box(&records), 4)))
    });
    group.bench_function("no_combine_zipf_500k", |b| {
        b.iter(|| black_box(run_map_task_bucket(&program, 0, black_box(&input), 4, false).unwrap()))
    });
    let wc_split = Bucket::from_slice(&zipf_lines(1_000, 10, 1_000));
    let distinct_heavy = Bucket::from_slice(&zipf_lines(13_000, 12, 50_000));
    for (name, input, parts) in [
        ("hash_combine_wc_split", &wc_split, 8),
        ("hash_combine_distinct_heavy", &distinct_heavy, 12),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_map_task_bucket(&program, 0, black_box(input), parts, true).unwrap())
            })
        });
    }
    group.finish();
}

/// Records per map output bucket in the suite: 10 000 tokens or 12 500
/// sort records per map task, over 8 partitions.
const BUCKET_RECORDS: usize = 1_300;

/// The `wc_shuffle` input: 160 000 tokens of 16 documents over a 1 000-word
/// vocabulary, seed 1, as the benchmark generates it.
fn wc_shuffle_input() -> Vec<Record> {
    const DOCS: u64 = 16;
    const TOKENS: usize = 160_000;
    let corpus = Corpus::new(CorpusConfig {
        n_files: DOCS,
        seed: 1,
        mean_tokens: 2 * TOKENS as u64 / DOCS,
        vocab: 1_000,
        ..CorpusConfig::default()
    });
    let docs: Vec<String> = (0..DOCS).map(|i| corpus.document(i)).collect();
    let mut left = TOKENS;
    let mut lines = Vec::new();
    for line in docs.iter().flat_map(|d| d.lines()) {
        let words: Vec<&str> = line.split(' ').take(left).collect();
        left -= words.len();
        lines.push(words.join(" "));
        if left == 0 {
            break;
        }
    }
    lines_to_records(lines.iter().map(String::as_str))
}

/// What a no-combiner WordCount map task over `input` leaves in each of
/// 8 partitions before its sort: the records in emit order.
fn unsorted_partitions(input: &[Record]) -> Vec<Bucket> {
    let program = Simple(mrs::apps::wordcount::WordCount);
    let mut parts: Vec<Bucket> = (0..8).map(|_| Bucket::new()).collect();
    for (k, v) in input {
        program
            .map_bytes(0, k, v, &mut |k2, v2| parts[program.partition(k2, 8)].push(k2, v2))
            .unwrap();
    }
    parts
}

fn bench_bucket_sort(c: &mut Criterion) {
    let zipf = Zipf::new(1_000, 1.1);
    let mut rng = SplitMix64::new(7);
    let words: Bucket = (0..BUCKET_RECORDS)
        .map(|_| encode_record(&word_for_rank(zipf.sample(&mut rng)), &1u64))
        .collect();
    let random = |rng: &mut SplitMix64| -> Bucket {
        (0..BUCKET_RECORDS).map(|_| encode_record(&rng.next_u64(), &rng.next_u64())).collect()
    };
    let range = random(&mut rng);
    let mut runs = Bucket::new();
    for _ in 0..8 {
        let mut run = random(&mut rng);
        run.sort();
        runs.extend_from(&run);
    }

    let wc = wc_shuffle_input();
    // Of the first of the 16 map splits, as `split_evenly` cuts them, the
    // partition nearest the mean size.
    let split = unsorted_partitions(&wc[..wc.len().div_ceil(16)]);
    let mean = split.iter().map(Bucket::len).sum::<usize>() / split.len();
    let map_partition = split.into_iter().min_by_key(|b| b.len().abs_diff(mean)).unwrap();
    let serial_partition = unsorted_partitions(&wc).into_iter().max_by_key(Bucket::len).unwrap();

    let mut group = c.benchmark_group("bucket_sort");
    for (name, bucket) in [
        ("wc_shuffle_bucket", &words),
        ("wc_map_partition", &map_partition),
        ("wc_serial_partition", &serial_partition),
        ("sort_range_bucket", &range),
        ("eight_sorted_runs", &runs),
    ] {
        let mut sorted = bucket.clone();
        sorted.sort();
        let mut records = bucket.to_records();
        records.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(sorted.to_records(), records, "{name}: not the std stable sort");
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sorted = black_box(bucket).clone();
                sorted.sort();
                sorted
            })
        });
    }
    group.finish();
}

fn bench_transfer(c: &mut Criterion) {
    let payload = Arc::new(vec![0xabu8; 64 * 1024]);
    let handler = {
        let payload = Arc::clone(&payload);
        Arc::new(move |_req: mrs_rpc::Request| {
            Response::ok("application/octet-stream", payload.as_ref().clone())
        })
    };
    let keep_alive = HttpServer::bind(0, handler.clone()).unwrap();
    let close_per_request = HttpServer::bind_with(
        0,
        handler,
        ServerOptions { keep_alive: false, max_requests_per_connection: 0 },
    )
    .unwrap();

    let mut group = c.benchmark_group("shuffle_transfer");
    group.bench_function("fetch_64k_keepalive", |b| {
        let authority = keep_alive.authority();
        b.iter(|| black_box(HttpClient::get(&authority, "/data/b0.mrsb").unwrap()))
    });
    group.bench_function("fetch_64k_fresh_connection", |b| {
        let authority = close_per_request.authority();
        b.iter(|| black_box(HttpClient::get(&authority, "/data/b0.mrsb").unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_combine, bench_bucket_sort, bench_transfer);
criterion_main!(benches);
