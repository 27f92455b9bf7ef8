//! Substrate microbenchmarks: the building blocks whose costs underlie
//! the system-level numbers — PRNG throughput, Halton generation
//! (incremental vs direct, the paper's inner-loop optimization), the
//! XML-RPC codec, bucket sort/group, base64, and the float-vector `Datum`
//! codec that carries every PSO particle.

use corpus::zipf::word_for_rank;
use criterion::{criterion_group, criterion_main, Criterion};
use mrs_core::{Bucket, Datum, RunMerger};
use mrs_rng::{halton, Halton2D, Mt19937_64, StreamFactory};
use mrs_rpc::xmlrpc::{encode_request, parse_request, Value};
use std::hint::black_box;

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_rng");
    group.bench_function("mt19937_64_next", |b| {
        let mut g = Mt19937_64::new(5489);
        b.iter(|| black_box(g.next_u64()));
    });
    group.bench_function("stream_derivation", |b| {
        let f = StreamFactory::new(42);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(f.stream(&[1, 2, i]))
        });
    });
    // One PSO move step on Rosenbrock-250: derive the particle's stream,
    // then two uniform draws per dimension.
    group.bench_function("stream_then_500_draws", |b| {
        let f = StreamFactory::new(42);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut g = f.stream(&[0x6d6f_7665, 17, i]);
            black_box((0..500).fold(0u64, |acc, _| acc ^ g.next_u64()))
        });
    });
    group.finish();
}

fn bench_datum(c: &mut Criterion) {
    // A Rosenbrock-250 position, as a PSO record carries it.
    let position: Vec<f64> = (0..250).map(|i| f64::from(i) * 0.37 - 40.0).collect();
    let bytes = position.to_bytes();
    let mut group = c.benchmark_group("substrate_datum");
    group.bench_function("f64_seq_encode_250", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            black_box(&position).encode(&mut buf);
            black_box(buf.len())
        })
    });
    group.bench_function("f64_seq_decode_250", |b| {
        b.iter(|| black_box(Vec::<f64>::from_bytes(black_box(&bytes)).unwrap()))
    });
    group.finish();
}

fn bench_halton(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_halton");
    group.bench_function("incremental_2d_1000", |b| {
        b.iter(|| {
            let mut h = Halton2D::new(0);
            let mut acc = 0.0;
            for _ in 0..1000 {
                let (x, y) = h.next_point();
                acc += x + y;
            }
            black_box(acc)
        });
    });
    group.bench_function("direct_2d_1000", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..=1000u64 {
                acc += halton(i, 2) + halton(i, 3);
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_rpc_codec(c: &mut Criterion) {
    let params = vec![
        Value::Int(42),
        Value::Str("task assignment with some payload".into()),
        Value::Array(
            (0..16)
                .map(|i| Value::Str(format!("http://10.0.0.1:8080/data/op3/t{i}/b2.mrsb")))
                .collect(),
        ),
    ];
    let xml = encode_request("task_failed", &params);
    let mut group = c.benchmark_group("substrate_xmlrpc");
    group.bench_function("encode_request", |b| {
        b.iter(|| black_box(encode_request("task_failed", black_box(&params))))
    });
    group.bench_function("parse_request", |b| {
        b.iter(|| black_box(parse_request(black_box(&xml)).unwrap()))
    });
    group.finish();
}

fn bench_bucket(c: &mut Criterion) {
    let records: Vec<(Vec<u8>, Vec<u8>)> =
        (0..10_000u64).map(|i| ((i * 2_654_435_761 % 997).to_bytes(), i.to_bytes())).collect();
    let mut group = c.benchmark_group("substrate_bucket");
    group.bench_function("sort_group_10k", |b| {
        b.iter(|| {
            let mut bucket = Bucket::from_records(records.clone());
            bucket.sort();
            black_box(bucket.groups().count())
        })
    });
    // The two shapes the ordering kernels are sized on. A WordCount map
    // output bucket: 10k records over 125 distinct varint-prefixed words.
    // Cloning a bucket copies two flat vectors, so the arm times the sort.
    let words: Bucket = (0..10_000u64)
        .map(|i| (word_for_rank((i * 2_654_435_761 % 125) as usize).to_bytes(), 1u64.to_bytes()))
        .collect();
    group.bench_function("sort_group_words_10k", |b| {
        b.iter(|| {
            let mut bucket = black_box(&words).clone();
            bucket.sort();
            black_box(bucket.groups().count())
        })
    });
    // A range-sort reduce input: 8 sorted runs of 1250 unique `u64` keys
    // (multiplying by an odd constant permutes the key space).
    let runs: Vec<Bucket> = (0..8u64)
        .map(|r| {
            let mut run: Bucket = (0..1250u64)
                .map(|i| ((i * 8 + r).wrapping_mul(0x9e37_79b9_7f4a_7c15).to_bytes(), i.to_bytes()))
                .collect();
            run.sort();
            run
        })
        .collect();
    group.bench_function("merge_8_runs", |b| {
        b.iter(|| {
            let mut merger = RunMerger::new(black_box(&runs));
            let mut spans = Vec::new();
            let mut groups = 0usize;
            while merger.next_group(&mut spans).is_some() {
                groups += 1;
            }
            black_box(groups)
        })
    });
    group.bench_function("bucket_file_roundtrip_10k", |b| {
        b.iter(|| {
            let bytes = mrs_fs::format::write_bucket_bytes(black_box(&records));
            let mut back = Bucket::new();
            mrs_fs::format::read_bucket_into(&bytes, &mut back).unwrap();
            black_box(back.len())
        })
    });
    group.finish();
}

fn bench_base64(c: &mut Criterion) {
    let data = vec![0xA7u8; 64 * 1024];
    let encoded = mrs_rpc::base64::encode(&data);
    let mut group = c.benchmark_group("substrate_base64");
    group.bench_function("encode_64k", |b| {
        b.iter(|| black_box(mrs_rpc::base64::encode(black_box(&data))))
    });
    group.bench_function("decode_64k", |b| {
        b.iter(|| black_box(mrs_rpc::base64::decode(black_box(&encoded)).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rng,
    bench_datum,
    bench_halton,
    bench_rpc_codec,
    bench_bucket,
    bench_base64
);
criterion_main!(benches);
