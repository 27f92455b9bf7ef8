//! Control-plane round-trip cost: one near-empty map+reduce round on a
//! real-socket cluster — long-poll dispatch, piggybacked reports.

use criterion::{criterion_group, criterion_main, Criterion};
use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_runtime::LocalCluster;
use std::sync::Arc;

fn tiny_input(tasks: usize) -> Vec<mrs_core::Record> {
    let lines: Vec<String> = (0..tasks).map(|i| format!("w{i}")).collect();
    lines_to_records(lines.iter().map(String::as_str))
}

fn one_round(job: &mut Job, src: mrs_runtime::DataId, tasks: usize) {
    let m = job.map_data(src, 0, tasks, false).expect("map");
    let r = job.reduce_data(m, 0).expect("reduce");
    job.wait(r).expect("round");
    job.discard(m);
    job.discard(r);
}

fn bench_control(c: &mut Criterion) {
    let tasks = 8;
    let mut group = c.benchmark_group("control_round");
    group.sample_size(20);

    group.bench_function("longpoll", |b| {
        let mut cluster = LocalCluster::start_with(
            Arc::new(Simple(WordCount)),
            2,
            DataPlane::Direct,
            MasterConfig::default(),
            SlaveOptions { slots: 2, ..SlaveOptions::default() },
        )
        .unwrap();
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(tiny_input(tasks), tasks).unwrap();
        b.iter(|| one_round(&mut job, src, tasks));
    });

    group.finish();
}

criterion_group!(benches, bench_control);
criterion_main!(benches);
