//! Multi-slot slaves must be a pure throughput feature: the same job on
//! the same cluster shape must produce byte-identical output whether each
//! slave runs one task at a time or four concurrently. This is the
//! paper's implementations-agree discipline applied to the capacity
//! scheduler — concurrency inside a slave (workers fetching their own
//! inputs, batched dispatch) must never leak into the answer.

use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_pso::mapreduce::{PsoProgram, FUNC_PARTICLE};
use mrs_pso::{Objective, PsoConfig, Topology};
use std::sync::Arc;

fn cluster_with_slots(program: Arc<dyn Program>, slots: usize) -> LocalCluster {
    LocalCluster::start_with(
        program,
        1,
        DataPlane::Direct,
        MasterConfig::default(),
        SlaveOptions { slots, ..SlaveOptions::default() },
    )
    .unwrap()
}

/// Sorted raw records: byte-level equality, not just decoded equality.
fn sorted_bytes(mut records: Vec<Record>) -> Vec<Record> {
    records.sort();
    records
}

#[test]
fn wordcount_output_identical_one_slot_vs_four_slots() {
    let lines: Vec<String> =
        (0..80).map(|i| format!("zeta w{} common w{} w{}", i % 5, i % 13, i % 4)).collect();
    let run = |slots: usize| {
        let mut cluster = cluster_with_slots(Arc::new(Simple(WordCount)), slots);
        let mut job = Job::new(&mut cluster);
        let input = lines_to_records(lines.iter().map(String::as_str));
        sorted_bytes(job.map_reduce(input, 8, 4, true).unwrap())
    };
    assert_eq!(run(1), run(4), "WordCount output must not depend on slot count");
}

/// Slot count crossed with the serial oracle: a single-slot and a
/// four-slot long-poll cluster must both reproduce the serial runtime's
/// answer byte for byte — neither concurrency inside a slave nor the
/// event-driven dispatch machinery may leak into it.
#[test]
fn wordcount_output_matches_serial_at_one_and_four_slots() {
    let lines: Vec<String> =
        (0..70).map(|i| format!("kappa w{} common w{} w{}", i % 6, i % 11, i % 5)).collect();
    let input = || lines_to_records(lines.iter().map(String::as_str));
    let serial = {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        sorted_bytes(Job::new(&mut rt).map_reduce(input(), 8, 4, true).unwrap())
    };
    for slots in [1, 4] {
        let mut cluster = cluster_with_slots(Arc::new(Simple(WordCount)), slots);
        let out = sorted_bytes(Job::new(&mut cluster).map_reduce(input(), 8, 4, true).unwrap());
        assert_eq!(out, serial, "{slots}-slot long-poll cluster vs serial");
    }
}

#[test]
fn pso_trajectory_identical_one_slot_vs_four_slots() {
    let cfg = PsoConfig {
        objective: Objective::Rastrigin,
        dim: 6,
        n_particles: 12,
        topology: Topology::Ring { k: 1 },
        seed: 99,
    };
    let run = |slots: usize| {
        let mut cluster = cluster_with_slots(Arc::new(PsoProgram::new(cfg.clone(), 1)), slots);
        let mut job = Job::new(&mut cluster);
        let program = PsoProgram::new(cfg.clone(), 1);
        let mut ds = job.local_data(program.initial_particles(), 4).unwrap();
        for _ in 0..8 {
            let m = job.map_data(ds, FUNC_PARTICLE, 4, false).unwrap();
            ds = job.reduce_data(m, FUNC_PARTICLE).unwrap();
        }
        sorted_bytes(job.fetch_all(ds).unwrap())
    };
    assert_eq!(run(1), run(4), "PSO trajectory must not depend on slot count");
}
