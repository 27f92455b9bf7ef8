//! Probe: map tasks on distinct slaves must actually run concurrently.
use mrs::prelude::*;
use mrs_core::kv::encode_record;
use mrs_core::MapReduce;
use mrs_runtime::LocalCluster;
use std::sync::Arc;

struct Sleepy;
impl MapReduce for Sleepy {
    type K1 = u64;
    type V1 = u64;
    type K2 = u64;
    type V2 = u64;
    fn map(&self, k: u64, v: u64, emit: &mut dyn FnMut(u64, u64)) {
        std::thread::sleep(std::time::Duration::from_millis(100));
        emit(k, v);
    }
    fn reduce(&self, _k: u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
        emit(vs.sum());
    }
}

#[test]
fn eight_sleepy_maps_on_four_slaves_run_concurrently() {
    let mut cluster = LocalCluster::start(
        Arc::new(Simple(Sleepy)),
        4,
        DataPlane::Direct,
        MasterConfig::default(),
    )
    .unwrap();
    let mut job = Job::new(&mut cluster);
    let input: Vec<mrs_core::Record> = (0..8u64).map(|i| encode_record(&i, &i)).collect();
    let t0 = std::time::Instant::now();
    job.map_reduce(input, 8, 2, false).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    // Serial would be >= 0.8 s; 4-way parallel is ~0.2 s + overhead. The
    // bound leaves headroom for sibling test binaries starving the
    // scheduler threads while staying strictly below any serial run.
    assert!(secs < 0.7, "maps did not run in parallel: {secs:.3}s");
}
