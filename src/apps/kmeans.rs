//! Iterative k-means clustering as MapReduce — the workload the paper's
//! introduction cites as a driver for scientific MapReduce ("it has been
//! used for iterative algorithms such as k-means [2]").
//!
//! Classic formulation: each map task assigns its points to the nearest
//! centroid and emits per-cluster partial sums; the combiner merges them
//! locally; each reduce computes one new centroid. The driver loop
//! updates the shared centroid table and resubmits until movement falls
//! below tolerance — the per-iteration overhead pattern Mrs optimizes.
//!
//! Centroids are broadcast through shared program state (an `RwLock`),
//! the in-process analogue of Hadoop's per-job configuration broadcast;
//! a fully distributed deployment would ship them in the job config.

use mrs_core::kv::encode_record;
use mrs_core::{Datum, Error, MapReduce, Record, Result};
use mrs_rng::{Rng64, StreamFactory};
use mrs_runtime::Job;
use parking_lot::RwLock;

/// Per-cluster partial aggregate: (vector sum, point count, inertia).
#[derive(Clone, Debug, PartialEq)]
pub struct Partial {
    /// Coordinate-wise sum of assigned points.
    pub sum: Vec<f64>,
    /// Number of assigned points.
    pub count: u64,
    /// Sum of squared distances to the assigned centroid.
    pub inertia: f64,
}

impl Datum for Partial {
    mrs_core::datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        self.sum.encode(buf);
        self.count.encode(buf);
        self.inertia.encode(buf);
    }
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (sum, b) = Vec::<f64>::decode_from(b)?;
        let (count, b) = u64::decode_from(b)?;
        let (inertia, b) = f64::decode_from(b)?;
        Ok((Partial { sum, count, inertia }, b))
    }
}

/// The k-means MapReduce program. One instance drives all iterations; the
/// centroid table is updated between jobs by [`KMeans::run`].
pub struct KMeans {
    centroids: RwLock<Vec<Vec<f64>>>,
}

impl KMeans {
    /// Start from explicit initial centroids (all same dimension, k ≥ 1).
    pub fn new(initial: Vec<Vec<f64>>) -> Result<KMeans> {
        if initial.is_empty() {
            return Err(Error::Invalid("k must be at least 1".into()));
        }
        let dim = initial[0].len();
        if dim == 0 || initial.iter().any(|c| c.len() != dim) {
            return Err(Error::Invalid("centroids must share a nonzero dimension".into()));
        }
        Ok(KMeans { centroids: RwLock::new(initial) })
    }

    /// Current centroid table.
    pub fn centroids(&self) -> Vec<Vec<f64>> {
        self.centroids.read().clone()
    }

    /// Index and squared distance of the nearest centroid.
    fn nearest(centroids: &[Vec<f64>], point: &[f64]) -> (u64, f64) {
        let mut best = (0u64, f64::INFINITY);
        for (i, c) in centroids.iter().enumerate() {
            let d: f64 = c.iter().zip(point).map(|(a, b)| (a - b) * (a - b)).sum();
            if d < best.1 {
                best = (i as u64, d);
            }
        }
        best
    }

    /// One full Lloyd iteration over `points` via map+reduce on `job`.
    /// Returns (max centroid movement, total inertia).
    pub fn iterate(
        &self,
        job: &mut Job,
        points: mrs_runtime::DataId,
        map_tasks: usize,
    ) -> Result<(f64, f64)> {
        let k = self.centroids.read().len();
        let _ = map_tasks; // task count is fixed by the dataset's splits
        let mapped = job.map_data(points, 0, k, true)?;
        let reduced = job.reduce_data(mapped, 0)?;
        let out = job.fetch_all(reduced)?;
        job.discard(mapped);
        job.discard(reduced);

        let mut movement = 0.0f64;
        let mut inertia = 0.0f64;
        let mut table = self.centroids.write();
        for (kbytes, vbytes) in &out {
            let cluster = u64::from_bytes(kbytes)? as usize;
            let partial = Partial::from_bytes(vbytes)?;
            if partial.count == 0 {
                continue; // empty cluster keeps its old centroid
            }
            let new: Vec<f64> = partial.sum.iter().map(|s| s / partial.count as f64).collect();
            let moved: f64 =
                new.iter().zip(&table[cluster]).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            movement = movement.max(moved);
            inertia += partial.inertia;
            table[cluster] = new;
        }
        Ok((movement, inertia))
    }

    /// Run Lloyd's algorithm until movement < `tol` or `max_iters`.
    /// Returns the per-iteration inertia history.
    pub fn run(
        &self,
        job: &mut Job,
        points: Vec<Record>,
        map_tasks: usize,
        tol: f64,
        max_iters: u64,
    ) -> Result<Vec<f64>> {
        let data = job.local_data(points, map_tasks)?;
        let mut history = Vec::new();
        for _ in 0..max_iters {
            let (movement, inertia) = self.iterate(job, data, map_tasks)?;
            history.push(inertia);
            if movement < tol {
                break;
            }
        }
        Ok(history)
    }
}

impl MapReduce for KMeans {
    type K1 = u64; // point id
    type V1 = Vec<f64>; // point
    type K2 = u64; // cluster id
    type V2 = Partial;

    fn map(&self, _id: u64, point: Vec<f64>, emit: &mut dyn FnMut(u64, Partial)) {
        let centroids = self.centroids.read();
        let (cluster, dist) = Self::nearest(&centroids, &point);
        emit(cluster, Partial { sum: point, count: 1, inertia: dist });
    }

    fn reduce(
        &self,
        _cluster: u64,
        values: &mut dyn Iterator<Item = Partial>,
        emit: &mut dyn FnMut(Partial),
    ) {
        let mut acc: Option<Partial> = None;
        for p in values {
            match &mut acc {
                None => acc = Some(p),
                Some(a) => {
                    for (s, x) in a.sum.iter_mut().zip(&p.sum) {
                        *s += x;
                    }
                    a.count += p.count;
                    a.inertia += p.inertia;
                }
            }
        }
        if let Some(a) = acc {
            emit(a);
        }
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn partition(&self) -> mrs_core::partition::Partition {
        mrs_core::partition::Partition::Mod
    }
}

/// Generate `per_blob` points around each of `centers` with the given
/// Gaussian spread — deterministic synthetic clustering data.
pub fn gaussian_blobs(centers: &[Vec<f64>], per_blob: u64, spread: f64, seed: u64) -> Vec<Record> {
    let streams = StreamFactory::new(seed);
    let mut records = Vec::with_capacity(centers.len() * per_blob as usize);
    let mut id = 0u64;
    for (b, center) in centers.iter().enumerate() {
        let mut rng = streams.stream(&[0x626c_6f62, b as u64]); // "blob"
        for _ in 0..per_blob {
            let point: Vec<f64> = center.iter().map(|c| c + spread * rng.normal()).collect();
            records.push(encode_record(&id, &point));
            id += 1;
        }
    }
    records
}

/// Pick `k` initial centroids from the data (first point of every k-th
/// stride — deterministic, like sorted-sample init).
pub fn init_from_data(points: &[Record], k: usize) -> Result<Vec<Vec<f64>>> {
    if points.len() < k || k == 0 {
        return Err(Error::Invalid(format!("need at least {k} points")));
    }
    let stride = points.len() / k;
    (0..k).map(|i| Vec::<f64>::from_bytes(&points[i * stride].1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::Simple;
    use mrs_runtime::{LocalRuntime, SerialRuntime};
    use std::sync::Arc;

    fn blob_centers() -> Vec<Vec<f64>> {
        vec![vec![0.0, 0.0], vec![10.0, 10.0], vec![-10.0, 8.0]]
    }

    fn run_kmeans(job: &mut Job, program: &KMeans, points: Vec<Record>) -> Vec<f64> {
        program.run(job, points, 4, 1e-6, 50).unwrap()
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let points = gaussian_blobs(&blob_centers(), 80, 0.5, 7);
        let program = Arc::new(Simple(KMeans::new(init_from_data(&points, 3).unwrap()).unwrap()));
        let mut rt = LocalRuntime::pool(program.clone(), 4);
        let mut job = Job::new(&mut rt);
        run_kmeans(&mut job, &program.0, points);

        let mut found = program.0.centroids();
        found.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let mut expected = blob_centers();
        expected.sort_by(|a, b| a[0].total_cmp(&b[0]));
        for (f, e) in found.iter().zip(&expected) {
            for (x, y) in f.iter().zip(e) {
                assert!((x - y).abs() < 0.5, "centroid {f:?} vs {e:?}");
            }
        }
    }

    #[test]
    fn inertia_never_increases() {
        let points = gaussian_blobs(&blob_centers(), 50, 1.0, 3);
        let program = Arc::new(Simple(KMeans::new(init_from_data(&points, 3).unwrap()).unwrap()));
        let mut rt = SerialRuntime::new(program.clone());
        let mut job = Job::new(&mut rt);
        let history = run_kmeans(&mut job, &program.0, points);
        assert!(history.len() >= 2, "should take several iterations");
        for w in history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "inertia rose: {w:?}");
        }
    }

    #[test]
    fn serial_and_pool_agree() {
        let points = gaussian_blobs(&blob_centers(), 40, 0.8, 11);
        let run = |parallel: bool| {
            let program =
                Arc::new(Simple(KMeans::new(init_from_data(&points, 3).unwrap()).unwrap()));
            if parallel {
                let mut rt = LocalRuntime::pool(program.clone(), 4);
                let mut job = Job::new(&mut rt);
                run_kmeans(&mut job, &program.0, points.clone());
            } else {
                let mut rt = SerialRuntime::new(program.clone());
                let mut job = Job::new(&mut rt);
                run_kmeans(&mut job, &program.0, points.clone());
            }
            program.0.centroids()
        };
        // Summation order differs between runtimes (different partial
        // groupings), so compare within float tolerance, not bitwise.
        let a = run(false);
        let b = run(true);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        // A far-away centroid attracts nothing and must not move or NaN.
        let points = gaussian_blobs(&[vec![0.0, 0.0]], 30, 0.2, 5);
        let init = vec![vec![0.0, 0.0], vec![1e6, 1e6]];
        let program = Arc::new(Simple(KMeans::new(init.clone()).unwrap()));
        let mut rt = SerialRuntime::new(program.clone());
        let mut job = Job::new(&mut rt);
        run_kmeans(&mut job, &program.0, points);
        let got = program.0.centroids();
        assert_eq!(got[1], init[1], "empty cluster drifted");
        assert!(got[0].iter().all(|x| x.is_finite()));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(KMeans::new(vec![]).is_err());
        assert!(KMeans::new(vec![vec![]]).is_err());
        assert!(KMeans::new(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(init_from_data(&[], 2).is_err());
    }

    #[test]
    fn partial_roundtrips() {
        let p = Partial { sum: vec![1.5, -2.0], count: 7, inertia: 42.5 };
        assert_eq!(Partial::from_bytes(&p.to_bytes()).unwrap(), p);
    }
}
