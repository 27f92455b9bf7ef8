//! Expectation–maximization for Gaussian mixtures as MapReduce — the last
//! of the paper-intro workloads we reproduce ("expectation maximization
//! \[3\]"). One MapReduce operation per EM iteration:
//!
//! * **map (E-step)**: each point's responsibilities under the current
//!   parameters, emitted as per-component sufficient statistics,
//! * **combine/reduce**: sufficient statistics summed per component,
//! * **driver (M-step)**: new weights, means, and (diagonal) variances
//!   from the summed statistics.
//!
//! EM's defining invariant — the data log-likelihood never decreases — is
//! asserted in the tests, which makes this a sharp end-to-end check of
//! the whole data plane (a single lost or duplicated record breaks
//! monotonicity immediately).

use mrs_core::kv::encode_record;
use mrs_core::{Datum, Error, MapReduce, Record, Result};
use mrs_rng::{Rng64, StreamFactory};
use mrs_runtime::Job;
use parking_lot::RwLock;

/// Per-component sufficient statistics plus a log-likelihood share.
#[derive(Clone, Debug, PartialEq)]
pub struct SuffStats {
    /// Σ r_i (total responsibility).
    pub resp: f64,
    /// Σ r_i · x_i.
    pub x_sum: Vec<f64>,
    /// Σ r_i · x_i² (per dimension).
    pub x2_sum: Vec<f64>,
    /// Σ log p(x_i) — only the component-0 record carries it, so the
    /// total is counted once per point.
    pub loglik: f64,
    /// Points contributing (component 0 only, same reason).
    pub count: u64,
}

impl Datum for SuffStats {
    mrs_core::datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        self.resp.encode(buf);
        self.x_sum.encode(buf);
        self.x2_sum.encode(buf);
        self.loglik.encode(buf);
        self.count.encode(buf);
    }
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (resp, b) = f64::decode_from(b)?;
        let (x_sum, b) = Vec::<f64>::decode_from(b)?;
        let (x2_sum, b) = Vec::<f64>::decode_from(b)?;
        let (loglik, b) = f64::decode_from(b)?;
        let (count, b) = u64::decode_from(b)?;
        Ok((SuffStats { resp, x_sum, x2_sum, loglik, count }, b))
    }
}

/// Mixture parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct GmmParams {
    /// Component weights (sum to 1).
    pub weights: Vec<f64>,
    /// Component means.
    pub means: Vec<Vec<f64>>,
    /// Diagonal variances.
    pub vars: Vec<Vec<f64>>,
}

/// Variance floor: prevents component collapse onto a single point.
const VAR_FLOOR: f64 = 1e-6;

/// The EM MapReduce program.
pub struct Gmm {
    params: RwLock<GmmParams>,
}

impl Gmm {
    /// Initialize from explicit means; unit variances, uniform weights.
    pub fn new(means: Vec<Vec<f64>>) -> Result<Gmm> {
        if means.is_empty() {
            return Err(Error::Invalid("need at least one component".into()));
        }
        let dim = means[0].len();
        if dim == 0 || means.iter().any(|m| m.len() != dim) {
            return Err(Error::Invalid("means must share a nonzero dimension".into()));
        }
        let k = means.len();
        Ok(Gmm {
            params: RwLock::new(GmmParams {
                weights: vec![1.0 / k as f64; k],
                vars: vec![vec![1.0; dim]; k],
                means,
            }),
        })
    }

    /// Current parameters.
    pub fn params(&self) -> GmmParams {
        self.params.read().clone()
    }

    /// log N(x | μ_j, σ²_j) for a diagonal Gaussian.
    fn log_gauss(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
        let mut acc = 0.0;
        for ((xi, mi), vi) in x.iter().zip(mean).zip(var) {
            let d = xi - mi;
            acc += -0.5 * ((std::f64::consts::TAU * vi).ln() + d * d / vi);
        }
        acc
    }

    /// Responsibilities and the point's log-likelihood.
    fn responsibilities(params: &GmmParams, x: &[f64]) -> (Vec<f64>, f64) {
        let logs: Vec<f64> = params
            .means
            .iter()
            .zip(&params.vars)
            .zip(&params.weights)
            .map(|((m, v), w)| w.max(1e-300).ln() + Self::log_gauss(x, m, v))
            .collect();
        // log-sum-exp
        let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = logs.iter().map(|l| (l - max).exp()).sum();
        let loglik = max + sum.ln();
        let resp: Vec<f64> = logs.iter().map(|l| (l - loglik).exp()).collect();
        (resp, loglik)
    }

    /// One EM iteration over `data`; returns the mean log-likelihood of
    /// the *previous* parameters (the quantity EM never decreases).
    pub fn iterate(&self, job: &mut Job, data: mrs_runtime::DataId) -> Result<f64> {
        let k = self.params.read().weights.len();
        let mapped = job.map_data(data, 0, k, true)?;
        let reduced = job.reduce_data(mapped, 0)?;
        let out = job.fetch_all(reduced)?;
        job.discard(mapped);
        job.discard(reduced);

        let mut total_loglik = 0.0;
        let mut total_count = 0u64;
        let mut total_resp = 0.0;
        let mut params = self.params.write();
        let mut stats: Vec<Option<SuffStats>> = vec![None; k];
        for (kb, vb) in &out {
            let j = u64::from_bytes(kb)? as usize;
            let s = SuffStats::from_bytes(vb)?;
            total_loglik += s.loglik;
            total_count += s.count;
            total_resp += s.resp;
            stats[j] = Some(s);
        }
        if total_count == 0 {
            return Err(Error::Invalid("EM over empty data".into()));
        }
        for (j, s) in stats.iter().enumerate() {
            let Some(s) = s else { continue }; // dead component keeps params
            if s.resp < 1e-9 {
                continue;
            }
            params.weights[j] = s.resp / total_resp;
            params.means[j] = s.x_sum.iter().map(|v| v / s.resp).collect();
            params.vars[j] = s
                .x2_sum
                .iter()
                .zip(&params.means[j])
                .map(|(x2, m)| (x2 / s.resp - m * m).max(VAR_FLOOR))
                .collect();
        }
        Ok(total_loglik / total_count as f64)
    }

    /// Run `iters` EM iterations; returns the log-likelihood history.
    pub fn fit(
        &self,
        job: &mut Job,
        points: Vec<Record>,
        map_tasks: usize,
        iters: u64,
    ) -> Result<Vec<f64>> {
        let data = job.local_data(points, map_tasks)?;
        let mut history = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            history.push(self.iterate(job, data)?);
        }
        Ok(history)
    }
}

impl MapReduce for Gmm {
    type K1 = u64; // point id
    type V1 = Vec<f64>; // point
    type K2 = u64; // component id
    type V2 = SuffStats;

    fn map(&self, _id: u64, x: Vec<f64>, emit: &mut dyn FnMut(u64, SuffStats)) {
        let params = self.params.read();
        let (resp, loglik) = Self::responsibilities(&params, &x);
        for (j, r) in resp.iter().enumerate() {
            emit(
                j as u64,
                SuffStats {
                    resp: *r,
                    x_sum: x.iter().map(|xi| r * xi).collect(),
                    x2_sum: x.iter().map(|xi| r * xi * xi).collect(),
                    loglik: if j == 0 { loglik } else { 0.0 },
                    count: u64::from(j == 0),
                },
            );
        }
    }

    fn reduce(
        &self,
        _j: u64,
        values: &mut dyn Iterator<Item = SuffStats>,
        emit: &mut dyn FnMut(SuffStats),
    ) {
        let mut acc: Option<SuffStats> = None;
        for s in values {
            match &mut acc {
                None => acc = Some(s),
                Some(a) => {
                    a.resp += s.resp;
                    for (x, y) in a.x_sum.iter_mut().zip(&s.x_sum) {
                        *x += y;
                    }
                    for (x, y) in a.x2_sum.iter_mut().zip(&s.x2_sum) {
                        *x += y;
                    }
                    a.loglik += s.loglik;
                    a.count += s.count;
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

/// Two-component 1-up synthetic mixture data for tests and examples.
pub fn mixture_data(
    means: &[Vec<f64>],
    stds: &[f64],
    per_component: u64,
    seed: u64,
) -> Vec<Record> {
    assert_eq!(means.len(), stds.len());
    let streams = StreamFactory::new(seed);
    let mut records = Vec::new();
    let mut id = 0u64;
    for (c, (mean, std)) in means.iter().zip(stds).enumerate() {
        let mut rng = streams.stream(&[0x676d_6d00, c as u64]); // "gmm"
        for _ in 0..per_component {
            let x: Vec<f64> = mean.iter().map(|m| m + std * rng.normal()).collect();
            records.push(encode_record(&id, &x));
            id += 1;
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::Simple;
    use mrs_runtime::{LocalRuntime, SerialRuntime};
    use std::sync::Arc;

    fn truth_means() -> Vec<Vec<f64>> {
        vec![vec![-4.0, 0.0], vec![4.0, 2.0]]
    }

    #[test]
    fn loglik_is_monotone_nondecreasing() {
        // The EM guarantee — and a sharp data-plane integrity check.
        let data = mixture_data(&truth_means(), &[1.0, 1.0], 120, 3);
        let gmm = Arc::new(Simple(Gmm::new(vec![vec![-1.0, 0.0], vec![1.0, 0.0]]).unwrap()));
        let mut rt = LocalRuntime::pool(gmm.clone(), 4);
        let mut job = Job::new(&mut rt);
        let history = gmm.0.fit(&mut job, data, 3, 25).unwrap();
        for w in history.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "log-likelihood decreased: {w:?}");
        }
    }

    #[test]
    fn recovers_separated_components() {
        let data = mixture_data(&truth_means(), &[0.8, 0.8], 200, 11);
        let gmm = Arc::new(Simple(Gmm::new(vec![vec![-1.0, 1.0], vec![1.0, 1.0]]).unwrap()));
        let mut rt = LocalRuntime::pool(gmm.clone(), 4);
        let mut job = Job::new(&mut rt);
        gmm.0.fit(&mut job, data, 4, 60).unwrap();
        let params = gmm.0.params();
        let mut means = params.means.clone();
        means.sort_by(|a, b| a[0].total_cmp(&b[0]));
        for (found, truth) in means.iter().zip(truth_means().iter()) {
            for (f, t) in found.iter().zip(truth) {
                assert!((f - t).abs() < 0.3, "mean {found:?} vs {truth:?}");
            }
        }
        // Balanced data → roughly balanced weights.
        assert!((params.weights[0] - 0.5).abs() < 0.1, "{:?}", params.weights);
    }

    #[test]
    fn serial_and_pool_match_closely() {
        let data = mixture_data(&truth_means(), &[1.0, 1.0], 80, 5);
        let fit = |parallel: bool| {
            let gmm = Arc::new(Simple(Gmm::new(vec![vec![-1.0, 0.5], vec![1.0, -0.5]]).unwrap()));
            if parallel {
                let mut rt = LocalRuntime::pool(gmm.clone(), 3);
                let mut job = Job::new(&mut rt);
                gmm.0.fit(&mut job, data.clone(), 5, 15).unwrap();
            } else {
                let mut rt = SerialRuntime::new(gmm.clone());
                let mut job = Job::new(&mut rt);
                gmm.0.fit(&mut job, data.clone(), 1, 15).unwrap();
            }
            gmm.0.params()
        };
        let a = fit(false);
        let b = fit(true);
        for (x, y) in a.means.iter().flatten().zip(b.means.iter().flatten()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn variance_floor_prevents_collapse() {
        // All points identical: variances must hit the floor, not zero/NaN.
        let point = vec![2.0, 2.0];
        let data: Vec<Record> = (0..20u64).map(|i| encode_record(&i, &point)).collect();
        let gmm = Arc::new(Simple(Gmm::new(vec![vec![0.0, 0.0], vec![4.0, 4.0]]).unwrap()));
        let mut rt = SerialRuntime::new(gmm.clone());
        let mut job = Job::new(&mut rt);
        gmm.0.fit(&mut job, data, 1, 10).unwrap();
        let params = gmm.0.params();
        for v in params.vars.iter().flatten() {
            assert!(*v >= VAR_FLOOR && v.is_finite());
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Gmm::new(vec![]).is_err());
        assert!(Gmm::new(vec![vec![]]).is_err());
        assert!(Gmm::new(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn suffstats_roundtrip() {
        let s = SuffStats {
            resp: 1.5,
            x_sum: vec![0.5, -1.0],
            x2_sum: vec![2.0, 3.0],
            loglik: -4.25,
            count: 7,
        };
        assert_eq!(SuffStats::from_bytes(&s.to_bytes()).unwrap(), s);
    }
}
