//! Batch logistic regression by gradient descent as MapReduce — another
//! of the iterative algorithms the paper's introduction cites (Chu et
//! al.'s "Map-Reduce for machine learning on multicore", ref \[3\]):
//! each map task computes the partial gradient of its data shard under
//! the current weights, the reduce sums partials, and the driver applies
//! the update — one MapReduce operation per gradient step, which is
//! precisely the shape that makes per-iteration framework overhead
//! matter.

use mrs_core::kv::encode_record;
use mrs_core::{Datum, Error, MapReduce, Record, Result};
use mrs_rng::{Rng64, StreamFactory};
use mrs_runtime::Job;
use parking_lot::RwLock;

/// Partial gradient: (gradient sum, example count, log-loss sum).
#[derive(Clone, Debug, PartialEq)]
pub struct GradPart {
    /// Coordinate-wise gradient contribution (includes bias as last slot).
    pub grad: Vec<f64>,
    /// Examples in this partial.
    pub count: u64,
    /// Summed log-loss.
    pub loss: f64,
}

impl Datum for GradPart {
    mrs_core::datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        self.grad.encode(buf);
        self.count.encode(buf);
        self.loss.encode(buf);
    }
    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (grad, b) = Vec::<f64>::decode_from(b)?;
        let (count, b) = u64::decode_from(b)?;
        let (loss, b) = f64::decode_from(b)?;
        Ok((GradPart { grad, count, loss }, b))
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// The logistic-regression MapReduce program. Weights (with a trailing
/// bias term) are broadcast through shared state and updated by the
/// driver between iterations, like [`crate::apps::kmeans::KMeans`].
pub struct LogReg {
    weights: RwLock<Vec<f64>>,
}

impl LogReg {
    /// Zero-initialized model for `dim` features (+ bias).
    pub fn new(dim: usize) -> Result<LogReg> {
        if dim == 0 {
            return Err(Error::Invalid("need at least one feature".into()));
        }
        Ok(LogReg { weights: RwLock::new(vec![0.0; dim + 1]) })
    }

    /// Current weights (last element is the bias).
    pub fn weights(&self) -> Vec<f64> {
        self.weights.read().clone()
    }

    /// Model output for a feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let w = self.weights.read();
        let z: f64 =
            w[..x.len()].iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + w[w.len() - 1];
        sigmoid(z)
    }

    /// One gradient step over `data` at learning rate `lr`. Returns the
    /// mean log-loss before the update.
    pub fn step(&self, job: &mut Job, data: mrs_runtime::DataId, lr: f64) -> Result<f64> {
        let mapped = job.map_data(data, 0, 1, true)?;
        let reduced = job.reduce_data(mapped, 0)?;
        let out = job.fetch_all(reduced)?;
        job.discard(mapped);
        job.discard(reduced);
        let [(_, v)] = out.as_slice() else {
            return Err(Error::Invalid(format!("expected 1 gradient record, got {}", out.len())));
        };
        let part = GradPart::from_bytes(v)?;
        if part.count == 0 {
            return Err(Error::Invalid("gradient over empty data".into()));
        }
        let n = part.count as f64;
        let mut w = self.weights.write();
        for (wi, g) in w.iter_mut().zip(&part.grad) {
            *wi -= lr * g / n;
        }
        Ok(part.loss / n)
    }

    /// Run `iters` gradient steps; returns the loss history.
    pub fn fit(
        &self,
        job: &mut Job,
        examples: Vec<Record>,
        map_tasks: usize,
        lr: f64,
        iters: u64,
    ) -> Result<Vec<f64>> {
        let data = job.local_data(examples, map_tasks)?;
        let mut history = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            history.push(self.step(job, data, lr)?);
        }
        Ok(history)
    }
}

impl MapReduce for LogReg {
    type K1 = u64; // example id
    type V1 = (f64, Vec<f64>); // (label in {0,1}, features)
    type K2 = u64; // constant 0
    type V2 = GradPart;

    fn map(&self, _id: u64, example: (f64, Vec<f64>), emit: &mut dyn FnMut(u64, GradPart)) {
        let (label, x) = example;
        let w = self.weights.read();
        let z: f64 =
            w[..x.len()].iter().zip(&x).map(|(wi, xi)| wi * xi).sum::<f64>() + w[w.len() - 1];
        let p = sigmoid(z);
        let err = p - label;
        let mut grad: Vec<f64> = x.iter().map(|xi| err * xi).collect();
        grad.push(err); // bias
        let eps = 1e-12;
        let loss = -(label * (p + eps).ln() + (1.0 - label) * (1.0 - p + eps).ln());
        emit(0, GradPart { grad, count: 1, loss });
    }

    fn reduce(
        &self,
        _k: u64,
        values: &mut dyn Iterator<Item = GradPart>,
        emit: &mut dyn FnMut(GradPart),
    ) {
        let mut acc: Option<GradPart> = None;
        for p in values {
            match &mut acc {
                None => acc = Some(p),
                Some(a) => {
                    for (g, x) in a.grad.iter_mut().zip(&p.grad) {
                        *g += x;
                    }
                    a.count += p.count;
                    a.loss += p.loss;
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
}

/// Two separable Gaussian classes: label 1 around `+center`, label 0
/// around `-center`. Deterministic.
pub fn two_class_data(dim: usize, per_class: u64, center: f64, seed: u64) -> Vec<Record> {
    let streams = StreamFactory::new(seed);
    let mut records = Vec::with_capacity(2 * per_class as usize);
    let mut id = 0u64;
    for (label, sign) in [(1.0f64, 1.0f64), (0.0, -1.0)] {
        let mut rng = streams.stream(&[0x6c72_6461, label as u64]); // "lrda"
        for _ in 0..per_class {
            let x: Vec<f64> = (0..dim).map(|_| sign * center + rng.normal()).collect();
            records.push(encode_record(&id, &(label, x)));
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

    fn accuracy(model: &LogReg, data: &[Record]) -> f64 {
        let mut correct = 0usize;
        for (_, v) in data {
            let (label, x) = <(f64, Vec<f64>)>::from_bytes(v).unwrap();
            let p = model.predict(&x);
            if (p > 0.5) == (label > 0.5) {
                correct += 1;
            }
        }
        correct as f64 / data.len() as f64
    }

    #[test]
    fn learns_separable_classes() {
        let data = two_class_data(4, 150, 1.5, 9);
        let program = Arc::new(Simple(LogReg::new(4).unwrap()));
        let mut rt = LocalRuntime::pool(program.clone(), 4);
        let mut job = Job::new(&mut rt);
        let history = program.0.fit(&mut job, data.clone(), 4, 0.5, 60).unwrap();
        assert!(history.first().unwrap() > history.last().unwrap(), "{history:?}");
        assert!(accuracy(&program.0, &data) > 0.97);
    }

    #[test]
    fn loss_decreases_monotonically_with_small_lr() {
        let data = two_class_data(3, 80, 1.0, 4);
        let program = Arc::new(Simple(LogReg::new(3).unwrap()));
        let mut rt = SerialRuntime::new(program.clone());
        let mut job = Job::new(&mut rt);
        let history = program.0.fit(&mut job, data, 2, 0.1, 30).unwrap();
        for w in history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "loss rose: {w:?}");
        }
    }

    #[test]
    fn serial_and_pool_agree_closely() {
        let data = two_class_data(3, 60, 1.2, 7);
        let fit = |parallel: bool| {
            let program = Arc::new(Simple(LogReg::new(3).unwrap()));
            if parallel {
                let mut rt = LocalRuntime::pool(program.clone(), 4);
                let mut job = Job::new(&mut rt);
                program.0.fit(&mut job, data.clone(), 5, 0.3, 20).unwrap();
            } else {
                let mut rt = SerialRuntime::new(program.clone());
                let mut job = Job::new(&mut rt);
                program.0.fit(&mut job, data.clone(), 1, 0.3, 20).unwrap();
            }
            program.0.weights()
        };
        for (a, b) in fit(false).iter().zip(fit(true).iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn gradpart_roundtrips() {
        let p = GradPart { grad: vec![0.5, -1.5], count: 3, loss: 2.25 };
        assert_eq!(GradPart::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn invalid_dim_rejected() {
        assert!(LogReg::new(0).is_err());
    }

    #[test]
    fn untrained_model_predicts_half() {
        let model = LogReg::new(2).unwrap();
        assert!((model.predict(&[3.0, -1.0]) - 0.5).abs() < 1e-12);
    }
}
