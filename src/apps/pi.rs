//! The π estimator: quasi-Monte-Carlo over Halton sequences (§V-B,
//! Fig. 3), with the paper's four language tiers as selectable kernels.
//!
//! The MapReduce decomposition follows Hadoop's `PiEstimator`: the sample
//! range is cut into map tasks, each map counts how many of its points
//! fall inside the quarter circle, and a single reduce sums the counts.
//! All tiers compute the *identical* sequence of IEEE operations (direct
//! radical-inverse Halton), so their `inside` counts agree exactly — the
//! only difference is who executes the arithmetic:
//!
//! * [`Kernel::Native`] — plain Rust: the "C" tier,
//! * [`Kernel::TreeInterp`] — slowpy's AST walker: the "CPython" tier,
//! * [`Kernel::Bytecode`] — slowpy's VM: the "PyPy" tier,
//! * [`Kernel::Ctypes`] — slowpy calling a registered native for the
//!   whole inner loop, the paper's ctypes trick (Fig. 3b).

use mrs_core::kv::encode_record;
use mrs_core::{Datum, MapReduce, Record, Result};
use slowpy::{Engine, Value};

/// The slowpy source of the pure-interpreter kernels: direct radical-
/// inverse Halton, matching `native_count` operation for operation.
pub const SLOWPY_PI_SOURCE: &str = r#"
fn halton(i, base) {
  var f = 1.0;
  var r = 0.0;
  while (i > 0) {
    f = f / base;
    r = r + f * (i % base);
    i = i // base;
  }
  return r;
}

fn pi_count(start, n) {
  var inside = 0;
  var k = 0;
  while (k < n) {
    var idx = start + k + 1;
    var x = halton(idx, 2);
    var y = halton(idx, 3);
    if (x * x + y * y <= 1.0) {
      inside = inside + 1;
    }
    k = k + 1;
  }
  return inside;
}
"#;

/// The slowpy source of the ctypes tier: the interpreter only dispatches
/// one call; the loop body is native.
pub const SLOWPY_CTYPES_SOURCE: &str = r#"
fn pi_count(start, n) {
  return native_pi_count(start, n);
}
"#;

/// Which language tier executes the inner loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Plain Rust ("C").
    Native,
    /// slowpy tree interpreter ("CPython").
    TreeInterp,
    /// slowpy bytecode VM ("PyPy").
    Bytecode,
    /// slowpy dispatching to a native inner loop ("Python + ctypes").
    Ctypes,
}

impl Kernel {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Native => "native",
            Kernel::TreeInterp => "tree",
            Kernel::Bytecode => "vm",
            Kernel::Ctypes => "ctypes",
        }
    }

    /// All tiers.
    pub fn all() -> [Kernel; 4] {
        [Kernel::Native, Kernel::TreeInterp, Kernel::Bytecode, Kernel::Ctypes]
    }
}

/// Count points of the Halton slab `[start+1, start+n]` inside the unit
/// quarter circle — the native tier, and the ground truth for the rest.
pub fn native_count(start: u64, n: u64) -> u64 {
    let mut inside = 0;
    for k in 0..n {
        let idx = start + k + 1;
        let x = mrs_rng::halton(idx, 2);
        let y = mrs_rng::halton(idx, 3);
        if x * x + y * y <= 1.0 {
            inside += 1;
        }
    }
    inside
}

/// Run a slab on the given tier.
pub fn kernel_count(kernel: Kernel, start: u64, n: u64) -> Result<u64> {
    let to_err = |e: slowpy::RuntimeError| mrs_core::Error::Invalid(format!("slowpy: {e}"));
    let count = match kernel {
        Kernel::Native => return Ok(native_count(start, n)),
        Kernel::TreeInterp => {
            let engine = Engine::new();
            let prog = slowpy::parse(SLOWPY_PI_SOURCE)
                .map_err(|e| mrs_core::Error::Invalid(e.to_string()))?;
            engine
                .run_tree(&prog, "pi_count", &[Value::Int(start as i64), Value::Int(n as i64)])
                .map_err(to_err)?
        }
        Kernel::Bytecode => {
            let engine = Engine::new();
            let prog = slowpy::parse(SLOWPY_PI_SOURCE)
                .map_err(|e| mrs_core::Error::Invalid(e.to_string()))?;
            engine
                .run_vm(&prog, "pi_count", &[Value::Int(start as i64), Value::Int(n as i64)])
                .map_err(to_err)?
        }
        Kernel::Ctypes => {
            let mut engine = Engine::new();
            engine.register("native_pi_count", |args| {
                let (Some(start), Some(n)) =
                    (args.first().and_then(Value::as_i64), args.get(1).and_then(Value::as_i64))
                else {
                    return Err(slowpy::RuntimeError("native_pi_count(start, n)".into()));
                };
                Ok(Value::Int(native_count(start as u64, n as u64) as i64))
            });
            let prog = slowpy::parse(SLOWPY_CTYPES_SOURCE)
                .map_err(|e| mrs_core::Error::Invalid(e.to_string()))?;
            engine
                .run_vm(&prog, "pi_count", &[Value::Int(start as i64), Value::Int(n as i64)])
                .map_err(to_err)?
        }
    };
    count
        .as_i64()
        .map(|i| i as u64)
        .ok_or_else(|| mrs_core::Error::Invalid("pi kernel returned non-int".into()))
}

/// The MapReduce program: map counts a slab, reduce sums `(inside, total)`
/// pairs under a single key.
pub struct PiEstimator {
    /// Language tier of the inner loop.
    pub kernel: Kernel,
}

impl MapReduce for PiEstimator {
    type K1 = u64; // task id
    type V1 = (u64, u64); // (start, count)
    type K2 = u64; // constant 0
    type V2 = (u64, u64); // (inside, total)

    fn map(&self, _task: u64, slab: (u64, u64), emit: &mut dyn FnMut(u64, (u64, u64))) {
        let (start, n) = slab;
        let inside = kernel_count(self.kernel, start, n).expect("pi kernel source is valid");
        emit(0, (inside, n));
    }

    fn reduce(
        &self,
        _key: u64,
        values: &mut dyn Iterator<Item = (u64, u64)>,
        emit: &mut dyn FnMut((u64, u64)),
    ) {
        let (mut inside, mut total) = (0u64, 0u64);
        for (i, t) in values {
            inside += i;
            total += t;
        }
        emit((inside, total));
    }
}

/// Build the input records: `samples` points split over `tasks` slabs.
pub fn slabs(samples: u64, tasks: u64) -> Vec<Record> {
    assert!(tasks > 0, "need at least one task");
    let base = samples / tasks;
    let extra = samples % tasks;
    let mut records = Vec::with_capacity(tasks as usize);
    let mut start = 0u64;
    for t in 0..tasks {
        let n = base + u64::from(t < extra);
        records.push(encode_record(&t, &(start, n)));
        start += n;
    }
    records
}

/// Decode the single reduce output into the π estimate.
pub fn estimate_from(records: &[Record]) -> Result<f64> {
    let (mut inside, mut total) = (0u64, 0u64);
    for (_, v) in records {
        let (i, t) = <(u64, u64)>::from_bytes(v)?;
        inside += i;
        total += t;
    }
    if total == 0 {
        return Err(mrs_core::Error::Invalid("no samples".into()));
    }
    Ok(4.0 * inside as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::Simple;
    use mrs_runtime::{Job, LocalRuntime};
    use std::sync::Arc;

    #[test]
    fn all_tiers_agree_exactly() {
        for kernel in [Kernel::TreeInterp, Kernel::Bytecode, Kernel::Ctypes] {
            for (start, n) in [(0u64, 500u64), (1000, 250), (123, 77)] {
                assert_eq!(
                    kernel_count(kernel, start, n).unwrap(),
                    native_count(start, n),
                    "{kernel:?} slab ({start},{n})"
                );
            }
        }
    }

    #[test]
    fn slabs_cover_range_exactly() {
        let records = slabs(100, 7);
        assert_eq!(records.len(), 7);
        let mut expect_start = 0u64;
        let mut total = 0u64;
        for (_, v) in &records {
            let (start, n) = <(u64, u64)>::from_bytes(v).unwrap();
            assert_eq!(start, expect_start);
            expect_start += n;
            total += n;
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn slab_decomposition_is_exact() {
        // Sum of slab counts == one big count (MapReduce correctness).
        let whole = native_count(0, 4_000);
        let parts: u64 = slabs(4_000, 5)
            .iter()
            .map(|(_, v)| {
                let (s, n) = <(u64, u64)>::from_bytes(v).unwrap();
                native_count(s, n)
            })
            .sum();
        assert_eq!(whole, parts);
    }

    #[test]
    fn mapreduce_pi_converges() {
        let program = Arc::new(Simple(PiEstimator { kernel: Kernel::Native }));
        let mut rt = LocalRuntime::pool(program, 4);
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(slabs(400_000, 16), 16, 1, false).unwrap();
        let pi = estimate_from(&out).unwrap();
        assert!((pi - std::f64::consts::PI).abs() < 5e-3, "pi = {pi}");
    }

    #[test]
    fn interpreted_mapreduce_matches_native() {
        let run = |kernel| {
            let program = Arc::new(Simple(PiEstimator { kernel }));
            let mut rt = LocalRuntime::pool(program, 2);
            let mut job = Job::new(&mut rt);
            let out = job.map_reduce(slabs(3_000, 4), 4, 1, false).unwrap();
            estimate_from(&out).unwrap()
        };
        let native = run(Kernel::Native);
        assert_eq!(native, run(Kernel::Bytecode));
        assert_eq!(native, run(Kernel::Ctypes));
    }

    #[test]
    fn zero_samples_is_an_error() {
        assert!(estimate_from(&[]).is_err());
    }
}
