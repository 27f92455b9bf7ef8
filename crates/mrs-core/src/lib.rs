//! Core MapReduce programming model and data plane.
//!
//! This crate defines everything the paper's §II formalises, independent of
//! *how* a program is executed (see `mrs-runtime` for the four execution
//! implementations and `hadoop-sim` for the baseline):
//!
//! * [`kv`] — the record model: byte-oriented key/value pairs plus the
//!   [`kv::Datum`] codec trait that gives programs a typed view,
//! * [`program`] — the user-facing [`program::MapReduce`] trait
//!   (`map : (K1,V1) → list((K2,V2))`, `reduce : (K2, list(V2)) → list(V2)`)
//!   and the object-safe [`program::Program`] layer the runtimes drive,
//! * [`bucket`] / [`merge`] — intermediate data containers, sorting,
//!   merging and grouping by key,
//! * [`partition`] — hash and modulo partitioners,
//! * [`task`] — [`task::TaskSpec`] and the one task kernel every runtime
//!   runs it with.

pub mod bucket;
pub mod error;
pub mod kv;
pub mod merge;
pub mod partition;
pub mod program;
pub mod task;

pub use bucket::Bucket;
pub use error::{Error, Result};
pub use kv::{Datum, Record, View};
pub use merge::{merge_runs, RunMerger};
pub use program::{FuncId, MapReduce, Program, Simple};
pub use task::TaskSpec;
