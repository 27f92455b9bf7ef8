//! **mrs** — a Rust reproduction of "Mrs: MapReduce for Scientific
//! Computing in Python" (SC 2012).
//!
//! This facade re-exports the workspace crates and hosts the example
//! applications the paper evaluates ([`apps`]): WordCount, the Halton
//! π estimator in several language tiers, and PSO (via [`mrs_pso`]).
//!
//! ```
//! use mrs::prelude::*;
//! use std::sync::Arc;
//!
//! let program = Arc::new(Simple(mrs::apps::wordcount::WordCount));
//! let mut rt = SerialRuntime::new(program);
//! let mut job = Job::new(&mut rt);
//! let input = mrs::apps::wordcount::lines_to_records(["to be or not to be"]);
//! let out = job.map_reduce(input, 1, 1, true).unwrap();
//! let counts = mrs::apps::wordcount::decode_counts(&out).unwrap();
//! assert_eq!(counts.get("to"), Some(&2));
//! ```

pub use corpus;
pub use hadoop_sim;
pub use mrs_core;
pub use mrs_fs;
pub use mrs_pso;
pub use mrs_rng;
pub use mrs_rpc;
pub use mrs_runtime;
pub use slowpy;

pub mod apps;

/// The common imports for writing and running Mrs programs.
pub mod prelude {
    pub use mrs_core::{Datum, Error, MapReduce, Program, Record, Result, Simple};
    pub use mrs_runtime::{
        CompressMode, DataId, DataPlane, Job, JobApi, LocalCluster, LocalRuntime, Master,
        MasterConfig, SerialRuntime, SlaveOptions, SpeculateMode,
    };
}
