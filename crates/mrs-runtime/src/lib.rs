//! Execution implementations for Mrs programs.
//!
//! The paper defines four run-time behaviours of one and the same program
//! (§IV-A), all reproduced here:
//!
//! * [`serial`] — everything sequential in one task per operation;
//!   deterministic reference semantics,
//! * [`local`] with one worker and file spill — **mock parallel**: the same
//!   task decomposition as the cluster, run on a single processor, with
//!   intermediate data saved to bucket files for debugging,
//! * [`local`] with N workers — thread-pool parallelism in one process,
//! * [`distributed`] — the real master/slave runtime over XML-RPC
//!   ([`master`], [`slave`]), with direct HTTP intermediate data or a
//!   shared filesystem, task→slave affinity, operation pipelining, and
//!   slave-failure recovery,
//!
//! The pool, mock parallel and the slave run every task attempt through
//! one worker loop (`workers`, crate-private): gather the attempt's
//! inputs, run the task kernel under its cancel flag, store the outputs,
//! trace the attempt in one span shape, hand the outcome back. Each plane
//! supplies only a *source* — the pool's claim under its scheduler lock,
//! the slave's queue of accepted assignments, whose inputs each worker
//! fetches itself — and a *sink* — the pool's commit, the slave's report
//! to the master. The serial plane stays apart: it is the reference the
//! others are checked against.
//!
//! The distributed runtime is capacity-aware: each slave advertises
//! `slots + 1` at signin ([`SlaveOptions::slots`] workers plus one task
//! queued ahead, so one poll carries two) and asks for up to its free
//! capacity per poll. Its workers fetch their own inputs; an idle slave
//! parks at the master. What a slave does with an answer and when it
//! polls is one clock-free state machine, like the master's core. The
//! master dispatches batches up to each slave's capacity, breaks
//! affinity ties toward underloaded slaves, steals claims only from
//! fractionally busier owners, and on a slave death re-queues *all* of
//! its in-flight tasks.
//!
//! Stragglers are handled by speculative execution
//! ([`master::SpeculateMode`], `--mrs-speculate on|off`, default on):
//! when a wave is mostly complete and idle slots exist, a task running
//! past 1.5 times the median completed-task runtime gets a backup
//! attempt on a different slave. The first
//! completion wins at the master's commit point; every losing attempt is
//! cancelled cooperatively via an order piggybacked on its slave's next
//! poll, and a stale report from a loser is recognized by its attempt id
//! and ignored.
//!
//! Its control plane is event-driven: an idle slave's `get_task` parks
//! server-side on a condvar until a state transition makes work runnable
//! (long-poll dispatch), completion reports ride piggybacked on the next
//! poll instead of costing their own RPC, the driver's `wait`/`fetch_all`
//! sleep on the completion condvar, and one death timer per master sleeps
//! until the earliest possible slave death. Master
//! and slaves speak one wire version ([`proto::PROTOCOL_VERSION`]),
//! checked at `signin`.
//!
//! Every plane traces every task attempt, always: each recording thread
//! writes into a fixed-size ring, and the master holds each slave's
//! ingested events in one more, so the timeline's memory is bounded by
//! the slave count, not by the rounds run.
//! * the **bypass** implementation is a plain function call in Rust: run
//!   your serial code directly (see `examples/`).
//!
//! All implementations must produce identical answers; the integration
//! tests enforce it.

pub mod cli;
pub mod data;
pub mod distributed;
pub mod job;
pub mod local;
pub mod master;
pub mod metrics;
mod plan;
pub mod proto;
pub mod serial;
pub mod slave;
mod workers;

pub use cli::{main_with, CliOptions, Implementation};
pub use data::DataId;
pub use distributed::LocalCluster;
pub use job::{Job, JobApi};
pub use local::LocalRuntime;
pub use master::{Master, MasterConfig, SpeculateMode};
pub use mrs_codec::CompressMode;
pub use proto::DataPlane;
pub use serial::SerialRuntime;
pub use slave::SlaveOptions;
