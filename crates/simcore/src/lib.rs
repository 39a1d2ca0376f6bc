//! # hsdp-simcore
//!
//! The deterministic simulation substrate shared by every simulated
//! component in the workspace:
//!
//! - [`time`] — nanosecond [`time::SimTime`] / [`time::SimDuration`].
//! - [`dist`] — zipf / exponential / pareto / log-normal sampling, from
//!   scratch.
//! - [`pool`] — a scoped worker pool plus deterministic shard planning for
//!   thread-count-invariant parallel runs.
//!
//! The platform simulators (`hsdp-platforms`) charge simulated time in
//! [`time::SimDuration`] units directly as they execute each query — there
//! is no event loop — and run their shards and compaction batches on
//! [`pool`], so the profiling pipeline sees deterministic, reproducible
//! traces at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod pool;
pub mod time;

pub use dist::{
    seeded_rng, BoundedPareto, Constant, Exponential, LogNormal, Sample, Uniform, Zipf,
};
pub use pool::{run_jobs, Shard, ShardPlan};
pub use time::{SimDuration, SimTime};
