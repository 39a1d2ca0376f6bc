//! # hsdp-platforms
//!
//! Simulated hyperscale data processing platforms — the synthetic stand-ins
//! for the paper's three production systems (Figure 1), built on the
//! workspace substrates and executing *real* data-structure and codec work:
//!
//! - [`spanner`] — a leader-led consensus group: replicated write log with
//!   quorum waits, strong reads, SQL-style scans.
//! - [`bigtable`] — an LSM tablet server: memtable, bloom-filtered
//!   SSTables, compressed blocks, leveled compaction that surfaces as
//!   remote work.
//! - [`bigquery`] — a columnar staged query engine: compressed column
//!   scans, filter/aggregate/join/sort operators, a hash-partitioned
//!   distributed shuffle.
//!
//! Shared infrastructure: [`meter`] (labeled CPU work charging),
//! [`costs`] (the calibrated cost model), [`exec`] (per-query records),
//! [`columnar`] (the column codec), [`bloom`] (cache-line-blocked filters),
//! [`merge`] (the loser-tree compaction merge), and [`runner`] (workload
//! drivers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bigquery;
pub mod bigtable;
pub mod bloom;
pub mod columnar;
pub mod costs;
pub mod exec;
pub mod merge;
pub mod meter;
pub mod runner;
pub mod spanner;
pub mod twopc;

pub use bigquery::{BigQuery, BigQueryConfig};
pub use bigtable::{BigTable, BigTableConfig};
pub use exec::QueryExecution;
pub use meter::{CpuWorkItem, WorkMeter};
pub use runner::{run_bigquery, run_bigtable, run_fleet, run_spanner, FleetConfig};
pub use spanner::{Spanner, SpannerConfig};
pub use twopc::{distributed_commit, TxnWrite};
