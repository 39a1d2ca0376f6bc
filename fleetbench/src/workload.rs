//! The benchmark's workloads: fleet shapes sized so that traffic, not
//! preload, dominates a run, and the tax-kernel corpora each one is timed
//! on. Every input is a pure function of the workload name and the seed;
//! the program sees the seed only through `FleetConfig::seed`.

use hsdp_platforms::runner::FleetConfig;
use hsdp_rng::{derive_seed, StdRng};
use hsdp_workload::keys::{KeyGen, ValueGen};
use hsdp_workload::rows::FactGen;

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 2] = ["analytics-scan", "fleet-parallel"];

/// Seed stream for the tax-kernel corpora (kept apart from the fleet's).
const CORPUS_STREAM: u64 = 0x7A58_C0F5;

/// Bytes in each workload's compress/decompress/crc32c/sha3 corpus.
const CORPUS_BYTES: usize = 256 * 1024;

/// Messages in each workload's protowire-encode corpus.
pub const PROTO_MESSAGES: usize = 96;

/// The fleet configuration of `name` under `seed`, or `None` for an unknown
/// workload.
pub fn config(name: &str, seed: u64) -> Option<FleetConfig> {
    let base = FleetConfig {
        seed,
        perturb: None,
        ..FleetConfig::default()
    };
    match name {
        // BigQuery only: few, heavy columnar queries, so the record
        // pipeline is a small share of the run.
        "analytics-scan" => Some(FleetConfig {
            db_queries: 0,
            analytics_queries: 1_200,
            fact_rows: 40_000,
            shards: 4,
            tablets: 4,
            parallelism: 1,
            ..base
        }),
        // All three platforms cut into many small jobs at two workers:
        // the only workload where pool dispatch and wall-vs-CPU matter.
        "fleet-parallel" => Some(FleetConfig {
            db_queries: 20_000,
            analytics_queries: 200,
            fact_rows: 8_000,
            shards: 8,
            tablets: 8,
            parallelism: 2,
            ..base
        }),
        _ => None,
    }
}

/// The byte corpus the compress, decompress, crc32c and sha3 kernels are
/// timed on: the data the workload's platforms actually move. The analytics
/// workload gets request-log fact rows; the mixed fleet interleaves them with
/// the key/value row records (SSTable-block-like) its databases store.
pub fn byte_corpus(name: &str, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, CORPUS_STREAM, 0));
    let keys = KeyGen::new("bt", 20_000, 0.99);
    let values = ValueGen::new(300);
    let facts = FactGen::default();
    let mut corpus = Vec::with_capacity(CORPUS_BYTES + 1024);
    let mut turn = 0usize;
    while corpus.len() < CORPUS_BYTES {
        if name == "analytics-scan" || turn % 2 == 1 {
            let row = facts.sample(&mut rng);
            corpus.extend_from_slice(
                format!(
                    "{}\t{}\t{:.3}\t{}\t{}\t{}\n",
                    row.user_id, row.region, row.latency_ms, row.bytes, row.url, row.success
                )
                .as_bytes(),
            );
        } else {
            corpus.extend_from_slice(&keys.sample(&mut rng));
            corpus.push(b'=');
            corpus.extend_from_slice(&values.sample(&mut rng));
            corpus.push(b'\n');
        }
        turn += 1;
    }
    corpus.truncate(CORPUS_BYTES);
    corpus
}

/// The generator the protowire-encode corpus is drawn from.
pub fn proto_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, CORPUS_STREAM, 1))
}
