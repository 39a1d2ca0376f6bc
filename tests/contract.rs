//! The determinism contract, checked in the root package's own test run.
//!
//! The workspace suites prove these properties in depth; this file keeps a
//! compact copy of each where `cargo test` at the root sees it:
//!
//! - the artifact bundle `fleet_profile` and `tail_report --json` render
//!   (profile JSON, metrics/trace/critical-path JSON, folded stacks, pprof,
//!   tail report) is byte-identical at parallelism 1 and 4 and under a
//!   schedule perturbation;
//! - the dispatched CRC32C equals slicing-by-8 and the bytewise oracle on
//!   fleet data;
//! - block compression round-trips and interoperates with its reference
//!   kernels on fleet data.

use hsdp::platforms::runner::{fold_fleet, merge_fleet_metrics, run_fleet_telemetry, FleetConfig};
use hsdp::rng::StdRng;
use hsdp::simcore::pool::Perturbation;
use hsdp::simcore::time::SimDuration;
use hsdp::taxes::compress::{compress, compress_reference, decompress, decompress_reference};
use hsdp::taxes::crc::{crc32c_append, crc32c_append_bytewise, crc32c_append_slicing8};
use hsdp::workload::proto_corpus;
use hsdp_bench::exhibits::{fleet_profile_json, fleet_stack_profile};
use hsdp_bench::tail::{render_json, tail_from_parts};
use hsdp_bench::telemetry_out::build_artifacts;

/// Every artifact one fleet run ships, in the order `fleet_profile` and
/// `tail_report` write them.
#[derive(Debug, PartialEq, Eq)]
struct Bundle {
    profile_json: String,
    metrics_json: String,
    trace_json: String,
    critical_path_json: String,
    folded: String,
    pprof: Vec<u8>,
    tail_json: String,
}

fn bundle(parallelism: usize, perturb: Option<Perturbation>) -> Bundle {
    let config = FleetConfig {
        db_queries: 24,
        analytics_queries: 4,
        fact_rows: 300,
        seed: 0xC0_47AC,
        parallelism,
        shards: 3,
        tablets: 2,
        perturb,
    };
    config.validate().expect("contract config is in range");
    let runs = run_fleet_telemetry(config);
    let telemetry = build_artifacts(&runs);
    let metrics = merge_fleet_metrics(&runs);
    let tail_json = render_json(&tail_from_parts(&config, &runs, &metrics, ""));
    let fleet = fold_fleet(runs);
    let stacks = fleet_stack_profile(&fleet, config.seed);
    Bundle {
        profile_json: fleet_profile_json(&config, &fleet),
        metrics_json: telemetry.metrics_json,
        trace_json: telemetry.trace_json,
        critical_path_json: telemetry.critical_path_json,
        folded: stacks.folded(),
        pprof: stacks.to_pprof(SimDuration::from_micros(2)).encode(),
        tail_json,
    }
}

/// Fleet data for the kernel checks: the protobuf corpus the platforms
/// encode, plus the text and binary artifacts of a fleet run.
fn fleet_corpora(bundle: &Bundle) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0xC0_47AC);
    let mut corpora: Vec<Vec<u8>> = proto_corpus::corpus(32, &mut rng)
        .iter()
        .map(|m| m.encode_to_vec())
        .collect();
    corpora.push(corpora.concat());
    corpora.push(bundle.trace_json.as_bytes().to_vec());
    corpora.push(bundle.folded.as_bytes().to_vec());
    corpora.push(bundle.pprof.clone());
    corpora.push(Vec::new());
    corpora
}

#[test]
fn artifact_bundle_is_byte_identical_across_schedules() {
    let baseline = bundle(1, None);
    assert!(baseline.profile_json.contains("record_stream_crc32c"));
    assert!(!baseline.folded.is_empty() && !baseline.pprof.is_empty());
    assert_eq!(bundle(4, None), baseline, "parallelism 4 moved the bundle");
    assert_eq!(
        bundle(4, Some(Perturbation::new(7))),
        baseline,
        "perturbation 7 moved the bundle"
    );
}

#[test]
fn kernels_agree_with_their_oracles_on_fleet_corpora() {
    for (i, data) in fleet_corpora(&bundle(1, None)).iter().enumerate() {
        let want = crc32c_append_bytewise(0, data);
        assert_eq!(
            crc32c_append(0, data),
            want,
            "dispatched crc32c, corpus {i}"
        );
        assert_eq!(
            crc32c_append_slicing8(0, data),
            want,
            "slicing-by-8, corpus {i}"
        );

        let packed = compress(data);
        let packed_ref = compress_reference(data);
        assert_eq!(
            decompress(&packed).as_ref(),
            Ok(data),
            "fast/fast, corpus {i}"
        );
        assert_eq!(
            decompress_reference(&packed).as_ref(),
            Ok(data),
            "fast/ref, corpus {i}"
        );
        assert_eq!(
            decompress(&packed_ref).as_ref(),
            Ok(data),
            "ref/fast, corpus {i}"
        );
    }
}
