//! Emits a canonical JSON profile of one fleet run, for determinism checks:
//!
//! ```sh
//! cargo run --release -p hsdp-bench --bin fleet_profile -- \
//!     --parallelism 2 --seed 12648430 --out /tmp/fleet_p2.json
//! diff /tmp/fleet_p1.json /tmp/fleet_p2.json   # must be empty
//! ```
//!
//! Everything in the output is integer-exact (simulated nanoseconds and a
//! CRC32C digest over the full merged record stream), so two runs are
//! byte-identical if and only if their merged `QueryExecution` streams are.
//!
//! `--folded PATH` additionally writes a Brendan Gregg collapsed-stack
//! profile (load with `flamegraph.pl` or speedscope), and `--pprof PATH`
//! writes the same stack tree as a raw `profile.proto` (load with
//! `pprof -http=: PATH`). Both are rendered from one deterministic GWP
//! pass over the canonical record stream, so they are byte-identical at
//! any `--parallelism`.
//!
//! `--snapshot PATH` appends this run's profile-history snapshot (shared
//! builder with `profile_history append`) to the store at PATH, stamped
//! with `--commit` / `--seq` when given. The snapshot content is likewise
//! parallelism-invariant: it forces the instrumented (telemetry) fleet
//! path and derives everything from canonical merged state.

use hsdp_bench::exhibits::{fleet_profile_json, fleet_stack_profile};
use hsdp_bench::snapshot::snapshot_from_parts;
use hsdp_bench::tail::{tail_from_parts, tail_summary};
use hsdp_bench::telemetry_out::build_artifacts;
use hsdp_platforms::runner::{
    default_parallelism, fold_fleet, merge_fleet_metrics, run_fleet, run_fleet_telemetry,
    FleetConfig,
};
use hsdp_profiling::history::{HistoryStore, SnapshotMeta};
use hsdp_simcore::pool::Perturbation;
use hsdp_simcore::time::SimDuration;
use hsdp_taxes::pprof::Profile;

/// GWP sample period for the stack-profile exports (matches the period
/// baked into [`fleet_stack_profile`]).
fn stack_sample_period() -> SimDuration {
    SimDuration::from_micros(2)
}

fn main() {
    let mut config = FleetConfig {
        db_queries: 120,
        analytics_queries: 16,
        fact_rows: 1_500,
        ..FleetConfig::default()
    };
    let mut out_path: Option<String> = None;
    let mut telemetry_dir: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut pprof_path: Option<String> = None;
    let mut snapshot_path: Option<String> = None;
    let mut commit = String::new();
    let mut sequence = 0u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
        };
        match arg.as_str() {
            "--parallelism" => config.parallelism = parse(&take("--parallelism"), "--parallelism"),
            "--shards" => config.shards = parse(&take("--shards"), "--shards"),
            "--seed" => config.seed = parse(&take("--seed"), "--seed"),
            // Schedule-perturbation knob: permutes shard dispatch/consumption
            // order under the given seed. Must never change any artifact.
            "--perturb" => {
                config.perturb = Some(Perturbation::new(parse(&take("--perturb"), "--perturb")));
            }
            "--db-queries" => config.db_queries = parse(&take("--db-queries"), "--db-queries"),
            "--out" => out_path = Some(take("--out")),
            "--telemetry" => telemetry_dir = Some(take("--telemetry")),
            "--folded" => folded_path = Some(take("--folded")),
            "--pprof" => pprof_path = Some(take("--pprof")),
            "--snapshot" => snapshot_path = Some(take("--snapshot")),
            "--commit" => commit = take("--commit"),
            "--seq" => sequence = parse(&take("--seq"), "--seq"),
            other => {
                eprintln!(
                    "unknown option `{other}` (supported: --parallelism --shards --seed \
                     --perturb --db-queries --out --telemetry --folded --pprof \
                     --snapshot --commit --seq)"
                );
                std::process::exit(2);
            }
        }
    }

    if let Err(err) = config.validate() {
        eprintln!("invalid fleet configuration: {err}");
        std::process::exit(2);
    }

    // With `--telemetry <dir>` the fleet runs instrumented and the three
    // telemetry artifacts land in <dir>; `--snapshot` also forces the
    // instrumented path (the snapshot wants histogram quantiles). The
    // profile JSON is rendered from the same records either way.
    let (fleet, metrics, tail) = if telemetry_dir.is_some() || snapshot_path.is_some() {
        let runs = run_fleet_telemetry(config);
        if let Some(dir) = &telemetry_dir {
            let artifacts = build_artifacts(&runs);
            artifacts
                .write_to(std::path::Path::new(dir))
                .expect("write telemetry artifacts");
        }
        let metrics = merge_fleet_metrics(&runs);
        let tail = tail_summary(&tail_from_parts(&config, &runs, &metrics, ""));
        (fold_fleet(runs), Some(metrics), tail)
    } else {
        (run_fleet(config), None, std::collections::BTreeMap::new())
    };
    // Stack-profile exports: all render from one deterministic GWP pass
    // over the canonical fleet record stream, so any two runs with the same
    // workload config produce byte-identical artifacts regardless of
    // `--parallelism`.
    if folded_path.is_some() || pprof_path.is_some() || snapshot_path.is_some() {
        let stacks = fleet_stack_profile(&fleet, config.seed);
        if let Some(path) = folded_path {
            std::fs::write(&path, stacks.folded()).expect("write folded stacks");
        }
        if let Some(path) = pprof_path {
            let profile = stacks.to_pprof(stack_sample_period());
            profile.validate().expect("pprof export is consistent");
            let bytes = profile.encode();
            // Round-trip self-check: the bytes we ship must decode back to
            // the exact message we built.
            let decoded = Profile::decode(&bytes).expect("pprof round-trip decode");
            assert_eq!(decoded, profile, "pprof round-trip must be lossless");
            std::fs::write(&path, &bytes).expect("write pprof profile");
        }
        if let Some(path) = snapshot_path {
            let meta = SnapshotMeta {
                commit,
                sequence,
                // audit: allow(cast, hardware thread count fits u64)
                host_parallelism: default_parallelism() as u64,
                cpu_features: hsdp_taxes::dispatch::CpuFeatures::get().summary(),
            };
            let snapshot = snapshot_from_parts(
                meta,
                &stacks,
                metrics.as_ref().expect("snapshot path forces telemetry"),
                &std::collections::BTreeMap::new(),
                &tail,
            );
            let outcome = HistoryStore::open(&path)
                .append(&snapshot)
                .expect("append profile-history snapshot");
            eprintln!(
                "appended snapshot to {path}: {} snapshot(s){}",
                outcome.snapshots,
                if outcome.recovered {
                    " [recovered torn tail]"
                } else {
                    ""
                },
            );
        }
    }

    let json = fleet_profile_json(&config, &fleet);
    match out_path {
        Some(path) => std::fs::write(&path, &json).expect("write profile JSON"),
        None => print!("{json}"),
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| panic!("{flag}: invalid value `{value}`"))
}
