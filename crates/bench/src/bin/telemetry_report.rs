//! Runs the fleet instrumented and emits the three telemetry artifacts:
//!
//! ```sh
//! cargo run --release -p hsdp-bench --bin telemetry_report -- --out /tmp/telemetry
//! # -> /tmp/telemetry/{metrics.json, trace.json, critical_path.json}
//! ```
//!
//! `metrics.json` is byte-identical at every `--parallelism` value (the
//! per-shard registries merge in canonical shard order), `trace.json` loads
//! in Perfetto / `chrome://tracing`, and `critical_path.json` holds the
//! per-platform critical-path attribution with its GWP-CPU agreement ratio.
//! Without `--out`, a human-readable attribution summary prints to stdout.

use hsdp_bench::telemetry_out::{build_artifacts, render_summary};
use hsdp_platforms::runner::FleetConfig;
use hsdp_telemetry::json;

fn main() {
    let mut config = FleetConfig {
        db_queries: 120,
        analytics_queries: 16,
        fact_rows: 1_500,
        ..FleetConfig::default()
    };
    let mut out_dir: Option<String> = None;

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
            "--db-queries" => config.db_queries = parse(&take("--db-queries"), "--db-queries"),
            "--out" => out_dir = Some(take("--out")),
            other => {
                eprintln!(
                    "unknown option `{other}` (supported: --parallelism --shards --seed \
                     --db-queries --out)"
                );
                std::process::exit(2);
            }
        }
    }

    if let Err(err) = config.validate() {
        eprintln!("invalid fleet configuration: {err}");
        std::process::exit(2);
    }

    let runs = hsdp_platforms::runner::run_fleet_telemetry(config);
    let artifacts = build_artifacts(&runs);
    for (name, body) in [
        ("metrics.json", &artifacts.metrics_json),
        ("trace.json", &artifacts.trace_json),
        ("critical_path.json", &artifacts.critical_path_json),
    ] {
        if let Err(err) = json::validate(body) {
            panic!("{name} failed self-validation: {err}");
        }
    }

    match out_dir {
        Some(dir) => {
            let dir = std::path::Path::new(&dir);
            artifacts.write_to(dir).expect("write telemetry artifacts");
            println!(
                "wrote metrics.json ({} B), trace.json ({} B), critical_path.json ({} B) to {}",
                artifacts.metrics_json.len(),
                artifacts.trace_json.len(),
                artifacts.critical_path_json.len(),
                dir.display()
            );
        }
        None => print!("{}", render_summary(&runs)),
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| panic!("{flag}: invalid value `{value}`"))
}
