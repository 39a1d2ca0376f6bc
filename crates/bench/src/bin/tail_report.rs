//! Request-centric tail-latency report: joins histogram exemplars,
//! space-saving heavy hitters, and per-request tax attribution with the
//! Dapper critical path, and emits a p50-vs-p99 tax-share comparison plus
//! a blame breakdown for the slowest requests.
//!
//! ```sh
//! cargo run --release -p hsdp-bench --bin tail_report -- \
//!     --parallelism 4 --seed 12648430 --json --out /tmp/tail_p4.json
//! diff /tmp/tail_p1.json /tmp/tail_p4.json   # must be empty
//! ```
//!
//! Everything in the output is integer-exact and derived from canonical
//! merged fleet state, so the artifact is byte-identical at any
//! `--parallelism` and under `--perturb` — the same guarantee
//! `fleet_profile` gives the record stream. Default output is a
//! human-readable table; `--json` switches to the canonical
//! `hsdp-tail-report/1` artifact (the xtask audit report convention).

use hsdp_bench::tail::{build_tail_report, render_json, render_text};
use hsdp_platforms::runner::FleetConfig;
use hsdp_simcore::pool::Perturbation;

fn main() {
    let mut config = FleetConfig {
        db_queries: 120,
        analytics_queries: 16,
        fact_rows: 1_500,
        ..FleetConfig::default()
    };
    let mut out_path: Option<String> = None;
    let mut json = false;
    let mut commit = String::new();

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
            // order under the given seed. Must never change the artifact.
            "--perturb" => {
                config.perturb = Some(Perturbation::new(parse(&take("--perturb"), "--perturb")));
            }
            "--db-queries" => config.db_queries = parse(&take("--db-queries"), "--db-queries"),
            "--json" => json = true,
            "--out" => out_path = Some(take("--out")),
            "--commit" => commit = take("--commit"),
            other => {
                eprintln!(
                    "unknown option `{other}` (supported: --parallelism --shards --seed \
                     --perturb --db-queries --json --out --commit)"
                );
                std::process::exit(2);
            }
        }
    }

    if let Err(err) = config.validate() {
        eprintln!("invalid fleet configuration: {err}");
        std::process::exit(2);
    }

    let report = build_tail_report(config, &commit);
    let rendered = if json {
        render_json(&report)
    } else {
        render_text(&report)
    };
    match out_path {
        Some(path) => std::fs::write(&path, &rendered).expect("write tail report"),
        None => print!("{rendered}"),
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| panic!("{flag}: invalid value `{value}`"))
}
