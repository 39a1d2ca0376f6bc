//! Continuous profiling over the repo's own history: append, check, and
//! report on the per-commit profile snapshot store.
//!
//! ```sh
//! # Take this commit's snapshot (runs the instrumented fleet) and append it.
//! cargo run --release -p hsdp-bench --bin profile_history -- \
//!     append --store profile_history.bin --commit $(git rev-parse HEAD) --seq 42
//!
//! # Top regressed stacks/categories since a commit.
//! cargo run --release -p hsdp-bench --bin profile_history -- \
//!     report --store profile_history.bin --since <commit> [--json]
//!
//! # Gate: nonzero exit on sustained share drift (K consecutive flagged
//! # snapshots past the robust z-threshold — a single blip passes).
//! cargo run --release -p hsdp-bench --bin profile_history -- \
//!     check --store profile_history.bin
//! ```
//!
//! The store is an append-only file of CRC32C-checked, length-prefixed
//! protowire frames (`hsdp_taxes::framed`); `append` transparently recovers
//! from a torn tail by truncating to the last intact frame. `seed-fixture`
//! writes a deterministic synthetic multi-commit history (optionally with
//! an injected sustained regression or a single-snapshot blip) so CI can
//! exercise the gate without profiling dozens of real commits.
//!
//! Exit codes: 0 healthy, 1 sustained drift (or damaged store on `check`),
//! 2 usage error.

use std::collections::BTreeMap;

use hsdp_bench::snapshot::{build_fleet_snapshot, parse_bench_entries};
use hsdp_platforms::runner::{default_parallelism, FleetConfig};
use hsdp_profiling::history::{
    detect_anomalies, regressions_since, AnomalyConfig, HistoryStore, ProfileSnapshot, SnapshotMeta,
};
use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::dispatch::CpuFeatures;

fn usage() -> ! {
    eprintln!(
        "usage: profile_history <append|check|report|seed-fixture> --store PATH [options]\n\
         \n\
         append      --commit SHA --seq N [--parallelism N] [--db-queries N]\n\
        \u{20}            [--analytics-queries N] [--fact-rows N] [--shards N]\n\
        \u{20}            [--seed N] [--bench BENCH_fleet.json]\n\
         check       [--window N] [--z F] [--min-delta F] [--sustained K]\n\
         report      [--since COMMIT] [--top N] [--json]\n\
         seed-fixture [--snapshots N] [--inject sustained|blip|none] [--seed N]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: invalid value `{value}`");
        std::process::exit(2);
    })
}

struct Options {
    store: Option<String>,
    commit: Option<String>,
    seq: u64,
    fleet: FleetConfig,
    bench_path: Option<String>,
    window: usize,
    z: f64,
    min_delta: f64,
    sustained: usize,
    since: Option<String>,
    top: usize,
    json: bool,
    snapshots: usize,
    inject: String,
    fixture_seed: u64,
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        store: None,
        commit: None,
        seq: 0,
        fleet: FleetConfig {
            db_queries: 40,
            analytics_queries: 6,
            fact_rows: 600,
            seed: 0xFACE,
            shards: 2,
            ..FleetConfig::default()
        },
        bench_path: None,
        window: 5,
        z: 3.5,
        min_delta: 0.01,
        sustained: 3,
        since: None,
        top: 10,
        json: false,
        snapshots: 20,
        inject: "none".to_owned(),
        fixture_seed: 0x415707,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> &String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--store" => o.store = Some(take("--store").clone()),
            "--commit" => o.commit = Some(take("--commit").clone()),
            "--seq" => o.seq = parse(take("--seq"), "--seq"),
            "--parallelism" => o.fleet.parallelism = parse(take("--parallelism"), "--parallelism"),
            "--db-queries" => o.fleet.db_queries = parse(take("--db-queries"), "--db-queries"),
            "--analytics-queries" => {
                o.fleet.analytics_queries =
                    parse(take("--analytics-queries"), "--analytics-queries");
            }
            "--fact-rows" => o.fleet.fact_rows = parse(take("--fact-rows"), "--fact-rows"),
            "--shards" => o.fleet.shards = parse(take("--shards"), "--shards"),
            "--seed" => {
                let v = parse(take("--seed"), "--seed");
                o.fleet.seed = v;
                o.fixture_seed = v;
            }
            "--bench" => o.bench_path = Some(take("--bench").clone()),
            "--window" => o.window = parse(take("--window"), "--window"),
            "--z" => o.z = parse(take("--z"), "--z"),
            "--min-delta" => o.min_delta = parse(take("--min-delta"), "--min-delta"),
            "--sustained" => o.sustained = parse(take("--sustained"), "--sustained"),
            "--since" => o.since = Some(take("--since").clone()),
            "--top" => o.top = parse(take("--top"), "--top"),
            "--json" => o.json = true,
            "--snapshots" => o.snapshots = parse(take("--snapshots"), "--snapshots"),
            "--inject" => o.inject = take("--inject").clone(),
            other => {
                eprintln!("unknown option `{other}`");
                usage();
            }
        }
    }
    if let Err(err) = o.fleet.validate() {
        eprintln!("invalid fleet configuration: {err}");
        std::process::exit(2);
    }
    o
}

fn store_of(o: &Options) -> HistoryStore {
    match &o.store {
        Some(path) => HistoryStore::open(path),
        None => {
            eprintln!("--store PATH is required");
            std::process::exit(2);
        }
    }
}

fn anomaly_config(o: &Options) -> AnomalyConfig {
    AnomalyConfig {
        window: o.window,
        z_threshold: o.z,
        min_abs_delta: o.min_delta,
        sustained: o.sustained,
    }
}

fn cmd_append(o: &Options) {
    let store = store_of(o);
    let commit = o.commit.clone().unwrap_or_else(|| {
        eprintln!("append: --commit SHA is required");
        std::process::exit(2);
    });
    let bench = match &o.bench_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("append: cannot read --bench {path}: {e}");
                std::process::exit(2);
            });
            parse_bench_entries(&text)
        }
        None => BTreeMap::new(),
    };
    let meta = SnapshotMeta {
        commit,
        sequence: o.seq,
        // audit: allow(cast, hardware thread count fits u64)
        host_parallelism: default_parallelism() as u64,
        cpu_features: CpuFeatures::get().summary(),
    };
    let snapshot = build_fleet_snapshot(o.fleet, meta, &bench);
    let outcome = store.append(&snapshot).unwrap_or_else(|e| {
        eprintln!("append failed: {e}");
        std::process::exit(1);
    });
    println!(
        "appended {} (seq {}) to {}: {} snapshot(s){}",
        snapshot.meta.commit,
        snapshot.meta.sequence,
        store.path().display(),
        outcome.snapshots,
        if outcome.recovered {
            " [recovered torn tail]"
        } else {
            ""
        },
    );
}

fn cmd_check(o: &Options) {
    let store = store_of(o);
    let snapshots = store.load().unwrap_or_else(|e| {
        eprintln!("check: store is damaged or unreadable: {e}");
        std::process::exit(1);
    });
    let config = anomaly_config(o);
    let drifts = detect_anomalies(&snapshots, &config);
    println!(
        "profile_history check: {} snapshot(s), window {}, z {}, sustained {}",
        snapshots.len(),
        config.window,
        config.z_threshold,
        config.sustained,
    );
    if drifts.is_empty() {
        println!("no sustained drift");
        return;
    }
    for d in &drifts {
        let commit = snapshots
            .get(d.start)
            .map_or("?", |s| s.meta.commit.as_str());
        println!(
            "SUSTAINED DRIFT {} {:+.4} over {} consecutive snapshot(s) starting at {} \
             (index {})",
            d.key, d.last_delta, d.run, commit, d.start,
        );
    }
    std::process::exit(1);
}

fn cmd_report(o: &Options) {
    let store = store_of(o);
    let snapshots = store.load().unwrap_or_else(|e| {
        eprintln!("report: store is damaged or unreadable: {e}");
        std::process::exit(1);
    });
    let Some(report) = regressions_since(&snapshots, o.since.as_deref()) else {
        eprintln!(
            "report: {}",
            match &o.since {
                Some(commit) => format!("commit `{commit}` not found in the history"),
                None => "history is empty".to_owned(),
            }
        );
        std::process::exit(1);
    };
    if o.json {
        print!("{}", report.to_json(o.top));
    } else {
        print!("{}", report.render_text(o.top));
    }
}

/// Writes a deterministic synthetic history: a protobuf-tax share hovering
/// around 25% of 1s of fleet CPU with small seeded jitter, plus an optional
/// injected +5% regression — sustained over the last 6 snapshots, or a
/// single-snapshot blip.
fn cmd_seed_fixture(o: &Options) {
    let store = store_of(o);
    if store.path().exists() {
        std::fs::remove_file(store.path()).unwrap_or_else(|e| {
            eprintln!(
                "seed-fixture: cannot replace {}: {e}",
                store.path().display()
            );
            std::process::exit(2);
        });
    }
    let n = o.snapshots.max(8);
    let mut rng = StdRng::seed_from_u64(o.fixture_seed);
    const TOTAL_NS: u64 = 1_000_000_000;
    const SHIFT_NS: u64 = 50_000_000; // +5% share
    let shifted: Box<dyn Fn(usize) -> bool> = match o.inject.as_str() {
        "sustained" => Box::new(move |i| i + 6 >= n),
        "blip" => Box::new(move |i| i + 6 == n),
        "none" => Box::new(|_| false),
        other => {
            eprintln!("--inject must be sustained|blip|none, got `{other}`");
            std::process::exit(2);
        }
    };
    for i in 0..n {
        let jitter = rng.random_range(0u64..4_000_000); // up to 0.4% share
        let mut proto_ns = TOTAL_NS / 4 + jitter;
        if shifted(i) {
            proto_ns += SHIFT_NS;
        }
        let other_ns = TOTAL_NS - proto_ns;
        let mut snapshot = ProfileSnapshot {
            meta: SnapshotMeta {
                commit: format!("fixture{i:04}"),
                // audit: allow(cast, fixture index fits u64)
                sequence: i as u64,
                host_parallelism: 1,
                cpu_features: "fixture".to_owned(),
            },
            total_exact_ns: TOTAL_NS,
            total_samples: 500_000,
            ..ProfileSnapshot::default()
        };
        snapshot
            .categories
            .insert("dc.protobuf".to_owned(), proto_ns);
        snapshot.categories.insert("core.read".to_owned(), other_ns);
        snapshot
            .stacks
            .insert("spanner.commit;rpc;proto_encode".to_owned(), proto_ns);
        snapshot
            .stacks
            .insert("spanner.commit;storage;read".to_owned(), other_ns);
        store.append(&snapshot).unwrap_or_else(|e| {
            eprintln!("seed-fixture: append failed: {e}");
            std::process::exit(1);
        });
    }
    println!(
        "seeded {} with {n} snapshot(s), inject={}",
        store.path().display(),
        o.inject,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage();
    };
    let options = parse_options(rest);
    match command.as_str() {
        "append" => cmd_append(&options),
        "check" => cmd_check(&options),
        "report" => cmd_report(&options),
        "seed-fixture" => cmd_seed_fixture(&options),
        _ => usage(),
    }
}
