//! The measuring half of the fleet-profiling benchmark (`run.py` is the
//! other half). Each invocation does one thing for one workload and seed and
//! prints one JSON line:
//!
//! ```sh
//! fleetbench e2e   --workload fleet-parallel --seed 7 [--parallelism 1]
//! fleetbench setup --workload fleet-parallel --seed 7 [--seconds 0.6]
//! fleetbench trace --workload fleet-parallel --seed 7 --spans-out trace.json
//! ```
//!
//! * `e2e` — one profiled fleet run with tracing off: the work of
//!   `fleet_profile --telemetry --folded --pprof` plus `tail_report --json`,
//!   with every artifact digested instead of written.
//! * `setup` — the workload's preload alone (every shard plan function
//!   called with zero traffic queries), repeated back to back for
//!   `--seconds` (at least once), one time per preload; the first is cold.
//! * `trace` — the same profiled run made one public layer call at a time,
//!   with a span around each call, followed by probes: the preload calls and
//!   the tax kernels on corpora drawn from the seed. Reports the per-layer
//!   metrics that one process can measure; `run.py` adds those that compare
//!   the traced run with the untraced one.

mod spans;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hsdp_bench::exhibits::fleet_stack_profile;
use hsdp_bench::tail::{render_json, tail_from_parts};
use hsdp_bench::telemetry_out::{critical_path_json, trace_groups};
use hsdp_core::category::Platform;
use hsdp_platforms::runner::{
    assemble_bigtable_shard, fold_fleet, merge_fleet_metrics, platform_key, platform_plan,
    run_bigquery_shard, run_bigtable_tablet, run_fleet_telemetry, run_spanner_shard, FleetConfig,
    ShardRun,
};
use hsdp_platforms::{costs, QueryExecution};
use hsdp_simcore::time::SimDuration;
use hsdp_taxes::compress::{compress, decompress};
use hsdp_taxes::crc::{crc32c, Crc32c};
use hsdp_taxes::sha3::Sha3_256;
use hsdp_telemetry::chrome_trace_json;
use hsdp_workload::proto_corpus;

use spans::Spans;

type Fleet = Vec<(Platform, Vec<QueryExecution>)>;

/// Largest share of a traced root span's wall time that may fall outside
/// its layer spans (the benchmark's own glue) before the run is refused.
const RECONCILE_BOUND: f64 = 0.01;

/// Least number of preloads one `setup` invocation times.
const SETUP_MIN_SAMPLES: usize = 1;

/// Repetitions per tax kernel, and the least time one repetition runs.
const KERNEL_REPS: usize = 5;
const KERNEL_REP_TIME: Duration = Duration::from_millis(30);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = run(&args) {
        eprintln!("fleetbench: {message}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (mode, rest) = args
        .split_first()
        .ok_or("usage: fleetbench e2e|setup|trace --workload NAME --seed N")?;
    let mut flags = BTreeMap::new();
    for pair in rest.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let name = *flags.get("--workload").ok_or("--workload is required")?;
    let seed: u64 = parse(flags.get("--seed").ok_or("--seed is required")?, "--seed")?;
    let mut config = workload::config(name, seed).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (known: {})",
            workload::NAMES.join(", ")
        )
    })?;
    match mode.as_str() {
        "e2e" => {
            if let Some(p) = flags.get("--parallelism") {
                config.parallelism = parse(p, "--parallelism")?;
            }
            e2e(&config);
        }
        "setup" => {
            let seconds: f64 = parse(flags.get("--seconds").unwrap_or(&"0"), "--seconds")?;
            let budget = Duration::try_from_secs_f64(seconds)
                .map_err(|_| format!("--seconds: invalid value `{seconds}`"))?;
            let samples = setup(&config, budget);
            let body: Vec<String> = samples.iter().map(f64::to_string).collect();
            println!("{{\"setup_s\": [{}]}}", body.join(", "));
        }
        "trace" => {
            let out = flags.get("--spans-out").ok_or("--spans-out is required")?;
            trace(name, &config, out)?;
        }
        other => return Err(format!("unknown mode `{other}` (e2e, setup, trace)")),
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value `{value}`"))
}

// ---------------------------------------------------------------------------
// The profiled run.
// ---------------------------------------------------------------------------

/// What one profiled run produced, reduced to digests, plus the canonical
/// record stream the simulated counts come from.
struct Outputs {
    fleet: Fleet,
    records: u32,
    digests: Vec<(&'static str, u32)>,
    trace_json_bytes: usize,
}

/// Everything a profiled run does after the fleet has run: metric merge,
/// the three telemetry artifacts, the tail report, the fold, and the stack
/// profile with its folded and pprof renders. Each artifact is digested as
/// soon as it exists and then dropped, as `fleet_profile` writes and drops
/// it.
fn analyse(config: &FleetConfig, runs: Vec<ShardRun>, spans: &mut Spans) -> Outputs {
    let mut digests = Vec::new();
    let mut digest = |spans: &mut Spans, name: &'static str, bytes: &[u8]| {
        let value = spans.span("check.digest", |_| crc32c(bytes));
        digests.push((name, value));
    };
    let metrics = spans.span("telemetry.merge", |_| merge_fleet_metrics(&runs));
    let json = spans.span("telemetry.metrics_json", |_| metrics.to_json());
    digest(spans, "metrics_json", json.as_bytes());
    let json = spans.span("telemetry.trace_json", |_| {
        chrome_trace_json(&trace_groups(&runs))
    });
    digest(spans, "trace_json", json.as_bytes());
    let trace_json_bytes = json.len();
    drop(json);
    let json = spans.span("telemetry.critical_path", |_| critical_path_json(&runs));
    digest(spans, "critical_path_json", json.as_bytes());
    let json = spans.span("tail.report", |_| {
        render_json(&tail_from_parts(config, &runs, &metrics, ""))
    });
    digest(spans, "tail_json", json.as_bytes());
    drop((json, metrics));
    let fleet = spans.span("runner.fold", |_| fold_fleet(runs));
    let stacks = spans.span("profiling.stack_profile", |_| {
        fleet_stack_profile(&fleet, config.seed)
    });
    let folded = spans.span("profiling.folded", |_| stacks.folded());
    digest(spans, "folded", folded.as_bytes());
    let pprof = spans.span("profiling.pprof", |_| {
        stacks.to_pprof(SimDuration::from_micros(2)).encode()
    });
    digest(spans, "pprof", &pprof);
    let records = spans.span("check.digest", |_| record_digest(&fleet));
    digests.insert(0, ("records", records));
    Outputs {
        fleet,
        records,
        digests,
        trace_json_bytes,
    }
}

/// The digest `fleet_profile` reports as `record_stream_crc32c`: every
/// label byte, span timing and CPU work item of the canonical record
/// stream, in stream order. The bytes are staged in a buffer and checksummed
/// a block at a time, which gives the same CRC as `fleet_profile`'s
/// field-at-a-time updates at a fraction of the cost.
fn record_digest(fleet: &Fleet) -> u32 {
    const BLOCK: usize = 64 * 1024;
    let mut digest = Crc32c::new();
    let mut buf: Vec<u8> = Vec::with_capacity(BLOCK + 256);
    for exec in fleet.iter().flat_map(|(_, execs)| execs) {
        buf.extend_from_slice(exec.label.as_bytes());
        for span in &exec.spans {
            buf.extend_from_slice(span.name.as_bytes());
            buf.extend_from_slice(&span.start.as_nanos().to_le_bytes());
            buf.extend_from_slice(&span.end.as_nanos().to_le_bytes());
            buf.push(span.kind.priority());
        }
        for item in &exec.cpu_work {
            buf.extend_from_slice(item.leaf.as_bytes());
            buf.extend_from_slice(&item.time.as_nanos().to_le_bytes());
        }
        if buf.len() >= BLOCK {
            digest.update(&buf);
            buf.clear();
        }
    }
    digest.update(&buf);
    digest.finalize()
}

/// Deterministic simulated counts per platform, with `cpu_ns` the metered
/// CPU the GWP profile samples from. They must repeat exactly: a change
/// that only speeds up the simulator leaves every one unchanged.
fn sim_counts(fleet: &Fleet, records: u32) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for &platform in &Platform::ALL {
        let execs = fleet
            .iter()
            .filter(|(p, _)| *p == platform)
            .flat_map(|(_, execs)| execs);
        let (mut queries, mut items, mut spans, mut cpu_ns) = (0u64, 0u64, 0u64, 0u64);
        for exec in execs {
            queries += 1;
            items += exec.cpu_work.len() as u64;
            spans += exec.spans.len() as u64;
            cpu_ns += exec
                .cpu_work
                .iter()
                .map(|item| item.time.as_nanos())
                .sum::<u64>();
        }
        let key = platform_key(platform);
        out.push((format!("sim.{key}.queries"), queries));
        out.push((format!("sim.{key}.cpu_work_items"), items));
        out.push((format!("sim.{key}.spans"), spans));
        out.push((format!("sim.{key}.cpu_ns"), cpu_ns));
    }
    out.push(("sim.record_stream_crc32c".to_owned(), u64::from(records)));
    out
}

fn total_queries(fleet: &Fleet) -> usize {
    fleet.iter().map(|(_, execs)| execs.len()).sum()
}

/// A flat JSON object of `"key": value` pairs.
fn json_object<K: std::fmt::Display, V: std::fmt::Display>(pairs: &[(K, V)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

fn e2e(config: &FleetConfig) {
    // audit: allow(determinism, a benchmark measures host time by design; no timing feeds a simulated artifact)
    let start = Instant::now();
    let runs = run_fleet_telemetry(*config);
    let fleet_s = start.elapsed().as_secs_f64();
    let out = analyse(config, runs, &mut Spans::new(false));
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "{{\"wall_s\": {wall_s}, \"fleet_s\": {fleet_s}, \"parallelism\": {}, \"queries\": {}, \"digests\": {}, \"sim\": {}}}",
        config.parallelism,
        total_queries(&out.fleet),
        json_object(&out.digests),
        json_object(&sim_counts(&out.fleet, out.records)),
    );
}

/// Preload alone: every shard plan function of the workload called with
/// zero traffic queries, one after another.
fn preload(config: &FleetConfig, spans: &mut Spans) {
    let tablets = config.tablets.max(1);
    for &platform in &Platform::ALL {
        for shard in platform_plan(config, platform).shards() {
            match platform {
                Platform::Spanner => {
                    black_box(spans.span("runner.spanner.preload", |_| {
                        run_spanner_shard(0, shard.seed, shard.index, true)
                    }));
                }
                Platform::BigTable => {
                    for tablet in 0..tablets {
                        black_box(spans.span("runner.bigtable.preload", |_| {
                            run_bigtable_tablet(
                                0,
                                shard.seed,
                                shard.index,
                                tablet,
                                tablets,
                                true,
                                None,
                            )
                        }));
                    }
                }
                Platform::BigQuery => {
                    black_box(spans.span("runner.bigquery.load", |_| {
                        run_bigquery_shard(0, config.fact_rows, shard.seed, shard.index, true)
                    }));
                }
            }
        }
    }
}

/// Times the preload back to back in this process until `budget` has
/// passed, at least `SETUP_MIN_SAMPLES` times; one sample per preload.
fn setup(config: &FleetConfig, budget: Duration) -> Vec<f64> {
    // audit: allow(determinism, a benchmark measures host time by design; no timing feeds a simulated artifact)
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_SAMPLES || start.elapsed() < budget {
        // audit: allow(determinism, a benchmark measures host time by design; no timing feeds a simulated artifact)
        let t = Instant::now();
        preload(config, &mut Spans::new(false));
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

/// Useful against attempted BigTable work: every tablet job replays its
/// shard's whole op stream but executes only the ops routed to it (each
/// preload put lands on one tablet; each scan touches every tablet).
#[derive(Default)]
struct Replay {
    executed: u64,
    replayed: u64,
}

/// The fleet run made one layer call at a time: each Spanner and BigQuery
/// shard, each BigTable tablet and its shard's assembly, in the canonical
/// `(platform, shard)` order `run_fleet_telemetry` returns.
fn traced_runs(config: &FleetConfig, spans: &mut Spans, replay: &mut Replay) -> Vec<ShardRun> {
    let tablets = config.tablets.max(1);
    let mut runs = Vec::new();
    for &platform in &Platform::ALL {
        for shard in platform_plan(config, platform).shards() {
            let (executions, telemetry) = match platform {
                Platform::Spanner => spans.span("runner.spanner.shard", |_| {
                    run_spanner_shard(shard.items, shard.seed, shard.index, true)
                }),
                Platform::BigTable => {
                    let parts: Vec<_> = (0..tablets)
                        .map(|tablet| {
                            spans.span("runner.bigtable.tablet", |_| {
                                run_bigtable_tablet(
                                    shard.items,
                                    shard.seed,
                                    shard.index,
                                    tablet,
                                    tablets,
                                    true,
                                    config.perturb,
                                )
                            })
                        })
                        .collect();
                    let preload = parts.first().map_or(0, |p| p.preload) as u64;
                    replay.executed += preload;
                    for part in &parts {
                        replay.executed += (part.executions.len() + part.scans.len()) as u64;
                        replay.replayed += preload + part.queries as u64;
                    }
                    spans.span("runner.bigtable.assemble", |_| {
                        assemble_bigtable_shard(parts)
                    })
                }
                Platform::BigQuery => spans.span("runner.bigquery.shard", |_| {
                    run_bigquery_shard(shard.items, config.fact_rows, shard.seed, shard.index, true)
                }),
            };
            runs.push(ShardRun {
                platform,
                shard: shard.index,
                executions,
                telemetry,
            });
        }
    }
    runs
}

/// Times one kernel: the median over repetitions of ns per byte processed.
fn time_kernel(
    spans: &mut Spans,
    name: &'static str,
    bytes: usize,
    mut call: impl FnMut() -> usize,
) -> f64 {
    spans.span(name, |_| {
        let mut samples: Vec<f64> = (0..KERNEL_REPS)
            .map(|_| {
                // audit: allow(determinism, a benchmark measures host time by design; no timing feeds a simulated artifact)
                let start = Instant::now();
                let mut calls = 0usize;
                while start.elapsed() < KERNEL_REP_TIME {
                    black_box(call());
                    calls += 1;
                }
                // audit: allow(cast, ns per byte is a measured ratio reported as a float, not a unit quantity)
                start.elapsed().as_nanos() as f64 / (calls * bytes) as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    })
}

/// The public tax kernels on corpora drawn from the seed, each next to its
/// modeled cost constant: `(kernel, measured ns/B, modeled ns/B)`.
fn kernels(name: &str, seed: u64, spans: &mut Spans) -> Vec<(&'static str, f64, f64)> {
    let (corpus, packed, messages) = spans.span("taxes.corpus", |_| {
        let corpus = workload::byte_corpus(name, seed);
        let packed = compress(&corpus);
        let roundtrip = decompress(&packed).expect("compressed corpus decodes");
        assert!(
            roundtrip == corpus,
            "decompress must return the compressed corpus"
        );
        let rng = &mut workload::proto_rng(seed);
        (
            corpus,
            packed,
            proto_corpus::corpus(workload::PROTO_MESSAGES, rng),
        )
    });
    let proto_bytes: usize = messages.iter().map(|m| m.encoded_len()).sum();
    let n = corpus.len();
    vec![
        (
            "compress",
            time_kernel(spans, "taxes.compress", n, || {
                compress(black_box(&corpus)).len()
            }),
            costs::COMPRESS_NS_PER_BYTE,
        ),
        (
            "decompress",
            time_kernel(spans, "taxes.decompress", n, || {
                decompress(black_box(&packed)).map_or(0, |v| v.len())
            }),
            costs::DECOMPRESS_NS_PER_BYTE,
        ),
        (
            "crc32c",
            time_kernel(spans, "taxes.crc32c", n, || {
                crc32c(black_box(&corpus)) as usize
            }),
            costs::CRC_NS_PER_BYTE,
        ),
        (
            "protowire_encode",
            time_kernel(spans, "taxes.protowire_encode", proto_bytes, || {
                black_box(&messages)
                    .iter()
                    .map(|m| m.encode_to_vec().len())
                    .sum()
            }),
            costs::PROTO_ENCODE_NS_PER_BYTE,
        ),
        (
            "sha3",
            time_kernel(spans, "taxes.sha3", n, || {
                usize::from(Sha3_256::digest(black_box(&corpus))[0])
            }),
            costs::SHA3_NS_PER_BYTE,
        ),
    ]
}

/// Share of a root span's duration not covered by its children.
fn unattributed_share(spans: &Spans, root: &str) -> f64 {
    let self_ns = spans.self_ns();
    let (mut own, mut total) = (0u64, 0u64);
    for (span, ns) in spans.spans().iter().zip(self_ns) {
        if span.parent.is_none() && span.name == root {
            own += ns;
            total += span.duration_ns();
        }
    }
    own as f64 / total as f64
}

fn trace(name: &str, config: &FleetConfig, spans_out: &str) -> Result<(), String> {
    let mut spans = Spans::new(true);
    let mut replay = Replay::default();
    let out = spans.span("pipeline", |s| {
        let runs = traced_runs(config, s, &mut replay);
        analyse(config, runs, s)
    });
    let sim = sim_counts(&out.fleet, out.records);
    // Sums the simulated counts whose names end in `suffix`.
    let count = |suffix: &str| {
        sim.iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    };
    let (sp_q, bt_q, bq_q) = (
        count("spanner.queries"),
        count("bigtable.queries"),
        count("bigquery.queries"),
    );
    let (requests, work_items) = (count(".queries"), count(".cpu_work_items"));
    let (digests, trace_json_bytes) = (out.digests, out.trace_json_bytes);
    drop(out.fleet);

    let taxes = spans.span("probes", |s| {
        preload(config, s);
        kernels(name, config.seed, s)
    });

    let per_query = |busy_s: f64, queries: f64| {
        if queries > 0.0 {
            busy_s * 1e9 / queries
        } else {
            0.0
        }
    };
    let job_times: Vec<f64> = [
        "runner.spanner.shard",
        "runner.bigtable.tablet",
        "runner.bigquery.shard",
    ]
    .iter()
    .flat_map(|n| spans.each_s(n).collect::<Vec<_>>())
    .collect();
    let job_sum_s: f64 = job_times.iter().sum();
    let max_job_s = job_times.iter().copied().fold(0.0, f64::max);
    let t = |n: &str| spans.total_s(n);

    let mut metrics: Vec<(String, f64, &str)> = vec![
        (
            "runner.spanner.shard_s".into(),
            t("runner.spanner.shard"),
            "s",
        ),
        (
            "runner.spanner.preload_s".into(),
            t("runner.spanner.preload"),
            "s",
        ),
        (
            "runner.spanner.host_ns_per_query".into(),
            per_query(
                t("runner.spanner.shard") - t("runner.spanner.preload"),
                sp_q,
            ),
            "ns",
        ),
        (
            "runner.bigtable.tablet_s".into(),
            t("runner.bigtable.tablet"),
            "s",
        ),
        (
            "runner.bigtable.preload_s".into(),
            t("runner.bigtable.preload"),
            "s",
        ),
        (
            "runner.bigtable.assemble_s".into(),
            t("runner.bigtable.assemble"),
            "s",
        ),
        (
            "runner.bigtable.host_ns_per_query".into(),
            per_query(
                t("runner.bigtable.tablet") + t("runner.bigtable.assemble")
                    - t("runner.bigtable.preload"),
                bt_q,
            ),
            "ns",
        ),
        (
            "runner.bigtable.executed_per_replayed".into(),
            if replay.replayed > 0 {
                replay.executed as f64 / replay.replayed as f64
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "runner.bigquery.shard_s".into(),
            t("runner.bigquery.shard"),
            "s",
        ),
        (
            "runner.bigquery.load_s".into(),
            t("runner.bigquery.load"),
            "s",
        ),
        (
            "runner.bigquery.host_ns_per_query".into(),
            per_query(t("runner.bigquery.shard") - t("runner.bigquery.load"), bq_q),
            "ns",
        ),
        ("runner.fold_s".into(), t("runner.fold"), "s"),
        ("pool.job_sum_s".into(), job_sum_s, "s"),
        ("pool.max_job_s".into(), max_job_s, "s"),
        (
            "profiling.stack_profile_s".into(),
            t("profiling.stack_profile"),
            "s",
        ),
        ("profiling.work_items".into(), work_items, "count"),
        (
            "profiling.ns_per_work_item".into(),
            per_query(t("profiling.stack_profile"), work_items),
            "ns",
        ),
        ("profiling.folded_s".into(), t("profiling.folded"), "s"),
        ("profiling.pprof_s".into(), t("profiling.pprof"), "s"),
        ("telemetry.merge_s".into(), t("telemetry.merge"), "s"),
        (
            "telemetry.metrics_json_s".into(),
            t("telemetry.metrics_json"),
            "s",
        ),
        (
            "telemetry.trace_json_s".into(),
            t("telemetry.trace_json"),
            "s",
        ),
        (
            "telemetry.trace_json_bytes".into(),
            // audit: allow(cast, reported as a float metric value; exact below 2^53 bytes)
            trace_json_bytes as f64,
            "B",
        ),
        (
            "telemetry.critical_path_s".into(),
            t("telemetry.critical_path"),
            "s",
        ),
        ("tail.report_s".into(), t("tail.report"), "s"),
        (
            "tail.ns_per_request".into(),
            per_query(t("tail.report"), requests),
            "ns",
        ),
    ];
    for (kernel, measured, modeled) in taxes {
        metrics.push((format!("taxes.{kernel}.ns_per_byte"), measured, "ns/B"));
        metrics.push((
            format!("taxes.{kernel}.measured_over_modeled"),
            measured / modeled,
            "ratio",
        ));
    }
    for (key, value) in &sim {
        let unit = match key.as_str() {
            "sim.record_stream_crc32c" => "digest",
            k if k.ends_with("cpu_ns") => "ns",
            _ => "count",
        };
        metrics.push((key.clone(), *value as f64, unit));
    }
    let unattributed = unattributed_share(&spans, "pipeline");
    metrics.push(("trace.wall_s".into(), t("pipeline"), "s"));
    metrics.push(("trace.unattributed_share".into(), unattributed, "ratio"));

    let reconciled =
        unattributed <= RECONCILE_BOUND && unattributed_share(&spans, "probes") <= RECONCILE_BOUND;
    std::fs::write(spans_out, spans.chrome_json())
        .map_err(|e| format!("write {spans_out}: {e}"))?;

    let metric_body: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| format!("\"{k}\": [{v}, \"{unit}\"]"))
        .collect();
    let self_s: Vec<_> = spans.self_s_by_name().into_iter().collect();
    println!(
        "{{\"digests\": {}, \"sim\": {}, \"reconciled\": {reconciled}, \
         \"reconcile_bound\": {RECONCILE_BOUND}, \"metrics\": {{{}}}, \"self_s\": {}}}",
        json_object(&digests),
        json_object(&sim),
        metric_body.join(", "),
        json_object(&self_s),
    );
    Ok(())
}
