//! Records the perf trajectory of the hot kernels and the parallel fleet
//! driver into `BENCH_fleet.json`:
//!
//! ```sh
//! cargo run --release -p hsdp-bench --bin fleet_bench \
//!     [-- --out BENCH_fleet.json --git-commit SHA --seq N]
//! ```
//!
//! `--git-commit` / `--seq` stamp provenance onto every entry so bench
//! history joins the per-commit profile history (`profile_history`) on the
//! same keys; the sequence number is the CI run number, passed in rather
//! than derived from wall clock.
//!
//! Entries: CRC32C byte-table baseline vs slicing-by-8 vs the dispatched
//! hardware path, protowire encode/varint kernels, fast-vs-reference pairs
//! for the compress/decompress/bloom/merge/Keccak kernels, and the
//! sequential-vs-parallel fleet wall-clock comparison (same seed — the
//! outputs are byte-identical by construction, only the wall-clock differs).

use hsdp_bench::harness::{time_ns, BenchRecord, BenchReport};
use hsdp_bench::tail::{build_tail_report, render_json};
use hsdp_core::category::Platform;
use hsdp_platforms::bloom::{Bloom, ReferenceBloom};
use hsdp_platforms::merge::{merge_runs_reference, merge_sorted_runs, Entry};
use hsdp_platforms::runner::{
    default_parallelism, platform_key, platform_plan, run_bigquery, run_bigtable_tablet, run_fleet,
    run_fleet_telemetry, run_spanner, FleetConfig,
};
use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::compress::{compress, compress_reference, decompress, decompress_reference};
use hsdp_taxes::crc::{crc32c_append, crc32c_append_bytewise, crc32c_append_slicing8};
use hsdp_taxes::dispatch::CpuFeatures;
use hsdp_taxes::sha3::{keccak_f1600, keccak_f1600_reference};
use hsdp_taxes::varint::encode_varint;
use hsdp_workload::proto_corpus;

const CRC_BUF_LEN: usize = 64 * 1024;
const SEED: u64 = 0x15CA23;

/// Min of `n` timing passes — the least-noise estimator on a shared box.
fn best_of(n: usize, mut pass: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut out_path = String::from("BENCH_fleet.json");
    let mut git_commit = String::new();
    let mut sequence = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--git-commit" => {
                git_commit = args.next().expect("--git-commit requires a commit id");
            }
            "--seq" => {
                sequence = args
                    .next()
                    .expect("--seq requires a number")
                    .parse()
                    .expect("--seq must be a non-negative integer");
            }
            other => {
                eprintln!(
                    "unknown option `{other}` (supported: --out PATH, \
                     --git-commit SHA, --seq N)"
                );
                std::process::exit(2);
            }
        }
    }

    let mut report = BenchReport::new();
    report.set_provenance(&git_commit, sequence);
    let features = CpuFeatures::get();
    println!(
        "host: {} hardware thread(s), cpu features: {}",
        default_parallelism(),
        report.cpu_features(),
    );

    // --- CRC32C: byte-table baseline vs slicing-by-8 vs hardware CRC32. ----
    // `crc32c_append` dispatches to the SSE4.2/ARMv8 instruction when the
    // host has it, so the slicing-by-8 entry calls that tier explicitly.
    let buf: Vec<u8> = (0..CRC_BUF_LEN).map(|i| (i * 131 % 251) as u8).collect();
    let bytewise_ns = best_of(5, || time_ns(200, || crc32c_append_bytewise(0, &buf)));
    let sliced_ns = best_of(5, || time_ns(200, || crc32c_append_slicing8(0, &buf)));
    let hw_ns = best_of(5, || time_ns(200, || crc32c_append(0, &buf)));
    assert_eq!(
        crc32c_append(0, &buf),
        crc32c_append_bytewise(0, &buf),
        "fast path must agree with the oracle"
    );
    report.push(BenchRecord {
        id: format!("crc32c/bytewise/{}KiB", CRC_BUF_LEN / 1024),
        ns_per_iter: bytewise_ns,
        bytes_per_iter: Some(CRC_BUF_LEN as u64),
        parallelism: 1,
        seed: 0,
    });
    report.push(BenchRecord {
        id: format!("crc32c/slicing8/{}KiB", CRC_BUF_LEN / 1024),
        ns_per_iter: sliced_ns,
        bytes_per_iter: Some(CRC_BUF_LEN as u64),
        parallelism: 1,
        seed: 0,
    });
    report.push(BenchRecord {
        id: format!("crc32c/hw/{}KiB", CRC_BUF_LEN / 1024),
        ns_per_iter: hw_ns,
        bytes_per_iter: Some(CRC_BUF_LEN as u64),
        parallelism: 1,
        seed: 0,
    });
    println!(
        "crc32c: bytewise {bytewise_ns:.0} ns/iter, slicing8 {sliced_ns:.0} ns/iter \
         ({:.2}x), hw {hw_ns:.0} ns/iter ({:.2}x over slicing8)",
        bytewise_ns / sliced_ns,
        sliced_ns / hw_ns,
    );
    if features.sse42 || features.aarch64_crc {
        assert!(
            sliced_ns / hw_ns >= 2.0,
            "hardware CRC32C must be >= 2x over slicing-by-8 on the 64 KiB buffer \
             (got {:.2}x)",
            sliced_ns / hw_ns,
        );
    } else {
        eprintln!(
            "crc32c hw gate: SKIPPED (no CRC32 instruction dispatched; features: {})",
            features.summary(),
        );
    }

    // --- Protowire: fleet-representative message encoding. ----------------
    let mut rng = StdRng::seed_from_u64(SEED);
    let corpus = proto_corpus::corpus(64, &mut rng);
    let encoded_bytes: usize = corpus.iter().map(|m| m.encoded_len()).sum();
    let encode_ns = best_of(5, || {
        time_ns(200, || {
            corpus
                .iter()
                .map(|m| m.encode_to_vec().len())
                .sum::<usize>()
        })
    });
    report.push(BenchRecord {
        id: format!("protowire/encode/corpus{}", corpus.len()),
        ns_per_iter: encode_ns,
        // audit: allow(cast, lossless usize->u64 byte count for the report)
        bytes_per_iter: Some(encoded_bytes as u64),
        parallelism: 1,
        seed: SEED,
    });
    println!(
        "protowire: encode {encode_ns:.0} ns/iter over {encoded_bytes} bytes ({} msgs)",
        corpus.len()
    );

    // --- Varint: the 1-2 byte fast-path regime. ----------------------------
    let values: Vec<u64> = (0..1024u64).map(|i| (i * 37) % 20_000).collect();
    let varint_ns = best_of(5, || {
        time_ns(1_000, || {
            let mut sink = Vec::with_capacity(4 * values.len());
            let mut total = 0usize;
            for &v in &values {
                total += encode_varint(v, &mut sink);
            }
            total
        })
    });
    report.push(BenchRecord {
        id: "varint/encode/1024-small".to_owned(),
        ns_per_iter: varint_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: 0,
    });

    // --- Compression: byte-at-a-time reference vs word-at-a-time codec. ---
    // A 64 KiB log-like corpus of hot-key row traffic: a few thousand
    // distinct timestamps and a couple hundred users, so lines repeat with
    // small variations — the compressibility regime SSTable blocks live in.
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut corpus = Vec::with_capacity(CRC_BUF_LEN + 128);
    while corpus.len() < CRC_BUF_LEN {
        let ts = rng.random_range(0u32..2_000);
        let shard = rng.random_range(0u32..64);
        let user = rng.random_range(0u64..200);
        corpus.extend_from_slice(
            format!("ts=1681{ts:06} shard={shard:02} user={user:06} op=read status=OK\n")
                .as_bytes(),
        );
    }
    corpus.truncate(CRC_BUF_LEN);
    // The encoders may pick different matches; all streams must decode to
    // the corpus under *both* decoders (one shared format).
    let packed = compress(&corpus);
    let packed_ref = compress_reference(&corpus);
    assert_eq!(decompress(&packed).expect("fast/fast"), corpus);
    assert_eq!(decompress_reference(&packed).expect("fast/ref"), corpus);
    assert_eq!(decompress(&packed_ref).expect("ref/fast"), corpus);
    let ref_compress_ns = best_of(5, || time_ns(50, || compress_reference(&corpus).len()));
    let fast_compress_ns = best_of(5, || time_ns(50, || compress(&corpus).len()));
    let ref_decompress_ns = best_of(5, || {
        time_ns(50, || decompress_reference(&packed).map(|v| v.len()))
    });
    let fast_decompress_ns = best_of(5, || time_ns(50, || decompress(&packed).map(|v| v.len())));
    for (id, ns) in [
        ("compress/reference/64KiB", ref_compress_ns),
        ("compress/word-at-a-time/64KiB", fast_compress_ns),
        ("decompress/reference/64KiB", ref_decompress_ns),
        ("decompress/chunked-copy/64KiB", fast_decompress_ns),
    ] {
        report.push(BenchRecord {
            id: id.to_owned(),
            ns_per_iter: ns,
            bytes_per_iter: Some(CRC_BUF_LEN as u64),
            parallelism: 1,
            seed: SEED,
        });
    }
    println!(
        "compress: reference {ref_compress_ns:.0} ns/iter, word-at-a-time \
         {fast_compress_ns:.0} ns/iter ({:.2}x); decompress: reference \
         {ref_decompress_ns:.0} ns/iter, chunked-copy {fast_decompress_ns:.0} ns/iter ({:.2}x)",
        ref_compress_ns / fast_compress_ns,
        ref_decompress_ns / fast_decompress_ns,
    );
    assert!(
        ref_compress_ns / fast_compress_ns >= 2.0,
        "compress must be >= 2x over the reference on the 64 KiB corpus"
    );

    // --- Bloom: modulo-probed reference vs cache-line-blocked filter. ------
    let keys: Vec<Vec<u8>> = (0..10_000u64)
        .map(|i| format!("row-key-{i:08}").into_bytes())
        .collect();
    let mut blocked = Bloom::new(keys.len());
    let mut reference = ReferenceBloom::new(keys.len());
    for key in &keys {
        blocked.insert(key);
        reference.insert(key);
    }
    let ref_bloom_ns = best_of(5, || {
        time_ns(50, || {
            keys.iter().filter(|k| reference.may_contain(k)).count()
        })
    });
    let blocked_bloom_ns = best_of(5, || {
        time_ns(50, || {
            keys.iter().filter(|k| blocked.may_contain(k)).count()
        })
    });
    assert_eq!(
        keys.iter().filter(|k| blocked.may_contain(k)).count(),
        keys.len(),
        "blocked filter must report every inserted key"
    );
    report.push(BenchRecord {
        id: "bloom/reference-probe/10k-keys".to_owned(),
        ns_per_iter: ref_bloom_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: 0,
    });
    report.push(BenchRecord {
        id: "bloom/blocked-probe/10k-keys".to_owned(),
        ns_per_iter: blocked_bloom_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: 0,
    });
    println!(
        "bloom: reference {ref_bloom_ns:.0} ns/iter, blocked {blocked_bloom_ns:.0} ns/iter \
         ({:.2}x) over {} probes",
        ref_bloom_ns / blocked_bloom_ns,
        keys.len()
    );
    assert!(
        ref_bloom_ns / blocked_bloom_ns >= 2.0,
        "blocked bloom probes must be >= 2x over the reference"
    );

    // --- Compaction merge: BTreeMap reference vs loser tree. ---------------
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xFEED);
    let runs: Vec<Vec<Entry>> = (0..8usize)
        .map(|r| {
            let mut run: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
            for _ in 0..2_000 {
                let key_id = rng.random_range(0u32..6_000);
                run.insert(
                    format!("row-{key_id:06}").into_bytes(),
                    format!("run-{r}-payload-{key_id}").into_bytes(),
                );
            }
            run.into_iter().collect()
        })
        .collect();
    assert_eq!(
        merge_sorted_runs(runs.clone()),
        merge_runs_reference(runs.clone()),
        "loser tree must match the BTreeMap merge"
    );
    let merged_len = merge_sorted_runs(runs.clone()).len();
    let ref_merge_ns = best_of(5, || {
        time_ns(20, || merge_runs_reference(runs.clone()).len())
    });
    let tree_merge_ns = best_of(5, || time_ns(20, || merge_sorted_runs(runs.clone()).len()));
    report.push(BenchRecord {
        id: "compaction/merge-btreemap/8x2000".to_owned(),
        ns_per_iter: ref_merge_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: SEED ^ 0xFEED,
    });
    report.push(BenchRecord {
        id: "compaction/merge-loser-tree/8x2000".to_owned(),
        ns_per_iter: tree_merge_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: SEED ^ 0xFEED,
    });
    println!(
        "compaction merge: btreemap {:.1} us/iter, loser tree {:.1} us/iter \
         ({:.2}x) -> {merged_len} entries",
        ref_merge_ns / 1e3,
        tree_merge_ns / 1e3,
        ref_merge_ns / tree_merge_ns,
    );

    // --- SHA3: 5x5-array reference vs flat unrolled Keccak-f[1600]. --------
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5A3);
    let mut state = [0u64; 25];
    for lane in &mut state {
        *lane = rng.random();
    }
    let mut check_fast = state;
    let mut check_ref = state;
    keccak_f1600(&mut check_fast);
    keccak_f1600_reference(&mut check_ref);
    assert_eq!(
        check_fast, check_ref,
        "flat permutation must match the oracle"
    );
    let ref_keccak_ns = best_of(5, || {
        time_ns(2_000, || {
            let mut s = state;
            keccak_f1600_reference(&mut s);
            s[0]
        })
    });
    let flat_keccak_ns = best_of(5, || {
        time_ns(2_000, || {
            let mut s = state;
            keccak_f1600(&mut s);
            s[0]
        })
    });
    report.push(BenchRecord {
        id: "sha3/keccak-f1600-reference".to_owned(),
        ns_per_iter: ref_keccak_ns,
        bytes_per_iter: Some(200),
        parallelism: 1,
        seed: SEED ^ 0x5A3,
    });
    report.push(BenchRecord {
        id: "sha3/keccak-f1600-flat".to_owned(),
        ns_per_iter: flat_keccak_ns,
        bytes_per_iter: Some(200),
        parallelism: 1,
        seed: SEED ^ 0x5A3,
    });
    println!(
        "sha3: keccak-f1600 reference {ref_keccak_ns:.0} ns/perm, flat \
         {flat_keccak_ns:.0} ns/perm ({:.2}x)",
        ref_keccak_ns / flat_keccak_ns
    );

    // --- Fleet: sequential vs parallel wall clock, identical output. ------
    let fleet_config = FleetConfig {
        seed: SEED,
        ..FleetConfig::default()
    };
    let parallel_threads = default_parallelism().max(4);
    let sequential_ns = time_ns(1, || {
        run_fleet(FleetConfig {
            parallelism: 1,
            ..fleet_config
        })
    });
    let parallel_ns = time_ns(1, || {
        run_fleet(FleetConfig {
            parallelism: parallel_threads,
            ..fleet_config
        })
    });
    report.push(BenchRecord {
        id: "fleet/wall_clock/sequential".to_owned(),
        ns_per_iter: sequential_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: SEED,
    });
    report.push(BenchRecord {
        id: "fleet/wall_clock/parallel".to_owned(),
        ns_per_iter: parallel_ns,
        bytes_per_iter: None,
        parallelism: parallel_threads,
        seed: SEED,
    });
    println!(
        "fleet: sequential {:.1} ms, parallel(x{parallel_threads}) {:.1} ms \
         ({:.2}x speedup on {} hardware thread(s))",
        sequential_ns / 1e6,
        parallel_ns / 1e6,
        sequential_ns / parallel_ns,
        default_parallelism(),
    );

    // --- Fleet: parallelism matched to the hardware. -----------------------
    // The forced-x4 entry above is kept comparable across machines; this one
    // runs at the host's actual thread count, so the two together expose
    // oversubscription (on a 1-thread host, x4 pays pure scheduling overhead
    // over this entry).
    let hw_threads = default_parallelism();
    let parallel_hw_ns = time_ns(1, || {
        run_fleet(FleetConfig {
            parallelism: hw_threads,
            ..fleet_config
        })
    });
    report.push(BenchRecord {
        id: "fleet/wall_clock/parallel_hw".to_owned(),
        ns_per_iter: parallel_hw_ns,
        bytes_per_iter: None,
        parallelism: hw_threads,
        seed: SEED,
    });
    println!(
        "fleet: parallel(hw x{hw_threads}) {:.1} ms ({:.2}x vs sequential)",
        parallel_hw_ns / 1e6,
        sequential_ns / parallel_hw_ns,
    );

    // Parallel-speedup gate, laddered to the host. A 1-thread runner cannot
    // overlap shard jobs at all, so the gate skips with a note — the
    // `host_parallelism` field stamped on every BENCH_fleet.json entry
    // records that this run could not measure speedup. Small 2-3 thread
    // runners must show modest overlap; 4+ threads must reach the 2x target
    // now that the BigTable straggler is split into per-tablet jobs.
    let hw_speedup = sequential_ns / parallel_hw_ns;
    if hw_threads == 1 {
        println!(
            "fleet speedup gate: SKIPPED (1 hardware thread; shard jobs \
             cannot overlap, see host_parallelism in the report)"
        );
    } else {
        let floor = if hw_threads >= 4 { 2.0 } else { 1.2 };
        assert!(
            hw_speedup >= floor,
            "parallel fleet speedup {hw_speedup:.2}x is below the {floor:.1}x \
             floor on {hw_threads} hardware threads"
        );
        println!(
            "fleet speedup gate: {hw_speedup:.2}x >= {floor:.1}x on \
             {hw_threads} hardware threads"
        );
    }

    // --- Fleet: per-unit shard wall-clocks (straggler gate). ---------------
    // Times every *schedulable unit* of the fleet in isolation — Spanner and
    // BigQuery shards run whole, BigTable shards run as one job per tablet,
    // exactly the granularity the dispatcher queues. The heaviest unit over
    // the summed unit time bounds parallel speedup (N workers can never beat
    // 1/max_fraction), so the bench fails when any single unit exceeds 40%
    // of the total: that is the straggler regression this PR removes.
    const STRAGGLER_CEILING: f64 = 0.40;
    let mut units: Vec<(String, f64)> = Vec::new();
    for &platform in &Platform::ALL {
        let plan = platform_plan(&fleet_config, platform);
        let mut total_ns = 0.0f64;
        for (shard_idx, shard) in plan.shards().iter().enumerate() {
            match platform {
                Platform::Spanner => {
                    let unit_ns = time_ns(1, || run_spanner(shard.items, shard.seed).len());
                    total_ns += unit_ns;
                    units.push((format!("spanner/s{shard_idx}"), unit_ns));
                }
                Platform::BigTable => {
                    let tablets = fleet_config.tablets.max(1);
                    for tablet in 0..tablets {
                        let unit_ns = time_ns(1, || {
                            run_bigtable_tablet(
                                shard.items,
                                shard.seed,
                                shard_idx,
                                tablet,
                                tablets,
                                false,
                                None,
                            )
                        });
                        total_ns += unit_ns;
                        report.push(BenchRecord {
                            id: format!(
                                "fleet/shard_wall_clock/bigtable_tablet/s{shard_idx}_t{tablet}"
                            ),
                            ns_per_iter: unit_ns,
                            bytes_per_iter: None,
                            parallelism: 1,
                            seed: SEED,
                        });
                        units.push((format!("bigtable/s{shard_idx}_t{tablet}"), unit_ns));
                    }
                }
                Platform::BigQuery => {
                    let unit_ns = time_ns(1, || {
                        run_bigquery(shard.items, fleet_config.fact_rows, shard.seed).len()
                    });
                    total_ns += unit_ns;
                    units.push((format!("bigquery/s{shard_idx}"), unit_ns));
                }
            }
        }
        report.push(BenchRecord {
            id: format!("fleet/shard_wall_clock/{}", platform_key(platform)),
            ns_per_iter: total_ns,
            bytes_per_iter: None,
            parallelism: 1,
            seed: SEED,
        });
        println!(
            "fleet shards: {} total {:.1} ms over {} shard(s)",
            platform_key(platform),
            total_ns / 1e6,
            plan.shards().len(),
        );
    }
    let units_total_ns: f64 = units.iter().map(|(_, ns)| ns).sum();
    let (worst_unit, worst_ns) = units.iter().fold(("", 0.0f64), |acc, (id, ns)| {
        if *ns > acc.1 {
            (id.as_str(), *ns)
        } else {
            acc
        }
    });
    let straggler_fraction = worst_ns / units_total_ns.max(1.0);
    println!(
        "fleet straggler gate: heaviest unit {worst_unit} {:.1} ms = {:.0}% of \
         {:.1} ms total over {} units (ceiling {:.0}%)",
        worst_ns / 1e6,
        100.0 * straggler_fraction,
        units_total_ns / 1e6,
        units.len(),
        100.0 * STRAGGLER_CEILING,
    );
    assert!(
        straggler_fraction <= STRAGGLER_CEILING,
        "straggler unit {worst_unit} holds {:.0}% of fleet shard time \
         (ceiling {:.0}%): the schedule cannot parallelize past it",
        100.0 * straggler_fraction,
        100.0 * STRAGGLER_CEILING,
    );

    // --- Telemetry overhead: instrumented vs uninstrumented fleet run. -----
    // Same seed, same parallelism; the only difference is live per-shard
    // metrics registries and the artifact-ready telemetry plumbing. The
    // counters ride alongside work the simulator already does, so the
    // instrumented run must stay within 10% of the baseline.
    let probe_config = FleetConfig {
        parallelism: parallel_threads,
        ..fleet_config
    };
    let baseline_ns = best_of(5, || time_ns(1, || run_fleet(probe_config)));
    let instrumented_ns = best_of(5, || time_ns(1, || run_fleet_telemetry(probe_config)));
    report.push(BenchRecord {
        id: "fleet/telemetry/uninstrumented".to_owned(),
        ns_per_iter: baseline_ns,
        bytes_per_iter: None,
        parallelism: parallel_threads,
        seed: SEED,
    });
    report.push(BenchRecord {
        id: "fleet/telemetry/instrumented".to_owned(),
        ns_per_iter: instrumented_ns,
        bytes_per_iter: None,
        parallelism: parallel_threads,
        seed: SEED,
    });
    println!(
        "fleet telemetry: uninstrumented {:.1} ms, instrumented {:.1} ms \
         ({:.1}% overhead)",
        baseline_ns / 1e6,
        instrumented_ns / 1e6,
        (instrumented_ns / baseline_ns - 1.0) * 100.0,
    );
    assert!(
        instrumented_ns <= baseline_ns * 1.10,
        "telemetry overhead above 10%: instrumented {instrumented_ns:.0} ns vs \
         uninstrumented {baseline_ns:.0} ns"
    );

    // --- Tail-attribution overhead: report build on top of the fleet. -----
    // Attribution off is the instrumented fleet run alone; attribution on
    // adds everything `tail_report` does — request-id exemplar joins,
    // per-shard space-saving sketches merged in canonical order, cohort
    // splits, and blame rendering. The attribution pass is pure folding
    // over already-produced records, so it must stay within 10% of the
    // fleet run it decorates.
    let attribution_off_ns = best_of(5, || time_ns(1, || run_fleet_telemetry(probe_config)));
    let attribution_on_ns = best_of(5, || {
        time_ns(1, || {
            render_json(&build_tail_report(probe_config, "")).len()
        })
    });
    report.push(BenchRecord {
        id: "fleet/tail_attribution/off".to_owned(),
        ns_per_iter: attribution_off_ns,
        bytes_per_iter: None,
        parallelism: parallel_threads,
        seed: SEED,
    });
    report.push(BenchRecord {
        id: "fleet/tail_attribution/on".to_owned(),
        ns_per_iter: attribution_on_ns,
        bytes_per_iter: None,
        parallelism: parallel_threads,
        seed: SEED,
    });
    println!(
        "fleet tail attribution: off {:.1} ms, on {:.1} ms ({:.1}% overhead)",
        attribution_off_ns / 1e6,
        attribution_on_ns / 1e6,
        (attribution_on_ns / attribution_off_ns - 1.0) * 100.0,
    );
    assert!(
        attribution_on_ns <= attribution_off_ns * 1.10,
        "tail attribution overhead above 10%: on {attribution_on_ns:.0} ns vs \
         off {attribution_off_ns:.0} ns"
    );

    report
        .write(std::path::Path::new(&out_path))
        .expect("write BENCH_fleet.json");
    println!("wrote {out_path} ({} entries)", report.records().len());
}
