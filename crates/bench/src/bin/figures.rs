//! Prints every regenerated table and figure in one run:
//! `cargo run --release -p hsdp-bench --bin figures [-- --parallelism N]`.
//!
//! `--parallelism N` sets the fleet driver's worker-thread count (default:
//! the host's available parallelism). Results are identical at every value;
//! only wall-clock changes.

use hsdp_bench::exhibits;

fn main() {
    let mut config = exhibits::bench_fleet_config();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--parallelism" => {
                let value = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .expect("--parallelism requires a positive integer");
                config.parallelism = value;
            }
            other => {
                eprintln!("unknown option `{other}` (supported: --parallelism N)");
                std::process::exit(2);
            }
        }
    }

    if let Err(err) = config.validate() {
        eprintln!("invalid fleet configuration: {err}");
        std::process::exit(2);
    }

    println!("{}", exhibits::table1());
    let runs = exhibits::run_profiled_fleet(config);
    println!("{}", exhibits::figure2_exhibit(&runs));
    println!("{}", exhibits::figure3_exhibit(&runs));
    println!("{}", exhibits::figure4_exhibit(&runs));
    println!("{}", exhibits::figure5_exhibit(&runs));
    println!("{}", exhibits::figure6_exhibit(&runs));
    println!("{}", exhibits::tables6_7());
    println!("{}", exhibits::figure9());
    println!("{}", exhibits::figure10());
    println!("{}", exhibits::figure13());
    println!("{}", exhibits::figure14());
    println!("{}", exhibits::figure15());
    println!("{}", exhibits::table8(800));
    println!("{}", exhibits::ablation_chain_penalty());
    println!("{}", exhibits::ablation_cache_policy());
    println!("{}", exhibits::ablation_attribution());
}
