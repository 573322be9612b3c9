//! Measure sharded replay against the serial epoch-barrier reference
//! and record the trajectory: captures one large seekable trace,
//! replays it at 1/2/4/8 shards per cell (bit-identity gated — see
//! [`dmt_bench::shards`]), prints a per-cell summary, and writes
//! `BENCH_8.json` (schema `dmt-bench-v1`) into the output directory
//! (the first non-flag CLI argument, default the current directory).
//!
//! Run with: `cargo run --release -p dmt-bench --bin shard_bench -- [--full] [DIR]`
//!
//! `--full` runs the paper-regime scale (the same flag `paper_figures`
//! takes); the default is the reduced test scale CI uses. Shard
//! *scaling* only shows up on multi-core hosts — the report's
//! `host_threads` field says what this run had.

use dmt_bench::shards::{git_commit, run_shard_bench, shard_report_json, ShardScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| ".".to_string());
    let scale = if full {
        ShardScale::full()
    } else {
        ShardScale::test()
    };
    let repeats = 3;
    let (results, scale) = match run_shard_bench(scale, repeats) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("shard_bench: {e}");
            std::process::exit(1);
        }
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "shard_bench: {} accesses ({} warmup), best of {repeats}, {host_threads} host thread(s)",
        scale.accesses, scale.warmup
    );
    for r in &results {
        let line: Vec<String> = r
            .timings
            .iter()
            .map(|t| {
                format!(
                    "K={}: {:.1} ns/acc ({:.2}x)",
                    t.shards,
                    t.best_ns as f64 / scale.accesses as f64,
                    r.speedup_at(t.shards).unwrap_or(1.0)
                )
            })
            .collect();
        println!(
            "{:>7}/{:<7} {:>6}: {}",
            r.env.name(),
            r.design.name(),
            r.workload,
            line.join("  ")
        );
    }
    let json = shard_report_json(&results, scale, &git_commit());
    match json.write_json_in(std::path::Path::new(&out_dir), "BENCH_8") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("shard_bench: writing BENCH_8.json: {e}");
            std::process::exit(1);
        }
    }
}
