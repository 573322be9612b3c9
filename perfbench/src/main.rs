//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures-test|replay-4k|cloudnode-churn|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the run's result as one JSON
//! object; the lines before it name every metric with its unit. Result
//! files go to `perfbench/out`.

use dmt_perfbench::workloads::{install_panic_hook, Plan, Size, Workload};
use dmt_perfbench::{report_text, result_line, run, write_outputs, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number `{s}`: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                a.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    w => vec![Workload::parse(w).ok_or(format!("unknown workload `{w}`"))?],
                };
            }
            "--seed" => a.seed = parse_u64(&val()?)?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not `{t}`")),
                };
            }
            f => return Err(format!("unknown argument `{f}`")),
        }
    }
    if a.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <figures-test|replay-4k|cloudnode-churn|all> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    install_panic_hook();
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut lines = Vec::new();
    for w in &args.workloads {
        let plan = Plan::new(*w, Size::Full, args.seed, None).expect("no cell filter");
        let r = run(plan, args.seconds, args.trace);
        print!("{}", report_text(&r));
        for f in &r.failures {
            eprintln!("perfbench: failed op {f}");
        }
        match write_outputs(&r, args.seconds, &out) {
            Ok(path) => println!("[wrote {}]", path.display()),
            Err(e) => eprintln!("perfbench: could not write results: {e}"),
        }
        lines.push(result_line(&r));
    }
    // With several workloads, each one's result line is printed in turn;
    // the last line is the last workload's.
    for l in &lines {
        println!("{l}");
    }
    ExitCode::SUCCESS
}
