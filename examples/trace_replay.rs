//! Capture a GUPS trace to a binary `.dmtt` file, then replay it —
//! streaming off disk, no workload generator in sight — through the DMT
//! and vanilla-radix rigs and compare walk latencies.
//!
//! Run with: `cargo run --release --example trace_replay`

use dmt::sim::report::{f2, pct, Table};
use dmt::sim::rig::{Design, NativeRig, Setup};
use dmt::sim::Runner;
use dmt::trace::{capture_to_path, TraceReader};
use dmt::workloads::bench7::Gups;
use dmt::workloads::gen::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gups = Gups {
        table_bytes: 2 << 30,
    };
    let n = 200_000;
    let warmup = 50_000;
    let path = std::env::temp_dir().join("gups.dmtt");

    // --- capture ---------------------------------------------------------
    let summary = capture_to_path(&gups, n, 0xD317, &path)?;
    println!(
        "captured {} accesses of {} ({} GiB) to {}",
        summary.accesses,
        gups.name(),
        gups.footprint() >> 30,
        path.display()
    );
    println!(
        "  {} bytes on disk = {:.2} B/access ({} of the naive 17 B record)\n",
        summary.total_bytes(),
        summary.total_bytes() as f64 / summary.accesses as f64,
        pct(summary.compression_ratio())
    );

    // --- replay ----------------------------------------------------------
    // The rigs are built from the trace header alone (regions + touched
    // pages), exactly what a replay on another machine would have.
    let accesses = TraceReader::open(&path)?.read_all()?;
    let meta = TraceReader::open(&path)?.meta().clone();
    let setup = Setup::new(meta.to_regions(), &accesses);

    let mut table = Table::new(
        format!("GUPS replay from {} (native, 4 KiB pages)", path.display()),
        &["design", "walk latency (cyc)", "seq. refs", "TLB miss"],
    );
    let runner = Runner::builder().build();
    for design in [Design::Vanilla, Design::Dmt] {
        let mut rig = NativeRig::with_setup(design, false, &setup)?;
        // Stream the decoded accesses through the runner's engine.
        let (stats, _) = runner.replay(
            &mut rig,
            TraceReader::open(&path)?.map(|a| a.expect("validated above")),
            warmup,
        );
        table.row(vec![
            design.name().into(),
            f2(stats.avg_walk_latency()),
            f2(stats.avg_refs()),
            pct(stats.miss_ratio()),
        ]);
    }
    println!("{table}");

    std::fs::remove_file(&path).ok();
    Ok(())
}
