//! Nested virtualization (§2.1.3, §6.1.3): an L2 guest — think Windows
//! with Hyper-V running inside a cloud VM — under the vanilla
//! shadow-paging baseline vs nested pvDMT.
//!
//! Run with: `cargo run --release --example nested_cloud`

use dmt::sim::Runner;
use dmt::sim::rig::{Design, Env, NestedRig};
use dmt::sim::perfmodel::{app_speedup, calib_for};
use dmt::sim::report::{speedup, Table};
use dmt::workloads::bench7::Gups;
use dmt::workloads::gen::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gups = Gups {
        table_bytes: 2 << 30,
    };
    let trace = gups.trace(120_000, 7);
    let warmup = 20_000;
    println!(
        "workload: {} ({} GiB) at L2 of an L0/L1/L2 stack\n",
        gups.name(),
        gups.footprint() >> 30
    );

    let calib = calib_for("GUPS");
    let mut table = Table::new(
        "Nested virtualization (baseline = nested KVM: L2PT x sPT + exits)",
        &["design", "walk latency (cyc)", "seq. refs", "exits", "app speedup"],
    );
    let mut base_cycles = 0u64;
    for design in [Design::Vanilla, Design::PvDmt] {
        let mut rig = NestedRig::new(design, false, &gups, &trace)?;
        let stats = Runner::builder().build().replay(&mut rig, &trace, warmup).0;
        if design == Design::Vanilla {
            base_cycles = stats.walk_cycles;
        }
        let walk_ratio = stats.walk_cycles as f64 / base_cycles.max(1) as f64;
        let exit_ratio = if design == Design::Vanilla { 1.0 } else { 0.0 };
        let app = app_speedup(&calib, Env::Nested, walk_ratio, exit_ratio);
        table.row(vec![
            design.name().to_string(),
            format!("{:.1}", stats.avg_walk_latency()),
            format!("{:.2}", stats.avg_refs()),
            stats.exits.to_string(),
            speedup(app),
        ]);
    }
    println!("{table}");
    println!("pvDMT's three direct fetches (L2PTE, L1PTE, L0PTE) replace both the 2D");
    println!("walk and the shadow-paging synchronization exits — the paper's first");
    println!("hardware-assisted translation for nested virtualization.");
    Ok(())
}
