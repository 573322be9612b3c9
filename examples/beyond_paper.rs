//! Beyond the paper: radix vs non-radix translation on one workload.
//!
//! Replays the same seeded GUPS trace (bench7 index 2 — the
//! TLB-thrashing random-access kernel) under four designs spanning the
//! translation-unit axis:
//!
//! * `Vanilla` — the 4-level x86 radix walk (the paper's baseline);
//! * `Dmt` — the paper's contribution (one PTE fetch per miss);
//! * `Vbi` — VBI-style variable blocks (flat descriptor table, one
//!   reference per miss, whole-run TLB reach);
//! * `Seg` — per-VMA base+bound segmentation (LRU segment cache in
//!   front of a charged binary search).
//!
//! Then flips the tiered-DRAM knob on DMT to show the fast/slow split
//! changing outcomes while flat runs stay bit-identical.
//!
//! Run with: `cargo run --release --example beyond_paper`

use dmt::sim::rig::NativeRig;
use dmt::sim::{Design, Runner};
use dmt::workloads::bench7::Gups;
use dmt::workloads::gen::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = Gups {
        table_bytes: 32 << 20,
    };
    let runner = Runner::builder().build();

    println!("GUPS, 32 MiB table, 10k accesses (2k warmup), native:\n");
    println!(
        "{:>8}  {:>9} {:>10} {:>11} {:>11}",
        "design", "walks", "walk refs", "walk cycles", "data cycles"
    );
    for design in [Design::Vanilla, Design::Dmt, Design::Vbi, Design::Seg] {
        let trace = w.trace(10_000, 0xD317 ^ design as u64);
        let mut rig = NativeRig::new(design, false, &w, &trace)?;
        let (s, _) = runner.replay(&mut rig, &trace, 2_000);
        println!(
            "{:>8}  {:>9} {:>10} {:>11} {:>11}",
            design.name(),
            s.walks,
            s.walk_refs,
            s.walk_cycles,
            s.data_cycles
        );
    }

    // The tier split: same trace, same design, but DRAM beyond 32 MiB
    // now costs 350 cycles instead of 200 (DMT's registry row carries
    // the TierSpec; the knob is a no-op for designs without one).
    let trace = w.trace(10_000, 0xD317 ^ Design::Dmt as u64);
    let flat = {
        let mut rig = NativeRig::new(Design::Dmt, false, &w, &trace)?;
        runner.replay(&mut rig, &trace, 2_000).0
    };
    let tiered = {
        let mut rig = NativeRig::new(Design::Dmt, false, &w, &trace)?;
        Runner::builder()
            .tiered(true)
            .build()
            .replay(&mut rig, &trace, 2_000)
            .0
    };
    assert_eq!(flat.accesses, tiered.accesses, "tiering changes cost, not work");
    println!(
        "\nDMT under tiered DRAM (32 MiB fast / 350-cycle slow tier):\n\
         data cycles {} -> {} (+{} from slow-tier hits)",
        flat.data_cycles,
        tiered.data_cycles,
        tiered.data_cycles - flat.data_cycles
    );
    Ok(())
}
