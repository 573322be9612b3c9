//! End-to-end smoke of the figure runners at reduced scale, asserting the
//! qualitative shapes the paper reports. Absolute factors need the full
//! scale (see EXPERIMENTS.md); these tests pin the *orderings*.
//!
//! Figures 4/14/15/17 are views over one shared-trace sweep; the tests
//! below read one such run, made once for the whole file.

use dmt::sim::experiments::{fig16, figures, Figures, Scale};
use dmt::sim::perfmodel::geomean;
use dmt::sim::rig::{Design, Env};
use dmt::sim::{Runner, SweepRow};
use std::collections::HashSet;
use std::sync::OnceLock;

fn small() -> Scale {
    Scale {
        mult4k: 16,
        thp_mult: 8,
        trace: 6_000,
        warmup: 1_500,
    }
}

/// The figures pipeline at [`small`] scale, run once per test binary.
fn figs() -> &'static Figures {
    static FIGS: OnceLock<Figures> = OnceLock::new();
    FIGS.get_or_init(|| figures(&Runner::from_env(), small()).expect("figures pipeline runs"))
}

/// One GUPS cell of the shared sweep.
fn gups(env: Env, design: Design, thp: bool) -> &'static SweepRow {
    figs()
        .sweep
        .rows
        .iter()
        .find(|r| r.workload == "GUPS" && r.env == env && r.design == design && r.thp == thp)
        .unwrap_or_else(|| panic!("no GUPS cell {env:?}/{design:?}/thp={thp}"))
}

#[test]
fn figures_come_from_one_sweep_over_paired_traces() {
    let figs = figs();
    let sweep = &figs.sweep;
    // Each (benchmark, THP) trace is built once and shared by every
    // design: 7 benchmarks x 2 page-size modes.
    assert_eq!(sweep.unique_traces, 14);
    assert_eq!(sweep.trace_materializations, 14);
    // No cell is replayed twice.
    let cells: HashSet<_> = sweep
        .rows
        .iter()
        .map(|r| (r.env, r.design, r.thp, r.workload.as_str()))
        .collect();
    assert_eq!(cells.len(), sweep.rows.len(), "a (env, design, thp, bench) cell ran twice");
    // Every figure reads one row per (bench, design) and page-size mode.
    for (fig, designs) in [(&figs.fig14, 4), (&figs.fig15, 6), (&figs.fig17, 1)] {
        for (_, rows) in &fig.modes {
            assert_eq!(rows.len(), 7 * designs, "{}", fig.label);
        }
    }
    assert_eq!(figs.fig4.len(), 7);
}

#[test]
fn fig4_environment_ordering() {
    let rows = &figs().fig4;
    for r in rows {
        assert!(r.native.0 <= r.virt_npt.0, "{}: virt >= native", r.workload);
        assert!(
            r.virt_npt.0 < r.virt_spt.0,
            "{}: shadow paging slower than nested paging end-to-end",
            r.workload
        );
        assert!(
            r.virt_spt.0 < r.nested.0,
            "{}: nested virtualization slowest",
            r.workload
        );
        // Page-walk fractions grow with virtualization depth.
        assert!(r.native.1 < r.virt_npt.1);
        assert!(r.virt_npt.1 <= r.nested.1);
    }
    // Geomean shapes of the paper: virt ~1.4-1.5x, nested ~4x.
    let virt = geomean(&rows.iter().map(|r| r.virt_npt.0).collect::<Vec<_>>());
    let nested = geomean(&rows.iter().map(|r| r.nested.0).collect::<Vec<_>>());
    assert!((1.2..1.8).contains(&virt), "virt geomean {virt}");
    assert!((3.0..5.0).contains(&nested), "nested geomean {nested}");
}

#[test]
fn virtualized_walks_beat_native_designs_shape() {
    // pvDMT must never lose to plain DMT, and both must cover everything.
    let base = gups(Env::Virt, Design::Vanilla, false);
    let dmt = gups(Env::Virt, Design::Dmt, false);
    let pv = gups(Env::Virt, Design::PvDmt, false);
    assert!(pv.stats.avg_refs() < dmt.stats.avg_refs());
    assert!(dmt.stats.avg_refs() < base.stats.avg_refs());
    assert!(
        pv.stats.walk_cycles <= dmt.stats.walk_cycles,
        "pvDMT {} <= DMT {}",
        pv.stats.walk_cycles,
        dmt.stats.walk_cycles
    );
    assert!(pv.coverage > 0.99 && dmt.coverage > 0.99);
}

#[test]
fn nested_pvdmt_beats_baseline_end_to_end() {
    let base = gups(Env::Nested, Design::Vanilla, false);
    let pv = gups(Env::Nested, Design::PvDmt, false);
    // pvDMT: 3 refs; the baseline 2D walk averages more.
    assert!((pv.stats.avg_refs() - 3.0).abs() < 0.01);
    assert!(base.stats.avg_refs() > 3.0);
    // The baseline pays ~1 exit per fault; pvDMT a handful of hypercalls.
    assert!(base.stats.exits > 100 * pv.stats.exits.max(1));
}

#[test]
fn fig16_breakdown_shape() {
    let (vanilla, pvdmt) = fig16(false, small()).unwrap();
    // The 2D walk has many steps; pvDMT exactly two.
    assert!(vanilla.len() >= 10, "steps: {}", vanilla.len());
    assert_eq!(pvdmt.len(), 2);
    // Shares sum to ~1 in both breakdowns.
    let vs: f64 = vanilla.iter().map(|s| s.share).sum();
    let ps: f64 = pvdmt.iter().map(|s| s.share).sum();
    assert!((vs - 1.0).abs() < 1e-6, "vanilla shares {vs}");
    assert!((ps - 1.0).abs() < 1e-6, "pvDMT shares {ps}");
    // The two pvDMT fetches carry comparable weight (33%/33% in the
    // paper's Figure 16a).
    assert!(pvdmt[0].share > 0.2 && pvdmt[1].share > 0.2);
}

#[test]
fn thp_reduces_walk_latency_for_vanilla() {
    let b4 = gups(Env::Virt, Design::Vanilla, false);
    let bt = gups(Env::Virt, Design::Vanilla, true);
    assert!(
        bt.stats.avg_walk_latency() < b4.stats.avg_walk_latency(),
        "THP {} !< 4K {}",
        bt.stats.avg_walk_latency(),
        b4.stats.avg_walk_latency()
    );
}

#[test]
fn five_level_tables_hurt_radix_not_dmt() {
    let (v4, v5, dmt5) = dmt::sim::experiments::ext_5level(small()).unwrap();
    // The fifth level lengthens radix walks; DMT stays a single fetch.
    assert!(v5 > v4, "5-level {v5} !> 4-level {v4}");
    assert!(dmt5 < v5, "DMT {dmt5} !< 5-level radix {v5}");
}

#[test]
fn context_switching_preserves_dmt_advantage() {
    let (vanilla, dmt, cov) =
        dmt::sim::experiments::ext_context_switch(small(), 500).unwrap();
    assert!(dmt < vanilla, "DMT {dmt} !< vanilla {vanilla} under switching");
    assert!(cov > 0.999, "register reload keeps full coverage: {cov}");
}

#[test]
fn pwc_capacity_cannot_save_the_radix_walk() {
    let pts =
        dmt::sim::ablation::pwc_sweep(256 << 20, &[8, 32, 128, 512], 6_000).unwrap();
    // Bigger PWCs help monotonically-ish...
    assert!(pts[0].avg_walk_cycles >= pts[3].avg_walk_cycles * 0.95);
    // ...but even a 16x PWC keeps walks above a single DRAM fetch,
    // because the leaf PTE itself still has to come from memory.
    assert!(
        pts[3].avg_walk_cycles > 100.0,
        "512-entry PWC: {}",
        pts[3].avg_walk_cycles
    );
}
