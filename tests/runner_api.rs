//! The `Runner` API surface: the two engines must be bit-identical on
//! the same seeded cell, the typed `engine(..)` selector is the only
//! way to pick one (the deprecated `scalar_engine` shim is gone), the
//! builder's knobs must behave, and the disk-spill trace store must
//! replay exactly like the in-memory one.

use dmt::sim::rig::NativeRig;
use dmt::sim::sweep::SweepConfig;
use dmt::sim::{Design, Engine, Env, Runner, RunStats, Scale, SimError};
use dmt::workloads::bench7::Gups;
use dmt::workloads::gen::Workload;

fn cell_workload() -> Gups {
    Gups {
        table_bytes: 32 << 20,
    }
}

/// Replay one seeded native cell through the requested engine.
fn replay_with(engine: Engine, design: Design) -> RunStats {
    let w = cell_workload();
    let trace = w.trace(6_000, 0xD317 ^ design as u64);
    let mut rig = NativeRig::new(design, false, &w, &trace).unwrap();
    Runner::builder()
        .engine(engine)
        .build()
        .replay(&mut rig, &trace, 1_000)
        .0
}

#[test]
fn batched_and_scalar_engines_are_bit_identical() {
    for design in [Design::Vanilla, Design::Dmt] {
        let batched = replay_with(Engine::Batched, design);
        let scalar = replay_with(Engine::Scalar, design);
        assert_eq!(batched, scalar, "{design:?}: engines diverged");
    }
    // The batched engine is the default.
    assert_eq!(Runner::builder().build().engine(), Engine::Batched);
}

#[test]
fn engine_selector_drives_the_replay_path() {
    // The deprecated `scalar_engine(bool)` shim is retired; the typed
    // selector is the only spelling and it must actually steer replay.
    assert_eq!(Runner::builder().engine(Engine::Scalar).build().engine(), Engine::Scalar);
    assert_eq!(Runner::builder().engine(Engine::Batched).build().engine(), Engine::Batched);
    let via_selector = {
        let w = cell_workload();
        let trace = w.trace(6_000, 0xD317 ^ Design::Dmt as u64);
        let mut rig = NativeRig::new(Design::Dmt, false, &w, &trace).unwrap();
        Runner::builder()
            .engine(Engine::Scalar)
            .build()
            .replay(&mut rig, &trace, 1_000)
            .0
    };
    assert_eq!(via_selector, replay_with(Engine::Scalar, Design::Dmt));
}

#[test]
fn tiered_dram_is_off_by_default_and_flat_runs_ignore_the_knob() {
    // Off by default: nobody pays for the tier model unless asked.
    assert!(!Runner::builder().build().tiered_enabled());
    assert!(Runner::builder().tiered(true).build().tiered_enabled());
    // Designs without a registry TierSpec are bit-identical under the
    // knob — tiering is opt-in at *both* the runner and registry level.
    let w = cell_workload();
    let trace = w.trace(6_000, 0xD317 ^ Design::Vanilla as u64);
    let flat = {
        let mut rig = NativeRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        Runner::builder().build().replay(&mut rig, &trace, 1_000).0
    };
    let tiered = {
        let mut rig = NativeRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        Runner::builder()
            .tiered(true)
            .build()
            .replay(&mut rig, &trace, 1_000)
            .0
    };
    assert_eq!(flat, tiered, "no TierSpec row => tiered knob is a no-op");
}

/// One GUPS 4 KiB cell of the sweep matrix at test scale.
fn one_cell(env: Env, design: Design) -> SweepConfig {
    SweepConfig::builder()
        .envs(vec![env])
        .designs(vec![design])
        .thp(vec![false])
        .benchmarks(vec![2]) // GUPS
        .scale(Scale::test())
        .build()
        .expect("one available cell")
}

#[test]
fn one_cell_sweep_is_deterministic_across_runner_instances() {
    for (env, design) in [(Env::Native, Design::Dmt), (Env::Virt, Design::PvDmt)] {
        let cell = one_cell(env, design);
        let a = Runner::builder().build().sweep(&cell).unwrap();
        let b = Runner::builder().build().sweep(&cell).unwrap();
        assert_eq!(a.rows.len(), 1);
        assert_eq!(a.rows[0].outcome(), b.rows[0].outcome(), "{env:?}/{design:?}");
    }
}

/// Telemetry is a pure observer for every available Native and Virt
/// design, the beyond-the-paper VBI and Seg backends included.
#[test]
fn telemetry_toggle_does_not_change_stats() {
    for env in [Env::Native, Env::Virt] {
        for design in Design::ALL.into_iter().filter(|d| d.available_in(env)) {
            let cell = one_cell(env, design);
            let off = Runner::builder().build().sweep(&cell).unwrap().rows.remove(0);
            let on = Runner::builder()
                .telemetry(true)
                .build()
                .sweep(&cell)
                .unwrap()
                .rows
                .remove(0);
            assert_eq!(
                off.stats, on.stats,
                "{env:?}/{design:?}: telemetry must be a pure observer"
            );
            assert!(off.telemetry.is_none());
            let t = on.telemetry.expect("telemetry-on runner must capture");
            assert_eq!(t.walk_latency.count(), on.stats.walks, "{env:?}/{design:?}");
            assert!(!t.series.is_empty(), "{env:?}/{design:?}: ~32 periodic samples");
        }
    }
}

#[test]
fn builder_validation_reports_typed_errors_with_legacy_text() {
    let err = SweepConfig::builder().benchmarks(vec![9]).build().unwrap_err();
    assert!(matches!(err, SimError::BenchIndex { index: 9, count: 7 }));
    assert!(
        err.to_string().starts_with("benchmark index 9 out of range"),
        "Display must keep the historical message prefix: {err}"
    );
    let err = SweepConfig::builder().thp(Vec::new()).build().unwrap_err();
    assert!(matches!(err, SimError::EmptyMatrix));
    // Direct struct literals are validated by the sweep drivers too.
    let mut cfg = SweepConfig::test();
    cfg.benchmarks = vec![42];
    let err = Runner::builder().build().sweep(&cfg).unwrap_err();
    assert!(matches!(err, SimError::BenchIndex { index: 42, .. }));
}

#[test]
fn spilled_sweep_matches_in_memory_sweep_exactly() {
    let mut cfg = SweepConfig::test();
    cfg.threads = 2;
    let mem = Runner::builder().build().sweep(&cfg).unwrap();

    let dir = std::env::temp_dir().join(format!("dmt-runner-spill-{}", std::process::id()));
    let spill = Runner::builder()
        .spill_traces(&dir)
        .build()
        .sweep(&cfg)
        .unwrap();

    assert_eq!(mem.rows.len(), spill.rows.len());
    for (m, s) in mem.rows.iter().zip(&spill.rows) {
        assert_eq!(
            m.outcome(),
            s.outcome(),
            "disk-streamed replay diverged from in-memory replay"
        );
    }
    // The traces really did go through the codec on disk.
    let spilled: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "dmtt"))
        .collect();
    assert_eq!(
        spilled.len() as u64,
        spill.unique_traces,
        "one .dmtt file per unique (benchmark, THP) trace"
    );
    assert_eq!(spill.trace_materializations, spill.unique_traces);
    std::fs::remove_dir_all(&dir).ok();
}
