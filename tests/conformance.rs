//! Cross-design conformance suite: random mmap/access sequences driven
//! through every design × environment × page-size mode under the
//! differential oracle ([`dmt::oracle::Checked`]), with the structural
//! audits (buddy, VMA tree, TEA map, gTEA tables) riding along.
//!
//! The `DMT_ORACLE=1` CI job runs this same binary with the process-wide
//! oracle hook installed, so the experiment-layer path is exercised too
//! (see `oracle_env_hook_wraps_experiment_rigs`).

use dmt::cache::hierarchy::MemoryHierarchy;
use dmt::mem::{PageSize, VirtAddr};
use dmt::oracle::{audit_native, audit_nested, audit_virt, Checked};
use dmt::sim::rig::{NativeRig, NestedRig, Setup, VirtRig};
use dmt::sim::experiments::scaled_benchmark;
use dmt::sim::{Design, Env, Rig, Runner, Scale, SweepConfig};
use dmt::workloads::gen::{Access, Region};
use proptest::prelude::*;

const ALL_DESIGNS: [Design; 10] = [
    Design::Vanilla,
    Design::Shadow,
    Design::Fpt,
    Design::Ecpt,
    Design::Agile,
    Design::Asap,
    Design::Dmt,
    Design::PvDmt,
    Design::Vbi,
    Design::Seg,
];

/// Three fixed, table-span-aligned VMA slots: conformance inputs pick a
/// region and a page offset, so sequences exercise multi-VMA register
/// files without ever generating an invalid layout.
const REGION_BASES: [u64; 3] = [1 << 30, 3 << 30, 5 << 30];
const REGION_LEN: u64 = 4 << 20;

/// Map proptest-chosen `(region, page, offset)` triples to a setup plus
/// the access VAs.
fn build(ops: &[(u8, u16, u16)]) -> (Setup, Vec<VirtAddr>) {
    let regions: Vec<Region> = REGION_BASES
        .iter()
        .map(|&base| Region {
            base: VirtAddr(base),
            len: REGION_LEN,
            label: "conf",
        })
        .collect();
    let pages_per_region = REGION_LEN / PageSize::Size4K.bytes();
    let vas: Vec<VirtAddr> = ops
        .iter()
        .map(|&(r, p, off)| {
            let base = REGION_BASES[r as usize % REGION_BASES.len()];
            let page = (p as u64) % pages_per_region;
            VirtAddr(base + page * PageSize::Size4K.bytes() + (off as u64) % 4096)
        })
        .collect();
    let trace: Vec<Access> = vas.iter().map(|&va| Access::read(va)).collect();
    (Setup::new(regions, &trace), vas)
}

/// Drive every access through a checked rig; return collected
/// divergence renderings (empty = conformant).
fn drive<R: Rig>(mut checked: Checked<R>, vas: &[VirtAddr]) -> Vec<String> {
    let mut hier = MemoryHierarchy::default();
    for &va in vas {
        checked.translate(va, &mut hier);
    }
    checked.divergences().iter().map(|d| d.to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Native: every native-capable design (radix and beyond-the-paper
    /// non-radix alike), 4 KiB and THP, PA/size/permission/fault
    /// agreement on every access plus the full structural audit.
    #[test]
    fn native_designs_conform(
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 16..48),
        thp in any::<bool>(),
    ) {
        let (setup, vas) = build(&ops);
        for design in ALL_DESIGNS {
            if !design.available_in(Env::Native) {
                continue;
            }
            let rig = NativeRig::with_setup(design, thp, &setup).unwrap();
            let checked = Checked::collecting(rig).with_audit(16, audit_native);
            let divergences = drive(checked, &vas);
            prop_assert!(
                divergences.is_empty(),
                "{design:?} thp={thp}: {divergences:?}"
            );
        }
    }

    /// Virtualized: every virt-capable design under the oracle, with
    /// the host buddy and gTEA/vTMAP audits.
    #[test]
    fn virt_designs_conform(
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 16..32),
        thp in any::<bool>(),
    ) {
        let (setup, vas) = build(&ops);
        for design in ALL_DESIGNS {
            if !design.available_in(Env::Virt) {
                continue;
            }
            let rig = VirtRig::with_setup(design, thp, &setup).unwrap();
            let checked = Checked::collecting(rig).with_audit(16, |r| audit_virt(r.machine()));
            let divergences = drive(checked, &vas);
            prop_assert!(
                divergences.is_empty(),
                "{design:?} thp={thp}: {divergences:?}"
            );
        }
    }

    /// Nested: both designs under the oracle, with the cascaded gTEA
    /// audit.
    #[test]
    fn nested_designs_conform(
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 16..32),
        thp in any::<bool>(),
    ) {
        let (setup, vas) = build(&ops);
        for design in ALL_DESIGNS {
            if !design.available_in(Env::Nested) {
                continue;
            }
            let rig = NestedRig::with_setup(design, thp, &setup).unwrap();
            let checked = Checked::collecting(rig).with_audit(16, |r| audit_nested(r.machine()));
            let divergences = drive(checked, &vas);
            prop_assert!(
                divergences.is_empty(),
                "{design:?} thp={thp}: {divergences:?}"
            );
        }
    }
}

/// The `DMT_ORACLE=1` opt-in path: installing the process-wide hook
/// wraps every rig the experiment layer builds in a panicking oracle —
/// one-cell sweeps through the environment-configured runner then prove
/// the engine-driven path is conformant.
#[test]
fn oracle_env_hook_wraps_experiment_rigs() {
    std::env::set_var("DMT_ORACLE", "1");
    assert!(dmt::oracle::install_from_env(), "hook should install");
    // Second install is a no-op: the wrapper slot is write-once.
    assert!(!dmt::oracle::install_from_env());

    for (env, design) in [
        (Env::Native, Design::Dmt),
        (Env::Virt, Design::PvDmt),
        (Env::Nested, Design::Vanilla),
    ] {
        let cell = SweepConfig::builder()
            .envs(vec![env])
            .designs(vec![design])
            .thp(vec![false])
            .benchmarks(vec![2]) // GUPS
            .scale(Scale::test())
            .build()
            .expect("one available cell");
        let report = Runner::from_env()
            .sweep(&cell)
            .unwrap_or_else(|e| panic!("{env:?}/{design:?}: {e}"));
        assert!(report.rows[0].stats.accesses > 0);
    }
}

/// Virtualized ECPT on XSBench at test scale: these trace seeds grow
/// the guest table past its boot-time arena. The overflow ways must come
/// from the guest's contiguous allocator (no panic, no error), and the
/// resulting tables must translate every access the way the oracle's
/// ground truth does.
#[test]
fn ecpt_arena_overflow_builds_and_conforms() {
    let scale = Scale::test();
    let w = scaled_benchmark(5, scale, false).expect("XSBench index");
    let runner = Runner::builder().rig_wrapper(dmt::oracle::wrapper()).build();
    for seed in [2, 4, 7, 0xD314] {
        let trace = w.trace(scale.total(), seed);
        let setup = Setup::of_workload(w.as_ref(), &trace);
        let mut rig = runner
            .build_rig(Env::Virt, Design::Ecpt, false, &setup)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        let (stats, _) = runner.replay(rig.as_mut(), &trace, scale.warmup);
        assert_eq!(stats.accesses, (trace.len() - scale.warmup) as u64, "seed {seed:#x}");
        assert!(stats.walks > 0, "seed {seed:#x}");
    }
}
