//! Structural invariant audits per environment: buddy allocator, VMA
//! tree, TEA map, and the gTEA tables that make virtualized DMT work.
//!
//! Each function returns a list of human-readable violations (empty =
//! healthy). They compose the per-crate audits ([`dmt_mem::buddy::BuddyAllocator::audit`],
//! [`dmt_os::proc::Process::audit`]) with the cross-layer checks only
//! the oracle can see: gTEA registration vs the guest's vTMAP, and
//! host-physical contiguity of every granted TEA.

use dmt_mem::{Pfn, PhysAddr};
use dmt_sim::rig::NativeRig;
use dmt_virt::machine::VirtMachine;
use dmt_virt::nested::NestedMachine;

/// Audit a native rig: buddy allocator + the process's VMA tree, reverse
/// map, TEA map and single-PTE-copy placement.
pub fn audit_native(rig: &NativeRig) -> Vec<String> {
    let m = rig.machine();
    let mut out = Vec::new();
    if let Err(e) = m.pm.buddy().audit() {
        out.push(format!("buddy: {e}"));
    }
    out.extend(m.proc_.audit(&m.pm));
    out
}

/// Audit a single-level virtual machine: host buddy allocator, then for
/// every guest VMA-to-TEA mapping the gTEA-table agreement (§4.5.1) —
/// a paravirtual gTEA id must resolve to an entry of the same length
/// whose host frames back the guest TEA frames *contiguously* (that
/// contiguity is what lets the host walker treat the gTEA as one run);
/// an unparavirtualized TEA must at least be fully backed.
pub fn audit_virt(m: &VirtMachine) -> Vec<String> {
    let mut out = Vec::new();
    if let Err(e) = m.pm.buddy().audit() {
        out.push(format!("host buddy: {e}"));
    }
    for (i, g) in m.guest_mappings().iter().enumerate() {
        let frames = g.tea_frames();
        match g.gtea_id() {
            Some(id) => {
                let Some(entry) = m.gtea_table.entry(id) else {
                    out.push(format!("guest mapping #{i}: gTEA id {id} not registered"));
                    continue;
                };
                if entry.frames != frames {
                    out.push(format!(
                        "guest mapping #{i}: vTMAP covers {frames} TEA frames but gTEA entry {id} registers {}",
                        entry.frames
                    ));
                }
                for f in 0..frames.min(entry.frames) {
                    let gpa = PhysAddr::from_pfn(Pfn(g.tea_base().0 + f));
                    let want = PhysAddr::from_pfn(Pfn(entry.base.0 + f));
                    match m.vm.gpa_to_hpa(gpa) {
                        Some(hpa) if hpa == want => {}
                        got => out.push(format!(
                            "guest mapping #{i} TEA frame {f}: gPA {:#x} backed by {:?}, gTEA entry expects {:#x}",
                            gpa.raw(),
                            got.map(|p| p.raw()),
                            want.raw()
                        )),
                    }
                }
            }
            None => {
                for f in 0..frames {
                    let gpa = PhysAddr::from_pfn(Pfn(g.tea_base().0 + f));
                    if m.vm.gpa_to_hpa(gpa).is_none() {
                        out.push(format!(
                            "guest mapping #{i} TEA frame {f}: gPA {:#x} is unbacked",
                            gpa.raw()
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Audit the nested (L2-on-L1-on-L0) machine: L0 buddy allocator, then
/// for every L2 mapping the cascaded gTEA agreement — each L2 TEA frame
/// must resolve through both backing maps to exactly the host frame the
/// L2 gTEA entry registered (the cascade of §4.5.3 terminates at L0
/// allocations, so the resolved run must be the registered run).
pub fn audit_nested(m: &NestedMachine) -> Vec<String> {
    let mut out = Vec::new();
    if let Err(e) = m.pm.buddy().audit() {
        out.push(format!("L0 buddy: {e}"));
    }
    for (i, g) in m.l2_mappings().iter().enumerate() {
        let Some(id) = g.gtea_id() else {
            out.push(format!("L2 mapping #{i}: nested TEAs are paravirtual but no gTEA id"));
            continue;
        };
        let Some(entry) = m.l2_gtea.entry(id) else {
            out.push(format!("L2 mapping #{i}: gTEA id {id} not registered"));
            continue;
        };
        if entry.frames != g.tea_frames() {
            out.push(format!(
                "L2 mapping #{i}: covers {} TEA frames but gTEA entry {id} registers {}",
                g.tea_frames(),
                entry.frames
            ));
        }
        for f in 0..g.tea_frames().min(entry.frames) {
            let l2pa = PhysAddr::from_pfn(Pfn(g.tea_base().0 + f));
            let want = PhysAddr::from_pfn(Pfn(entry.base.0 + f));
            match m.l2pa_to_l0pa(l2pa) {
                Some(l0) if l0 == want => {}
                got => out.push(format!(
                    "L2 mapping #{i} TEA frame {f}: L2PA {:#x} resolves to {:?}, gTEA entry expects {:#x}",
                    l2pa.raw(),
                    got.map(|p| p.raw()),
                    want.raw()
                )),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_cache::hierarchy::MemoryHierarchy;
    use dmt_mem::{PageSize, VirtAddr};
    use dmt_sim::rig::{NestedRig, Setup, VirtRig};
    use dmt_sim::{Design, Rig};
    use dmt_workloads::gen::{Access, Region};

    fn tiny_setup(pages: u64) -> (Setup, Vec<VirtAddr>) {
        let base = VirtAddr(1 << 30);
        let region = Region {
            base,
            len: pages * PageSize::Size4K.bytes(),
            label: "probe",
        };
        let vas: Vec<VirtAddr> = (0..pages)
            .map(|i| VirtAddr(base.raw() + i * PageSize::Size4K.bytes()))
            .collect();
        let trace: Vec<Access> = vas.iter().map(|&va| Access::read(va)).collect();
        (Setup::new(vec![region], &trace), vas)
    }

    #[test]
    fn native_rig_passes_audit() {
        let (setup, _) = tiny_setup(32);
        let rig = dmt_sim::rig::NativeRig::with_setup(Design::Dmt, false, &setup).unwrap();
        assert_eq!(audit_native(&rig), Vec::<String>::new());
    }

    #[test]
    fn virt_rig_passes_audit_and_catches_gtea_tampering() {
        let (setup, vas) = tiny_setup(32);
        let mut rig = VirtRig::with_setup(Design::PvDmt, false, &setup).unwrap();
        let mut hier = MemoryHierarchy::default();
        for &va in &vas {
            rig.translate(va, &mut hier);
        }
        assert_eq!(audit_virt(rig.machine()), Vec::<String>::new());

        // Tamper: shift a registered gTEA entry's base by one frame.
        let m = rig.machine_mut();
        let tampered: Vec<u16> = m.guest_mappings().iter().filter_map(|g| g.gtea_id()).collect();
        if let Some(&id) = tampered.first() {
            let e = m.gtea_table.entry(id).unwrap();
            m.gtea_table.update(id, Pfn(e.base.0 + 1), e.frames).unwrap();
            let violations = audit_virt(rig.machine());
            assert!(
                violations.iter().any(|v| v.contains("gTEA")),
                "{violations:?}"
            );
        }
    }

    #[test]
    fn nested_rig_passes_audit_and_catches_gtea_tampering() {
        let (setup, vas) = tiny_setup(16);
        let mut rig = NestedRig::with_setup(Design::PvDmt, false, &setup).unwrap();
        let mut hier = MemoryHierarchy::default();
        for &va in &vas {
            rig.translate(va, &mut hier);
        }
        assert_eq!(audit_nested(rig.machine()), Vec::<String>::new());
    }
}
