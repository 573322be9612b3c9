//! The environment layer: one [`Machine`] trait over the three machine
//! types a design can run on — [`NativeMachine`] (bare metal),
//! [`VirtMachine`] (single-level virtualization) and [`NestedMachine`]
//! (L0/L1/L2). A machine owns everything that is the same for every
//! design in its environment (physical memory, tables, walk caches);
//! the design-specific part is a
//! [`Translator`](crate::backends::Translator) over the machine, built
//! by the registry. [`EnvRig`](crate::rig::EnvRig) pairs the two.

use crate::backends::{Backend, NativeBackend, NestedBackend, VirtBackend};
use crate::error::SimError;
use crate::registry::{Arena, NativeSpec, NestedSpec, Registration, VirtSpec};
use crate::rig::{cluster_regions, Env, RefEntry, Setup};
use dmt_cache::pwc::{PageWalkCache, PwcStats};
use dmt_core::regfile::DmtRegisterFile;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PageSize, PhysAddr, PhysMemory, VirtAddr};
use dmt_os::proc::{Process, ThpMode};
use dmt_os::vma::VmaKind;
use dmt_pgtable::pte::PteFlags;
use dmt_telemetry::ComponentCounters;
use dmt_virt::machine::VirtMachine;
use dmt_virt::nested::NestedMachine;

/// A deployment environment's machine state, independent of the design
/// under test. Everything the three environments differ in lives here;
/// everything they share (allocator sampling, hashing, swapping the
/// memory) is written once in [`EnvRig`](crate::rig::EnvRig) over
/// [`pm`](Machine::pm).
pub trait Machine: Sized + 'static {
    /// The environment this machine models.
    const ENV: Env;

    /// The registry's construction knobs for this environment.
    type Spec: 'static;

    /// The environment's registry-built backend enum.
    type Backend: Backend<Self>;

    /// This environment's spec in a registry row (`None` for a Table 6
    /// N/A cell).
    fn spec(row: &'static Registration) -> Option<&'static Self::Spec>;

    /// Bytes of host physical memory a standalone machine provisions for
    /// `setup` — exposed so a multi-tenant node can size one shared
    /// memory as the sum over its tenants.
    fn host_bytes(thp: bool, setup: &Setup) -> u64;

    /// Build the machine inside `pm`, map and populate `setup`'s touched
    /// pages, then run the spec's backend factory over the result.
    fn build(
        pm: PhysMemory,
        spec: &Self::Spec,
        thp: bool,
        setup: &Setup,
    ) -> Result<(Self, Self::Backend), SimError>;

    /// The machine-level (host) physical memory.
    fn pm(&self) -> &PhysMemory;

    /// Mutable access to the machine-level physical memory.
    fn pm_mut(&mut self) -> &mut PhysMemory;

    /// Software ground-truth data PA (no translation machinery charged).
    ///
    /// # Panics
    ///
    /// Panics if `va` was never populated.
    fn data_pa(&self, va: VirtAddr) -> PhysAddr;

    /// The reference leaf entry from the software ground truth — what
    /// [`Translator::ref_translate`](crate::backends::Translator::ref_translate)
    /// serves by default.
    fn ref_entry(&self, va: VirtAddr) -> Option<RefEntry>;

    /// Page faults served so far (setup populations).
    fn faults(&self) -> u64;

    /// The machine-specific telemetry counters: its walk caches and OS
    /// layer. Allocator counters are added by the rig from [`pm`](Self::pm).
    fn component_counters(&self) -> ComponentCounters;

    /// Drop every page-walk cache the machine owns.
    fn flush_pwcs(&mut self);

    /// Exchange the machine's hardware PWC with `pwc`; `false` (leaving
    /// `pwc` untouched) when the walk caches are machine-internal.
    fn swap_pwc(&mut self, _pwc: &mut PageWalkCache) -> bool {
        false
    }

    /// Tenant teardown: give back what the machine can to the shared
    /// allocator and return the TLB shootdowns it issued (0 when the
    /// machine has no reclaim path).
    fn release_memory(&mut self) -> u64 {
        0
    }
}

fn ref_entry_of(pa: PhysAddr, size: PageSize, flags: PteFlags) -> RefEntry {
    RefEntry {
        pa,
        size,
        writable: flags.contains(PteFlags::WRITABLE),
        user: flags.contains(PteFlags::USER),
    }
}

/// Sum `stats` into the PWC counters of `c`.
fn add_pwc(c: &mut ComponentCounters, s: PwcStats) {
    c.pwc_l2_hits += s.l2_hits;
    c.pwc_l3_hits += s.l3_hits;
    c.pwc_l4_hits += s.l4_hits;
    c.pwc_misses += s.misses;
}

/// Round `bytes` up to the host page a THP (2 MiB) or 4 KiB machine
/// backs guests with — `Vm::new` rejects unaligned guest sizes.
fn host_page_align(bytes: u64, thp: bool) -> u64 {
    let page = if thp {
        PageSize::Size2M.bytes()
    } else {
        PageSize::Size4K.bytes()
    };
    bytes.div_ceil(page) * page
}

/// The machine state a native rig owns, independent of the design under
/// test: physical memory, the process (VMAs, radix tables, TEAs), the
/// DMT register file, and the page-walk cache radix designs share.
pub struct NativeMachine {
    /// Physical memory.
    pub pm: PhysMemory,
    /// The process under test.
    pub proc_: Process,
    /// DMT register file (loaded iff the design is DMT-managed).
    pub regs: DmtRegisterFile,
    /// The page-walk cache the radix fallback/baseline walks share.
    pub pwc: PageWalkCache,
}

impl NativeMachine {
    /// Build the machine inside `pm`: map and populate the setup's
    /// regions, sized so only touched pages are materialized.
    /// `dmt_managed` selects the TEA-aware process and loads the
    /// register file.
    fn build_in(
        mut pm: PhysMemory,
        dmt_managed: bool,
        thp: bool,
        setup: &Setup,
    ) -> Result<Self, SimError> {
        let thp_mode = if thp { ThpMode::Always } else { ThpMode::Never };
        let mut proc_ = if dmt_managed {
            Process::new(&mut pm, thp_mode)
        } else {
            Process::new_vanilla(&mut pm, thp_mode)
        }
        .map_err(SimError::setup)?;

        for r in &setup.regions {
            proc_
                .mmap(&mut pm, r.base, r.len, VmaKind::Heap)
                .map_err(|e| SimError::Setup(format!("mmap {}: {e}", r.label)))?;
        }
        for &va in &setup.pages {
            proc_
                .populate(&mut pm, va)
                .map_err(|e| SimError::Setup(format!("populate {va}: {e}")))?;
        }

        let mut regs = DmtRegisterFile::new();
        if dmt_managed {
            proc_.load_registers(&mut regs);
        }
        Ok(NativeMachine {
            pm,
            proc_,
            regs,
            pwc: PageWalkCache::default(),
        })
    }

    /// Enumerate the touched page mappings `(page base VA, frame base
    /// PA, size)` from the ground-truth radix table — the raw material
    /// backends build their auxiliary structures from.
    pub fn collect_mappings(
        &self,
        pages: &[VirtAddr],
    ) -> Result<Vec<(VirtAddr, PhysAddr, PageSize)>, SimError> {
        let mut entries = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &va in pages {
            let (pa, size) = self
                .proc_
                .page_table()
                .translate(&self.pm, va)
                .ok_or_else(|| SimError::Setup(format!("page at {va} not populated")))?;
            let aligned = va.align_down(size);
            if seen.insert(aligned.raw()) {
                entries.push((aligned, PhysAddr(pa.raw() & !(size.bytes() - 1)), size));
            }
        }
        Ok(entries)
    }
}

impl Machine for NativeMachine {
    const ENV: Env = Env::Native;
    type Spec = NativeSpec;
    type Backend = NativeBackend;

    fn spec(row: &'static Registration) -> Option<&'static NativeSpec> {
        row.native.as_ref()
    }

    fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        let touched_bytes = (setup.pages.len() as u64) << (if thp { 21 } else { 12 });
        touched_bytes * 2 + setup.footprint() / 256 + (512 << 20)
    }

    fn build(
        pm: PhysMemory,
        spec: &NativeSpec,
        thp: bool,
        setup: &Setup,
    ) -> Result<(Self, NativeBackend), SimError> {
        let mut m = NativeMachine::build_in(pm, spec.dmt_managed, thp, setup)?;
        let backend = (spec.build)(&mut m, setup)?;
        Ok((m, backend))
    }

    fn pm(&self) -> &PhysMemory {
        &self.pm
    }

    fn pm_mut(&mut self) -> &mut PhysMemory {
        &mut self.pm
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        self.proc_
            .page_table()
            .translate(&self.pm, va)
            .expect("populated")
            .0
    }

    fn ref_entry(&self, va: VirtAddr) -> Option<RefEntry> {
        let (pa, size, flags) = self.proc_.page_table().translate_entry(&self.pm, va)?;
        Some(ref_entry_of(pa, size, flags))
    }

    fn faults(&self) -> u64 {
        self.proc_.faults()
    }

    fn component_counters(&self) -> ComponentCounters {
        let mut c = ComponentCounters {
            tea_migrations: self.proc_.tea_migrations(),
            shootdowns: self.proc_.shootdowns(),
            ..Default::default()
        };
        add_pwc(&mut c, self.pwc.stats());
        c
    }

    fn flush_pwcs(&mut self) {
        self.pwc.flush();
    }

    fn swap_pwc(&mut self, pwc: &mut PageWalkCache) -> bool {
        std::mem::swap(&mut self.pwc, pwc);
        true
    }

    fn release_memory(&mut self) -> u64 {
        let ids: Vec<_> = self.proc_.address_space().iter().map(|v| v.id).collect();
        let before = self.proc_.shootdowns();
        for id in ids {
            self.proc_
                .munmap(&mut self.pm, id)
                .expect("unmapping an enumerated VMA");
        }
        self.proc_.shootdowns() - before
    }
}

impl Machine for VirtMachine {
    const ENV: Env = Env::Virt;
    type Spec = VirtSpec;
    type Backend = VirtBackend;

    fn spec(row: &'static Registration) -> Option<&'static VirtSpec> {
        row.virt.as_ref()
    }

    fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        let touched_bytes = (setup.pages.len() as u64) << (if thp { 21 } else { 12 });
        touched_bytes * 2 + setup.footprint() / 256 + (768 << 20)
    }

    fn build(
        pm: PhysMemory,
        spec: &VirtSpec,
        thp: bool,
        setup: &Setup,
    ) -> Result<(Self, VirtBackend), SimError> {
        // Guest physical space spans the footprint (TEAs are eager) but
        // only touched pages get backed.
        let guest_bytes = host_page_align(setup.footprint() + (160 << 20), thp);
        let mut m = VirtMachine::new_with_pm(pm, guest_bytes, spec.tea_mode, thp)
            .map_err(SimError::setup)?;
        // Guest table arenas (FPT/ECPT) are carved out at "boot", before
        // data allocations fragment guest physical memory (both designs
        // need contiguity, like TEAs).
        let arena = match spec.arena_frames {
            Some(frames_of) => {
                let frames = frames_of(setup);
                Some(Arena {
                    base: m
                        .vm
                        .alloc_guest_contig(&mut m.pm, frames, FrameKind::PageTable)
                        .map_err(SimError::setup)?,
                    frames,
                })
            }
            None => None,
        };
        // TEAs are created per VMA *cluster* (§4.2.1); only touched pages
        // are populated.
        for (base, len) in cluster_regions(&setup.regions, thp) {
            m.guest_mmap(base, len).map_err(SimError::setup)?;
        }
        for &va in &setup.pages {
            m.guest_populate(va).map_err(SimError::setup)?;
        }
        let backend = (spec.build)(&mut m, setup, arena)?;
        Ok((m, backend))
    }

    fn pm(&self) -> &PhysMemory {
        &self.pm
    }

    fn pm_mut(&mut self) -> &mut PhysMemory {
        &mut self.pm
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        self.translate_software(va).expect("populated")
    }

    /// The 2D reference path: guest leaf decides size and permissions,
    /// the host mapping finishes the PA.
    fn ref_entry(&self, va: VirtAddr) -> Option<RefEntry> {
        let view = self.vm.guest_view_ref(&self.pm);
        let (gpa, size, flags) = self.gpt.translate_entry(&view, va)?;
        Some(ref_entry_of(self.vm.gpa_to_hpa(gpa)?, size, flags))
    }

    fn faults(&self) -> u64 {
        VirtMachine::faults(self)
    }

    fn component_counters(&self) -> ComponentCounters {
        // Host-side PWC population depends on the design: 2D walks use
        // the guest+nested pair, shadow paging its own instance. Sum
        // whatever exists — absent caches contribute nothing.
        let mut c = ComponentCounters::default();
        let caches = &self.nested_caches;
        for p in [
            caches.guest_pwc.as_ref(),
            caches.nested_pwc.as_ref(),
            Some(&self.shadow_pwc),
        ]
        .into_iter()
        .flatten()
        {
            add_pwc(&mut c, p.stats());
        }
        c
    }

    fn flush_pwcs(&mut self) {
        let caches = &mut self.nested_caches;
        for p in [
            caches.guest_pwc.as_mut(),
            caches.nested_pwc.as_mut(),
            Some(&mut self.shadow_pwc),
        ]
        .into_iter()
        .flatten()
        {
            p.flush();
        }
    }
}

impl Machine for NestedMachine {
    const ENV: Env = Env::Nested;
    type Spec = NestedSpec;
    type Backend = NestedBackend;

    fn spec(row: &'static Registration) -> Option<&'static NestedSpec> {
        row.nested.as_ref()
    }

    fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        let touched_bytes = (setup.pages.len() as u64) << (if thp { 21 } else { 12 });
        touched_bytes * 3 + setup.footprint() / 128 + (768 << 20)
    }

    fn build(
        pm: PhysMemory,
        spec: &NestedSpec,
        thp: bool,
        setup: &Setup,
    ) -> Result<(Self, NestedBackend), SimError> {
        let l2_bytes = host_page_align(setup.footprint() + (96 << 20), thp);
        let l1_bytes = l2_bytes + (64 << 20);
        let mut m =
            NestedMachine::new_with_pm(pm, l1_bytes, l2_bytes, thp).map_err(SimError::setup)?;
        if spec.pv_mmap {
            for (base, len) in cluster_regions(&setup.regions, thp) {
                m.l2_mmap(base, len).map_err(SimError::setup)?;
            }
        }
        for &va in &setup.pages {
            m.l2_populate(va).map_err(SimError::setup)?;
        }
        let backend = (spec.build)(&mut m, setup)?;
        Ok((m, backend))
    }

    fn pm(&self) -> &PhysMemory {
        &self.pm
    }

    fn pm_mut(&mut self) -> &mut PhysMemory {
        &mut self.pm
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        self.translate_software(va).expect("populated")
    }

    /// The cascaded software reference.
    fn ref_entry(&self, va: VirtAddr) -> Option<RefEntry> {
        let (pa, size, flags) = self.translate_software_entry(va)?;
        Some(ref_entry_of(pa, size, flags))
    }

    fn faults(&self) -> u64 {
        NestedMachine::faults(self)
    }

    fn component_counters(&self) -> ComponentCounters {
        let mut c = ComponentCounters::default();
        let caches = &self.nested_caches;
        for p in [caches.guest_pwc.as_ref(), caches.nested_pwc.as_ref()]
            .into_iter()
            .flatten()
        {
            add_pwc(&mut c, p.stats());
        }
        c
    }

    fn flush_pwcs(&mut self) {
        let caches = &mut self.nested_caches;
        for p in [caches.guest_pwc.as_mut(), caches.nested_pwc.as_mut()]
            .into_iter()
            .flatten()
        {
            p.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{Design, NestedRig, Rig, VirtRig};

    #[test]
    fn thp_guests_round_unaligned_footprints_up_to_the_host_page() {
        // Graph500 at THP multiplier 1 maps 528.25 MiB of VMAs: not a
        // 2 MiB multiple, which `Vm::new` rejects unless rounded.
        let w = dmt_workloads::bench7::nth_benchmark(6, 1).expect("Graph500");
        let trace = w.trace(2_000, 7);
        let setup = Setup::of_workload(w.as_ref(), &trace);
        assert_ne!(setup.footprint() % PageSize::Size2M.bytes(), 0);
        let virt = VirtRig::with_setup(Design::PvDmt, true, &setup).expect("virt THP rig");
        assert!(virt.thp());
        let nested = NestedRig::with_setup(Design::PvDmt, true, &setup).expect("nested THP rig");
        assert!(nested.thp());
        // Aligned sizes are left alone, so existing cells keep their
        // exact machine layout.
        assert_eq!(host_page_align(8 << 20, true), 8 << 20);
        assert_eq!(host_page_align((8 << 20) + 4096, true), 10 << 20);
        assert_eq!(host_page_align(12 << 12, false), 12 << 12);
    }
}
