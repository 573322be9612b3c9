//! Common vocabulary for the evaluation: environments, translation
//! designs, the [`Rig`] trait every design-under-test implements, and
//! [`EnvRig`], the one rig over any environment's [`Machine`].

use crate::backends::{Backend, Translator};
use crate::error::SimError;
use crate::machine::{Machine, NativeMachine};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PageSize, PhysAddr, PhysMemory, TransUnit, VirtAddr};
use dmt_telemetry::ComponentCounters;
use dmt_virt::machine::VirtMachine;
use dmt_virt::nested::NestedMachine;
use dmt_workloads::gen::{Access, Region, Workload};

/// Deployment environment (the paper's three columns of Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Env {
    /// Bare metal.
    Native,
    /// Single-level virtualization.
    Virt,
    /// Nested virtualization (L2 on L1 on L0).
    Nested,
}

impl Env {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Env::Native => "Native",
            Env::Virt => "Virtualized",
            Env::Nested => "NestedVirt",
        }
    }
}

/// Translation design under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Radix walk (Linux / KVM nested paging).
    Vanilla,
    /// Shadow paging (virtualized only).
    Shadow,
    /// Flattened page tables.
    Fpt,
    /// Elastic cuckoo page tables.
    Ecpt,
    /// Agile paging (virtualized only).
    Agile,
    /// ASAP PTE prefetching over the radix walk.
    Asap,
    /// DMT without paravirtualization.
    Dmt,
    /// DMT with paravirtualization (pvDMT). In native mode identical to
    /// [`Design::Dmt`].
    PvDmt,
    /// Virtual Block Interface-style variable-size block table (beyond
    /// the paper; Hajinazar et al.). New variants append at the end:
    /// the discriminant feeds per-design trace seeds.
    Vbi,
    /// Per-VMA base+bound segmentation with a small segment cache
    /// (beyond the paper; Teabe et al.).
    Seg,
}

impl Design {
    /// Every design, in the paper's comparison order — the canonical
    /// iteration set for whole-matrix sweeps (Tables 6 and 7).
    pub const ALL: [Design; 10] = [
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

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Design::Vanilla => "Vanilla",
            Design::Shadow => "Shadow",
            Design::Fpt => "FPT",
            Design::Ecpt => "ECPT",
            Design::Agile => "Agile",
            Design::Asap => "ASAP",
            Design::Dmt => "DMT",
            Design::PvDmt => "pvDMT",
            Design::Vbi => "VBI",
            Design::Seg => "Seg",
        }
    }

    /// Whether the design exists in the given environment (Table 6's
    /// N/A cells) — a query against [`crate::registry`], so the answer
    /// is data (which specs a design registered), not a hand-maintained
    /// match.
    pub fn available_in(self, env: Env) -> bool {
        crate::registry::available(self, env)
    }
}

/// One completed translation, as the engine sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Final physical address.
    pub pa: PhysAddr,
    /// Page size installed in the TLB.
    pub size: PageSize,
    /// Cycles the translation cost.
    pub cycles: u64,
    /// Sequential memory references performed.
    pub refs: u64,
    /// Whether a DMT design fell back to the hardware walker.
    pub fallback: bool,
    /// Variable-size reach this translation covers (VBI blocks,
    /// segmentation VMAs). `None` for page-granular designs — the
    /// engine then fills the TLB at `size` granularity as before;
    /// `Some` routes the fill to [`dmt_cache::tlb::Tlb::fill_unit`].
    /// PA-contiguity over the reach is the emitting design's contract.
    pub unit: Option<TransUnit>,
}

/// Everything the block engine needs back from one batched element:
/// the translation itself plus the data access and per-level PTE-fetch
/// attribution the scalar path would have derived inline. Produced by
/// [`Rig::translate_batch`] so the engine can reconcile statistics and
/// telemetry once per block instead of once per access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The completed translation.
    pub tr: Translation,
    /// Where the subsequent data access hit.
    pub data_level: dmt_cache::hierarchy::HitLevel,
    /// Cycles the data access cost.
    pub data_cycles: u64,
    /// PTE fetches per memory level `[L1, L2, LLC, DRAM]` — the
    /// [`HierarchyStats`](dmt_cache::hierarchy::HierarchyStats) delta
    /// across the translation, in the same shape the scalar engine
    /// feeds `Probe::pte_fetch`.
    pub pte: [u64; 4],
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            tr: Translation {
                pa: PhysAddr(0),
                size: PageSize::Size4K,
                cycles: 0,
                refs: 0,
                fallback: false,
                unit: None,
            },
            data_level: dmt_cache::hierarchy::HitLevel::L1,
            data_cycles: 0,
            pte: [0; 4],
        }
    }
}

/// Structure-of-arrays buffer for one engine block's outcomes: every
/// [`Outcome`] field stored as its own parallel column, plus the PTE
/// charges as a `[level][element]` matrix (DMT's one-hot per-level
/// charge writes one cell; radix walks write a short column run). The
/// engine reconciles statistics column-wise — dense `u64` sums the
/// compiler can vectorize — which is bit-identical to per-element
/// reconciliation because every aggregated counter is a commutative
/// `u64` sum (DESIGN.md §13).
///
/// Backends never see the whole block: [`Rig::translate_batch`] hands
/// them an [`OutcomeRows`] window over the run they are translating,
/// and the scalar reference path writes whole rows through the same
/// view, so the bit-identity proofs stay one code path.
#[derive(Debug, Clone, Default)]
pub struct OutcomeBlock {
    /// Final physical address per element ([`Translation::pa`]).
    pub pa: Vec<u64>,
    /// Installed page size per element ([`Translation::size`]).
    pub size: Vec<PageSize>,
    /// Translation cycles per element ([`Translation::cycles`]).
    pub cycles: Vec<u64>,
    /// Sequential references per element ([`Translation::refs`]).
    pub refs: Vec<u64>,
    /// Hardware-walker fallback flag per element
    /// ([`Translation::fallback`]).
    pub fault: Vec<bool>,
    /// Data-access hit level per element ([`Outcome::data_level`]).
    pub data_level: Vec<dmt_cache::hierarchy::HitLevel>,
    /// Data-access cycles per element ([`Outcome::data_cycles`]).
    pub data_cycles: Vec<u64>,
    /// PTE-fetch charge matrix, `pte[mem_level][element]` in
    /// `[L1, L2, LLC, DRAM]` order ([`Outcome::pte`] transposed).
    pub pte: [Vec<u64>; 4],
    /// Variable-reach base VA per element ([`Translation::unit`]);
    /// meaningful only where `unit_len` is non-zero.
    pub unit_base: Vec<u64>,
    /// Variable-reach length per element; `0` encodes `None` (a length
    /// of zero is not a valid [`TransUnit`]).
    pub unit_len: Vec<u64>,
}

impl OutcomeBlock {
    /// Clear and resize every column to `n` default rows.
    pub fn reset(&mut self, n: usize) {
        self.pa.clear();
        self.pa.resize(n, 0);
        self.size.clear();
        self.size.resize(n, PageSize::Size4K);
        self.cycles.clear();
        self.cycles.resize(n, 0);
        self.refs.clear();
        self.refs.resize(n, 0);
        self.fault.clear();
        self.fault.resize(n, false);
        self.data_level.clear();
        self.data_level
            .resize(n, dmt_cache::hierarchy::HitLevel::L1);
        self.data_cycles.clear();
        self.data_cycles.resize(n, 0);
        for col in &mut self.pte {
            col.clear();
            col.resize(n, 0);
        }
        self.unit_base.clear();
        self.unit_base.resize(n, 0);
        self.unit_len.clear();
        self.unit_len.resize(n, 0);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.pa.len()
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.pa.is_empty()
    }

    /// Write a whole row from an [`Outcome`].
    pub fn set(&mut self, i: usize, o: &Outcome) {
        self.pa[i] = o.tr.pa.raw();
        self.size[i] = o.tr.size;
        self.cycles[i] = o.tr.cycles;
        self.refs[i] = o.tr.refs;
        self.fault[i] = o.tr.fallback;
        self.data_level[i] = o.data_level;
        self.data_cycles[i] = o.data_cycles;
        for (level, col) in self.pte.iter_mut().enumerate() {
            col[i] = o.pte[level];
        }
        let (ub, ul) = match o.tr.unit {
            Some(u) => (u.base.raw(), u.len),
            None => (0, 0),
        };
        self.unit_base[i] = ub;
        self.unit_len[i] = ul;
    }

    /// Reassemble row `i` as an [`Outcome`].
    pub fn get(&self, i: usize) -> Outcome {
        Outcome {
            tr: Translation {
                pa: PhysAddr(self.pa[i]),
                size: self.size[i],
                cycles: self.cycles[i],
                refs: self.refs[i],
                fallback: self.fault[i],
                unit: (self.unit_len[i] != 0).then(|| TransUnit {
                    base: VirtAddr(self.unit_base[i]),
                    len: self.unit_len[i],
                }),
            },
            data_level: self.data_level[i],
            data_cycles: self.data_cycles[i],
            pte: [
                self.pte[0][i],
                self.pte[1][i],
                self.pte[2][i],
                self.pte[3][i],
            ],
        }
    }

    /// A mutable window over rows `range`, for handing a pending run to
    /// [`Rig::translate_batch`]. Indices inside the view are
    /// run-relative (`0..range.len()`).
    pub fn rows(&mut self, range: std::ops::Range<usize>) -> OutcomeRows<'_> {
        debug_assert!(range.end <= self.len());
        OutcomeRows {
            start: range.start,
            len: range.end - range.start,
            block: self,
        }
    }
}

/// A mutable row window into an [`OutcomeBlock`] — what
/// [`Rig::translate_batch`] fills. Backends either write whole rows
/// ([`set`](Self::set), the scalar reference path) or individual
/// columns ([`set_translation`](Self::set_translation),
/// [`set_pte_onehot`](Self::set_pte_onehot), …) when they already have
/// the data column-shaped.
pub struct OutcomeRows<'a> {
    block: &'a mut OutcomeBlock,
    start: usize,
    len: usize,
}

impl OutcomeRows<'_> {
    /// Rows in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write a whole row.
    pub fn set(&mut self, i: usize, o: &Outcome) {
        debug_assert!(i < self.len);
        self.block.set(self.start + i, o);
    }

    /// Reassemble row `i` as an [`Outcome`].
    pub fn get(&self, i: usize) -> Outcome {
        debug_assert!(i < self.len);
        self.block.get(self.start + i)
    }

    /// Write the translation columns of row `i`.
    pub fn set_translation(&mut self, i: usize, tr: &Translation) {
        debug_assert!(i < self.len);
        let j = self.start + i;
        self.block.pa[j] = tr.pa.raw();
        self.block.size[j] = tr.size;
        self.block.cycles[j] = tr.cycles;
        self.block.refs[j] = tr.refs;
        self.block.fault[j] = tr.fallback;
        let (ub, ul) = match tr.unit {
            Some(u) => (u.base.raw(), u.len),
            None => (0, 0),
        };
        self.block.unit_base[j] = ub;
        self.block.unit_len[j] = ul;
    }

    /// Write the data-access columns of row `i`.
    pub fn set_data(
        &mut self,
        i: usize,
        level: dmt_cache::hierarchy::HitLevel,
        cycles: u64,
    ) {
        debug_assert!(i < self.len);
        let j = self.start + i;
        self.block.data_level[j] = level;
        self.block.data_cycles[j] = cycles;
    }

    /// Write the full PTE-charge row of element `i`.
    pub fn set_pte(&mut self, i: usize, pte: [u64; 4]) {
        debug_assert!(i < self.len);
        let j = self.start + i;
        for (level, col) in self.block.pte.iter_mut().enumerate() {
            col[j] = pte[level];
        }
    }

    /// Charge exactly one PTE fetch at `level` for element `i` — the
    /// one-hot write DMT's fetcher path uses (the block was reset to
    /// zero, so no other cell needs touching).
    pub fn set_pte_onehot(&mut self, i: usize, level: usize) {
        debug_assert!(i < self.len);
        self.block.pte[level][self.start + i] = 1;
    }
}

/// Per-level PTE-fetch deltas between two hierarchy snapshots, in
/// `[L1, L2, LLC, DRAM]` order — the batched twin of the scalar
/// engine's diff around `translate`.
pub fn pte_delta(
    before: dmt_cache::hierarchy::HierarchyStats,
    after: dmt_cache::hierarchy::HierarchyStats,
) -> [u64; 4] {
    [
        after.l1_hits - before.l1_hits,
        after.l2_hits - before.l2_hits,
        after.llc_hits - before.llc_hits,
        after.dram_accesses - before.dram_accesses,
    ]
}

/// The reference leaf entry a software radix walk produces for a VA —
/// what the oracle compares every design's [`Translation`] against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefEntry {
    /// Ground-truth physical address (same space as [`Rig::data_pa`]).
    pub pa: PhysAddr,
    /// Leaf size in the reference tree.
    pub size: PageSize,
    /// Leaf is writable.
    pub writable: bool,
    /// Leaf is user-accessible.
    pub user: bool,
}

/// A design-under-test: owns all machine state and serves translations.
pub trait Rig {
    /// The design.
    fn design(&self) -> Design;

    /// The environment.
    fn env(&self) -> Env;

    /// Whether THP is active.
    fn thp(&self) -> bool;

    /// Log2 of the largest reach one TLB fill from this rig can cover
    /// — what the batched engine keys its region-disjointness on: two
    /// pending misses whose VAs share `va >> fill_shift()` may resolve
    /// to one fill, so they must flush in separate runs. Fixed-page
    /// designs return the page shift of their largest fill (21 under
    /// THP, 12 otherwise); variable-reach designs (VBI, segmentation)
    /// return 63 — any two VAs may share a unit, so every miss run is a
    /// single element and batching degenerates to scalar order exactly.
    fn fill_shift(&self) -> u32 {
        if self.thp() {
            21
        } else {
            12
        }
    }

    /// Serve a translation for `va`, charging `hier`.
    ///
    /// # Panics
    ///
    /// Panics if `va` was never populated (the engine populates every
    /// region during setup).
    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation;

    /// Software ground-truth translation (for charging the data access
    /// itself without involving the translation machinery).
    fn data_pa(&self, va: VirtAddr) -> PhysAddr;

    /// Translate a run of TLB-missing accesses in one call, charging
    /// `hier` for each element's walk *and* data access in scalar
    /// order, and filling row `i` of `out` for `accesses[i]`.
    ///
    /// The contract is bit-identity with the scalar path: the sequence
    /// of memory-hierarchy and walk-cache operations must be exactly
    /// what per-element `translate` + data `hier.access` would issue
    /// (DESIGN.md §13). The default does literally that, writing whole
    /// rows through the SoA view; backends override it to hoist lookup
    /// machinery once per run and write columns directly.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer rows than `accesses`, or (like
    /// [`translate`](Self::translate)) on unpopulated addresses.
    fn translate_batch(
        &mut self,
        accesses: &[Access],
        hier: &mut MemoryHierarchy,
        out: &mut OutcomeRows<'_>,
    ) {
        for (i, a) in accesses.iter().enumerate() {
            let before = hier.stats();
            let tr = self.translate(a.va, hier);
            out.set_pte(i, pte_delta(before, hier.stats()));
            out.set_translation(i, &tr);
            let pa = self.data_pa(a.va);
            let (level, cycles) = hier.access(pa.raw());
            out.set_data(i, level, cycles);
        }
    }

    /// Full reference entry (PA + size + permissions) from the rig's own
    /// software ground truth, for the differential oracle. `None` means
    /// either the page is unmapped or the rig does not expose flags; the
    /// oracle then falls back to [`data_pa`](Self::data_pa) alone.
    fn ref_translate(&self, _va: VirtAddr) -> Option<RefEntry> {
        None
    }

    /// VM exits attributable to this design during setup + run (shadow
    /// syncs, hypercalls); used by the §5 execution-time model.
    fn exits(&self) -> u64 {
        0
    }

    /// Page faults served during setup (normalizes exit ratios).
    fn faults(&self) -> u64 {
        0
    }

    /// DMT fetcher coverage ratio so far (1.0 for non-DMT designs).
    fn coverage(&self) -> f64 {
        1.0
    }

    /// End-of-run component counters (PWC, allocator, OS layer) for the
    /// telemetry probe. Must be read-only: the engine calls this after
    /// the last access, and a telemetry-on run must stay bit-identical
    /// to a telemetry-off run.
    fn component_counters(&self) -> ComponentCounters {
        ComponentCounters::default()
    }

    /// Read-only memory-health snapshot for the periodic sampler:
    /// `(fragmentation index at the 2 MiB order, resident data frames)`.
    /// `None` when the rig exposes no allocator.
    fn frag_sample(&self) -> Option<(f64, u64)> {
        None
    }

    /// Exchange the rig's machine-level physical memory with `pm`
    /// (`mem::swap`). The multi-tenant cloud node owns one shared
    /// `PhysMemory` and lends it to the tenant scheduled on the core;
    /// every tenant's tables and data coexist in that one allocator, so
    /// churn ages fragmentation node-wide. Returns `false` (and must
    /// not touch `pm`) when the rig has no host-level allocator to
    /// share.
    fn swap_phys(&mut self, _pm: &mut dmt_mem::PhysMemory) -> bool {
        false
    }

    /// Exchange the rig's hardware page-walk cache with `pwc`
    /// (`mem::swap`) — the cloud node shares one ASID-tagged PWC across
    /// tenants the way one socket does. Returns `false` (leaving `pwc`
    /// untouched) when the rig's walk caches are not swappable (the
    /// virtualized rigs keep theirs machine-internal).
    fn swap_pwc(&mut self, _pwc: &mut dmt_cache::PageWalkCache) -> bool {
        false
    }

    /// Tenant departure: release what the rig can give back to the
    /// shared allocator (`munmap` every VMA — page-table and TEA frames
    /// are freed, data frames follow the OS model's leak-on-unmap
    /// simplification). Returns the number of TLB shootdowns the
    /// teardown issued. Rigs without a reclaim path return 0.
    fn release_memory(&mut self) -> u64 {
        0
    }

    /// Drop every machine-internal translation cache (PWCs the machine
    /// owns, shadow walk caches). The cloud node calls this on context
    /// switches for untagged hardware; rigs with no internal caches do
    /// nothing.
    fn flush_translation_caches(&mut self) {}

    /// Deterministic hash of the rig's physical-allocator state, or
    /// `None` when the rig exposes no allocator. Sharded replay asserts
    /// every shard's rig ends with the identical image (replay never
    /// mutates allocation state), and the shard-equivalence suite
    /// compares it against the serial reference.
    fn alloc_state_hash(&self) -> Option<u64> {
        None
    }
}

impl Rig for Box<dyn Rig> {
    fn design(&self) -> Design {
        (**self).design()
    }

    fn env(&self) -> Env {
        (**self).env()
    }

    fn thp(&self) -> bool {
        (**self).thp()
    }

    fn fill_shift(&self) -> u32 {
        (**self).fill_shift()
    }

    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        (**self).translate(va, hier)
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        (**self).data_pa(va)
    }

    fn translate_batch(
        &mut self,
        accesses: &[Access],
        hier: &mut MemoryHierarchy,
        out: &mut OutcomeRows<'_>,
    ) {
        (**self).translate_batch(accesses, hier, out)
    }

    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry> {
        (**self).ref_translate(va)
    }

    fn exits(&self) -> u64 {
        (**self).exits()
    }

    fn faults(&self) -> u64 {
        (**self).faults()
    }

    fn coverage(&self) -> f64 {
        (**self).coverage()
    }

    fn component_counters(&self) -> ComponentCounters {
        (**self).component_counters()
    }

    fn frag_sample(&self) -> Option<(f64, u64)> {
        (**self).frag_sample()
    }

    fn swap_phys(&mut self, pm: &mut dmt_mem::PhysMemory) -> bool {
        (**self).swap_phys(pm)
    }

    fn swap_pwc(&mut self, pwc: &mut dmt_cache::PageWalkCache) -> bool {
        (**self).swap_pwc(pwc)
    }

    fn release_memory(&mut self) -> u64 {
        (**self).release_memory()
    }

    fn flush_translation_caches(&mut self) {
        (**self).flush_translation_caches()
    }

    fn alloc_state_hash(&self) -> Option<u64> {
        (**self).alloc_state_hash()
    }
}

/// A machine of environment `M` running one workload under one design:
/// the machine state plus the registry-built backend that serves its
/// translations. Every environment-specific decision is the
/// [`Machine`]'s, every design-specific one the backend's.
pub struct EnvRig<M: Machine> {
    m: M,
    backend: M::Backend,
    thp: bool,
}

/// A bare-metal rig.
pub type NativeRig = EnvRig<NativeMachine>;
/// A single-level virtualized rig.
pub type VirtRig = EnvRig<VirtMachine>;
/// A nested (L0/L1/L2) rig (Figure 17).
pub type NestedRig = EnvRig<NestedMachine>;

impl<M: Machine> EnvRig<M> {
    /// Build the machine: map and populate the workload's touched
    /// pages, then construct the design's translation structures.
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no backend for
    /// `design` in this environment.
    pub fn new(
        design: Design,
        thp: bool,
        workload: &dyn Workload,
        trace: &[Access],
    ) -> Result<Self, SimError> {
        Self::with_setup(design, thp, &Setup::of_workload(workload, trace))
    }

    /// Build the machine from a [`Setup`] — regions plus touched pages —
    /// with no workload generator in sight (the trace-replay path).
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_setup(design: Design, thp: bool, setup: &Setup) -> Result<Self, SimError> {
        let pm = PhysMemory::new_bytes(M::host_bytes(thp, setup));
        Self::with_setup_in(pm, design, thp, setup)
    }

    /// Build the machine inside an existing physical memory — the
    /// multi-tenant cloud-node path, where tenants carve their backing
    /// out of one shared buddy allocator. The rig takes ownership of
    /// `pm`; the node lends it back and forth with [`Rig::swap_phys`]
    /// on context switches.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_setup_in(
        pm: PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<Self, SimError> {
        let spec = crate::registry::spec::<M>(design)?;
        let (m, backend) = M::build(pm, spec, thp, setup)?;
        Ok(EnvRig { m, backend, thp })
    }

    /// The underlying machine (oracle audits, experiment probes).
    pub fn machine(&self) -> &M {
        &self.m
    }

    /// Mutable access for experiment-specific drives (e.g. Figure 16's
    /// step traces).
    pub fn machine_mut(&mut self) -> &mut M {
        &mut self.m
    }
}

impl<M: Machine> Rig for EnvRig<M> {
    fn design(&self) -> Design {
        self.backend.design()
    }

    fn env(&self) -> Env {
        M::ENV
    }

    fn thp(&self) -> bool {
        self.thp
    }

    fn fill_shift(&self) -> u32 {
        self.backend.fill_shift(self.thp)
    }

    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        self.backend.translate(&mut self.m, va, hier)
    }

    fn translate_batch(
        &mut self,
        accesses: &[Access],
        hier: &mut MemoryHierarchy,
        out: &mut OutcomeRows<'_>,
    ) {
        self.backend
            .translate_batch(&mut self.m, accesses, hier, out)
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        self.m.data_pa(va)
    }

    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry> {
        self.backend.ref_translate(&self.m, va)
    }

    fn exits(&self) -> u64 {
        self.backend.exits(&self.m)
    }

    fn faults(&self) -> u64 {
        self.m.faults()
    }

    fn coverage(&self) -> f64 {
        self.backend.coverage()
    }

    fn component_counters(&self) -> ComponentCounters {
        let alloc = self.m.pm().buddy().alloc_counters();
        ComponentCounters {
            alloc_splits: alloc.splits,
            alloc_merges: alloc.merges,
            compactions: alloc.compactions,
            ..self.m.component_counters()
        }
    }

    fn frag_sample(&self) -> Option<(f64, u64)> {
        let b = self.m.pm().buddy();
        let rss = b.allocated_of_kind(FrameKind::Data) + b.allocated_of_kind(FrameKind::HugeData);
        Some((dmt_mem::frag::fragmentation_index(b, 9), rss))
    }

    fn swap_phys(&mut self, pm: &mut PhysMemory) -> bool {
        std::mem::swap(self.m.pm_mut(), pm);
        true
    }

    fn swap_pwc(&mut self, pwc: &mut dmt_cache::PageWalkCache) -> bool {
        self.m.swap_pwc(pwc)
    }

    fn release_memory(&mut self) -> u64 {
        self.m.release_memory()
    }

    fn flush_translation_caches(&mut self) {
        self.m.flush_pwcs();
        self.backend.flush_caches();
    }

    fn alloc_state_hash(&self) -> Option<u64> {
        Some(self.m.pm().buddy().state_hash())
    }
}

/// [`EnvRig::with_setup_in`] for some machine type, boxed.
type BuildIn = fn(PhysMemory, Design, bool, &Setup) -> Result<Box<dyn Rig>, SimError>;

/// An environment's rig constructors as plain functions, so callers
/// can pick the machine type by [`Env`] value.
pub(crate) struct EnvRigOps {
    /// [`Machine::host_bytes`] of the environment's machine.
    pub host_bytes: fn(bool, &Setup) -> u64,
    /// Build the environment's rig inside a given physical memory.
    pub build_in: BuildIn,
}

impl EnvRigOps {
    fn of<M: Machine>() -> EnvRigOps {
        EnvRigOps {
            host_bytes: M::host_bytes,
            build_in: |pm, design, thp, setup| {
                Ok(Box::new(EnvRig::<M>::with_setup_in(
                    pm, design, thp, setup,
                )?))
            },
        }
    }

    /// The rig constructors for `env` — the crate's one `match env`
    /// that picks a machine type.
    pub(crate) fn of_env(env: Env) -> EnvRigOps {
        match env {
            Env::Native => Self::of::<NativeMachine>(),
            Env::Virt => Self::of::<VirtMachine>(),
            Env::Nested => Self::of::<NestedMachine>(),
        }
    }
}

/// Everything a rig needs to build its machine, decoupled from the
/// [`Workload`](dmt_workloads::gen::Workload) that generated the trace:
/// the VMAs to map and the pages the trace touches. Replay can build
/// one straight from a trace file's header, with no generator around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Setup {
    /// The VMAs to map before the trace runs.
    pub regions: Vec<Region>,
    /// Unique, sorted 4 KiB page bases the trace touches (see
    /// [`touched_pages`]).
    pub pages: Vec<VirtAddr>,
}

impl Setup {
    /// A setup from explicit regions and an access stream.
    pub fn new(regions: Vec<Region>, trace: &[Access]) -> Setup {
        Setup {
            regions,
            pages: touched_pages(trace),
        }
    }

    /// Capture a live workload's regions plus the trace's touched pages.
    pub fn of_workload(w: &dyn dmt_workloads::gen::Workload, trace: &[Access]) -> Setup {
        Setup::new(w.regions(), trace)
    }

    /// Total mapped bytes.
    pub fn footprint(&self) -> u64 {
        self.regions.iter().map(|r| r.len).sum()
    }
}

/// Cluster a workload's regions for `mmap`-time TEA creation, the way
/// DMT-Linux clusters adjacent VMAs (§4.2.1): merge regions whose
/// table-span-rounded TEA coverages would overlap (mandatory — two
/// mappings must never own one table page) or whose bubbles stay within
/// the 2% budget.
pub fn cluster_regions(regions: &[Region], thp: bool) -> Vec<(VirtAddr, u64)> {
    // The coarsest table span in play decides rounding: 2 MiB spans for
    // 4 KiB TEAs, 1 GiB spans when THP adds 2 MiB TEAs.
    let span = if thp {
        512 * PageSize::Size2M.bytes()
    } else {
        512 * PageSize::Size4K.bytes()
    };
    let mut spans: Vec<(u64, u64)> = regions.iter().map(|r| (r.base.raw(), r.len)).collect();
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (base, len) in spans {
        match out.last_mut() {
            Some((cb, cl)) => {
                let cur_end_rounded = (*cb + *cl).div_ceil(span) * span;
                let new_start_rounded = base / span * span;
                let gap = base.saturating_sub(*cb + *cl);
                let overlap = new_start_rounded < cur_end_rounded;
                let small_bubble =
                    gap as f64 / (base + len - *cb) as f64 <= 0.02;
                if overlap || small_bubble {
                    *cl = (base + len) - *cb;
                } else {
                    out.push((base, len));
                }
            }
            None => out.push((base, len)),
        }
    }
    out.into_iter().map(|(b, l)| (VirtAddr(b), l)).collect()
}

/// The unique 4 KiB page bases a trace touches, sorted. Population and
/// auxiliary-table construction are driven by this set, so setup cost
/// scales with the trace rather than the (multi-GiB) footprint.
pub fn touched_pages(trace: &[Access]) -> Vec<VirtAddr> {
    let mut pages: Vec<u64> = trace
        .iter()
        .map(|a| a.va.align_down(PageSize::Size4K).raw())
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages.into_iter().map(VirtAddr).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_workloads::gen::Access;

    fn region(base: u64, len: u64) -> Region {
        Region {
            base: VirtAddr(base),
            len,
            label: "r",
        }
    }

    #[test]
    fn touched_pages_dedups_and_sorts() {
        let trace = vec![
            Access::read(VirtAddr(0x5000)),
            Access::read(VirtAddr(0x1234)),
            Access::read(VirtAddr(0x5fff)),
            Access::write(VirtAddr(0x1000)),
        ];
        assert_eq!(
            touched_pages(&trace),
            vec![VirtAddr(0x1000), VirtAddr(0x5000)]
        );
        assert!(touched_pages(&[]).is_empty());
    }

    #[test]
    fn overlapping_rounded_coverage_forces_merge() {
        // Two regions 8 KiB apart: their 2 MiB-rounded TEA coverages
        // overlap, so they must merge regardless of bubble budget.
        let rs = [region(0, 4 << 20), region((4 << 20) + 8192, 4 << 20)];
        let c = cluster_regions(&rs, false);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, VirtAddr(0));
        assert_eq!(c[0].1, (8 << 20) + 8192);
    }

    #[test]
    fn distant_regions_stay_apart() {
        let rs = [region(0, 4 << 20), region(1 << 40, 4 << 20)];
        assert_eq!(cluster_regions(&rs, false).len(), 2);
        // THP rounding (1 GiB spans) merges anything within a span.
        let rs = [region(0, 4 << 20), region(512 << 20, 4 << 20)];
        assert_eq!(cluster_regions(&rs, true).len(), 1);
        assert_eq!(cluster_regions(&rs, false).len(), 2);
    }

    #[test]
    fn small_bubbles_merge_per_paper_rule() {
        // 1 MiB gap over a ~104 MiB span: < 2% bubbles.
        let rs = [region(0, 100 << 20), region(101 << 20, 4 << 20)];
        assert_eq!(cluster_regions(&rs, false).len(), 1);
        // 10 MiB gap over ~50 MiB: way past the budget (and rounded
        // coverages don't touch).
        let rs = [region(0, 20 << 20), region(30 << 20, 20 << 20)];
        assert_eq!(cluster_regions(&rs, false).len(), 2);
    }

    #[test]
    fn unsorted_regions_are_handled() {
        let rs = [region(1 << 40, 4 << 20), region(0, 4 << 20)];
        let c = cluster_regions(&rs, false);
        assert_eq!(c.len(), 2);
        assert!(c[0].0 < c[1].0, "output sorted by base");
    }
}
