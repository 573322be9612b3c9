//! One tenant of the node: its materialized workload trace, the rig
//! for the current incarnation, and the build/rebuild paths that
//! thread the node's shared physical memory through construction.

use crate::cloudnode::config::TenantSpec;
use crate::engine::RunStats;
use crate::error::SimError;
use crate::experiments::{scaled_benchmark, Scale};
use crate::rig::{Design, EnvRigOps, Rig, Setup};
use crate::runner::Runner;
use dmt_mem::PhysMemory;
use dmt_workloads::gen::Access;

/// A tenant's immutable ingredients, materialized before any physical
/// memory is provisioned (the shared pool is sized from these).
pub(crate) struct TenantSeed {
    pub spec: TenantSpec,
    pub workload: String,
    pub setup: Setup,
    pub trace: Vec<Access>,
}

impl TenantSeed {
    /// Generate tenant `index`'s trace and setup, seeded
    /// `0xD317 ^ design ^ index << 32`. The one-tenant equivalence tests
    /// rebuild tenant 0's trace from that seed and replay it on a
    /// standalone rig.
    pub(crate) fn materialize(
        spec: TenantSpec,
        index: usize,
        design: Design,
        thp: bool,
        scale: Scale,
    ) -> Result<TenantSeed, SimError> {
        let w = scaled_benchmark(spec.bench, scale, thp).ok_or(SimError::BenchIndex {
            index: spec.bench,
            count: dmt_workloads::bench7::BENCH7_COUNT,
        })?;
        let seed = 0xD317 ^ design as u64 ^ ((index as u64) << 32);
        let trace = w.trace(scale.total(), seed);
        let setup = Setup::of_workload(w.as_ref(), &trace);
        Ok(TenantSeed {
            spec,
            workload: w.name().to_string(),
            setup,
            trace,
        })
    }

    /// Host (L0) bytes a standalone rig would provision for this
    /// tenant — the node's shared memory is sized as the sum of these.
    pub(crate) fn host_bytes(&self, thp: bool) -> u64 {
        (EnvRigOps::of_env(self.spec.env).host_bytes)(thp, &self.setup)
    }
}

/// One live tenant: the seed, the current incarnation's rig, and the
/// scheduler-visible run state (cumulative across churn rebuilds).
pub(crate) struct Tenant {
    pub spec: TenantSpec,
    pub workload: String,
    pub setup: Setup,
    pub trace: Vec<Access>,
    pub rig: Box<dyn Rig>,
    /// The tenant's translation-cache tag (always 0 on untagged nodes).
    pub asid: u16,
    /// Position in the trace for the current incarnation.
    pub pos: usize,
    /// Engine statistics, cumulative across incarnations.
    pub stats: RunStats,
    pub incarnations: u32,
    /// DMT fetcher coverage of the latest incarnation.
    pub coverage: f64,
    /// Whether the node's shared PWC is currently swapped into the rig.
    pub pwc_lent: bool,
}

impl Tenant {
    /// First incarnation: build the rig inside `pm` (the node threads
    /// the shared memory through and reclaims it via `swap_phys`),
    /// wrapped by the runner's rig wrapper (the oracle's entry point).
    pub(crate) fn build(
        seed: TenantSeed,
        pm: PhysMemory,
        runner: &Runner,
        design: Design,
        thp: bool,
        asid: u16,
    ) -> Result<Tenant, SimError> {
        let rig = runner.build_rig_in(pm, seed.spec.env, design, thp, &seed.setup)?;
        Ok(Tenant {
            spec: seed.spec,
            workload: seed.workload,
            setup: seed.setup,
            trace: seed.trace,
            rig,
            asid,
            pos: 0,
            stats: RunStats::default(),
            incarnations: 1,
            coverage: 1.0,
            pwc_lent: false,
        })
    }

    /// Churn rebuild: a fresh rig over the same workload and trace,
    /// allocating from the (now aged) shared buddy, restarting the
    /// trace cold. Statistics keep accumulating across incarnations.
    pub(crate) fn rebuild(
        &mut self,
        pm: PhysMemory,
        runner: &Runner,
        design: Design,
        thp: bool,
        asid: u16,
    ) -> Result<(), SimError> {
        self.rig = runner.build_rig_in(pm, self.spec.env, design, thp, &self.setup)?;
        self.asid = asid;
        self.pos = 0;
        self.incarnations += 1;
        self.pwc_lent = false;
        Ok(())
    }
}
