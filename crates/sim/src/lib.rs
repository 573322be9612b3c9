//! The evaluation harness: rigs for every (environment × design) pair,
//! the trace-driven engine, the §5 execution-time model, and one runner
//! per table/figure of the paper.
//!
//! * [`rig`] — the [`rig::Rig`] trait, [`rig::Design`], [`rig::Env`],
//!   and the one generic rig [`rig::EnvRig`] (`NativeRig` / `VirtRig` /
//!   `NestedRig` are its aliases).
//! * [`machine`] — the [`machine::Machine`] trait: everything the three
//!   environments differ in (build, sizing, ground truth, walk caches).
//! * [`backends`] — one module per design: its auxiliary-structure
//!   setup, [`backends::Translator`] path per environment, and
//!   reference ground truth.
//! * [`registry`] — the (design × environment) table the rigs and
//!   `Design::available_in` query; Table 6's N/A cells live here.
//! * [`engine`] — TLB → translate → data-access loop with statistics,
//!   and the one replay driver the runner, the shards and the cloud
//!   node share: batched by default, with the scalar reference loop
//!   selectable as [`runner::Engine::Scalar`].
//! * [`perfmodel`] — the calibrated execution-time model (see DESIGN.md
//!   for the substitution rationale).
//! * [`experiments`] — Figure 4/14/15/16/17 and Table 5/6/7 runners;
//!   Figures 4/14/15/17 are views over one shared-trace sweep.
//! * [`overheads`] — the §6.3 management/hypercall/memory overheads.
//! * [`ablation`] — design-choice sweeps (register count, bubble
//!   threshold, register policy, eager allocation).
//! * [`runner`] — the unified [`runner::Runner`] entry point, the
//!   shared-trace materialization stage, and the workspace's single
//!   environment-read site ([`runner::env_config`]).
//! * [`shard`] — sharded intra-trace parallel replay: K epoch-aligned
//!   shards on scoped threads, bit-identical to the serial
//!   epoch-barrier reference (DESIGN.md §14).
//! * [`sweep`] — parallel (env × design × THP × benchmark) sweeps over
//!   the shared trace pool, with JSON reports.
//! * [`cloudnode`] — the multi-tenant cloud-node scenario engine:
//!   N tenants over one shared physical memory and ASID-tagged
//!   TLB/PWC, with kill/restart churn and Table 7's node-level sweep.
//! * [`error`] — the [`error::SimError`] taxonomy.
//! * [`report`] — ASCII tables and the hand-rolled JSON value.
//!
//! # Example
//!
//! ```no_run
//! use dmt_sim::experiments::{figures, Scale};
//! use dmt_sim::Runner;
//! let figs = figures(&Runner::from_env(), Scale::test()).unwrap();
//! for (thp, rows) in &figs.fig15.modes {
//!     for r in rows {
//!         println!("{} {:?} thp={} pw={:.2}x app={:.2}x",
//!                  r.workload, r.design, thp, r.pw_speedup, r.app_speedup);
//!     }
//! }
//! ```

pub mod ablation;
pub mod backends;
pub mod cloudnode;
pub mod engine;
pub mod error;
pub mod experiments;
pub mod machine;
pub mod overheads;
pub mod perfmodel;
pub mod registry;
pub mod report;
pub mod rig;
pub mod runner;
pub mod shard;
pub mod sweep;

pub use cloudnode::{ChurnConfig, NodeConfig, NodeStats, Tagging, TenantSpec, TenantStats};
pub use engine::{ratio, RunStats};
pub use error::SimError;
pub use experiments::{fig16, figures, table5, table6, table7, Figures, Scale, Table7Row};
pub use rig::{Design, Env, Outcome, OutcomeBlock, OutcomeRows, RefEntry, Rig, Setup, Translation};
pub use runner::{
    env_config, install_rig_wrapper, Engine, EnvConfig, Runner, RunnerBuilder, TraceSet,
    DEFAULT_EPOCH_LEN, SPILL_CHUNK_LEN,
};
pub use shard::{plan_shards, ShardSource, ShardSpec, ShardedOutcome};
pub use sweep::{sweep, sweep_serial, SweepConfig, SweepReport, SweepRow};
