//! Shared plumbing for the benchmarks.
//!
//! The criterion targets time the translation kernels behind each
//! table or figure of the paper; the figures themselves come from one
//! driver, `cargo run --release --example paper_figures`. The
//! `perf_harness` and `shard_bench` binaries measure the replay engine;
//! `DMT_FULL=1` switches them to the paper-regime scale.

pub mod harness;
pub mod shards;

use dmt_sim::experiments::Scale;

/// The experiment scale: `DMT_FULL=1` selects the paper-regime scale,
/// otherwise the reduced test scale.
pub fn bench_scale() -> Scale {
    if std::env::var("DMT_FULL").as_deref() == Ok("1") {
        Scale::default()
    } else {
        Scale::test()
    }
}
