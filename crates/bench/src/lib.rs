//! Shared plumbing for the benchmarks.
//!
//! The criterion targets time the translation kernels behind each
//! table or figure of the paper; the figures themselves come from one
//! driver, `cargo run --release --example paper_figures`. End-to-end
//! performance is measured by the repository benchmark, `perfbench/`.
//! The `shard_bench` binary measures sharded replay, which that
//! benchmark has no workload for; `--full` switches it to the
//! paper-regime scale.

pub mod shards;
