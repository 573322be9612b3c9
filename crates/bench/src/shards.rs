//! The sharded-replay perf harness (the `shard_bench` binary).
//!
//! One large seekable (v2) GUPS trace is captured to disk once, then
//! replayed through [`Runner::replay_sharded`] at 1/2/4/8 shards for a
//! pair of native cells. Before any timing, each shard count's merged
//! [`RunStats`] are checked bit-identical to the serial epoch-barrier
//! reference ([`Runner::replay_epochs_serial`]) — the same gate the
//! property suite enforces, here as a hard precondition of reporting
//! numbers at all. The report serializes as schema `dmt-bench-v1`
//! (`BENCH_8.json`); it records `host_threads` because shard scaling is
//! meaningless without knowing how many cores the host could actually
//! run workers on (a 1-core host replays K shards sequentially).

use dmt_sim::engine::RunStats;
use dmt_sim::report::Json;
use dmt_sim::rig::{Design, Env, Setup};
use dmt_sim::shard::ShardSource;
use dmt_sim::{Runner, SimError};
use dmt_trace::TraceFile;
use dmt_workloads::bench7::Gups;
use dmt_workloads::gen::Workload;
use std::time::Instant;

/// Scale of the sharded-replay measurement.
#[derive(Debug, Clone, Copy)]
pub struct ShardScale {
    /// Total accesses in the captured trace.
    pub accesses: usize,
    /// Unmeasured warmup prefix.
    pub warmup: usize,
    /// GUPS table footprint in bytes.
    pub table_bytes: u64,
}

impl ShardScale {
    /// Paper-regime scale (`shard_bench --full`).
    pub fn full() -> ShardScale {
        ShardScale {
            accesses: 2_000_000,
            warmup: 100_000,
            table_bytes: 160 << 20,
        }
    }

    /// Reduced CI/test scale.
    pub fn test() -> ShardScale {
        ShardScale {
            accesses: 40_000,
            warmup: 4_000,
            table_bytes: 160 << 20,
        }
    }
}

/// Chunk length of the captured trace; the bench replays on the same
/// grid (`epoch_len == chunk_len`) so every shard count is file-alignable.
pub const SHARD_BENCH_CHUNK_LEN: u64 = 4_096;

/// The shard counts the bench sweeps.
pub fn shard_counts() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// The native cells the bench times.
pub fn shard_cells() -> Vec<(Env, Design)> {
    vec![(Env::Native, Design::Vanilla), (Env::Native, Design::Dmt)]
}

/// One (cell, shard count) timing.
#[derive(Debug, Clone, Copy)]
pub struct ShardTiming {
    /// Requested shard count.
    pub shards: usize,
    /// Shards the plan actually produced (collapses for short traces).
    pub planned: usize,
    /// Best-of-repeats wall time for the sharded replay.
    pub best_ns: u64,
    /// Replayed accesses per host second at `best_ns`.
    pub accesses_per_sec: f64,
}

/// One cell's results: the serial reference plus every shard count.
#[derive(Debug, Clone)]
pub struct ShardCellResult {
    pub env: Env,
    pub design: Design,
    pub workload: String,
    /// Serial epoch-barrier reference stats — every shard count matched
    /// these bit-for-bit before timing was recorded.
    pub stats: RunStats,
    /// Best-of-repeats wall time for the serial reference.
    pub serial_ns: u64,
    pub timings: Vec<ShardTiming>,
}

impl ShardCellResult {
    /// Speedup of `k`-shard replay over 1-shard replay, if both were
    /// measured.
    pub fn speedup_at(&self, k: usize) -> Option<f64> {
        let one = self.timings.iter().find(|t| t.shards == 1)?;
        let at = self.timings.iter().find(|t| t.shards == k)?;
        Some(one.best_ns as f64 / at.best_ns as f64)
    }
}

fn time_serial(
    runner: &Runner,
    env: Env,
    design: Design,
    setup: &Setup,
    f: &TraceFile,
    warmup: usize,
    repeats: usize,
) -> Result<(RunStats, u64), SimError> {
    let mut best = u64::MAX;
    let mut stats = None;
    for _ in 0..repeats.max(1) {
        let mut rig = runner.build_rig(env, design, false, setup)?;
        let t0 = Instant::now();
        let (s, _) = runner.replay_epochs_serial(rig.as_mut(), ShardSource::File(f), warmup, 0)?;
        best = best.min(t0.elapsed().as_nanos().max(1) as u64);
        if let Some(prev) = stats {
            if prev != s {
                return Err(SimError::Setup(format!(
                    "nondeterministic serial replay in {}/{}",
                    env.name(),
                    design.name()
                )));
            }
        }
        stats = Some(s);
    }
    Ok((stats.expect("at least one repeat"), best))
}

/// Run one cell: serial reference, then each shard count with the
/// bit-identity gate applied to **every** timed repeat.
///
/// # Errors
///
/// Rig construction and trace decode failures, and [`SimError::Setup`]
/// if any sharded replay diverges from the serial reference.
pub fn run_shard_cell(
    env: Env,
    design: Design,
    workload: &str,
    setup: &Setup,
    f: &TraceFile,
    warmup: usize,
    repeats: usize,
) -> Result<ShardCellResult, SimError> {
    let epoch_len = SHARD_BENCH_CHUNK_LEN as usize;
    let serial_runner = Runner::builder().epoch_len(epoch_len).build();
    let (stats, serial_ns) =
        time_serial(&serial_runner, env, design, setup, f, warmup, repeats)?;

    let mut timings = Vec::new();
    for k in shard_counts() {
        let runner = Runner::builder().epoch_len(epoch_len).shards(k).build();
        let mut best = u64::MAX;
        let mut planned = 0;
        for _ in 0..repeats.max(1) {
            let t0 = Instant::now();
            let out = runner.replay_sharded(
                env,
                design,
                false,
                setup,
                ShardSource::File(f),
                warmup,
                0,
            )?;
            let ns = t0.elapsed().as_nanos().max(1) as u64;
            if out.stats != stats {
                return Err(SimError::Setup(format!(
                    "{k}-shard replay diverged from the serial reference in {}/{}: {:?} vs {:?}",
                    env.name(),
                    design.name(),
                    out.stats,
                    stats
                )));
            }
            best = best.min(ns);
            planned = out.shards;
        }
        timings.push(ShardTiming {
            shards: k,
            planned,
            best_ns: best,
            accesses_per_sec: f.len() as f64 * 1e9 / best as f64,
        });
    }
    Ok(ShardCellResult {
        env,
        design,
        workload: workload.to_string(),
        stats,
        serial_ns,
        timings,
    })
}

/// Capture the bench trace (seekable v2) and run every cell.
///
/// # Errors
///
/// Capture/decode failures and the first failing cell's error.
pub fn run_shard_bench(
    scale: ShardScale,
    repeats: usize,
) -> Result<(Vec<ShardCellResult>, ShardScale), SimError> {
    let w = Gups {
        table_bytes: scale.table_bytes,
    };
    let seed = 0xD317u64 ^ 8;
    let trace = w.trace(scale.accesses, seed);
    let setup = Setup::of_workload(&w, &trace);
    drop(trace);

    let path = std::env::temp_dir().join(format!("dmt-shard-bench-{}.dmtt", std::process::id()));
    dmt_trace::capture_indexed_to_path(&w, scale.accesses, seed, SHARD_BENCH_CHUNK_LEN, &path)?;
    let f = TraceFile::open(&path)?;

    let mut results = Vec::new();
    for (env, design) in shard_cells() {
        results.push(run_shard_cell(
            env,
            design,
            w.name(),
            &setup,
            &f,
            scale.warmup,
            repeats,
        )?);
    }
    drop(f);
    std::fs::remove_file(&path).ok();
    Ok((results, scale))
}

/// Render the shard-bench results as schema `dmt-bench-v1`.
pub fn shard_report_json(results: &[ShardCellResult], scale: ShardScale, commit: &str) -> Json {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .set("schema", Json::Str("dmt-bench-v1".into()))
        .set("mode", Json::Str("sharded-replay".into()))
        .set("commit", Json::Str(commit.into()))
        .set("host_threads", Json::U64(host_threads as u64))
        .set(
            "scale",
            Json::obj()
                .set("accesses", Json::U64(scale.accesses as u64))
                .set("warmup", Json::U64(scale.warmup as u64))
                .set("table_bytes", Json::U64(scale.table_bytes))
                .set("chunk_len", Json::U64(SHARD_BENCH_CHUNK_LEN))
                .set("epoch_len", Json::U64(SHARD_BENCH_CHUNK_LEN)),
        )
        .set(
            "cells",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .set("env", Json::Str(r.env.name().into()))
                            .set("design", Json::Str(r.design.name().into()))
                            .set("workload", Json::Str(r.workload.clone()))
                            .set("accesses", Json::U64(r.stats.accesses))
                            .set("walks", Json::U64(r.stats.walks))
                            .set("serial_ns", Json::U64(r.serial_ns))
                            .set(
                                "shards",
                                Json::Arr(
                                    r.timings
                                        .iter()
                                        .map(|t| {
                                            Json::obj()
                                                .set("requested", Json::U64(t.shards as u64))
                                                .set("planned", Json::U64(t.planned as u64))
                                                .set("ns_total", Json::U64(t.best_ns))
                                                .set(
                                                    "accesses_per_sec",
                                                    Json::F64(t.accesses_per_sec),
                                                )
                                                .set(
                                                    "speedup_vs_1shard",
                                                    Json::F64(
                                                        r.speedup_at(t.shards).unwrap_or(1.0),
                                                    ),
                                                )
                                        })
                                        .collect(),
                                ),
                            )
                    })
                    .collect(),
            ),
        )
}

/// The current git commit, or `"unknown"` outside a repository.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
