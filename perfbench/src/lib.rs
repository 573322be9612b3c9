//! `dmt-perfbench`: the repository benchmark.
//!
//! Three workloads (`figures-test`, `replay-4k`, `cloudnode-churn`),
//! each run from one process on one thread. An untraced run repeats
//! passes for the requested seconds and reports end-to-end metrics as
//! medians; a traced run makes one untraced and one telemetry pass and
//! reports per-layer host time and simulated counts. See README.md.

pub mod metrics;
pub mod spans;
pub mod workloads;

use dmt_sim::report::Json;
use dmt_sim::{Engine, Runner};
use metrics::Metric;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use workloads::{run_pass, scalar_mismatches, Pass, Plan};

/// Run seed when `--seed` is not given: the sweep pipeline's trace seed.
pub const DEFAULT_SEED: u64 = 0xD317;

/// What one workload run produced.
#[derive(Debug)]
pub struct RunResult {
    pub plan: Plan,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// Operations attempted over every pass of the run.
    pub attempted: u64,
    /// Failed operations: panics, `SimError`s and output mismatches.
    pub failed: u64,
    /// Whether every completed operation's output checked out.
    pub correct: bool,
    /// Digest of the first pass's `RunStats`, identical across passes.
    pub digest: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    pub passes: Vec<Pass>,
    /// Per-layer self time of the traced pass, and the unattributed rest.
    pub self_times: Option<(Vec<(&'static str, u64)>, u64)>,
}

/// Cells whose outcome differs between two passes of one plan.
fn digest_mismatches(a: &Pass, b: &Pass) -> Vec<String> {
    a.cells
        .iter()
        .zip(&b.cells)
        .filter(|(x, y)| x.digest != y.digest)
        .map(|(x, _)| x.key.label())
        .collect()
}

/// Run `plan`. Untraced: passes until the next one would end past
/// `seconds` of measuring (at least one), the output checks outside the
/// timed passes. Traced: one untraced and one telemetry pass, whose
/// digests must agree.
pub fn run(plan: Plan, seconds: f64, traced: bool) -> RunResult {
    let plain = Runner::builder().build();
    let started = Instant::now();
    let mut passes = vec![run_pass(&plan, &plain)];
    // Measuring time: the passes only, not the output checks.
    let mut last = started.elapsed();
    let mut measured = last;
    let mut mismatched: Vec<String> = Vec::new();

    let verify_started = Instant::now();
    if plan.workload == workloads::Workload::Replay4k {
        let scalar = Runner::builder().engine(Engine::Scalar).build();
        for label in scalar_mismatches(&plan, &passes[0], &scalar) {
            mismatched.push(format!("{label}: batched and scalar engines disagree"));
        }
    }
    let mut verify_ns = verify_started.elapsed().as_nanos() as u64;

    if traced {
        let t = run_pass(&plan, &Runner::builder().telemetry(true).build());
        let check = Instant::now();
        for label in digest_mismatches(&passes[0], &t) {
            mismatched.push(format!("{label}: traced and untraced runs disagree"));
        }
        verify_ns += check.elapsed().as_nanos() as u64;
        passes.push(t);
    } else {
        let budget = Duration::from_secs_f64(seconds);
        while measured + last < budget {
            let t = Instant::now();
            let p = run_pass(&plan, &plain);
            last = t.elapsed();
            measured += last;
            for label in digest_mismatches(&passes[0], &p) {
                mismatched.push(format!(
                    "{label}: pass {} differs from pass 1",
                    passes.len() + 1
                ));
            }
            passes.push(p);
        }
    }

    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0;
    for (i, p) in passes.iter().enumerate() {
        for (c, msg) in p.failures() {
            failed += 1;
            if i == 0 {
                failures.push(format!("{} seed={:#x}: {msg}", c.key.label(), plan.seed));
            }
        }
    }
    failed += mismatched.len() as u64;
    let correct = mismatched.is_empty();
    failures.extend(mismatched);
    let attempted = passes.iter().map(|p| p.cells.len() as u64).sum();
    let digest = passes[0].digest();

    let (metrics, self_times) = if traced {
        let (u, t) = (&passes[0], &passes[1]);
        (
            metrics::per_layer(t, u.wall_ns, verify_ns),
            Some(metrics::self_times(t)),
        )
    } else {
        (metrics::end_to_end(&passes), None)
    };
    RunResult {
        plan,
        traced,
        metrics,
        attempted,
        failed,
        correct,
        digest,
        failures,
        passes,
        self_times,
    }
}

/// The run manifest: what was built, where, and what was run.
pub fn manifest(r: &RunResult, seconds: f64) -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = |args: &[&str]| -> Option<String> {
        if !root.join(".git").exists() {
            return None;
        }
        let out = Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj()
        .set("schema", Json::Str("dmt-perfbench-v1".into()))
        .set(
            "commit",
            Json::Str(commit.unwrap_or_else(|| "unknown (not a git checkout)".into())),
        )
        .set(
            "dirty",
            dirty.map_or(Json::Str("unknown".into()), Json::Bool),
        )
        .set("rustc", Json::Str(env!("PERFBENCH_RUSTC").into()))
        .set("profile", Json::Str(env!("PERFBENCH_PROFILE").into()))
        .set("host_threads", Json::U64(threads))
        .set("workload", Json::Str(r.plan.workload.name().into()))
        .set(
            "size",
            Json::Str(format!("{:?}", r.plan.size).to_lowercase()),
        )
        .set("seed", Json::U64(r.plan.seed))
        .set("seconds", Json::F64(seconds))
        .set("trace", Json::Bool(r.traced))
        .set("passes", Json::U64(r.passes.len() as u64))
        .set("scale", r.plan.scale_json())
        .set(
            "cells",
            Json::Arr(r.plan.cells.iter().map(|c| Json::Str(c.label())).collect()),
        )
}

fn metrics_json(r: &RunResult, with_direction: bool) -> Json {
    Json::Obj(
        r.metrics
            .iter()
            .map(|m| {
                let mut o = Json::obj()
                    .set("value", Json::F64(m.value))
                    .set("unit", Json::Str(m.unit.into()));
                if with_direction {
                    o = o.set("better", Json::Str(m.better.into()));
                }
                (m.name.clone(), o)
            })
            .collect(),
    )
}

/// The result line: one JSON object on one line.
pub fn result_line(r: &RunResult) -> String {
    let j = Json::obj()
        .set("correct", Json::Bool(r.correct))
        .set("attempted", Json::U64(r.attempted))
        .set("failed", Json::U64(r.failed))
        .set("metrics", metrics_json(r, false));
    // The renderer indents; no string value here contains a newline.
    j.to_string().lines().map(str::trim_start).collect()
}

/// The human-readable report: every metric with its unit and direction,
/// ops, failures, digest and (traced) the self-time breakdown.
pub fn report_text(r: &RunResult) -> String {
    let mut s = format!(
        "== {} seed={} ({:#x}) {} passes={} ==\n",
        r.plan.workload.name(),
        r.plan.seed,
        r.plan.seed,
        if r.traced { "traced" } else { "untraced" },
        r.passes.len()
    );
    for m in &r.metrics {
        s.push_str(&format!(
            "{:<48} {:>16.6} {:<10} ({} is better)\n",
            m.name, m.value, m.unit, m.better
        ));
    }
    s.push_str(&format!(
        "ops {}  ops_failed {}  correct {}\n",
        r.attempted, r.failed, r.correct
    ));
    s.push_str(&format!("digest {:016x}\n", r.digest));
    for f in &r.failures {
        s.push_str(&format!("FAILED {f}\n"));
    }
    if let Some((layers, unattributed)) = &r.self_times {
        let wall = r.passes[1].wall_ns.max(1) as f64;
        s.push_str("self time of the traced pass:\n");
        for (name, ns) in layers {
            s.push_str(&format!(
                "  {:<28} {:>10.1} ms {:>6.1} %\n",
                name,
                *ns as f64 / 1e6,
                *ns as f64 / wall * 100.0
            ));
        }
        s.push_str(&format!(
            "  {:<28} {:>10.1} ms {:>6.1} %\n",
            "(unattributed)",
            *unattributed as f64 / 1e6,
            *unattributed as f64 / wall * 100.0
        ));
    }
    s
}

/// Write the run's result file (and, traced, its spans) under `dir`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_outputs(r: &RunResult, seconds: f64, dir: &Path) -> std::io::Result<PathBuf> {
    let name = format!(
        "{}-seed{}-trace{}",
        r.plan.workload.name(),
        r.plan.seed,
        u8::from(r.traced)
    );
    let cells = Json::Arr(
        r.passes[0]
            .cells
            .iter()
            .map(|c| {
                Json::obj()
                    .set("cell", Json::Str(c.key.label()))
                    .set("digest", Json::Str(format!("{:016x}", c.digest)))
                    .set("wall_ms", Json::F64(c.wall_ns as f64 / 1e6))
                    .set(
                        "failed",
                        Json::Bool(matches!(c.outcome, workloads::Outcome::Failed(_))),
                    )
            })
            .collect(),
    );
    let mut j = Json::obj()
        .set("manifest", manifest(r, seconds))
        .set("correct", Json::Bool(r.correct))
        .set("attempted", Json::U64(r.attempted))
        .set("failed", Json::U64(r.failed))
        .set(
            "failures",
            Json::Arr(r.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        )
        .set("digest", Json::Str(format!("{:016x}", r.digest)))
        .set(
            "pass_wall_s",
            Json::Arr(
                r.passes
                    .iter()
                    .map(|p| Json::F64(p.wall_ns as f64 / 1e9))
                    .collect(),
            ),
        )
        .set(
            "pass_setup_s",
            Json::Arr(
                r.passes
                    .iter()
                    .map(|p| Json::F64(p.setup_ns as f64 / 1e9))
                    .collect(),
            ),
        )
        .set(
            "pass_replay_s",
            Json::Arr(
                r.passes
                    .iter()
                    .map(|p| Json::F64(p.tracer.total_ns("sim.engine.replay", None) as f64 / 1e9))
                    .collect(),
            ),
        )
        .set("metrics", metrics_json(r, true))
        .set("cells", cells);
    if let Some((layers, unattributed)) = &r.self_times {
        let mut o = Json::obj();
        for (n, ns) in layers {
            o = o.set(n, Json::F64(*ns as f64 / 1e6));
        }
        j = j.set(
            "self_ms",
            o.set("unattributed", Json::F64(*unattributed as f64 / 1e6)),
        );
        let spans = Json::obj()
            .set("manifest", manifest(r, seconds))
            .set("untraced", r.passes[0].tracer.to_json())
            .set("traced", r.passes[1].tracer.to_json());
        spans.write_json_in(dir, &format!("{name}-spans"))?;
    }
    j.write_json_in(dir, &name)
}
