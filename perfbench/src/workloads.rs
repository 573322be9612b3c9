//! The three workloads and one timed pass over each.
//!
//! A pass makes every call into the program once, in a fixed order,
//! and records a span around each: trace generation
//! (`scaled_benchmark` + `Workload::trace`), `Setup::of_workload`,
//! `Runner::build_rig`, `Runner::replay`, `Runner::run_node` and the
//! `sim::report` rendering. Every cell runs under `catch_unwind`, so a
//! panic or `SimError` is one failed operation, never an abort.

use crate::metrics::proc_mem_mb;
use crate::spans::Tracer;
use dmt_sim::engine::RunStats;
use dmt_sim::experiments::{scaled_benchmark, speedup_row, FigureData, Measurement, Scale};
use dmt_sim::perfmodel::geomean;
use dmt_sim::report::{f2, Json, Table};
use dmt_sim::rig::{Design, Env, Setup};
use dmt_sim::{NodeConfig, NodeStats, Runner, TenantSpec};
use dmt_telemetry::Counters;
use dmt_workloads::gen::Access;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The named workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `paper_figures` test-scale matrix: every available
    /// (env, design) × bench7 × {4 KiB, THP} cell at `Scale::test()`.
    FiguresTest,
    /// Long 4 KiB traces, {Native, Virt} × {Vanilla, DMT, pvDMT} ×
    /// {GUPS, Redis, XSBench}: replay dominates the cell.
    Replay4k,
    /// The `examples/cloudnode` node for Vanilla, DMT, VBI and Seg.
    CloudnodeChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FiguresTest,
        Workload::Replay4k,
        Workload::CloudnodeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresTest => "figures-test",
            Workload::Replay4k => "replay-4k",
            Workload::CloudnodeChurn => "cloudnode-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: the benchmark's own, or a tiny one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

pub(crate) const ENVS: [Env; 3] = [Env::Native, Env::Virt, Env::Nested];

/// GUPS (uniform, miss ratio ~1), Redis and XSBench (Zipfian, ~0.6).
const REPLAY_BENCHES: [usize; 3] = [2, 0, 5];
const REPLAY_DESIGNS: [Design; 3] = [Design::Vanilla, Design::Dmt, Design::PvDmt];
pub(crate) const NODE_DESIGNS: [Design; 4] =
    [Design::Vanilla, Design::Dmt, Design::Vbi, Design::Seg];
/// Churn schedules per cloudnode pass (see [`churn_seed`]).
const NODE_CHURN_SCHEDULES: u64 = 3;
/// Rounds of the cloudnode set-up measurement per pass.
const NODE_SETUP_ROUNDS: usize = 3;

pub(crate) fn env_key(env: Env) -> &'static str {
    match env {
        Env::Native => "native",
        Env::Virt => "virt",
        Env::Nested => "nested",
    }
}

pub(crate) fn page_key(thp: bool) -> &'static str {
    if thp {
        "thp"
    } else {
        "4k"
    }
}

fn bench_name(bench: usize) -> &'static str {
    dmt_workloads::bench7::nth_benchmark(bench, 1).map_or("?", |w| w.name())
}

/// The trace seed of a benchmark: the run seed XOR the benchmark index,
/// the convention of the sweep pipeline's `TraceSet` (one trace per
/// (bench, page size), shared by every design). The default run seed
/// 0xD317 reproduces the sweep pipeline's traces exactly.
pub(crate) fn trace_seed(seed: u64, bench: usize) -> u64 {
    seed ^ bench as u64
}

/// One operation: a single-rig cell or a whole cloud node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKey {
    Rig {
        env: Env,
        design: Design,
        thp: bool,
        bench: usize,
    },
    /// One node under churn schedule `churn` (see [`churn_seed`]).
    Node { design: Design, churn: u64 },
}

impl CellKey {
    pub fn design(&self) -> Design {
        match *self {
            CellKey::Rig { design, .. } | CellKey::Node { design, .. } => design,
        }
    }

    /// `env/design/page/bench`, or `node/design/churnK`.
    pub fn label(&self) -> String {
        match *self {
            CellKey::Rig {
                env,
                design,
                thp,
                bench,
            } => format!(
                "{}/{}/{}/{}",
                env_key(env),
                design.name(),
                page_key(thp),
                bench_name(bench)
            ),
            CellKey::Node { design, churn } => format!("node/{}/churn{churn}", design.name()),
        }
    }
}

/// What one workload run will execute.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
    pub scale: Scale,
    pub cells: Vec<CellKey>,
}

impl Plan {
    /// The plan of `workload`; `only` keeps just the cell with that label.
    ///
    /// # Errors
    ///
    /// When `only` names no cell of the workload.
    pub fn new(
        workload: Workload,
        size: Size,
        seed: u64,
        only: Option<&str>,
    ) -> Result<Plan, String> {
        let tiny = |trace| Scale {
            mult4k: 1,
            thp_mult: 8,
            trace,
            warmup: trace / 4,
        };
        let scale = match (workload, size) {
            (Workload::FiguresTest | Workload::CloudnodeChurn, Size::Full) => Scale::test(),
            // 512 MiB footprint: rig build is a small share of the cell,
            // and the footprint is still far beyond STLB/PWC reach.
            (Workload::Replay4k, Size::Full) => Scale {
                mult4k: 2,
                thp_mult: 2,
                trace: 320_000,
                warmup: 80_000,
            },
            (Workload::Replay4k, Size::Tiny) => tiny(2_000),
            (_, Size::Tiny) => tiny(600),
        };
        let mut cells = Vec::new();
        match workload {
            Workload::FiguresTest => {
                for thp in [false, true] {
                    for bench in 0..dmt_workloads::bench7::BENCH7_COUNT {
                        for env in ENVS {
                            for design in Design::ALL.into_iter().filter(|d| d.available_in(env)) {
                                cells.push(CellKey::Rig {
                                    env,
                                    design,
                                    thp,
                                    bench,
                                });
                            }
                        }
                    }
                }
            }
            Workload::Replay4k => {
                for bench in REPLAY_BENCHES {
                    for env in [Env::Native, Env::Virt] {
                        for design in REPLAY_DESIGNS.into_iter().filter(|d| d.available_in(env)) {
                            cells.push(CellKey::Rig {
                                env,
                                design,
                                thp: false,
                                bench,
                            });
                        }
                    }
                }
            }
            Workload::CloudnodeChurn => {
                for churn in 0..NODE_CHURN_SCHEDULES {
                    cells.extend(NODE_DESIGNS.map(|design| CellKey::Node { design, churn }));
                }
            }
        }
        if let Some(label) = only {
            cells.retain(|c| c.label() == label);
            if cells.is_empty() {
                return Err(format!("no cell `{label}` in workload {}", workload.name()));
            }
        }
        Ok(Plan {
            workload,
            size,
            seed,
            scale,
            cells,
        })
    }

    pub fn scale_json(&self) -> Json {
        let s = self.scale;
        Json::obj()
            .set("mult4k", Json::U64(s.mult4k))
            .set("thp_mult", Json::U64(s.thp_mult))
            .set("trace", Json::U64(s.trace as u64))
            .set("warmup", Json::U64(s.warmup as u64))
    }

    /// The (thp, bench) groups of the rig cells, in plan order: one
    /// trace and one `Setup` per group.
    fn groups(&self) -> Vec<(bool, usize)> {
        let mut out: Vec<(bool, usize)> = Vec::new();
        for c in &self.cells {
            if let CellKey::Rig { thp, bench, .. } = *c {
                if !out.contains(&(thp, bench)) {
                    out.push((thp, bench));
                }
            }
        }
        out
    }
}

/// The result of one operation.
#[derive(Debug, Clone)]
pub enum Outcome {
    Rig { stats: RunStats, coverage: f64 },
    Node(Box<NodeStats>),
    Failed(String),
}

#[derive(Debug, Clone)]
pub struct CellResult {
    pub key: CellKey,
    pub outcome: Outcome,
    /// Host time of the whole operation.
    pub wall_ns: u64,
    /// Accesses the engine replayed: the trace length for a rig cell,
    /// the measured node accesses for a node, 0 for a failed operation.
    pub replayed: u64,
    /// Resident memory of the operation: the largest `VmRSS` sampled
    /// after a rig cell's build and replay calls, or for a node the
    /// process's peak (`VmHWM`) when `run_node` returns.
    pub rss_mb: f64,
    pub digest: u64,
}

/// One pass over a plan.
#[derive(Debug)]
pub struct Pass {
    pub cells: Vec<CellResult>,
    /// Host time of the pass (the workload's wall time).
    pub wall_ns: u64,
    /// The workload's set-up time this pass: Σ generation + `Setup` +
    /// `build_rig`.
    pub setup_ns: u64,
    pub paper_err: f64,
    /// Merged telemetry counters (telemetry runners only).
    pub counters: Counters,
    /// The pass's spans; `cell` indexes `cells`.
    pub tracer: Tracer,
    /// Index of the `bench.pass` root span.
    pub root: usize,
}

impl Pass {
    /// Digest of every cell's outcome, in plan order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for c in &self.cells {
            h.u64(c.digest);
        }
        h.0
    }

    pub fn failures(&self) -> impl Iterator<Item = (&CellResult, &str)> {
        self.cells.iter().filter_map(|c| match &c.outcome {
            Outcome::Failed(msg) => Some((c, msg.as_str())),
            _ => None,
        })
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn stats(&mut self, s: &RunStats) {
        for v in [
            s.accesses,
            s.walks,
            s.walk_cycles,
            s.walk_refs,
            s.data_cycles,
            s.fallbacks,
            s.exits,
            s.faults,
        ] {
            self.u64(v);
        }
    }
}

fn digest(key: &CellKey, outcome: &Outcome) -> u64 {
    let mut h = Fnv::default();
    h.bytes(key.label().as_bytes());
    match outcome {
        Outcome::Rig { stats, coverage } => {
            h.stats(stats);
            h.u64(coverage.to_bits());
        }
        Outcome::Node(n) => {
            h.stats(&n.node);
            for t in &n.tenants {
                h.u64(t.bench as u64);
                h.bytes(env_key(t.env).as_bytes());
                h.u64(t.asid as u64);
                h.u64(t.incarnations as u64);
                h.stats(&t.stats);
                h.u64(t.coverage.to_bits());
            }
            for v in [
                n.context_switches,
                n.tagged_flushes,
                n.cross_tenant_shootdowns,
                n.frag_final.to_bits(),
            ] {
                h.u64(v);
            }
            h.u64(n.free_frames);
            h.u64(n.buddy_hash);
        }
        Outcome::Failed(msg) => {
            h.bytes(b"failed:");
            h.bytes(msg.as_bytes());
        }
    }
    h.0
}

/// The message of the last panic, captured by [`install_panic_hook`].
static LAST_PANIC: Mutex<String> = Mutex::new(String::new());

/// Replace the default panic hook (which prints to stderr) with one
/// that keeps the message for the failing cell's report.
pub fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        if let Ok(mut last) = LAST_PANIC.lock() {
            *last = info.to_string().replace('\n', " ");
        }
    }));
}

fn panic_message() -> String {
    LAST_PANIC.lock().map(|m| m.clone()).unwrap_or_default()
}

/// The state of one pass: the runner, the spans, the merged telemetry
/// counters, and the pass's root span.
struct PassCtx<'a> {
    runner: &'a Runner,
    tracer: Tracer,
    counters: Counters,
    root: usize,
}

/// Run one pass of `plan` on `runner`.
pub(crate) fn run_pass(plan: &Plan, runner: &Runner) -> Pass {
    let ctx = &mut PassCtx {
        runner,
        tracer: Tracer::default(),
        counters: Counters::default(),
        root: 0,
    };
    let mut setup_ns = 0;
    if plan.workload == Workload::CloudnodeChurn {
        // The set-up is short and its first round in a fresh process
        // pays for growing the heap: take the median of several.
        let rounds: Vec<f64> = (0..NODE_SETUP_ROUNDS)
            .map(|_| node_setup(plan, ctx) as f64)
            .collect();
        setup_ns = crate::metrics::median(&rounds) as u64;
    }
    let root = ctx.tracer.open("bench.pass", None, None);
    ctx.root = root;
    let mut cells = Vec::with_capacity(plan.cells.len());
    for (thp, bench) in plan.groups() {
        let ((w, trace), gen_ns) = ctx.tracer.time("workloads.gen", None, Some(root), || {
            let w = scaled_benchmark(bench, plan.scale, thp).expect("plan benches are in range");
            let trace = w.trace(plan.scale.total(), trace_seed(plan.seed, bench));
            (w, trace)
        });
        let (setup, s_ns) = ctx.tracer.time("sim.setup", None, Some(root), || {
            Setup::of_workload(w.as_ref(), &trace)
        });
        setup_ns += gen_ns + s_ns;
        for (idx, key) in plan.cells.iter().enumerate() {
            if matches!(*key, CellKey::Rig { thp: t, bench: b, .. } if (t, b) == (thp, bench)) {
                let (cell, build_ns) = rig_cell(ctx, idx, *key, &setup, &trace, plan.scale.warmup);
                setup_ns += build_ns;
                cells.push(cell);
            }
        }
    }
    for (idx, key) in plan.cells.iter().enumerate() {
        if let CellKey::Node { design, churn } = *key {
            let cfg = node_config(design, plan.scale, churn_seed(plan.seed, churn));
            cells.push(node_cell(ctx, idx, *key, &cfg));
        }
    }
    // Rig cells ran grouped by trace; report them in plan order.
    cells.sort_by_key(|c| plan.cells.iter().position(|k| *k == c.key));
    let (paper_err, _) = ctx.tracer.time("sim.report.render", None, Some(root), || {
        match plan.workload {
            Workload::CloudnodeChurn => render_node(&cells),
            _ => render_figures(&cells),
        }
    });
    let wall_ns = ctx.tracer.close(root);
    Pass {
        cells,
        wall_ns,
        setup_ns,
        paper_err,
        counters: std::mem::take(&mut ctx.counters),
        tracer: std::mem::take(&mut ctx.tracer),
        root,
    }
}

/// One single-rig cell: build, replay, tear down. Returns the cell and
/// its build time.
fn rig_cell(
    ctx: &mut PassCtx<'_>,
    idx: usize,
    key: CellKey,
    setup: &Setup,
    trace: &[Access],
    warmup: usize,
) -> (CellResult, u64) {
    let CellKey::Rig {
        env, design, thp, ..
    } = key
    else {
        unreachable!("rig_cell takes rig keys")
    };
    let runner = ctx.runner;
    let tr = &mut ctx.tracer;
    let span = tr.open("bench.cell", Some(idx), Some(ctx.root));
    let mut build_ns = 0;
    let mut rss_mb = 0.0;
    let res = catch_unwind(AssertUnwindSafe(|| {
        let (rig, b) = tr.time("sim.build", Some(idx), Some(span), || {
            runner.build_rig(env, design, thp, setup)
        });
        build_ns = b;
        let mut rig = rig?;
        rss_mb = proc_mem_mb("VmRSS:");
        let ((stats, telemetry), _) = tr.time("sim.engine.replay", Some(idx), Some(span), || {
            runner.replay(rig.as_mut(), trace, warmup)
        });
        let coverage = rig.coverage();
        rss_mb = rss_mb.max(proc_mem_mb("VmRSS:"));
        tr.time("sim.teardown", Some(idx), Some(span), || drop(rig));
        Ok::<_, dmt_sim::SimError>((stats, coverage, telemetry))
    }));
    let wall_ns = tr.close(span);
    let (outcome, replayed) = match res {
        Ok(Ok((stats, coverage, telemetry))) => {
            if let Some(t) = telemetry {
                ctx.counters.merge(&t.counters);
            }
            (Outcome::Rig { stats, coverage }, trace.len() as u64)
        }
        Ok(Err(e)) => (Outcome::Failed(format!("error: {e}")), 0),
        Err(_) => (Outcome::Failed(format!("panic: {}", panic_message())), 0),
    };
    let cell = CellResult {
        key,
        digest: digest(&key, &outcome),
        outcome,
        wall_ns,
        replayed,
        rss_mb,
    };
    (cell, build_ns)
}

fn node_cell(ctx: &mut PassCtx<'_>, idx: usize, key: CellKey, cfg: &NodeConfig) -> CellResult {
    let runner = ctx.runner;
    let tr = &mut ctx.tracer;
    let span = tr.open("bench.cell", Some(idx), Some(ctx.root));
    let res = catch_unwind(AssertUnwindSafe(|| {
        tr.time("sim.cloudnode.run_node", Some(idx), Some(span), || {
            runner.run_node(cfg)
        })
        .0
    }));
    let wall_ns = tr.close(span);
    let (outcome, replayed) = match res {
        Ok(Ok((stats, telemetry))) => {
            if let Some(t) = telemetry {
                ctx.counters.merge(&t.counters);
            }
            let n = stats.node.accesses;
            (Outcome::Node(Box::new(stats)), n)
        }
        Ok(Err(e)) => (Outcome::Failed(format!("error: {e}")), 0),
        Err(_) => (Outcome::Failed(format!("panic: {}", panic_message())), 0),
    };
    CellResult {
        key,
        digest: digest(&key, &outcome),
        outcome,
        wall_ns,
        replayed,
        // A node frees its tenants before `run_node` returns, so only the
        // process's peak so far covers it.
        rss_mb: proc_mem_mb("VmHWM:"),
    }
}

/// The 16 tenants of `examples/cloudnode`: three quarters native, a
/// quarter single-level VMs, bench7 rotation, weights 1–2.
fn node_tenants() -> Vec<TenantSpec> {
    (0..16)
        .map(|i| TenantSpec {
            bench: i % dmt_workloads::bench7::BENCH7_COUNT,
            env: if i % 4 == 3 { Env::Virt } else { Env::Native },
            weight: 1 + (i as u32 % 2),
        })
        .collect()
}

/// The `examples/cloudnode` node: tagged TLB/PWC, quantum 256, churn
/// 24/8. `seed` drives only the churn victim selector; tenant traces are
/// seeded inside `sim::cloudnode`.
fn node_config(design: Design, scale: Scale, seed: u64) -> NodeConfig {
    NodeConfig::new(design, false, scale, node_tenants())
        .quantum(256)
        .churn(24, 8)
        .seed(seed)
}

/// The victim-selector seed of churn schedule `k` (SplitMix64 of the
/// run seed and `k`). Which tenants are killed moves a node's host time
/// by about a quarter (a VM rebuild costs far more than a process
/// rebuild), so each pass runs every design under several independent
/// schedules rather than letting one schedule set the whole run.
pub(crate) fn churn_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The cloud node's set-up, measured from outside as a proxy: every
/// tenant of every node generated with the trace seed `sim::cloudnode`
/// gives it, `Setup`, and built standalone through `Runner::build_rig`.
/// `run_node` provisions one shared `PhysMemory` and builds its tenants
/// into it inside one call, which cannot be split or reached from
/// outside, so this proxy cannot see a change to that provisioning.
/// One span covers it, outside the pass, so none of its calls count
/// toward the per-layer gen, setup or build metrics. Returns the time
/// taken.
fn node_setup(plan: &Plan, ctx: &mut PassCtx<'_>) -> u64 {
    let runner = ctx.runner;
    let span = ctx.tracer.open("bench.node_setup", None, None);
    let designs = NODE_DESIGNS
        .into_iter()
        .filter(|d| plan.cells.iter().any(|c| c.design() == *d));
    for design in designs {
        for (index, spec) in node_tenants().into_iter().enumerate() {
            let w = scaled_benchmark(spec.bench, plan.scale, false)
                .expect("tenant benches are in range");
            let trace = w.trace(plan.scale.total(), node_trace_seed(design, index));
            let setup = Setup::of_workload(w.as_ref(), &trace);
            // A tenant that cannot be built fails its node too, where it
            // is counted; here only its time until the failure counts.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                runner.build_rig(spec.env, design, false, &setup)
            }));
        }
    }
    ctx.tracer.close(span)
}

/// The trace seed `sim::cloudnode` gives tenant `index` of a `design`
/// node (`TenantSeed::materialize`).
fn node_trace_seed(design: Design, index: usize) -> u64 {
    0xD317 ^ design as u64 ^ ((index as u64) << 32)
}

fn measurement(c: &CellResult) -> Option<Measurement> {
    match (&c.key, &c.outcome) {
        (
            &CellKey::Rig {
                env,
                design,
                thp,
                bench,
            },
            Outcome::Rig { stats, coverage },
        ) => Some(Measurement {
            workload: bench_name(bench).to_string(),
            design,
            env,
            thp,
            stats: *stats,
            coverage: *coverage,
            telemetry: None,
        }),
        _ => None,
    }
}

/// The paper's reference page-walk speedups (`paper_reference.tsv`).
pub(crate) fn paper_reference() -> Vec<(Env, Design, bool, f64)> {
    include_str!("../paper_reference.tsv")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let env = ENVS
                .into_iter()
                .find(|e| env_key(*e) == f[0])
                .expect("reference env");
            let design = Design::ALL
                .into_iter()
                .find(|d| d.name() == f[1])
                .expect("reference design");
            (
                env,
                design,
                f[2] == "thp",
                f[3].parse().expect("reference value"),
            )
        })
        .collect()
}

/// Figures 14/15/17-style tables over the rig cells: paired speedups
/// over each (env, page size, bench)'s Vanilla cell, rendered through
/// `sim::report`. Returns `paper_err` over the reference rows measured.
fn render_figures(cells: &[CellResult]) -> f64 {
    let ms: Vec<Measurement> = cells.iter().filter_map(measurement).collect();
    let mut figs: Vec<FigureData> = Vec::new();
    let mut text = String::new();
    let mut rows_json = Vec::new();
    for env in ENVS {
        let mut modes = Vec::new();
        for thp in [false, true] {
            let mut rows = Vec::new();
            for base in ms
                .iter()
                .filter(|m| m.env == env && m.thp == thp && m.design == Design::Vanilla)
            {
                for m in ms
                    .iter()
                    .filter(|m| m.env == env && m.thp == thp && m.workload == base.workload)
                {
                    if m.design != Design::Vanilla {
                        rows.push(speedup_row(base, m));
                    }
                }
            }
            if !rows.is_empty() {
                modes.push((thp, rows));
            }
        }
        if !modes.is_empty() {
            figs.push(FigureData {
                label: env_key(env),
                env,
                modes,
            });
        }
    }
    for fig in &figs {
        for (thp, rows) in &fig.modes {
            let mut t = Table::new(
                format!(
                    "{} {} — page-walk / application speedup over Vanilla",
                    fig.label,
                    page_key(*thp)
                ),
                &["workload", "design", "pw", "app", "coverage"],
            );
            for r in rows {
                t.row(vec![
                    r.workload.clone(),
                    r.design.name().into(),
                    f2(r.pw_speedup),
                    f2(r.app_speedup),
                    f2(r.coverage),
                ]);
                rows_json.push(
                    Json::obj()
                        .set("env", Json::Str(fig.label.into()))
                        .set("page", Json::Str(page_key(*thp).into()))
                        .set("workload", Json::Str(r.workload.clone()))
                        .set("design", Json::Str(r.design.name().into()))
                        .set("pw_speedup", Json::F64(r.pw_speedup))
                        .set("app_speedup", Json::F64(r.app_speedup)),
                );
            }
            let mut designs: Vec<Design> = rows.iter().map(|r| r.design).collect();
            designs.dedup();
            for d in designs {
                if let Some((pw, app)) = fig.geomeans(*thp, d) {
                    t.row(vec![
                        "Geo. Mean".into(),
                        d.name().into(),
                        f2(pw),
                        f2(app),
                        String::new(),
                    ]);
                }
            }
            text.push_str(&t.to_string());
        }
    }
    text.push_str(&Json::Arr(rows_json).to_string());
    std::hint::black_box(text);
    let errs: Vec<f64> = paper_reference()
        .into_iter()
        .filter_map(|(env, design, thp, paper)| {
            let fig = figs.iter().find(|f| f.env == env)?;
            let (pw, _) = fig.geomeans(thp, design)?;
            Some((pw / paper - 1.0).abs())
        })
        .collect();
    mean(&errs)
}

/// The Table 7-style node table. `paper_err` compares the DMT nodes'
/// per-tenant walk speedups over the Vanilla nodes of the same churn
/// schedule (geomean per tenant environment) with the paper's 4 KiB DMT
/// values; tenant traces are seeded per design inside `sim::cloudnode`,
/// so the pairing is by tenant slot, not by trace.
fn render_node(cells: &[CellResult]) -> f64 {
    let node = |d: Design, k: u64| {
        cells.iter().find_map(|c| match (&c.key, &c.outcome) {
            (CellKey::Node { design, churn }, Outcome::Node(n)) if (*design, *churn) == (d, k) => {
                Some(n.as_ref())
            }
            _ => None,
        })
    };
    let mut t = Table::new(
        "cloud node — 16 tenants, tagged TLB/PWC, churn",
        &[
            "design",
            "churn",
            "walk lat (cyc)",
            "switches",
            "tag flushes",
            "xt shootdowns",
            "frag",
            "coverage",
        ],
    );
    for (d, k) in NODE_DESIGNS
        .into_iter()
        .flat_map(|d| (0..NODE_CHURN_SCHEDULES).map(move |k| (d, k)))
    {
        if let Some(n) = node(d, k) {
            t.row(vec![
                d.name().into(),
                k.to_string(),
                f2(n.node.avg_walk_latency()),
                n.context_switches.to_string(),
                n.tagged_flushes.to_string(),
                n.cross_tenant_shootdowns.to_string(),
                f2(n.frag_final),
                f2(n.mean_coverage()),
            ]);
        }
    }
    std::hint::black_box(t.to_string());
    let pairs: Vec<_> = (0..NODE_CHURN_SCHEDULES)
        .filter_map(|k| Some((node(Design::Vanilla, k)?, node(Design::Dmt, k)?)))
        .collect();
    let errs: Vec<f64> = paper_reference()
        .into_iter()
        .filter(|&(_, design, thp, _)| design == Design::Dmt && !thp)
        .filter_map(|(env, _, _, paper)| {
            let ratios: Vec<f64> = pairs
                .iter()
                .flat_map(|(base, dmt)| base.tenants.iter().zip(&dmt.tenants))
                .filter(|(b, d)| b.env == env && d.stats.avg_walk_latency() > 0.0)
                .map(|(b, d)| b.stats.avg_walk_latency() / d.stats.avg_walk_latency())
                .collect();
            (!ratios.is_empty()).then(|| (geomean(&ratios) / paper - 1.0).abs())
        })
        .collect();
    mean(&errs)
}

pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Replay every rig cell of a pass again on `scalar` (the reference
/// engine) and return the labels whose `RunStats` or coverage differ.
pub(crate) fn scalar_mismatches(plan: &Plan, pass: &Pass, scalar: &Runner) -> Vec<String> {
    let mut bad = Vec::new();
    for (thp, bench) in plan.groups() {
        let w = scaled_benchmark(bench, plan.scale, thp).expect("plan benches are in range");
        let trace = w.trace(plan.scale.total(), trace_seed(plan.seed, bench));
        let setup = Setup::of_workload(w.as_ref(), &trace);
        for c in &pass.cells {
            let (
                CellKey::Rig {
                    env,
                    design,
                    thp: t,
                    bench: b,
                },
                Outcome::Rig { stats, coverage },
            ) = (c.key, &c.outcome)
            else {
                continue;
            };
            if (t, b) != (thp, bench) {
                continue;
            }
            let same = catch_unwind(AssertUnwindSafe(|| {
                let mut rig = scalar.build_rig(env, design, thp, &setup).ok()?;
                let (s, _) = scalar.replay(rig.as_mut(), &trace, plan.scale.warmup);
                Some(s == *stats && rig.coverage().to_bits() == coverage.to_bits())
            }));
            if !matches!(same, Ok(Some(true))) {
                bad.push(c.key.label());
            }
        }
    }
    bad
}
