//! Metric names, units and directions, and how each is computed from
//! the passes of a run. `BENCHMARK.json` at the repository root lists
//! the same names; `tests/bench.rs` keeps the two in step.

use crate::workloads::{env_key, mean, page_key, CellKey, Outcome, Pass, ENVS, NODE_DESIGNS};
use dmt_sim::rig::Design;
use dmt_telemetry::{ratio, Counter};

/// One metric as reported: name, value, unit, and which way is better.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

fn m(name: impl Into<String>, value: f64, unit: &'static str, better: &'static str) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric {
        name: name.into(),
        value,
        unit,
        better,
    }
}

/// Median by linear interpolation between the middle order statistics;
/// 0 when empty.
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let h = (v.len() - 1) as f64 / 2.0;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// The Harrell–Davis estimate of quantile `p` in (0, 1); 0 when empty.
/// It is a mean of every order statistic, the `i`-th weighted by the
/// mass of Beta((n+1)p, (n+1)(1−p)) over ((i−1)/n, i/n]. A percentile
/// read off one or two order statistics jumps when the operations near
/// it trade places, as replay-4k's 9 native and 9 virt cells do at its
/// median; this estimate moves smoothly instead.
pub(crate) fn quantile_hd(xs: &[f64], p: f64) -> f64 {
    // Midpoint-rule steps per interval; midpoints never touch 0 or 1,
    // where the density may be unbounded.
    const STEPS: usize = 32;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return v.first().copied().unwrap_or(0.0);
    }
    let (a, b) = ((n + 1) as f64 * p, (n + 1) as f64 * (1.0 - p));
    // The log density relative to its mode keeps large n from underflowing.
    let log_pdf = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let mode = log_pdf(((a - 1.0) / (a + b - 2.0)).clamp(0.5 / n as f64, 1.0 - 0.5 / n as f64));
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate() {
        let w: f64 = (0..STEPS)
            .map(|j| {
                let t = (i as f64 + (j as f64 + 0.5) / STEPS as f64) / n as f64;
                (log_pdf(t) - mode).exp()
            })
            .sum();
        sum += w * x;
        total += w;
    }
    sum / total
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`), in MiB; 0
/// where the file is missing.
pub(crate) fn proc_mem_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Engine throughput of a pass, in thousands of accesses per second: of
/// replay time for rig cells, of wall time for cloud nodes.
fn kaccess_per_s(pass: &Pass) -> f64 {
    let replayed: u64 = pass.cells.iter().map(|c| c.replayed).sum();
    let replay_ns = pass.tracer.total_ns("sim.engine.replay", None);
    let ns = if replay_ns > 0 {
        replay_ns
    } else {
        pass.wall_ns
    };
    replayed as f64 / ns as f64 * 1e6
}

/// The end-to-end metrics of an untraced run's passes.
pub(crate) fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Each operation's median over passes, then the percentile over operations.
    let ops = passes.first().map_or(0, |p| p.cells.len());
    let cell_ms: Vec<f64> = (0..ops)
        .map(|i| per_pass(&|p| p.cells[i].wall_ns as f64 / 1e6))
        .collect();
    vec![
        m("wall_s", per_pass(&|p| p.wall_ns as f64 / 1e9), "s", LOWER),
        m(
            "setup_s",
            per_pass(&|p| p.setup_ns as f64 / 1e9),
            "s",
            LOWER,
        ),
        m(
            "sim_kaccess_per_s",
            per_pass(&kaccess_per_s),
            "kaccess/s",
            HIGHER,
        ),
        m("cell_p50_ms", quantile_hd(&cell_ms, 0.5), "ms", LOWER),
        m("cell_p90_ms", quantile_hd(&cell_ms, 0.9), "ms", LOWER),
        m(
            "peak_rss_mb",
            passes
                .iter()
                .flat_map(|p| p.cells.iter().map(|c| c.rss_mb))
                .fold(0.0, f64::max),
            "MiB",
            LOWER,
        ),
        m("ops", ops as f64, "count", HIGHER),
        m(
            "paper_err",
            passes.first().map_or(0.0, |p| p.paper_err),
            "ratio",
            LOWER,
        ),
    ]
}

/// Every (env, design) pair the registry has a backend for.
fn env_designs() -> Vec<(dmt_sim::rig::Env, Design)> {
    ENVS.into_iter()
        .flat_map(|e| {
            Design::ALL
                .into_iter()
                .filter(move |d| d.available_in(e))
                .map(move |d| (e, d))
        })
        .collect()
}

/// The per-layer metrics of a traced pass. `untraced_wall_ns` is the
/// same run's untraced pass, for the tracing overhead; `verify_ns` the
/// benchmark's own output checks. Layers a workload does not exercise
/// read 0.
pub(crate) fn per_layer(pass: &Pass, untraced_wall_ns: u64, verify_ns: u64) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let (cells, tracer) = (&pass.cells, &pass.tracer);
    let span_ms = |name: &str, keep: &dyn Fn(&CellKey) -> bool| {
        let sel = |i: usize| cells.get(i).is_some_and(|c| keep(&c.key));
        ms(tracer.total_ns(name, Some(&sel)))
    };
    let replay_ns_per_access = |keep: &dyn Fn(&CellKey) -> bool| {
        let n: u64 = cells
            .iter()
            .filter(|c| keep(&c.key))
            .map(|c| c.replayed)
            .sum();
        span_ms("sim.engine.replay", keep) * 1e6 / n.max(1) as f64
    };
    let all_stats = || {
        cells.iter().filter_map(|c| match &c.outcome {
            Outcome::Rig { stats, .. } => Some((c.key, *stats)),
            Outcome::Node(n) => Some((c.key, n.node)),
            Outcome::Failed(_) => None,
        })
    };
    let nodes = || {
        cells.iter().filter_map(|c| match &c.outcome {
            Outcome::Node(n) => Some(n.as_ref()),
            _ => None,
        })
    };
    let k = |c: Counter| pass.counters.get(c);

    let mut out = vec![
        m(
            "workloads.gen_ms",
            ms(tracer.total_ns("workloads.gen", None)),
            "ms",
            LOWER,
        ),
        m(
            "sim.setup_ms",
            ms(tracer.total_ns("sim.setup", None)),
            "ms",
            LOWER,
        ),
    ];
    for env in ENVS {
        for thp in [false, true] {
            let v = span_ms(
                "sim.build",
                &|key| matches!(*key, CellKey::Rig { env: e, thp: t, .. } if e == env && t == thp),
            );
            out.push(m(
                format!("sim.build_ms.{}_{}", env_key(env), page_key(thp)),
                v,
                "ms",
                LOWER,
            ));
        }
    }
    for env in ENVS {
        let v =
            replay_ns_per_access(&|key| matches!(*key, CellKey::Rig { env: e, .. } if e == env));
        out.push(m(
            format!("sim.engine.replay_ns_per_access.{}", env_key(env)),
            v,
            "ns/access",
            LOWER,
        ));
    }
    for d in Design::ALL {
        let v =
            replay_ns_per_access(&|key| matches!(*key, CellKey::Rig { design, .. } if design == d));
        out.push(m(
            format!("sim.backends.{}.replay_ns_per_access", d.name()),
            v,
            "ns/access",
            LOWER,
        ));
    }
    for d in NODE_DESIGNS {
        let v = span_ms(
            "sim.cloudnode.run_node",
            &|key| matches!(*key, CellKey::Node { design, .. } if design == d),
        );
        out.push(m(
            format!("sim.cloudnode.node_ms.{}", d.name()),
            v,
            "ms",
            LOWER,
        ));
    }
    out.push(m(
        "sim.report.render_ms",
        ms(tracer.total_ns("sim.report.render", None)),
        "ms",
        LOWER,
    ));
    out.push(m("sim.verify_ms", ms(verify_ns), "ms", LOWER));
    let overhead = (pass.wall_ns as f64 / untraced_wall_ns.max(1) as f64 - 1.0) * 100.0;
    out.push(m("trace_overhead_pct", overhead, "%", LOWER));

    // Simulated counts: exact, identical under any host-speed change.
    let (l1, stlb, miss) = (
        k(Counter::TlbL1Hits),
        k(Counter::TlbStlbHits),
        k(Counter::TlbMisses),
    );
    out.push(m("cache.tlb.l1_hits", l1 as f64, "count", HIGHER));
    out.push(m("cache.tlb.stlb_hits", stlb as f64, "count", HIGHER));
    out.push(m("cache.tlb.misses", miss as f64, "count", LOWER));
    out.push(m(
        "cache.tlb.miss_ratio",
        ratio(miss, l1 + stlb + miss),
        "ratio",
        LOWER,
    ));
    let pwc_hits = k(Counter::PwcL2Hits) + k(Counter::PwcL3Hits) + k(Counter::PwcL4Hits);
    out.push(m(
        "cache.pwc.hit_ratio",
        ratio(pwc_hits, pwc_hits + k(Counter::PwcMisses)),
        "ratio",
        HIGHER,
    ));
    let pte = [
        Counter::CachePteL1,
        Counter::CachePteL2,
        Counter::CachePteLlc,
        Counter::CachePteDram,
    ];
    let data = [
        Counter::CacheDataL1,
        Counter::CacheDataL2,
        Counter::CacheDataLlc,
        Counter::CacheDataDram,
    ];
    let share = |levels: [Counter; 4]| ratio(k(levels[3]), levels.iter().map(|&c| k(c)).sum());
    out.push(m(
        "cache.hierarchy.pte_dram_share",
        share(pte),
        "ratio",
        LOWER,
    ));
    out.push(m(
        "cache.hierarchy.data_dram_share",
        share(data),
        "ratio",
        LOWER,
    ));
    let (walks, refs) = all_stats().fold((0, 0), |(w, r), (_, s)| (w + s.walks, r + s.walk_refs));
    out.push(m(
        "pgtable.walk_refs_per_walk",
        ratio(refs, walks),
        "refs/walk",
        LOWER,
    ));
    for (env, d) in env_designs() {
        let (w, c) = all_stats()
            .filter(|(key, _)| matches!(*key, CellKey::Rig { env: e, design, .. } if e == env && design == d))
            .fold((0, 0), |(w, c), (_, s)| (w + s.walks, c + s.walk_cycles));
        out.push(m(
            format!("sim.walk_cycles_per_walk.{}.{}", env_key(env), d.name()),
            ratio(c, w),
            "cycles/walk",
            LOWER,
        ));
    }
    let coverages: Vec<f64> = cells
        .iter()
        .filter(|c| matches!(c.key.design(), Design::Dmt | Design::PvDmt))
        .filter_map(|c| match &c.outcome {
            Outcome::Rig { coverage, .. } => Some(*coverage),
            Outcome::Node(n) => Some(n.mean_coverage()),
            Outcome::Failed(_) => None,
        })
        .collect();
    out.push(m(
        "dmt-core.fetcher.coverage",
        mean(&coverages),
        "ratio",
        HIGHER,
    ));
    let sum =
        |f: &dyn Fn(&dmt_sim::RunStats) -> u64| all_stats().map(|(_, s)| f(&s)).sum::<u64>() as f64;
    out.push(m(
        "dmt-core.fetcher.fallbacks",
        sum(&|s| s.fallbacks),
        "count",
        LOWER,
    ));
    out.push(m("virt.exits", sum(&|s| s.exits), "count", LOWER));
    for (name, c) in [
        ("mem.buddy.splits", Counter::AllocSplits),
        ("mem.buddy.merges", Counter::AllocMerges),
        ("mem.buddy.compactions", Counter::Compactions),
        ("os.tea_migrations", Counter::TeaMigrations),
        ("os.shootdowns", Counter::Shootdowns),
    ] {
        out.push(m(name, k(c) as f64, "count", LOWER));
    }
    let node_sum = |f: &dyn Fn(&dmt_sim::NodeStats) -> u64| nodes().map(f).sum::<u64>() as f64;
    out.push(m(
        "sim.cloudnode.context_switches",
        node_sum(&|n| n.context_switches),
        "count",
        LOWER,
    ));
    out.push(m(
        "sim.cloudnode.tagged_flushes",
        node_sum(&|n| n.tagged_flushes),
        "count",
        LOWER,
    ));
    out.push(m(
        "sim.cloudnode.cross_tenant_shootdowns",
        node_sum(&|n| n.cross_tenant_shootdowns),
        "count",
        LOWER,
    ));
    let frags: Vec<f64> = nodes().map(|n| n.frag_final).collect();
    out.push(m("sim.cloudnode.frag_final", mean(&frags), "ratio", LOWER));
    out.push(m(
        "sim.cloudnode.free_frames",
        node_sum(&|n| n.free_frames),
        "count",
        HIGHER,
    ));
    out
}

/// Self time per layer under the pass root, with the benchmark's own
/// glue (`bench.*` spans) reported as the unattributed remainder.
pub(crate) fn self_times(pass: &Pass) -> (Vec<(&'static str, u64)>, u64) {
    let selfs = pass.tracer.self_times_under(pass.root);
    let unattributed = selfs
        .iter()
        .filter(|(n, _)| n.starts_with("bench."))
        .map(|(_, v)| v)
        .sum();
    let layers = selfs
        .into_iter()
        .filter(|(n, _)| !n.starts_with("bench."))
        .collect();
    (layers, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_the_middle_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn harrell_davis_is_a_smooth_weighted_quantile() {
        let close = |x: f64, y: f64| (x - y).abs() < 1e-6 * y.abs().max(1.0);
        assert_eq!(quantile_hd(&[], 0.5), 0.0);
        assert_eq!(quantile_hd(&[7.0], 0.9), 7.0);
        // Symmetric weights: the median of a symmetric sample is its centre.
        assert!(close(
            quantile_hd(&[1.0, 2.0, 3.0, 10.0, 11.0, 12.0], 0.5),
            6.5
        ));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(quantile_hd(&xs, 0.5), 50.5));
        let p90 = quantile_hd(&xs, 0.9);
        assert!((89.0..=92.0).contains(&p90), "{p90}");
        // One cell crossing the gap of a two-cluster sample moves it by
        // well under half what it moves the interpolated median.
        let mut bimodal: Vec<f64> = (0..9).map(|i| 300.0 + f64::from(i)).collect();
        bimodal.extend((0..9).map(|i| 500.0 + f64::from(i)));
        let (hd, mid) = (quantile_hd(&bimodal, 0.5), median(&bimodal));
        bimodal[8] = 520.0;
        let hd_move = quantile_hd(&bimodal, 0.5) - hd;
        let mid_move = median(&bimodal) - mid;
        assert!(
            hd_move > 0.0 && hd_move < mid_move / 2.0,
            "{hd_move} {mid_move}"
        );
    }
}
