//! The benchmark's own tests, at a tiny input size. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dmt_perfbench::workloads::{Plan, Size, Workload};
use dmt_perfbench::{result_line, run, RunResult, DEFAULT_SEED};

fn tiny(w: Workload, traced: bool) -> RunResult {
    run(
        Plan::new(w, Size::Tiny, DEFAULT_SEED, None).expect("plan"),
        0.0,
        traced,
    )
}

/// The `{"name": ..., "unit": ..., "better": ...` prefixes of one
/// metric section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .lines()
        .filter_map(|l| l.trim().strip_prefix("{\"name\": "))
        .map(|l| {
            l.split(", \"bound\"")
                .next()
                .unwrap_or(l)
                .trim_end_matches(['}', ','])
                .to_string()
        })
        .collect()
}

fn emitted(r: &RunResult) -> Vec<String> {
    r.metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit_and_direction() {
    for w in Workload::ALL {
        let untraced = tiny(w, false);
        assert_eq!(
            emitted(&untraced),
            declared("end_to_end"),
            "{} end-to-end metrics",
            w.name()
        );
        let traced = tiny(w, true);
        assert_eq!(
            emitted(&traced),
            declared("per_layer"),
            "{} per-layer metrics",
            w.name()
        );
        for r in [&untraced, &traced] {
            assert!(r.correct && r.failed == 0, "{}: {:?}", w.name(), r.failures);
            let line = result_line(r);
            assert!(
                line.starts_with("{\"correct\": true,\"attempted\": "),
                "{line}"
            );
            assert!(!line.contains('\n') && !line.contains("null"), "{line}");
        }
    }
}

#[test]
fn digest_is_identical_across_two_runs() {
    for w in Workload::ALL {
        let (a, b) = (tiny(w, false), tiny(w, false));
        assert_eq!(a.digest, b.digest, "{}", w.name());
        let other = run(
            Plan::new(w, Size::Tiny, DEFAULT_SEED + 1, None).expect("plan"),
            0.0,
            false,
        );
        assert_ne!(
            a.digest,
            other.digest,
            "{}: the seed reaches the inputs",
            w.name()
        );
    }
}
