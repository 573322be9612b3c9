//! A panicking cell is one failed operation, not an abort. This file is
//! a test binary of its own because it installs the benchmark's panic
//! hook, which would otherwise swallow the messages of failing
//! assertions in other tests.

use dmt_perfbench::workloads::{install_panic_hook, Plan, Size, Workload};
use dmt_perfbench::{result_line, run};

/// Virt/ECPT/4 KiB/XSBench at test scale exhausts the ECPT arena
/// (`backends/ecpt.rs`) for some trace seeds; run seed 7 gives XSBench
/// trace seed 2, one of them. The panic must be one failed operation in
/// a run that still completes and yields its result line. Under the
/// default seed the cell does not panic.
#[test]
fn ecpt_arena_panic_is_a_failed_op_not_an_abort() {
    install_panic_hook();
    let label = "virt/ECPT/4k/XSBench";
    for (seed, failed) in [(7, 1), (0xD317, 0)] {
        let plan = Plan::new(Workload::FiguresTest, Size::Full, seed, Some(label)).expect("plan");
        let r = run(plan, 0.0, false);
        assert_eq!(
            (r.attempted, r.failed),
            (1, failed),
            "seed {seed}: {:?}",
            r.failures
        );
        assert!(r.correct, "a panic is a failure, not a wrong output");
        assert_eq!(r.failures.len(), failed as usize, "seed {seed}");
        if failed > 0 {
            assert!(
                r.failures[0].contains(label) && r.failures[0].contains("ECPT arena exhausted"),
                "{}",
                r.failures[0]
            );
        }
        let line = result_line(&r);
        assert!(
            line.contains(&format!("\"attempted\": 1,\"failed\": {failed},")),
            "seed {seed}: {line}"
        );
    }
}
