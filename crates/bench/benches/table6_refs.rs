//! Table 6 — criterion timings of the single-translation hot path of
//! each design on a warm virtualized machine. The table of sequential
//! memory references itself is printed by `cargo run --release --example
//! paper_figures` and asserted by `tests/table6_refs.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_sim::runner::Runner;
use dmt_sim::rig::{Design, Env, Rig, VirtRig};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_workloads::bench7::Gups;
use dmt_workloads::gen::Workload;

fn bench(c: &mut Criterion) {
    let w = Gups {
        table_bytes: 64 << 20,
    };
    let trace = w.trace(6_000, 3);
    let mut group = c.benchmark_group("virt_translate");
    group.sample_size(20);
    for design in [Design::Vanilla, Design::Fpt, Design::Ecpt, Design::Dmt, Design::PvDmt] {
        let mut rig = VirtRig::new(design, false, &w, &trace).unwrap();
        // Warm all structures.
        Runner::builder().build().replay(&mut rig, &trace, 0);
        assert!(design.available_in(Env::Virt));
        let mut hier = MemoryHierarchy::default();
        let mut i = 0usize;
        group.bench_function(design.name(), |b| {
            b.iter(|| {
                let a = &trace[i % trace.len()];
                i += 7;
                std::hint::black_box(rig.translate(a.va, &mut hier))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
