//! Figure 14 — criterion timing of the native translate path of
//! vanilla / FPT / ECPT / ASAP / DMT (the figure itself comes from
//! `examples/paper_figures.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_sim::runner::Runner;
use dmt_sim::rig::{Design, NativeRig, Rig};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_workloads::bench7::Gups;
use dmt_workloads::gen::Workload;

fn bench(c: &mut Criterion) {
    let w = Gups {
        table_bytes: 64 << 20,
    };
    let trace = w.trace(6_000, 3);
    let mut group = c.benchmark_group("native_translate");
    group.sample_size(20);
    for design in [Design::Vanilla, Design::Fpt, Design::Ecpt, Design::Asap, Design::Dmt] {
        let mut rig = NativeRig::new(design, false, &w, &trace).unwrap();
        Runner::builder().build().replay(&mut rig, &trace, 0);
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
