//! Figure 4 — criterion timing of the three baseline walk paths
//! (native radix, virtualized 2D walk, nested 2D walk over shadow
//! tables); the figure itself comes from `examples/paper_figures.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_sim::runner::Runner;
use dmt_sim::rig::{Design, NativeRig, NestedRig, Rig, VirtRig};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_workloads::bench7::Gups;
use dmt_workloads::gen::Workload;

fn bench(c: &mut Criterion) {
    let w = Gups {
        table_bytes: 64 << 20,
    };
    let trace = w.trace(6_000, 3);
    let mut group = c.benchmark_group("baseline_walks");
    group.sample_size(20);
    {
        let mut rig = NativeRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        Runner::builder().build().replay(&mut rig, &trace, 0);
        let mut hier = MemoryHierarchy::default();
        let mut i = 0usize;
        group.bench_function("native_radix", |b| {
            b.iter(|| {
                let a = &trace[i % trace.len()];
                i += 7;
                std::hint::black_box(rig.translate(a.va, &mut hier))
            })
        });
    }
    {
        let mut rig = VirtRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        Runner::builder().build().replay(&mut rig, &trace, 0);
        let mut hier = MemoryHierarchy::default();
        let mut i = 0usize;
        group.bench_function("virt_2d_walk", |b| {
            b.iter(|| {
                let a = &trace[i % trace.len()];
                i += 7;
                std::hint::black_box(rig.translate(a.va, &mut hier))
            })
        });
    }
    {
        let mut rig = NestedRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        Runner::builder().build().replay(&mut rig, &trace, 0);
        let mut hier = MemoryHierarchy::default();
        let mut i = 0usize;
        group.bench_function("nested_2d_over_spt", |b| {
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
