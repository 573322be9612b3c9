//! Figure 15 — criterion timing of the virtualized translate path of
//! vanilla / Agile / ASAP / DMT / pvDMT on Redis (the figure itself
//! comes from `examples/paper_figures.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_sim::runner::Runner;
use dmt_sim::rig::{Design, Rig, VirtRig};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_workloads::bench7::Redis;
use dmt_workloads::gen::Workload;

fn bench(c: &mut Criterion) {
    let w = Redis {
        records: 1 << 18,
        ..Redis::default()
    };
    let trace = w.trace(6_000, 3);
    let mut group = c.benchmark_group("virt_translate_redis");
    group.sample_size(20);
    for design in [Design::Vanilla, Design::Agile, Design::Asap, Design::Dmt, Design::PvDmt] {
        let mut rig = VirtRig::new(design, false, &w, &trace).unwrap();
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
