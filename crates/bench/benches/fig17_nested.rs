//! Figure 17 — criterion timing of the L2 translation paths under
//! nested virtualization: the shadow baseline walk and the pvDMT fetch
//! (the figure itself comes from `examples/paper_figures.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::VirtAddr;
use dmt_virt::nested::NestedMachine;

fn bench(c: &mut Criterion) {
    let mut m = NestedMachine::new(1 << 30, 256 << 20, 128 << 20, false).unwrap();
    let base = VirtAddr(0x7f00_0000_0000);
    m.l2_mmap(base, 16 << 20).unwrap();
    m.l2_populate_range(base, 16 << 20).unwrap();
    let mut hier = MemoryHierarchy::default();
    let mut i = 0u64;
    c.bench_function("nested_baseline_walk", |b| {
        b.iter(|| {
            let va = VirtAddr(base.raw() + (i * 4096) % (16 << 20));
            i += 13;
            std::hint::black_box(m.translate_baseline(va, &mut hier).unwrap())
        })
    });
    let mut i = 0u64;
    c.bench_function("nested_pvdmt_fetch", |b| {
        b.iter(|| {
            let va = VirtAddr(base.raw() + (i * 4096) % (16 << 20));
            i += 13;
            std::hint::black_box(m.translate_pvdmt(va, &mut hier).unwrap())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
