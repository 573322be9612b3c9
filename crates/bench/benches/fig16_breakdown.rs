//! Figure 16 — criterion timing of the raw 2D walker against the pvDMT
//! fetcher (the per-step breakdown itself comes from
//! `examples/paper_figures.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::VirtAddr;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

fn bench(c: &mut Criterion) {
    let mut m = VirtMachine::new(512 << 20, 64 << 20, GuestTeaMode::Pv, false).unwrap();
    let base = VirtAddr(0x7f00_0000_0000);
    m.guest_mmap(base, 16 << 20).unwrap();
    m.guest_populate_range(base, 16 << 20).unwrap();
    let mut hier = MemoryHierarchy::default();
    let mut i = 0u64;
    c.bench_function("nested_2d_walk", |b| {
        b.iter(|| {
            let va = VirtAddr(base.raw() + (i * 4096) % (16 << 20));
            i += 13;
            std::hint::black_box(m.translate_nested(va, &mut hier).unwrap())
        })
    });
    let mut i = 0u64;
    c.bench_function("pvdmt_fetch", |b| {
        b.iter(|| {
            let va = VirtAddr(base.raw() + (i * 4096) % (16 << 20));
            i += 13;
            std::hint::black_box(m.translate_pvdmt(va, &mut hier).unwrap())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
