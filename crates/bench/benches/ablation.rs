//! Ablations of DMT's design choices; criterion times the register-file
//! comparator path (the per-TLB-miss hardware check). The bubble
//! threshold and eager-TEA ablations are printed by `cargo run --release
//! --example paper_figures`, as are the register-count and policy
//! ablations at the figures' scale; this target prints those two on the
//! unscaled Memcached default.

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_core::regfile::DmtRegisterFile;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_mem::{PageSize, Pfn, VirtAddr};
use dmt_sim::ablation::{policy_comparison, register_sweep};
use dmt_workloads::bench7::Memcached;

fn print_ablations() {
    let w = Memcached::default();
    println!("\nAblation — registers vs coverage (Memcached):");
    for p in register_sweep(&w, &[1, 2, 4, 8, 16, 32], 20_000) {
        println!("  {:>2} registers -> {:>6.2}% coverage", p.registers, p.coverage * 100.0);
    }
    let pol = policy_comparison(&w, 20_000);
    println!(
        "Ablation — policy: largest-first {:.2}% vs hottest-first {:.2}% miss coverage\n",
        pol.largest_first * 100.0,
        pol.hottest_first * 100.0
    );
}

fn bench(c: &mut Criterion) {
    print_ablations();
    // The hardware-relevant kernel: 16-register comparator lookup.
    let mut rf = DmtRegisterFile::new();
    let mappings: Vec<VmaTeaMapping> = (0..16)
        .map(|i| {
            VmaTeaMapping::new(
                VirtAddr((i as u64 + 1) << 32),
                64 << 20,
                PageSize::Size4K,
                Pfn(i as u64 * 1000),
            )
        })
        .collect();
    rf.load(&mappings);
    let mut i = 0u64;
    c.bench_function("regfile_lookup_16", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            let va = VirtAddr(((i % 16) + 1) << 32 | (i & 0x3f_ffff));
            std::hint::black_box(rf.lookup(va).next())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
