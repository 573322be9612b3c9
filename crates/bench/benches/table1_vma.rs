//! Table 1 + Figure 5 — criterion timing of the VMA clustering analysis
//! (it runs on every mmap in DMT-Linux). Table 1 and the Figure 5 CDFs
//! are printed by `cargo run --release --example vma_study`; this target
//! adds only the SPEC min–max ranges.

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_os::mapping::cluster_spans;
use dmt_workloads::vma_profile::{
    benchmark_layouts, characterize, spec2006_layouts, spec2017_layouts,
};

fn print_spec_ranges() {
    println!();
    for (name, layouts) in [
        ("SPEC CPU 2006", spec2006_layouts(2006)),
        ("SPEC CPU 2017", spec2017_layouts(2017)),
    ] {
        let cs: Vec<_> = layouts.iter().map(|l| characterize(l, 0.02)).collect();
        let rng = |f: fn(&dmt_workloads::vma_profile::VmaCharacteristics) -> usize| {
            let mut v: Vec<usize> = cs.iter().map(f).collect();
            v.sort_unstable();
            format!("{}–{}", v[0], v[v.len() - 1])
        };
        println!(
            "{name}: total {}, 99% cov {}, clusters {}",
            rng(|c| c.total),
            rng(|c| c.cov99),
            rng(|c| c.clusters)
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_spec_ranges();
    let memcached = benchmark_layouts()
        .into_iter()
        .find(|l| l.name == "Memcached")
        .unwrap();
    c.bench_function("cluster_1065_vmas", |b| {
        b.iter(|| std::hint::black_box(cluster_spans(&memcached.spans, 0.02)))
    });
    c.bench_function("characterize_memcached", |b| {
        b.iter(|| std::hint::black_box(characterize(&memcached, 0.02)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
