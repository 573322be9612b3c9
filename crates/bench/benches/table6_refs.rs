//! Table 6 — sequential memory references per design, plus criterion
//! timings of the single-translation hot path of each design on a warm
//! virtualized machine.

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_sim::runner::Runner;
use dmt_sim::rig::{Design, Env, Rig, VirtRig};
use dmt_sim::experiments::table6;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_workloads::bench7::Gups;
use dmt_workloads::gen::Workload;

fn print_table6() {
    println!("\nTable 6 — sequential memory references");
    println!("{:<10} {:>8} {:>12} {:>12}", "design", "native", "virtualized", "nested");
    for (d, n, v, nn) in table6() {
        let f = |x: Option<u64>| x.map(|v| v.to_string()).unwrap_or_else(|| "N/A".into());
        println!("{:<10} {:>8} {:>12} {:>12}", d.name(), f(n), f(v), f(nn));
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_table6();
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
