//! §6.3 — DMT's runtime overheads: criterion times the TEA-allocation
//! and hypercall paths directly. The §6.3 management, hypercall and
//! memory numbers are printed by `cargo run --release --example
//! paper_figures`; this target adds only the hypercall grant counts.

use criterion::{criterion_group, criterion_main, Criterion};
use dmt_core::gtea::GteaTable;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PageSize, PhysMemory, VirtAddr};
use dmt_os::tea::TeaManager;
use dmt_sim::overheads::hypercall_overhead;
use dmt_virt::hypercall::{kvm_hc_alloc_tea, HypercallStats, TeaRequest};
use dmt_virt::Vm;

fn print_hypercall_grants() {
    println!();
    for (nested, label) in [(false, "virt"), (true, "nested")] {
        for c in hypercall_overhead(&[50, 100, 200], nested).unwrap() {
            println!(
                "§6.3 hypercall [{label}]: {} MB -> alloc {:?} + fixed {} cycles ({} grants)",
                c.tea_mb, c.alloc_time, c.exit_cycles, c.grants
            );
        }
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_hypercall_grants();
    c.bench_function("tea_create_delete_100_frames", |b| {
        let mut pm = PhysMemory::new_bytes(256 << 20);
        let mut mgr = TeaManager::new();
        b.iter(|| {
            let (tea, _) = mgr.create(&mut pm, 100).unwrap();
            mgr.delete(&mut pm, tea).unwrap();
        })
    });
    c.bench_function("kvm_hc_alloc_tea_50mb", |b| {
        b.iter_with_setup(
            || {
                let mut pm = PhysMemory::new_bytes(512 << 20);
                let vm = Vm::new(&mut pm, 32 << 20, PageSize::Size4K).unwrap();
                (pm, vm, GteaTable::new(), HypercallStats::default())
            },
            |(mut pm, mut vm, mut table, mut stats)| {
                std::hint::black_box(
                    kvm_hc_alloc_tea(
                        &mut pm,
                        &mut vm,
                        &mut table,
                        &[TeaRequest {
                            base: VirtAddr(0x10_0000_0000),
                            len: 50 << 20,
                            size: PageSize::Size4K,
                        }],
                        &mut stats,
                    )
                    .unwrap(),
                )
            },
        )
    });
    c.bench_function("contig_alloc_under_fragmentation", |b| {
        let mut pm = PhysMemory::new_bytes(128 << 20);
        let mut frag = dmt_mem::frag::Fragmenter::new();
        frag.fragment(pm.buddy_mut(), 0.30).unwrap();
        b.iter(|| {
            if let Ok(r) = dmt_mem::compact::make_contig(pm.buddy_mut(), 16, FrameKind::Tea) {
                pm.buddy_mut().free_contig(r.start, 16).unwrap();
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
