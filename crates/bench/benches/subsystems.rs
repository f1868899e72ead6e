//! Benchmarks of the extension subsystems: mixed-element assembly, the
//! tetrahedral decomposition, and reuse-distance analysis.

use alya_bench::harness::{Criterion, Throughput};
use alya_bench::{criterion_group, criterion_main};

use alya_core::kernels::generic::{assemble_mixed, MixedInput};
use alya_fem::material::ConstantProperties;
use alya_fem::{ScalarField, VectorField};
use alya_machine::reuse::analyze;
use alya_machine::NoRecord;
use alya_mesh::mixed::mixed_box;

fn bench_subsystems(c: &mut Criterion) {
    // Mixed-element assembly (hex + prism blocks) vs its tet decomposition.
    let mixed = mixed_box(8, 8, 4, [1.0, 1.0, 1.0]);
    let mvel = VectorField::from_coords(mixed.coords(), |p| [p[2] * p[2], 0.2 * p[0], 0.0]);
    let mpre = ScalarField::from_coords(mixed.coords(), |p| p[0]);
    let minput = MixedInput {
        mesh: &mixed,
        velocity: &mvel,
        pressure: &mpre,
        props: ConstantProperties::AIR,
        body_force: [0.0; 3],
        vreman_c: 0.07,
    };
    let mut group = c.benchmark_group("mixed_assembly");
    group.throughput(Throughput::Elements(mixed.num_cells() as u64));
    group.sample_size(10);
    group.bench_function("generic_native", |b| {
        b.iter(|| assemble_mixed(&minput, &mut NoRecord));
    });
    group.bench_function("to_tets_decomposition", |b| b.iter(|| mixed.to_tets()));
    group.finish();

    // Reuse-distance analysis throughput.
    let mut events = Vec::new();
    let mut s = 7u64;
    for _ in 0..60_000 {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        events.push(alya_machine::Event::GLoad((s >> 20) % (1 << 22)));
    }
    let mut group = c.benchmark_group("reuse_analysis");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.sample_size(10);
    group.bench_function("mattson_60k", |b| b.iter(|| analyze(&events, 32).cold));
    group.finish();
}

criterion_group!(benches, bench_subsystems);
criterion_main!(benches);
