//! `VECTOR_DIM` sweep (paper §IV: 16 is fastest on the CPU — small packs
//! keep the interleaved workspace inside L1/L2; large packs blow it out).

use alya_bench::harness::{BenchmarkId, Criterion, Throughput};
use alya_bench::{criterion_group, criterion_main};

use alya_bench::case::Case;
use alya_core::gather::{DirectSink, ElemFrame};
use alya_core::kernels;
use alya_core::layout::Layout;
use alya_core::nut::compute_nu_t;
use alya_core::Variant;
use alya_fem::VectorField;
use alya_machine::NoRecord;

fn assemble_with_vector_dim(input: &alya_core::AssemblyInput, vector_dim: usize) -> VectorField {
    let nn = input.mesh.num_nodes();
    let ne = input.mesh.num_elements();
    let variant = Variant::Rs; // the workspace variant, where VECTOR_DIM bites
    let nval = variant.nvalues();
    let mut ws_buf = vec![0.0; nval * vector_dim];
    let mut rhs = VectorField::zeros(nn);
    let mut sink = DirectSink { rhs: &mut rhs };
    for e in 0..ne {
        let lay = Layout::cpu(e, vector_dim, nn);
        let mut frame = ElemFrame::load(input, e, &lay, &mut sink, &mut NoRecord);
        let lane = e % vector_dim;
        kernels::run(
            variant,
            input,
            &mut frame,
            &mut ws_buf,
            vector_dim,
            lane,
            &mut NoRecord,
        );
    }
    rhs
}

fn bench_vector_dim(c: &mut Criterion) {
    let case = Case::bolund(20_000);
    let nut = compute_nu_t(&case.input());
    let mut input = case.input();
    input.nu_t = Some(&nut);
    let ne = case.mesh.num_elements() as u64;

    let mut group = c.benchmark_group("vector_dim");
    group.throughput(Throughput::Elements(ne));
    group.sample_size(10);
    for vd in [4usize, 16, 64, 256, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(vd), &vd, |b, &vd| {
            b.iter(|| assemble_with_vector_dim(&input, vd));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vector_dim);
criterion_main!(benches);
