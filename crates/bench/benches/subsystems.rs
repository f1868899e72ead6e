//! Benchmarks of the extension subsystems: reuse-distance analysis.

use alya_bench::harness::{Criterion, Throughput};
use alya_bench::{criterion_group, criterion_main};

use alya_machine::reuse::analyze;

fn bench_subsystems(c: &mut Criterion) {
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
