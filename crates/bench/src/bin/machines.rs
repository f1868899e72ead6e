//! Cross-hardware projection ("towards exascale", extension beyond the
//! paper): run the baseline and the fully optimized kernel through the
//! machine models of three GPU generations and two CPU nodes, and watch
//! how the optimization gap widens as machine balance shifts toward
//! compute.
//!
//! Usage: `machines [mesh_elems] [--trace PATH]` (default 40000).
//! `--trace` dumps per-machine simulation spans as chrome trace JSON.

use alya_bench::case::Case;
use alya_bench::profile::{cpu_report, gpu_report};
use alya_bench::report::{num, Table};
use alya_bench::{CALLS_PER_RUNTIME, PAPER_ELEMS};
use alya_core::nut::compute_nu_t;
use alya_core::Variant;
use alya_machine::cpu::CpuModel;
use alya_machine::gpu::GpuModel;
use alya_machine::spec::{CpuSpec, GpuSpec};
use alya_telemetry as telemetry;

fn main() {
    let mut elems: usize = 40_000;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => match it.next() {
                Some(p) => trace = Some(p),
                None => {
                    eprintln!("--trace needs a path");
                    std::process::exit(1);
                }
            },
            other => match other.parse() {
                Ok(n) => elems = n,
                Err(_) => {
                    eprintln!("usage: machines [mesh_elems] [--trace PATH]");
                    std::process::exit(1);
                }
            },
        }
    }
    let session = trace.as_ref().map(|_| telemetry::session());

    eprintln!("building case (~{elems} tets)...");
    let case = Case::bolund(elems);
    let nut = compute_nu_t(&case.input());
    let mut input = case.input();
    input.nu_t = Some(&nut);

    println!("cross-hardware projection — B vs RSPR, {PAPER_ELEMS} elements x {CALLS_PER_RUNTIME} sweeps\n");

    let mut t = Table::new([
        "machine",
        "intensity F/B",
        "B ms",
        "RSPR ms",
        "speedup",
        "RSPR bottleneck",
    ]);
    for spec in [
        GpuSpec::v100_32gb(),
        GpuSpec::a100_40gb(),
        GpuSpec::h100_sxm(),
    ] {
        eprintln!("simulating {}...", spec.name);
        let name = spec.name;
        let intensity = spec.machine_intensity();
        let model = GpuModel::new(spec);
        let _sp = telemetry::span(format!("gpu-sim:{name}"));
        let b = gpu_report(Variant::B, &input, &model, PAPER_ELEMS);
        let rspr = gpu_report(Variant::Rspr, &input, &model, PAPER_ELEMS);
        t.row([
            name.to_string(),
            num(intensity),
            num(b.runtime * CALLS_PER_RUNTIME * 1e3),
            num(rspr.runtime * CALLS_PER_RUNTIME * 1e3),
            format!("{:.1}x", b.runtime / rspr.runtime),
            rspr.bottleneck.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new(["machine", "cores", "B node ms", "RSP node ms", "speedup"]);
    for spec in [CpuSpec::icelake_8360y(), CpuSpec::sapphire_rapids_8480()] {
        eprintln!("simulating {}...", spec.name);
        let name = spec.name;
        let workers = spec.total_cores() - 1; // paper convention: 1 master
        let _sp = telemetry::span(format!("cpu-sim:{name}"));
        let mut model = CpuModel::new(spec);
        model.sample_packs = 64;
        let b = cpu_report(Variant::B, &input, &model, PAPER_ELEMS);
        let rsp = cpu_report(Variant::Rsp, &input, &model, PAPER_ELEMS);
        let tb = model.scale(&b, PAPER_ELEMS, workers) * CALLS_PER_RUNTIME * 1e3;
        let tr = model.scale(&rsp, PAPER_ELEMS, workers) * CALLS_PER_RUNTIME * 1e3;
        t.row([
            name.to_string(),
            workers.to_string(),
            num(tb),
            num(tr),
            format!("{:.1}x", tb / tr),
        ]);
    }
    println!("{}", t.render());

    if let (Some(path), Some(s)) = (&trace, session) {
        alya_bench::trace::write_chrome_trace(path, &s.finish());
    }
}
