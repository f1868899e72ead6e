//! Native wall-clock benchmark: actually *runs* every variant on the host
//! CPU (serial and thread-parallel) and reports real Melem/s — the
//! companion to the modelled tables, demonstrating that the paper's code
//! transformations speed up real execution in the same direction.
//!
//! Usage: `native [mesh_elems] [repeats]` (defaults 200000 / 5).

use std::time::Instant;

use alya_bench::case::Case;
use alya_bench::harness::median;
use alya_bench::report::{num, Table};
use alya_core::nut::compute_nu_t;
use alya_core::{assemble_parallel, assemble_serial, ParallelStrategy, Variant};

fn main() {
    let mut args = std::env::args().skip(1);
    let elems: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let repeats: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);

    eprintln!("building case (~{elems} tets)...");
    let case = Case::bolund(elems);
    let nut = compute_nu_t(&case.input());
    let mut input = case.input();
    input.nu_t = Some(&nut);
    let ne = case.mesh.num_elements() as f64;

    eprintln!("coloring mesh for the parallel driver...");
    let strategy = ParallelStrategy::colored(&case.mesh);
    let threads = alya_machine::par::num_threads();

    println!(
        "native assembly wall-clock — {} tets, median of {} runs, {} worker threads\n",
        case.mesh.num_elements(),
        repeats,
        threads
    );

    let mut t = Table::new([
        "variant",
        "serial ms",
        "serial Melem/s",
        "parallel ms",
        "parallel Melem/s",
        "speedup vs B",
    ]);
    let mut serial_base = 0.0f64;
    for variant in Variant::ALL {
        let mut serial_times = Vec::new();
        let mut par_times = Vec::new();
        let mut checksum = 0.0;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let rhs = assemble_serial(variant, &input);
            serial_times.push(t0.elapsed().as_secs_f64());
            checksum = rhs.norm();

            let t0 = Instant::now();
            let rhs_p = assemble_parallel(variant, &input, &strategy);
            par_times.push(t0.elapsed().as_secs_f64());
            assert!(
                (rhs_p.norm() - checksum).abs() < 1e-6 * checksum.max(1.0),
                "parallel result deviates"
            );
        }
        serial_times.sort_by(f64::total_cmp);
        par_times.sort_by(f64::total_cmp);
        let s = median(&serial_times);
        let p = median(&par_times);
        if variant == Variant::B {
            serial_base = s;
        }
        t.row([
            variant.name().to_string(),
            num(s * 1e3),
            num(ne / s / 1e6),
            num(p * 1e3),
            num(ne / p / 1e6),
            format!("{:.2}x", serial_base / s),
        ]);
        eprintln!(
            "{variant}: serial {:.1} ms, parallel {:.1} ms (checksum {checksum:.6e})",
            s * 1e3,
            p * 1e3
        );
    }
    println!("{}", t.render());
}
