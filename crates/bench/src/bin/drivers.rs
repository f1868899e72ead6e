//! Driver-throughput benchmark: Melem/s of every assembly strategy
//! (serial / two-phase / colored / partitioned / sharded) across variants
//! and thread counts on the Bolund-like terrain case, emitted as
//! `BENCH_drivers.json` so the repo carries a perf trajectory. Every
//! pack-supported configuration is additionally timed through the
//! lane-packed execution path ([`alya_core::ExecMode::Packed`]) as a
//! `-packed`-suffixed strategy row.
//!
//! Usage:
//!
//! ```text
//! drivers                      # default terrain mesh, JSON to stdout note
//! drivers --quick              # small mesh / few samples (CI smoke)
//! drivers --elems 200000       # override the element target
//! drivers --samples 7          # timed iterations per configuration
//! drivers --threads 1,2,8      # explicit thread sweep (default: powers
//!                              # of two up to the hardware parallelism)
//! drivers --variants rs,rspr   # explicit variant sweep, case-insensitive
//!                              # contract names (default: RSP,RSPR)
//! drivers --json PATH          # write the JSON report to PATH
//! drivers --trace PATH         # dump the run's telemetry spans as
//!                              # chrome trace JSON (chrome://tracing)
//! drivers --probe-dump PATH    # write the flight recorder's black box
//!                              # at exit (plus PATH.trace.json)
//! drivers --assert-packed      # exit nonzero unless the packed serial
//!                              # path beats scalar at one thread (CI)
//! ```
//!
//! Thread counts are swept with [`par::set_thread_cap`]: every power of
//! two up to the hardware parallelism (the cap can only lower, so the
//! sweep is honest on any host — a 1-core box reports a single column).
//! Per-shard boundary statistics and the cross-shard reduction traffic
//! ([`alya_mesh::ShardSet::boundary_reduction_bytes`]) are reported next
//! to the timings: they are the sharded strategy's whole story.

use std::fmt::Write as _;
use std::time::Instant;

use alya_bench::case::Case;
use alya_bench::harness::median;
use alya_core::drivers::pack_supported;
use alya_core::nut::compute_nu_t;
use alya_core::{
    assemble_parallel_with, assemble_serial_with, ExecMode, ParallelStrategy, Variant,
};
use alya_machine::par;
use alya_mesh::{Partition, ShardSet};

const DEFAULT_ELEMS: usize = 100_000;
const QUICK_ELEMS: usize = 8_000;
const DEFAULT_SAMPLES: usize = 5;
const QUICK_SAMPLES: usize = 2;

struct Args {
    elems: usize,
    samples: usize,
    threads: Option<Vec<usize>>,
    variants: Vec<Variant>,
    json: Option<String>,
    trace: Option<String>,
    probe_dump: Option<String>,
    assert_packed: bool,
}

/// Parses a comma-separated, case-insensitive list of contract names
/// (`b,p,rs,rsp,rspr`) against [`Variant::ALL`], deduplicating while
/// keeping the caller's order.
fn parse_variants(list: &str) -> Result<Vec<Variant>, String> {
    let mut out = Vec::new();
    for raw in list.split(',') {
        let name = raw.trim();
        let v = Variant::ALL
            .into_iter()
            .find(|v| v.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let known: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
                format!(
                    "--variants: unknown variant {name:?} (known: {})",
                    known.join(", ")
                )
            })?;
        if !out.contains(&v) {
            out.push(v);
        }
    }
    if out.is_empty() {
        return Err("--variants needs at least one variant".into());
    }
    Ok(out)
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut elems = None;
    let mut samples = None;
    let mut threads = None;
    let mut variants = None;
    let mut json = None;
    let mut trace = None;
    let mut probe_dump = None;
    let mut quick = false;
    let mut assert_packed = false;
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--assert-packed" => assert_packed = true,
            "--elems" => {
                let v = it.next().ok_or("--elems needs a value")?;
                elems = Some(v.parse::<usize>().map_err(|e| format!("--elems: {e}"))?);
            }
            "--samples" => {
                let v = it.next().ok_or("--samples needs a value")?;
                let n = v.parse::<usize>().map_err(|e| format!("--samples: {e}"))?;
                if n == 0 {
                    return Err("--samples needs a positive count".into());
                }
                samples = Some(n);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a comma-separated list")?;
                let list: Vec<usize> = v
                    .split(',')
                    .map(|t| t.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--threads: {e}"))?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--threads needs positive counts".into());
                }
                threads = Some(list);
            }
            "--variants" => {
                let v = it.next().ok_or("--variants needs a comma-separated list")?;
                variants = Some(parse_variants(&v)?);
            }
            "--json" => json = Some(it.next().ok_or("--json needs a path")?),
            "--trace" => trace = Some(it.next().ok_or("--trace needs a path")?),
            "--probe-dump" => {
                probe_dump = Some(it.next().ok_or("--probe-dump needs a path")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        elems: elems.unwrap_or(if quick { QUICK_ELEMS } else { DEFAULT_ELEMS }),
        samples: samples.unwrap_or(if quick {
            QUICK_SAMPLES
        } else {
            DEFAULT_SAMPLES
        }),
        threads,
        variants: variants.unwrap_or_else(|| vec![Variant::Rsp, Variant::Rspr]),
        json,
        trace,
        probe_dump,
        assert_packed,
    })
}

/// Warm-up once, then `samples` timed runs; (median, min, max) seconds.
fn time_runs(samples: usize, mut body: impl FnMut()) -> (f64, f64, f64) {
    body();
    let mut t = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        body();
        t.push(t0.elapsed().as_secs_f64());
    }
    t.sort_by(f64::total_cmp);
    (median(&t), t[0], t[t.len() - 1])
}

struct Row {
    strategy: String,
    variant: &'static str,
    threads: usize,
    median_s: f64,
    min_s: f64,
    max_s: f64,
    melem_s: f64,
}

fn powers_of_two_up_to(n: usize) -> Vec<usize> {
    let mut out = vec![1];
    while *out.last().expect("non-empty") * 2 <= n {
        out.push(out.last().expect("non-empty") * 2);
    }
    if *out.last().expect("non-empty") != n {
        out.push(n);
    }
    out
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: drivers [--quick] [--elems N] [--samples N] [--threads LIST] \
                 [--variants LIST] [--json PATH] [--trace PATH] [--probe-dump PATH] \
                 [--assert-packed]"
            );
            std::process::exit(1);
        }
    };
    // A telemetry session costs one span per timed assembly, nothing in
    // the hot loops — only opened when an observer asked for it. Spans
    // reach the flight recorder only from a live session (no distributed
    // stages here), so --probe-dump needs the session too or the black
    // box comes back empty.
    let session = (args.trace.is_some() || args.probe_dump.is_some()).then(alya_telemetry::session);

    let case = Case::bolund(args.elems);
    let ne = case.mesh.num_elements();
    let nn = case.mesh.num_nodes();
    let hw = par::hardware_threads();
    // An explicit sweep is clamped to the hardware and deduplicated: the
    // thread cap can only lower, so a row labeled t=8 on a 2-core host
    // would silently measure 2 workers — report what actually ran.
    let thread_counts = match args.threads.clone() {
        Some(list) => {
            let mut counts = Vec::new();
            for t in list {
                let t = t.min(hw);
                if !counts.contains(&t) {
                    counts.push(t);
                }
            }
            if counts.len() != args.threads.as_ref().map_or(0, Vec::len) {
                println!("note: --threads clamped to the {hw} hardware thread(s): {counts:?}");
            }
            counts
        }
        None => powers_of_two_up_to(hw),
    };
    let variants = args.variants.clone();

    // Precompute ν_t once so every strategy times pure assembly.
    let nut = compute_nu_t(&case.input());
    let mut input = case.input();
    input.nu_t = Some(&nut);

    println!(
        "driver throughput: {ne} elements / {nn} nodes, {} samples, host threads {hw}",
        args.samples
    );

    // Shard statistics at the widest worker count (the configuration the
    // sharded rows at max threads use).
    let max_threads = *thread_counts.last().expect("non-empty");
    let shard_stats = ShardSet::build(&case.mesh, &Partition::rcb(&case.mesh, max_threads.max(2)));
    println!(
        "shards at {} workers: {} boundary slots, {} bytes into the tree reduction",
        max_threads.max(2),
        shard_stats.total_boundary_slots(),
        shard_stats.boundary_reduction_bytes()
    );

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &thread_counts {
        par::set_thread_cap(Some(threads));
        // Partitioned/sharded decompose into exactly `threads` parts so the
        // owner-computes mapping matches the worker count; serial only runs
        // in the 1-thread column.
        let mut strategies: Vec<(String, Option<ParallelStrategy>)> = Vec::new();
        if threads == 1 {
            strategies.push(("serial".into(), None));
        }
        let auto = ParallelStrategy::auto(&case.mesh);
        let auto_name = format!("auto({})", auto.name());
        strategies.push(("two-phase".into(), Some(ParallelStrategy::TwoPhase)));
        strategies.push((
            "colored".into(),
            Some(ParallelStrategy::colored(&case.mesh)),
        ));
        strategies.push((
            "partitioned".into(),
            Some(ParallelStrategy::partitioned(&case.mesh, threads.max(2))),
        ));
        strategies.push((
            "sharded".into(),
            Some(ParallelStrategy::sharded(&case.mesh, threads.max(2))),
        ));
        strategies.push((auto_name, Some(auto)));

        for (name, strategy) in &strategies {
            for &variant in &variants {
                // Scalar always; packed too for every concrete
                // pack-supported configuration (auto re-times a concrete
                // strategy, so its packed row would be a duplicate).
                let mut modes = vec![ExecMode::Scalar];
                if pack_supported(variant) && !name.starts_with("auto") {
                    modes.push(ExecMode::Packed);
                }
                for mode in modes {
                    let (median, min, max) = match strategy {
                        None => time_runs(args.samples, || {
                            let _ = assemble_serial_with(variant, &input, mode);
                        }),
                        Some(s) => time_runs(args.samples, || {
                            let _ = assemble_parallel_with(variant, &input, s, mode);
                        }),
                    };
                    let row_name = match mode {
                        ExecMode::Scalar => name.clone(),
                        ExecMode::Packed => format!("{name}-packed"),
                    };
                    let melem = ne as f64 / median / 1e6;
                    println!(
                        "  {row_name:>24} {:>4} t={threads}: median {:.3} ms  [{:.3} .. {:.3}]  {melem:>8.2} Melem/s",
                        variant.name(),
                        median * 1e3,
                        min * 1e3,
                        max * 1e3,
                    );
                    rows.push(Row {
                        strategy: row_name,
                        variant: variant.name(),
                        threads,
                        median_s: median,
                        min_s: min,
                        max_s: max,
                        melem_s: melem,
                    });
                }
            }
        }
    }
    par::set_thread_cap(None);

    if let (Some(path), Some(s)) = (&args.trace, session) {
        alya_bench::trace::write_chrome_trace(path, &s.finish());
    }

    let json = render_json(&args, ne, nn, hw, &thread_counts, &shard_stats, &rows);
    match &args.json {
        Some(path) => {
            std::fs::write(path, json).expect("write JSON report");
            println!("\nwrote {path}");
        }
        None => println!("\n(re-run with --json PATH to persist the report)"),
    }
    if let Some(path) = &args.probe_dump {
        alya_bench::blackbox::write_probe_dump(path, "drivers bench exit");
    }

    if args.assert_packed && !packed_beats_scalar(&rows) {
        std::process::exit(1);
    }
}

/// The CI smoke gate: for every variant measured through both serial
/// paths at one thread, the packed best-of-samples time must beat the
/// scalar one. Compares `min_s` — the least noise-sensitive statistic on
/// a shared CI host.
fn packed_beats_scalar(rows: &[Row]) -> bool {
    let mut checked = 0;
    let mut ok = true;
    for packed in rows.iter().filter(|r| r.strategy == "serial-packed") {
        let Some(scalar) = rows
            .iter()
            .find(|r| r.strategy == "serial" && r.variant == packed.variant && r.threads == 1)
        else {
            continue;
        };
        checked += 1;
        if packed.min_s < scalar.min_s {
            println!(
                "packed-vs-scalar {}: packed {:.3} ms beats scalar {:.3} ms",
                packed.variant,
                packed.min_s * 1e3,
                scalar.min_s * 1e3
            );
        } else {
            eprintln!(
                "packed-vs-scalar {}: packed {:.3} ms does NOT beat scalar {:.3} ms",
                packed.variant,
                packed.min_s * 1e3,
                scalar.min_s * 1e3
            );
            ok = false;
        }
    }
    if checked == 0 {
        eprintln!("--assert-packed: no serial packed/scalar pair was measured");
        return false;
    }
    ok
}

fn render_json(
    args: &Args,
    ne: usize,
    nn: usize,
    hw: usize,
    thread_counts: &[usize],
    shards: &ShardSet,
    rows: &[Row],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"name\": \"BENCH_drivers\",");
    let _ = writeln!(s, "  \"case\": \"bolund-terrain\",");
    let _ = writeln!(s, "  \"elements\": {ne},");
    let _ = writeln!(s, "  \"nodes\": {nn},");
    let _ = writeln!(s, "  \"host_threads\": {hw},");
    let _ = writeln!(s, "  \"samples\": {},", args.samples);
    let tc: Vec<String> = thread_counts.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(s, "  \"thread_counts\": [{}],", tc.join(", "));
    let _ = writeln!(s, "  \"shards\": {{");
    let _ = writeln!(s, "    \"count\": {},", shards.num_shards());
    let _ = writeln!(
        s,
        "    \"total_boundary_slots\": {},",
        shards.total_boundary_slots()
    );
    let _ = writeln!(
        s,
        "    \"boundary_reduction_bytes\": {},",
        shards.boundary_reduction_bytes()
    );
    s.push_str("    \"per_shard\": [\n");
    let per: Vec<String> = shards
        .shards()
        .map(|sh| {
            format!(
                "      {{\"elements\": {}, \"local_nodes\": {}, \"interior\": {}, \"boundary\": {}, \"reduction_bytes\": {}}}",
                sh.elements().len(),
                sh.num_local_nodes(),
                sh.num_interior(),
                sh.num_boundary(),
                sh.num_boundary() * 3 * 8,
            )
        })
        .collect();
    s.push_str(&per.join(",\n"));
    s.push_str("\n    ]\n  },\n");
    s.push_str("  \"results\": [\n");
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"strategy\": \"{}\", \"variant\": \"{}\", \"threads\": {}, \"median_s\": {:.6e}, \"min_s\": {:.6e}, \"max_s\": {:.6e}, \"melem_per_s\": {:.3}}}",
                r.strategy, r.variant, r.threads, r.median_s, r.min_s, r.max_s, r.melem_s
            )
        })
        .collect();
    s.push_str(&rendered.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn zero_samples_are_a_usage_error() {
        let err = parse(&["--quick", "--samples", "0"]).err();
        assert_eq!(err.as_deref(), Some("--samples needs a positive count"));
        assert_eq!(
            parse(&["--quick", "--samples", "1"]).map(|a| a.samples),
            Ok(1)
        );
    }

    #[test]
    fn zero_threads_are_a_usage_error() {
        assert!(parse(&["--threads", "1,0"]).is_err());
    }
}
