//! Distributed-assembly benchmark: Melem/s and exchanged halo bytes of
//! the rank-parallel driver across rank counts on the Bolund-like terrain
//! case, emitted as `BENCH_comm.json` so the repo carries the
//! communication trajectory next to the throughput one.
//!
//! Each rank count is timed twice — once with the compute/exchange
//! overlap pipeline off (boundary-first but fully serial per rank) and
//! once with it on (interior assembly overlapped with the halo drain).
//! Wall-clock deltas between the two are noise on an oversubscribed
//! host, so the report also carries the *blocked-wait* seconds each mode
//! accumulated inside `recv` and derives the overlap win from those:
//! `overlap_win = 1 − blocked_wait_on / blocked_wait_off`. The wait
//! comes from the telemetry `BlockedWaitNs` counter — the same single
//! accounting chokepoint every other consumer reads — not from summing
//! report fields by hand.
//!
//! Usage:
//!
//! ```text
//! comm                         # default terrain mesh, JSON to stdout note
//! comm --quick                 # small mesh / few samples (CI smoke)
//! comm --elems 200000          # override the element target
//! comm --samples 7             # timed iterations per rank count
//! comm --json PATH             # write the JSON report to PATH
//! comm --probe-dump PATH       # write the flight recorder's black box
//!                              # at exit (plus PATH.trace.json)
//! comm --trace PATH            # dump the run's telemetry spans as
//!                              # chrome trace JSON (chrome://tracing)
//! ```
//!
//! Every timed configuration is first validated against the analyzer's
//! comm contract ([`alya_analyze::comm::check_exchange`]) *and* the
//! schedule contract ([`alya_analyze::sched::check_run`]) of a traced
//! overlapped run, and the two modes must agree bitwise: the binary
//! refuses to emit a report whose live exchange diverges from the
//! closed-form halo budget — `BENCH_comm.json` is evidence, not prose.

use std::fmt::Write as _;
use std::time::Instant;

use alya_analyze::comm::check_exchange;
use alya_analyze::sched::check_run;
use alya_bench::case::Case;
use alya_bench::harness::median;
use alya_core::nut::compute_nu_t;
use alya_core::{DistributedDriver, Variant};
use alya_machine::par;
use alya_telemetry::{self as telemetry, Metric};

const DEFAULT_ELEMS: usize = 100_000;
const QUICK_ELEMS: usize = 8_000;
const DEFAULT_SAMPLES: usize = 5;
const QUICK_SAMPLES: usize = 2;
const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Args {
    elems: usize,
    samples: usize,
    json: Option<String>,
    trace: Option<String>,
    probe_dump: Option<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut elems = None;
    let mut samples = None;
    let mut json = None;
    let mut trace = None;
    let mut probe_dump = None;
    let mut quick = false;
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
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
        json,
        trace,
        probe_dump,
    })
}

/// Warm-up once, then `samples` timed runs. Each run's blocked-wait
/// seconds are read as a delta of the telemetry `BlockedWaitNs` counter
/// — the single accounting chokepoint — so this binary cannot drift
/// from what the analyzer's telemetry pass certifies. Returns
/// (median, min, max, wait-median).
fn time_runs(samples: usize, mut body: impl FnMut()) -> (f64, f64, f64, f64) {
    body();
    let mut t = Vec::with_capacity(samples);
    let mut w = Vec::with_capacity(samples);
    for _ in 0..samples {
        let w0 = telemetry::counter_total(Metric::BlockedWaitNs);
        let t0 = Instant::now();
        body();
        t.push(t0.elapsed().as_secs_f64());
        w.push((telemetry::counter_total(Metric::BlockedWaitNs) - w0) as f64 * 1e-9);
    }
    t.sort_by(f64::total_cmp);
    w.sort_by(f64::total_cmp);
    (median(&t), t[0], t[t.len() - 1], median(&w))
}

struct Row {
    ranks: usize,
    median_s: f64,
    min_s: f64,
    max_s: f64,
    overlap_median_s: f64,
    overlap_min_s: f64,
    overlap_max_s: f64,
    blocked_wait_off_s: f64,
    blocked_wait_on_s: f64,
    overlap_win: f64,
    melem_s: f64,
    halo_bytes: u64,
    predicted_bytes: u64,
    messages: u64,
    max_message_bytes: u64,
    boundary_slots: usize,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: comm [--quick] [--elems N] [--samples N] [--json PATH] [--trace PATH] \
                 [--probe-dump PATH]"
            );
            std::process::exit(1);
        }
    };
    // The session stays open for the whole sweep: the blocked-wait
    // numbers come from its counters, and --trace dumps its spans.
    let session = telemetry::session();

    let case = Case::bolund(args.elems);
    let ne = case.mesh.num_elements();
    let nn = case.mesh.num_nodes();
    let hw = par::hardware_threads();

    // Precompute ν_t once so every rank count times pure assembly +
    // exchange, same as the drivers benchmark.
    let nut = compute_nu_t(&case.input());
    let mut input = case.input();
    input.nu_t = Some(&nut);

    println!(
        "distributed assembly: {ne} elements / {nn} nodes, {} samples, host threads {hw}",
        args.samples
    );

    let mut rows: Vec<Row> = Vec::new();
    for ranks in RANK_COUNTS {
        let driver_off = DistributedDriver::new(&case.mesh, ranks).overlap(false);
        let driver_on = DistributedDriver::from_shard_set(driver_off.shard_set().clone());
        // Contract gate on a traced twin of the timed configuration: the
        // timed loop itself runs with counters only.
        let traced = DistributedDriver::from_shard_set(driver_off.shard_set().clone()).traced(true);
        let (_, audit) = traced.assemble(Variant::Rsp, &input);
        let contract = check_exchange(traced.shard_set(), traced.exchange_plan(), &audit);
        if !contract.is_clean() {
            eprintln!("refusing to report a dishonest exchange: {contract}");
            std::process::exit(1);
        }
        // Schedule-contract gate on the overlapped pipeline, plus the
        // bitwise-equality gate between the two timed modes.
        let (rhs_on, _, traces) = driver_on
            .assemble_sched(Variant::Rsp, &input, None)
            .expect("fault-free assembly does not stall");
        let sched = check_run(driver_on.exchange_plan(), &traces, true);
        if !sched.is_clean() {
            eprintln!("refusing to report a dishonest schedule: {sched}");
            std::process::exit(1);
        }
        let (rhs_off, _) = driver_off.assemble(Variant::Rsp, &input);
        assert_eq!(
            rhs_on.max_abs_diff(&rhs_off),
            0.0,
            "overlap changed the assembled RHS at ranks={ranks}"
        );

        let (median, min, max, wait_off) = time_runs(args.samples, || {
            let _ = driver_off.assemble(Variant::Rsp, &input);
        });
        let mut report = None;
        let (ov_median, ov_min, ov_max, wait_on) = time_runs(args.samples, || {
            let (_, r) = driver_on.assemble(Variant::Rsp, &input);
            report = Some(r);
        });
        let report = report.expect("at least one timed run");
        let win = if wait_off > 0.0 {
            1.0 - wait_on / wait_off
        } else {
            0.0
        };
        let melem = ne as f64 / median / 1e6;
        let predicted = driver_off.expected_halo_bytes() as u64;
        println!(
            "  ranks {ranks}: median {:.3} ms  [{:.3} .. {:.3}]  {melem:>8.2} Melem/s  \
             {} msgs / {} B halo (closed form {} B)",
            median * 1e3,
            min * 1e3,
            max * 1e3,
            report.total_messages(),
            report.total_bytes(),
            predicted,
        );
        println!(
            "           overlap on: median {:.3} ms  [{:.3} .. {:.3}]  blocked wait {:.3} ms -> {:.3} ms  win {:.1}%",
            ov_median * 1e3,
            ov_min * 1e3,
            ov_max * 1e3,
            wait_off * 1e3,
            wait_on * 1e3,
            win * 100.0,
        );
        rows.push(Row {
            ranks,
            median_s: median,
            min_s: min,
            max_s: max,
            overlap_median_s: ov_median,
            overlap_min_s: ov_min,
            overlap_max_s: ov_max,
            blocked_wait_off_s: wait_off,
            blocked_wait_on_s: wait_on,
            overlap_win: win,
            melem_s: melem,
            halo_bytes: report.total_bytes(),
            predicted_bytes: predicted,
            messages: report.total_messages(),
            max_message_bytes: report.max_message_bytes(),
            boundary_slots: driver_off.shard_set().total_boundary_slots(),
        });
    }

    let t_report = session.finish();
    if let Some(path) = &args.trace {
        alya_bench::trace::write_chrome_trace(path, &t_report);
    }

    let json = render_json(&args, ne, nn, hw, &rows);
    match &args.json {
        Some(path) => {
            std::fs::write(path, json).expect("write JSON report");
            println!("\nwrote {path}");
        }
        None => println!("\n(re-run with --json PATH to persist the report)"),
    }
    if let Some(path) = &args.probe_dump {
        alya_bench::blackbox::write_probe_dump(path, "comm bench exit");
    }
}

fn render_json(args: &Args, ne: usize, nn: usize, hw: usize, rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"name\": \"BENCH_comm\",");
    let _ = writeln!(s, "  \"case\": \"bolund-terrain\",");
    let _ = writeln!(s, "  \"target_elems\": {},", args.elems);
    let _ = writeln!(s, "  \"elements\": {ne},");
    let _ = writeln!(s, "  \"nodes\": {nn},");
    let _ = writeln!(s, "  \"host_threads\": {hw},");
    let _ = writeln!(s, "  \"samples\": {},", args.samples);
    s.push_str("  \"results\": [\n");
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"ranks\": {}, \"median_s\": {:.6e}, \"min_s\": {:.6e}, \"max_s\": {:.6e}, \
                 \"overlap_median_s\": {:.6e}, \"overlap_min_s\": {:.6e}, \"overlap_max_s\": {:.6e}, \
                 \"blocked_wait_off_s\": {:.6e}, \"blocked_wait_on_s\": {:.6e}, \"overlap_win\": {:.6}, \
                 \"melem_per_s\": {:.3}, \"halo_bytes\": {}, \"predicted_halo_bytes\": {}, \
                 \"messages\": {}, \"max_message_bytes\": {}, \"boundary_slots\": {}}}",
                r.ranks,
                r.median_s,
                r.min_s,
                r.max_s,
                r.overlap_median_s,
                r.overlap_min_s,
                r.overlap_max_s,
                r.blocked_wait_off_s,
                r.blocked_wait_on_s,
                r.overlap_win,
                r.melem_s,
                r.halo_bytes,
                r.predicted_bytes,
                r.messages,
                r.max_message_bytes,
                r.boundary_slots,
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
}
