//! The static-analysis audit: runs all `alya-analyze` passes and
//! exits nonzero on any violation, so CI can gate on it.
//!
//! Usage:
//!
//! ```text
//! audit                                  # full audit, exit 0 iff clean
//! audit --list                           # print every pass and seed mode
//! audit --lint                           # source passes only (3 and 7) —
//!                                        # fast gate for pre-push hooks
//! audit --seed-violation coloring        # corrupt a coloring, expect catch
//! audit --seed-violation contract-store  # forge a global intermediate store
//! audit --seed-violation contract-registers  # forge register pressure
//! audit --seed-violation shard-mismatch  # validate shards against wrong mesh
//! audit --seed-violation comm-drop       # lose a halo message, expect catch
//! audit --seed-violation overlap-stall   # withhold a halo send, expect the
//!                                        # scheduler watchdog to fire
//! audit --seed-violation telemetry-skew  # skew a live counter off its
//!                                        # contract rate, expect catch
//! audit --seed-violation pack-divergence # skew the packed throughput rows
//!                                        # below scalar, expect catch
//! audit --seed-violation hot-alloc       # hot fn that allocates
//! audit --seed-violation hot-panic       # hot fn that may panic
//! audit --seed-violation hash-iter       # hot fn over a HashMap
//! audit --seed-violation missing-safety  # unsafe without SAFETY linkage
//! audit --seed-violation slot-leak       # skip a warm-bind rewind; expect
//!                                        # the pass-9 isolation check
//! audit --seed-violation perf-regression # skew the live throughput against
//!                                        # the committed baselines; expect
//!                                        # the pass-11 sentinel to fire
//! ```
//!
//! The `--seed-violation` modes are self-tests of the analyzer: they inject
//! a known breach and exit 0 only if the analyzer *catches* it (and exit 2
//! if the analyzer missed it — the worst outcome). The last four seed a
//! virtual source file through the pass-7 engine (`alya_lint::analyze`), so
//! they run in milliseconds with no fixture assembly.

use std::process::ExitCode;
use std::time::Duration;

use alya_analyze::{comm, contracts, probe, races, serve, simd, sources, telemetry, Fixture};
use alya_core::drivers::{trace_element, ThroughputDb};
use alya_core::layout::{self, Layout};
use alya_core::{DistributedDriver, HaloFault, Variant};
use alya_lint::{LintKind, SourceFile, UnsafeSanction};
use alya_machine::Event;
use alya_mesh::{ordering, Coloring, Partition, ShardSet};
use alya_telemetry::Metric;

fn full_audit() -> ExitCode {
    let root = sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let root = if root.join("crates").is_dir() {
        Some(root)
    } else {
        eprintln!(
            "note: sources not found at {}; skipping the lint pass",
            root.display()
        );
        None
    };
    let report = alya_analyze::run_audit(root.as_deref());

    println!("kernel-contract audit");
    println!("=====================");
    for v in Variant::ALL {
        let c = v.contract();
        println!(
            "  {:5}  flops {:>5}  global ld/st {:>5}  ws {:>12}  register story: {}",
            v.name(),
            c.flops,
            c.global_ldst(),
            match c.workspace_stores {
                Some((space, n)) => format!("{n} st {space:?}"),
                None => "none".into(),
            },
            match c.spills_at_contract_budget {
                Some(true) => "spills at 128-reg budget",
                Some(false) => "fits 128-reg budget, no spills",
                None => "array-style",
            },
        );
    }
    match report.contract_violations.len() {
        0 => println!("  PASS: every variant trace matches its contract"),
        n => {
            println!("  FAIL: {n} contract violation(s)");
            for v in &report.contract_violations {
                println!("    {v}");
            }
        }
    }

    println!("\nscatter race audit");
    println!("==================");
    println!("  {}", report.races);
    println!("  {}", report.shards);

    println!("\ncomm contract audit");
    println!("===================");
    println!("  {}", report.comm);

    println!("\nschedule contract audit");
    println!("=======================");
    println!("  {}", report.sched);

    println!("\ntelemetry contract audit");
    println!("========================");
    println!("  {}", report.telemetry);

    println!("\nsource lint audit");
    println!("=================");
    match report.source_violations.len() {
        0 => println!("  PASS: unsafety and lint policy hold across the workspace"),
        n => {
            println!("  FAIL: {n} source violation(s)");
            for v in &report.source_violations {
                println!("    {v}");
            }
        }
    }

    println!("\nstatic hot-path audit");
    println!("=====================");
    print_lint_report(&report.lint);

    println!("\nsimd contract audit");
    println!("===================");
    println!("  {}", report.simd);

    println!("\nserve contract audit");
    println!("====================");
    println!("  {}", report.serve);

    println!("\nprobe contract audit");
    println!("====================");
    println!("  {}", report.probe);

    if report.is_clean() {
        println!("\naudit clean");
        ExitCode::SUCCESS
    } else {
        println!("\naudit FAILED: {} violation(s)", report.num_violations());
        ExitCode::FAILURE
    }
}

fn print_lint_report(lint: &alya_lint::LintReport) {
    println!(
        "  {} file(s) lexed, {} hot root(s), {} hot-reachable fn(s), {} allow(s) honored",
        lint.files_scanned, lint.hot_roots, lint.reachable_fns, lint.allows_honored
    );
    match lint.violations.len() {
        0 => println!("  PASS: hot paths are alloc-, panic-, and hash-free; unsafe fully linked"),
        n => {
            println!("  FAIL: {n} lint violation(s)");
            for v in &lint.violations {
                println!("    {v}");
            }
        }
    }
}

/// The fast gate: only the two source passes (3 and 7), no fixture
/// assembly. Suited to pre-push hooks — runs in well under a second.
fn lint_only() -> ExitCode {
    let root = sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    if !root.join("crates").is_dir() {
        eprintln!("sources not found at {}", root.display());
        return ExitCode::FAILURE;
    }

    println!("source lint audit");
    println!("=================");
    let source_violations = sources::check_workspace(&root);
    match source_violations.len() {
        0 => println!("  PASS: unsafety and lint policy hold across the workspace"),
        n => {
            println!("  FAIL: {n} source violation(s)");
            for v in &source_violations {
                println!("    {v}");
            }
        }
    }

    println!("\nstatic hot-path audit");
    println!("=====================");
    let lint = match alya_lint::check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("  could not load workspace sources: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_lint_report(&lint);

    if source_violations.is_empty() && lint.is_clean() {
        println!("\nlint clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "\nlint FAILED: {} violation(s)",
            source_violations.len() + lint.violations.len()
        );
        ExitCode::FAILURE
    }
}

/// Every pass and every seed mode, one per line — the audit's own table of
/// contents, so the CI scripts and the docs cannot drift from the binary.
fn list_modes() -> ExitCode {
    println!("passes:");
    println!("  1  kernel contracts     flops/traffic/workspace/register closed forms per variant");
    println!("  2  scatter races        coloring disjointness and shard-interior exclusivity");
    println!("  3  source lints         forbid(unsafe_code), unsafe file allowlist, lint opt-in");
    println!("  4  comm contract        dual-sided halo accounting against the exchange plan");
    println!("  5  schedule contract    stage ordering, buffer hand-off, ascending-rank combine");
    println!("  6  telemetry contract   live counters against contract rates and halo budgets");
    println!(
        "  7  static hot-path      alloc/panic/hash/telemetry lints on the alya:hot-reachable"
    );
    println!("                          set, SAFETY linkage for sanctioned unsafe");
    println!("  8  simd contract        committed packed-vs-scalar bench rows beat scalar and");
    println!("                          agree with the CPU model's packed-speedup prediction");
    println!("  9  serve contract       pooled multi-tenant isolation, per-tenant conservation,");
    println!("                          DRR fairness, and the BENCH_serve.json service floor");
    println!("  11 probe contract       flight recorder bitwise-transparent and bounded, seeded");
    println!("                          stalls leave a diagnosing black-box dump, and the perf");
    println!("                          sentinel stays quiet on the committed bench baselines");
    println!("seed modes (--seed-violation <mode>, exit 0 iff caught):");
    for (mode, what) in SEED_MODES {
        println!("  {mode:<19} {what}");
    }
    ExitCode::SUCCESS
}

/// Every seed mode with a one-line description; `--list` prints these and
/// `main` rejects anything not in the table.
const SEED_MODES: &[(&str, &str)] = &[
    (
        "coloring",
        "collapse the coloring; pass 2 must report races",
    ),
    (
        "contract-store",
        "forge a workspace store; pass 1 must flag it",
    ),
    (
        "contract-registers",
        "inflate live values; pass 1 must flag register pressure",
    ),
    (
        "shard-mismatch",
        "validate shards against a reordered mesh; pass 2 must reject",
    ),
    (
        "comm-drop",
        "lose a delivered halo message; pass 4 must flag it",
    ),
    (
        "overlap-stall",
        "withhold a halo send; the pass-5 watchdog must fire",
    ),
    (
        "telemetry-skew",
        "skew a live counter; pass 6 must flag the drift",
    ),
    (
        "pack-divergence",
        "skew the packed bench rows below scalar; pass 8 must flag it",
    ),
    ("hot-alloc", "hot fn that allocates; pass 7 must flag it"),
    ("hot-panic", "hot fn that may panic; pass 7 must flag it"),
    (
        "hash-iter",
        "hot fn iterating a HashMap; pass 7 must flag it",
    ),
    (
        "missing-safety",
        "unsafe block without SAFETY linkage; pass 7 must flag it",
    ),
    (
        "slot-leak",
        "skip the warm-bind rewind on a reused slot; pass 9's isolation check must flag it",
    ),
    (
        "perf-regression",
        "skew the live throughput to half its committed baseline; the pass-11 sentinel must fire",
    ),
];

/// Seeds one virtual source file through the pass-7 engine and checks that
/// exactly the expected lint fires — no more, no less. Returns `None` for
/// modes this function does not own.
fn seeded_lint(mode: &str) -> Option<bool> {
    let (text, sanctions, expect): (&str, &[UnsafeSanction], LintKind) = match mode {
        "hot-alloc" => (
            "// alya:hot\npub fn scatter(out: &mut Vec<f64>, v: f64) {\n    out.push(v);\n}\n",
            &[],
            LintKind::HotAlloc,
        ),
        "hot-panic" => (
            "// alya:hot\npub fn gather(x: Option<f64>) -> f64 {\n    x.unwrap()\n}\n",
            &[],
            LintKind::HotPanic,
        ),
        "hash-iter" => (
            "// alya:hot\npub fn combine(msgs: &[(u32, f64)], out: &mut [f64]) {\n    let mut acc = std::collections::HashMap::from_iter(msgs.iter().copied());\n    for (k, v) in acc.drain() {\n        out[k as usize] += v;\n    }\n}\n",
            &[],
            LintKind::HashIter,
        ),
        "missing-safety" => (
            // A sanctioned site that lost its SAFETY comment: the linkage
            // check must flag both the bare site and the now-unmatched
            // allowlist marker.
            "pub fn writeback(dst: *mut f64, v: f64) {\n    unsafe { *dst += v }\n}\n",
            &[UnsafeSanction {
                file: "crates/x/src/seeded.rs",
                marker: "unsafe[seeded-writeback]",
            }],
            LintKind::MissingSafety,
        ),
        _ => return None,
    };
    let files = [SourceFile {
        path: "crates/x/src/seeded.rs".into(),
        text: text.into(),
    }];
    let report = alya_lint::analyze(&files, sanctions);
    for v in &report.violations {
        println!("{v}");
    }
    let fired = report.violations.iter().any(|v| v.lint == expect);
    let only = report.violations.iter().all(|v| v.lint == expect);
    if fired && !only {
        eprintln!("seeded {mode} breach also fired unrelated lints — engine over-matches");
    }
    Some(fired && only)
}

/// Injects a known breach; exits 0 iff the analyzer catches it.
fn seeded(mode: &str) -> ExitCode {
    if let Some(caught) = seeded_lint(mode) {
        return seed_verdict(mode, caught);
    }
    let fx = Fixture::new();
    let input = fx.input();
    let caught = match mode {
        "coloring" => {
            // Collapse the proper coloring into a single class: neighbours
            // land in the same class and must be reported.
            let bad = Coloring::from_color_assignment(vec![0; fx.mesh.num_elements()]);
            let report = races::check_coloring(&fx.mesh, &bad);
            println!("{report}");
            !report.is_race_free()
        }
        "contract-store" => {
            // Append one store into the workspace region of an RSPR trace —
            // the signature of staged intermediates creeping back in.
            let lay = Layout::gpu(0, fx.mesh.num_elements(), fx.mesh.num_nodes());
            let mut rec = trace_element(Variant::Rspr, &input, 0, &lay);
            rec.events.push(Event::GStore(layout::WS_BASE + 8));
            let violations =
                contracts::check_trace(Variant::Rspr, &Variant::Rspr.contract(), &rec.events);
            for v in &violations {
                println!("{v}");
            }
            !violations.is_empty()
        }
        "contract-registers" => {
            // Keep 80 extra values live to the end of an RSPR trace: peak
            // pressure and budgeted spills both breach the contract.
            let lay = Layout::gpu(0, fx.mesh.num_elements(), fx.mesh.num_nodes());
            let mut rec = trace_element(Variant::Rspr, &input, 0, &lay);
            for v in 0..80u32 {
                rec.events.push(Event::Def(10_000 + v));
            }
            for v in 0..80u32 {
                rec.events.push(Event::Use(10_000 + v));
            }
            let violations =
                contracts::check_trace(Variant::Rspr, &Variant::Rspr.contract(), &rec.events);
            for v in &violations {
                println!("{v}");
            }
            violations.iter().any(|v| v.message.contains("pressure"))
        }
        "shard-mismatch" => {
            // Build a shard set on one element ordering, validate against a
            // Morton-reordered mesh: the compact connectivity no longer
            // matches the mesh and the validator must reject it — the
            // mutation a stale shard set surviving a mesh reorder produces.
            let set = ShardSet::build(&fx.mesh, &Partition::rcb(&fx.mesh, 8));
            let perm = ordering::element_permutation(&fx.mesh, ordering::ElementOrder::Morton);
            let reordered = ordering::reorder_elements(&fx.mesh, &perm);
            let report = races::check_shard_set(&reordered, &set);
            println!("{report}");
            !report.is_valid()
        }
        "comm-drop" => {
            // Lose one delivered halo message on the busiest channel of a
            // traced 8-rank exchange — the signature of a broken receive
            // loop. The dual-sided counters must expose it.
            let (clean, driver, mut live) = comm::check_distributed(&input, 8);
            if !clean.is_clean() {
                eprintln!("fixture exchange unexpectedly dirty: {clean}");
                return ExitCode::FAILURE;
            }
            let c = live
                .channels
                .iter_mut()
                .max_by_key(|c| c.received_bytes)
                .expect("8-rank decomposition exchanges halo traffic");
            c.received_messages -= 1;
            c.received_bytes -= c.max_message_bytes;
            let report = comm::check_exchange(driver.shard_set(), driver.exchange_plan(), &live);
            println!("{report}");
            !report.is_clean()
        }
        "overlap-stall" => {
            // Withhold one boundary message from an 8-rank overlapped
            // assembly — the signature of a lost send or a wedged peer.
            // The victim's halo-drain stage can never retire, so the
            // scheduler watchdog must fire instead of hanging forever.
            let driver =
                DistributedDriver::new(&fx.mesh, 8).stall_timeout(Duration::from_millis(250));
            let (from, to) = (0..8)
                .find_map(|r| {
                    let send = driver.exchange_plan().rank(r).sends.first()?;
                    Some((r as u32, send.0))
                })
                .expect("8-rank decomposition exchanges halo traffic");
            match driver.assemble_sched(Variant::Rsp, &input, Some(HaloFault { from, to })) {
                Err(stall) => {
                    println!("{stall}");
                    stall.stalled.contains(&"halo-drain")
                }
                Ok(_) => false,
            }
        }
        "telemetry-skew" => {
            // Shave one element's flops off a live counter — the drift a
            // missed tally or a wrong contract rate would produce. The
            // telemetry pass recomputes the closed forms independently
            // and must flag the skew.
            let (clean, exp, mut live) = telemetry::check_distributed_telemetry(&input, 8);
            if !clean.is_clean() {
                eprintln!("fixture telemetry unexpectedly dirty: {clean}");
                return ExitCode::FAILURE;
            }
            let sc = alya_core::metrics::scope(exp.variant);
            let flops = live.counter(sc, Metric::Flops);
            live.set_counter(sc, Metric::Flops, flops - exp.variant.contract().flops);
            let report = telemetry::check_report(&live, &exp);
            println!("{report}");
            !report.is_clean()
        }
        "pack-divergence" => {
            // Skew every committed packed serial row to half the scalar
            // throughput — the regression a broken pack gather or a
            // scalar-fallback-everywhere dispatch would produce. Pass 8
            // must flag exactly the skewed cells, and nothing else.
            let root = sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
            let clean = simd::check_workspace_simd(Some(&root));
            if !clean.checked || !clean.is_clean() {
                eprintln!("committed bench report unexpectedly dirty: {clean}");
                return ExitCode::FAILURE;
            }
            let skewed: Vec<String> = clean
                .cells
                .iter()
                .flat_map(|c| {
                    [
                        format!(
                            "{{\"strategy\": \"serial\", \"variant\": \"{}\", \
                             \"threads\": 1, \"melem_per_s\": {:.3}}}",
                            c.variant.name(),
                            c.scalar_melem
                        ),
                        format!(
                            "{{\"strategy\": \"serial-packed\", \"variant\": \"{}\", \
                             \"threads\": 1, \"melem_per_s\": {:.3}}}",
                            c.variant.name(),
                            0.5 * c.scalar_melem
                        ),
                    ]
                })
                .collect();
            let db = ThroughputDb::parse(&format!("[{}]", skewed.join(",\n")))
                .expect("skewed rows are well-formed");
            let report = simd::check_db(&db, &simd::fixture_predictions());
            println!("{report}");
            // Every measured cell must be flagged as a packed regression —
            // the exact check this mode seeds against.
            !report.is_clean()
                && report.violations.iter().any(|v| v.contains("regressed"))
                && report.cells.len() == clean.cells.len()
        }
        "slot-leak" => {
            // Skip the warm-bind rewind on every reused slot: a re-admitted
            // session continues from the previous session's final state —
            // the cross-tenant leak pooling must never allow. The pass-9
            // isolation check (identical work ⇒ bitwise-identical digest)
            // must flag it, and nothing else may fire: conservation and
            // accounting still hold on a leaked-but-counted slot.
            let clean = serve::check_report(&serve::run_pool_scenario(false));
            if !clean.is_clean() {
                eprintln!("clean pooled scenario unexpectedly dirty: {clean}");
                return ExitCode::FAILURE;
            }
            let report = serve::check_report(&serve::run_pool_scenario(true));
            println!("{report}");
            !report.is_clean() && report.violations.iter().all(|v| v.contains("isolation"))
        }
        "perf-regression" => {
            // Arm the sentinel from the committed bench reports and
            // confirm it is quiet, then replay the same keys with every
            // throughput halved — the drift a broken dispatch or a
            // silently degraded machine would produce. Every skewed row
            // (and nothing else) must fire the sentinel.
            let root = sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
            let Some(pairs) = probe::sentinel_pairs_from_workspace(&root) else {
                eprintln!("no committed bench reports to arm the sentinel from");
                return ExitCode::FAILURE;
            };
            let (baselines, quiet) = probe::check_sentinel_pairs(&pairs);
            if baselines == 0 || !quiet.is_empty() {
                eprintln!("committed baselines unexpectedly noisy: {quiet:?}");
                return ExitCode::FAILURE;
            }
            let skewed: Vec<probe::SentinelPair> = pairs
                .iter()
                .map(|p| probe::SentinelPair {
                    key: p.key.clone(),
                    expected: p.expected,
                    measured: if p.key.starts_with("melem_per_s/") {
                        0.5 * p.measured
                    } else {
                        p.measured
                    },
                })
                .collect();
            let (_, drifts) = probe::check_sentinel_pairs(&skewed);
            for d in &drifts {
                println!("{d}");
            }
            let melem_rows = skewed
                .iter()
                .filter(|p| p.key.starts_with("melem_per_s/"))
                .count();
            melem_rows > 0
                && drifts.len() == melem_rows
                && drifts.iter().all(|d| d.contains("melem_per_s/"))
        }
        other => {
            eprintln!("unknown seed mode {other:?}; run `audit --list` for the full table");
            return ExitCode::FAILURE;
        }
    };
    seed_verdict(mode, caught)
}

fn seed_verdict(mode: &str, caught: bool) -> ExitCode {
    if caught {
        println!("seeded {mode} violation caught — analyzer is alive");
        ExitCode::SUCCESS
    } else {
        eprintln!("seeded {mode} violation NOT caught — analyzer is blind");
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => full_audit(),
        [flag] if flag == "--list" => list_modes(),
        [flag] if flag == "--lint" => lint_only(),
        [flag, mode] if flag == "--seed-violation" => {
            if SEED_MODES.iter().any(|(m, _)| m == mode) {
                seeded(mode)
            } else {
                eprintln!("unknown seed mode {mode:?}; run `audit --list` for the full table");
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: audit [--list | --lint | --seed-violation <mode>]");
            eprintln!("       run `audit --list` for every pass and seed mode");
            ExitCode::FAILURE
        }
    }
}
