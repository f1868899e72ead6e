//! The repository benchmark: three workloads that stress different layers
//! of the stack, each checked for correctness, plus a traced run that
//! times the calls the benchmark makes into every layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload serve-steps|step-bolund|assemble-bolund|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object; the lines
//! before it are the same numbers for a reader, with sample counts,
//! quartiles and the run's recorded context. The process exits 1 when a
//! correctness gate failed and 2 on a usage error. See `README.md` for the
//! workloads, the metrics and the layer → metric → workload predictions.

mod assemble;
mod fields;
mod host;
mod layers;
mod serve;
mod stats;
mod step;

use std::fmt::Write as _;
use std::time::Instant;

use alya_mesh::TerrainMeshBuilder;
use layers::Layers;
use stats::Summary;

/// Largest worker and rank count any workload uses.
const WORKER_CAP: usize = 2;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Workers and ranks the workloads run at on this host.
pub fn workers() -> usize {
    alya_machine::par::hardware_threads().min(WORKER_CAP)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run options every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
}

/// What one workload's measured loop produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of each step of the workload, milliseconds.
    pub step_ms: Vec<f64>,
    /// Steps completed in the measured window.
    pub steps: u64,
    /// Wall time of the measured window, seconds.
    pub wall_s: f64,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed their gate.
    pub failed: u64,
    /// One line per failure kind, for the report.
    pub failures: Vec<String>,
    /// The workload's own named figures (reported, not in the JSON).
    pub named: Vec<(&'static str, &'static str, Vec<f64>)>,
}

impl Measured {
    /// Counts one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// A set-up workload: its mesh, measured loop and context lines.
pub trait Workload {
    /// The workload's mesh.
    fn mesh(&self) -> &alya_mesh::TetMesh;
    /// Runs the measured loop for `seconds`; with `trace`, also times the
    /// calls into each layer.
    fn run(&mut self, opts: Opts, trace: Option<&mut Layers>) -> Measured;
    /// Lines recording the case: sizes, computed working set, strategy.
    fn context(&self) -> Vec<String>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Serve,
    Step,
    Assemble,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Serve, Kind::Step, Kind::Assemble];

    fn name(self) -> &'static str {
        match self {
            Kind::Serve => "serve-steps",
            Kind::Step => "step-bolund",
            Kind::Assemble => "assemble-bolund",
        }
    }

    fn setup(self, seed: u64) -> Box<dyn Workload> {
        match self {
            Kind::Serve => Box::new(serve::Serve::setup(seed)),
            Kind::Step => Box::new(step::Step::setup(seed)),
            Kind::Assemble => Box::new(assemble::Assemble::setup(seed)),
        }
    }

    fn parse(s: &str) -> Option<Vec<Kind>> {
        if s == "all" {
            return Some(Self::ALL.to_vec());
        }
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .map(|k| vec![k])
    }
}

struct Args {
    kinds: Vec<Kind>,
    opts: Opts,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        opts: Opts {
            seed: 1,
            seconds: 10.0,
        },
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.kinds = Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?;
            }
            "--seed" => args.opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    summary: Option<Summary>,
}

impl Metric {
    fn value(name: &str, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        }
    }

    fn median(name: &str, unit: &'static str, samples: &[f64]) -> Option<Self> {
        let summary = Summary::of(samples)?;
        Some(Self {
            name: name.to_string(),
            unit,
            value: summary.median,
            summary: Some(summary),
        })
    }
}

/// Everything one invocation reports.
#[derive(Default)]
struct Report {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn absorb_checks(&mut self, workload: &str, m: &Measured) {
        // A run that checked nothing proved nothing: count it as failed.
        let (attempted, failed) = if m.attempted == 0 {
            (1, 1)
        } else {
            (m.attempted, m.failed)
        };
        self.attempted += attempted;
        self.failed += failed;
        let frac = failed as f64 / attempted as f64;
        self.lines.push(format!(
            "gate {workload}: {failed} of {attempted} checked operations failed \
             (failed_frac {frac})"
        ));
        for f in &m.failures {
            self.lines.push(format!("  FAILED {f}"));
        }
    }

    /// A metric that could not be measured is a failed check: the JSON
    /// carries only finite numbers.
    fn push_or_fail(&mut self, prefix: &str, name: &str, metric: Option<Metric>) {
        match metric.filter(|m| m.value.is_finite()) {
            Some(mut m) => {
                if !prefix.is_empty() {
                    m.name = format!("{prefix}.{}", m.name);
                }
                self.metrics.push(m);
            }
            None => {
                self.attempted += 1;
                self.failed += 1;
                self.lines
                    .push(format!("  FAILED no finite value for {name}"));
            }
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>6} {:>14} {:>14} {:>14} {:>14} {:>8}",
            "metric", "unit", "n", "median", "q1", "q3", "p90", "spread"
        );
        for m in &self.metrics {
            match m.summary {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "{:<36} {:>8} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>8.4}",
                        m.name,
                        m.unit,
                        s.n,
                        s.median,
                        s.q1,
                        s.q3,
                        s.p90,
                        s.spread()
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{:<36} {:>8} {:>6} {:>14.6}",
                        m.name, m.unit, 1, m.value
                    );
                }
            }
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        out
    }
}

/// Sets `kind` up `SETUPS` times and keeps the last set-up.
fn timed_setups(kind: Kind, seed: u64) -> (Box<dyn Workload>, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(kind.setup(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("SETUPS is at least 1"), times)
}

/// The end-to-end metrics of one untraced run of `kind`.
fn run_untraced(kind: Kind, opts: Opts, report: &mut Report, prefix: &str) {
    let workload = kind.name();
    let (mut w, setup_s) = timed_setups(kind, opts.seed);
    report.lines.extend(w.context());
    let m = w.run(opts, None);
    report.absorb_checks(workload, &m);
    report.push_or_fail(prefix, "setup_s", Metric::median("setup_s", "s", &setup_s));
    report.push_or_fail(
        prefix,
        "peak_rss_mb",
        host::peak_rss_mb().map(|mb| Metric::value("peak_rss_mb", "MB", mb)),
    );
    let rate = (m.wall_s > 0.0 && m.steps > 0).then(|| m.steps as f64 / m.wall_s);
    report.push_or_fail(
        prefix,
        "steps_per_s",
        rate.map(|r| Metric::value("steps_per_s", "1/s", r)),
    );
    let s = Summary::of(&m.step_ms);
    report.push_or_fail(
        prefix,
        "step_p50_ms",
        s.map(|s| Metric {
            name: "step_p50_ms".into(),
            unit: "ms",
            value: s.median,
            summary: Some(s),
        }),
    );
    if let Some(s) = s.filter(|s| !s.p90_supported()) {
        report.lines.push(format!(
            "note {workload}: only {} steps lie beyond the p90 column of step_p50_ms \
             (fewer than 10)",
            stats::tail_count(s.n, 0.9)
        ));
    }
    for (name, unit, samples) in &m.named {
        if let Some(metric) = Metric::median(name, unit, samples) {
            report.lines.push(format!(
                "named {workload} {name}: {} {unit} (median of {}, spread {:.4})",
                metric.value,
                samples.len(),
                metric.summary.map_or(0.0, |s| s.spread())
            ));
        }
    }
}

/// The per-layer run: the selected workload untraced, then every
/// workload traced (the selected one for the whole window, the others for
/// half), so each layer is measured on the workload that exercises it
/// whichever workload was selected.
fn run_traced(selected: Kind, opts: Opts, report: &mut Report, prefix: &str) {
    let untraced = selected.setup(opts.seed).run(opts, None);
    report.absorb_checks(&format!("{} (untraced)", selected.name()), &untraced);
    let mut layers = Layers::default();
    let mut overhead = None;
    for kind in Kind::ALL {
        let mut w = kind.setup(opts.seed);
        let seconds = if kind == selected {
            // The set-up layers, timed again on the selected workload's
            // mesh size: `with_approx_elements` of a built mesh's element
            // count rebuilds the same mesh.
            let t = Instant::now();
            let mesh = TerrainMeshBuilder::with_approx_elements(w.mesh().num_elements()).build();
            layers.add("mesh.build_ms", "ms", ms_since(t));
            let t = Instant::now();
            drop(alya_solver::CaseParts::build(&mesh));
            layers.add("solver.case_parts_ms", "ms", ms_since(t));
            report.lines.extend(w.context());
            opts.seconds
        } else {
            opts.seconds / 2.0
        };
        let m = w.run(Opts { seconds, ..opts }, Some(&mut layers));
        report.absorb_checks(&format!("{} (traced)", kind.name()), &m);
        if kind == selected {
            let median = |m: &Measured| Summary::of(&m.step_ms).map(|s| s.median);
            overhead = median(&untraced)
                .zip(median(&m))
                .map(|(a, b)| Metric::value("trace.overhead_frac", "ratio", b / a - 1.0));
        }
    }
    for (name, unit, samples) in layers.into_entries() {
        report.push_or_fail(prefix, &name, Metric::median(&name, unit, &samples));
    }
    report.push_or_fail(prefix, "trace.overhead_frac", overhead);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: alya-benchmark [--workload serve-steps|step-bolund|assemble-bolund|all] \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.lines.push(host::describe(args.opts.seed));
    let many = args.kinds.len() > 1;
    for &kind in &args.kinds {
        report.lines.push(format!(
            "workload {} seed {} seconds {} trace {}",
            kind.name(),
            args.opts.seed,
            args.opts.seconds,
            u8::from(args.trace)
        ));
        let prefix = if many { kind.name() } else { "" };
        if args.trace {
            run_traced(kind, args.opts, &mut report, prefix);
        } else {
            run_untraced(kind, args.opts, &mut report, prefix);
        }
    }
    println!("{}", report.render());
    if report.failed > 0 {
        std::process::exit(1);
    }
}
