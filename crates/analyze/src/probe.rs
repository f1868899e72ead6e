//! Pass 11 — the probe (flight recorder / black box) checker.
//!
//! The flight recorder in `alya-telemetry` ([`recorder`]) is allowed to
//! be always-on only because it is provably inert: recording must not
//! change a single assembled bit, retention must stay bounded, and the
//! post-mortem machinery must actually tell the story when something
//! wedges. This pass holds all three claims on the live fixture:
//!
//! * **recorder transparency** — a pipelined distributed assembly runs
//!   twice, recorder on then off, and the two RHS vectors must be
//!   bitwise identical (`f64::to_bits`, not a tolerance) with identical
//!   comm accounting. The on-run must also have recorded real events —
//!   a silently-dead recorder is a violation, not a pass;
//! * **bounded retention** — after the on-run, no per-thread ring holds
//!   more than [`recorder::RING_CAP`] events: the flight recorder
//!   forgets, it never grows;
//! * **black-box dump** — a seeded [`HaloFault`] trips the `alya-sched`
//!   watchdog, and the automatic dump must name every stalled stage,
//!   diagnose who was blocked on whom (`waiting on rank N`), and export
//!   a chrome trace that parses.

use std::sync::Mutex;
use std::time::Duration;

use alya_core::{AssemblyInput, DistributedDriver, HaloFault, Variant};
use alya_telemetry::{export, recorder};

/// Rank count of the pass's distributed runs (matches the audit shard
/// count's spirit: enough ranks that every rank really exchanges halos).
pub const PROBE_RANKS: usize = 4;

/// Watchdog window for the seeded-stall dump check — long enough that a
/// healthy exchange never trips it, short enough to keep the audit fast.
pub const STALL_WINDOW: Duration = Duration::from_millis(150);

/// Variants the transparency check sweeps (one spilling, one
/// register-resident — the instrumented paths differ, the bits may not).
pub const PROBE_VARIANTS: [Variant; 2] = [Variant::Rsp, Variant::Rspr];

/// Serializes recorder-global state (the enabled gate, the last-dump slot)
/// across concurrent checks in one process: a parallel test run toggling
/// the recorder off mid-stall-check would starve the dump of events.
static PROBE_GATE: Mutex<()> = Mutex::new(());

/// Outcome of checking the probe contract.
#[derive(Debug, Clone, Default)]
pub struct ProbeContractReport {
    /// Whether the recorder-transparency half ran.
    pub recorder_checked: bool,
    /// Variants whose on/off runs compared bitwise equal.
    pub transparent_variants: usize,
    /// Whether the seeded-stall dump half ran.
    pub dump_checked: bool,
    /// Every contract breach found (empty when clean).
    pub violations: Vec<String>,
}

impl ProbeContractReport {
    /// Whether the flight recorder honored its contract.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for ProbeContractReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.is_clean() {
            return write!(f, "PROBE VIOLATION: {}", self.violations.join("; "));
        }
        write!(
            f,
            "probe-clean: recorder bitwise-transparent over {} variant(s); \
             seeded stall dumped and diagnosed",
            self.transparent_variants
        )
    }
}

/// Runs the full pass on the live fixture: transparency + retention +
/// stall dump.
pub fn check_probe(input: &AssemblyInput) -> ProbeContractReport {
    let _gate = PROBE_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut report = ProbeContractReport::default();
    check_recorder(input, &mut report);
    check_stall_dump(input, &mut report);
    report
}

/// Recorder on/off bitwise transparency + bounded ring retention.
fn check_recorder(input: &AssemblyInput, report: &mut ProbeContractReport) {
    report.recorder_checked = true;
    let driver = DistributedDriver::new(input.mesh, PROBE_RANKS);
    for variant in PROBE_VARIANTS {
        recorder::set_enabled(true);
        let before = recorder::total_events();
        let on = driver.assemble_sched(variant, input, None);
        let recorded = recorder::total_events() - before;
        recorder::set_enabled(false);
        let off = driver.assemble_sched(variant, input, None);
        recorder::set_enabled(true);
        let (Ok((a, ra, _)), Ok((b, rb, _))) = (on, off) else {
            report.violations.push(format!(
                "{variant}: fault-free pipelined assembly stalled during the recorder check"
            ));
            continue;
        };
        if recorded == 0 {
            report.violations.push(format!(
                "{variant}: the recorder-on pipelined assembly recorded no events — \
                 the flight recorder is dead"
            ));
        }
        let (xs, ys) = (a.as_slice(), b.as_slice());
        let bits_equal =
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits());
        if !bits_equal {
            report.violations.push(format!(
                "{variant}: recorder on/off changed an RHS bit — recording is not observer-only"
            ));
        } else {
            report.transparent_variants += 1;
        }
        if ra != rb {
            report.violations.push(format!(
                "{variant}: recorder on/off changed the comm accounting"
            ));
        }
    }
    for log in &recorder::snapshot("pass-11 retention check").threads {
        if log.events.len() > recorder::RING_CAP {
            report.violations.push(format!(
                "thread '{}' retained {} events, past the {}-slot ring bound — \
                 the recorder is growing, not forgetting",
                log.label,
                log.events.len(),
                recorder::RING_CAP
            ));
        }
    }
}

/// A seeded [`HaloFault`] must trip the watchdog *and* leave a black-box
/// dump that names the stalled stage and the rank it waited on.
fn check_stall_dump(input: &AssemblyInput, report: &mut ProbeContractReport) {
    report.dump_checked = true;
    recorder::set_enabled(true);
    recorder::clear_last_dump();
    let driver = DistributedDriver::new(input.mesh, PROBE_RANKS).stall_timeout(STALL_WINDOW);
    // Withhold a message that is really owed, so exactly one rank starves.
    let plan = driver.exchange_plan();
    let Some((from, to)) = (0..PROBE_RANKS as u32)
        .find_map(|r| plan.rank(r as usize).sends.first().map(|&(to, _)| (r, to)))
    else {
        report.violations.push(format!(
            "a {PROBE_RANKS}-rank decomposition of the fixture exchanges nothing — \
             no channel to fault"
        ));
        return;
    };
    let Err(stall) = driver.assemble_sched(Variant::Rsp, input, Some(HaloFault { from, to }))
    else {
        report.violations.push(format!(
            "withholding the rank {from}→{to} halo message did not trip the watchdog"
        ));
        return;
    };
    let Some(dump) = recorder::last_dump() else {
        report
            .violations
            .push("the watchdog stall produced no black-box dump".into());
        return;
    };
    // Every unretired stage is named somewhere in the dump (stages that
    // never began only appear in the capture reason), and at least one —
    // the drain the starved rank is actually sitting in — carries a full
    // per-thread diagnosis line.
    for stage in &stall.stalled {
        if !dump.contains(stage) {
            report.violations.push(format!(
                "the black-box dump does not name stalled stage \"{stage}\""
            ));
        }
    }
    if !stall
        .stalled
        .iter()
        .any(|s| dump.contains(&format!("stalled in \"{s}\"")))
    {
        report.violations.push(
            "the black-box dump diagnosed no stalled stage — \
             the open-stage narrative is missing"
                .into(),
        );
    }
    if !dump.contains(&format!("waiting on rank {from}")) {
        report.violations.push(format!(
            "the black-box dump does not blame rank {from}, \
             whose halo message was withheld"
        ));
    }
    // The machine-readable export of the same snapshot must parse.
    let trace = recorder::snapshot("pass-11 trace check").chrome_trace();
    if let Err(e) = export::validate_json(&trace) {
        report
            .violations
            .push(format!("the black-box chrome trace does not parse: {e}"));
    }
}
