//! `--probe-dump` support for the reproduction binaries: persist the
//! telemetry flight recorder's black box at exit.
//!
//! Two files are written: the human-readable post-mortem report at the
//! given path, and the same snapshot as chrome `trace_event` JSON at
//! `<path>.trace.json` (validated with the telemetry crate's own JSON
//! parser before it touches disk, like `--trace`).

use alya_telemetry::export::validate_json;
use alya_telemetry::recorder;

/// Snapshots every thread's ring under `reason` and writes the rendered
/// report to `path` plus the chrome trace to `<path>.trace.json`.
///
/// # Panics
/// If the chrome export fails its own JSON validation (a recorder bug,
/// not a caller error) or either file cannot be written.
pub fn write_probe_dump(path: &str, reason: &str) {
    let snap = recorder::snapshot(reason);
    std::fs::write(path, snap.render()).expect("write probe dump");
    let trace = snap.chrome_trace();
    if let Err(e) = validate_json(&trace) {
        panic!("black-box chrome-trace export failed validation: {e}");
    }
    let trace_path = format!("{path}.trace.json");
    std::fs::write(&trace_path, &trace).expect("write probe trace");
    println!(
        "wrote {path} and {trace_path} ({} thread(s), {} event(s) recorded)",
        snap.threads.len(),
        recorder::total_events()
    );
}
