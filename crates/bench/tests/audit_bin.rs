//! End-to-end exercise of the `audit` binary: the full audit must pass on
//! the real kernels, and each seeded-violation mode must be caught (exit 0
//! in seed mode means "the analyzer saw the breach").

use std::process::Command;

fn audit(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(args)
        .output()
        .expect("audit binary runs")
}

#[test]
fn full_audit_is_clean_on_the_real_kernels() {
    let out = audit(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "audit failed:\n{stdout}");
    assert!(stdout.contains("audit clean"), "{stdout}");
}

#[test]
fn seeded_violations_are_all_caught() {
    for mode in ["coloring", "contract-store", "contract-registers"] {
        let out = audit(&["--seed-violation", mode]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "seeded {mode} violation was not caught:\n{stdout}"
        );
        assert!(stdout.contains("caught"), "{stdout}");
    }
}

#[test]
fn seeded_lint_violations_fire_exactly_their_lint() {
    for mode in ["hot-alloc", "hot-panic", "hash-iter", "missing-safety"] {
        let out = audit(&["--seed-violation", mode]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "seeded {mode} violation was not caught:\n{stdout}{stderr}"
        );
        assert!(stdout.contains("caught"), "{stdout}");
        // Every printed finding carries the seeded lint's own tag — the
        // engine neither missed the breach nor over-matched around it.
        for line in stdout.lines().filter(|l| l.contains(": [")) {
            assert!(line.contains(&format!("[{mode}]")), "{mode}: {stdout}");
        }
        assert!(
            !stderr.contains("over-matches"),
            "{mode} fired unrelated lints:\n{stdout}{stderr}"
        );
    }
}

#[test]
fn list_names_every_pass_and_seed_mode() {
    let out = audit(&["--list"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for pass in ["1 ", "2 ", "3 ", "4 ", "5 ", "6 ", "7 ", "8 ", "9 ", "11 "] {
        assert!(
            stdout.contains(&format!("  {pass}")),
            "pass {pass}: {stdout}"
        );
    }
    for mode in [
        "coloring",
        "contract-store",
        "contract-registers",
        "shard-mismatch",
        "comm-drop",
        "overlap-stall",
        "telemetry-skew",
        "pack-divergence",
        "hot-alloc",
        "hot-panic",
        "hash-iter",
        "missing-safety",
        "slot-leak",
    ] {
        assert!(stdout.contains(mode), "mode {mode}: {stdout}");
    }
    // Pass 11 checks the flight recorder only: no bench-baseline
    // sentinel line, no seed mode for one.
    assert!(!stdout.contains("sentinel"), "{stdout}");
}

#[test]
fn lint_fast_gate_is_clean_on_this_workspace() {
    let out = audit(&["--lint"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "lint gate failed:\n{stdout}");
    assert!(stdout.contains("lint clean"), "{stdout}");
    assert!(stdout.contains("hot root(s)"), "{stdout}");
}

#[test]
fn unknown_arguments_fail_fast() {
    assert!(!audit(&["--nonsense"]).status.success());
    assert!(!audit(&["--seed-violation", "bogus"]).status.success());
}
