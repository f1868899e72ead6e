//! Shared plumbing for the reproduction binaries and benchmarks.
//!
//! * [`case`] — the benchmark scenario: a Bolund-like terrain mesh with an
//!   atmospheric-boundary-layer velocity profile (the stand-in for the
//!   paper's 5.6 M-node / 32 M-tet LES case);
//! * [`profile`] — turns each kernel variant into the lowered event
//!   streams and register demands the machine models consume (running the
//!   register allocator exactly where the compilers would);
//! * [`paper`] — the published Table I/II/III and figure values, printed
//!   side by side with the model output;
//! * [`report`] — plain-text table formatting.
//!
//! Conventions carried over from the paper: runtimes are reported for the
//! full 32 M-element Bolund mesh and for **three assembly sweeps** per
//! reported "runtime" (the explicit scheme evaluates the RHS three times
//! per step; this reconciles the paper's milliseconds with its per-element
//! counters, e.g. 6293 Flop × 32 M / 163 GF/s ≈ 1.24 s ≈ 3773 ms / 3).

#![forbid(unsafe_code)]

pub mod blackbox;
pub mod case;
pub mod harness;
pub mod paper;
pub mod profile;
pub mod report;
pub mod trace;

/// Elements of the paper's Bolund mesh (runtime scaling target).
pub const PAPER_ELEMS: usize = 32_000_000;

/// RHS evaluations per reported runtime (3-stage explicit scheme).
pub const CALLS_PER_RUNTIME: f64 = 3.0;
