//! `alya-sched` — a small deterministic task-stage scheduler.
//!
//! The paper's single-GPU result is about eliminating dead time *inside*
//! the kernel (RSPR: immediate scatter, no spilled intermediates). At the
//! multi-rank level the analogous dead time is the halo exchange the
//! distributed driver would otherwise run back-to-back with assembly.
//! This crate provides that scheduling substrate:
//!
//! * [`Pipeline`] — a handful of named stages with **typed dependencies**
//!   (a stage only names stages created before it, so the graph is a DAG
//!   by construction). Stage bodies are cooperative: each call does a
//!   bounded chunk of work and reports [`StageStatus::Progress`],
//!   [`StageStatus::Idle`] or [`StageStatus::Done`]. The executor sweeps
//!   stages **in creation order** on a single thread, which keeps every
//!   interleaving decision deterministic and auditable — concurrency
//!   lives in the rank threads *around* pipelines, never inside one.
//! * [`Watchdog`] / [`Stall`] — if no stage makes progress for the
//!   configured window, [`Pipeline::run`] returns a [`Stall`] naming the
//!   unretired stages instead of spinning forever. The audit binary's
//!   `--seed-violation overlap-stall` mode exists to prove this fires.
//! * [`SchedTrace`] — every run records an event log (enqueue / start /
//!   retire per stage, buffer publish/read edges, free-form notes) that
//!   the analyzer's pass-5 schedule contract replays structurally.
//!
//! No external dependencies, no unsafe code.

#![forbid(unsafe_code)]

mod stage;
mod trace;

pub use stage::{Pipeline, StageCtx, StageStatus, Stall, Watchdog};
pub use trace::{BufId, BufMeta, SchedEvent, SchedTrace, StageId, StageMeta};
