//! Stage graph and the deterministic single-thread executor.

use std::fmt;
use std::time::{Duration, Instant};

use alya_telemetry as telemetry;

use crate::trace::{BufId, BufMeta, SchedEvent, SchedTrace, StageId, StageMeta};

/// What a stage body reports after one cooperative slice of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// The stage completed; it retires and is never called again.
    Done,
    /// Work was done but more remains — call again.
    Progress,
    /// Nothing to do right now (e.g. no message arrived); call again.
    /// Only `Idle` rounds count toward the stall watchdog.
    Idle,
}

/// Stall watchdog configuration for [`Pipeline::run`].
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    /// If no stage reports `Done`/`Progress` for this long, the run
    /// aborts with a [`Stall`].
    pub stall_timeout: Duration,
}

impl Watchdog {
    /// Watchdog firing after `stall_timeout` without progress.
    pub fn after(stall_timeout: Duration) -> Self {
        Self { stall_timeout }
    }
}

impl Default for Watchdog {
    /// Generous default — meant to catch deadlocks, not slow stages.
    fn default() -> Self {
        Self::after(Duration::from_secs(30))
    }
}

/// A pipeline run made no progress for longer than the watchdog window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stall {
    /// Pipeline name.
    pub pipeline: &'static str,
    /// Names of the stages that had not retired when the watchdog fired.
    pub stalled: Vec<&'static str>,
    /// How long the executor waited without progress.
    pub waited: Duration,
}

impl fmt::Display for Stall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline '{}' stalled for {:?}; unretired stages: {}",
            self.pipeline,
            self.waited,
            self.stalled.join(", ")
        )
    }
}

impl std::error::Error for Stall {}

/// Per-call context handed to stage bodies: event recording plus
/// read-only visibility into which stages have retired.
pub struct StageCtx<'r> {
    stage: u32,
    events: &'r mut Vec<SchedEvent>,
    retired: &'r [bool],
}

impl StageCtx<'_> {
    /// Whether stage `s` has retired. Lets a polling stage switch from
    /// nonblocking to blocking waits once its compute sibling finished.
    pub fn retired(&self, s: StageId) -> bool {
        self.retired[s.index()]
    }

    /// Records that this stage consumed buffer `b`'s contents. Pass-5
    /// checks every read lands after the producer's publish.
    // alya:hot
    pub fn buf_read(&mut self, b: BufId) {
        // alya:allow(hot-alloc): the schedule trace is the pass-5 audit
        // artifact — one bounded append per buffer read, a handful per
        // pipeline run, never per element.
        self.events.push(SchedEvent::BufRead {
            stage: self.stage,
            buf: b.0,
        });
    }

    /// Records a checker-visible breadcrumb (e.g. the peer rank of each
    /// combine step, in order).
    // alya:hot
    pub fn note(&mut self, tag: &'static str, value: u64) {
        // alya:allow(hot-alloc): same pass-5 trace channel as `buf_read` —
        // one append per combine/recv breadcrumb, bounded by rank count.
        self.events.push(SchedEvent::Note {
            stage: self.stage,
            tag,
            value,
        });
    }
}

type StageBody<'a, C> = Box<dyn FnMut(&mut C, &mut StageCtx<'_>) -> StageStatus + 'a>;

struct Stage<'a, C> {
    name: &'static str,
    deps: Vec<u32>,
    body: StageBody<'a, C>,
}

/// A deterministic stage pipeline over a shared mutable context `C`.
///
/// Stages are created in dependency order — [`Pipeline::stage`] only
/// accepts [`StageId`]s of already-created stages, so cycles cannot be
/// expressed. [`Pipeline::run`] executes everything on the calling
/// thread, sweeping runnable stages in creation order; a stage body is a
/// cooperative coroutine that does one bounded chunk per call.
pub struct Pipeline<'a, C> {
    name: &'static str,
    stages: Vec<Stage<'a, C>>,
    buffers: Vec<BufMeta>,
}

impl<'a, C> Pipeline<'a, C> {
    /// New empty pipeline.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            stages: Vec::new(),
            buffers: Vec::new(),
        }
    }

    /// Adds a stage that becomes runnable once every stage in `deps` has
    /// retired. Returns its id for later stages to depend on.
    ///
    /// # Panics
    /// If a dependency id does not refer to an already-created stage.
    pub fn stage(
        &mut self,
        name: &'static str,
        deps: &[StageId],
        body: impl FnMut(&mut C, &mut StageCtx<'_>) -> StageStatus + 'a,
    ) -> StageId {
        let id = self.stages.len() as u32;
        for d in deps {
            assert!(d.0 < id, "stage '{name}' depends on a later stage");
        }
        self.stages.push(Stage {
            name,
            deps: deps.iter().map(|d| d.0).collect(),
            body: Box::new(body),
        });
        StageId(id)
    }

    /// Declares a buffer whose contents become final when `producer`
    /// retires (the executor records the publish event automatically).
    ///
    /// # Panics
    /// If `producer` does not refer to an already-created stage.
    pub fn buffer(&mut self, name: &'static str, producer: StageId) -> BufId {
        assert!(
            (producer.0 as usize) < self.stages.len(),
            "buffer '{name}' names an unknown producer"
        );
        let id = self.buffers.len() as u32;
        self.buffers.push(BufMeta {
            name,
            producer: producer.0,
        });
        BufId(id)
    }

    /// Runs the pipeline to completion on the calling thread.
    ///
    /// Deterministic given deterministic stage bodies: the executor
    /// sweeps stages in creation order, calling each enqueued, unretired
    /// body once per round. If a full round yields neither `Done` nor
    /// `Progress`, the round was idle; once idle time exceeds the
    /// watchdog window the run aborts with [`Stall`].
    pub fn run(mut self, ctx: &mut C, watchdog: Watchdog) -> Result<SchedTrace, Stall> {
        let n = self.stages.len();
        let mut trace = SchedTrace {
            pipeline: self.name,
            stages: self
                .stages
                .iter()
                .map(|s| StageMeta {
                    name: s.name,
                    deps: s.deps.clone(),
                })
                .collect(),
            buffers: self.buffers.clone(),
            events: Vec::new(),
        };
        // Telemetry: each stage lives on its own sub-track (tid = stage
        // index + 1; tid 0 is the rank's main row) of the calling
        // thread's trace process, so concurrent stages of one rank render
        // as overlapping rows in the chrome export. The `SchedTrace`
        // events below and these spans are two views of one timeline:
        // a span opens at `Started` and closes at `Retired`.
        for (s, stage) in self.stages.iter().enumerate() {
            telemetry::set_track_label_here(s as u32 + 1, stage.name);
        }
        let mut span_start = vec![0u64; n];
        let mut enqueued = vec![false; n];
        let mut started = vec![false; n];
        let mut retired = vec![false; n];
        for s in 0..n {
            if self.stages[s].deps.is_empty() {
                enqueued[s] = true;
                trace.events.push(SchedEvent::Enqueued { stage: s as u32 });
            }
        }
        let mut last_progress = Instant::now();
        let mut idle_rounds: u32 = 0;
        loop {
            let mut progressed = false;
            for s in 0..n {
                if !enqueued[s] || retired[s] {
                    continue;
                }
                if !started[s] {
                    started[s] = true;
                    span_start[s] = telemetry::stage_begin(self.stages[s].name);
                    trace.events.push(SchedEvent::Started { stage: s as u32 });
                }
                let status = {
                    let mut sctx = StageCtx {
                        stage: s as u32,
                        events: &mut trace.events,
                        retired: &retired,
                    };
                    (self.stages[s].body)(ctx, &mut sctx)
                };
                match status {
                    StageStatus::Done => {
                        // Publish this stage's buffers, then retire it and
                        // enqueue anything the retirement unblocks.
                        for (b, meta) in self.buffers.iter().enumerate() {
                            if meta.producer == s as u32 {
                                trace.events.push(SchedEvent::BufPublish {
                                    stage: s as u32,
                                    buf: b as u32,
                                });
                            }
                        }
                        retired[s] = true;
                        telemetry::stage_end(self.stages[s].name, s as u32 + 1, span_start[s]);
                        trace.events.push(SchedEvent::Retired { stage: s as u32 });
                        for (t, stage) in self.stages.iter().enumerate() {
                            if !enqueued[t] && stage.deps.iter().all(|&d| retired[d as usize]) {
                                enqueued[t] = true;
                                trace.events.push(SchedEvent::Enqueued { stage: t as u32 });
                            }
                        }
                        progressed = true;
                    }
                    StageStatus::Progress => progressed = true,
                    StageStatus::Idle => {}
                }
            }
            if retired.iter().all(|&r| r) {
                return Ok(trace);
            }
            if progressed {
                last_progress = Instant::now();
                idle_rounds = 0;
            } else {
                idle_rounds += 1;
                let waited = last_progress.elapsed();
                if waited > watchdog.stall_timeout {
                    let stalled = self
                        .stages
                        .iter()
                        .enumerate()
                        .filter(|&(s, _)| !retired[s])
                        .map(|(_, stage)| stage.name)
                        .collect();
                    let stall = Stall {
                        pipeline: self.name,
                        stalled,
                        waited,
                    };
                    // Leave the stall in this thread's flight-recorder
                    // ring before unwinding: the black-box dump then
                    // carries the watchdog's own verdict alongside the
                    // raw event trail.
                    telemetry::recorder::note_warn(&format!("watchdog: {stall}"));
                    return Err(stall);
                }
                // Back off gently: yield first (another rank thread may be
                // about to send), then sleep short slices so a genuinely
                // waiting pipeline does not monopolise a core.
                if idle_rounds > 64 {
                    std::thread::sleep(Duration::from_micros(200));
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_run_in_dependency_order_and_trace_is_well_formed() {
        let mut order = Vec::new();
        let mut pipe: Pipeline<'_, Vec<u32>> = Pipeline::new("test");
        let a = pipe.stage("a", &[], |c, _| {
            c.push(1);
            StageStatus::Done
        });
        let buf = pipe.buffer("a-out", a);
        let b = pipe.stage("b", &[a], move |c, ctx| {
            ctx.buf_read(buf);
            c.push(2);
            StageStatus::Done
        });
        let _c = pipe.stage("c", &[a, b], |c, ctx| {
            ctx.note("combine", 7);
            c.push(3);
            StageStatus::Done
        });
        let trace = pipe.run(&mut order, Watchdog::default()).unwrap();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(trace.notes("combine"), vec![7]);
        // One enqueue/start/retire per stage, in consistent order.
        for s in 0..3u32 {
            let idx = |ev: &SchedEvent| trace.events.iter().position(|e| e == ev).unwrap();
            let enq = idx(&SchedEvent::Enqueued { stage: s });
            let start = idx(&SchedEvent::Started { stage: s });
            let ret = idx(&SchedEvent::Retired { stage: s });
            assert!(enq < start && start < ret);
        }
        // The publish of a's buffer precedes b's read.
        let publish = trace
            .events
            .iter()
            .position(|e| matches!(e, SchedEvent::BufPublish { buf: 0, .. }))
            .unwrap();
        let read = trace
            .events
            .iter()
            .position(|e| matches!(e, SchedEvent::BufRead { buf: 0, .. }))
            .unwrap();
        assert!(publish < read);
    }

    #[test]
    fn cooperative_stages_interleave_and_idle_does_not_stall_progressing_runs() {
        struct Ctx {
            a_left: u32,
            b_left: u32,
            log: Vec<(&'static str, u32)>,
        }
        let mut ctx = Ctx {
            a_left: 3,
            b_left: 3,
            log: Vec::new(),
        };
        let mut pipe: Pipeline<'_, Ctx> = Pipeline::new("interleave");
        pipe.stage("a", &[], |c, _| {
            c.a_left -= 1;
            c.log.push(("a", c.a_left));
            if c.a_left == 0 {
                StageStatus::Done
            } else {
                StageStatus::Progress
            }
        });
        pipe.stage("b", &[], |c, _| {
            if c.a_left > 0 {
                // Pretend to wait on a; Idle must not trip the watchdog
                // while a progresses.
                return StageStatus::Idle;
            }
            c.b_left -= 1;
            c.log.push(("b", c.b_left));
            if c.b_left == 0 {
                StageStatus::Done
            } else {
                StageStatus::Progress
            }
        });
        let trace = pipe
            .run(&mut ctx, Watchdog::after(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(ctx.a_left, 0);
        assert_eq!(ctx.b_left, 0);
        // Exactly enqueue + start + retire for stage a, no duplicates.
        assert_eq!(trace.events.iter().filter(|e| e.stage() == 0).count(), 3);
        assert_eq!(
            ctx.log,
            vec![("a", 2), ("a", 1), ("a", 0), ("b", 2), ("b", 1), ("b", 0)]
        );
    }

    #[test]
    fn watchdog_fires_on_a_stage_that_never_progresses() {
        let mut pipe: Pipeline<'_, ()> = Pipeline::new("wedged");
        pipe.stage("ok", &[], |(), _| StageStatus::Done);
        pipe.stage("stuck", &[], |(), _| StageStatus::Idle);
        let err = pipe
            .run(&mut (), Watchdog::after(Duration::from_millis(50)))
            .unwrap_err();
        assert_eq!(err.pipeline, "wedged");
        assert_eq!(err.stalled, vec!["stuck"]);
        assert!(err.waited >= Duration::from_millis(50));
        let text = err.to_string();
        assert!(text.contains("wedged") && text.contains("stuck"), "{text}");
    }

    #[test]
    #[should_panic(expected = "depends on a later stage")]
    fn forward_dependencies_are_rejected() {
        let mut pipe: Pipeline<'_, ()> = Pipeline::new("bad");
        let a = pipe.stage("a", &[], |(), _| StageStatus::Done);
        // Fabricate an id beyond the current stage count.
        let bogus = StageId(a.0 + 5);
        pipe.stage("b", &[bogus], |(), _| StageStatus::Done);
    }

    #[test]
    fn empty_dependency_stage_retires_immediately_even_with_no_work() {
        let pipe: Pipeline<'_, ()> = Pipeline::new("empty");
        let trace = pipe.run(&mut (), Watchdog::default());
        assert!(trace.unwrap().events.is_empty());
    }
}
