//! Assembly drivers: serial, traced, and thread-parallel.
//!
//! The kernels compute one element (or one pack of elements); the drivers
//! own iteration order, workspace allocation, the ν_t precompute for the
//! baseline variants, and the scatter discipline:
//!
//! * [`assemble_serial`] — one thread, direct read-modify-write scatter;
//! * [`assemble_parallel`] with
//!   * [`ParallelStrategy::TwoPhase`] — parallel elemental compute into a
//!     buffer, then a separate scatter loop (the structure of the paper's
//!     CPU path: "a single vectorization loop and a scalar scatter loop");
//!   * [`ParallelStrategy::Colored`] — races prevented by element
//!     coloring, every color fully parallel with plain stores;
//!   * [`ParallelStrategy::Partitioned`] — owner-computes over mesh
//!     partitions with per-worker buffers and a reduction;
//!   * [`ParallelStrategy::Sharded`] — owner-computes over shards with
//!     **compact local-numbered** accumulation buffers (O(nodes-in-shard),
//!     not O(nn)), unsynchronized direct writeback of interior nodes, and
//!     a parallel **tree reduction** of only the shard-boundary
//!     contributions;
//! * [`assemble_traced`] / [`trace_element`] — the instrumented runs the
//!   performance models replay.
//!
//! Every driver — and each rank of
//! [`DistributedDriver`](crate::DistributedDriver) — hands its element
//! list to one span runner, which runs full packs at the [`ExecMode`]'s
//! width and then the remainder one element at a time. The mode only
//! chooses the width.

use std::sync::Mutex;

use alya_fem::VectorField;
use alya_machine::par;
use alya_machine::{NoRecord, Recorder, TraceRecorder};
use alya_mesh::{Coloring, ElementGraph, NodeToElements, Partition, Shard, ShardSet, TetMesh};
use alya_telemetry as telemetry;
use alya_telemetry::export::parse_json;

use crate::gather::{DirectSink, ElemFrame, ScatterSink};
use crate::input::AssemblyInput;
use crate::kernels;
use crate::lanes::{Lane, Lanes};
use crate::layout::Layout;
use crate::metrics;
use crate::nut::compute_nu_t;
use crate::packs::{ElemPack, PackFrame, DEFAULT_LANES};
use crate::variant::Variant;

/// Elements per pack on the CPU path (the paper's optimal `VECTOR_DIM`).
pub const CPU_VECTOR_DIM: usize = 16;

/// Whether `variant` runs packed under [`ExecMode::Packed`]. **P**
/// deliberately does not: its defining trait is the per-thread *local*
/// workspace, which has no cross-element lane dimension to pack — the
/// drivers run it one element at a time in either mode.
pub fn pack_supported(variant: Variant) -> bool {
    !matches!(variant, Variant::P)
}

/// Attaches the ν_t pass output when the variant needs it, then calls `f`.
pub(crate) fn with_nut<T>(
    variant: Variant,
    input: &AssemblyInput,
    f: impl FnOnce(&AssemblyInput) -> T,
) -> T {
    if variant.needs_nut_pass() && input.nu_t.is_none() {
        let nut = compute_nu_t(input);
        let mut inp = *input;
        inp.nu_t = Some(&nut);
        f(&inp)
    } else {
        f(input)
    }
}

/// How a driver executes the element loop.
///
/// Both modes produce bitwise-identical RHS vectors under the same
/// strategy: a pack runs the same kernel source as a single element, every
/// lane performing its element's floating-point operations in the same
/// order, and the pack's RHS is scattered element by element in the scalar
/// order (pinned by the equivalence suite). `Packed` is purely a
/// throughput lever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One element at a time — the reference path, and the only one the
    /// tracing recorders instrument.
    Scalar,
    /// [`DEFAULT_LANES`] elements in lockstep. Remainder elements — and
    /// variant **P** (see [`pack_supported`]) — run one at a time.
    Packed,
}

impl ExecMode {
    /// Stable short name (benchmark tables, reports).
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Scalar => "scalar",
            ExecMode::Packed => "packed",
        }
    }

    /// Elements per kernel call this mode runs `variant` at.
    pub(crate) fn lanes(self, variant: Variant) -> usize {
        if self == ExecMode::Packed && pack_supported(variant) {
            DEFAULT_LANES
        } else {
            1
        }
    }
}

/// A run of elements for [`run_span`]: which mesh element sits at each
/// position, and where its RHS goes.
pub(crate) trait Span {
    /// Elements in the span.
    fn len(&self) -> usize;

    /// The mesh element at position `i`.
    fn elem(&self, i: usize) -> usize;

    /// The sink of position `i` (mesh element `e`).
    fn sink(&mut self, i: usize, e: usize) -> impl ScatterSink + '_;
}

/// A span whose elements all scatter into one sink.
struct OneSink<E, S> {
    len: usize,
    elem: E,
    sink: S,
}

impl<E: Fn(usize) -> usize, S: ScatterSink> Span for OneSink<E, S> {
    fn len(&self) -> usize {
        self.len
    }

    fn elem(&self, i: usize) -> usize {
        (self.elem)(i)
    }

    fn sink(&mut self, _i: usize, _e: usize) -> impl ScatterSink + '_ {
        &mut self.sink
    }
}

/// One worker's kernel workspace for [`run_span`]: `variant.nvalues()`
/// slots interleaved at `stride` for single elements, or at the pack width.
pub(crate) struct SpanWs {
    buf: Vec<f64>,
    stride: usize,
}

impl SpanWs {
    pub(crate) fn new(variant: Variant, lanes: usize, stride: usize) -> Self {
        Self {
            buf: vec![0.0; variant.nvalues().max(1) * stride.max(lanes)],
            stride,
        }
    }
}

/// Assembles every element of `span`: full packs of `lanes` elements (when
/// `lanes > 1`), then the remainder one element at a time. A pack's RHS is
/// scattered lane by lane, each lane node-major — the order the width-1
/// kernels scatter the same elements in — so the span accumulates bitwise
/// identically at either width.
// alya:hot
pub(crate) fn run_span<S: Span>(
    variant: Variant,
    input: &AssemblyInput,
    lanes: usize,
    span: &mut S,
    ws: &mut SpanWs,
) {
    const L: usize = DEFAULT_LANES;
    let nn = input.mesh.num_nodes();
    let n = span.len();
    let packed = if lanes == L { n - n % L } else { 0 };
    let lay = Layout::cpu(0, CPU_VECTOR_DIM, nn);
    for p in (0..packed).step_by(L) {
        let elems: [usize; L] = std::array::from_fn(|l| span.elem(p + l));
        let pack = ElemPack::load(input, elems);
        let mut frame = PackFrame {
            pack: &pack,
            lay,
            rhs: [[Lanes::splat(0.0); 3]; 4],
        };
        kernels::run(variant, input, &mut frame, &mut ws.buf, L, 0, &mut NoRecord);
        for (l, &e) in elems.iter().enumerate() {
            let mut sink = span.sink(p + l, e);
            for a in 0..4 {
                for d in 0..3 {
                    let v = frame.rhs[a][d].0[l];
                    sink.add(pack.conns[l][a], d, v, &lay, &mut NoRecord);
                }
            }
        }
    }
    for i in packed..n {
        let e = span.elem(i);
        let lay = Layout::cpu(e, CPU_VECTOR_DIM, nn);
        let mut frame = ElemFrame::load(input, e, &lay, span.sink(i, e), &mut NoRecord);
        let lane = e % ws.stride;
        kernels::run(
            variant,
            input,
            &mut frame,
            &mut ws.buf,
            ws.stride,
            lane,
            &mut NoRecord,
        );
    }
}

/// Serial assembly over the whole mesh (the reference implementation).
pub fn assemble_serial(variant: Variant, input: &AssemblyInput) -> VectorField {
    assemble_serial_with(variant, input, ExecMode::Scalar)
}

/// [`assemble_serial`] with the execution mode made explicit. Elements are
/// tallied once per call — never per lane — so telemetry is invariant
/// across modes.
pub fn assemble_serial_with(
    variant: Variant,
    input: &AssemblyInput,
    mode: ExecMode,
) -> VectorField {
    let lanes = mode.lanes(variant);
    let packed = if lanes > 1 { "-packed" } else { "" };
    let _sp = telemetry::span(format!("assemble:serial{packed}:{}", variant.name()));
    with_nut(variant, input, |input| {
        let nn = input.mesh.num_nodes();
        let ne = input.mesh.num_elements();
        metrics::tally_elements(variant, ne as u64);
        let mut rhs = VectorField::zeros(nn);
        let mut span = OneSink {
            len: ne,
            elem: |e| e,
            sink: DirectSink { rhs: &mut rhs },
        };
        let mut ws = SpanWs::new(variant, lanes, CPU_VECTOR_DIM);
        run_span(variant, input, lanes, &mut span, &mut ws);
        rhs
    })
}

/// Records the instrumented event stream of a single element.
///
/// `layout` decides the addressing convention (CPU pack vs GPU launch).
pub fn trace_element(
    variant: Variant,
    input: &AssemblyInput,
    e: usize,
    lay: &Layout,
) -> TraceRecorder {
    trace(variant, input, &[(e, *lay)])
}

/// Traces a whole CPU pack (`CPU_VECTOR_DIM` consecutive elements) — the
/// unit the CPU model replays.
pub fn trace_pack(variant: Variant, input: &AssemblyInput, pack: usize) -> TraceRecorder {
    let (ne, nn) = (input.mesh.num_elements(), input.mesh.num_nodes());
    let elems: Vec<(usize, Layout)> = (0..CPU_VECTOR_DIM)
        .map(|lane| {
            let e = (pack * CPU_VECTOR_DIM + lane) % ne;
            (e, Layout::cpu(e, CPU_VECTOR_DIM, nn))
        })
        .collect();
    trace(variant, input, &elems)
}

/// One recorder's event stream over `elems`, each traced at its layout
/// (the addresses come from the layout, so a compact scratch suffices).
fn trace(variant: Variant, input: &AssemblyInput, elems: &[(usize, Layout)]) -> TraceRecorder {
    with_nut(variant, input, |input| {
        let mut rec = TraceRecorder::new();
        let mut ws_buf = vec![0.0; variant.nvalues().max(1)];
        let mut rhs = VectorField::zeros(input.mesh.num_nodes());
        for (e, lay) in elems {
            let sink = DirectSink { rhs: &mut rhs };
            let mut frame = ElemFrame::load(input, *e, lay, sink, &mut rec);
            kernels::run(variant, input, &mut frame, &mut ws_buf, 1, 0, &mut rec);
        }
        rec
    })
}

/// Convenience: serial assembly that also returns the whole-mesh trace of
/// element 0 (used by reports and tests).
pub fn assemble_traced(variant: Variant, input: &AssemblyInput) -> (VectorField, TraceRecorder) {
    let rhs = assemble_serial(variant, input);
    let lay = Layout::cpu(0, CPU_VECTOR_DIM, input.mesh.num_nodes());
    let rec = trace_element(variant, input, 0, &lay);
    (rhs, rec)
}

/// Scatter discipline for [`assemble_parallel`].
pub enum ParallelStrategy {
    /// Parallel elemental compute into a buffer + separate scatter loop.
    TwoPhase,
    /// Element coloring; every color class runs fully parallel.
    Colored(Coloring),
    /// Owner-computes over partitions with per-worker RHS buffers.
    Partitioned(PartitionedState),
    /// Owner-computes over shards with compact local-numbered buffers,
    /// direct interior writeback, and a boundary tree reduction.
    Sharded(ShardSet),
}

/// Elements per worker below which [`ParallelStrategy::auto`] prefers the
/// colored strategy: shard construction and boundary merging only pay off
/// once each shard amortizes them over enough elements.
pub const SHARD_AUTO_MIN_ELEMS_PER_WORKER: usize = 2048;

/// Measured driver throughput parsed from a committed `BENCH_drivers.json`
/// report (the `drivers` benchmark's output).
///
/// [`ParallelStrategy::auto`] consults this instead of trusting the
/// element-count heuristic alone: when the repo carries measurements for
/// this host class, the strategy that actually ran faster wins. Absent or
/// unparseable data degrades to the heuristic — a bench file must never
/// be able to break assembly — but the degradation is *reported* through
/// the telemetry event channel ([`alya_telemetry::warn`]), never silent.
#[derive(Debug, Clone, Default)]
pub struct ThroughputDb {
    /// `(strategy, variant, threads, melem_per_s)` rows. Rows without a
    /// `"variant"` field (older reports) carry an empty variant name.
    rows: Vec<(String, String, usize, f64)>,
}

impl ThroughputDb {
    /// Parses the throughput rows of a `BENCH_drivers.json` document:
    /// every object carrying "strategy", "threads" and "melem_per_s"
    /// (and, since the packed path landed, "variant"). Returns `None`
    /// when the text is not JSON or holds no well-formed row.
    pub fn parse(json: &str) -> Option<Self> {
        let doc = parse_json(json).ok()?;
        let mut rows = Vec::new();
        for obj in doc.objects() {
            let (Some(strategy), Some(threads), Some(melem)) = (
                obj.str("strategy"),
                obj.num("threads"),
                obj.num("melem_per_s"),
            ) else {
                continue;
            };
            if threads >= 1.0 && melem.is_finite() && melem > 0.0 {
                let variant = obj.str("variant").unwrap_or_default();
                rows.push((
                    strategy.to_string(),
                    variant.to_string(),
                    threads as usize,
                    melem,
                ));
            }
        }
        if rows.is_empty() {
            None
        } else {
            Some(Self { rows })
        }
    }

    /// Loads and parses a report file. A missing or unparseable file
    /// returns `None` *and* pushes a warning onto the telemetry event
    /// channel, so `auto`'s fallback to the heuristic is observable.
    // alya:cold: one-time config read behind `load_default`'s OnceLock —
    // the `.load(` calls in hot counter code are `AtomicU64::load`, which
    // the name-based call graph cannot tell apart from this.
    pub fn load(path: &std::path::Path) -> Option<Self> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                telemetry::warn(format!(
                    "ThroughputDb: cannot read {}: {e}; strategy auto-selection falls \
                     back to the element-count heuristic",
                    path.display()
                ));
                return None;
            }
        };
        let db = Self::parse(&text);
        if db.is_none() {
            telemetry::warn(format!(
                "ThroughputDb: no well-formed throughput rows in {}; strategy \
                 auto-selection falls back to the element-count heuristic",
                path.display()
            ));
        }
        db
    }

    /// The committed workspace baseline (`BENCH_drivers.json` at the
    /// workspace root, overridable via `ALYA_BENCH_DRIVERS`), parsed once
    /// per process.
    pub fn load_default() -> Option<&'static Self> {
        static DB: std::sync::OnceLock<Option<ThroughputDb>> = std::sync::OnceLock::new();
        DB.get_or_init(|| {
            let path = match std::env::var_os("ALYA_BENCH_DRIVERS") {
                Some(p) => std::path::PathBuf::from(p),
                None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .ancestors()
                    .nth(2)?
                    .join("BENCH_drivers.json"),
            };
            Self::load(&path)
        })
        .as_ref()
    }

    /// Best measured Melem/s of `strategy` at the thread count nearest to
    /// `threads` (max over variants). `None` when the db has no rows for
    /// the strategy.
    pub fn best_melem_per_s(&self, strategy: &str, threads: usize) -> Option<f64> {
        let nearest = self
            .rows
            .iter()
            .filter(|(s, _, _, _)| s == strategy)
            .map(|&(_, _, t, _)| t)
            .min_by_key(|&t| t.abs_diff(threads))?;
        self.rows
            .iter()
            .filter(|(s, _, t, _)| s == strategy && *t == nearest)
            .map(|&(_, _, _, m)| m)
            .max_by(f64::total_cmp)
    }

    /// Measured Melem/s for one exact `(strategy, variant, threads)` cell
    /// (max over duplicate rows). `None` when the report has no such row.
    /// The SIMD-contract analyzer reads packed-vs-scalar pairs through
    /// this, so the match is exact — no nearest-thread fallback.
    pub fn melem_per_s(&self, strategy: &str, variant: &str, threads: usize) -> Option<f64> {
        self.rows
            .iter()
            .filter(|(s, v, t, _)| s == strategy && v == variant && *t == threads)
            .map(|&(_, _, _, m)| m)
            .max_by(f64::total_cmp)
    }

    /// Distinct variant names present in rows of `strategy` at `threads`,
    /// in first-seen order.
    pub fn variants(&self, strategy: &str, threads: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (s, v, t, _) in &self.rows {
            if s == strategy && *t == threads && !out.iter().any(|x| x == v) {
                out.push(v.clone());
            }
        }
        out
    }
}

impl ParallelStrategy {
    /// Builds a coloring strategy for the mesh.
    pub fn colored(mesh: &TetMesh) -> Self {
        let n2e = NodeToElements::build(mesh);
        let graph = ElementGraph::build(mesh, &n2e);
        ParallelStrategy::Colored(Coloring::greedy(&graph))
    }

    /// Builds a partitioned strategy with `parts` workers.
    pub fn partitioned(mesh: &TetMesh, parts: usize) -> Self {
        ParallelStrategy::Partitioned(PartitionedState::new(Partition::rcb(mesh, parts)))
    }

    /// Builds a sharded strategy with `shards` compact-numbered shards.
    pub fn sharded(mesh: &TetMesh, shards: usize) -> Self {
        let partition = Partition::rcb(mesh, shards);
        ParallelStrategy::Sharded(ShardSet::build(mesh, &partition))
    }

    /// Picks a strategy from the mesh size, the active worker count and —
    /// when the repo carries one — the committed `BENCH_drivers.json`
    /// measurements: sharded once every worker has at least
    /// [`SHARD_AUTO_MIN_ELEMS_PER_WORKER`] elements (the regime where the
    /// compact buffers and boundary-only reduction win), unless the bench
    /// baseline measured colored faster at this thread count; colored
    /// otherwise.
    pub fn auto(mesh: &TetMesh) -> Self {
        Self::auto_with(mesh, par::num_threads(), ThroughputDb::load_default())
    }

    /// [`Self::auto`] with the worker count and throughput data made
    /// explicit (what the unit tests drive; `auto` supplies the live
    /// values).
    pub fn auto_with(mesh: &TetMesh, workers: usize, db: Option<&ThroughputDb>) -> Self {
        if workers > 1 && mesh.num_elements() >= workers * SHARD_AUTO_MIN_ELEMS_PER_WORKER {
            // Measured data can overturn the heuristic's sharded default,
            // but only when it covers both candidates.
            if let Some(db) = db {
                if let (Some(colored), Some(sharded)) = (
                    db.best_melem_per_s("colored", workers),
                    db.best_melem_per_s("sharded", workers),
                ) {
                    if colored > sharded {
                        return Self::colored(mesh);
                    }
                }
            }
            Self::sharded(mesh, workers)
        } else {
            Self::colored(mesh)
        }
    }

    /// Stable short name (benchmark tables, reports).
    pub fn name(&self) -> &'static str {
        match self {
            ParallelStrategy::TwoPhase => "two-phase",
            ParallelStrategy::Colored(_) => "colored",
            ParallelStrategy::Partitioned(_) => "partitioned",
            ParallelStrategy::Sharded(_) => "sharded",
        }
    }
}

/// [`ParallelStrategy::Partitioned`]'s partition plus a pool of per-worker
/// full-width RHS buffers, allocated on first use and reused across
/// assembly calls — re-allocating O(workers × nn) every call made the old
/// strategy an unfair baseline.
pub struct PartitionedState {
    /// The element partition workers iterate.
    pub partition: Partition,
    pool: Mutex<Vec<Vec<f64>>>,
}

impl PartitionedState {
    /// Wraps a partition with an empty buffer pool.
    pub fn new(partition: Partition) -> Self {
        Self {
            partition,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled buffer (or allocates one) sized and zeroed to `len`.
    fn checkout(&self, len: usize) -> Vec<f64> {
        let recycled = self.pool.lock().expect("partitioned pool poisoned").pop();
        match recycled {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns buffers to the pool for the next assembly call.
    fn restore(&self, buffers: Vec<Vec<f64>>) {
        let mut pool = self.pool.lock().expect("partitioned pool poisoned");
        pool.extend(buffers);
    }

    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.pool.lock().expect("partitioned pool poisoned").len()
    }
}

/// A sink that buffers one element's contributions locally (keyed by the
/// element's own node list).
#[derive(Clone, Copy, Default)]
struct BufferSink {
    nodes: [u32; 4],
    acc: [[f64; 3]; 4],
}

// alya:hot
impl ScatterSink for BufferSink {
    #[inline]
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, _lay: &Layout, rec: &mut R) {
        rec.flop(1);
        let a = self
            .nodes
            .iter()
            .position(|&x| x == n)
            // alya:allow(hot-panic): a miss means the kernel scattered to a
            // node outside its own element — a contract breach pass 1 makes
            // impossible; the branch is never taken on valid kernels.
            .expect("scatter to a node outside the element");
        self.acc[a][d] += v;
    }
}

/// [`ParallelStrategy::TwoPhase`]'s span: elements `start..` of the mesh,
/// each buffered in its own [`BufferSink`] for the later scatter loop.
struct TwoPhaseSpan<'a> {
    start: usize,
    mesh: &'a TetMesh,
    out: &'a mut [BufferSink],
}

impl Span for TwoPhaseSpan<'_> {
    fn len(&self) -> usize {
        self.out.len()
    }

    fn elem(&self, i: usize) -> usize {
        self.start + i
    }

    fn sink(&mut self, i: usize, e: usize) -> impl ScatterSink + '_ {
        let b = &mut self.out[i];
        b.nodes = self.mesh.element(e);
        b
    }
}

/// A sink over a full-width component-blocked buffer (`buf[d·nn + n]`) —
/// one partition worker's private RHS.
struct BlockedSink<'a> {
    buf: &'a mut [f64],
    nn: usize,
}

// alya:hot
impl ScatterSink for BlockedSink<'_> {
    #[inline]
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, _lay: &Layout, rec: &mut R) {
        rec.flop(1);
        self.buf[d * self.nn + n as usize] += v;
    }
}

/// Shared mutable RHS for the colored strategy.
///
/// Safety contract: the driver processes one color class at a time, and the
/// coloring invariant — *no two elements of one color class share a node*
/// (checked statically by `Coloring::find_conflict`, the contract
/// `alya-analyze`'s race detector enforces, and re-validated here in debug
/// builds) — guarantees that the node/component slots written by
/// concurrently processed elements are disjoint. Plain non-atomic writes
/// therefore never alias across threads within a class, and the `for` loop
/// over classes is a synchronization point (the spawning thread joins all
/// workers) between classes.
struct SharedRhs {
    ptr: *mut f64,
    num_nodes: usize,
}
// SAFETY: unsafe[shared-rhs-send] — the raw pointer is only dereferenced
// through the scatter disciplines proven race-free by analyzer pass 2
// (races::check_coloring / races::check_shard_set); moving the handle to a
// worker thread transfers no aliasing it doesn't already audit.
unsafe impl Send for SharedRhs {}
// SAFETY: unsafe[shared-rhs-sync] — shared references are only used for
// writes to rows that analyzer pass 2 proves disjoint across concurrent
// workers (one color class / one shard's interior at a time).
unsafe impl Sync for SharedRhs {}

struct ColoredSink<'a> {
    shared: &'a SharedRhs,
}

// alya:hot
impl ScatterSink for ColoredSink<'_> {
    #[inline]
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, _lay: &Layout, rec: &mut R) {
        rec.flop(1);
        debug_assert!(
            (n as usize) < self.shared.num_nodes,
            "scatter to node {n} outside the RHS ({} nodes)",
            self.shared.num_nodes
        );
        debug_assert!(d < 3, "scatter to component {d} of a 3-vector");
        // SAFETY: unsafe[colored-scatter] — `d * num_nodes + n` is in bounds
        // (asserted above against the allocation this pointer was taken
        // from), and the coloring invariant documented on `SharedRhs` —
        // proven per run by analyzer pass 2 (races::check_coloring) —
        // guarantees no other thread touches node `n` during this color
        // class.
        unsafe {
            let slot = self.shared.ptr.add(d * self.shared.num_nodes + n as usize);
            *slot += v;
        }
    }
}

/// A sink accumulating into a shard's **compact local-numbered** buffer.
///
/// The kernels scatter by *global* node id; the sink resolves it to the
/// element's corner through the global connectivity (≤ 4 compares, same
/// discipline as [`BufferSink`]) and redirects the store through the
/// precomputed local connectivity — the inner loop never touches a
/// global→local map.
struct CompactSink<'a> {
    /// The element's corners in global numbering.
    gnodes: [u32; 4],
    /// The same corners in the shard's compact numbering.
    lnodes: [u32; 4],
    /// Nodes in the shard (component stride of `buf`).
    stride: usize,
    /// The shard's `3 × stride` accumulation buffer.
    buf: &'a mut [f64],
}

// alya:hot
impl ScatterSink for CompactSink<'_> {
    #[inline]
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, _lay: &Layout, rec: &mut R) {
        rec.flop(1);
        let a = self
            .gnodes
            .iter()
            .position(|&x| x == n)
            // alya:allow(hot-panic): same element-corner contract as
            // `BufferSink` — pass 1 proves kernels only scatter to their own
            // four corners, so the miss branch is dead on valid kernels.
            .expect("scatter to a node outside the element");
        self.buf[d * self.stride + self.lnodes[a] as usize] += v;
    }
}

/// A shard's elements at positions `pos(0..len)` of [`Shard::elements`],
/// scattering into the shard's compact buffer through [`CompactSink`].
pub(crate) struct ShardSpan<'a, P> {
    pub(crate) mesh: &'a TetMesh,
    pub(crate) shard: &'a Shard,
    pub(crate) len: usize,
    pub(crate) pos: P,
    pub(crate) buf: &'a mut [f64],
}

impl<P: Fn(usize) -> usize> Span for ShardSpan<'_, P> {
    fn len(&self) -> usize {
        self.len
    }

    fn elem(&self, i: usize) -> usize {
        self.shard.elements()[(self.pos)(i)] as usize
    }

    fn sink(&mut self, i: usize, e: usize) -> impl ScatterSink + '_ {
        CompactSink {
            gnodes: self.mesh.element(e),
            lnodes: self.shard.local_conn()[(self.pos)(i)],
            stride: self.shard.num_local_nodes(),
            buf: self.buf,
        }
    }
}

/// Sparse boundary contributions of one shard (or a merge of several),
/// sorted ascending by global node id.
type BoundaryVec = Vec<(u32, [f64; 3])>;

/// Merges two sorted sparse contribution lists, summing equal node ids —
/// the combine step of the boundary tree reduction. O(|a| + |b|).
fn merge_boundary(a: BoundaryVec, b: BoundaryVec) -> BoundaryVec {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(&(ga, _)), Some(&(gb, _))) => {
                if ga < gb {
                    out.push(ia.next().expect("peeked"));
                } else if gb < ga {
                    out.push(ib.next().expect("peeked"));
                } else {
                    let (g, va) = ia.next().expect("peeked");
                    let (_, vb) = ib.next().expect("peeked");
                    out.push((g, [va[0] + vb[0], va[1] + vb[1], va[2] + vb[2]]));
                }
            }
            (Some(_), None) => out.push(ia.next().expect("peeked")),
            (None, Some(_)) => out.push(ib.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// Interior writeback (unsynchronized plain stores to this shard's
/// exclusive nodes) plus sparse sorted boundary extraction of one assembled
/// shard.
/// Interior nodes are exclusive to the shard (validated by the caller) and
/// the RHS started zeroed, so the store is exact and race-free; boundary
/// nodes go through the tree reduction as a sorted list (`global_nodes`'
/// boundary block is sorted ascending).
fn shard_finish(shard: &Shard, local: &[f64], shared: &SharedRhs, nn: usize) -> BoundaryVec {
    let nl = shard.num_local_nodes();
    let ni = shard.num_interior();
    for (l, &g) in shard.global_nodes()[..ni].iter().enumerate() {
        for d in 0..3 {
            // SAFETY: unsafe[sharded-writeback] — `g < nn` and `d < 3`
            // (shard maps validated by analyzer pass 2,
            // races::check_shard_set, and re-proven in debug builds by the
            // callers), and interior exclusivity means no other thread
            // writes node `g`.
            unsafe {
                *shared.ptr.add(d * nn + g as usize) = local[d * nl + l];
            }
        }
    }
    shard
        .boundary_global_nodes()
        .iter()
        .enumerate()
        .map(|(b, &g)| {
            let l = ni + b;
            (g, [local[l], local[nl + l], local[2 * nl + l]])
        })
        .collect()
}

/// Parallel assembly with the chosen scatter discipline. Produces the same
/// RHS as [`assemble_serial`] up to floating-point reassociation of the
/// nodal sums.
pub fn assemble_parallel(
    variant: Variant,
    input: &AssemblyInput,
    strategy: &ParallelStrategy,
) -> VectorField {
    assemble_parallel_with(variant, input, strategy, ExecMode::Scalar)
}

/// [`assemble_parallel`] with the execution mode made explicit. Each
/// worker's element list runs through the span runner at the mode's width;
/// the scatter disciplines and their accumulation orders do not depend on
/// it, so every strategy is bitwise equal across modes.
pub fn assemble_parallel_with(
    variant: Variant,
    input: &AssemblyInput,
    strategy: &ParallelStrategy,
    mode: ExecMode,
) -> VectorField {
    let lanes = mode.lanes(variant);
    let packed = if lanes > 1 { "-packed" } else { "" };
    let _sp = telemetry::span(format!(
        "assemble:{}{packed}:{}",
        strategy.name(),
        variant.name()
    ));
    with_nut(variant, input, |input| {
        let nn = input.mesh.num_nodes();
        let ne = input.mesh.num_elements();
        metrics::tally_elements(variant, ne as u64);
        // Workspace buffers are reused per worker thread, never allocated
        // per element.
        let new_ws = || SpanWs::new(variant, lanes, 1);

        match strategy {
            ParallelStrategy::TwoPhase => {
                // Phase 1: vectorizable elemental loop, fully parallel.
                let mut buffers = vec![BufferSink::default(); ne];
                par::par_chunks_mut(&mut buffers, |start, out| {
                    let mut span = TwoPhaseSpan {
                        start,
                        mesh: input.mesh,
                        out,
                    };
                    run_span(variant, input, lanes, &mut span, &mut new_ws());
                });
                // Phase 2: the scalar scatter loop.
                let mut rhs = VectorField::zeros(nn);
                for b in &buffers {
                    for a in 0..4 {
                        rhs.add(b.nodes[a] as usize, b.acc[a]);
                    }
                }
                rhs
            }
            ParallelStrategy::Colored(coloring) => {
                // Debug builds statically re-prove the race-freedom
                // invariant the unsafe colored scatter relies on before any
                // parallel write happens.
                debug_assert!(
                    coloring.is_race_free(input.mesh),
                    "colored scatter invariant violated: {}",
                    coloring
                        .find_conflict(input.mesh)
                        .map(|c| c.to_string())
                        .unwrap_or_default()
                );
                let mut rhs = VectorField::zeros(nn);
                let shared = SharedRhs {
                    ptr: rhs.as_mut_slice().as_mut_ptr(),
                    num_nodes: nn,
                };
                for class in coloring.classes() {
                    // The lanes of a pack belong to one color class, so
                    // their scatters are node-disjoint like any two
                    // elements of the class.
                    par::par_for_each_init(class, new_ws, |ws, batch| {
                        let mut span = OneSink {
                            len: batch.len(),
                            elem: |i| batch[i] as usize,
                            sink: ColoredSink { shared: &shared },
                        };
                        run_span(variant, input, lanes, &mut span, ws);
                    });
                }
                rhs
            }
            ParallelStrategy::Partitioned(state) => {
                let partition = &state.partition;
                let partials: Vec<Vec<f64>> =
                    par::par_map_init(partition.num_parts(), new_ws, |ws, p| {
                        // Full-width per-worker buffer from the reuse pool
                        // (allocated on the first call only).
                        let mut local = state.checkout(3 * nn);
                        let part = partition.part(p);
                        let mut span = OneSink {
                            len: part.len(),
                            elem: |i| part[i] as usize,
                            sink: BlockedSink {
                                buf: &mut local,
                                nn,
                            },
                        };
                        run_span(variant, input, lanes, &mut span, ws);
                        local
                    });
                let mut rhs = VectorField::zeros(nn);
                let out = rhs.as_mut_slice();
                for part in &partials {
                    for (o, v) in out.iter_mut().zip(part) {
                        *o += v;
                    }
                }
                state.restore(partials);
                rhs
            }
            ParallelStrategy::Sharded(shards) => {
                // Debug builds re-prove the compact-numbering invariants the
                // unsafe interior writeback rests on (element coverage,
                // map consistency, interior exclusivity).
                debug_assert!(
                    shards.validate(input.mesh).is_ok(),
                    "sharded scatter invariant violated: {}",
                    shards.validate(input.mesh).err().unwrap_or_default()
                );
                let mut rhs = VectorField::zeros(nn);
                let shared = SharedRhs {
                    ptr: rhs.as_mut_slice().as_mut_ptr(),
                    num_nodes: nn,
                };
                let shared = &shared;
                let boundaries: Vec<BoundaryVec> =
                    par::par_map_init(shards.num_shards(), new_ws, |ws, s| {
                        let _shard_sp = telemetry::span(format!("shard:{s}"));
                        let shard = shards.shard(s);
                        // Compact accumulation: O(nodes-in-shard), not O(nn).
                        let mut local = vec![0.0; 3 * shard.num_local_nodes()];
                        let mut span = ShardSpan {
                            mesh: input.mesh,
                            shard,
                            len: shard.elements().len(),
                            pos: |i| i,
                            buf: &mut local,
                        };
                        run_span(variant, input, lanes, &mut span, ws);
                        shard_finish(shard, &local, shared, nn)
                    });
                if let Some(merged) = par::tree_reduce(boundaries, merge_boundary) {
                    for (g, v) in merged {
                        rhs.add(g as usize, v);
                    }
                }
                rhs
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_fem::{ConstantProperties, ScalarField, VectorField};
    use alya_mesh::{BoxMeshBuilder, TetMesh};

    fn setup(mesh: &TetMesh) -> (VectorField, ScalarField, ScalarField) {
        let v = VectorField::from_fn(mesh, |p| {
            [
                p[2] * p[2] + 0.3 * p[1],
                0.5 * p[0] - p[2],
                0.2 * p[0] * p[1],
            ]
        });
        let p = ScalarField::from_fn(mesh, |q| q[0] - 0.5 * q[1] + q[2] * q[2]);
        let t = ScalarField::zeros(mesh.num_nodes());
        (v, p, t)
    }

    fn max_rel_diff(a: &VectorField, b: &VectorField) -> f64 {
        let scale = a.max_abs().max(1e-30);
        a.max_abs_diff(b) / scale
    }

    #[test]
    fn all_variants_produce_the_same_rhs() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(11).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t)
            .props(ConstantProperties {
                density: 1.2,
                viscosity: 1e-3,
            })
            .body_force([0.1, 0.0, -0.5]);
        let reference = assemble_serial(Variant::Rsp, &input);
        assert!(reference.max_abs() > 0.0, "degenerate test input");
        for variant in Variant::ALL {
            let rhs = assemble_serial(variant, &input);
            let diff = max_rel_diff(&reference, &rhs);
            assert!(diff < 1e-11, "{variant} deviates by {diff}");
        }
    }

    #[test]
    fn packed_mode_is_bitwise_identical_to_scalar_everywhere() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(11).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t)
            .props(ConstantProperties {
                density: 1.2,
                viscosity: 1e-3,
            })
            .body_force([0.1, 0.0, -0.5]);
        // Non-multiple-of-LANES element count exercises the remainder path.
        assert_ne!(mesh.num_elements() % DEFAULT_LANES, 0);
        for variant in Variant::ALL {
            let scalar = assemble_serial(variant, &input);
            let lane = assemble_serial_with(variant, &input, ExecMode::Packed);
            assert_eq!(
                scalar.max_abs_diff(&lane),
                0.0,
                "{variant}: packed serial is not bitwise scalar"
            );
            for strategy in [
                ParallelStrategy::TwoPhase,
                ParallelStrategy::colored(&mesh),
                ParallelStrategy::partitioned(&mesh, 5),
                ParallelStrategy::sharded(&mesh, 5),
            ] {
                let s = assemble_parallel(variant, &input, &strategy);
                let q = assemble_parallel_with(variant, &input, &strategy, ExecMode::Packed);
                assert_eq!(
                    s.max_abs_diff(&q),
                    0.0,
                    "{variant} × {}: packed is not bitwise scalar",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn parallel_strategies_match_serial() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        let serial = assemble_serial(Variant::Rsp, &input);
        for strategy in [
            ParallelStrategy::TwoPhase,
            ParallelStrategy::colored(&mesh),
            ParallelStrategy::partitioned(&mesh, 5),
            ParallelStrategy::sharded(&mesh, 5),
        ] {
            let par = assemble_parallel(Variant::Rsp, &input, &strategy);
            let diff = max_rel_diff(&serial, &par);
            assert!(diff < 1e-12, "{} deviation {diff}", strategy.name());
        }
    }

    #[test]
    fn sharded_matches_serial_across_variants_and_shard_counts() {
        let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.1).seed(7).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        for shards in [1, 2, 8] {
            let strategy = ParallelStrategy::sharded(&mesh, shards);
            for variant in Variant::ALL {
                let serial = assemble_serial(variant, &input);
                let par = assemble_parallel(variant, &input, &strategy);
                let diff = max_rel_diff(&serial, &par);
                assert!(diff < 1e-12, "{variant} × {shards} shards: {diff}");
            }
        }
    }

    #[test]
    fn partitioned_pool_reuses_buffers_across_calls() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let strategy = ParallelStrategy::partitioned(&mesh, 4);
        let ParallelStrategy::Partitioned(state) = &strategy else {
            panic!("constructor built the wrong variant");
        };
        assert_eq!(state.pooled(), 0, "pool must start empty");
        let first = assemble_parallel(Variant::Rsp, &input, &strategy);
        let after_first = state.pooled();
        assert_eq!(after_first, state.partition.num_parts());
        let second = assemble_parallel(Variant::Rsp, &input, &strategy);
        // Buffers were recycled, not accumulated, and stale contents were
        // rezeroed (results identical).
        assert_eq!(state.pooled(), after_first);
        assert_eq!(first.max_abs_diff(&second), 0.0);
    }

    #[test]
    fn merge_boundary_sums_matching_nodes_and_keeps_order() {
        let a = vec![(1u32, [1.0, 0.0, 0.0]), (4, [0.5, 0.5, 0.5])];
        let b = vec![
            (0u32, [2.0, 0.0, 1.0]),
            (4, [0.5, -0.5, 1.5]),
            (9, [1.0; 3]),
        ];
        let m = merge_boundary(a, b);
        assert_eq!(
            m,
            vec![
                (0, [2.0, 0.0, 1.0]),
                (1, [1.0, 0.0, 0.0]),
                (4, [1.0, 0.0, 2.0]),
                (9, [1.0, 1.0, 1.0]),
            ]
        );
        assert_eq!(merge_boundary(vec![], vec![(3, [1.0; 3])]).len(), 1);
        assert!(merge_boundary(vec![], vec![]).is_empty());
    }

    #[test]
    fn auto_strategy_matches_serial_and_names_are_stable() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let strategy = ParallelStrategy::auto(&mesh);
        // On a small mesh auto must fall back to colored regardless of the
        // worker count (2048 elements/worker floor).
        assert_eq!(strategy.name(), "colored");
        let serial = assemble_serial(Variant::Rspr, &input);
        let par = assemble_parallel(Variant::Rspr, &input, &strategy);
        assert!(max_rel_diff(&serial, &par) < 1e-12);
        assert_eq!(ParallelStrategy::TwoPhase.name(), "two-phase");
        assert_eq!(ParallelStrategy::sharded(&mesh, 2).name(), "sharded");
        assert_eq!(
            ParallelStrategy::partitioned(&mesh, 2).name(),
            "partitioned"
        );
    }

    #[test]
    fn throughput_db_parses_bench_rows_and_rejects_garbage() {
        let json = r#"{
          "bench": "drivers",
          "results": [
            {"strategy": "colored", "variant": "rsp", "threads": 4, "melem_per_s": 12.5},
            {"strategy": "colored", "variant": "rspr", "threads": 4, "melem_per_s": 14.0},
            {"strategy": "sharded", "variant": "rsp", "threads": 8, "melem_per_s": 21.0},
            {"strategy": "sharded", "variant": "rsp", "threads": 4, "melem_per_s": -3.0}
          ]
        }"#;
        let db = ThroughputDb::parse(json).expect("well-formed rows");
        // Max over variants at the matching thread count.
        assert_eq!(db.best_melem_per_s("colored", 4), Some(14.0));
        // Nearest thread count wins when there is no exact match (the
        // negative-throughput row was rejected, so 8 is nearest to 4).
        assert_eq!(db.best_melem_per_s("sharded", 4), Some(21.0));
        assert_eq!(db.best_melem_per_s("partitioned", 4), None);
        // Exact-cell lookup (no nearest-thread fallback) and variant
        // enumeration, as the SIMD-contract analyzer uses them.
        assert_eq!(db.melem_per_s("colored", "rspr", 4), Some(14.0));
        assert_eq!(db.melem_per_s("colored", "rspr", 8), None);
        assert_eq!(db.melem_per_s("sharded", "rsp", 4), None);
        assert_eq!(db.variants("colored", 4), vec!["rsp", "rspr"]);
        assert!(db.variants("partitioned", 4).is_empty());
        assert!(ThroughputDb::parse("").is_none());
        assert!(ThroughputDb::parse("{\"results\": []}").is_none());
        assert!(ThroughputDb::parse("not json at all").is_none());
    }

    #[test]
    fn throughput_db_load_failures_warn_exactly_once_and_fall_back() {
        // Both failure shapes in one test, run sequentially: the warning
        // channel is process-global, so parallel sibling tests could
        // interleave their own warnings — filtering each drain by this
        // test's unique path component keeps the exactly-one assertions
        // honest either way.

        // Missing file: load warns once (unreadable) and returns None, so
        // auto degrades to the element-count heuristic.
        let missing = std::env::temp_dir().join("alya-db-missing-8f41/BENCH_drivers.json");
        let _ = telemetry::drain_warnings();
        assert!(ThroughputDb::load(&missing).is_none());
        let warns: Vec<String> = telemetry::drain_warnings()
            .into_iter()
            .filter(|w| w.contains("alya-db-missing-8f41"))
            .collect();
        assert_eq!(warns.len(), 1, "{warns:?}");
        assert!(warns[0].contains("cannot read"), "{warns:?}");
        assert!(warns[0].contains("element-count heuristic"), "{warns:?}");

        // Unparseable file: load warns once (no well-formed rows) and
        // returns None all the same.
        let dir = std::env::temp_dir().join("alya-db-garbled-8f41");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_drivers.json");
        std::fs::write(&path, "{\"results\": [\"rows without fields\"]}").unwrap();
        assert!(ThroughputDb::load(&path).is_none());
        let warns: Vec<String> = telemetry::drain_warnings()
            .into_iter()
            .filter(|w| w.contains("alya-db-garbled-8f41"))
            .collect();
        assert_eq!(warns.len(), 1, "{warns:?}");
        assert!(
            warns[0].contains("no well-formed throughput rows"),
            "{warns:?}"
        );
        assert!(warns[0].contains("element-count heuristic"), "{warns:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_consults_measured_throughput_when_present() {
        // Big enough that 4 workers clear the 2048 elements/worker floor.
        let mesh = BoxMeshBuilder::new(12, 12, 10).build();
        assert!(mesh.num_elements() >= 4 * SHARD_AUTO_MIN_ELEMS_PER_WORKER);
        let colored_wins = ThroughputDb::parse(
            r#"[{"strategy": "colored", "threads": 4, "melem_per_s": 30.0},
                {"strategy": "sharded", "threads": 4, "melem_per_s": 20.0}]"#,
        )
        .unwrap();
        let sharded_wins = ThroughputDb::parse(
            r#"[{"strategy": "colored", "threads": 4, "melem_per_s": 20.0},
                {"strategy": "sharded", "threads": 4, "melem_per_s": 30.0}]"#,
        )
        .unwrap();
        let one_sided =
            ThroughputDb::parse(r#"[{"strategy": "colored", "threads": 4, "melem_per_s": 30.0}]"#)
                .unwrap();
        assert_eq!(
            ParallelStrategy::auto_with(&mesh, 4, Some(&colored_wins)).name(),
            "colored"
        );
        assert_eq!(
            ParallelStrategy::auto_with(&mesh, 4, Some(&sharded_wins)).name(),
            "sharded"
        );
        // Partial data cannot overturn the heuristic.
        assert_eq!(
            ParallelStrategy::auto_with(&mesh, 4, Some(&one_sided)).name(),
            "sharded"
        );
        // File-absent path: pure element-count heuristic.
        assert_eq!(
            ParallelStrategy::auto_with(&mesh, 4, None).name(),
            "sharded"
        );
        assert_eq!(
            ParallelStrategy::auto_with(&mesh, 1, None).name(),
            "colored"
        );
        let small = BoxMeshBuilder::new(3, 3, 2).build();
        assert_eq!(
            ParallelStrategy::auto_with(&small, 4, Some(&sharded_wins)).name(),
            "colored"
        );
    }

    #[test]
    fn parallel_handles_all_variants() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let serial = assemble_serial(Variant::B, &input);
        let strategy = ParallelStrategy::colored(&mesh);
        for variant in Variant::ALL {
            let par = assemble_parallel(variant, &input, &strategy);
            let diff = max_rel_diff(&serial, &par);
            assert!(diff < 1e-11, "{variant} deviates by {diff}");
        }
    }

    #[test]
    fn diffusion_of_linear_field_balances_interior() {
        // For u = (z, 0, 0), grad u constant: convection and diffusion
        // element contributions cancel at interior nodes of a symmetric
        // mesh... at minimum the assembly must be translation invariant:
        // adding a constant to u leaves the diffusion term unchanged and
        // alters convection consistently. Here: zero viscosity + zero
        // pressure + rigid-translation velocity => RHS is exactly zero
        // (gradients vanish).
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let v = VectorField::from_fn(&mesh, |_| [1.0, 2.0, -0.5]);
        let p = ScalarField::zeros(mesh.num_nodes());
        let t = ScalarField::zeros(mesh.num_nodes());
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        for variant in Variant::ALL {
            let rhs = assemble_serial(variant, &input);
            assert!(
                rhs.max_abs() < 1e-12,
                "{variant}: rigid translation produced forces ({})",
                rhs.max_abs()
            );
        }
    }

    #[test]
    fn pressure_gradient_pushes_flow() {
        // Constant pressure gradient in x: RHS x-component must sum ~0 over
        // the mesh (divergence theorem, zero BC contributions ignored), but
        // interior nodes should feel +grad terms; just check nonzero and
        // antisymmetric-ish: total sum equals boundary flux term.
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let v = VectorField::zeros(mesh.num_nodes());
        let p = ScalarField::from_fn(&mesh, |q| 10.0 * q[0]);
        let t = ScalarField::zeros(mesh.num_nodes());
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let rhs = assemble_serial(Variant::Rsp, &input);
        assert!(rhs.max_abs() > 1e-6);
        // For nodes away from the y-boundaries the weak pressure term has no
        // y-component (∮ p N_a n_y vanishes); on the y-faces it legitimately
        // does not.
        let y_max = mesh
            .coords()
            .iter()
            .enumerate()
            .filter(|(_, p)| p[1] > 1e-9 && p[1] < 1.0 - 1e-9)
            .fold(0.0f64, |m, (n, _)| m.max(rhs.get(n)[1].abs()));
        assert!(y_max < 1e-12, "interior y component {y_max}");
    }

    #[test]
    fn trace_pack_covers_vector_dim_elements() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let one = trace_element(
            Variant::Rs,
            &input,
            0,
            &Layout::cpu(0, CPU_VECTOR_DIM, mesh.num_nodes()),
        );
        let pack = trace_pack(Variant::Rs, &input, 0);
        let c1 = one.counts();
        let cp = pack.counts();
        assert_eq!(cp.global_loads % c1.global_loads, 0);
        assert_eq!(cp.global_loads / c1.global_loads, CPU_VECTOR_DIM as u64);
    }

    #[test]
    fn traced_variants_have_expected_footprints() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let lay = Layout::cpu(0, CPU_VECTOR_DIM, mesh.num_nodes());
        let b = trace_element(Variant::B, &input, 0, &lay).counts();
        let pvt = trace_element(Variant::P, &input, 0, &lay).counts();
        let rs = trace_element(Variant::Rs, &input, 0, &lay).counts();
        let rsp = trace_element(Variant::Rsp, &input, 0, &lay).counts();

        // B: flood of global traffic, no local, no private values.
        assert!(b.global_ldst() > 2000, "B global {}", b.global_ldst());
        assert_eq!(b.local_ldst(), 0);
        assert_eq!(b.defs, 0);
        // P: the workspace moved to local memory wholesale.
        assert_eq!(pvt.global_ldst() + pvt.local_ldst(), b.global_ldst());
        assert!(pvt.local_ldst() > 2000);
        // RS: ~6x fewer ops than B (paper: 6x).
        assert!(
            rs.global_ldst() * 4 < b.global_ldst(),
            "RS {} vs B {}",
            rs.global_ldst(),
            b.global_ldst()
        );
        // RS: ~3-5x fewer flops than B.
        assert!(
            rs.flops() * 2 < b.flops(),
            "RS {} vs B {}",
            rs.flops(),
            b.flops()
        );
        // RSP: only gather/scatter remains as global traffic.
        assert!(rsp.global_ldst() < 100, "RSP {}", rsp.global_ldst());
        assert!(rsp.defs > 50, "RSP defs {}", rsp.defs);
        // Specialized flops match between array and scalar forms (modulo a
        // couple of bookkeeping stores the array form performs).
        let dflops = rs.flops() as i64 - rsp.flops() as i64;
        assert!(
            dflops.abs() < 16,
            "RS {} vs RSP {}",
            rs.flops(),
            rsp.flops()
        );
    }
}
