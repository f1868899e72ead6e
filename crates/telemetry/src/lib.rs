//! # alya-telemetry — unified in-process spans and performance counters
//!
//! The paper's CPU analysis (Table I) is a LIKWID counter study:
//! loads/stores and flops per element, measured *while the code runs*.
//! This crate gives the reproduction the same capability in-process: a
//! lock-light span/counter layer every subsystem (drivers, comm runtime,
//! stage scheduler, the serve session pool) reports into, sharing **one
//! monotonic clock** and one metric taxonomy, with exporters that render
//! a live Table-I-shaped profile ([`profile::TableOneProfile`]) and a
//! Chrome `trace_event` JSON timeline ([`export::chrome_trace`]) that
//! opens directly in `chrome://tracing` / Perfetto.
//!
//! The same per-thread record also keeps the always-on flight recorder
//! ([`recorder`]): a bounded ring of each thread's recent events that a
//! watchdog stall or `--probe-dump` renders as a black-box post-mortem
//! ([`dump`]). The ring is the record's recent history, a live
//! session's span list its complete retention, and each instrumented
//! event — a span, a stage start or retire ([`stage_begin`] /
//! [`stage_end`]), a halo post ([`comm_post`]), a blocked receive
//! ([`comm_wait`]), a warning — is written by one call at its source.
//!
//! ## Design rules
//!
//! * **Sessions are scoped.** [`scoped_session`] opens an independent
//!   measurement window with its own counter shards, span tracks and
//!   labels; any number coexist (the serve layer keys one per pooled
//!   session slot). [`session`] layers the original exclusive API on
//!   top — a process-wide lock around one scoped window — so single-run
//!   benchmarks keep exactly one attributable total.
//!   [`ScopedSession::rotate`] re-keys a window in place: contexts
//!   captured before the rotation become invisible, which lets a pooled
//!   slot hand its telemetry to the next tenant without leaking the
//!   previous tenant's counters.
//! * **Participation is inherited, not ambient.** A thread contributes
//!   only if it adopted a live session's [`Context`] — the session
//!   opener does so automatically, and `alya-machine::par` propagates the
//!   spawner's context into every worker/rank thread it creates. Threads
//!   of unrelated work running concurrently in the same process stay
//!   invisible, which is what makes exact counter assertions possible.
//! * **Counters are per-thread sharded and merge deterministically.**
//!   Each participating thread owns a shard of relaxed atomics it alone
//!   writes; the merge is a commutative `u64` sum, so totals do not
//!   depend on thread interleaving. Spans are sorted by
//!   `(pid, tid, start, id)` at merge.
//! * **Telemetry never touches numerics.** No instrumentation site adds,
//!   reorders or reassociates a floating-point operation, so enabling a
//!   session cannot perturb bitwise reproducibility — the equivalence
//!   suite asserts identical RHS bits with telemetry on and off.
//!
//! No external dependencies, no unsafe code.

#![forbid(unsafe_code)]

pub mod dump;
pub mod export;
pub mod profile;
pub mod recorder;

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use recorder::EventKind;

/// The paper's metric taxonomy, one typed counter per entry.
///
/// Assembly metrics are tallied per kernel-variant [`Scope`] so a single
/// session can profile several variants side by side; the comm metrics
/// live in [`Scope::GLOBAL`] (halo traffic is a property of the
/// decomposition, not the variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Elements assembled.
    ElementsAssembled,
    /// Floating-point operations (1 FMA = 2).
    Flops,
    /// Global loads of nodal/elemental inputs.
    InputLoads,
    /// Loads from the RHS region (read-modify-write scatter).
    RhsLoads,
    /// Stores to the RHS region (the final scatter).
    RhsStores,
    /// Loads from the staged intermediate workspace.
    WsLoads,
    /// Stores to the staged intermediate workspace.
    WsStores,
    /// Elements assembled by a variant that spills at the contract
    /// register budget (RSP's residual-spill story).
    SpillElements,
    /// Halo payload bytes posted by senders.
    HaloBytesPosted,
    /// Halo payload bytes delivered to receivers.
    HaloBytesReceived,
    /// Nanoseconds spent blocked inside a comm receive — the single
    /// accounting point all blocked-wait reporting derives from.
    BlockedWaitNs,
}

/// Number of [`Metric`] entries.
pub const NUM_METRICS: usize = 11;

impl Metric {
    /// Every metric, in declaration order.
    pub const ALL: [Metric; NUM_METRICS] = [
        Metric::ElementsAssembled,
        Metric::Flops,
        Metric::InputLoads,
        Metric::RhsLoads,
        Metric::RhsStores,
        Metric::WsLoads,
        Metric::WsStores,
        Metric::SpillElements,
        Metric::HaloBytesPosted,
        Metric::HaloBytesReceived,
        Metric::BlockedWaitNs,
    ];

    /// Stable snake-case name (report keys, JSON).
    pub fn name(self) -> &'static str {
        match self {
            Metric::ElementsAssembled => "elements_assembled",
            Metric::Flops => "flops",
            Metric::InputLoads => "input_loads",
            Metric::RhsLoads => "rhs_loads",
            Metric::RhsStores => "rhs_stores",
            Metric::WsLoads => "ws_loads",
            Metric::WsStores => "ws_stores",
            Metric::SpillElements => "spill_elements",
            Metric::HaloBytesPosted => "halo_bytes_posted",
            Metric::HaloBytesReceived => "halo_bytes_received",
            Metric::BlockedWaitNs => "blocked_wait_ns",
        }
    }

    /// Dense slot of this metric in a shard's counter row. An explicit
    /// match (not a scan of `ALL`): this runs on every counter add, and a
    /// match can neither panic nor cost O(`NUM_METRICS`).
    fn index(self) -> usize {
        match self {
            Metric::ElementsAssembled => 0,
            Metric::Flops => 1,
            Metric::InputLoads => 2,
            Metric::RhsLoads => 3,
            Metric::RhsStores => 4,
            Metric::WsLoads => 5,
            Metric::WsStores => 6,
            Metric::SpillElements => 7,
            Metric::HaloBytesPosted => 8,
            Metric::HaloBytesReceived => 9,
            Metric::BlockedWaitNs => 10,
        }
    }
}

/// Counter attribution bucket: [`Scope::GLOBAL`] for cross-cutting
/// metrics (comm traffic, blocked wait), one scope per kernel variant for
/// the assembly metrics. `alya-core` owns the variant → scope mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Scope(u8);

/// Number of scopes: the global one plus one per kernel variant.
pub const NUM_SCOPES: usize = 6;

impl Scope {
    /// The cross-cutting scope (comm traffic, blocked wait).
    pub const GLOBAL: Scope = Scope(0);

    /// The scope of kernel-variant `i` (presentation order).
    ///
    /// # Panics
    /// If `i + 1 >= NUM_SCOPES`.
    pub fn variant(i: usize) -> Scope {
        assert!(i + 1 < NUM_SCOPES, "variant scope {i} out of range");
        Scope(1 + i as u8)
    }

    /// All scopes, global first.
    pub fn all() -> impl Iterator<Item = Scope> {
        (0..NUM_SCOPES as u8).map(Scope)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One thread's private accumulation: counters it alone writes (relaxed
/// atomics — the atomicity is only for the merge read at session end) and
/// the spans it completed.
struct Shard {
    counters: Vec<AtomicU64>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Shard {
    fn new() -> Self {
        Self {
            counters: (0..NUM_SCOPES * NUM_METRICS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// One scoped measurement window's mutable state. Shared (`Arc`) between
/// the registry's session map, the owning [`ScopedSession`] guard, and
/// the TLS of every thread that adopted the window's context.
struct SessionState {
    /// The window's current key in the registry map. [`ScopedSession::
    /// rotate`] swaps this; a thread whose adopted key no longer matches
    /// is stale and stops contributing.
    id: AtomicU64,
    enabled: AtomicBool,
    shards: Mutex<Vec<Arc<Shard>>>,
    labels: Mutex<BTreeMap<(u32, u32), String>>,
    next_tid: AtomicU32,
}

impl SessionState {
    fn live(&self, adopted_id: u64) -> bool {
        self.enabled.load(Ordering::Acquire) && self.id.load(Ordering::Relaxed) == adopted_id
    }
}

/// The process-wide registry behind the free functions of this crate.
struct Registry {
    /// Monotonic session-id source; ids are never reused, so a stale
    /// [`Context`] can never alias a later window (no ABA).
    next_session: AtomicU64,
    /// Live scoped windows, keyed by current session id.
    sessions: Mutex<BTreeMap<u64, Arc<SessionState>>>,
    warnings: Mutex<Vec<String>>,
    /// Warnings the bounded channel had to drop since the last drain —
    /// the channel never fails *silently* anymore.
    warn_dropped: AtomicU64,
    next_span_id: AtomicU64,
    session_lock: Mutex<()>,
    clock: Instant,
    /// Every flight-recorder ring, live and retired (recycled in place).
    rings: Mutex<Vec<Arc<Mutex<recorder::Ring>>>>,
    /// The flight recorder's process-wide on/off gate.
    recording: AtomicBool,
    /// The last [`recorder::capture`] output.
    last_dump: Mutex<Option<String>>,
    /// Events recorded by retired rings that were since recycled (their
    /// `seq` restarts at zero) — keeps [`recorder::total_events`]
    /// monotonic.
    recycled: AtomicU64,
}

/// Warning-channel capacity; beyond it new warnings are dropped (the
/// channel reports rare config problems, not a stream).
const MAX_WARNINGS: usize = 256;

impl Registry {
    /// Fresh empty registry. Runs exactly once per process, inside
    /// [`reg`]'s `OnceLock` initializer.
    // alya:cold: one-time process init behind the OnceLock — hot counter
    // adds only ever hit the already-initialized fast path.
    fn new() -> Self {
        Self {
            next_session: AtomicU64::new(0),
            sessions: Mutex::new(BTreeMap::new()),
            warnings: Mutex::new(Vec::new()),
            warn_dropped: AtomicU64::new(0),
            next_span_id: AtomicU64::new(0),
            session_lock: Mutex::new(()),
            clock: Instant::now(),
            rings: Mutex::new(Vec::new()),
            recording: AtomicBool::new(true),
            last_dump: Mutex::new(None),
            recycled: AtomicU64::new(0),
        }
    }
}

fn reg() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(Registry::new)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Tls {
    /// Session id this thread adopted (0 = none). Compared against the
    /// session's live id so a rotation invalidates stale adoptions.
    session_id: u64,
    /// The adopted window's shared state.
    session: Option<Arc<SessionState>>,
    /// This thread's shard, valid for `session_id`.
    shard: Option<Arc<Shard>>,
    /// Chrome-trace process id ("rank" in distributed runs).
    pid: u32,
    /// Chrome-trace thread id within `pid`.
    tid: u32,
    /// Open RAII span ids, innermost last.
    stack: Vec<u64>,
    /// This thread's flight-recorder ring, built on its first event.
    ring: Option<recorder::RingHandle>,
}

thread_local! {
    static TLS: RefCell<Tls> = const {
        RefCell::new(Tls {
            session_id: 0,
            session: None,
            shard: None,
            pid: 0,
            tid: 0,
            stack: Vec::new(),
            ring: None,
        })
    };
}

/// A thread's participation token: capture with [`current_context`]
/// before spawning, hand to [`adopt_context`] inside the new thread.
/// `alya-machine::par` does this for every thread it creates.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    epoch: u64,
    pid: u32,
}

/// The calling thread's participation token (cheap; callable anywhere).
pub fn current_context() -> Context {
    TLS.with(|t| {
        let t = t.borrow();
        Context {
            epoch: t.session_id,
            pid: t.pid,
        }
    })
}

/// Adopts `ctx` on the calling thread. If `ctx` names a live scoped
/// session, the thread gets its own counter shard and a fresh trace `tid`
/// under the spawner's `pid`; otherwise the thread stays invisible.
/// Re-adopting the session a thread already participates in only updates
/// the `pid` — the shard and `tid` are kept, so a pooled worker that is
/// handed the same session's context every batch allocates nothing.
pub fn adopt_context(ctx: Context) {
    let r = reg();
    let state = if ctx.epoch == 0 {
        None
    } else {
        lock(&r.sessions).get(&ctx.epoch).cloned()
    };
    let live = state
        .as_ref()
        .is_some_and(|s| s.enabled.load(Ordering::Acquire));
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        t.pid = ctx.pid;
        if live && t.session_id == ctx.epoch && t.shard.is_some() {
            return;
        }
        t.session_id = ctx.epoch;
        if live {
            if let Some(s) = state {
                t.tid = s.next_tid.fetch_add(1, Ordering::Relaxed);
                let shard = Arc::new(Shard::new());
                lock(&s.shards).push(Arc::clone(&shard));
                t.shard = Some(shard);
                t.session = Some(s);
                return;
            }
        }
        t.shard = None;
        t.session = None;
    });
}

/// Whether the calling thread is inside a live session's measurement
/// window. All recording free functions are no-ops when this is false.
pub fn active() -> bool {
    TLS.with(|t| {
        let t = t.borrow();
        t.session.as_ref().is_some_and(|s| s.live(t.session_id))
    })
}

fn with_shard(f: impl FnOnce(&Shard, &mut Tls)) {
    if !active() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let Some(shard) = t.shard.take() else {
            return;
        };
        f(&shard, &mut t);
        t.shard = Some(shard);
    });
}

/// Adds `n` to a counter in the calling thread's shard. No-op outside a
/// live session.
pub fn add(scope: Scope, metric: Metric, n: u64) {
    if n == 0 {
        return;
    }
    with_shard(|s, _| {
        s.counters[scope.index() * NUM_METRICS + metric.index()].fetch_add(n, Ordering::Relaxed);
    });
}

/// Live sum of `metric` across all scopes and shards of the session the
/// calling thread adopted — the "what has accumulated so far" read
/// benchmarks use for per-run deltas. Zero outside a session.
pub fn counter_total(metric: Metric) -> u64 {
    TLS.with(|t| {
        let t = t.borrow();
        let Some(s) = t.session.as_ref() else {
            return 0;
        };
        if !s.live(t.session_id) {
            return 0;
        }
        let mi = metric.index();
        let total = lock(&s.shards)
            .iter()
            .map(|sh| {
                (0..NUM_SCOPES)
                    .map(|sc| sh.counters[sc * NUM_METRICS + mi].load(Ordering::Relaxed))
                    .sum::<u64>()
            })
            .sum();
        total
    })
}

/// Nanoseconds since the registry clock started; 0 when the calling
/// thread is not in a live session (callers use it to skip work).
pub fn stamp() -> u64 {
    if !active() {
        return 0;
    }
    now_ns()
}

/// Nanoseconds on the process-wide monotonic registry clock. This is the
/// timeline every [`SpanRecord`] and every flight-recorder event is
/// stamped on, so black-box dumps and chrome traces align.
pub fn now_ns() -> u64 {
    reg().clock.elapsed().as_nanos() as u64
}

/// One completed span on the shared timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the process.
    pub id: u64,
    /// Enclosing RAII span, if any (same thread).
    pub parent: Option<u64>,
    /// Display name.
    pub name: String,
    /// Trace process id (rank).
    pub pid: u32,
    /// Trace thread id within `pid`.
    pub tid: u32,
    /// Start, nanoseconds on the registry clock.
    pub start_ns: u64,
    /// End, nanoseconds on the registry clock.
    pub end_ns: u64,
}

/// An open RAII span: records itself (with its parent link) when dropped.
/// Inert outside a live session.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    inner: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: Cow<'static, str>,
    start_ns: u64,
}

/// Opens a parent-linked RAII span on the calling thread's track.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    if !active() {
        return Span { inner: None };
    }
    let id = reg().next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
    let name = name.into();
    let parent = TLS.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied();
        t.stack.push(id);
        recorder::store(&mut t, EventKind::SpanBegin, &name, 0, 0);
        parent
    });
    let start_ns = now_ns();
    Span {
        inner: Some(OpenSpan {
            id,
            parent,
            name,
            start_ns,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else {
            return;
        };
        let end_ns = now_ns();
        recorder::record(EventKind::SpanEnd, &open.name, open.start_ns, 0);
        with_shard(|shard, t| {
            // RAII discipline makes this a pop of our own id; a guard
            // outliving its parent is removed positionally.
            if let Some(pos) = t.stack.iter().rposition(|&x| x == open.id) {
                t.stack.remove(pos);
            }
            lock(&shard.spans).push(SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name.clone().into_owned(),
                pid: t.pid,
                tid: t.tid,
                start_ns: open.start_ns,
                end_ns,
            });
        });
    }
}

/// Marks pipeline stage `name` starting on the calling thread: writes
/// [`EventKind::StageBegin`] to the ring and returns the stage span's
/// start (a [`stamp`]: 0 outside a live session) for [`stage_end`].
pub fn stage_begin(name: &'static str) -> u64 {
    recorder::record(EventKind::StageBegin, name, 0, 0);
    stamp()
}

/// Retires pipeline stage `name`: writes [`EventKind::StageEnd`] to the
/// ring and, when `start_ns` came from a live session, records the stage
/// span from `start_ns` to now on sub-track `tid` of the calling
/// thread's `pid` — how the stage scheduler puts each stage on its own
/// trace row. The span is unparented.
pub fn stage_end(name: &'static str, tid: u32, start_ns: u64) {
    recorder::record(EventKind::StageEnd, name, 0, 0);
    if start_ns == 0 {
        return;
    }
    let end_ns = now_ns();
    with_shard(|shard, t| {
        let id = reg().next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
        lock(&shard.spans).push(SpanRecord {
            id,
            parent: None,
            name: name.to_string(),
            pid: t.pid,
            tid,
            start_ns,
            end_ns,
        });
    });
}

/// A halo message of `bytes` posted to rank `peer`: adds
/// [`Metric::HaloBytesPosted`] (in a live session) and writes
/// [`EventKind::CommPost`] to the ring.
pub fn comm_post(peer: u32, bytes: u64) {
    add(Scope::GLOBAL, Metric::HaloBytesPosted, bytes);
    recorder::record(EventKind::CommPost, "halo-send", u64::from(peer), bytes);
}

/// A blocking receive from rank `peer` that waited `waited_ns`: adds
/// [`Metric::BlockedWaitNs`] (in a live session) and writes
/// [`EventKind::CommBlock`], or [`EventKind::CommTimeout`] when the
/// message had not `arrived`.
pub fn comm_wait(peer: u32, waited_ns: u64, arrived: bool) {
    add(Scope::GLOBAL, Metric::BlockedWaitNs, waited_ns);
    let kind = if arrived {
        EventKind::CommBlock
    } else {
        EventKind::CommTimeout
    };
    recorder::record(kind, "halo-wait", u64::from(peer), waited_ns);
}

/// Restores the thread's previous `pid` when dropped (see
/// [`set_rank_track`]).
#[must_use = "dropping restores the previous track immediately"]
pub struct TrackGuard {
    prev_pid: u32,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        TLS.with(|t| t.borrow_mut().pid = self.prev_pid);
    }
}

/// Marks the calling thread as executing `rank`: names its ring
/// "rank N" for black-box dumps and, in a live session, moves it onto
/// trace process `rank + 1` (pid 0 is the main thread), labelled the
/// same, until the guard drops — the comm runtime does this so every
/// rank becomes its own process row.
pub fn set_rank_track(rank: u32) -> TrackGuard {
    let label = format!("rank {rank}");
    TLS.with(|t| {
        let t = &mut *t.borrow_mut();
        let prev_pid = t.pid;
        recorder::label_rank(t, rank, &label);
        if let Some(s) = t.session.as_ref().filter(|s| s.live(t.session_id)) {
            lock(&s.labels).entry((rank + 1, 0)).or_insert(label);
            t.pid = rank + 1;
        }
        TrackGuard { prev_pid }
    })
}

/// Labels sub-track `tid` of the calling thread's `pid` (e.g. one row per
/// pipeline stage). No-op outside a session.
pub fn set_track_label_here(tid: u32, label: &str) {
    if !active() {
        return;
    }
    TLS.with(|t| {
        let t = t.borrow();
        if let Some(s) = t.session.as_ref() {
            lock(&s.labels)
                .entry((t.pid, tid))
                .or_insert_with(|| label.to_string());
        }
    });
}

/// Pushes a warning onto the registry's event channel (bounded; works
/// with or without a live session) — the "never fail silently" path for
/// configuration problems like an unreadable bench baseline. When the
/// channel is full the message is dropped but **counted**: the next
/// [`drain_warnings`] surfaces the loss, and [`warn_overflow`] exposes
/// the live count (every black-box dump carries it). The flight recorder
/// keeps each message, dropped or not.
pub fn warn(message: impl Into<String>) {
    let message = message.into();
    recorder::record(EventKind::Warn, &message, 0, 0);
    let r = reg();
    let mut w = lock(&r.warnings);
    if w.len() < MAX_WARNINGS {
        // alya:allow(hot-alloc): bounded (MAX_WARNINGS) config-problem
        // channel; warnings fire on rare setup errors, never per element.
        w.push(message);
    } else {
        r.warn_dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Warnings dropped by the bounded channel since the last
/// [`drain_warnings`] — zero in a healthy run.
pub fn warn_overflow() -> u64 {
    reg().warn_dropped.load(Ordering::Relaxed)
}

/// Takes every pending warning (oldest first). [`Session::finish`] also
/// drains the channel into its report. If the bounded channel dropped
/// messages since the last drain, a final synthetic entry reports how
/// many were lost, and the overflow counter resets.
pub fn drain_warnings() -> Vec<String> {
    let r = reg();
    let mut out = std::mem::take(&mut *lock(&r.warnings));
    let dropped = r.warn_dropped.swap(0, Ordering::Relaxed);
    if dropped > 0 {
        out.push(format!(
            "telemetry: {dropped} warning(s) dropped (bounded channel full at {MAX_WARNINGS})"
        ));
    }
    out
}

/// Everything one session collected, deterministically merged.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Counter totals, indexed `[scope][metric]` (see accessors).
    counters: Vec<u64>,
    /// Completed spans, sorted by `(pid, tid, start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Warnings drained from the event channel.
    pub warnings: Vec<String>,
    /// `(pid, tid) → label` rows registered during the session, sorted.
    pub track_labels: Vec<((u32, u32), String)>,
}

impl TelemetryReport {
    /// Counter value of `metric` in `scope` (0 on an empty report).
    pub fn counter(&self, scope: Scope, metric: Metric) -> u64 {
        self.counters
            .get(scope.index() * NUM_METRICS + metric.index())
            .copied()
            .unwrap_or(0)
    }

    /// Sum of `metric` across all scopes.
    pub fn total(&self, metric: Metric) -> u64 {
        Scope::all().map(|s| self.counter(s, metric)).sum()
    }

    /// Overwrites a counter — the analyzer's seeded-violation self-tests
    /// use this to forge a skew and prove the cross-check catches it.
    pub fn set_counter(&mut self, scope: Scope, metric: Metric, value: u64) {
        if self.counters.is_empty() {
            self.counters = vec![0; NUM_SCOPES * NUM_METRICS];
        }
        self.counters[scope.index() * NUM_METRICS + metric.index()] = value;
    }

    /// Merges `other` into `self`: counters by commutative sum, spans and
    /// warnings appended (spans re-sorted into merge order), labels
    /// united first-writer-wins. The serve layer uses this to accumulate
    /// one report per tenant from many per-session windows.
    pub fn absorb(&mut self, other: &TelemetryReport) {
        if self.counters.is_empty() {
            self.counters = vec![0; NUM_SCOPES * NUM_METRICS];
        }
        for (i, v) in other.counters.iter().enumerate() {
            self.counters[i] += v;
        }
        self.spans.extend(other.spans.iter().cloned());
        self.spans.sort_by_key(|s| (s.pid, s.tid, s.start_ns, s.id));
        self.warnings.extend(other.warnings.iter().cloned());
        for (key, label) in &other.track_labels {
            if !self.track_labels.iter().any(|(k, _)| k == key) {
                self.track_labels.push((*key, label.clone()));
            }
        }
        self.track_labels.sort_by_key(|a| a.0);
    }

    /// Spans named `name`, in merged order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The chrome `trace_event` export of this report (see
    /// [`export::chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(self)
    }
}

/// Disables `state`, merges every shard into a report and clears the
/// window's accumulation (shards, labels, tid counter) so the same state
/// can be reused for another window. Counters merge by commutative sum;
/// spans sort by `(pid, tid, start_ns, id)` — both independent of thread
/// timing. The caller re-enables if the window continues.
fn collect_state(state: &SessionState) -> TelemetryReport {
    let mut counters = vec![0u64; NUM_SCOPES * NUM_METRICS];
    let mut spans = Vec::new();
    {
        let mut shards = lock(&state.shards);
        for shard in shards.iter() {
            for (i, c) in shard.counters.iter().enumerate() {
                counters[i] += c.load(Ordering::Acquire);
            }
            spans.append(&mut lock(&shard.spans));
        }
        shards.clear();
    }
    spans.sort_by_key(|s| (s.pid, s.tid, s.start_ns, s.id));
    let track_labels = std::mem::take(&mut *lock(&state.labels))
        .into_iter()
        .collect();
    state.next_tid.store(16, Ordering::Relaxed);
    TelemetryReport {
        counters,
        spans,
        warnings: Vec::new(),
        track_labels,
    }
}

/// An independent scoped measurement window. Collection is enabled while
/// this guard lives; any number of scoped sessions coexist. Dropping the
/// guard without [`ScopedSession::finish`] discards the window's data.
#[must_use = "finish() the session to obtain its report"]
pub struct ScopedSession {
    state: Option<Arc<SessionState>>,
}

/// Opens a new scoped measurement window and returns its guard. The
/// calling thread does **not** adopt it automatically — call
/// [`ScopedSession::adopt`] or hand [`ScopedSession::context`] to the
/// threads that should contribute.
pub fn scoped_session() -> ScopedSession {
    let r = reg();
    let id = r.next_session.fetch_add(1, Ordering::Relaxed) + 1;
    let state = Arc::new(SessionState {
        id: AtomicU64::new(id),
        enabled: AtomicBool::new(true),
        shards: Mutex::new(Vec::new()),
        labels: Mutex::new(BTreeMap::new()),
        next_tid: AtomicU32::new(16),
    });
    lock(&r.sessions).insert(id, Arc::clone(&state));
    ScopedSession { state: Some(state) }
}

impl ScopedSession {
    /// The window's current session id (changes on [`Self::rotate`]).
    pub fn id(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.id.load(Ordering::Relaxed))
    }

    /// A participation token for this window with trace process id 0.
    pub fn context(&self) -> Context {
        self.context_on(0)
    }

    /// A participation token for this window on trace process `pid` —
    /// the serve layer keys `pid` per tenant so traces stay separable.
    pub fn context_on(&self, pid: u32) -> Context {
        Context {
            epoch: self.id(),
            pid,
        }
    }

    /// Adopts this window on the calling thread (trace process id 0).
    pub fn adopt(&self) {
        adopt_context(self.context());
    }

    /// Labels trace row `(pid, tid)` in this window's export.
    pub fn set_label(&self, pid: u32, tid: u32, label: &str) {
        if let Some(s) = self.state.as_ref() {
            lock(&s.labels)
                .entry((pid, tid))
                .or_insert_with(|| label.to_string());
        }
    }

    /// Takes everything collected so far and re-keys the window under a
    /// fresh session id, leaving it enabled: contexts captured before
    /// the rotation (and every thread that adopted them) become
    /// invisible, while the guard itself keeps working. This is the
    /// pooled-slot handoff primitive — rotate at release, and the next
    /// tenant admitted into the slot cannot observe or be observed by
    /// the previous one.
    pub fn rotate(&mut self) -> TelemetryReport {
        let r = reg();
        let Some(state) = self.state.as_ref() else {
            return TelemetryReport::default();
        };
        state.enabled.store(false, Ordering::Release);
        let old = state.id.load(Ordering::Relaxed);
        let new = r.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut sessions = lock(&r.sessions);
            sessions.remove(&old);
            sessions.insert(new, Arc::clone(state));
        }
        state.id.store(new, Ordering::Relaxed);
        let report = collect_state(state);
        state.enabled.store(true, Ordering::Release);
        report
    }

    /// Disables collection, unregisters the window and merges every
    /// shard into its report.
    pub fn finish(mut self) -> TelemetryReport {
        self.close()
    }

    fn close(&mut self) -> TelemetryReport {
        let Some(state) = self.state.take() else {
            return TelemetryReport::default();
        };
        state.enabled.store(false, Ordering::Release);
        let id = state.id.load(Ordering::Relaxed);
        lock(&reg().sessions).remove(&id);
        let report = collect_state(&state);
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if t.session.as_ref().is_some_and(|s| Arc::ptr_eq(s, &state)) {
                t.session_id = 0;
                t.session = None;
                t.shard = None;
                t.stack.clear();
            }
        });
        report
    }
}

impl Drop for ScopedSession {
    fn drop(&mut self) {
        if self.state.is_some() {
            let _ = self.close();
        }
    }
}

/// An exclusive measurement window. Collection is enabled while this
/// guard lives; [`Session::finish`] produces the merged report.
#[must_use = "finish() the session to obtain its report"]
pub struct Session {
    scoped: ScopedSession,
    _guard: MutexGuard<'static, ()>,
}

/// Opens the process's exclusive telemetry session: locks out other
/// exclusive sessions, clears the warning channel, opens a scoped window
/// and adopts it on the calling thread (pid 0, tid 0). Scoped sessions
/// opened via [`scoped_session`] are unaffected by the lock — exclusivity
/// is a property single-run benchmarks opt into, not a global constraint.
pub fn session() -> Session {
    let r = reg();
    let guard = lock(&r.session_lock);
    lock(&r.warnings).clear();
    let scoped = scoped_session();
    scoped.adopt();
    TLS.with(|t| t.borrow_mut().tid = 0);
    scoped.set_label(0, 0, "main");
    Session {
        scoped,
        _guard: guard,
    }
}

impl Session {
    /// Disables collection and merges every shard into a report:
    /// counters by commutative sum, spans sorted by
    /// `(pid, tid, start_ns, id)` — both independent of thread timing.
    /// Also drains the global warning channel into the report.
    pub fn finish(self) -> TelemetryReport {
        let Session { scoped, _guard } = self;
        let mut report = scoped.finish();
        report.warnings = drain_warnings();
        report
        // The session lock releases here, after collection is disabled.
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use recorder::{note_counter, set_enabled, snapshot, total_events, Tag, RING_CAP, TAG_LEN};

    /// Serializes every test in this crate that records events or
    /// touches process-wide state: the recorder gate,
    /// [`recorder::total_events`] and the warn channel (every exclusive
    /// session drains it). One test switching the recorder off or
    /// draining the channel must never land inside another's recording.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        lock(&GATE)
    }

    #[test]
    fn metric_index_matches_declaration_order() {
        // `index` is a hand-written match (the hot-path rule bans the
        // `ALL.iter().position().expect()` scan it replaced); this pins it
        // to the declaration order so the two can never drift apart.
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{m:?}");
        }
    }

    #[test]
    fn counters_require_an_adopted_context_and_merge_across_threads() {
        let _g = serial();
        let s = session();
        add(Scope::GLOBAL, Metric::Flops, 5);
        let ctx = current_context();
        std::thread::scope(|scope| {
            // A participating thread contributes ...
            scope.spawn(|| {
                adopt_context(ctx);
                add(Scope::GLOBAL, Metric::Flops, 7);
            });
            // ... a non-participating one does not.
            scope.spawn(|| {
                add(Scope::GLOBAL, Metric::Flops, 1000);
                assert!(!active());
            });
        });
        assert_eq!(counter_total(Metric::Flops), 12);
        let report = s.finish();
        assert_eq!(report.counter(Scope::GLOBAL, Metric::Flops), 12);
        assert_eq!(report.total(Metric::Flops), 12);
        // Outside the window everything is inert.
        add(Scope::GLOBAL, Metric::Flops, 9);
        assert!(!active());
        assert_eq!(counter_total(Metric::Flops), 0);
    }

    #[test]
    fn scoped_counters_do_not_bleed_between_scopes() {
        let _g = serial();
        let s = session();
        add(Scope::variant(0), Metric::ElementsAssembled, 3);
        add(Scope::variant(4), Metric::ElementsAssembled, 4);
        let report = s.finish();
        assert_eq!(
            report.counter(Scope::variant(0), Metric::ElementsAssembled),
            3
        );
        assert_eq!(
            report.counter(Scope::variant(4), Metric::ElementsAssembled),
            4
        );
        assert_eq!(report.counter(Scope::GLOBAL, Metric::ElementsAssembled), 0);
        assert_eq!(report.total(Metric::ElementsAssembled), 7);
    }

    #[test]
    fn raii_spans_nest_and_raw_spans_land_on_their_tid() {
        let _g = serial();
        let s = session();
        {
            let _outer = span("outer");
            let start = stage_begin("staged");
            {
                let _inner = span("inner");
            }
            stage_end("staged", 3, start);
        }
        let report = s.finish();
        let outer = report.spans_named("outer").next().expect("outer recorded");
        let inner = report.spans_named("inner").next().expect("inner recorded");
        let staged = report.spans_named("staged").next().expect("raw recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(staged.tid, 3);
        assert_eq!(staged.parent, None);
        assert!(staged.start_ns >= outer.start_ns);
    }

    #[test]
    fn track_guard_restores_the_previous_pid() {
        let _g = serial();
        let s = session();
        {
            let _t = set_rank_track(6);
            let _sp = span("on rank 6");
        }
        {
            let _sp = span("back on main");
        }
        let report = s.finish();
        assert_eq!(report.spans_named("on rank 6").next().unwrap().pid, 7);
        assert_eq!(report.spans_named("back on main").next().unwrap().pid, 0);
        assert!(report
            .track_labels
            .iter()
            .any(|((p, t), l)| *p == 7 && *t == 0 && l == "rank 6"));
    }

    #[test]
    fn warnings_flow_with_or_without_a_session() {
        let _g = serial();
        // Standalone channel (no session).
        drain_warnings();
        warn("standalone problem");
        let w = drain_warnings();
        assert_eq!(w, vec!["standalone problem".to_string()]);
        // Session drains the channel into its report.
        let s = session();
        warn("in-session problem");
        let report = s.finish();
        assert_eq!(report.warnings, vec!["in-session problem".to_string()]);
        assert!(drain_warnings().is_empty());
    }

    #[test]
    fn sessions_reset_state_between_windows() {
        let _g = serial();
        let s1 = session();
        add(Scope::GLOBAL, Metric::HaloBytesPosted, 42);
        let _sp = span("first window");
        drop(_sp);
        let r1 = s1.finish();
        assert_eq!(r1.counter(Scope::GLOBAL, Metric::HaloBytesPosted), 42);
        let s2 = session();
        let r2 = s2.finish();
        assert_eq!(r2.counter(Scope::GLOBAL, Metric::HaloBytesPosted), 0);
        assert!(r2.spans.is_empty());
    }

    #[test]
    fn concurrent_scoped_sessions_stay_isolated() {
        let _g = serial();
        let a = scoped_session();
        let b = scoped_session();
        let (ca, cb) = (a.context(), b.context_on(3));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                adopt_context(ca);
                add(Scope::variant(0), Metric::ElementsAssembled, 11);
                let _sp = span("window-a");
            });
            scope.spawn(|| {
                adopt_context(cb);
                add(Scope::variant(0), Metric::ElementsAssembled, 22);
                let _sp = span("window-b");
            });
        });
        let ra = a.finish();
        let rb = b.finish();
        assert_eq!(ra.counter(Scope::variant(0), Metric::ElementsAssembled), 11);
        assert_eq!(rb.counter(Scope::variant(0), Metric::ElementsAssembled), 22);
        assert_eq!(ra.spans_named("window-a").count(), 1);
        assert_eq!(ra.spans_named("window-b").count(), 0);
        assert_eq!(rb.spans_named("window-b").next().unwrap().pid, 3);
    }

    #[test]
    fn rotate_splits_windows_and_invalidates_stale_contexts() {
        let _g = serial();
        let mut s = scoped_session();
        let stale = s.context();
        s.adopt();
        add(Scope::GLOBAL, Metric::Flops, 5);
        let first = s.rotate();
        assert_eq!(first.counter(Scope::GLOBAL, Metric::Flops), 5);
        // The pre-rotation context no longer lands anywhere ...
        adopt_context(stale);
        assert!(!active());
        add(Scope::GLOBAL, Metric::Flops, 100);
        // ... but the rotated window keeps collecting under its new id.
        s.adopt();
        add(Scope::GLOBAL, Metric::Flops, 7);
        let second = s.finish();
        assert_eq!(second.counter(Scope::GLOBAL, Metric::Flops), 7);
    }

    #[test]
    fn readoption_of_the_same_window_keeps_the_shard() {
        let _g = serial();
        let s = scoped_session();
        s.adopt();
        add(Scope::GLOBAL, Metric::Flops, 1);
        let tid_before = TLS.with(|t| t.borrow().tid);
        // Re-adopting the same session (as a pooled worker does every
        // batch) must keep the shard and tid, only moving the pid.
        adopt_context(s.context_on(9));
        let tid_after = TLS.with(|t| t.borrow().tid);
        assert_eq!(tid_before, tid_after);
        add(Scope::GLOBAL, Metric::Flops, 2);
        let r = s.finish();
        assert_eq!(r.counter(Scope::GLOBAL, Metric::Flops), 3);
    }

    #[test]
    fn absorb_merges_reports_commutatively() {
        let _g = serial();
        let a = scoped_session();
        a.adopt();
        add(Scope::variant(1), Metric::ElementsAssembled, 10);
        let _sp = span("in-a");
        drop(_sp);
        let ra = a.finish();
        let b = scoped_session();
        b.adopt();
        add(Scope::variant(1), Metric::ElementsAssembled, 4);
        add(Scope::GLOBAL, Metric::Flops, 6);
        let rb = b.finish();
        let mut merged = TelemetryReport::default();
        merged.absorb(&ra);
        merged.absorb(&rb);
        assert_eq!(
            merged.counter(Scope::variant(1), Metric::ElementsAssembled),
            14
        );
        assert_eq!(merged.counter(Scope::GLOBAL, Metric::Flops), 6);
        assert_eq!(merged.spans_named("in-a").count(), 1);
        // An untouched default report reads as all-zero, not a panic.
        assert_eq!(
            TelemetryReport::default().counter(Scope::GLOBAL, Metric::Flops),
            0
        );
    }

    /// The calling thread's own ring (the tests assert on it, never on
    /// another thread's).
    fn own_ring() -> dump::ThreadLog {
        TLS.with(|t| lock(&t.borrow().ring.as_ref().expect("this thread recorded").0).log())
    }

    #[test]
    fn tags_truncate_at_char_boundaries() {
        let t = Tag::new("short");
        assert_eq!(t.as_str(), "short");
        let long = "x".repeat(TAG_LEN + 20);
        assert_eq!(Tag::new(&long).as_str().len(), TAG_LEN);
        // Multibyte char straddling the cut is dropped whole.
        let awkward = format!("{}é", "a".repeat(TAG_LEN - 1));
        let t = Tag::new(&awkward);
        assert_eq!(t.as_str(), &awkward[..TAG_LEN - 1]);
    }

    #[test]
    fn rings_are_bounded_and_count_evictions() {
        let _g = serial();
        set_enabled(true);
        for i in 0..(RING_CAP + 7) {
            note_counter("overflow-test", i as u64 + 1);
        }
        let me = own_ring();
        assert!(me.events.len() <= RING_CAP);
        assert!(me.dropped >= 7);
        assert!(snapshot("bound check")
            .threads
            .iter()
            .all(|t| t.events.len() <= RING_CAP));
    }

    #[test]
    fn disabled_recorder_records_nothing_new() {
        let _g = serial();
        note_counter("pre-disable", 1);
        let before = total_events();
        set_enabled(false);
        note_counter("while-disabled", 1);
        assert_eq!(total_events(), before);
        set_enabled(true);
        note_counter("post-enable", 1);
        assert!(total_events() > before);
    }

    #[test]
    fn warn_channel_overflow_is_counted_and_surfaced() {
        // The bounded warn channel never loses messages silently.
        let _g = serial();
        drain_warnings();
        for i in 0..300 {
            warn(format!("flood {i}"));
        }
        assert!(warn_overflow() > 0);
        let drained = drain_warnings();
        let last = drained.last().expect("drained something");
        assert!(
            last.contains("warning(s) dropped"),
            "synthetic overflow entry missing: {last:?}"
        );
        assert_eq!(warn_overflow(), 0);
        // The flight recorder saw every message, including dropped ones.
        let seen = own_ring()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Warn && e.name.as_str().starts_with("flood"))
            .count();
        assert!(seen > 256, "recorder saw {seen} of 300 warnings");
    }

    #[test]
    fn spans_reach_the_ring_only_from_live_sessions() {
        let _g = serial();
        set_enabled(true);
        {
            let _outside = span("ring-outside-session");
        }
        let s = session();
        {
            let _inside = span("ring-inside-session");
        }
        let _ = s.finish();
        let events = own_ring().events;
        let named = |n: &str| events.iter().filter(|e| e.name.as_str() == n).count();
        assert_eq!(named("ring-outside-session"), 0);
        assert_eq!(named("ring-inside-session"), 2);
    }
}
