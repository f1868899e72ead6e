//! The always-on flight recorder: every thread that touches the
//! instrumented runtime gets a bounded, pre-allocated ring of its recent
//! events (span begin/end, pipeline stage begin/end, comm post/block,
//! counter breadcrumbs, warnings), stamped on the registry clock every
//! [`crate::SpanRecord`] uses.
//!
//! The ring is the record's recent history; a live session's span list
//! is the same record's complete retention (the ring evicts, a session
//! report may not). The thread's one telemetry TLS holds both, and each
//! instrumented event is written by one call at its source.
//!
//! Recording is allocation-free after the ring is built (`alya:hot`-clean:
//! fixed-slot writes behind an uncontended per-thread mutex), and a
//! relaxed atomic gate keeps the disabled path to a flag check. Rings of
//! finished threads are retained for post-mortems and recycled for new
//! threads, so the registry is bounded by the peak live thread count.
//! On a scheduler watchdog stall or an explicit [`capture`], every ring
//! is stitched into a [`BlackBox`] report ([`crate::dump`]).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::dump::{BlackBox, ThreadLog};
use crate::{lock, now_ns, reg, warn_overflow, Tls, TLS};

/// Events each per-thread ring retains; at 64 bytes per slot a ring is
/// 128 KiB — deep enough to hold the full five-stage pipeline history
/// of several assemblies, small enough to keep always-on.
pub const RING_CAP: usize = 2048;

/// Inline label bytes per event (longer names are truncated at a char
/// boundary) — labels are copied, never allocated, on the record path.
pub const TAG_LEN: usize = 40;

/// A fixed-size inline label: the flight recorder never allocates to
/// name an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    len: u8,
    bytes: [u8; TAG_LEN],
}

impl Tag {
    /// Copies `s` (truncated to [`TAG_LEN`] at a char boundary).
    pub fn new(s: &str) -> Self {
        let raw = s.as_bytes();
        let mut n = raw.len().min(TAG_LEN);
        while n > 0 && !s.is_char_boundary(n) {
            n -= 1;
        }
        let mut bytes = [0u8; TAG_LEN];
        bytes[..n].copy_from_slice(&raw[..n]);
        Self {
            len: n as u8,
            bytes,
        }
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("<non-utf8>")
    }
}

/// What one recorded event describes. The `a`/`b` payload of
/// [`Event`] is kind-specific (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A RAII span opened in a live session (`a`/`b` unused).
    SpanBegin,
    /// A RAII span completed; `a` = start ns on the shared clock.
    SpanEnd,
    /// An `alya-sched` pipeline stage started executing (`a`/`b` unused).
    StageBegin,
    /// A pipeline stage retired (`a`/`b` unused; paired with the last
    /// unmatched [`EventKind::StageBegin`] of the same name).
    StageEnd,
    /// A halo message posted; `a` = destination rank, `b` = bytes.
    CommPost,
    /// A blocking receive returned a message; `a` = peer rank,
    /// `b` = nanoseconds spent blocked.
    CommBlock,
    /// A blocking receive timed out with nothing from the peer;
    /// `a` = peer rank, `b` = nanoseconds spent blocked. A stalled rank
    /// leaves a trail of these naming the rank it is waiting on.
    CommTimeout,
    /// A counter breadcrumb; `a` = amount added (the tag names it).
    Counter,
    /// A warning (tag = truncated message; `a`/`b` unused).
    Warn,
}

/// One flight-recorder event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Timestamp, nanoseconds on [`now_ns`]'s clock.
    pub at_ns: u64,
    /// Event class.
    pub kind: EventKind,
    /// Inline label (span/stage/counter name, warn text).
    pub name: Tag,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
}

/// One thread's bounded event history.
pub(crate) struct Ring {
    /// Fixed [`RING_CAP`] slots, written round-robin.
    events: Vec<Event>,
    /// Next slot to write.
    head: usize,
    /// Live slots (saturates at [`RING_CAP`]).
    used: usize,
    /// Events ever recorded; `seq - used` is how many the ring evicted.
    seq: u64,
    /// Thread label (thread name, or "rank N" once adopted).
    label: Tag,
    /// Rank this thread executes, once [`crate::set_rank_track`] said so.
    rank: Option<u32>,
    /// The owning thread exited; the data stays for post-mortems until
    /// a new thread recycles the slot.
    retired: bool,
}

impl Ring {
    fn store_event(&mut self, ev: Event) {
        self.events[self.head] = ev;
        self.head = (self.head + 1) % RING_CAP;
        if self.used < RING_CAP {
            self.used += 1;
        }
        self.seq += 1;
    }

    /// A copy of this ring, events oldest→newest (cold: dump path only).
    pub(crate) fn log(&self) -> ThreadLog {
        let start = (self.head + RING_CAP - self.used) % RING_CAP;
        ThreadLog {
            label: self.label.as_str().to_string(),
            rank: self.rank,
            retired: self.retired,
            dropped: self.seq - self.used as u64,
            events: (0..self.used)
                .map(|i| self.events[(start + i) % RING_CAP])
                .collect(),
        }
    }
}

/// Owns a thread's ring registration; marks it retired (data kept for
/// post-mortems, slot recyclable) when the thread's TLS is torn down.
pub(crate) struct RingHandle(pub(crate) Arc<Mutex<Ring>>);

impl Drop for RingHandle {
    fn drop(&mut self) {
        lock(&self.0).retired = true;
    }
}

/// Builds (or recycles) a ring for the calling thread and registers it.
// alya:cold: runs once per thread lifetime; every later record call
// takes the TLS fast path.
fn init_ring() -> RingHandle {
    let label = std::thread::current()
        .name()
        .map(Tag::new)
        .unwrap_or_else(|| Tag::new("thread"));
    let r = reg();
    let rings = &mut *lock(&r.rings);
    for arc in rings.iter() {
        let mut ring = lock(arc);
        if ring.retired {
            r.recycled.fetch_add(ring.seq, Ordering::Relaxed);
            ring.retired = false;
            ring.head = 0;
            ring.used = 0;
            ring.seq = 0;
            ring.rank = None;
            ring.label = label;
            return RingHandle(Arc::clone(arc));
        }
    }
    let blank = Event {
        at_ns: 0,
        kind: EventKind::Counter,
        name: Tag::new(""),
        a: 0,
        b: 0,
    };
    let arc = Arc::new(Mutex::new(Ring {
        events: vec![blank; RING_CAP],
        head: 0,
        used: 0,
        seq: 0,
        label,
        rank: None,
        retired: false,
    }));
    rings.push(Arc::clone(&arc));
    RingHandle(arc)
}

/// The calling thread's ring, built on first use; `None` while the
/// recorder is off.
fn ring(t: &mut Tls) -> Option<&RingHandle> {
    if !reg().recording.load(Ordering::Relaxed) {
        return None;
    }
    Some(t.ring.get_or_insert_with(init_ring))
}

/// Writes one event into the ring of the thread owning `t`.
pub(crate) fn store(t: &mut Tls, kind: EventKind, name: &str, a: u64, b: u64) {
    let Some(handle) = ring(t) else {
        return;
    };
    let ev = Event {
        at_ns: now_ns(),
        kind,
        name: Tag::new(name),
        a,
        b,
    };
    lock(&handle.0).store_event(ev);
}

/// Writes one event into the calling thread's ring.
pub(crate) fn record(kind: EventKind, name: &str, a: u64, b: u64) {
    TLS.with(|t| store(&mut t.borrow_mut(), kind, name, a, b));
}

/// Names the ring of the thread owning `t` after the rank it executes.
pub(crate) fn label_rank(t: &mut Tls, rank: u32, label: &str) {
    if let Some(handle) = ring(t) {
        let mut r = lock(&handle.0);
        r.rank = Some(rank);
        r.label = Tag::new(label);
    }
}

/// Turns the flight recorder on or off process-wide. It is **on** by
/// default; analyzer pass 11 pins recorder-on bitwise identical to
/// recorder-off, so disabling is for overhead experiments, not
/// correctness.
pub fn set_enabled(on: bool) {
    reg().recording.store(on, Ordering::Relaxed);
}

/// Records a counter breadcrumb under `name` (zero deltas are skipped).
pub fn note_counter(name: &'static str, delta: u64) {
    if delta > 0 {
        record(EventKind::Counter, name, delta, 0);
    }
}

/// Records a warning in the calling thread's ring only — for verdicts
/// that belong in a post-mortem but not on the [`crate::warn`] channel.
pub fn note_warn(message: &str) {
    record(EventKind::Warn, message, 0, 0);
}

/// Total events ever recorded across every ring (including evicted
/// ones) — the "did the recorder actually see the run" probe.
pub fn total_events() -> u64 {
    let r = reg();
    let live: u64 = lock(&r.rings).iter().map(|ring| lock(ring).seq).sum();
    r.recycled.load(Ordering::Relaxed) + live
}

/// Copies every ring (live and retired) into a [`BlackBox`] snapshot.
pub fn snapshot(reason: &str) -> BlackBox {
    let at_ns = now_ns();
    let threads = lock(&reg().rings)
        .iter()
        .map(|ring| lock(ring).log())
        .collect();
    BlackBox {
        reason: reason.to_string(),
        at_ns,
        warn_overflow: warn_overflow(),
        threads,
    }
}

/// Takes a snapshot, renders it, stores it as the process's last dump
/// (readable via [`last_dump`]) and returns the rendered report. The
/// distributed driver calls this automatically on a watchdog stall.
pub fn capture(reason: &str) -> String {
    let text = snapshot(reason).render();
    *lock(&reg().last_dump) = Some(text.clone());
    text
}

/// The most recent [`capture`] output, if any.
pub fn last_dump() -> Option<String> {
    lock(&reg().last_dump).clone()
}

/// Forgets the stored dump (tests isolate themselves with this).
pub fn clear_last_dump() {
    *lock(&reg().last_dump) = None;
}
