//! Process-global event collector.
//!
//! A single `Mutex<State>` buffers events from every thread. Each event is
//! stamped with a **logical track** (thread-local, set by fan-out code via
//! [`set_track`]) and a per-track sequence number drawn under the lock, so
//! sorting by `(track, seq)` at drain time yields an order independent of
//! OS scheduling and worker-thread count.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::sink::SinkSpec;

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A named duration: `ts_ns..ts_ns + dur_ns`.
    Span,
    /// A point-in-time marker.
    Instant,
    /// A numeric sample (`value`) at a point in time.
    Counter,
}

/// One collected record. `track`/`seq` give the deterministic order;
/// `ts_ns`/`dur_ns` are wall-clock nanoseconds since the process epoch
/// and are the only nondeterministic fields.
#[derive(Debug, Clone)]
pub struct Event {
    /// Record kind.
    pub kind: EventKind,
    /// Category, e.g. `"sim"`, `"lb"`, `"mcmf"`, `"harness"`.
    pub cat: &'static str,
    /// Event name within the category, e.g. `"dijkstra"`.
    pub name: &'static str,
    /// Logical track (0 = main; fan-outs use task-index-based tracks).
    pub track: u32,
    /// Sequence number within the track; assigned under the collector lock.
    pub seq: u64,
    /// Start time, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (spans only; 0 otherwise).
    pub dur_ns: u64,
    /// Sample value (counters only; 0.0 otherwise).
    pub value: f64,
    /// Span arguments attached via [`SpanGuard::arg`].
    pub args: Vec<(&'static str, f64)>,
}

struct State {
    spec: SinkSpec,
    events: Vec<Event>,
    /// Next sequence number per track. Persists until the next
    /// [`install`]/drain so reused tracks keep monotone sequences.
    track_seq: BTreeMap<u32, u64>,
}

static RUNTIME_ON: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State {
    spec: SinkSpec::Off,
    events: Vec::new(),
    track_seq: BTreeMap::new(),
});
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT_TRACK: Cell<u32> = const { Cell::new(0) };
}

#[inline(always)]
pub(crate) fn runtime_on() -> bool {
    RUNTIME_ON.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Lock the collector state, recovering from a poisoned mutex.
///
/// A panic under the lock (e.g. a panicking allocator hook, or a caller
/// unwinding through a probe) poisons `STATE`; with a bare `unwrap()`
/// every later probe in the process would then panic too, turning one
/// failed task into a wedged run. The state is just a seq-counter map,
/// an event buffer, and a sink spec — all valid after any partial
/// mutation — so it is always safe to keep using.
fn state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Install a sink, replacing the previous one. Discards any buffered
/// events and resets sequence counters; `SinkSpec::Off` disables
/// collection entirely (probe sites return to their cheap path).
pub fn install(spec: SinkSpec) {
    let mut st = state();
    RUNTIME_ON.store(!spec.is_off(), Ordering::Relaxed);
    st.spec = spec;
    st.events.clear();
    st.track_seq.clear();
}

/// Install an in-memory collector with no file sink: events accumulate
/// for [`take_events`]/[`summary`] but [`crate::flush`] writes nothing.
/// Used by tests and by programmatic consumers of [`crate::ObsRegistry`].
pub fn install_collect() {
    install(SinkSpec::collect());
}

/// The currently installed sink spec.
pub fn installed() -> SinkSpec {
    state().spec.clone()
}

/// Take `(spec, events)` out of the collector, sorted by `(track, seq)`.
/// Sequence counters reset; the sink stays installed.
pub(crate) fn drain() -> (SinkSpec, Vec<Event>) {
    let mut st = state();
    let mut events = std::mem::take(&mut st.events);
    st.track_seq.clear();
    events.sort_by_key(|e| (e.track, e.seq));
    (st.spec.clone(), events)
}

/// Drain and return the buffered events in deterministic `(track, seq)`
/// order, without writing any file.
pub fn take_events() -> Vec<Event> {
    drain().1
}

fn next_seq(st: &mut State, track: u32) -> u64 {
    let slot = st.track_seq.entry(track).or_insert(0);
    let seq = *slot;
    *slot += 1;
    seq
}

fn push(event: Event) {
    let mut st = state();
    st.events.push(event);
}

/// RAII guard for a span; records the span event (with its duration and
/// any [`arg`](SpanGuard::arg)s) when dropped.
#[must_use = "a span measures the scope of its guard; binding to `_` drops it immediately"]
pub struct SpanGuard {
    live: bool,
    cat: &'static str,
    name: &'static str,
    track: u32,
    seq: u64,
    start_ns: u64,
    args: Vec<(&'static str, f64)>,
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard {
            live: false,
            cat: "",
            name: "",
            track: 0,
            seq: 0,
            start_ns: 0,
            args: Vec::new(),
        }
    }

    /// Attach a named numeric argument, shown in the sink output.
    /// No-op on an inert (tracing-off) guard.
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if self.live {
            self.args.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live || !crate::enabled() {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        push(Event {
            kind: EventKind::Span,
            cat: self.cat,
            name: self.name,
            track: self.track,
            seq: self.seq,
            ts_ns: self.start_ns,
            dur_ns,
            value: 0.0,
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Open a span on the current thread's logical track. Returns an inert
/// guard (no clock reads, no allocation) when tracing is off.
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::inert();
    }
    let track = CURRENT_TRACK.with(Cell::get);
    let seq = next_seq(&mut state(), track);
    SpanGuard {
        live: true,
        cat,
        name,
        track,
        seq,
        start_ns: now_ns(),
        args: Vec::new(),
    }
}

/// Record a numeric counter sample. No-op when tracing is off.
pub fn counter(cat: &'static str, name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let track = CURRENT_TRACK.with(Cell::get);
    let ts_ns = now_ns();
    let mut st = state();
    let seq = next_seq(&mut st, track);
    st.events.push(Event {
        kind: EventKind::Counter,
        cat,
        name,
        track,
        seq,
        ts_ns,
        dur_ns: 0,
        value,
        args: Vec::new(),
    });
}

/// Record an instant event. No-op when tracing is off.
pub fn instant(cat: &'static str, name: &'static str) {
    if !crate::enabled() {
        return;
    }
    let track = CURRENT_TRACK.with(Cell::get);
    let ts_ns = now_ns();
    let mut st = state();
    let seq = next_seq(&mut st, track);
    st.events.push(Event {
        kind: EventKind::Instant,
        cat,
        name,
        track,
        seq,
        ts_ns,
        dur_ns: 0,
        value: 0.0,
        args: Vec::new(),
    });
}

/// Restores the previous logical track for the thread when dropped.
#[must_use = "the track reverts when this guard drops"]
pub struct TrackGuard {
    prev: u32,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        CURRENT_TRACK.with(|c| c.set(self.prev));
    }
}

/// Set the current thread's logical track for the guard's lifetime.
/// Fan-out code assigns tracks from *task* indices (e.g. `i + 1` for the
/// i-th `RatioTask`), never from OS thread ids, so traces are stable
/// across `set_thread_override` values. Track 0 is the main flow.
pub fn set_track(track: u32) -> TrackGuard {
    let prev = CURRENT_TRACK.with(|c| c.replace(track));
    TrackGuard { prev }
}

/// Aggregate of all span events sharing a `(cat, name)` key.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span category.
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Number of span events.
    pub count: u64,
    /// Total duration across all events, nanoseconds.
    pub total_ns: u64,
}

/// Aggregate buffered span events by `(cat, name)`, sorted by key.
/// Non-destructive: the buffer is left intact for a later flush.
pub fn summary() -> Vec<SpanSummary> {
    let st = state();
    let mut agg: BTreeMap<(&'static str, &'static str), (u64, u64)> = BTreeMap::new();
    for e in &st.events {
        if e.kind == EventKind::Span {
            let slot = agg.entry((e.cat, e.name)).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += e.dur_ns;
        }
    }
    agg.into_iter()
        .map(|((cat, name), (count, total_ns))| SpanSummary {
            cat,
            name,
            count,
            total_ns,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: with the old bare `STATE.lock().unwrap()` at every
    /// entry point, one panic while holding the collector lock poisoned
    /// it for the life of the process — every later `span`/`counter`/
    /// `install`/`summary` then panicked too. The `state()` helper
    /// recovers the guard from the `PoisonError`; this test poisons the
    /// mutex for real and exercises each public entry point afterwards.
    /// (Fails on the pre-fix code at the first `span` call below.)
    #[test]
    fn all_entry_points_recover_from_a_poisoned_lock() {
        install(SinkSpec::collect());

        let joined = std::thread::spawn(|| {
            let _guard = STATE.lock().unwrap();
            panic!("poison the collector lock");
        })
        .join();
        assert!(joined.is_err());
        assert!(STATE.is_poisoned(), "the panic must have poisoned STATE");

        {
            let mut s = span("t", "after_poison");
            s.arg("ok", 1.0);
        }
        counter("t", "ctr", 2.0);
        instant("t", "mark");
        assert!(!installed().is_off());
        assert_eq!(summary().len(), 1);

        let events = take_events();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["after_poison", "ctr", "mark"]);

        install(SinkSpec::Off);
    }
}
