//! Tail-sampling flight recorder: keeps *complete span trees*, but only
//! for traces that turned out slow or errored.
//!
//! The span buffer in [`crate::trace`] is head-sampled — it keeps the
//! first `MAX_BUFFERED_SPANS` finished spans and drops the rest — which
//! is exactly wrong for incident forensics: the interesting request is
//! the slow one that happened *after* the buffer filled. The flight
//! recorder inverts that. While enabled it stages the finished spans of
//! every in-flight trace, and when a trace completes (its last open span
//! closes) it either retains the whole tree in a bounded ring — if the
//! slowest span met the configured threshold, or any span carried an
//! `error` attribute — or discards it immediately. Fast, healthy traces
//! therefore cost one staged clone and nothing more.
//!
//! The retained ring is dumpable on demand ([`dump`]), over the wire via
//! the ops plane (`OpsQuery::Traces`, see `docs/OBSERVABILITY.md`), and
//! on panic ([`install_panic_hook`]). Disabled (the default) every hook
//! is a single relaxed atomic load.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::trace::SpanRecord;

/// Upper bound on traces staged while still in flight; beyond it the
/// oldest staged trace is discarded (it can no longer be retained).
const MAX_STAGED_TRACES: usize = 256;

/// Retention policy for the flight recorder.
#[derive(Clone, Copy, Debug)]
pub struct FlightConfig {
    /// A trace is retained when its slowest span lasted at least this
    /// many microseconds.
    pub slow_threshold_us: u64,
    /// Completed trees kept in the ring; the oldest is evicted beyond it.
    pub capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { slow_threshold_us: 10_000, capacity: 64 }
    }
}

/// One complete span tree the recorder decided to keep.
#[derive(Clone, Debug)]
pub struct RetainedTrace {
    /// Trace id shared by every span of the tree.
    pub trace_id: u64,
    /// Every finished span of the trace, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Duration of the slowest span (what tripped the threshold).
    pub max_duration_us: u64,
    /// True when retention was triggered by an `error` span attribute.
    pub errored: bool,
}

struct StagedTrace {
    open: usize,
    spans: Vec<SpanRecord>,
}

struct FlightState {
    config: FlightConfig,
    staging: HashMap<u64, StagedTrace>,
    /// First-seen order of staged trace ids, for bounded eviction.
    staging_order: VecDeque<u64>,
    ring: VecDeque<RetainedTrace>,
}

impl FlightState {
    fn new() -> Self {
        FlightState {
            config: FlightConfig::default(),
            staging: HashMap::new(),
            staging_order: VecDeque::new(),
            ring: VecDeque::new(),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<FlightState> {
    static STATE: OnceLock<Mutex<FlightState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(FlightState::new()))
}

/// Turns the flight recorder on or off. Disabling clears the staging
/// area (half-seen traces can no longer complete honestly) but keeps
/// the retained ring so a post-incident [`dump`] still works.
pub fn set_flight_recorder(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    if !on {
        let mut st = state().lock();
        st.staging.clear();
        st.staging_order.clear();
    }
}

/// True when the recorder is observing spans.
pub fn flight_recorder_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Replaces the retention policy; trims the ring if `capacity` shrank.
pub fn configure(config: FlightConfig) {
    let mut st = state().lock();
    st.config = config;
    while st.ring.len() > st.config.capacity {
        st.ring.pop_front();
    }
}

/// Hook from [`crate::trace`]: a span of `trace_id` opened.
pub(crate) fn on_span_open(trace_id: u64) {
    if !flight_recorder_enabled() {
        return;
    }
    let mut st = state().lock();
    let staged = st.staging.entry(trace_id).or_insert_with(|| {
        // New trace: remember arrival order for bounded eviction.
        StagedTrace { open: 0, spans: Vec::new() }
    });
    staged.open = staged.open.saturating_add(1);
    if staged.spans.is_empty() && staged.open == 1 {
        st.staging_order.push_back(trace_id);
    }
    while st.staging.len() > MAX_STAGED_TRACES {
        match st.staging_order.pop_front() {
            Some(old) if old != trace_id => {
                st.staging.remove(&old);
            }
            Some(old) => st.staging_order.push_back(old),
            None => break,
        }
    }
}

/// Hook from [`crate::trace`]: a span finished. Stages the record and,
/// when it was the trace's last open span, decides retention.
pub(crate) fn on_span_close(record: &SpanRecord) {
    if !flight_recorder_enabled() {
        return;
    }
    let mut st = state().lock();
    let Some(staged) = st.staging.get_mut(&record.trace_id) else {
        // Evicted mid-flight (or opened before enablement): drop it.
        return;
    };
    staged.spans.push(record.clone());
    staged.open = staged.open.saturating_sub(1);
    if staged.open > 0 {
        return;
    }
    let Some(done) = st.staging.remove(&record.trace_id) else { return };
    if let Some(pos) = st.staging_order.iter().position(|&id| id == record.trace_id) {
        st.staging_order.remove(pos);
    }
    let max_duration_us = done.spans.iter().map(|s| s.duration_us).max().unwrap_or(0);
    let errored = done.spans.iter().any(|s| s.attrs.iter().any(|(k, _)| *k == "error"));
    if max_duration_us < st.config.slow_threshold_us && !errored {
        return;
    }
    st.ring.push_back(RetainedTrace {
        trace_id: record.trace_id,
        spans: done.spans,
        max_duration_us,
        errored,
    });
    while st.ring.len() > st.config.capacity {
        st.ring.pop_front();
    }
    drop(st);
    crate::metrics::count("obs.flight.retained", 1);
}

/// Copies the retained traces, oldest first.
pub fn retained() -> Vec<RetainedTrace> {
    state().lock().ring.iter().cloned().collect()
}

/// Retained trace count without cloning the trees.
pub fn retained_count() -> usize {
    state().lock().ring.len()
}

/// Discards everything — retained ring and staging area both.
pub fn clear() {
    let mut st = state().lock();
    st.staging.clear();
    st.staging_order.clear();
    st.ring.clear();
}

/// Renders every retained trace as an indented tree with a one-line
/// header stating why it was kept. Empty string when nothing is
/// retained.
pub fn dump() -> String {
    render(retained())
}

fn render(traces: Vec<RetainedTrace>) -> String {
    let mut out = String::new();
    for t in traces {
        let reason = if t.errored { "errored" } else { "slow" };
        out.push_str(&format!(
            "-- retained ({reason}, max span {}µs, {} spans) --\n",
            t.max_duration_us,
            t.spans.len()
        ));
        out.push_str(&crate::trace::render_trace(t.trace_id, &t.spans));
    }
    out
}

/// Installs a panic hook (once) that prints the flight-recorder dump to
/// stderr before delegating to the previously installed hook, so a
/// crashing process leaves its slow/errored traces behind. Uses a
/// non-blocking lock: a panic *while holding* the recorder lock skips
/// the dump instead of deadlocking.
pub fn install_panic_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let traces: Vec<RetainedTrace> =
            state().try_lock().map(|st| st.ring.iter().cloned().collect()).unwrap_or_default();
        if !traces.is_empty() {
            eprintln!("== flight recorder: retained slow/errored traces ==");
            eprintln!("{}", render(traces));
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{root_span, set_telemetry, span, take_spans};
    use crate::TEST_LOCK;

    fn with_recorder<T>(config: FlightConfig, f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock();
        set_telemetry(true);
        clear();
        configure(config);
        set_flight_recorder(true);
        let out = f();
        set_flight_recorder(false);
        set_telemetry(false);
        let _ = take_spans();
        out
    }

    #[test]
    fn fast_clean_traces_are_discarded() {
        with_recorder(FlightConfig { slow_threshold_us: 60_000_000, capacity: 4 }, || {
            for _ in 0..10 {
                let _root = root_span("test.flight", "fast");
            }
            assert_eq!(retained_count(), 0);
            assert!(dump().is_empty());
        });
    }

    #[test]
    fn slow_traces_retain_their_complete_tree() {
        with_recorder(FlightConfig { slow_threshold_us: 1_000, capacity: 4 }, || {
            let root = root_span("test.flight", "slow_root");
            {
                let _child = span("net", "child");
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            drop(root);
            let kept = retained();
            assert_eq!(kept.len(), 1, "one slow trace retained");
            assert_eq!(kept[0].spans.len(), 2, "root and child both present");
            assert!(!kept[0].errored);
            assert!(kept[0].max_duration_us >= 1_000);
            let text = dump();
            assert!(text.contains("slow_root"), "{text}");
            assert!(text.contains("child"), "{text}");
            assert!(text.contains("retained (slow"), "{text}");
        });
    }

    #[test]
    fn errored_traces_retain_regardless_of_speed() {
        with_recorder(FlightConfig { slow_threshold_us: 60_000_000, capacity: 4 }, || {
            {
                let mut root = root_span("test.flight", "failing");
                root.attr("error", "refused");
            }
            let kept = retained();
            assert_eq!(kept.len(), 1);
            assert!(kept[0].errored);
            assert!(dump().contains("retained (errored"));
        });
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        with_recorder(FlightConfig { slow_threshold_us: 0, capacity: 3 }, || {
            let mut ids = Vec::new();
            for _ in 0..5 {
                let root = root_span("test.flight", "kept");
                ids.push(root.trace_id());
            }
            let kept = retained();
            assert_eq!(kept.len(), 3, "capacity bound holds");
            let kept_ids: Vec<u64> = kept.iter().map(|t| t.trace_id).collect();
            assert_eq!(kept_ids, ids[2..], "oldest two evicted");
        });
    }

    #[test]
    fn disabled_recorder_observes_nothing() {
        let _guard = TEST_LOCK.lock();
        set_telemetry(true);
        clear();
        set_flight_recorder(false);
        configure(FlightConfig { slow_threshold_us: 0, capacity: 4 });
        drop(root_span("test.flight", "unseen"));
        assert_eq!(retained_count(), 0);
        set_telemetry(false);
        let _ = take_spans();
    }
}
