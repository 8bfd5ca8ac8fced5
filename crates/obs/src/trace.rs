//! Span tracing with wire-portable trace context.
//!
//! A *span* is one timed region of work (an RPC call, a server layer,
//! a charging step). Spans nest through a thread-local stack — opening
//! a span while another is active makes it a child — and cross thread
//! or process boundaries explicitly via [`TraceContext`], 16 bytes the
//! net layer carries inside RPC frames. All spans of one payment share
//! a `trace_id`, which the bank also stamps into the transfer's audit
//! record, tying runtime telemetry to the non-repudiation trail.
//!
//! When telemetry is disabled (the default), every entry point returns
//! after a single relaxed atomic load and no span is allocated.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

/// Cap on buffered span records; beyond it new spans are counted but
/// dropped, so a long-running process cannot grow without bound.
pub const MAX_BUFFERED_SPANS: usize = 65_536;

// Tri-state so the first call can consult the environment exactly once:
// 0 = uninitialised, 1 = off, 2 = on.
static TELEMETRY: AtomicU8 = AtomicU8::new(0);

/// True when spans and timed metrics should be recorded. This is the
/// one load instrumented hot paths pay when telemetry is off.
#[inline]
pub fn telemetry_enabled() -> bool {
    match TELEMETRY.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on =
        std::env::var("GRIDBANK_TELEMETRY").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    TELEMETRY.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Turns telemetry on or off for the whole process.
pub fn set_telemetry(on: bool) {
    TELEMETRY.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The portable identity of an in-flight trace: which trace, and which
/// span the next piece of work should attach under. This is what the
/// RPC layer serializes into frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifier shared by every span of one logical operation.
    pub trace_id: u64,
    /// Span the receiving side should parent its spans under.
    pub parent_span: u64,
}

impl TraceContext {
    /// Serialized length on the wire.
    pub const WIRE_LEN: usize = 16;

    /// Big-endian wire form.
    pub fn to_bytes(self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.trace_id.to_be_bytes());
        out[8..].copy_from_slice(&self.parent_span.to_be_bytes());
        out
    }

    /// Parses the big-endian wire form.
    pub fn from_bytes(bytes: &[u8]) -> Option<TraceContext> {
        if bytes.len() < Self::WIRE_LEN {
            return None;
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&bytes[..8]);
        let mut parent = [0u8; 8];
        parent.copy_from_slice(&bytes[8..16]);
        Some(TraceContext {
            trace_id: u64::from_be_bytes(id),
            parent_span: u64::from_be_bytes(parent),
        })
    }
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// Parent span id, 0 for a root.
    pub parent_span: u64,
    /// Subsystem that opened the span (`broker`, `net`, `server.accounts`, …).
    pub component: &'static str,
    /// Operation name.
    pub name: &'static str,
    /// Microseconds since process telemetry start.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Free-form key/value annotations.
    pub attrs: Vec<(&'static str, String)>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Allocates a fresh, non-zero trace id.
pub fn fresh_trace_id() -> u64 {
    let n = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    mix64(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
}

fn fresh_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// (trace_id, span_id) of the innermost open span on this thread.
    static CURRENT: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

struct SpanStore {
    records: Vec<SpanRecord>,
    dropped: u64,
}

static STORE: Mutex<SpanStore> = Mutex::new(SpanStore { records: Vec::new(), dropped: 0 });
static SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);

/// Receives finished spans; implementations must be cheap or buffer.
pub trait Sink: Send + Sync {
    /// Called once per finished span while telemetry is enabled.
    fn on_span(&self, record: &SpanRecord);
}

/// A sink that discards everything (the default behaviour when no sink
/// is registered is equivalent).
pub struct NullSink;

impl Sink for NullSink {
    fn on_span(&self, _record: &SpanRecord) {}
}

/// Registers the process-wide span sink.
pub fn set_sink(sink: Arc<dyn Sink>) {
    *SINK.lock() = Some(sink);
}

/// Removes the process-wide span sink.
pub fn clear_sink() {
    *SINK.lock() = None;
}

/// Drains and returns all buffered spans.
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut STORE.lock().records)
}

/// Copies the currently buffered spans.
pub fn buffered_spans() -> Vec<SpanRecord> {
    STORE.lock().records.clone()
}

/// Number of spans dropped because the buffer was full.
pub fn dropped_spans() -> u64 {
    STORE.lock().dropped
}

/// An open span; records itself when dropped. Inert (all methods no-op)
/// when telemetry is disabled.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    trace_id: u64,
    span_id: u64,
    parent_span: u64,
    component: &'static str,
    name: &'static str,
    started: Instant,
    start_us: u64,
    attrs: Vec<(&'static str, String)>,
}

impl SpanGuard {
    const INERT: SpanGuard = SpanGuard { active: None };

    fn open(trace_id: u64, parent_span: u64, component: &'static str, name: &'static str) -> Self {
        let span_id = fresh_span_id();
        let started = Instant::now();
        let start_us = started.duration_since(epoch()).as_micros() as u64;
        CURRENT.with(|stack| stack.borrow_mut().push((trace_id, span_id)));
        crate::flight::on_span_open(trace_id);
        SpanGuard {
            active: Some(ActiveSpan {
                trace_id,
                span_id,
                parent_span,
                component,
                name,
                started,
                start_us,
                attrs: Vec::new(),
            }),
        }
    }

    /// Annotates the span (no-op when inert).
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(active) = &mut self.active {
            active.attrs.push((key, value.to_string()));
        }
    }

    /// Context a downstream hop should carry, if the span is live.
    pub fn context(&self) -> Option<TraceContext> {
        self.active.as_ref().map(|a| TraceContext { trace_id: a.trace_id, parent_span: a.span_id })
    }

    /// This span's trace id (0 when inert).
    pub fn trace_id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.trace_id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        CURRENT.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Tolerate out-of-order drops: remove this span wherever it is.
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == active.span_id) {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            trace_id: active.trace_id,
            span_id: active.span_id,
            parent_span: active.parent_span,
            component: active.component,
            name: active.name,
            start_us: active.start_us,
            duration_us: active.started.elapsed().as_micros() as u64,
            attrs: active.attrs,
        };
        crate::flight::on_span_close(&record);
        if let Some(sink) = SINK.lock().as_ref() {
            sink.on_span(&record);
        }
        let mut store = STORE.lock();
        if store.records.len() < MAX_BUFFERED_SPANS {
            store.records.push(record);
        } else {
            store.dropped += 1;
            // Overflow is silent to callers of `span()`; surface it as a
            // counter so a starved trace buffer shows up in snapshots.
            crate::metrics::count("obs.trace.dropped", 1);
        }
    }
}

/// Opens a span as a child of the thread's current span (or as a new
/// trace root if none is open).
pub fn span(component: &'static str, name: &'static str) -> SpanGuard {
    crate::debug_check_component(component);
    if !telemetry_enabled() {
        return SpanGuard::INERT;
    }
    match current_context() {
        Some(ctx) => SpanGuard::open(ctx.trace_id, ctx.parent_span, component, name),
        None => SpanGuard::open(fresh_trace_id(), 0, component, name),
    }
}

/// Opens a root span of a brand-new trace, ignoring any current span.
pub fn root_span(component: &'static str, name: &'static str) -> SpanGuard {
    if !telemetry_enabled() {
        return SpanGuard::INERT;
    }
    SpanGuard::open(fresh_trace_id(), 0, component, name)
}

/// Opens a span under a context carried from another thread or peer;
/// falls back to [`span`] semantics when no context was carried.
pub fn span_under(
    remote: Option<TraceContext>,
    component: &'static str,
    name: &'static str,
) -> SpanGuard {
    crate::debug_check_component(component);
    if !telemetry_enabled() {
        return SpanGuard::INERT;
    }
    match remote {
        Some(ctx) => SpanGuard::open(ctx.trace_id, ctx.parent_span, component, name),
        None => span(component, name),
    }
}

/// The context of the innermost open span on this thread, if any.
pub fn current_context() -> Option<TraceContext> {
    if !telemetry_enabled() {
        return None;
    }
    CURRENT.with(|stack| {
        stack
            .borrow()
            .last()
            .map(|&(trace_id, span_id)| TraceContext { trace_id, parent_span: span_id })
    })
}

/// Trace id of the innermost open span on this thread (0 when none).
pub fn current_trace_id() -> u64 {
    current_context().map_or(0, |c| c.trace_id)
}

fn format_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

/// Renders the spans of one trace as an indented tree, children ordered
/// by start time. Spans whose parent is missing from the slice are
/// treated as roots, so partial traces still render.
pub fn render_trace(trace_id: u64, spans: &[SpanRecord]) -> String {
    let mut members: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
    members.sort_by_key(|s| (s.start_us, s.span_id));
    let ids: std::collections::HashSet<u64> = members.iter().map(|s| s.span_id).collect();
    let roots: Vec<&SpanRecord> =
        members.iter().copied().filter(|s| !ids.contains(&s.parent_span)).collect();

    let mut out = format!("trace {trace_id:#018x}\n");
    fn walk(
        out: &mut String,
        members: &[&SpanRecord],
        node: &SpanRecord,
        prefix: &str,
        last: bool,
    ) {
        let branch = if last { "└─ " } else { "├─ " };
        let attrs = if node.attrs.is_empty() {
            String::new()
        } else {
            let rendered: Vec<String> =
                node.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!(" {{{}}}", rendered.join(", "))
        };
        let _ = writeln!(
            out,
            "{prefix}{branch}{}::{}{attrs}  [{}]",
            node.component,
            node.name,
            format_us(node.duration_us)
        );
        let children: Vec<&&SpanRecord> =
            members.iter().filter(|s| s.parent_span == node.span_id).collect();
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        for (i, child) in children.iter().enumerate() {
            walk(out, members, child, &child_prefix, i + 1 == children.len());
        }
    }
    for (i, root) in roots.iter().enumerate() {
        walk(&mut out, &members, root, "", i + 1 == roots.len());
    }
    out
}

/// Ids of every distinct trace among `spans`, in first-seen order.
pub fn trace_ids(spans: &[SpanRecord]) -> Vec<u64> {
    let mut seen = Vec::new();
    for span in spans {
        if !seen.contains(&span.trace_id) {
            seen.push(span.trace_id);
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::TEST_LOCK;

    fn with_telemetry<T>(f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock();
        set_telemetry(true);
        let out = f();
        set_telemetry(false);
        out
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = TEST_LOCK.lock();
        set_telemetry(false);
        let before = buffered_spans().len();
        {
            let mut g = span("net", "noop");
            g.attr("k", 1);
            assert_eq!(g.trace_id(), 0);
            assert!(g.context().is_none());
        }
        assert_eq!(buffered_spans().len(), before);
        assert!(current_context().is_none());
    }

    #[test]
    fn nesting_links_parents() {
        with_telemetry(|| {
            let root = root_span("test.nest", "outer");
            let root_ctx = root.context().expect("live root");
            let (inner_id, inner_parent, inner_trace);
            {
                let inner = span("net", "inner");
                let ctx = inner.context().expect("live inner");
                inner_trace = ctx.trace_id;
                inner_id = ctx.parent_span; // context points at self for children
                inner_parent = root_ctx.parent_span;
            }
            drop(root);
            let spans = take_spans();
            let inner = spans.iter().find(|s| s.span_id == inner_id).expect("inner recorded");
            assert_eq!(inner.trace_id, inner_trace);
            assert_eq!(inner_trace, root_ctx.trace_id);
            assert_eq!(inner.parent_span, inner_parent);
            assert_eq!(inner.name, "inner");
        });
    }

    #[test]
    fn remote_context_round_trips_and_adopts() {
        with_telemetry(|| {
            let ctx = TraceContext { trace_id: 0xABCD, parent_span: 42 };
            let parsed = TraceContext::from_bytes(&ctx.to_bytes()).expect("16 bytes");
            assert_eq!(parsed, ctx);
            assert!(TraceContext::from_bytes(&[0u8; 8]).is_none());
            {
                let remote = span_under(Some(ctx), "server.payment", "server_side");
                let rc = remote.context().expect("live");
                assert_eq!(rc.trace_id, 0xABCD);
            }
            let spans = take_spans();
            let server = spans.iter().find(|s| s.name == "server_side").expect("recorded");
            assert_eq!((server.trace_id, server.parent_span), (0xABCD, 42));
        });
    }

    #[test]
    fn tree_renders_all_levels() {
        with_telemetry(|| {
            let trace = {
                let mut root = root_span("broker", "payment");
                root.attr("amount", "5G$");
                {
                    let _net = span("net", "rpc_call");
                    let _srv = span("server.accounts", "transfer");
                }
                root.trace_id()
            };
            let spans = take_spans();
            let tree = render_trace(trace, &spans);
            assert!(tree.contains("broker::payment"), "{tree}");
            assert!(tree.contains("net::rpc_call"), "{tree}");
            assert!(tree.contains("server.accounts::transfer"), "{tree}");
            assert!(tree.contains("amount=5G$"), "{tree}");
            // Child indented under parent.
            let broker_line = tree.lines().position(|l| l.contains("broker::payment"));
            let net_line = tree.lines().position(|l| l.contains("net::rpc_call"));
            assert!(broker_line < net_line);
        });
    }

    #[test]
    fn buffer_overflow_is_counted_not_silent() {
        with_telemetry(|| {
            let _ = take_spans(); // start from an empty buffer
            let counter = crate::metrics::registry().counter("obs.trace.dropped");
            let (dropped_before, counted_before) = (dropped_spans(), counter.get());
            const OVERFLOW: usize = 5;
            for _ in 0..MAX_BUFFERED_SPANS + OVERFLOW {
                drop(root_span("test.overflow", "filler"));
            }
            assert_eq!(buffered_spans().len(), MAX_BUFFERED_SPANS, "buffer capped");
            assert!(dropped_spans() - dropped_before >= OVERFLOW as u64, "store records the drops");
            assert!(
                counter.get() - counted_before >= OVERFLOW as u64,
                "obs.trace.dropped counter records the drops"
            );
            let _ = take_spans();
        });
    }

    #[test]
    fn sink_receives_spans() {
        struct CountingSink(std::sync::atomic::AtomicU64);
        impl Sink for CountingSink {
            fn on_span(&self, _record: &SpanRecord) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        with_telemetry(|| {
            let sink = Arc::new(CountingSink(AtomicU64::new(0)));
            set_sink(sink.clone());
            drop(span("net", "one"));
            drop(span("net", "two"));
            clear_sink();
            drop(span("net", "after"));
            assert_eq!(sink.0.load(Ordering::Relaxed), 2);
            let _ = take_spans();
        });
    }
}
