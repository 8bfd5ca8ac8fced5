//! # gridbank-obs
//!
//! The observability substrate for the GridBank reproduction: span
//! tracing with a wire-portable [`TraceContext`], a lock-free metrics
//! [`Registry`], and exporters. GridBank's value proposition is
//! *accountable* resource trade — §3.4–§3.5's signed usage records and
//! transaction logs say what happened; this crate says where time went
//! while it happened, and ties the two together by stamping the active
//! trace id into the bank's transfer records.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** Every instrumentation entry point
//!    ([`span`], [`Stopwatch::start`], …) first reads one relaxed
//!    atomic; when telemetry is off nothing allocates, locks, or reads
//!    the clock. Benches in EXPERIMENTS.md hold the regression to noise.
//! 2. **No external dependencies.** std + the workspace's own
//!    parking_lot surface only — no `tracing`, no `log`.
//! 3. **Recording is lock-free.** Counters, gauges and log₂-bucket
//!    histograms are plain atomics; locks appear only at registration,
//!    snapshot, and span-flush boundaries.
//!
//! Telemetry is off by default; enable it with
//! [`set_telemetry`]`(true)` or `GRIDBANK_TELEMETRY=1`.

pub mod export;
pub mod flight;
pub mod metrics;
pub mod stats;
pub mod trace;

pub use export::{render_jsonl, render_text, Collector};
pub use flight::{install_panic_hook, set_flight_recorder, FlightConfig, RetainedTrace};
pub use metrics::{
    count, gauge_add, gauge_set, observe, registry, Counter, Gauge, Histogram, HistogramSnapshot,
    Registry, Snapshot, Stopwatch,
};
pub use trace::{
    buffered_spans, clear_sink, current_context, current_trace_id, dropped_spans, fresh_trace_id,
    render_trace, root_span, set_sink, set_telemetry, span, span_under, take_spans,
    telemetry_enabled, trace_ids, NullSink, Sink, SpanGuard, SpanRecord, TraceContext,
};

/// Registered metric-name prefixes: every name recorded through [`count`],
/// [`gauge_set`], [`gauge_add`], [`observe`] or
/// [`Stopwatch::record_named`] starts with one. The table under
/// "Registered name prefixes" in docs/OBSERVABILITY.md lists the same
/// names; a unit test holds the two equal.
pub const METRIC_PREFIXES: [&str; 12] = [
    "auction.", "broker.", "core.", "db.", "gsp.", "ib.", "market.", "net.", "obs.", "rpc.",
    "server.", "sim.",
];

/// Registered span components: the component of every [`span`] and
/// [`span_under`] is one of these, verbatim (same table).
pub const SPAN_COMPONENTS: [&str; 9] = [
    "net",
    "server.security",
    "server.accounts",
    "server.payment",
    "server.pricing",
    "server.federation",
    "server.ops",
    "gsp.charging",
    "broker.payment",
];

/// Debug builds panic on a metric name without a registered prefix,
/// whether or not telemetry is on.
#[inline]
pub(crate) fn debug_check_metric(name: &str) {
    debug_assert!(
        METRIC_PREFIXES.iter().any(|p| name.starts_with(p)),
        "metric {name:?} has no registered prefix (docs/OBSERVABILITY.md)"
    );
}

/// Debug builds panic on an unregistered span component.
#[inline]
pub(crate) fn debug_check_component(component: &str) {
    debug_assert!(
        SPAN_COMPONENTS.contains(&component),
        "span component {component:?} is not registered (docs/OBSERVABILITY.md)"
    );
}

/// Serializes tests that flip process-global telemetry state.
#[cfg(test)]
pub(crate) static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// The backticked names in the `| {kind} |` row of the doc's
    /// "Registered name prefixes" table.
    fn doc_row(kind: &str) -> Vec<&'static str> {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc.split("### Registered name prefixes").nth(1).expect("section");
        let row = section.lines().find(|l| l.starts_with(&format!("| {kind} |"))).expect("row");
        row.split('`').skip(1).step_by(2).collect()
    }

    #[test]
    fn registered_names_match_the_doc_table() {
        assert_eq!(doc_row("metric"), METRIC_PREFIXES);
        assert_eq!(doc_row("span"), SPAN_COMPONENTS);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "metric \"bogus.fixture.hits\" has no registered prefix")]
    fn an_unregistered_metric_panics_in_debug_builds() {
        count("bogus.fixture.hits", 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "span component \"server.shadow\" is not registered")]
    fn an_unregistered_span_component_panics_in_debug_builds() {
        let _span = span("server.shadow", "fixture");
    }
}
