//! Lock-free metric instruments and the process-wide registry.
//!
//! Instruments are plain atomics: [`Counter`] and [`Gauge`] are single
//! words, [`Histogram`] is 64 log₂ buckets plus count and sum, so
//! recording from any number of threads never takes a lock. The
//! [`Registry`] interns instruments by name behind an `RwLock` that is
//! only touched at registration/snapshot time — hot paths hold `Arc`
//! handles obtained once.
//!
//! Naming convention: dot-separated subsystem paths
//! (`rpc.server.latency_ns/RequestCheque`); duration histograms end in
//! `_ns` so exporters format them as times.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::RwLock;

use crate::trace::telemetry_enabled;

/// Number of log₂ buckets: bucket `b` holds values in `[2^b, 2^{b+1})`
/// (bucket 0 also absorbs 0), which spans the full `u64` domain.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (occupancy, connection counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log₂-bucket histogram over `u64` values.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = 63 - (value | 1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy. Concurrent recording may make `count`
    /// momentarily differ from the bucket sum by in-flight increments;
    /// the snapshot normalizes to the bucket totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot { count, sum: self.sum.load(Ordering::Relaxed), buckets }
    }
}

/// An immutable copy of a [`Histogram`].
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Total samples (sum of `buckets`).
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Per-bucket counts, `buckets[b]` covering `[2^b, 2^{b+1})`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Estimated percentile: finds the bucket holding the nearest-rank
    /// sample and interpolates linearly within it, treating each sample
    /// as sitting at the *midpoint* of its 1/n slot of the bucket.
    ///
    /// The midpoint convention matters at the edges: the naive
    /// `fraction = (rank - cumulative) / n` returns exactly `hi` —
    /// `2^(b+1) − 1` — whenever the nearest-rank sample is the last one
    /// in its bucket. Tail percentiles then collapse onto power-of-two
    /// boundaries (the `p99 = 16777215 = 2^24 − 1` artifact): a value
    /// that is an *upper bound* gets reported as if it were a
    /// measurement. With midpoint slots the interior estimate stays
    /// strictly inside `(lo, hi)` and never lands on the bucket edge.
    ///
    /// Out-of-domain inputs degrade safely rather than panicking or
    /// extrapolating: an empty snapshot is 0 for every `p`; `p <= 0`
    /// (and NaN) returns the smallest occupied bucket's `lo`; `p >= 100`
    /// returns the largest occupied bucket's `hi` — so the result
    /// always lies within an occupied bucket's `[lo, hi]` range.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        if p <= 0.0 {
            // Lower bound of the first occupied bucket.
            let b = self.buckets.iter().position(|&n| n > 0).unwrap_or(0);
            return if b == 0 { 0 } else { 1u64 << b };
        }
        if p >= 100.0 {
            // Upper bound of the last occupied bucket.
            let b = self.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
            return if b >= 63 { u64::MAX } else { (1u64 << (b + 1)) - 1 };
        }
        let rank = (((p / 100.0) * self.count as f64).ceil().max(1.0) as u64).min(self.count);
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative.saturating_add(n) >= rank {
                let lo = if b == 0 { 0u64 } else { 1u64 << b };
                let hi = if b >= 63 { u64::MAX } else { (1u64 << (b + 1)) - 1 };
                // Midpoint of the sample's 1/n slot: rank is in
                // (cumulative, cumulative + n], so the fraction lies
                // strictly inside (0, 1).
                let fraction = ((rank - cumulative) as f64 - 0.5) / n as f64;
                // `(hi - lo) as f64` can round up past the true span, so
                // saturate rather than trust `lo + span` to stay in range.
                let span = ((hi - lo) as f64 * fraction).min(u64::MAX as f64) as u64;
                return lo.saturating_add(span).min(hi);
            }
            cumulative = cumulative.saturating_add(n);
        }
        // Unreachable while count == Σ buckets; be conservative.
        1u64 << 63
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// One-line sparkline over the occupied bucket range.
    pub fn sparkline(&self) -> String {
        let first = self.buckets.iter().position(|&b| b > 0).unwrap_or(0);
        let last = self.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
        crate::stats::sparkline(&self.buckets[first..=last])
    }
}

/// Interns instruments by name and produces snapshots.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().get(name) {
        return found.clone();
    }
    map.write().entry(name.to_string()).or_insert_with(|| Arc::new(T::default())).clone()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let at_unix_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        Snapshot {
            at_unix_ms,
            counters: self.counters.read().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: self.gauges.read().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Forgets every instrument. Handles already held keep recording
    /// into detached instruments that no longer appear in snapshots.
    pub fn reset(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
    }
}

/// The process-wide registry instrumented crates share.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time copy of a [`Registry`], ready for export.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Capture time (milliseconds since the Unix epoch).
    pub at_unix_ms: u64,
    /// Counter values, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// Histogram copies, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Keeps only instruments whose name starts with `prefix`.
    pub fn filtered(&self, prefix: &str) -> Snapshot {
        Snapshot {
            at_unix_ms: self.at_unix_ms,
            counters: self
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
            gauges: self.gauges.iter().filter(|(n, _)| n.starts_with(prefix)).cloned().collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }
}

/// Adds `delta` to the global counter `name` when telemetry is enabled;
/// a single relaxed load otherwise.
#[inline]
pub fn count(name: &str, delta: u64) {
    crate::debug_check_metric(name);
    if telemetry_enabled() {
        registry().counter(name).add(delta);
    }
}

/// Sets the global gauge `name` when telemetry is enabled.
#[inline]
pub fn gauge_set(name: &str, value: i64) {
    crate::debug_check_metric(name);
    if telemetry_enabled() {
        registry().gauge(name).set(value);
    }
}

/// Adds `delta` (may be negative) to the global gauge `name` when
/// telemetry is enabled.
#[inline]
pub fn gauge_add(name: &str, delta: i64) {
    crate::debug_check_metric(name);
    if telemetry_enabled() {
        registry().gauge(name).add(delta);
    }
}

/// Records `value` into the global histogram `name` when telemetry is
/// enabled.
#[inline]
pub fn observe(name: &str, value: u64) {
    crate::debug_check_metric(name);
    if telemetry_enabled() {
        registry().histogram(name).record(value);
    }
}

/// Times a region and records into a histogram, paying only the enabled
/// check when telemetry is off.
#[derive(Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts timing if telemetry is enabled.
    #[inline]
    pub fn start() -> Self {
        if telemetry_enabled() {
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch(None)
        }
    }

    /// Elapsed nanoseconds, if timing.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0.map(|s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    }

    /// Records the elapsed time into `histogram` (no-op when disabled).
    #[inline]
    pub fn record(self, histogram: &Histogram) {
        if let Some(started) = self.0 {
            histogram.record_duration(started.elapsed());
        }
    }

    /// Records the elapsed time into the global registry's histogram
    /// `name`. When the stopwatch never started (telemetry disabled) the
    /// registry is not even consulted.
    #[inline]
    pub fn record_named(self, name: &str) {
        crate::debug_check_metric(name);
        if let Some(started) = self.0 {
            registry().histogram(name).record_duration(started.elapsed());
        }
    }

    /// Like [`Self::record_named`] but records into the labeled series
    /// `<name>/<label>` (e.g. per-request-variant latency). The string is
    /// only built when the stopwatch actually ran.
    #[inline]
    pub fn record_named_label(self, name: &str, label: &str) {
        crate::debug_check_metric(name);
        if let Some(started) = self.0 {
            registry().histogram(&format!("{name}/{label}")).record_duration(started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 2057);
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[1], 2); // 2 and 3
        assert_eq!(s.buckets[2], 1); // 4
        assert_eq!(s.buckets[9], 1); // 1023
        assert_eq!(s.buckets[10], 1); // 1024
        assert_eq!(s.buckets.iter().sum::<u64>(), 7);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let (p50, p95, p99) = (s.p50(), s.p95(), s.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // log2 buckets bound each estimate within 2x of truth.
        assert!((256..=1024).contains(&p50), "p50 = {p50}");
        assert!((512..=1024).contains(&p99), "p99 = {p99}");
        assert_eq!(s.percentile(0.0), s.percentile(0.0));
        assert_eq!(HistogramSnapshot::default().p50(), 0);
    }

    #[test]
    fn percentile_edge_cases_degrade_safely() {
        // Empty snapshot: every percentile is 0, in and out of domain.
        let empty = HistogramSnapshot::default();
        for p in [-10.0, 0.0, 50.0, 100.0, 250.0, f64::NAN] {
            assert_eq!(empty.percentile(p), 0, "empty snapshot at p={p}");
        }
        // Out-of-domain p clamps to the extremes instead of panicking.
        let h = Histogram::new();
        for v in [10u64, 20, 5_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(-5.0), s.percentile(0.0));
        assert_eq!(s.percentile(1e9), s.percentile(100.0));
        assert_eq!(s.percentile(f64::NAN), s.percentile(0.0));
        // p0 stays within the smallest sample's bucket ([8, 15] for 10);
        // p100 lands at or above the largest sample.
        assert!((8..=15).contains(&s.percentile(0.0)), "p0 = {}", s.percentile(0.0));
        assert!(s.percentile(100.0) >= 5_000, "p100 = {}", s.percentile(100.0));
    }

    #[test]
    fn single_bucket_percentiles_stay_within_bucket_bounds() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(300); // all samples in bucket 8: [256, 511]
        }
        let s = h.snapshot();
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            let v = s.percentile(p);
            assert!((256..=511).contains(&v), "p{p} = {v} escaped [256, 511]");
        }
        assert!(s.percentile(0.0) <= s.percentile(100.0));
    }

    // Regression for the `p99 = 16777215` (2^24 − 1) artifact seen in
    // an early load-generator report: when the nearest-rank sample was the *last*
    // one in its bucket, edge interpolation returned exactly `hi` — a
    // power-of-two boundary masquerading as a measurement. This shape
    // mirrors the benchmark run: a dense body in bucket 22 with a thin
    // tail, where the p99 rank lands precisely on the lone bucket-23
    // sample.
    #[test]
    fn tail_percentile_does_not_collapse_onto_bucket_edge() {
        let h = Histogram::new();
        for _ in 0..165 {
            h.record(5_000_000); // bucket 22: [2^22, 2^23)
        }
        h.record(10_000_000); // bucket 23: [2^23, 2^24)
        h.record(20_000_000); // bucket 24: [2^24, 2^25)
        let s = h.snapshot();
        assert_eq!(s.count, 167);
        // rank = ceil(0.99 * 167) = 166: the single bucket-23 sample.
        let p99 = s.p99();
        assert_ne!(p99, (1u64 << 24) - 1, "p99 interpolated onto the bucket edge");
        assert!(
            ((1u64 << 23)..(1u64 << 24)).contains(&p99),
            "p99 = {p99} escaped the occupied bucket [2^23, 2^24)"
        );
        // A lone sample reports the bucket midpoint, strictly interior.
        assert!(p99 > 1u64 << 23, "p99 = {p99} collapsed onto the lower edge");
    }

    // Values far above the 2^24 range of the original artifact must
    // report honestly: nothing in the histogram caps or clamps them.
    #[test]
    fn values_above_suspected_cap_report_honestly() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(100_000_000); // bucket 26: [2^26, 2^27)
        }
        let s = h.snapshot();
        for p in [0.0, 50.0, 99.0, 100.0] {
            let v = s.percentile(p);
            assert!(
                ((1u64 << 26)..(1u64 << 27)).contains(&v),
                "p{p} = {v} escaped [2^26, 2^27) — value above 2^24 misreported"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        // For any recorded sample set, percentiles are monotone in p and
        // bracket the observed min/max (log₂ buckets guarantee the
        // estimate never leaves an occupied bucket's range).
        #[test]
        fn percentiles_are_monotone_for_arbitrary_samples(
            values in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..200),
        ) {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let s = h.snapshot();
            let (p0, p50, p95, p99, p100) =
                (s.percentile(0.0), s.p50(), s.p95(), s.p99(), s.percentile(100.0));
            proptest::prop_assert!(p0 <= p50 && p50 <= p95 && p95 <= p99 && p99 <= p100,
                "{p0} {p50} {p95} {p99} {p100}");
            let min = *values.iter().min().expect("nonempty");
            let max = *values.iter().max().expect("nonempty");
            // p0 may interpolate up to the top of min's log₂ bucket (< 2·min).
            proptest::prop_assert!(p0 <= min.saturating_mul(2).max(1), "p0 {p0} vs min {min}");
            proptest::prop_assert!(p100 >= max, "p100 {p100} below max {max}");
        }
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets[63], 1);
        assert!(s.p99() > 0);
    }

    #[test]
    fn registry_interns_by_name() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.inc();
        b.inc();
        assert_eq!(r.counter("x.hits").get(), 2);
        r.histogram("x.lat_ns").record(500);
        r.gauge("x.conns").set(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x.hits"), Some(2));
        assert_eq!(snap.gauge("x.conns"), Some(3));
        assert_eq!(snap.histogram("x.lat_ns").map(|h| h.count), Some(1));
        assert_eq!(snap.counter("missing"), None);
        let filtered = snap.filtered("x.h");
        assert_eq!(filtered.counters.len(), 1);
        assert_eq!(filtered.gauges.len(), 0);
    }

    #[test]
    fn stopwatch_respects_gate() {
        let _guard = crate::TEST_LOCK.lock();
        crate::trace::set_telemetry(false);
        let h = Histogram::new();
        Stopwatch::start().record(&h);
        assert_eq!(h.count(), 0);
        crate::trace::set_telemetry(true);
        let sw = Stopwatch::start();
        assert!(sw.elapsed_ns().is_some());
        sw.record(&h);
        crate::trace::set_telemetry(false);
        assert_eq!(h.count(), 1);
    }
}
