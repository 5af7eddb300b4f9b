//! The metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms, registered by static name and snapshot-able without
//! stopping writers.
//!
//! Everything here is lock-light: a registry takes its mutex only to
//! register a series (once per handle, at setup time) and to enumerate
//! series for a snapshot. The handles themselves ([`Counter`], [`Gauge`],
//! [`Histogram`]) are shared atomic cells — updating one is a handful of
//! relaxed atomic operations, safe to call from any thread at any rate.
//!
//! All updates **saturate**: a counter pinned at `u64::MAX` stays there
//! instead of wrapping to zero, so a monitoring system can never observe
//! a total going backwards (and debug builds cannot panic on overflow).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of finite histogram buckets. Bucket `i` counts values
/// `v <= 2^(i + BUCKET_SHIFT)` nanoseconds; one extra overflow slot
/// catches everything beyond the last bound.
pub const BUCKETS: usize = 24;

/// The first bucket's upper bound is `2^BUCKET_SHIFT` (256 ns); the last
/// finite bound is `2^(BUCKET_SHIFT + BUCKETS - 1)` (≈ 2.1 s).
pub const BUCKET_SHIFT: u32 = 8;

/// Upper bound (inclusive) of finite bucket `i`, in nanoseconds.
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << (BUCKET_SHIFT + i.min(BUCKETS - 1) as u32)
}

/// Index of the bucket that counts `v` (the overflow slot is `BUCKETS`).
fn bucket_of(v: u64) -> usize {
    if v <= bucket_bound(0) {
        return 0;
    }
    // ceil(log2(v)) for v > 1, then shift down to the bucket scale.
    let ceil_log2 = 64 - (v - 1).leading_zeros();
    ((ceil_log2 - BUCKET_SHIFT) as usize).min(BUCKETS)
}

/// Saturating add on an atomic: the cell sticks at `u64::MAX` instead of
/// wrapping. A CAS loop costs the same as `fetch_add` without contention
/// and stays correct with it.
fn saturating_add_u64(cell: &AtomicU64, n: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        if next == cur {
            return; // already saturated (or n == 0)
        }
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn saturating_add_i64(cell: &AtomicI64, n: i64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        if next == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter (not in any registry) — for tests and for
    /// components that only ever read their own cell.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        saturating_add_u64(&self.0, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A detached gauge (not in any registry).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Adds `n` (may be negative), saturating at the `i64` extremes.
    pub fn add(&self, n: i64) {
        saturating_add_i64(&self.0, n);
    }

    /// Sets the value outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Per-bucket (non-cumulative) counts; the last slot is the overflow
    /// bucket beyond the final finite bound.
    buckets: [AtomicU64; BUCKETS + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket latency histogram with power-of-two nanosecond bounds:
/// 256 ns, 512 ns, …, ≈2.1 s, +Inf. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// A detached histogram (not in any registry).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `nanos`.
    pub fn record(&self, nanos: u64) {
        saturating_add_u64(&self.0.buckets[bucket_of(nanos)], 1);
        saturating_add_u64(&self.0.sum, nanos);
        saturating_add_u64(&self.0.count, 1);
    }

    /// Records a [`Duration`](std::time::Duration).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS + 1];
        for (out, cell) in buckets.iter_mut().zip(&self.0.buckets) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.0.sum.load(Ordering::Relaxed),
            count: self.0.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (last slot = overflow past the final bound).
    pub buckets: [u64; BUCKETS + 1],
    /// Sum of recorded values, in nanoseconds (saturating).
    pub sum: u64,
    /// Number of observations (saturating).
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS + 1],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count = self.count.saturating_add(other.count);
    }
}

/// Identity of one time series: a static family name plus at most one
/// static label pair (`{key="value"}`). All names in this system are
/// compile-time constants, which keeps registration allocation-free and
/// the exposition deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId {
    /// Metric family name, e.g. `t4o_serve_hits_total`.
    pub name: &'static str,
    /// Optional label pair, e.g. `("phase", "genext-run")`.
    pub label: Option<(&'static str, &'static str)>,
}

impl SeriesId {
    fn render(&self) -> String {
        match self.label {
            None => self.name.to_string(),
            Some((k, v)) => format!("{}{{{k}=\"{v}\"}}", self.name),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<(SeriesId, Counter)>,
    gauges: Vec<(SeriesId, Gauge)>,
    histograms: Vec<(SeriesId, Histogram)>,
}

/// A set of named metric series. One registry typically lives for the
/// whole process (see [`global`](crate::global)); subsystems with their
/// own lifetime (e.g. one `SpecService`) own private registries so their
/// counters start at zero and die with them.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking writer cannot corrupt monotone atomics; keep serving.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Gets or creates the counter named `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, None)
    }

    /// Gets or creates a labeled counter, e.g.
    /// `counter_with("t4o_spec_fallbacks_total", Some(("kind", "unfold-fuel")))`.
    pub fn counter_with(
        &self,
        name: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> Counter {
        let id = SeriesId { name, label };
        let mut inner = lock(&self.inner);
        if let Some((_, c)) = inner.counters.iter().find(|(i, _)| *i == id) {
            return c.clone();
        }
        let c = Counter::new();
        inner.counters.push((id, c.clone()));
        c
    }

    /// Gets or creates the gauge named `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let id = SeriesId { name, label: None };
        let mut inner = lock(&self.inner);
        if let Some((_, g)) = inner.gauges.iter().find(|(i, _)| *i == id) {
            return g.clone();
        }
        let g = Gauge::new();
        inner.gauges.push((id, g.clone()));
        g
    }

    /// Gets or creates the histogram named `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_with(name, None)
    }

    /// Gets or creates a labeled histogram, e.g.
    /// `histogram_with("t4o_phase_nanos", Some(("phase", "bta")))`.
    pub fn histogram_with(
        &self,
        name: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> Histogram {
        let id = SeriesId { name, label };
        let mut inner = lock(&self.inner);
        if let Some((_, h)) = inner.histograms.iter().find(|(i, _)| *i == id) {
            return h.clone();
        }
        let h = Histogram::new();
        inner.histograms.push((id, h.clone()));
        h
    }

    /// A coherent-enough point-in-time copy of every registered series.
    /// Writers are never stopped: each cell is read once with relaxed
    /// ordering, so values lag at most by in-flight updates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock(&self.inner);
        let mut snap = MetricsSnapshot {
            counters: inner.counters.iter().map(|(i, c)| (*i, c.get())).collect(),
            gauges: inner.gauges.iter().map(|(i, g)| (*i, g.get())).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(i, h)| (*i, h.snapshot()))
                .collect(),
        };
        drop(inner);
        snap.sort();
        snap
    }
}

/// A point-in-time copy of a whole registry, ready for exposition.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter series, sorted by identity.
    pub counters: Vec<(SeriesId, u64)>,
    /// Gauge series, sorted by identity.
    pub gauges: Vec<(SeriesId, i64)>,
    /// Histogram series, sorted by identity.
    pub histograms: Vec<(SeriesId, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    fn sort(&mut self) {
        self.counters.sort_by_key(|(i, _)| *i);
        self.gauges.sort_by_key(|(i, _)| *i);
        self.histograms.sort_by_key(|(i, _)| *i);
    }

    /// Folds `other` into `self` (summing duplicate series), so a process
    /// can expose several registries — say a service's private counters
    /// plus the global pipeline metrics — as one page.
    pub fn merge(mut self, other: MetricsSnapshot) -> MetricsSnapshot {
        for (id, v) in other.counters {
            match self.counters.iter_mut().find(|(i, _)| *i == id) {
                Some((_, cur)) => *cur = cur.saturating_add(v),
                None => self.counters.push((id, v)),
            }
        }
        for (id, v) in other.gauges {
            match self.gauges.iter_mut().find(|(i, _)| *i == id) {
                Some((_, cur)) => *cur = cur.saturating_add(v),
                None => self.gauges.push((id, v)),
            }
        }
        for (id, h) in other.histograms {
            match self.histograms.iter_mut().find(|(i, _)| *i == id) {
                Some((_, cur)) => cur.merge(&h),
                None => self.histograms.push((id, h)),
            }
        }
        self.sort();
        self
    }

    /// Looks up a counter by name (and optional label value).
    pub fn counter_value(&self, name: &str, label_value: Option<&str>) -> Option<u64> {
        self.counters
            .iter()
            .find(|(i, _)| i.name == name && i.label.map(|(_, v)| v) == label_value)
            .map(|(_, v)| *v)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` lines, cumulative `_bucket{le=...}` series, `_sum` and
    /// `_count`). Histogram unit is nanoseconds, matching the `_nanos`
    /// family names.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (id, v) in &self.counters {
            if id.name != last_family {
                out.push_str(&format!("# TYPE {} counter\n", id.name));
                last_family = id.name;
            }
            out.push_str(&format!("{} {v}\n", id.render()));
        }
        for (id, v) in &self.gauges {
            if id.name != last_family {
                out.push_str(&format!("# TYPE {} gauge\n", id.name));
                last_family = id.name;
            }
            out.push_str(&format!("{} {v}\n", id.render()));
        }
        for (id, h) in &self.histograms {
            if id.name != last_family {
                out.push_str(&format!("# TYPE {} histogram\n", id.name));
                last_family = id.name;
            }
            let mut cum = 0u64;
            for (i, n) in h.buckets.iter().enumerate() {
                cum = cum.saturating_add(*n);
                let le = if i < BUCKETS {
                    format!("{}", bucket_bound(i))
                } else {
                    "+Inf".to_string()
                };
                let labels = match id.label {
                    None => format!("le=\"{le}\""),
                    Some((k, v)) => format!("{k}=\"{v}\",le=\"{le}\""),
                };
                out.push_str(&format!("{}_bucket{{{labels}}} {cum}\n", id.name));
            }
            out.push_str(&format!("{}_sum{} {}\n", id.name, label_suffix(id), h.sum));
            out.push_str(&format!(
                "{}_count{} {}\n",
                id.name,
                label_suffix(id),
                h.count
            ));
        }
        out
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`, with
    /// cumulative bucket counts keyed by their `le` bound.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_scalar_map(&mut out, self.counters.iter().map(|(i, v)| (i, *v as i128)));
        out.push_str("},\n  \"gauges\": {");
        push_scalar_map(&mut out, self.gauges.iter().map(|(i, v)| (i, *v as i128)));
        out.push_str("},\n  \"histograms\": {");
        for (n, (id, h)) in self.histograms.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"buckets\": [",
                json_escape(&id.render())
            ));
            let mut cum = 0u64;
            for (i, c) in h.buckets.iter().enumerate() {
                cum = cum.saturating_add(*c);
                if i > 0 {
                    out.push_str(", ");
                }
                if i < BUCKETS {
                    out.push_str(&format!("[{}, {cum}]", bucket_bound(i)));
                } else {
                    out.push_str(&format!("[\"+Inf\", {cum}]"));
                }
            }
            out.push_str(&format!("], \"sum\": {}, \"count\": {}}}", h.sum, h.count));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn label_suffix(id: &SeriesId) -> String {
    match id.label {
        None => String::new(),
        Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
    }
}

fn push_scalar_map<'a>(out: &mut String, series: impl Iterator<Item = (&'a SeriesId, i128)>) {
    let mut first = true;
    for (id, v) in series {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {}: {v}", json_escape(&id.render())));
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// Escapes a string for embedding in a JSON document (quotes included) —
/// the one escaper behind every hand-rolled JSON body in the workspace.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let n = c as u32;
                for shift in [4, 0] {
                    let d = (n >> shift) & 0xf;
                    out.push(char::from_digit(d, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `(name, value)` pairs as a flat JSON object, one field per
/// line — the shape of every stats snapshot's `to_json`.
pub fn json_object(fields: &[(&str, u64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in fields.iter().enumerate() {
        out.push_str(&format!("  {}: {value}", json_escape(name)));
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_at_max_without_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        // Any further add — by 1 or by a huge stride — must stick.
        c.inc();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_saturates_both_directions() {
        let g = Gauge::new();
        g.set(i64::MAX - 1);
        g.add(5);
        assert_eq!(g.get(), i64::MAX);
        g.set(i64::MIN + 1);
        g.add(-5);
        assert_eq!(g.get(), i64::MIN);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(256), 0);
        assert_eq!(bucket_of(257), 1);
        assert_eq!(bucket_of(512), 1);
        assert_eq!(bucket_of(513), 2);
        let last = bucket_bound(BUCKETS - 1);
        assert_eq!(bucket_of(last), BUCKETS - 1);
        assert_eq!(bucket_of(last + 1), BUCKETS); // overflow slot
        assert_eq!(bucket_of(u64::MAX), BUCKETS);
    }

    #[test]
    fn histogram_records_sum_and_count() {
        let h = Histogram::new();
        h.record(100);
        h.record(1000);
        h.record(u64::MAX); // saturates the sum, lands in overflow
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[BUCKETS], 1);
    }

    #[test]
    fn registry_dedups_by_name_and_label() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let l1 = r.counter_with("y_total", Some(("kind", "a")));
        let l2 = r.counter_with("y_total", Some(("kind", "b")));
        l1.inc();
        assert_eq!(l2.get(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 3);
        assert_eq!(snap.counter_value("x_total", None), Some(2));
        assert_eq!(snap.counter_value("y_total", Some("a")), Some(1));
        assert_eq!(snap.counter_value("y_total", Some("b")), Some(0));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = MetricsRegistry::new();
        r.counter("t4o_hits_total").add(3);
        r.gauge("t4o_inflight").set(2);
        let h = r.histogram_with("t4o_lat_nanos", Some(("phase", "bta")));
        h.record(300); // bucket 1 (256 < 300 <= 512)
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE t4o_hits_total counter"));
        assert!(text.contains("t4o_hits_total 3"));
        assert!(text.contains("# TYPE t4o_inflight gauge"));
        assert!(text.contains("t4o_inflight 2"));
        assert!(text.contains("# TYPE t4o_lat_nanos histogram"));
        assert!(text.contains("t4o_lat_nanos_bucket{phase=\"bta\",le=\"256\"} 0"));
        assert!(text.contains("t4o_lat_nanos_bucket{phase=\"bta\",le=\"512\"} 1"));
        assert!(text.contains("t4o_lat_nanos_bucket{phase=\"bta\",le=\"+Inf\"} 1"));
        assert!(text.contains("t4o_lat_nanos_sum{phase=\"bta\"} 300"));
        assert!(text.contains("t4o_lat_nanos_count{phase=\"bta\"} 1"));
        // One TYPE line per family even with several labeled series.
        let r2 = MetricsRegistry::new();
        r2.counter_with("f_total", Some(("kind", "a")));
        r2.counter_with("f_total", Some(("kind", "b")));
        let text2 = r2.snapshot().to_prometheus();
        assert_eq!(text2.matches("# TYPE f_total counter").count(), 1);
    }

    #[test]
    fn json_exposition_parses_shape() {
        let r = MetricsRegistry::new();
        r.counter("a_total").add(7);
        r.histogram("h_nanos").record(100);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"a_total\": 7"));
        assert!(json.contains("\"h_nanos\""));
        assert!(json.contains("\"count\": 1"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn merge_sums_duplicates_and_keeps_disjoint() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("shared_total").add(2);
        b.counter("shared_total").add(3);
        b.counter("only_b_total").add(1);
        let merged = a.snapshot().merge(b.snapshot());
        assert_eq!(merged.counter_value("shared_total", None), Some(5));
        assert_eq!(merged.counter_value("only_b_total", None), Some(1));
    }
}
