//! two4one-obs: zero-dependency observability for the RTCG pipeline.
//!
//! Three pieces, designed to stay on in production:
//!
//! * **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]) — atomic cells registered by static name (plus an
//!   optional static label), snapshot-able without stopping writers.
//!   Every add saturates instead of wrapping; histograms use fixed
//!   power-of-two latency buckets (256 ns … ≈2.1 s, plus overflow).
//! * **Spans and traces** ([`Span`], [`event`], the per-thread trace
//!   ring) — `Span::enter(Phase::GenextRun)` marks a pipeline phase,
//!   records its duration into the global per-phase histogram on drop,
//!   and leaves Enter/Exit breadcrumbs in a bounded per-thread ring
//!   buffer alongside point events (unfold, memo hit, cache hit, breaker
//!   open, …) so a request's trace can be dumped on demand.
//! * **Exposition** ([`MetricsSnapshot::to_prometheus`],
//!   [`MetricsSnapshot::to_json`]) — Prometheus text format and a JSON
//!   snapshot, both hand-rolled (this crate has no dependencies). Its
//!   [`json_escape`] and [`json_object`] also write the stats snapshots,
//!   the HTTP bodies and the bench files.
//!
//! The whole crate is panic-free (lint-enforced at zero budget) and
//! lock-light: counters/gauges/histograms are lock-free atomics; the
//! registry takes a mutex only at registration and snapshot time; the
//! trace ring is thread-local. A process-wide [`set_enabled`] switch
//! turns span/trace recording into a single relaxed load for overhead
//! measurements.

#![warn(missing_docs)]

mod metrics;
mod span;

pub use metrics::{
    bucket_bound, json_escape, json_object, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot, SeriesId, BUCKETS, BUCKET_SHIFT,
};
pub use span::{
    absorb_trace, clear_trace, event, event_with, now_ns, render_trace, take_trace,
    touch_phase_metrics, trace, EventKind, Phase, Span, TraceEvent, TraceWhat, TRACE_CAP,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide registry used for pipeline-phase histograms and
/// specializer decision counters. Serving layers typically hold their own
/// private registry as well and merge snapshots at exposition time.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether span/trace recording is on (it is by default). Semantic
/// counters (cache hits, fallbacks, …) are not gated by this switch —
/// only spans, trace events, and latency recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span/trace recording on or off process-wide. Used by the
/// obs-overhead bench row and available to embedders that want the
/// absolute minimum hot-path cost.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
