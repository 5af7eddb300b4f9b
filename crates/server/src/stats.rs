//! Serving-layer counters.
//!
//! One [`ServeStats`] cell lives inside each [`SpecService`](crate::SpecService)
//! and is updated from every worker thread; a [`ServeSnapshot`] is a
//! coherent-enough copy for monitoring and tests. `spec_runs` is the
//! load-bearing counter for correctness tests: a warm-cache hit must
//! leave it unchanged, proving the specializer did no work.
//!
//! Since the observability subsystem landed, the cells are
//! [`obs::Counter`] handles registered in the service's private
//! [`obs::MetricsRegistry`] — so the same numbers that feed
//! [`ServeSnapshot`] appear, under `t4o_serve_*` families, in the
//! Prometheus/JSON exposition ([`SpecService::metrics`](crate::SpecService::metrics)).
//! `ServeSnapshot` stays the stable public view.

use std::fmt;

use two4one::obs;

/// Saturating counters maintained by the service (shared across workers),
/// registered as `t4o_serve_*_total` families.
#[derive(Debug, Default)]
pub(crate) struct ServeStats {
    pub(crate) hits: obs::Counter,
    pub(crate) misses: obs::Counter,
    pub(crate) coalesced: obs::Counter,
    pub(crate) evictions: obs::Counter,
    pub(crate) degraded: obs::Counter,
    pub(crate) spec_runs: obs::Counter,
    pub(crate) errors: obs::Counter,
    pub(crate) shed: obs::Counter,
    pub(crate) deadline_exceeded: obs::Counter,
    pub(crate) retried: obs::Counter,
    pub(crate) breaker_open: obs::Counter,
    pub(crate) restored: obs::Counter,
    pub(crate) quarantined: obs::Counter,
    pub(crate) invalidated: obs::Counter,
    pub(crate) stale_dropped: obs::Counter,
    pub(crate) epoch_conflicts: obs::Counter,
    pub(crate) genext_builds: obs::Counter,
}

impl ServeStats {
    /// Counters registered in `registry`, so the service's exposition
    /// shows every family (zero-valued) from construction.
    pub(crate) fn register(registry: &obs::MetricsRegistry) -> Self {
        ServeStats {
            hits: registry.counter("t4o_serve_hits_total"),
            misses: registry.counter("t4o_serve_misses_total"),
            coalesced: registry.counter("t4o_serve_coalesced_total"),
            evictions: registry.counter("t4o_serve_evictions_total"),
            degraded: registry.counter("t4o_serve_degraded_total"),
            spec_runs: registry.counter("t4o_serve_spec_runs_total"),
            errors: registry.counter("t4o_serve_errors_total"),
            shed: registry.counter("t4o_serve_shed_total"),
            deadline_exceeded: registry.counter("t4o_serve_deadline_exceeded_total"),
            retried: registry.counter("t4o_serve_retried_total"),
            breaker_open: registry.counter("t4o_serve_breaker_open_total"),
            restored: registry.counter("t4o_serve_restored_total"),
            quarantined: registry.counter("t4o_serve_quarantined_total"),
            invalidated: registry.counter("t4o_serve_invalidated_total"),
            stale_dropped: registry.counter("t4o_serve_stale_dropped_total"),
            epoch_conflicts: registry.counter("t4o_serve_epoch_conflicts_total"),
            genext_builds: registry.counter("t4o_serve_genext_builds_total"),
        }
    }

    pub(crate) fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            coalesced: self.coalesced.get(),
            evictions: self.evictions.get(),
            degraded: self.degraded.get(),
            spec_runs: self.spec_runs.get(),
            errors: self.errors.get(),
            shed: self.shed.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            retried: self.retried.get(),
            breaker_open: self.breaker_open.get(),
            restored: self.restored.get(),
            quarantined: self.quarantined.get(),
            invalidated: self.invalidated.get(),
            stale_dropped: self.stale_dropped.get(),
            epoch_conflicts: self.epoch_conflicts.get(),
            genext_builds: self.genext_builds.get(),
        }
    }
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// Requests answered from the cache (including single-flight waiters
    /// that received the leader's successful result).
    pub hits: u64,
    /// Requests that had to run the specializer and filled the cache.
    pub misses: u64,
    /// Requests that found another worker already specializing the same
    /// key and waited for its result instead of duplicating the work.
    pub coalesced: u64,
    /// Cached entries discarded to stay within the configured capacity
    /// and code budget.
    pub evictions: u64,
    /// Specializer fills — request-path or background promotion — whose
    /// final run still degraded to generic code after a recoverable
    /// resource limit (see `SpecStats::degraded`).
    pub degraded: u64,
    /// Specializer fills, on the request path or in a background
    /// promotion; a fill's escalated re-runs count under `retried`, not
    /// here. Warm-cache traffic must not move this counter.
    pub spec_runs: u64,
    /// Requests that ended in an error (errors are not cached).
    pub errors: u64,
    /// Requests shed at admission because the wait queue was full
    /// (`ServeError::Overloaded`).
    pub shed: u64,
    /// Requests whose per-request deadline fired — while queued, while
    /// coalesced on another leader's flight, or mid-specialization via
    /// cooperative cancellation.
    pub deadline_exceeded: u64,
    /// Specializer re-runs with escalated budgets after unfold fuel or the
    /// memo cap starved the previous run — on both paths: at most one per
    /// request-path fill, up to three per background promotion.
    pub retried: u64,
    /// Requests answered by a tripped circuit breaker with generic
    /// fallback code instead of running the (repeatedly failing)
    /// specialization.
    pub breaker_open: u64,
    /// Cache entries restored from a snapshot file.
    pub restored: u64,
    /// Snapshot records rejected during restore (bad checksum, torn tail,
    /// stale version, undecodable payload).
    pub quarantined: u64,
    /// Cached specializations dropped because their program was
    /// redefined (invalidation via registry backedges).
    pub invalidated: u64,
    /// Snapshot records dropped during restore because their program's
    /// registration no longer matches the live registry — structurally
    /// intact (unlike `quarantined`) but derived from dead source.
    pub stale_dropped: u64,
    /// In-flight fills that finished after their epoch died: the result
    /// was served to the requests that predate the redefinition, but the
    /// publication was tombstoned instead of cached.
    pub epoch_conflicts: u64,
    /// Generating extensions staged by the service's fills (one per
    /// extension and its clones — a registered generation stages once;
    /// warm hits and fills of an already staged extension do not move
    /// this).
    pub genext_builds: u64,
}

impl ServeSnapshot {
    /// The `(name, value)` pairs of every counter, in declaration order —
    /// the single source for both renderings below.
    fn fields(&self) -> [(&'static str, u64); 17] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("coalesced", self.coalesced),
            ("evictions", self.evictions),
            ("degraded", self.degraded),
            ("spec_runs", self.spec_runs),
            ("errors", self.errors),
            ("shed", self.shed),
            ("deadline_exceeded", self.deadline_exceeded),
            ("retried", self.retried),
            ("breaker_open", self.breaker_open),
            ("restored", self.restored),
            ("quarantined", self.quarantined),
            ("invalidated", self.invalidated),
            ("stale_dropped", self.stale_dropped),
            ("epoch_conflicts", self.epoch_conflicts),
            ("genext_builds", self.genext_builds),
        ]
    }

    /// Renders the snapshot as a JSON object (for `--stats-json`).
    pub fn to_json(&self) -> String {
        obs::json_object(&self.fields())
    }
}

/// The one formatter for the human-readable serve-stats line printed by
/// the CLI (`;; serve: jobs=N hits=… …`) — callers must not roll their
/// own `format!` for this.
pub fn serve_stats_line(jobs: usize, snapshot: &ServeSnapshot) -> String {
    format!(";; serve: jobs={jobs} {snapshot}")
}

impl fmt::Display for ServeSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.fields().iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let registry = obs::MetricsRegistry::new();
        let s = ServeStats::register(&registry);
        s.hits.inc();
        s.hits.inc();
        s.evictions.add(3);
        let snap = s.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.evictions, 3);
        assert_eq!(snap.misses, 0);
        assert!(snap.to_string().contains("hits=2"));
        // The same cells back the registry's exposition.
        let exp = registry.snapshot();
        assert_eq!(exp.counter_value("t4o_serve_hits_total", None), Some(2));
        assert_eq!(
            exp.counter_value("t4o_serve_evictions_total", None),
            Some(3)
        );
    }

    #[test]
    fn counter_at_max_never_wraps() {
        // The overflow-audit satellite: a counter pinned at u64::MAX
        // stays there — no wrap, no panic (also under debug overflow
        // checks, since the adds saturate).
        let s = ServeStats::default();
        s.hits.add(u64::MAX);
        s.hits.inc();
        s.hits.add(12345);
        assert_eq!(s.snapshot().hits, u64::MAX);
    }

    #[test]
    fn snapshot_json_lists_every_field() {
        let s = ServeStats::default();
        s.misses.inc();
        let json = s.snapshot().to_json();
        assert!(json.contains("\"misses\": 1"));
        assert!(json.contains("\"quarantined\": 0"));
        assert!(json.contains("\"invalidated\": 0"));
        assert!(json.contains("\"stale_dropped\": 0"));
        assert!(json.contains("\"epoch_conflicts\": 0"));
        assert!(json.contains("\"genext_builds\": 0"));
        assert_eq!(json.matches(':').count(), 17);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
