//! Network-layer counters, mirroring the serving layer's
//! `ServeStats`/`ServeSnapshot` discipline: one cell struct registered in
//! a metrics registry (so every family appears, zero-valued, from
//! construction), one stable snapshot struct whose `fields()` array is
//! the single source for the human-readable line, the JSON rendering,
//! and the test assertions.

use std::fmt;

use two4one::obs;

/// Counters maintained by the network front end, registered as
/// `t4o_net_*` families.
#[derive(Debug, Default)]
pub(crate) struct NetStats {
    pub(crate) conns_accepted: obs::Counter,
    pub(crate) conns_rejected: obs::Counter,
    pub(crate) conns_reaped: obs::Counter,
    pub(crate) disconnects: obs::Counter,
    pub(crate) requests_http: obs::Counter,
    pub(crate) requests_bin: obs::Counter,
    pub(crate) responses_ok: obs::Counter,
    pub(crate) protocol_errors: obs::Counter,
    pub(crate) auth_failures: obs::Counter,
    pub(crate) tenant_rejections: obs::Counter,
    pub(crate) overloaded: obs::Counter,
    pub(crate) drain_events: obs::Counter,
    pub(crate) worker_panics: obs::Counter,
    pub(crate) match_registered: obs::Counter,
    pub(crate) match_rejected: obs::Counter,
    pub(crate) open_conns: obs::Gauge,
    pub(crate) request_latency: obs::Histogram,
}

/// The `(family name, snapshot field)` table — shared by registration and
/// [`init_metrics`], so the exposition surfaces can never drift from the
/// snapshot.
const FAMILIES: [&str; 15] = [
    "t4o_net_conns_accepted_total",
    "t4o_net_conns_rejected_total",
    "t4o_net_conns_reaped_total",
    "t4o_net_disconnects_total",
    "t4o_net_requests_http_total",
    "t4o_net_requests_bin_total",
    "t4o_net_responses_ok_total",
    "t4o_net_protocol_errors_total",
    "t4o_net_auth_failures_total",
    "t4o_net_tenant_rejections_total",
    "t4o_net_overloaded_total",
    "t4o_net_drain_events_total",
    "t4o_net_worker_panics_total",
    "t4o_match_registered_total",
    "t4o_match_rejected_total",
];

impl NetStats {
    /// Counters registered in `registry`; every family exists (at zero)
    /// from the moment the server is built.
    pub(crate) fn register(registry: &obs::MetricsRegistry) -> Self {
        NetStats {
            conns_accepted: registry.counter(FAMILIES[0]),
            conns_rejected: registry.counter(FAMILIES[1]),
            conns_reaped: registry.counter(FAMILIES[2]),
            disconnects: registry.counter(FAMILIES[3]),
            requests_http: registry.counter(FAMILIES[4]),
            requests_bin: registry.counter(FAMILIES[5]),
            responses_ok: registry.counter(FAMILIES[6]),
            protocol_errors: registry.counter(FAMILIES[7]),
            auth_failures: registry.counter(FAMILIES[8]),
            tenant_rejections: registry.counter(FAMILIES[9]),
            overloaded: registry.counter(FAMILIES[10]),
            drain_events: registry.counter(FAMILIES[11]),
            worker_panics: registry.counter(FAMILIES[12]),
            match_registered: registry.counter(FAMILIES[13]),
            match_rejected: registry.counter(FAMILIES[14]),
            open_conns: registry.gauge("t4o_net_open_conns"),
            request_latency: registry.histogram("t4o_net_request_nanos"),
        }
    }

    pub(crate) fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            conns_accepted: self.conns_accepted.get(),
            conns_rejected: self.conns_rejected.get(),
            conns_reaped: self.conns_reaped.get(),
            disconnects: self.disconnects.get(),
            requests_http: self.requests_http.get(),
            requests_bin: self.requests_bin.get(),
            responses_ok: self.responses_ok.get(),
            protocol_errors: self.protocol_errors.get(),
            auth_failures: self.auth_failures.get(),
            tenant_rejections: self.tenant_rejections.get(),
            overloaded: self.overloaded.get(),
            drain_events: self.drain_events.get(),
            worker_panics: self.worker_panics.get(),
            match_registered: self.match_registered.get(),
            match_rejected: self.match_rejected.get(),
            open_conns: self.open_conns.get().max(0) as u64,
        }
    }
}

/// Registers every `t4o_net_*` family, zero-valued, in the process-global
/// metrics registry. The CLI's `t4o stats` calls this so the families
/// appear on the exposition page even in a process that never bound a
/// listener; a live [`NetServer`](crate::NetServer) keeps its counters in
/// a private registry and merges them over these zeros at exposition
/// (merge sums duplicates, so the result is exact).
pub fn init_metrics() {
    let g = obs::global();
    for name in FAMILIES {
        let _ = g.counter(name);
    }
    let _ = g.gauge("t4o_net_open_conns");
    let _ = g.histogram("t4o_net_request_nanos");
}

/// A point-in-time copy of the network counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections refused at accept because the global connection budget
    /// was full.
    pub conns_rejected: u64,
    /// Connections forcibly closed by deadline enforcement: slow-loris
    /// reads, stalled writes, idle keep-alives, and drain-timeout sheds.
    pub conns_reaped: u64,
    /// Client disconnects noticed while a request was in flight (each one
    /// fired the request's cancel token).
    pub disconnects: u64,
    /// HTTP requests parsed.
    pub requests_http: u64,
    /// Binary-protocol request frames parsed.
    pub requests_bin: u64,
    /// Successful responses written (both protocols).
    pub responses_ok: u64,
    /// Typed wire-protocol failures (torn frames, bad magic, checksum
    /// mismatches, malformed payloads, oversized HTTP heads).
    pub protocol_errors: u64,
    /// Requests denied for a missing or unknown tenant token.
    pub auth_failures: u64,
    /// Requests bounced off a tenant's fair-share quota.
    pub tenant_rejections: u64,
    /// Requests answered 429/`RESP_ERROR(429)` — tenant quota or the
    /// service's admission gate.
    pub overloaded: u64,
    /// Drain transitions (normally 0 or 1 per process).
    pub drain_events: u64,
    /// Panics caught at a connection-handler boundary. Always 0 unless
    /// there is a bug; the storm tests assert on it.
    pub worker_panics: u64,
    /// Grammars accepted (registered or redefined) through `REQ_GRAMMAR`.
    pub match_registered: u64,
    /// Grammar registrations rejected by the LL(1) front end.
    pub match_rejected: u64,
    /// Currently open connections.
    pub open_conns: u64,
}

impl NetSnapshot {
    /// The `(name, value)` pairs in declaration order — the single source
    /// for both renderings below.
    fn fields(&self) -> [(&'static str, u64); 16] {
        [
            ("conns_accepted", self.conns_accepted),
            ("conns_rejected", self.conns_rejected),
            ("conns_reaped", self.conns_reaped),
            ("disconnects", self.disconnects),
            ("requests_http", self.requests_http),
            ("requests_bin", self.requests_bin),
            ("responses_ok", self.responses_ok),
            ("protocol_errors", self.protocol_errors),
            ("auth_failures", self.auth_failures),
            ("tenant_rejections", self.tenant_rejections),
            ("overloaded", self.overloaded),
            ("drain_events", self.drain_events),
            ("worker_panics", self.worker_panics),
            ("match_registered", self.match_registered),
            ("match_rejected", self.match_rejected),
            ("open_conns", self.open_conns),
        ]
    }

    /// Renders the snapshot as a JSON object (the `/stats` endpoint).
    pub fn to_json(&self) -> String {
        obs::json_object(&self.fields())
    }
}

/// The one formatter for the human-readable net-stats line printed by the
/// CLI at drain (`;; net: conns_accepted=… …`) — the companion of the
/// serving layer's `serve_stats_line`, and like it the only sanctioned
/// `format!` for this output.
pub fn net_stats_line(snapshot: &NetSnapshot) -> String {
    format!(";; net: {snapshot}")
}

impl fmt::Display for NetSnapshot {
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
    fn snapshot_line_and_json_share_fields() {
        let registry = obs::MetricsRegistry::new();
        let stats = NetStats::register(&registry);
        stats.conns_accepted.inc();
        stats.conns_reaped.add(2);
        stats.open_conns.set(3);
        let snap = stats.snapshot();
        assert_eq!(snap.conns_accepted, 1);
        assert_eq!(snap.conns_reaped, 2);
        assert_eq!(snap.open_conns, 3);
        let line = net_stats_line(&snap);
        assert!(line.starts_with(";; net: "));
        assert!(line.contains("conns_reaped=2"));
        assert!(snap.to_json().contains("\"conns_reaped\": 2"));
        // Every family is present in the registry from construction.
        let page = registry.snapshot().to_prometheus();
        assert!(page.contains("t4o_net_conns_reaped_total"));
        assert!(page.contains("t4o_net_worker_panics_total"));
        assert!(page.contains("t4o_net_open_conns"));
    }

    #[test]
    fn init_metrics_registers_global_families() {
        init_metrics();
        let page = obs::global().snapshot().to_prometheus();
        assert!(page.contains("t4o_net_conns_accepted_total"));
        assert!(page.contains("t4o_net_drain_events_total"));
        assert!(page.contains("t4o_match_registered_total"));
        assert!(page.contains("t4o_match_rejected_total"));
    }
}
