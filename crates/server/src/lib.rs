//! A concurrent specialization service over the two4one engine.
//!
//! The paper's economics — run-time code generation cheap enough to pay
//! for itself after a handful of runs — only materialize in a serving
//! system if identical requests share one specialization. [`SpecService`]
//! provides exactly that: a sharded, capacity-bounded cache of residual
//! [`Image`]s keyed by *(program, entry, static arguments)*, with
//! single-flight deduplication of concurrent misses and a bounded pool of
//! large-stack workers for batch traffic.
//!
//! # Quick start
//!
//! ```
//! use two4one::{Division, Pgg, reader, BT};
//! use two4one_server::{SpecRequest, SpecService};
//!
//! let pgg = Pgg::new();
//! let program = pgg.parse("(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))")?;
//! let ext = pgg.cogen(&program, "power", &Division::new([BT::Static, BT::Dynamic]))?;
//!
//! let service = SpecService::new();
//! let five = reader::read_one("5")?;
//! let cold = service.specialize(&ext, std::slice::from_ref(&five))?;
//! let warm = service.specialize(&ext, std::slice::from_ref(&five))?;
//! // Same residual object code, shared — not re-specialized, not copied.
//! assert!(std::sync::Arc::ptr_eq(&cold.image, &warm.image));
//! assert_eq!(service.stats().spec_runs, 1);
//!
//! // Batch API: four workers drain the request list in parallel.
//! let reqs: Vec<SpecRequest> = (1..=8)
//!     .map(|n| SpecRequest::new(ext.clone(), vec![two4one::Datum::Int(n)]))
//!     .collect();
//! for r in service.specialize_many(&reqs, 4) {
//!     r?;
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # What is shared, what is per-request
//!
//! The service owns only the cache and its counters. Each specialization
//! runs on its own large-stack thread with a private specializer state
//! (memo tables, gensym, fuel), so requests never contend except on the
//! shard mutex for the few microseconds of a lookup or fill. Results are
//! handed out as `Arc<SpecOutcome>`: a warm hit is one shard-mutex
//! acquisition and one atomic refcount increment.

#![warn(missing_docs)]

mod admission;
mod breaker;
mod cache;
mod persist;
mod registry;
mod stats;

pub use breaker::BreakerPolicy;
pub use registry::RedefineOutcome;
pub use stats::{serve_stats_line, ServeSnapshot};

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use admission::{Admission, Gate};
use breaker::{Breaker, BreakerScope, Verdict};
use cache::{lock, Entry, Flight, FlightWait, Key, Shard, Slot, Tier};
use persist::{GenextSnapRecord, SnapRecord};
use registry::{Backedge, Registry};
use stats::ServeStats;
use two4one::obs;
use two4one::{
    CancelToken, Datum, Epoch, Error, ExecProfile, GenExt, Image, LimitKind, Limits, PeError,
    SpecOptions, SpecStats,
};
use two4one_syntax::stack::DEFAULT_STACK_BYTES;
use two4one_syntax::symbol::intern_contention;

/// What every serving entry point returns for one request.
pub type ServeResult = Result<Arc<SpecOutcome>, ServeError>;

/// Errors returned by the service.
///
/// Non-exhaustive: fault-tolerance work keeps adding operational states
/// (overload, deadlines, circuit breaking), so downstream matches must
/// carry a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The specialization pipeline failed; this requester led the flight
    /// and holds the original error.
    Spec(Error),
    /// Another requester led the flight for the same key and failed; the
    /// leader's error is shared as a rendered message (engine errors are
    /// not cloneable).
    Shared(String),
    /// A worker thread could not be spawned.
    Spawn(String),
    /// A worker thread died without reporting a result. The engine
    /// catches panics at its facade, so this indicates a bug.
    Worker(String),
    /// The service shed the request at admission: the maximum number of
    /// fills is in flight and the wait queue is full.
    Overloaded {
        /// Requests queued for admission when this one was shed.
        queue_depth: usize,
        /// A coarse hint for when capacity may free up, scaled by the
        /// observed queue depth.
        retry_after_ms: u64,
    },
    /// The request's deadline passed — while queued for admission, while
    /// waiting on another requester's flight, or mid-specialization (the
    /// specializer is cancelled cooperatively at its memo/unfold checks).
    DeadlineExceeded,
    /// The request's [`CancelToken`] was fired explicitly.
    Cancelled,
    /// The circuit breaker for this program is open and no fallback
    /// image could be produced.
    BreakerOpen(String),
    /// A named request for a program no registration exists for (never
    /// registered, or the name was mistyped).
    UnknownProgram(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Spec(e) => write!(f, "{e}"),
            ServeError::Shared(msg) => write!(f, "shared specialization failed: {msg}"),
            ServeError::Spawn(msg) => write!(f, "cannot spawn worker: {msg}"),
            ServeError::Worker(msg) => write!(f, "worker died: {msg}"),
            ServeError::Overloaded {
                queue_depth,
                retry_after_ms,
            } => write!(
                f,
                "service overloaded (queue depth {queue_depth}); retry in ~{retry_after_ms} ms"
            ),
            ServeError::DeadlineExceeded => f.write_str("request deadline exceeded"),
            ServeError::Cancelled => f.write_str("request cancelled"),
            ServeError::BreakerOpen(msg) => {
                write!(f, "circuit breaker open and no fallback available: {msg}")
            }
            ServeError::UnknownProgram(name) => {
                write!(f, "no program registered under `{name}`")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

/// A finished specialization: the residual object code and the
/// specializer's own statistics from the run that produced it.
///
/// Outcomes are shared (`Arc`) between the cache and all requesters, and
/// the [`Image`] itself holds its templates behind `Arc`, so a cache hit
/// costs no deep copy anywhere.
#[derive(Debug)]
pub struct SpecOutcome {
    /// The residual program as loadable object code.
    pub image: Arc<Image>,
    /// Statistics from the specializer run that built `image`.
    pub stats: SpecStats,
    /// Shared execution counters for this image. An embedder that runs
    /// the image through [`two4one::run_image_profiled`] with this
    /// profile feeds the tiered-serving promotion heuristic: a
    /// generically-compiled (Tier-0) entry whose profile shows real
    /// traffic is specialized in the background and hot-swapped in.
    pub profile: Arc<ExecProfile>,
}

impl SpecOutcome {
    /// Code size of the residual image, in instructions.
    pub fn code_size(&self) -> usize {
        self.image.code_size()
    }
}

/// What a [`SpecRequest`] asks to specialize.
#[derive(Debug, Clone)]
pub enum SpecTarget {
    /// A generating extension supplied directly by the caller (an
    /// *anonymous* request — no registry involvement).
    Ext(GenExt),
    /// A program registered with [`SpecService::register`], resolved to
    /// its live epoch when the request is served — so a request created
    /// before a redefinition transparently targets the new generation.
    Named(Arc<str>),
}

/// One unit of batch work for [`SpecService::specialize_many`].
#[derive(Debug, Clone)]
pub struct SpecRequest {
    /// What to specialize.
    pub target: SpecTarget,
    /// Static arguments, one per `BT::S` slot of the division.
    pub statics: Vec<Datum>,
    /// Per-request deadline; overrides [`ServeConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Caller-side cancellation token; firing it stops the request (and,
    /// when this request leads a fill, the specializer mid-run).
    pub cancel: Option<CancelToken>,
}

impl SpecRequest {
    /// Creates a request for an anonymous extension.
    pub fn new(ext: GenExt, statics: Vec<Datum>) -> Self {
        SpecRequest {
            target: SpecTarget::Ext(ext),
            statics,
            deadline: None,
            cancel: None,
        }
    }

    /// Creates a request for a registered program, resolved to its live
    /// epoch at serve time.
    pub fn named(name: &str, statics: Vec<Datum>) -> Self {
        SpecRequest {
            target: SpecTarget::Named(Arc::from(name)),
            statics,
            deadline: None,
            cancel: None,
        }
    }

    /// Sets a per-request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token the caller can fire.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Retry tuning for transient limit hits (see [`ServeConfig::retry`]).
///
/// A fill whose first attempt *degraded* because of unfold fuel or the
/// memo cap (`SpecStats::fallback_kind`) may be retried once with those
/// budgets multiplied by `escalation`, after a jittered `backoff`. The
/// better of the two results is cached. Hard failures are never retried
/// here — they feed the circuit breaker instead.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum escalated re-attempts per fill. `0` disables retry.
    pub max_retries: u32,
    /// Budget multiplier applied to `unfold_fuel` and `memo_cap` on
    /// retry.
    pub escalation: u64,
    /// Base backoff before the retry; the actual sleep is jittered to
    /// 50–150 % of this, deterministically per request key.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 1,
            escalation: 4,
            backoff: Duration::from_millis(2),
        }
    }
}

/// A test/diagnostics hook the service calls at the start of every cache
/// fill, on the worker thread, inside the panic boundary. Lets fault
/// tests inject delays or panics exactly where a real specializer run
/// would fail.
#[derive(Clone)]
pub struct FillHook(Arc<dyn Fn() + Send + Sync>);

impl FillHook {
    /// Wraps a hook function.
    pub fn new(f: impl Fn() + Send + Sync + 'static) -> Self {
        FillHook(Arc::new(f))
    }
}

impl fmt::Debug for FillHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FillHook(..)")
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of independent cache shards (lock granularity). Clamped to
    /// at least 1.
    pub shards: usize,
    /// Maximum cached entries across all shards.
    pub max_entries: usize,
    /// Limit record; its `code_cap` bounds the *total* residual code the
    /// cache may hold (LRU-ish eviction keeps the cache under it).
    pub limits: Limits,
    /// Stack size for specialization workers.
    pub stack_bytes: usize,
    /// Maximum concurrent specializer fills (admission gate). Clamped to
    /// at least 1. Cache hits and coalesced waiters bypass the gate.
    pub max_inflight: usize,
    /// Requests allowed to queue for admission when `max_inflight` fills
    /// are running; anything beyond is shed with
    /// [`ServeError::Overloaded`].
    pub queue_bound: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Escalated-budget retry for transiently degraded fills.
    pub retry: RetryPolicy,
    /// Per-program circuit breaking for consecutive hard failures.
    pub breaker: BreakerPolicy,
    /// Called at the start of every fill (fault-injection tests).
    pub fill_hook: Option<FillHook>,
    /// Tiered execution: answer a cold miss with the generically-compiled
    /// image immediately (tens of microseconds) instead of blocking the
    /// requester on the full specializer (milliseconds), and promote hot
    /// entries to specialized code in the background — see the
    /// `promote_*` knobs. Off by default: every miss then runs the full
    /// specializer synchronously, exactly as before.
    pub tier0: bool,
    /// Hits (serve-path lookups plus profiled image executions) a Tier-0
    /// entry must accumulate before a background promotion is enqueued.
    /// `0` enqueues immediately at publication; clamped to at least 1
    /// when read from the hit path.
    pub promote_after: u64,
    /// Background promotion workers (large-stack threads running the
    /// specializer off the request path). Clamped to at least 1 when
    /// `tier0` is on; ignored otherwise.
    pub promote_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            max_entries: 1024,
            limits: Limits::default(),
            stack_bytes: DEFAULT_STACK_BYTES,
            max_inflight: 32,
            queue_bound: 256,
            default_deadline: None,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            fill_hook: None,
            tier0: false,
            promote_after: 2,
            promote_workers: 1,
        }
    }
}

/// What a [`SpecService::restore`] pass recovered from a snapshot file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Entries restored into the cache.
    pub restored: u64,
    /// Records rejected: bad checksum, torn tail, stale version, or an
    /// undecodable payload. (A record whose key is already live in the
    /// cache is skipped silently — it is valid, just outdated.)
    pub quarantined: u64,
    /// Structurally intact records dropped because their program's
    /// registration no longer matches the live registry: the name is
    /// unregistered, or the registered source/entry/options differ from
    /// what the record was specialized against. Judged by content
    /// identity, not raw epoch number, so a snapshot restores cleanly
    /// into a fresh process that re-registered the same programs.
    pub stale_dropped: u64,
}

/// What a [`SpecService::restore_genexts`] pass recovered from a
/// gen-ext snapshot file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenextRestoreReport {
    /// Staged programs restored into their live generation's extension.
    pub restored: u64,
    /// Records rejected: bad checksum, torn tail, bad header, or an
    /// undecodable staged program.
    pub quarantined: u64,
    /// Structurally intact records dropped because their program's
    /// registration no longer matches the live registry (unregistered
    /// name, or different source identity/entry).
    pub stale_dropped: u64,
}

/// Promotion queue bound: a hot-set larger than this simply waits for a
/// later hit to re-arm — the generic image keeps serving meanwhile, so
/// dropping a candidate costs latency, never correctness.
const PROMOTE_QUEUE_CAP: usize = 256;

/// How many escalated re-specialization rounds a degraded entry gets
/// before promotion gives up on it for good.
const MAX_ESCALATIONS: u32 = 3;

/// One queued background promotion: everything `promote_one` needs to
/// re-run the specializer for a cache entry off the request path.
#[derive(Debug)]
struct Candidate {
    key: Key,
    ext: GenExt,
    statics: Vec<Datum>,
    backedge: Option<Backedge>,
    /// Budget-escalation round (0 = plain options; N multiplies the
    /// transient budgets by `retry.escalation^N`, for hot-but-degraded
    /// entries).
    escalation: u32,
}

#[derive(Debug, Default)]
struct PromoteQueue {
    q: VecDeque<Candidate>,
    /// Set by [`SpecService`]'s `Drop`: workers exit and enqueues bounce.
    closed: bool,
}

/// Shared state of the background promotion pipeline (present only when
/// [`ServeConfig::tier0`] is on).
#[derive(Debug)]
struct TierState {
    promote_after: u64,
    queue: Mutex<PromoteQueue>,
    cv: Condvar,
}

/// Handles on the `t4o_tier_*` metric families. Registered
/// unconditionally — a service with tiering off exposes them at zero, so
/// the metrics page shape does not depend on configuration.
#[derive(Debug)]
struct TierStats {
    tier0_served: obs::Counter,
    promotions: obs::Counter,
    demotions: obs::Counter,
    swap_epoch_conflicts: obs::Counter,
    promotion_nanos: obs::Histogram,
    queue_depth: obs::Gauge,
}

impl TierStats {
    fn register(registry: &obs::MetricsRegistry) -> Self {
        TierStats {
            tier0_served: registry.counter("t4o_tier_tier0_served_total"),
            promotions: registry.counter("t4o_tier_promotions_total"),
            demotions: registry.counter("t4o_tier_demotions_total"),
            swap_epoch_conflicts: registry.counter("t4o_tier_swap_epoch_conflicts_total"),
            promotion_nanos: registry.histogram("t4o_tier_promotion_nanos"),
            queue_depth: registry.gauge("t4o_tier_queue_depth"),
        }
    }
}

/// A snapshot of the tiered-execution counters (see
/// [`SpecService::tier_stats`]). All zero when [`ServeConfig::tier0`] is
/// off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Cold misses answered with the generically-compiled (Tier-0) image.
    pub tier0_served: u64,
    /// Background specializations hot-swapped into the cache.
    pub promotions: u64,
    /// Promotion attempts abandoned because the specializer failed or
    /// panicked; the generic image keeps serving.
    pub demotions: u64,
    /// Finished background builds discarded because a redefinition bumped
    /// the program's epoch mid-build (the stale image is never swapped
    /// in).
    pub swap_epoch_conflicts: u64,
    /// Promotion candidates currently queued.
    pub queued: i64,
}

/// The cache-and-specialize half of the service, shared (`Arc`) between
/// the serving front and the detached background promotion workers —
/// which is the whole reason for the split: a worker must keep swapping
/// results into the shards while the front is blocked in an unrelated
/// request. [`SpecService`] derefs to this, so serve-path code reads
/// fields and calls fill helpers without naming the split.
///
/// Public only because it is [`SpecService`]'s `Deref` target; every
/// member is private, so nothing is callable from outside the crate.
#[doc(hidden)]
#[derive(Debug)]
pub struct Core {
    shards: Vec<Mutex<Shard>>,
    per_shard_entries: usize,
    per_shard_code: Option<usize>,
    stack_bytes: usize,
    ticket: AtomicU64,
    stats: ServeStats,
    /// The versioned program registry: logical names → live epoch +
    /// source, plus the invalidation backedges of everything cached on
    /// their behalf. (Not to be confused with the *metrics* registry on
    /// [`SpecService`].)
    programs: Registry,
    retry: RetryPolicy,
    fill_hook: Option<FillHook>,
    /// Present when tiered execution is on.
    tier: Option<TierState>,
    tier_stats: TierStats,
}

/// A concurrent, caching specialization service. See the crate docs for
/// an overview and example.
#[derive(Debug)]
pub struct SpecService {
    core: Arc<Core>,
    gate: Gate,
    breaker: Breaker,
    default_deadline: Option<Duration>,
    /// Private registry backing this service's counters, gauges, and
    /// request-latency histogram. Private so each service's numbers start
    /// at zero and die with it; [`SpecService::metrics`] merges in the
    /// process-global pipeline metrics at exposition time.
    registry: Arc<obs::MetricsRegistry>,
    requests: obs::Counter,
    request_latency: obs::Histogram,
    /// Interner write-contention events, refreshed at exposition.
    intern_contention: obs::Gauge,
    /// Background promotion workers, joined on drop.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::ops::Deref for SpecService {
    type Target = Core;

    fn deref(&self) -> &Core {
        &self.core
    }
}

impl Drop for SpecService {
    /// Closes the promotion queue (pending candidates are discarded —
    /// they were an optimization, and the generic images they would have
    /// replaced keep serving) and joins the workers. An in-flight
    /// promotion finishes its swap first; nothing is detached at exit.
    fn drop(&mut self) {
        if let Some(tier) = &self.core.tier {
            let mut q = lock(&tier.queue);
            q.closed = true;
            q.q.clear();
            self.core.tier_stats.queue_depth.set(0);
            drop(q);
            tier.cv.notify_all();
        }
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }
}

impl Default for SpecService {
    fn default() -> Self {
        SpecService::new()
    }
}

impl SpecService {
    /// A service with [`ServeConfig::default`].
    pub fn new() -> Self {
        SpecService::with_config(ServeConfig::default())
    }

    /// A service with explicit configuration. When
    /// [`ServeConfig::tier0`] is on this also spawns the background
    /// promotion workers; they are joined when the service drops.
    pub fn with_config(config: ServeConfig) -> Self {
        let nshards = config.shards.max(1);
        let shards = (0..nshards).map(|_| Mutex::new(Shard::default())).collect();
        let registry = Arc::new(obs::MetricsRegistry::new());
        // Ensure the global pipeline families (phase histograms, spec
        // counters) exist too, so a freshly built service can expose the
        // complete page before serving anything.
        two4one::init_metrics();
        let core = Arc::new(Core {
            shards,
            per_shard_entries: config.max_entries.div_ceil(nshards).max(1),
            per_shard_code: config.limits.code_cap.map(|c| c.div_ceil(nshards).max(1)),
            stack_bytes: config.stack_bytes,
            ticket: AtomicU64::new(0),
            stats: ServeStats::register(&registry),
            programs: Registry::new(registry.gauge("t4o_programs_registered")),
            retry: config.retry,
            fill_hook: config.fill_hook,
            tier: config.tier0.then(|| TierState {
                promote_after: config.promote_after,
                queue: Mutex::new(PromoteQueue::default()),
                cv: Condvar::new(),
            }),
            tier_stats: TierStats::register(&registry),
        });
        let mut workers = Vec::new();
        if core.tier.is_some() {
            for w in 0..config.promote_workers.max(1) {
                let worker = core.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("two4one-promote-{w}"))
                    // Promotion runs the full specializer: same big
                    // stacks as the request-path fill workers.
                    .stack_size(config.stack_bytes)
                    .spawn(move || worker.promote_loop());
                if let Ok(handle) = spawned {
                    workers.push(handle);
                }
            }
        }
        SpecService {
            gate: Gate::new(
                config.max_inflight,
                config.queue_bound,
                registry.gauge("t4o_serve_inflight"),
            ),
            breaker: Breaker::new(config.breaker, registry.gauge("t4o_breaker_open")),
            default_deadline: config.default_deadline,
            requests: registry.counter("t4o_serve_requests_total"),
            request_latency: registry.histogram("t4o_serve_request_nanos"),
            intern_contention: registry.gauge("t4o_intern_contention"),
            registry,
            core,
            workers: Mutex::new(workers),
        }
    }

    /// A snapshot of the tiered-execution counters: Tier-0 serves,
    /// promotions, demotions, epoch-conflict discards, and the current
    /// promotion-queue depth. All zero when [`ServeConfig::tier0`] is
    /// off.
    pub fn tier_stats(&self) -> TierSnapshot {
        TierSnapshot {
            tier0_served: self.core.tier_stats.tier0_served.get(),
            promotions: self.core.tier_stats.promotions.get(),
            demotions: self.core.tier_stats.demotions.get(),
            swap_epoch_conflicts: self.core.tier_stats.swap_epoch_conflicts.get(),
            queued: self.core.tier_stats.queue_depth.get(),
        }
    }

    /// Total requests admission will hold at once (in-flight + queued);
    /// a burst beyond this necessarily sheds.
    pub fn admission_capacity(&self) -> usize {
        self.gate.capacity()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServeSnapshot {
        self.stats.snapshot()
    }

    /// A full metrics snapshot for exposition: this service's private
    /// series (`t4o_serve_*`, breaker/inflight gauges, request latency)
    /// merged with the process-global pipeline series (per-phase latency
    /// histograms, specializer decision counters). Render it with
    /// [`obs::MetricsSnapshot::to_prometheus`] or
    /// [`obs::MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        // Refresh the interner-contention gauge at exposition: the
        // interner counts lock collisions process-globally, and polling
        // here keeps the hot path free of any extra bookkeeping.
        self.intern_contention
            .set(i64::try_from(intern_contention()).unwrap_or(i64::MAX));
        self.registry.snapshot().merge(obs::global().snapshot())
    }

    /// Number of `Ready` entries currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                lock(s)
                    .map
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of `InFlight` slots: fills currently owned by a leader. The
    /// network layer's drain path and the storm tests assert this returns
    /// to zero — a nonzero value after quiescence means a stranded flight
    /// (a leader that died without completing its rendezvous).
    pub fn inflight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                lock(s)
                    .map
                    .values()
                    .filter(|slot| matches!(slot, Slot::InFlight(_)))
                    .count()
            })
            .sum()
    }

    /// Specializes `ext` to `statics`, answering from the cache when the
    /// identical request has been served before. Concurrent misses for
    /// the same key are deduplicated: one requester runs the specializer
    /// (on a dedicated large-stack thread), the rest wait and share its
    /// result. Runs under [`ServeConfig::default_deadline`], if set.
    ///
    /// # Errors
    ///
    /// Propagates specialization failures ([`ServeError::Spec`] for the
    /// leading requester, [`ServeError::Shared`] for coalesced waiters),
    /// sheds under overload ([`ServeError::Overloaded`]), and enforces
    /// deadlines ([`ServeError::DeadlineExceeded`]). Errors are never
    /// cached: the next request for the key retries.
    pub fn specialize(&self, ext: &GenExt, statics: &[Datum]) -> ServeResult {
        self.serve(ext, statics, None, self.default_deadline, None, true)
    }

    // ----- the versioned program registry --------------------------------

    /// Registers `ext` under the logical name `name` at a fresh epoch
    /// (or keeps the live registration when the content is identical —
    /// registering the same program twice is a no-op, not a new
    /// generation). If `name` is already live with *different* content,
    /// this behaves exactly like [`SpecService::redefine`]. Returns the
    /// live epoch.
    pub fn register(&self, name: &str, ext: &GenExt) -> Epoch {
        let (epoch, victims, changed) = self.programs.register(name, ext);
        if changed && epoch > Epoch::FIRST {
            obs::event_with(obs::EventKind::Redefined, epoch.get());
        }
        self.invalidate(victims);
        epoch
    }

    /// Redefines the program registered under `name`: atomically bumps
    /// its epoch, swaps in the new source, and invalidates every cached
    /// specialization derived from the old generations (via the recorded
    /// backedges — unrelated programs and anonymous entries are
    /// untouched; no full-cache flush). A fill already in flight for the
    /// old epoch completes and is served to the requests that were
    /// waiting on it, but its publication is tombstoned — it is never
    /// cached and never served again. Requests arriving after `redefine`
    /// returns always resolve the new epoch. A name never registered
    /// before simply starts at [`Epoch::FIRST`].
    pub fn redefine(&self, name: &str, ext: &GenExt) -> RedefineOutcome {
        let (epoch, victims) = self.programs.redefine(name, ext);
        obs::event_with(obs::EventKind::Redefined, epoch.get());
        let invalidated = self.invalidate(victims);
        RedefineOutcome { epoch, invalidated }
    }

    /// The live epoch of the program registered under `name`.
    pub fn epoch_of(&self, name: &str) -> Option<Epoch> {
        self.programs.epoch_of(name)
    }

    /// Every registered program as `(name, live epoch)`, sorted by name.
    pub fn programs(&self) -> Vec<(Arc<str>, Epoch)> {
        self.programs.programs()
    }

    /// Specializes the program registered under `name` to `statics`,
    /// resolving the live epoch first: the cache key, the breaker scope,
    /// and the invalidation backedge all bind to the resolved
    /// generation, so a result from before a redefinition can never be
    /// served after it.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownProgram`] when nothing is registered under
    /// `name`; otherwise exactly as [`SpecService::specialize`].
    pub fn specialize_named(&self, name: &str, statics: &[Datum]) -> ServeResult {
        self.serve_named(name, statics, self.default_deadline, None, true)
    }
}

impl Core {
    /// Drops invalidated dependents from the cache shards (only `Ready`
    /// entries — an in-flight slot belongs to its leader, whose
    /// publication the registry tombstones instead). Returns how many
    /// were dropped.
    fn invalidate(&self, victims: Vec<Key>) -> u64 {
        let mut dropped = 0u64;
        for key in victims {
            let mut guard = lock(self.shard_of(&key));
            if matches!(guard.map.get(&key), Some(Slot::Ready(_))) {
                if let Some(Slot::Ready(e)) = guard.map.remove(&key) {
                    guard.code_size -= e.size.min(guard.code_size);
                    dropped += 1;
                }
            }
        }
        if dropped > 0 {
            ServeStats::add(&self.stats.invalidated, dropped);
            obs::event_with(obs::EventKind::Invalidated, dropped);
        }
        dropped
    }

    fn shard_of(&self, key: &Key) -> &Mutex<Shard> {
        &self.shards[(key.digest as usize) % self.shards.len()]
    }
}

impl SpecService {
    /// Serves one [`SpecRequest`], honouring its deadline and
    /// cancellation token (falling back to the service defaults).
    pub fn specialize_request(&self, req: &SpecRequest) -> ServeResult {
        self.serve_request(req, true)
    }

    /// Dispatches a request to the anonymous or named serve path.
    fn serve_request(&self, req: &SpecRequest, spawn_stack: bool) -> ServeResult {
        let deadline = req.deadline.or(self.default_deadline);
        match &req.target {
            SpecTarget::Ext(ext) => self.serve(
                ext,
                &req.statics,
                None,
                deadline,
                req.cancel.as_ref(),
                spawn_stack,
            ),
            SpecTarget::Named(name) => self.serve_named(
                name,
                &req.statics,
                deadline,
                req.cancel.as_ref(),
                spawn_stack,
            ),
        }
    }

    /// Resolves a registered name to its live generation and serves
    /// against it, carrying the `(name, epoch)` backedge.
    fn serve_named(
        &self,
        name: &str,
        statics: &[Datum],
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
        spawn_stack: bool,
    ) -> ServeResult {
        let Some((name, epoch, ext)) = self.programs.resolve(name) else {
            return Err(ServeError::UnknownProgram(name.to_string()));
        };
        let backedge = (name, epoch);
        self.serve(
            &ext,
            statics,
            Some(&backedge),
            deadline,
            cancel,
            spawn_stack,
        )
    }

    /// Runs a batch of requests over a bounded pool of `jobs` large-stack
    /// worker threads, returning one result per request, in order.
    /// Identical requests inside (or across) batches are deduplicated by
    /// the cache exactly as in [`SpecService::specialize`]; per-request
    /// deadlines and tokens are honoured as in
    /// [`SpecService::specialize_request`].
    ///
    /// Even with `jobs == 1` the batch runs on a pooled worker: one
    /// large-stack thread serves every miss inline, instead of paying a
    /// fresh thread spawn per miss as [`SpecService::specialize`] would.
    pub fn specialize_many(&self, requests: &[SpecRequest], jobs: usize) -> Vec<ServeResult> {
        let jobs = jobs.max(1).min(requests.len().max(1));
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<ServeResult>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        let mut spawn_error: Option<String> = None;
        std::thread::scope(|scope| {
            let mut workers = 0;
            for w in 0..jobs {
                let spawned = std::thread::Builder::new()
                    .name(format!("two4one-serve-{w}"))
                    .stack_size(self.stack_bytes)
                    .spawn_scoped(scope, || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        // Workers already run on big stacks, so serve
                        // misses inline instead of re-spawning.
                        let r = self.serve_request(req, false);
                        if let Some(slot) = results.get(i) {
                            *lock(slot) = Some(r);
                        }
                    });
                match spawned {
                    Ok(_) => workers += 1,
                    Err(e) => spawn_error = Some(e.to_string()),
                }
            }
            if workers == 0 {
                // Degenerate fallback: no pool, serve sequentially (each
                // miss still gets its own large-stack thread).
                for (req, slot) in requests.iter().zip(&results) {
                    *lock(slot) = Some(self.specialize_request(req));
                }
            }
        });
        results
            .into_iter()
            .map(|slot| {
                lock(&slot).take().unwrap_or_else(|| {
                    Err(match &spawn_error {
                        Some(msg) => ServeError::Spawn(msg.clone()),
                        None => ServeError::Worker("result never delivered".to_string()),
                    })
                })
            })
            .collect()
    }

    // ----- snapshot / restore -------------------------------------------

    /// Serializes every cached (`Ready`) entry into a `.t4os` snapshot:
    /// CRC-32-checked records in a deterministic (sorted) order, so equal
    /// cache contents produce identical bytes. In-flight fills are not
    /// included.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut records: Vec<SnapRecord> = Vec::new();
        for shard in &self.shards {
            let guard = lock(shard);
            for (key, slot) in &guard.map {
                if let Slot::Ready(entry) = slot {
                    let (name, epoch) = match &key.backedge {
                        Some((n, e)) => (n.to_string(), e.get()),
                        None => (String::new(), 0),
                    };
                    records.push(SnapRecord {
                        program: key.program.to_string(),
                        entry: key.entry.to_string(),
                        statics: key.statics.to_string(),
                        name,
                        epoch,
                        stats: entry.outcome.stats.clone(),
                        image: entry.outcome.image.clone(),
                    });
                }
            }
        }
        records.sort_by(|a, b| {
            (&a.name, a.epoch, &a.program, &a.entry, &a.statics)
                .cmp(&(&b.name, b.epoch, &b.program, &b.entry, &b.statics))
        });
        persist::encode(&records)
    }

    /// Restores entries from snapshot bytes into the cache. Corrupt or
    /// torn records are quarantined (skipped and counted), never fatal; a
    /// key that is already live in the cache keeps its live entry. The
    /// usual capacity/code budgets apply — restoring may evict.
    ///
    /// Records carrying a registry backedge are judged against the live
    /// registry first: if the name is unregistered, or the registered
    /// program's identity differs from what the record was specialized
    /// against, the record is dropped as *stale* (counted in
    /// [`RestoreReport::stale_dropped`]) — a snapshot must never
    /// resurrect specializations of source that no longer exists.
    /// Matching records are rebased onto the live epoch (epochs are
    /// per-process; identity is what travels), and their backedges are
    /// re-recorded so a later redefinition invalidates them too.
    pub fn restore_bytes(&self, bytes: &[u8]) -> RestoreReport {
        let decoded = persist::decode(bytes);
        let mut restored = 0u64;
        let mut stale_dropped = 0u64;
        for rec in decoded.records {
            let backedge: Option<Backedge> = if rec.name.is_empty() {
                None
            } else {
                match self
                    .programs
                    .live_for_identity(&rec.name, &rec.program, &rec.entry)
                {
                    Some((epoch, _)) => Some((Arc::from(rec.name.as_str()), epoch)),
                    None => {
                        stale_dropped += 1;
                        continue;
                    }
                }
            };
            let key = match &backedge {
                Some((name, epoch)) => {
                    Key::versioned(name, *epoch, &rec.program, &rec.entry, &rec.statics)
                }
                None => Key::new(&rec.program, &rec.entry, &rec.statics),
            };
            let shard = self.shard_of(&key);
            let outcome = Arc::new(SpecOutcome {
                image: rec.image,
                stats: rec.stats,
                profile: Arc::new(ExecProfile::default()),
            });
            let size = outcome.code_size().max(1);
            // The insert runs under the registry's epoch check (the same
            // tombstone gate as a live fill), so a redefinition racing
            // the restore cannot slip a newly stale record in.
            let published = self.programs.publish_if_live(backedge.as_ref(), &key, || {
                let mut guard = lock(shard);
                if guard.map.contains_key(&key) {
                    return None;
                }
                guard.map.insert(
                    key.clone(),
                    // Snapshots only ever hold full specializations, so a
                    // restored entry is never a promotion candidate.
                    Slot::Ready(Entry::new(
                        outcome.clone(),
                        self.ticket.fetch_add(1, Ordering::Relaxed),
                        size,
                        Tier::Specialized,
                    )),
                );
                guard.code_size += size;
                Some(guard.evict_to(self.per_shard_entries, self.per_shard_code))
            });
            match published {
                Some(Some(evicted)) => {
                    ServeStats::add(&self.stats.evictions, evicted);
                    restored += 1;
                }
                // The key is already live in the cache: keep the live entry.
                Some(None) => {}
                // The program was redefined between the identity check
                // and the publish: the record just became stale.
                None => stale_dropped += 1,
            }
        }
        ServeStats::add(&self.stats.restored, restored);
        ServeStats::add(&self.stats.quarantined, decoded.quarantined);
        ServeStats::add(&self.stats.stale_dropped, stale_dropped);
        if restored > 0 {
            obs::event_with(obs::EventKind::Restored, restored);
        }
        if decoded.quarantined > 0 {
            obs::event_with(obs::EventKind::Quarantined, decoded.quarantined);
        }
        if stale_dropped > 0 {
            obs::event_with(obs::EventKind::StaleDropped, stale_dropped);
        }
        RestoreReport {
            restored,
            quarantined: decoded.quarantined,
            stale_dropped,
        }
    }

    /// Snapshots the cache to `path` crash-safely: the bytes are written
    /// to a sibling temp file and renamed into place, so a crash during
    /// the write never leaves a torn file under the final name. (A torn
    /// file from a crash *mid-record* is still recovered gracefully by
    /// [`SpecService::restore`] — the tail is quarantined.)
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn snapshot(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        std::fs::write(&tmp, self.snapshot_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Restores the cache from a `.t4os` snapshot file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (a *corrupt* file is not an error:
    /// its bad records are quarantined and reported).
    pub fn restore(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<RestoreReport> {
        let bytes = std::fs::read(path)?;
        Ok(self.restore_bytes(&bytes))
    }

    // ----- staged gen-ext snapshots --------------------------------------

    /// The extension of the *live* generation of `name`, once its staged
    /// program exists: after the generation's first fill (which stages
    /// it) or a `.t4og` restore. `None` for unregistered names and right
    /// after a redefinition — the staged program retires with its
    /// generation, exactly like the residual cache entries.
    pub fn genext_of(&self, name: &str) -> Option<GenExt> {
        let (_, _, ext) = self.programs.resolve(name)?;
        ext.is_staged().then_some(ext)
    }

    /// Serializes the staged program of every registered generation that
    /// has one into a `.t4og` gen-ext snapshot: CRC-32-checked records
    /// (name, source identity, entry, epoch, staged wire form) in name
    /// order, so equal registry contents produce identical bytes.
    pub fn genext_snapshot_bytes(&self) -> Vec<u8> {
        let records: Vec<GenextSnapRecord> = self
            .programs
            .staged_entries()
            .into_iter()
            .filter_map(|(name, epoch, ext)| {
                Some(GenextSnapRecord {
                    name: name.to_string(),
                    identity: ext.cache_identity().to_string(),
                    entry: ext.entry().as_str().to_string(),
                    epoch: epoch.get(),
                    genext: ext.to_bytes().ok()?.to_vec(),
                })
            })
            .collect();
        persist::encode_genexts(&records)
    }

    /// Restores staged programs from snapshot bytes into the live
    /// generations' extensions, so the first cold miss of each restored
    /// program skips staging entirely (cross-process warm start).
    ///
    /// The same judgement as [`SpecService::restore_bytes`] applies:
    /// corrupt records are quarantined; structurally intact records whose
    /// program is unregistered, or whose recorded source identity/entry
    /// no longer match the live registration, are dropped as stale —
    /// epochs are per-process, content identity is what travels. A
    /// generation that already staged its program keeps it.
    pub fn restore_genexts_bytes(&self, bytes: &[u8]) -> GenextRestoreReport {
        let decoded = persist::decode_genexts(bytes);
        let mut report = GenextRestoreReport {
            quarantined: decoded.quarantined,
            ..GenextRestoreReport::default()
        };
        for rec in decoded.records {
            // A redefinition racing this restore retires the adopted
            // program with its generation; nothing else can see it.
            match self
                .programs
                .live_for_identity(&rec.name, &rec.identity, &rec.entry)
            {
                None => report.stale_dropped += 1,
                Some((_, ext)) => match ext.adopt_bytes(&rec.genext) {
                    Ok(()) => report.restored += 1,
                    Err(_) => report.quarantined += 1,
                },
            }
        }
        report
    }

    /// Snapshots the staged gen-exts to `path` crash-safely
    /// (temp-file-and-rename, like [`SpecService::snapshot`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn snapshot_genexts(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        std::fs::write(&tmp, self.genext_snapshot_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Restores staged gen-exts from a `.t4og` snapshot file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (a *corrupt* file is not an error:
    /// its bad records are quarantined and reported).
    pub fn restore_genexts(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<GenextRestoreReport> {
        let bytes = std::fs::read(path)?;
        Ok(self.restore_genexts_bytes(&bytes))
    }

    // ----- the serve path ------------------------------------------------

    /// Cache lookup / single-flight fill, under admission control, the
    /// per-request deadline, and the circuit breaker. `spawn_stack`
    /// selects whether a miss runs on a fresh large-stack thread (`true`,
    /// for callers on an ordinary stack) or inline (`false`, for pool
    /// workers that already have one).
    fn serve(
        &self,
        ext: &GenExt,
        statics: &[Datum],
        backedge: Option<&Backedge>,
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
        spawn_stack: bool,
    ) -> ServeResult {
        self.requests.inc();
        let _span = obs::Span::enter(obs::Phase::Serve);
        let start = Instant::now();
        let r = self.serve_inner(ext, statics, backedge, deadline, cancel, spawn_stack);
        if obs::enabled() {
            self.request_latency.record_duration(start.elapsed());
        }
        r
    }

    fn serve_inner(
        &self,
        ext: &GenExt,
        statics: &[Datum],
        backedge: Option<&Backedge>,
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
        spawn_stack: bool,
    ) -> ServeResult {
        // Arm the per-request clock. The token is shared with the caller
        // (explicit cancellation) and threaded into the specializer.
        let until = deadline.map(|d| Instant::now() + d);
        let token = match (cancel, until) {
            (None, None) => None,
            (c, u) => {
                let t = c.cloned().unwrap_or_default();
                if let (Some(at), Some(d)) = (u, deadline) {
                    t.expire_at(at, d);
                }
                Some(t)
            }
        };
        if let Some(t) = &token {
            if let Some(err) = self.stopped_error(t) {
                return Err(err);
            }
        }

        let key = request_key(ext, statics, backedge);
        let shard = self.shard_of(&key);

        // Breaker identity: registered programs by logical (name, entry)
        // with the failure streak scoped to the resolved epoch, so
        // breaker state follows the program across redefinitions without
        // one generation's record contaminating the next; anonymous
        // extensions by content digest.
        let (scope, epoch) = match backedge {
            Some((name, epoch)) => (
                BreakerScope::Named {
                    name: name.clone(),
                    entry: key.entry.clone(),
                },
                *epoch,
            ),
            None => (BreakerScope::Anon(key.program_digest), BreakerScope::ANON),
        };

        // Circuit breaker first: a tripped program never reaches the
        // cache-fill machinery (its errors are not cached, so without the
        // breaker every request would re-run the failing specialization).
        let verdict = self.breaker.preflight(&scope, epoch);
        if verdict == Verdict::Fallback {
            ServeStats::bump(&self.stats.breaker_open);
            obs::event(obs::EventKind::BreakerOpen);
            return self.breaker_fallback(ext, statics, spawn_stack);
        }

        enum Plan {
            Hit(Arc<SpecOutcome>),
            Wait(Arc<Flight>),
            Lead(Arc<Flight>),
        }

        // Set under the shard lock when this hit pushes a non-specialized
        // entry over the promotion threshold; acted on after the lock is
        // released (the queue has its own lock — never nest them).
        let mut promote: Option<u32> = None;
        let plan = {
            let mut guard = lock(shard);
            match guard.map.get_mut(&key) {
                Some(Slot::Ready(entry)) => {
                    entry.last_access = self.ticket.fetch_add(1, Ordering::Relaxed);
                    ServeStats::bump(&self.stats.hits);
                    obs::event(obs::EventKind::CacheHit);
                    if let Some(tier) = &self.core.tier {
                        if entry.tier != Tier::Specialized && !entry.queued && !entry.dead {
                            entry.hits += 1;
                            // Hotness = serve-path hits plus the image's own
                            // execution count (embedders running it through
                            // `run_image_profiled` feed the same decision).
                            if entry.hits + entry.outcome.profile.visits()
                                >= tier.promote_after.max(1)
                            {
                                entry.queued = true;
                                promote = Some(entry.escalation);
                            }
                        }
                    }
                    Plan::Hit(entry.outcome.clone())
                }
                Some(Slot::InFlight(flight)) => Plan::Wait(flight.clone()),
                None => {
                    let flight = Arc::new(Flight::default());
                    guard
                        .map
                        .insert(key.clone(), Slot::InFlight(flight.clone()));
                    obs::event(obs::EventKind::CacheMiss);
                    Plan::Lead(flight)
                }
            }
        };

        if let Some(escalation) = promote {
            self.core.enqueue_promotion(Candidate {
                key: key.clone(),
                ext: ext.clone(),
                statics: statics.to_vec(),
                backedge: backedge.cloned(),
                escalation,
            });
        }

        match plan {
            Plan::Hit(outcome) => {
                if verdict == Verdict::Probe {
                    self.breaker.record_success(&scope);
                }
                Ok(outcome)
            }
            Plan::Wait(flight) => {
                ServeStats::bump(&self.stats.coalesced);
                obs::event(obs::EventKind::Coalesced);
                let r = match flight.wait_cancellable(until, token.as_ref()) {
                    FlightWait::TimedOut => {
                        ServeStats::bump(&self.stats.deadline_exceeded);
                        obs::event(obs::EventKind::DeadlineExceeded);
                        Err(ServeError::DeadlineExceeded)
                    }
                    // The waiter's own token fired mid-wait (client gone or
                    // its deadline expired); it detaches without touching
                    // the leader, who publishes for the remaining waiters.
                    FlightWait::Detached => Err(match &token {
                        Some(t) => self.stopped_error(t).unwrap_or(ServeError::Cancelled),
                        None => ServeError::Cancelled,
                    }),
                    FlightWait::Done(Ok(outcome)) => {
                        ServeStats::bump(&self.stats.hits);
                        Ok(outcome)
                    }
                    FlightWait::Done(Err(msg)) => {
                        ServeStats::bump(&self.stats.errors);
                        Err(ServeError::Shared(msg))
                    }
                };
                // Waiters share the leader's run, which records its own
                // breaker outcome; a probing waiter only settles its
                // probe slot.
                if verdict == Verdict::Probe {
                    self.breaker_note(&scope, epoch, &r);
                }
                r
            }
            Plan::Lead(flight) => {
                // From here the in-flight slot is our responsibility: the
                // guard removes it and fails the flight if anything
                // unwinds before `finish_flight` takes over, so waiters
                // can never deadlock on an abandoned fill.
                let mut guard = FlightGuard {
                    shard,
                    key: &key,
                    flight: &flight,
                    armed: true,
                };
                let r = match self.gate.admit(until) {
                    Admission::Shed { queue_depth } => {
                        ServeStats::bump(&self.stats.shed);
                        obs::event_with(obs::EventKind::Shed, queue_depth as u64);
                        guard.abandon("request shed at admission (overload)");
                        if verdict == Verdict::Probe {
                            self.breaker.release_probe(&scope, epoch);
                        }
                        return Err(ServeError::Overloaded {
                            queue_depth,
                            retry_after_ms: 10 * (queue_depth as u64 + 1),
                        });
                    }
                    Admission::TimedOut => {
                        ServeStats::bump(&self.stats.deadline_exceeded);
                        obs::event(obs::EventKind::DeadlineExceeded);
                        guard.abandon("request deadline passed while queued for admission");
                        if verdict == Verdict::Probe {
                            self.breaker.release_probe(&scope, epoch);
                        }
                        return Err(ServeError::DeadlineExceeded);
                    }
                    Admission::Admitted(permit) => {
                        // Tier-0: answer the miss with the generically-
                        // compiled image (linear in the source, tens of
                        // microseconds) and leave full specialization to
                        // the background promotion workers. Otherwise run
                        // the full specializer synchronously, as ever.
                        let tier0 = self.core.tier.is_some();
                        let result = self.on_stack(spawn_stack, || {
                            if let Some(hook) = &self.fill_hook {
                                (hook.0)();
                            }
                            if tier0 {
                                self.generic_image(ext, statics, token.as_ref())
                            } else {
                                self.fill(ext, statics, &key, token.as_ref())
                            }
                        });
                        drop(permit);
                        guard.armed = false;
                        self.finish_flight(
                            ext,
                            statics,
                            &key,
                            backedge,
                            shard,
                            &flight,
                            result,
                            token.as_ref(),
                            tier0,
                        )
                    }
                };
                self.breaker_note(&scope, epoch, &r);
                r
            }
        }
    }
}

impl Core {
    /// Runs `work` behind the fill boundary: on a fresh large-stack
    /// thread when `spawn_stack` is set (callers on an ordinary stack),
    /// inline otherwise (pool workers already have one). Either way a
    /// panic becomes [`ServeError::Worker`]. Staging and the object
    /// builder still recurse, which is what the big stack is for.
    fn on_stack<T: Send>(
        &self,
        spawn_stack: bool,
        work: impl FnOnce() -> T + Send,
    ) -> Result<T, ServeError> {
        if spawn_stack {
            run_on_stack(self.stack_bytes, work)
        } else {
            // The panic boundary here mirrors the thread-join boundary of
            // `run_on_stack`.
            catch_unwind(AssertUnwindSafe(work))
                .map_err(|_| ServeError::Worker("specialization worker panicked".to_string()))
        }
    }

    /// Stages `ext` for the gen-ext machine unless a clone of it already
    /// has, counting the build. A registered generation stages once: its
    /// clones share the staged program until a redefinition retires it.
    fn stage(&self, ext: &GenExt) -> Result<(), Error> {
        if ext.stage()? {
            ServeStats::bump(&self.stats.genext_builds);
        }
        Ok(())
    }

    /// Runs one specializer fill, with escalated-budget retry for a
    /// transiently degraded first attempt (see [`RetryPolicy`]).
    fn fill(
        &self,
        ext: &GenExt,
        statics: &[Datum],
        key: &Key,
        token: Option<&CancelToken>,
    ) -> Result<(Image, SpecStats), Error> {
        self.stage(ext)?;
        let mut result = ext.specialize_object_governed(statics, ext.options(), token);
        let mut attempt: u32 = 0;
        while attempt < self.retry.max_retries {
            let transient = matches!(
                &result,
                Ok((_, stats)) if matches!(
                    stats.fallback_kind,
                    Some(LimitKind::UnfoldFuel | LimitKind::MemoEntries)
                )
            );
            if !transient || token.is_some_and(|t| t.is_stopped()) {
                break;
            }
            attempt += 1;
            ServeStats::bump(&self.stats.retried);
            obs::event_with(obs::EventKind::Retry, u64::from(attempt));
            std::thread::sleep(jittered(
                self.retry.backoff,
                key.digest ^ u64::from(attempt),
            ));
            let factor = self.retry.escalation.max(1).saturating_pow(attempt);
            let escalated = escalate_options(ext.options(), factor);
            match ext.specialize_object_governed(statics, &escalated, token) {
                // A bigger budget got at least as far: keep it. Stop as
                // soon as a run finishes without degrading.
                Ok((image, stats)) => {
                    let done = !stats.degraded();
                    result = Ok((image, stats));
                    if done {
                        break;
                    }
                }
                // Escalation failing outright (it raced a deadline, say)
                // never discards the degraded-but-usable image.
                Err(_) => break,
            }
        }
        result
    }

    /// The generic image of a request: generic compilation with no
    /// unfolding — zero unfold fuel under the fallback regime, i.e. every
    /// reachable definition compiled as-is. Linear in the source program
    /// and deterministic, so the Tier-0 fill (which caches it, marked
    /// [`Tier::Generic`], until promotion replaces it) and the breaker
    /// fallback (which never caches it) produce bit-identical images for
    /// one request.
    fn generic_image(
        &self,
        ext: &GenExt,
        statics: &[Datum],
        token: Option<&CancelToken>,
    ) -> Result<(Image, SpecStats), Error> {
        self.stage(ext)?;
        let mut options = ext.options().clone();
        options.limits.unfold_fuel = Some(0);
        options.fallback = true;
        ext.specialize_object_governed(statics, &options, token)
    }

    /// Publishes the leader's result: fills the cache on success, removes
    /// the in-flight slot on failure, and wakes waiters either way.
    ///
    /// A successful fill for a registered program only reaches the cache
    /// if its `(name, epoch)` backedge is still the live generation (the
    /// check and the insert run under the registry lock, so they cannot
    /// interleave with a `redefine`). When the epoch died mid-fill, the
    /// result is still completed into the flight — every waiter on it
    /// arrived before the redefinition and legitimately shares the
    /// old-generation result — but the publication is tombstoned: the
    /// in-flight slot is removed and nothing is cached, so no request
    /// arriving after the redefinition can ever observe it.
    ///
    /// With `tier0` set the published entry is marked [`Tier::Generic`]
    /// (the fill was the generic fast path, not a specializer run):
    /// `ext`/`statics` seed the promotion candidate when
    /// `promote_after == 0` asks for immediate background specialization.
    #[allow(clippy::too_many_arguments)]
    fn finish_flight(
        &self,
        ext: &GenExt,
        statics: &[Datum],
        key: &Key,
        backedge: Option<&Backedge>,
        shard: &Mutex<Shard>,
        flight: &Flight,
        result: Result<Result<(Image, SpecStats), Error>, ServeError>,
        token: Option<&CancelToken>,
        tier0: bool,
    ) -> ServeResult {
        match result {
            Ok(Ok((image, spec_stats))) => {
                let outcome = Arc::new(SpecOutcome {
                    image: Arc::new(image),
                    stats: spec_stats,
                    profile: Arc::new(ExecProfile::default()),
                });
                let size = outcome.code_size().max(1);
                let enqueue_now = tier0 && self.tier.as_ref().is_some_and(|t| t.promote_after == 0);
                let published = self.programs.publish_if_live(backedge, key, || {
                    let mut guard = lock(shard);
                    let mut entry = Entry::new(
                        outcome.clone(),
                        self.ticket.fetch_add(1, Ordering::Relaxed),
                        size,
                        if tier0 {
                            Tier::Generic
                        } else {
                            Tier::Specialized
                        },
                    );
                    entry.queued = enqueue_now;
                    guard.map.insert(key.clone(), Slot::Ready(entry));
                    guard.code_size += size;
                    guard.evict_to(self.per_shard_entries, self.per_shard_code)
                });
                ServeStats::bump(&self.stats.misses);
                if tier0 {
                    // Not a specializer run: the requester got the
                    // generic image. `spec_runs` stays a count of real
                    // specializations (the promotion worker bumps it).
                    self.tier_stats.tier0_served.inc();
                    obs::event(obs::EventKind::Tier0Served);
                } else {
                    ServeStats::bump(&self.stats.spec_runs);
                }
                match published {
                    Some(evicted) => {
                        ServeStats::add(&self.stats.evictions, evicted);
                        if enqueue_now {
                            self.enqueue_promotion(Candidate {
                                key: key.clone(),
                                ext: ext.clone(),
                                statics: statics.to_vec(),
                                backedge: backedge.cloned(),
                                escalation: 0,
                            });
                        }
                    }
                    None => {
                        // Tombstoned: drop our in-flight slot so the dead
                        // generation's key does not linger in the shard.
                        lock(shard).map.remove(key);
                        ServeStats::bump(&self.stats.epoch_conflicts);
                        obs::event(obs::EventKind::EpochConflict);
                    }
                }
                if !tier0 && outcome.stats.degraded() {
                    // A Tier-0 image is degraded by construction (fuel 0);
                    // counting it would drown the real signal.
                    ServeStats::bump(&self.stats.degraded);
                }
                flight.complete(Ok(outcome.clone()));
                Ok(outcome)
            }
            Ok(Err(engine_err)) => {
                lock(shard).map.remove(key);
                if !tier0 {
                    ServeStats::bump(&self.stats.spec_runs);
                }
                let serve_err = match cancellation_of(&engine_err, token) {
                    Some(e) => {
                        if matches!(e, ServeError::DeadlineExceeded) {
                            ServeStats::bump(&self.stats.deadline_exceeded);
                        }
                        e
                    }
                    None => {
                        ServeStats::bump(&self.stats.errors);
                        ServeError::Spec(engine_err)
                    }
                };
                flight.complete(Err(serve_err.to_string()));
                Err(serve_err)
            }
            Err(serve_err) => {
                lock(shard).map.remove(key);
                ServeStats::bump(&self.stats.errors);
                flight.complete(Err(serve_err.to_string()));
                Err(serve_err)
            }
        }
    }

    /// Hands a candidate to the promotion workers. Never blocks the
    /// serve path: when the queue is full (or the service is shutting
    /// down) the candidate is dropped and its cache entry re-armed, so a
    /// later hit simply tries again.
    fn enqueue_promotion(&self, cand: Candidate) {
        let Some(tier) = &self.tier else { return };
        let key = cand.key.clone();
        let accepted = {
            let mut q = lock(&tier.queue);
            if q.closed || q.q.len() >= PROMOTE_QUEUE_CAP {
                false
            } else {
                q.q.push_back(cand);
                true
            }
        };
        if accepted {
            self.tier_stats.queue_depth.add(1);
            tier.cv.notify_one();
            obs::event(obs::EventKind::PromoteEnqueued);
        } else if let Some(Slot::Ready(entry)) = lock(self.shard_of(&key)).map.get_mut(&key) {
            entry.queued = false;
        }
    }

    /// Body of one background promotion worker: pop candidates until the
    /// queue closes.
    fn promote_loop(&self) {
        let Some(tier) = &self.tier else { return };
        loop {
            let cand = {
                let mut q = lock(&tier.queue);
                loop {
                    // Closed beats non-empty: shutdown discards whatever
                    // is still queued instead of racing `Drop`'s join.
                    if q.closed {
                        return;
                    }
                    if let Some(c) = q.q.pop_front() {
                        break c;
                    }
                    q = tier.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.tier_stats.queue_depth.add(-1);
            self.promote_one(cand);
        }
    }

    /// Specializes one hot candidate off the request path and hot-swaps
    /// the result into its cache slot — *if* the entry is still there and
    /// its generation is still live. The swap runs under the registry's
    /// epoch check, exactly like a request-path publication: a `redefine`
    /// that lands mid-build tombstones the swap and the stale image is
    /// dropped on the floor.
    fn promote_one(&self, cand: Candidate) {
        let t0 = Instant::now();
        let factor = self.retry.escalation.max(1).saturating_pow(cand.escalation);
        let options = if cand.escalation == 0 {
            cand.ext.options().clone()
        } else {
            // Polyvariant re-specialization of a hot-but-degraded entry:
            // same escalation ladder as the request-path retry.
            escalate_options(cand.ext.options(), factor)
        };
        // The generation's staged program is normally in place already:
        // the Tier-0 fill that published the candidate staged it.
        let built = catch_unwind(AssertUnwindSafe(|| {
            self.stage(&cand.ext)?;
            cand.ext
                .specialize_object_governed(&cand.statics, &options, None)
        }));
        let (image, spec_stats) = match built {
            Ok(Ok(r)) => r,
            // Specializer failed or panicked: demote. The generic image
            // keeps serving and this entry is never promoted again — its
            // failures must not re-run the specializer on every N hits.
            _ => {
                self.tier_stats.demotions.inc();
                obs::event(obs::EventKind::Demoted);
                let mut guard = lock(self.shard_of(&cand.key));
                if let Some(Slot::Ready(entry)) = guard.map.get_mut(&cand.key) {
                    entry.queued = false;
                    entry.dead = true;
                }
                return;
            }
        };
        let degraded = spec_stats.degraded();
        ServeStats::bump(&self.stats.spec_runs);
        if degraded {
            ServeStats::bump(&self.stats.degraded);
        }
        let outcome = Arc::new(SpecOutcome {
            image: Arc::new(image),
            stats: spec_stats,
            profile: Arc::new(ExecProfile::default()),
        });
        let size = outcome.code_size().max(1);
        let next_escalation = (cand.escalation + 1).min(MAX_ESCALATIONS);
        let dead = degraded && cand.escalation >= MAX_ESCALATIONS;
        let shard = self.shard_of(&cand.key);
        let published = self
            .programs
            .publish_if_live(cand.backedge.as_ref(), &cand.key, || {
                let mut guard = lock(shard);
                let shard_ref = &mut *guard;
                match shard_ref.map.get_mut(&cand.key) {
                    Some(Slot::Ready(entry)) => {
                        shard_ref.code_size =
                            shard_ref.code_size - entry.size.min(shard_ref.code_size) + size;
                        let mut next = Entry::new(
                            outcome.clone(),
                            entry.last_access,
                            size,
                            if degraded {
                                Tier::Degraded
                            } else {
                                Tier::Specialized
                            },
                        );
                        // A still-degraded swap re-arms with a bigger
                        // budget next round (until the ladder runs out);
                        // a clean one is final.
                        next.escalation = if degraded { next_escalation } else { 0 };
                        next.dead = dead;
                        *entry = next;
                        Some(shard_ref.evict_to(self.per_shard_entries, self.per_shard_code))
                    }
                    // Evicted, invalidated, or replaced by a fresh flight
                    // while we built: nothing to swap into.
                    _ => None,
                }
            });
        match published {
            Some(Some(evicted)) => {
                ServeStats::add(&self.stats.evictions, evicted);
                self.tier_stats.promotions.inc();
                self.tier_stats
                    .promotion_nanos
                    .record_duration(t0.elapsed());
                obs::event(obs::EventKind::Promoted);
            }
            // The slot vanished mid-build; drop the image silently.
            Some(None) => {}
            // The generation died mid-build (`redefine` raced us): the
            // stale-epoch image must never be swapped in.
            None => {
                self.tier_stats.swap_epoch_conflicts.inc();
                obs::event(obs::EventKind::SwapEpochConflict);
            }
        }
    }
}

impl SpecService {
    /// Serves generic (no-unfolding) fallback code for a program whose
    /// breaker is open. The result is *not* cached: it must disappear the
    /// moment the breaker closes, and producing it is linear in the
    /// source program.
    fn breaker_fallback(&self, ext: &GenExt, statics: &[Datum], spawn_stack: bool) -> ServeResult {
        match self.on_stack(spawn_stack, || self.generic_image(ext, statics, None)) {
            Ok(Ok((image, stats))) => Ok(Arc::new(SpecOutcome {
                image: Arc::new(image),
                stats,
                profile: Arc::new(ExecProfile::default()),
            })),
            Ok(Err(e)) => Err(ServeError::BreakerOpen(e.to_string())),
            Err(e) => Err(ServeError::BreakerOpen(e.to_string())),
        }
    }

    /// Maps a fired token to the corresponding request error, bumping the
    /// deadline counter.
    fn stopped_error(&self, token: &CancelToken) -> Option<ServeError> {
        if token.is_cancelled() {
            Some(ServeError::Cancelled)
        } else if token.deadline_expired() {
            ServeStats::bump(&self.stats.deadline_exceeded);
            Some(ServeError::DeadlineExceeded)
        } else {
            None
        }
    }

    /// Feeds a leader/probe outcome to the breaker. Hard failures
    /// (specialization errors, dead workers, blown deadlines) count
    /// toward tripping; overload sheds and explicit cancellations are
    /// neutral.
    fn breaker_note(&self, scope: &BreakerScope, epoch: Epoch, result: &ServeResult) {
        match result {
            Ok(_) => self.breaker.record_success(scope),
            Err(
                ServeError::Spec(_)
                | ServeError::Worker(_)
                | ServeError::Shared(_)
                | ServeError::DeadlineExceeded,
            ) => self.breaker.record_failure(scope, epoch),
            Err(_) => self.breaker.release_probe(scope, epoch),
        }
    }
}

/// Removes the in-flight slot and fails the flight when a leader bails
/// out before `finish_flight` — including by panic. Without this, a
/// worker that dies mid-fill would leave an `InFlight` slot behind
/// forever and every later requester for the key would block on it.
struct FlightGuard<'a> {
    shard: &'a Mutex<Shard>,
    key: &'a Key,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl FlightGuard<'_> {
    /// Controlled bail-out with a meaningful message for waiters.
    fn abandon(&mut self, msg: &str) {
        self.armed = false;
        lock(self.shard).map.remove(self.key);
        self.flight.complete(Err(msg.to_string()));
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            lock(self.shard).map.remove(self.key);
            self.flight.complete(Err(
                "specialization fill abandoned (worker panicked)".to_string()
            ));
        }
    }
}

/// Classifies an engine error as a request cancellation, if it is one.
fn cancellation_of(err: &Error, token: Option<&CancelToken>) -> Option<ServeError> {
    match err {
        Error::Pe(PeError::Limit(l)) if l.kind == LimitKind::Cancelled => {
            Some(if token.is_some_and(CancelToken::is_cancelled) {
                ServeError::Cancelled
            } else {
                ServeError::DeadlineExceeded
            })
        }
        _ => None,
    }
}

/// Multiplies the transient budgets (unfold fuel, memo cap) for a retry.
fn escalate_options(options: &SpecOptions, factor: u64) -> SpecOptions {
    let mut o = options.clone();
    if let Some(fuel) = o.limits.unfold_fuel {
        o.limits.unfold_fuel = Some(fuel.saturating_mul(factor));
    }
    if let Some(cap) = o.limits.memo_cap {
        o.limits.memo_cap = Some(cap.saturating_mul(factor as usize));
    }
    o
}

/// Deterministic 50–150 % jitter around `base`, seeded by the request
/// key (SplitMix64 scramble) so tests are reproducible.
fn jittered(base: Duration, seed: u64) -> Duration {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let pct = 50 + (z % 101) as u32;
    base * pct / 100
}

/// Builds the full cache key for a request: the extension's cache
/// identity (annotated program + options, rendered once per extension and
/// cached — see [`GenExt::cache_identity`]), the entry name, and the
/// rendered static arguments — plus, for requests resolved through the
/// registry, the `(name, epoch)` backedge, so two generations of one
/// program can never alias. Only the statics are rendered per request.
fn request_key(ext: &GenExt, statics: &[Datum], backedge: Option<&Backedge>) -> Key {
    let mut rendered = String::new();
    for (i, d) in statics.iter().enumerate() {
        if i > 0 {
            rendered.push(' ');
        }
        let _ = std::fmt::Write::write_fmt(&mut rendered, format_args!("{d}"));
    }
    match backedge {
        Some((name, epoch)) => Key::versioned(
            name,
            *epoch,
            ext.cache_identity(),
            ext.entry().as_str(),
            &rendered,
        ),
        None => Key::new(ext.cache_identity(), ext.entry().as_str(), &rendered),
    }
}

/// Runs `f` on a dedicated thread with `bytes` of stack, for the deeply
/// recursive specializer phases.
fn run_on_stack<T: Send>(bytes: usize, f: impl FnOnce() -> T + Send) -> Result<T, ServeError> {
    std::thread::scope(|scope| {
        let handle = std::thread::Builder::new()
            .name("two4one-spec".into())
            .stack_size(bytes)
            // Carry the worker's trace ring back so the request's spans
            // and events stay on the requesting thread's trace.
            .spawn_scoped(scope, move || {
                let result = f();
                (result, obs::take_trace())
            })
            .map_err(|e| ServeError::Spawn(e.to_string()))?;
        let (result, trace) = handle
            .join()
            .map_err(|_| ServeError::Worker("specialization worker panicked".to_string()))?;
        obs::absorb_trace(trace);
        Ok(result)
    })
}

// The service is shared by reference across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpecService>();
    assert_send_sync::<SpecOutcome>();
    assert_send_sync::<SpecRequest>();
    assert_send_sync::<SpecTarget>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<ServeSnapshot>();
    assert_send_sync::<RedefineOutcome>();
    assert_send_sync::<GenextRestoreReport>();
    assert_send_sync::<TierSnapshot>();
};
