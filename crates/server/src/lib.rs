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
//! runs on a large-stack thread — the requesting thread's persistent fill
//! companion, or the batch or promotion worker itself — with a private
//! specializer state (memo tables, gensym, fuel), so requests never
//! contend except on the shard mutex for the few microseconds of a lookup
//! or fill. Results are handed out as `Arc<SpecOutcome>`: a warm hit is
//! one shard-mutex acquisition and one atomic refcount increment.

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

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use admission::{Admission, Gate, Permit};
use breaker::{Breaker, BreakerScope, Verdict};
use cache::{lock, Entry, Flight, FlightWait, Key, Promotion, Shard, Slot};
use persist::{GenextSnapRecord, SnapRecord};
use registry::{Backedge, Registry};
use stats::ServeStats;
use two4one::obs;
use two4one::{
    CacheIdentity, CancelToken, Datum, Epoch, Error, ExecProfile, GenExt, Image, LimitKind, Limits,
    PeError, SpecOptions, SpecStats,
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
    /// Another requester led the flight for the same key and failed — in
    /// the engine, or shed or timed out at admission; the leader's error
    /// is shared as a rendered message (engine errors are not cloneable).
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
    /// Bound on the *total* residual code the cache may hold, in
    /// instructions (LRU-ish eviction keeps the cache under it); `None`
    /// for no bound. Defaults to the engine's default code cap.
    pub code_budget: Option<usize>,
    /// Maximum concurrent specializer fills (admission gate). Clamped to
    /// at least 1. Cache hits and coalesced waiters bypass the gate.
    pub max_inflight: usize,
    /// Requests allowed to queue for admission when `max_inflight` fills
    /// are running; anything beyond is shed with
    /// [`ServeError::Overloaded`].
    pub queue_bound: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
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
            code_budget: Limits::default().code_cap,
            max_inflight: 32,
            queue_bound: 256,
            default_deadline: None,
            breaker: BreakerPolicy::default(),
            fill_hook: None,
            tier0: false,
            promote_after: 2,
            promote_workers: 1,
        }
    }
}

/// What a restore pass recovered from a snapshot file: a `.t4os` cache
/// snapshot ([`SpecService::restore`]) or a `.t4og` gen-ext snapshot
/// ([`SpecService::restore_genexts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Cache entries, or staged programs, restored.
    pub restored: u64,
    /// Records rejected: bad checksum, torn tail, bad header or stale
    /// version, or an undecodable payload. (A cache record whose key is
    /// already live is skipped silently — it is valid, just outdated.)
    pub quarantined: u64,
    /// Structurally intact records dropped because their program's
    /// registration no longer matches the live registry: the name is
    /// unregistered, or the registered source/entry/options differ from
    /// what the record was made from. Judged by content identity, not
    /// raw epoch number, so a snapshot restores cleanly into a fresh
    /// process that re-registered the same programs.
    pub stale_dropped: u64,
}

/// Promotion queue bound: a hot-set larger than this simply waits for a
/// later hit to re-arm — the generic image keeps serving meanwhile, so
/// dropping a candidate costs latency, never correctness.
const PROMOTE_QUEUE_CAP: usize = 256;

/// Escalated re-runs a request-path fill may spend on starvation: one,
/// at ×4, so a requester waits for at most two specializer runs.
const REQUEST_RETRIES: u32 = 1;

/// Escalated re-runs a background promotion may spend: ×4, ×16, ×64,
/// all in one job — nobody is waiting on it, and a generic image serves
/// meanwhile.
const PROMOTION_RETRIES: u32 = 3;

/// Factor each re-run multiplies the transient budgets (unfold fuel, memo
/// cap) by.
const ESCALATION: u64 = 4;

/// One queued background promotion: everything `promote_one` needs to
/// re-run the specializer for a cache entry off the request path.
#[derive(Debug)]
struct Candidate {
    key: Key,
    ext: GenExt,
    statics: Vec<Datum>,
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
    /// Background specializations hot-swapped into the cache. A promoted
    /// entry is swapped once: its escalated re-runs, if starvation
    /// needs any, happen inside the one background job.
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
    ticket: AtomicU64,
    stats: ServeStats,
    /// The versioned program registry: logical names → live epoch +
    /// source, plus the invalidation backedges of everything cached on
    /// their behalf. (Not to be confused with the *metrics* registry on
    /// [`SpecService`].)
    programs: Registry,
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
        let per_shard_entries = config.max_entries.div_ceil(nshards).max(1);
        let per_shard_code = config.code_budget.map(|c| c.div_ceil(nshards).max(1));
        let shards = (0..nshards)
            .map(|_| Mutex::new(Shard::new(per_shard_entries, per_shard_code)))
            .collect();
        let registry = Arc::new(obs::MetricsRegistry::new());
        // Ensure the global pipeline families (phase histograms, spec
        // counters, fill threads) exist too, so a freshly built service
        // can expose the complete page before serving anything.
        two4one::init_metrics();
        let _ = fill_threads_started();
        let core = Arc::new(Core {
            shards,
            ticket: AtomicU64::new(0),
            stats: ServeStats::register(&registry),
            programs: Registry::new(registry.gauge("t4o_programs_registered")),
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
                    .stack_size(DEFAULT_STACK_BYTES)
                    .spawn(move || {
                        mark_big_stack();
                        worker.promote_loop();
                    });
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
    /// the same key are deduplicated: one requester runs the specializer,
    /// the rest wait and share its result. The specializer runs on the
    /// requesting thread's fill companion: a large-stack thread spawned on
    /// the thread's first miss and reused by every later one (a thread
    /// that already has a big stack fills inline). Runs under
    /// [`ServeConfig::default_deadline`], if set.
    ///
    /// # Errors
    ///
    /// Propagates specialization failures ([`ServeError::Spec`] for the
    /// leading requester, [`ServeError::Shared`] for coalesced waiters),
    /// sheds under overload ([`ServeError::Overloaded`]), and enforces
    /// deadlines ([`ServeError::DeadlineExceeded`]). Errors are never
    /// cached: the next request for the key retries.
    pub fn specialize(&self, ext: &GenExt, statics: &[Datum]) -> ServeResult {
        let target = SpecTarget::Ext(ext.clone());
        self.serve(&target, statics, self.default_deadline, None)
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
        let target = SpecTarget::Named(Arc::from(name));
        self.serve(&target, statics, self.default_deadline, None)
    }
}

impl Core {
    /// Drops invalidated dependents from the cache shards (only `Ready`
    /// entries — an in-flight slot belongs to its leader, whose
    /// publication the registry tombstones instead). Returns how many
    /// were dropped.
    fn invalidate(&self, victims: Vec<Key>) -> u64 {
        let dropped = victims
            .iter()
            .filter(|key| lock(self.shard_of(key)).remove_ready(key))
            .count() as u64;
        if dropped > 0 {
            self.stats.invalidated.add(dropped);
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
        let deadline = req.deadline.or(self.default_deadline);
        self.serve(&req.target, &req.statics, deadline, req.cancel.as_ref())
    }

    /// Runs a batch of requests over a bounded pool of `jobs` large-stack
    /// worker threads, returning one result per request, in order.
    /// Identical requests inside (or across) batches are deduplicated by
    /// the cache exactly as in [`SpecService::specialize`]; per-request
    /// deadlines and tokens are honoured as in
    /// [`SpecService::specialize_request`].
    ///
    /// Even with `jobs == 1` the batch runs on a pooled worker: one
    /// large-stack thread serves every miss inline, with no hand-off to a
    /// fill companion as [`SpecService::specialize`] makes.
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
                    .stack_size(DEFAULT_STACK_BYTES)
                    .spawn_scoped(scope, || {
                        // Workers already run on big stacks, so they fill
                        // inline.
                        mark_big_stack();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(req) = requests.get(i) else { break };
                            let r = self.specialize_request(req);
                            if let Some(slot) = results.get(i) {
                                *lock(slot) = Some(r);
                            }
                        }
                    });
                match spawned {
                    Ok(_) => workers += 1,
                    Err(e) => spawn_error = Some(e.to_string()),
                }
            }
            if workers == 0 {
                // Degenerate fallback: no pool, serve sequentially (the
                // misses go to this thread's fill companion).
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

    /// Serializes every finished cache entry into a `.t4os` snapshot:
    /// CRC-32-checked records in a deterministic (sorted) order, so equal
    /// cache contents produce identical bytes. In-flight fills are not
    /// included, and neither are Tier-0 generic images still awaiting
    /// promotion: a restored record is final and would never be promoted.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut finals: Vec<(Key, Arc<SpecOutcome>)> = Vec::new();
        for shard in &self.shards {
            let guard = lock(shard);
            for (key, slot) in &guard.map {
                let Slot::Ready(entry) = slot else { continue };
                if entry.promotion == Promotion::Final {
                    finals.push((key.clone(), entry.outcome.clone()));
                }
            }
        }
        let mut records: Vec<SnapRecord> = finals
            .iter()
            .map(|(key, outcome)| {
                let (name, epoch) = match &key.backedge {
                    Some((n, e)) => (&**n, e.get()),
                    None => ("", 0),
                };
                SnapRecord {
                    program: &key.program,
                    entry: &key.entry,
                    statics: &key.statics,
                    name,
                    epoch,
                    stats: outcome.stats.clone(),
                    image: outcome.image.clone(),
                }
            })
            .collect();
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
            // A named record takes the live extension's identity, equal to
            // the record's by `live_for_identity`, so its key shares the
            // identity text and digest instead of copying and hashing them.
            let key = if rec.name.is_empty() {
                Key::new(&CacheIdentity::new(rec.program), rec.entry, rec.statics)
            } else if let Some((epoch, ext)) =
                self.programs
                    .live_for_identity(rec.name, rec.program, rec.entry)
            {
                let name: Arc<str> = Arc::from(rec.name);
                Key::versioned(&name, epoch, ext.cache_identity(), rec.entry, rec.statics)
            } else {
                stale_dropped += 1;
                continue;
            };
            // Snapshots only ever hold final entries, so a restored entry
            // is never a promotion candidate.
            let entry = Entry::new(
                new_outcome(rec.image, rec.stats),
                self.ticket.fetch_add(1, Ordering::Relaxed),
                Promotion::Final,
            );
            // A key already live in the cache keeps its live entry.
            match self.publish(&key, entry, |slot, _| slot.is_none()) {
                Some(true) => restored += 1,
                Some(false) => {}
                // The program was redefined between the identity check
                // and the publish: the record just became stale.
                None => stale_dropped += 1,
            }
        }
        self.note_restore(RestoreReport {
            restored,
            quarantined: decoded.quarantined,
            stale_dropped,
        })
    }

    /// Counts a restore pass — of either snapshot kind — on the service
    /// counters and the trace, and returns its report.
    fn note_restore(&self, report: RestoreReport) -> RestoreReport {
        self.stats.restored.add(report.restored);
        self.stats.quarantined.add(report.quarantined);
        self.stats.stale_dropped.add(report.stale_dropped);
        for (kind, n) in [
            (obs::EventKind::Restored, report.restored),
            (obs::EventKind::Quarantined, report.quarantined),
            (obs::EventKind::StaleDropped, report.stale_dropped),
        ] {
            if n > 0 {
                obs::event_with(kind, n);
            }
        }
        report
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
        write_atomically(path.as_ref(), &self.snapshot_bytes())
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
                    identity: ext.cache_identity().text().to_string(),
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
    /// generation that already staged its program keeps it. The pass
    /// moves the same service counters and emits the same events as a
    /// cache restore.
    pub fn restore_genexts_bytes(&self, bytes: &[u8]) -> RestoreReport {
        let decoded = persist::decode_genexts(bytes);
        let mut report = RestoreReport {
            quarantined: decoded.quarantined,
            ..RestoreReport::default()
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
        self.note_restore(report)
    }

    /// Snapshots the staged gen-exts to `path` crash-safely
    /// (temp-file-and-rename, like [`SpecService::snapshot`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn snapshot_genexts(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        write_atomically(path.as_ref(), &self.genext_snapshot_bytes())
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
    ) -> std::io::Result<RestoreReport> {
        let bytes = std::fs::read(path)?;
        Ok(self.restore_genexts_bytes(&bytes))
    }

    // ----- the serve path ------------------------------------------------

    /// The request path, one stage after another: resolve a registered
    /// name, arm the clock, ask the breaker, probe the cache, then either
    /// wait on another leader's flight or lead one — admit, fill (or build
    /// the Tier-0 generic image), publish. A fill runs behind
    /// [`on_stack`]: on the requesting thread's fill companion, or inline
    /// on a thread that already has a big stack.
    fn serve(
        &self,
        target: &SpecTarget,
        statics: &[Datum],
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> ServeResult {
        // Resolve. A registered name binds the cache key, the breaker
        // scope and the invalidation backedge to its live generation. An
        // unknown name is refused before it counts as a request.
        let live;
        let (ext, backedge) = match target {
            SpecTarget::Ext(ext) => (ext, None),
            SpecTarget::Named(name) => {
                let Some((name, epoch, ext)) = self.programs.resolve(name) else {
                    return Err(ServeError::UnknownProgram(name.to_string()));
                };
                live = ext;
                (&live, Some((name, epoch)))
            }
        };
        self.requests.inc();
        let _span = obs::Span::enter(obs::Phase::Serve);
        let start = Instant::now();
        let r = self.serve_resolved(ext, backedge, statics, deadline, cancel);
        if obs::enabled() {
            self.request_latency.record_duration(start.elapsed());
        }
        r
    }

    /// The stages of [`SpecService::serve`] after resolution.
    fn serve_resolved(
        &self,
        ext: &GenExt,
        backedge: Option<Backedge>,
        statics: &[Datum],
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> ServeResult {
        // Arm the clock. The token is shared with the caller (explicit
        // cancellation) and threaded into the specializer.
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
        if let Some(err) = token.as_ref().and_then(|t| self.stopped_error(t)) {
            return Err(err);
        }

        // Ask the breaker. Registered programs are judged by logical
        // (name, entry), with the failure streak scoped to the resolved
        // epoch, so breaker state follows the program across
        // redefinitions without one generation's record contaminating the
        // next; anonymous extensions by content digest. A tripped program
        // never reaches the cache-fill machinery (its errors are not
        // cached, so without the breaker every request would re-run the
        // failing specialization): it gets its generic image, which is
        // never cached either — it must disappear the moment the breaker
        // closes.
        let key = request_key(ext, statics, backedge.as_ref());
        let (scope, epoch) = match &key.backedge {
            Some((name, epoch)) => (
                BreakerScope::Named {
                    name: name.clone(),
                    entry: key.entry.clone(),
                },
                *epoch,
            ),
            None => (BreakerScope::Anon(key.program_digest), BreakerScope::ANON),
        };
        let verdict = self.breaker.preflight(&scope, epoch);
        if verdict == Verdict::Fallback {
            self.stats.breaker_open.inc();
            obs::event(obs::EventKind::BreakerOpen);
            let (core, ext, statics) = (self.core.clone(), ext.clone(), statics.to_vec());
            return on_stack(move || core.generic_image(&ext, &statics, None))
                .map(|(image, stats)| new_outcome(image, stats))
                .map_err(|e| ServeError::BreakerOpen(e.to_string()));
        }

        // Probe the cache.
        enum Plan {
            Hit(Arc<SpecOutcome>),
            Wait(Arc<Flight>),
            Lead(Arc<Flight>),
        }
        let shard = self.shard_of(&key);
        // Set under the shard lock when this hit pushes a pending Tier-0
        // entry over the promotion threshold; acted on after the lock is
        // released (the queue has its own lock — never nest them).
        let mut promote = false;
        let plan = {
            let mut guard = lock(shard);
            match guard.map.get_mut(&key) {
                Some(Slot::Ready(entry)) => {
                    entry.last_access = self.ticket.fetch_add(1, Ordering::Relaxed);
                    self.stats.hits.inc();
                    obs::event(obs::EventKind::CacheHit);
                    if let Some(tier) = &self.core.tier {
                        if entry.promotion == Promotion::Pending {
                            entry.hits += 1;
                            // Hotness = serve-path hits plus the image's own
                            // execution count (embedders running it through
                            // `run_image_profiled` feed the same decision).
                            if entry.hits + entry.outcome.profile.visits()
                                >= tier.promote_after.max(1)
                            {
                                entry.promotion = Promotion::Queued;
                                promote = true;
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
        if promote {
            self.core.enqueue_promotion(&key, ext, statics);
        }

        let r = match plan {
            Plan::Hit(outcome) => Ok(outcome),
            Plan::Wait(flight) => self.wait(&flight, until, token.as_ref()),
            Plan::Lead(flight) => {
                // From here the in-flight slot is this leader's: the guard
                // removes it and completes the flight on every way out, a
                // panic included, so waiters never block on an abandoned
                // fill.
                let guard = FlightGuard {
                    shard,
                    key: &key,
                    flight,
                    armed: true,
                };
                // Admit. A refused leader never ran, so the breaker only
                // gets its probe slot back.
                let permit = match self.admit(until) {
                    Ok(permit) => permit,
                    Err(e) => {
                        if verdict == Verdict::Probe {
                            self.breaker.release_probe(&scope, epoch);
                        }
                        return guard.finish(Err(e), false);
                    }
                };
                // Fill — or, under Tier-0, build the generic image (linear
                // in the source, tens of microseconds) and leave full
                // specialization to the background promotion workers.
                let tier0 = self.core.tier.is_some();
                let job = {
                    let (core, ext, statics) = (self.core.clone(), ext.clone(), statics.to_vec());
                    let token = token.clone();
                    move || {
                        if let Some(hook) = &core.fill_hook {
                            (hook.0)();
                        }
                        if tier0 {
                            core.generic_image(&ext, &statics, token.as_ref())
                        } else {
                            core.fill(&ext, &statics, token.as_ref(), REQUEST_RETRIES)
                        }
                    }
                };
                let built = on_stack(job);
                drop(permit);
                // Publish.
                let r = match built {
                    Ok((image, stats)) => {
                        let outcome = new_outcome(image, stats);
                        let published = self.publish_fill(&key, ext, statics, &outcome, tier0);
                        guard.finish(Ok(outcome), published)
                    }
                    Err(e) => guard.finish(Err(self.leader_error(e, token.as_ref())), false),
                };
                self.breaker_note(&scope, epoch, &r);
                return r;
            }
        };
        // A hit or a waiter ran nothing of its own; the leader's run
        // records the outcome. A probing one only settles its probe slot.
        if verdict == Verdict::Probe {
            self.breaker_note(&scope, epoch, &r);
        }
        r
    }

    /// Waits on another leader's flight and shares its result: a
    /// coalesced hit, or the leader's error as its text.
    fn wait(
        &self,
        flight: &Flight,
        until: Option<Instant>,
        token: Option<&CancelToken>,
    ) -> ServeResult {
        self.stats.coalesced.inc();
        obs::event(obs::EventKind::Coalesced);
        match flight.wait_cancellable(until, token) {
            FlightWait::TimedOut => {
                self.stats.deadline_exceeded.inc();
                obs::event(obs::EventKind::DeadlineExceeded);
                Err(ServeError::DeadlineExceeded)
            }
            // The waiter's own token fired mid-wait (client gone or its
            // deadline expired); it detaches without touching the leader,
            // who publishes for the remaining waiters.
            FlightWait::Detached => Err(token
                .and_then(|t| self.stopped_error(t))
                .unwrap_or(ServeError::Cancelled)),
            FlightWait::Done(Ok(outcome)) => {
                self.stats.hits.inc();
                Ok(outcome)
            }
            FlightWait::Done(Err(msg)) => {
                self.stats.errors.inc();
                Err(ServeError::Shared(msg))
            }
        }
    }

    /// Admits a leader's fill through the gate, or refuses it: shed when
    /// the maximum number of fills is running and the queue is full, timed
    /// out when the deadline passes in the queue.
    fn admit(&self, until: Option<Instant>) -> Result<Permit<'_>, ServeError> {
        match self.gate.admit(until) {
            Admission::Admitted(permit) => Ok(permit),
            Admission::Shed { queue_depth } => {
                self.stats.shed.inc();
                obs::event_with(obs::EventKind::Shed, queue_depth as u64);
                Err(ServeError::Overloaded {
                    queue_depth,
                    retry_after_ms: 10 * (queue_depth as u64 + 1),
                })
            }
            Admission::TimedOut => {
                self.stats.deadline_exceeded.inc();
                obs::event(obs::EventKind::DeadlineExceeded);
                Err(ServeError::DeadlineExceeded)
            }
        }
    }

    /// Classifies a leader's failed fill. The request's own token, fired
    /// mid-run, surfaces from the engine as a `Cancelled` limit and
    /// becomes [`ServeError::Cancelled`] or
    /// [`ServeError::DeadlineExceeded`]; anything else counts as an error.
    fn leader_error(&self, e: ServeError, token: Option<&CancelToken>) -> ServeError {
        match e {
            ServeError::Spec(Error::Pe(PeError::Limit(l))) if l.kind == LimitKind::Cancelled => {
                if token.is_some_and(CancelToken::is_cancelled) {
                    ServeError::Cancelled
                } else {
                    self.stats.deadline_exceeded.inc();
                    ServeError::DeadlineExceeded
                }
            }
            e => {
                self.stats.errors.inc();
                e
            }
        }
    }

    /// Maps a fired token to the corresponding request error, bumping the
    /// deadline counter.
    fn stopped_error(&self, token: &CancelToken) -> Option<ServeError> {
        if token.is_cancelled() {
            Some(ServeError::Cancelled)
        } else if token.deadline_expired() {
            self.stats.deadline_exceeded.inc();
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

impl Core {
    /// Stages `ext` for the gen-ext machine unless a clone of it already
    /// has, counting the build. A registered generation stages once: its
    /// clones share the staged program until a redefinition retires it.
    fn stage(&self, ext: &GenExt) -> Result<(), Error> {
        if ext.stage()? {
            self.stats.genext_builds.inc();
        }
        Ok(())
    }

    /// The service's one specializer call, made by request-path fills
    /// (`retries` = [`REQUEST_RETRIES`]) and background promotions
    /// ([`PROMOTION_RETRIES`]). A run starved by unfold fuel or the memo
    /// cap (`SpecStats::fallback_kind`) is re-run, up to `retries` times,
    /// with both budgets multiplied by [`ESCALATION`] each time; the last
    /// run that finished is kept, so an escalation failing outright (it
    /// raced a deadline, say) never discards a degraded-but-usable image.
    /// There is no backoff: starvation is deterministic, so waiting buys
    /// nothing. Hard failures are never re-run here — they feed the
    /// circuit breaker instead. Counts one `spec_runs`, one `retried` per
    /// re-run, and one `degraded` if the kept run still degraded.
    fn fill(
        &self,
        ext: &GenExt,
        statics: &[Datum],
        token: Option<&CancelToken>,
        retries: u32,
    ) -> Result<(Image, SpecStats), Error> {
        let mut result = self
            .stage(ext)
            .and_then(|()| ext.specialize_object_governed(statics, ext.options(), token));
        let mut factor: u64 = 1;
        for attempt in 1..=retries {
            let starved = matches!(
                &result,
                Ok((_, stats)) if matches!(
                    stats.fallback_kind,
                    Some(LimitKind::UnfoldFuel | LimitKind::MemoEntries)
                )
            );
            if !starved || token.is_some_and(|t| t.is_stopped()) {
                break;
            }
            self.stats.retried.inc();
            obs::event_with(obs::EventKind::Retry, u64::from(attempt));
            factor = factor.saturating_mul(ESCALATION);
            let escalated = escalate_options(ext.options(), factor);
            match ext.specialize_object_governed(statics, &escalated, token) {
                Ok(run) => result = Ok(run),
                Err(_) => break,
            }
        }
        self.stats.spec_runs.inc();
        if matches!(&result, Ok((_, stats)) if stats.degraded()) {
            self.stats.degraded.inc();
        }
        result
    }

    /// The generic image of a request: generic compilation with no
    /// unfolding — zero unfold fuel under the fallback regime, i.e. every
    /// reachable definition compiled as-is. Linear in the source program
    /// and deterministic, so the Tier-0 fill (which caches it, pending
    /// promotion) and the breaker fallback (which never caches it)
    /// produce bit-identical images for one request. Not a specializer
    /// fill: it moves neither `spec_runs` nor `degraded` (a generic image
    /// is degraded by construction; counting it would drown the real
    /// signal).
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

    /// The one way a finished result enters the cache — a request's fill,
    /// a promotion's swap, a restored record: under the registry's epoch
    /// check ([`Registry::publish_if_live`]), so nothing is ever cached
    /// into a dead generation, counting the evictions it causes. `admit`
    /// sees the key's current slot and decides whether `entry` replaces
    /// it, adjusting the entry if it needs to. `None` is the tombstone
    /// (the generation died; nothing was written), `Some(false)` a slot
    /// `admit` declined.
    fn publish(
        &self,
        key: &Key,
        mut entry: Entry,
        admit: impl FnOnce(Option<&Slot>, &mut Entry) -> bool,
    ) -> Option<bool> {
        self.programs
            .publish_if_live(key.backedge.as_ref(), key, || {
                let mut shard = lock(self.shard_of(key));
                if !admit(shard.map.get(key), &mut entry) {
                    return false;
                }
                self.stats.evictions.add(shard.put(key.clone(), entry));
                true
            })
    }

    /// Publishes a leader's fill over its in-flight slot and counts the
    /// miss: a final entry, or a Tier-0 generic image pending promotion
    /// (queued at once when `promote_after` is 0). Returns `false` when
    /// the generation died mid-fill: the result still goes to every waiter
    /// on the flight — they arrived before the redefinition — but it is
    /// never cached, so no request arriving after the redefinition can
    /// observe it.
    fn publish_fill(
        &self,
        key: &Key,
        ext: &GenExt,
        statics: &[Datum],
        outcome: &Arc<SpecOutcome>,
        tier0: bool,
    ) -> bool {
        let enqueue_now = tier0 && self.tier.as_ref().is_some_and(|t| t.promote_after == 0);
        let promotion = match (tier0, enqueue_now) {
            (false, _) => Promotion::Final,
            (true, false) => Promotion::Pending,
            (true, true) => Promotion::Queued,
        };
        let ticket = self.ticket.fetch_add(1, Ordering::Relaxed);
        let entry = Entry::new(outcome.clone(), ticket, promotion);
        let published = self.publish(key, entry, |_, _| true).is_some();
        self.stats.misses.inc();
        if tier0 {
            // Not a specializer run: the requester got the generic image.
            // `spec_runs` stays a count of real specializations (the
            // promotion worker bumps it).
            self.tier_stats.tier0_served.inc();
            obs::event(obs::EventKind::Tier0Served);
        }
        if !published {
            self.stats.epoch_conflicts.inc();
            obs::event(obs::EventKind::EpochConflict);
        } else if enqueue_now {
            self.enqueue_promotion(key, ext, statics);
        }
        published
    }

    /// Hands a candidate to the promotion workers. Never blocks the
    /// serve path: when the queue is full (or the service is shutting
    /// down) the candidate is dropped and its cache entry re-armed, so a
    /// later hit simply tries again.
    fn enqueue_promotion(&self, key: &Key, ext: &GenExt, statics: &[Datum]) {
        let Some(tier) = &self.tier else { return };
        let accepted = {
            let mut q = lock(&tier.queue);
            if q.closed || q.q.len() >= PROMOTE_QUEUE_CAP {
                false
            } else {
                q.q.push_back(Candidate {
                    key: key.clone(),
                    ext: ext.clone(),
                    statics: statics.to_vec(),
                });
                true
            }
        };
        if accepted {
            self.tier_stats.queue_depth.add(1);
            tier.cv.notify_one();
            obs::event(obs::EventKind::PromoteEnqueued);
        } else if let Some(Slot::Ready(entry)) = lock(self.shard_of(key)).map.get_mut(key) {
            if entry.promotion == Promotion::Queued {
                entry.promotion = Promotion::Pending;
            }
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

    /// Specializes one hot candidate off the request path — the same
    /// [`Core::fill`] as a request-path miss, with the longer
    /// [`PROMOTION_RETRIES`] ladder — and hot-swaps the result into its
    /// cache slot as final, *if* the entry is still there and its
    /// generation is still live. A run still starved at the top of the
    /// ladder is swapped in all the same: it is better than generic. The
    /// swap is a [`Core::publish`], exactly like a request-path
    /// publication: a `redefine` that lands mid-build tombstones the swap
    /// and the stale image is dropped on the floor.
    fn promote_one(&self, cand: Candidate) {
        let t0 = Instant::now();
        // The generation's staged program is normally in place already:
        // the Tier-0 fill that published the candidate staged it.
        let built = catch_unwind(AssertUnwindSafe(|| {
            self.fill(&cand.ext, &cand.statics, None, PROMOTION_RETRIES)
        }));
        let Ok(Ok((image, spec_stats))) = built else {
            // Specializer failed or panicked: demote. The generic image
            // keeps serving and this entry is never promoted again — its
            // failures must not re-run the specializer on every N hits.
            self.tier_stats.demotions.inc();
            obs::event(obs::EventKind::Demoted);
            if let Some(Slot::Ready(entry)) = lock(self.shard_of(&cand.key)).map.get_mut(&cand.key)
            {
                entry.promotion = Promotion::Final;
            }
            return;
        };
        let promoted = Entry::new(new_outcome(image, spec_stats), 0, Promotion::Final);
        // The promoted image takes the generic one's place in the LRU
        // order. An entry evicted, invalidated, or replaced by a fresh
        // flight while this built has nothing to swap into.
        let swapped = self.publish(&cand.key, promoted, |slot, promoted| match slot {
            Some(Slot::Ready(generic)) => {
                promoted.last_access = generic.last_access;
                true
            }
            _ => false,
        });
        match swapped {
            Some(true) => {
                self.tier_stats.promotions.inc();
                self.tier_stats
                    .promotion_nanos
                    .record_duration(t0.elapsed());
                obs::event(obs::EventKind::Promoted);
            }
            // The slot vanished mid-build; drop the image silently.
            Some(false) => {}
            // The generation died mid-build (`redefine` raced us): the
            // stale-epoch image must never be swapped in.
            None => {
                self.tier_stats.swap_epoch_conflicts.inc();
                obs::event(obs::EventKind::SwapEpochConflict);
            }
        }
    }
}

/// A leader's hold on its in-flight slot, and the one owner of the
/// flight's end: only [`FlightGuard::finish`] and its `Drop` remove the
/// slot and complete the flight. Dropped unfinished — a panic unwinding
/// past the leader — it fails the flight, so a worker that dies mid-fill
/// never leaves an `InFlight` slot behind for every later requester of
/// the key to block on.
struct FlightGuard<'a> {
    shard: &'a Mutex<Shard>,
    key: &'a Key,
    flight: Arc<Flight>,
    armed: bool,
}

impl FlightGuard<'_> {
    /// Ends the flight with the leader's result, shared with the waiters
    /// (an error as its text), and removes the slot unless the result was
    /// `published` into it.
    fn finish(mut self, r: ServeResult, published: bool) -> ServeResult {
        self.armed = false;
        let shared = match &r {
            Ok(outcome) => Ok(outcome.clone()),
            Err(e) => Err(e.to_string()),
        };
        self.end(shared, published);
        r
    }

    fn end(&self, shared: Result<Arc<SpecOutcome>, String>, published: bool) {
        if !published {
            lock(self.shard).map.remove(self.key);
        }
        self.flight.complete(shared);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let abandoned = "specialization fill abandoned (worker panicked)";
            self.end(Err(abandoned.to_string()), false);
        }
    }
}

/// What a fill builds: the residual image and the specializer's stats.
type Built = Result<(Image, SpecStats), Error>;

/// A fill handed to a companion. It owns what it touches (refcount clones
/// of the core, the extension, the statics and the token), so it may
/// outlive the request's borrows.
type Job = Box<dyn FnOnce() -> Built + Send>;

/// A companion's answer: the fill's result (`None` when it panicked) and
/// the trace events it recorded.
type Reply = (Option<Built>, Vec<obs::TraceEvent>);

thread_local! {
    /// Set on threads that already run on a big stack — the
    /// `specialize_many` workers, the promotion workers and the fill
    /// companions themselves — which fill inline.
    static BIG_STACK: Cell<bool> = const { Cell::new(false) };
    /// This thread's fill companion, spawned on its first miss.
    static COMPANION: RefCell<Option<Companion>> = const { RefCell::new(None) };
}

/// Marks the calling thread as running on a big stack: its fills run
/// inline.
fn mark_big_stack() {
    let _ = BIG_STACK.try_with(|b| b.set(true));
}

/// Fill companions started in this process.
fn fill_threads_started() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::global().counter("t4o_fill_threads_started_total"))
}

/// A requesting thread's persistent large-stack fill thread. It runs one
/// job at a time while its requester blocks on the reply, survives a
/// panicking job, and exits when the requester exits and drops it.
struct Companion {
    /// `None` once dropping: closing the queue ends the companion's loop.
    jobs: Option<mpsc::Sender<Job>>,
    replies: mpsc::Receiver<Reply>,
    thread: Option<JoinHandle<()>>,
}

impl Companion {
    fn spawn() -> Result<Companion, ServeError> {
        let (jobs, queue) = mpsc::channel::<Job>();
        let (answer, replies) = mpsc::channel::<Reply>();
        let thread = std::thread::Builder::new()
            .name("two4one-spec".into())
            .stack_size(DEFAULT_STACK_BYTES)
            .spawn(move || {
                mark_big_stack();
                for job in queue {
                    let built = catch_unwind(AssertUnwindSafe(job)).ok();
                    // Carry the trace ring back so the fill's spans and
                    // events land on the requesting thread's trace.
                    if answer.send((built, obs::take_trace())).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| ServeError::Spawn(e.to_string()))?;
        fill_threads_started().inc();
        Ok(Companion {
            jobs: Some(jobs),
            replies,
            thread: Some(thread),
        })
    }

    /// Runs `job` on the companion and waits for its reply. `None` when
    /// the companion is gone.
    fn run(&self, job: Job) -> Option<Reply> {
        self.jobs.as_ref()?.send(job).ok()?;
        self.replies.recv().ok()
    }
}

impl Drop for Companion {
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Runs a fill behind the fill boundary, on a big stack: inline on a
/// thread marked by [`mark_big_stack`], otherwise on the calling thread's
/// companion, spawned on its first miss. Either way a panic becomes
/// [`ServeError::Worker`] and an engine error [`ServeError::Spec`].
/// Staging and the object builder still recurse, which is what the big
/// stack is for.
fn on_stack(
    fill: impl FnOnce() -> Built + Send + 'static,
) -> Result<(Image, SpecStats), ServeError> {
    let built = if BIG_STACK.try_with(Cell::get).unwrap_or(false) {
        catch_unwind(AssertUnwindSafe(fill)).ok()
    } else {
        on_companion(Box::new(fill))?
    };
    match built {
        Some(r) => r.map_err(ServeError::Spec),
        None => Err(ServeError::Worker(
            "specialization worker panicked".to_string(),
        )),
    }
}

/// Hands `job` to the calling thread's companion, spawning it first if
/// the thread has none. A companion that died is dropped, so the next
/// miss spawns a fresh one.
fn on_companion(job: Job) -> Result<Option<Built>, ServeError> {
    let gone = || ServeError::Worker("specialization worker exited".to_string());
    COMPANION
        .try_with(|slot| {
            let mut slot = slot.borrow_mut();
            let companion = match slot.take() {
                Some(c) => c,
                None => Companion::spawn()?,
            };
            let (built, trace) = companion.run(job).ok_or_else(gone)?;
            *slot = Some(companion);
            obs::absorb_trace(trace);
            Ok(built)
        })
        .map_err(|_| gone())?
}

/// Multiplies the transient budgets (unfold fuel, memo cap) for a re-run.
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

/// A finished specialization with a fresh execution profile.
fn new_outcome(image: impl Into<Arc<Image>>, stats: SpecStats) -> Arc<SpecOutcome> {
    Arc::new(SpecOutcome {
        image: image.into(),
        stats,
        profile: Arc::new(ExecProfile::default()),
    })
}

/// Writes `bytes` to `path` crash-safely: to a sibling temp file first,
/// then renamed into place, so a crash during the write never leaves a
/// torn file under the final name.
fn write_atomically(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Builds the full cache key for a request: the extension's cache
/// identity (annotated program + options, rendered and digested once per
/// extension and shared — see [`GenExt::cache_identity`]), the entry
/// name, and the rendered static arguments — plus, for requests resolved
/// through the registry, the `(name, epoch)` backedge, so two generations
/// of one program can never alias. Only the statics are rendered, and
/// only the entry and the statics hashed, per request.
fn request_key(ext: &GenExt, statics: &[Datum], backedge: Option<&Backedge>) -> Key {
    let mut rendered = String::new();
    for (i, d) in statics.iter().enumerate() {
        if i > 0 {
            rendered.push(' ');
        }
        let _ = std::fmt::Write::write_fmt(&mut rendered, format_args!("{d}"));
    }
    let program = ext.cache_identity();
    let entry = ext.entry().as_str();
    match backedge {
        Some((name, epoch)) => Key::versioned(name, *epoch, program, entry, &rendered),
        None => Key::new(program, entry, &rendered),
    }
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
    assert_send_sync::<RestoreReport>();
    assert_send_sync::<TierSnapshot>();
};
