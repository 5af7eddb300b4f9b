//! Integration tests for the concurrent specialization service: cache
//! correctness (keying, eviction, error paths), single-flight dedup, the
//! zero-work warm path, and the fault-tolerance layer (admission control,
//! deadlines, retry, circuit breaking, crash-safe snapshots, and panic
//! recovery).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use two4one::{CancelToken, Datum, Division, Pgg, BT};
use two4one_server::{BreakerPolicy, FillHook, ServeConfig, ServeError, SpecRequest, SpecService};
use two4one_testkit::faults::{corrupt, PanicPlan};
use two4one_testkit::rng::Rng;

const POWER: &str = "(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))";

fn power_ext(pgg: &Pgg) -> two4one::GenExt {
    let program = pgg.parse(POWER).expect("parse power");
    pgg.cogen(&program, "power", &Division::new([BT::Static, BT::Dynamic]))
        .expect("cogen power")
}

fn int(n: i64) -> Vec<Datum> {
    vec![Datum::Int(n)]
}

#[test]
fn warm_hit_runs_zero_specializer_work() {
    let service = SpecService::new();
    let ext = power_ext(&Pgg::new());

    let cold = service.specialize(&ext, &int(5)).expect("cold");
    let after_cold = service.stats();
    assert_eq!(after_cold.misses, 1);
    assert_eq!(after_cold.spec_runs, 1);
    assert_eq!(after_cold.hits, 0);

    let warm = service.specialize(&ext, &int(5)).expect("warm");
    let after_warm = service.stats();
    // Zero specializer work: the run counter did not move, and the handle
    // is the very same image (templates shared via Arc, no deep copy).
    assert_eq!(after_warm.spec_runs, 1);
    assert_eq!(after_warm.misses, 1);
    assert_eq!(after_warm.hits, 1);
    assert!(Arc::ptr_eq(&cold.image, &warm.image));

    // The cached residual code actually works.
    let out =
        two4one::run_image(&warm.image, warm.image.entry.as_str(), &int(2)).expect("run residual");
    assert_eq!(out.value, Datum::Int(32));
}

#[test]
fn differing_static_args_miss() {
    let service = SpecService::new();
    let ext = power_ext(&Pgg::new());
    let a = service.specialize(&ext, &int(3)).expect("n=3");
    let b = service.specialize(&ext, &int(4)).expect("n=4");
    assert!(!Arc::ptr_eq(&a.image, &b.image));
    let stats = service.stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.spec_runs, 2);
}

/// Renders a random near-miss sibling of `POWER`: same shape, one token
/// nudged. Textually different programs must never share cache entries,
/// however similar they look — even inside a single shard, where any
/// digest collision would land.
fn near_miss_program(rng: &mut Rng) -> String {
    let base = 1 + rng.range_i64(1, 9);
    let op = *rng.pick(&["*", "+"]);
    format!("(define (power n x) (if (= n 0) {base} ({op} x (power (- n 1) x))))")
}

#[test]
fn near_miss_programs_do_not_collide() {
    // One shard: every key routes to the same map, so this exercises the
    // full-key comparison rather than shard separation.
    let service = SpecService::with_config(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let pgg = Pgg::new();
    let mut rng = Rng::new(0x5e1f_c0de);

    let mut programs: Vec<String> = vec![POWER.to_string()];
    while programs.len() < 8 {
        let candidate = near_miss_program(&mut rng);
        if !programs.contains(&candidate) {
            programs.push(candidate);
        }
    }

    let mut images = Vec::new();
    for src in &programs {
        let program = pgg.parse(src).expect("parse near-miss");
        let ext = pgg
            .cogen(&program, "power", &Division::new([BT::Static, BT::Dynamic]))
            .expect("cogen near-miss");
        images.push(service.specialize(&ext, &int(4)).expect("specialize"));
    }

    // Every program got its own entry and its own specializer run.
    let stats = service.stats();
    assert_eq!(stats.misses, programs.len() as u64);
    assert_eq!(stats.spec_runs, programs.len() as u64);
    assert_eq!(stats.hits, 0);
    assert_eq!(service.len(), programs.len());
    for (i, a) in images.iter().enumerate() {
        for b in &images[i + 1..] {
            assert!(!Arc::ptr_eq(&a.image, &b.image));
        }
    }

    // And the variants compute what their source says, not what a cache
    // collision would have handed them: (power 4 x) with `+` and base b
    // is b + 4x; with `*` it is b * x^4.
    for (src, outcome) in programs.iter().zip(&images) {
        let result = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(3))
            .expect("run variant")
            .value;
        let expected = expected_power4(src);
        assert_eq!(result, Datum::Int(expected), "program: {src}");
    }
}

/// Ground truth for `(power 4 3)` under the near-miss grammar.
fn expected_power4(src: &str) -> i64 {
    let base: i64 = src
        .split("(= n 0) ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("parse base from source");
    if src.contains("(+ x (power") {
        base + 3 * 4
    } else {
        base * 3_i64.pow(4)
    }
}

#[test]
fn concurrent_same_key_specializes_once() {
    let service = SpecService::new();
    let ext = power_ext(&Pgg::new());
    const THREADS: usize = 8;

    let images: Vec<Arc<two4one::Image>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let ext = &ext;
                let service = &service;
                s.spawn(move || {
                    service
                        .specialize(ext, &int(6))
                        .expect("specialize")
                        .image
                        .clone()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("requester thread"))
            .collect()
    });

    let stats = service.stats();
    // Single-flight: exactly one specializer run however the threads
    // interleave; everyone else hit the cache or joined the flight.
    assert_eq!(stats.spec_runs, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, THREADS as u64 - 1);
    for img in &images[1..] {
        assert!(Arc::ptr_eq(&images[0], img));
    }
}

#[test]
fn batch_api_dedups_and_preserves_order() {
    let service = SpecService::new();
    let ext = power_ext(&Pgg::new());
    let requests: Vec<SpecRequest> = [2, 3, 2, 4, 3, 2]
        .into_iter()
        .map(|n| SpecRequest::new(ext.clone(), int(n)))
        .collect();

    let results = service.specialize_many(&requests, 4);
    assert_eq!(results.len(), requests.len());
    let outcomes: Vec<_> = results
        .into_iter()
        .map(|r| r.expect("batch result"))
        .collect();

    // Three distinct keys → exactly three specializer runs.
    assert_eq!(service.stats().spec_runs, 3);
    // Order is preserved: duplicates share the same image.
    assert!(Arc::ptr_eq(&outcomes[0].image, &outcomes[2].image));
    assert!(Arc::ptr_eq(&outcomes[0].image, &outcomes[5].image));
    assert!(Arc::ptr_eq(&outcomes[1].image, &outcomes[4].image));
    assert!(!Arc::ptr_eq(&outcomes[0].image, &outcomes[1].image));
    assert!(!Arc::ptr_eq(&outcomes[0].image, &outcomes[3].image));

    // Warm batch: all hits, no new runs.
    let again = service.specialize_many(&requests, 2);
    assert!(again.iter().all(|r| r.is_ok()));
    assert_eq!(service.stats().spec_runs, 3);
}

#[test]
fn eviction_keeps_cache_bounded() {
    let service = SpecService::with_config(ServeConfig {
        shards: 1,
        max_entries: 3,
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());
    for n in 1..=6 {
        service.specialize(&ext, &int(n)).expect("fill");
    }
    assert!(service.len() <= 3);
    let stats = service.stats();
    assert_eq!(stats.spec_runs, 6);
    assert_eq!(stats.evictions, 3);

    // The most recent keys survived; an evicted key is a fresh miss.
    service.specialize(&ext, &int(6)).expect("warm recent");
    assert_eq!(service.stats().spec_runs, 6);
    service.specialize(&ext, &int(1)).expect("refill evicted");
    assert_eq!(service.stats().spec_runs, 7);
}

#[test]
fn code_budget_evicts_lru() {
    // A tiny code cap (in instructions) forces size-based eviction.
    let service = SpecService::with_config(ServeConfig {
        shards: 1,
        max_entries: 1024,
        code_budget: Some(1),
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());
    service.specialize(&ext, &int(2)).expect("first");
    service.specialize(&ext, &int(3)).expect("second");
    // Budget of 1 instruction cannot hold two images; the older one went.
    assert_eq!(service.len(), 1);
    assert!(service.stats().evictions >= 1);
}

#[test]
fn errors_are_reported_and_not_cached() {
    let service = SpecService::new();
    let ext = power_ext(&Pgg::new());

    // Wrong number of static arguments → specialization error.
    let err = service
        .specialize(&ext, &[Datum::Int(1), Datum::Int(2)])
        .expect_err("arity mismatch must fail");
    assert!(matches!(err, ServeError::Spec(_)));
    let stats = service.stats();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.misses, 0);
    assert!(service.is_empty());

    // Errors are not cached: the same request fails afresh (and the
    // specializer runs again), rather than serving a poisoned entry.
    let _ = service
        .specialize(&ext, &[Datum::Int(1), Datum::Int(2)])
        .expect_err("still fails");
    assert_eq!(service.stats().errors, 2);

    // The service remains fully usable afterwards.
    let ok = service.specialize(&ext, &int(3)).expect("healthy request");
    let out =
        two4one::run_image(&ok.image, ok.image.entry.as_str(), &int(2)).expect("run residual");
    assert_eq!(out.value, Datum::Int(8));
}

#[test]
fn degraded_fills_are_counted() {
    // Starve the specializer of unfold fuel so it falls back to generic
    // code (PR 1 machinery), and check the service surfaces that.
    let pgg = Pgg::new().unfold_fuel(1);
    let ext = power_ext(&pgg);
    let service = SpecService::new();
    let outcome = service.specialize(&ext, &int(40)).expect("degraded fill");
    assert!(outcome.stats.degraded());
    let stats = service.stats();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.spec_runs, 1);

    // Degraded residual code is still correct.
    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(2))
        .expect("run degraded");
    assert_eq!(out.value, Datum::Int(1_099_511_627_776));
}

#[test]
fn distinct_options_do_not_share_entries() {
    // Same program, same statics, different limits: the key must differ,
    // because the residual code can differ (e.g. degraded vs. full).
    let service = SpecService::new();
    let full = power_ext(&Pgg::new());
    let starved = power_ext(&Pgg::new().unfold_fuel(1));
    let a = service.specialize(&full, &int(10)).expect("full");
    let b = service.specialize(&starved, &int(10)).expect("starved");
    assert_eq!(service.stats().spec_runs, 2);
    assert!(!Arc::ptr_eq(&a.image, &b.image));
    assert!(!a.stats.degraded());
    assert!(b.stats.degraded());
}

// ---------------------------------------------------------------------
// Fault tolerance: admission control and load shedding
// ---------------------------------------------------------------------

/// A gate fill workers block on until the test opens it, so overload is
/// reproducible rather than racing against specializer speed.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn wait(&self) {
        let mut open = self.open.lock().expect("latch lock");
        while !*open {
            open = self.cv.wait(open).expect("latch wait");
        }
    }

    fn release(&self) {
        *self.open.lock().expect("latch lock") = true;
        self.cv.notify_all();
    }
}

/// Polls `cond` until it holds or ~5 s pass.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let give_up = Instant::now() + Duration::from_secs(5);
    while Instant::now() < give_up {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

#[test]
fn overload_sheds_beyond_gate_capacity_and_recovers() {
    const BURST: usize = 32;
    const CAPACITY: usize = 6; // max_inflight 2 + queue_bound 4

    let latch = Arc::new(Latch::default());
    let hook_latch = latch.clone();
    let service = SpecService::with_config(ServeConfig {
        max_inflight: 2,
        queue_bound: 4,
        fill_hook: Some(FillHook::new(move || hook_latch.wait())),
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());

    let (admitted, shed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BURST)
            .map(|n| {
                let service = &service;
                let ext = &ext;
                // Distinct statics: every request is a leader, so each
                // must pass the admission gate.
                s.spawn(move || service.specialize(ext, &int(n as i64 + 1)))
            })
            .collect();
        // The burst settles into: 2 filling (blocked on the latch),
        // 4 queued for admission, everyone else shed immediately.
        assert!(
            eventually(|| service.stats().shed == (BURST - CAPACITY) as u64),
            "expected {} sheds, saw {} ({})",
            BURST - CAPACITY,
            service.stats().shed,
            service.stats()
        );
        latch.release();
        let mut admitted = 0;
        let mut shed = 0;
        for h in handles {
            match h.join().expect("request thread") {
                Ok(_) => admitted += 1,
                Err(ServeError::Overloaded {
                    queue_depth,
                    retry_after_ms,
                }) => {
                    shed += 1;
                    assert_eq!(queue_depth, 4);
                    assert!(retry_after_ms > 0);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        (admitted, shed)
    });

    // At most capacity requests were ever admitted (2 running + 4
    // queued); the queued ones completed once the latch opened.
    assert_eq!(admitted, CAPACITY);
    assert_eq!(shed, BURST - CAPACITY);
    let stats = service.stats();
    assert_eq!(stats.shed, (BURST - CAPACITY) as u64);
    assert_eq!(stats.spec_runs, CAPACITY as u64);

    // The service is fully usable after the storm: shed keys are plain
    // misses now, nothing is wedged.
    let outcome = service.specialize(&ext, &int(40)).expect("after storm");
    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(1))
        .expect("run residual");
    assert_eq!(out.value, Datum::Int(1));
}

#[test]
fn disconnected_waiter_detaches_without_cancelling_leader() {
    // Regression for the waiter/leader deadline interaction on coalesced
    // flights: a network client that disconnects while parked as a
    // coalesced waiter must detach promptly — without cancelling the
    // leader, whose result must still land in the cache.
    let latch = Arc::new(Latch::default());
    let hook_latch = latch.clone();
    let service = SpecService::with_config(ServeConfig {
        fill_hook: Some(FillHook::new(move || hook_latch.wait())),
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());

    std::thread::scope(|s| {
        let service = &service;
        let ext = &ext;
        // Leader: parked inside the fill on the latch.
        let leader = s.spawn(move || service.specialize(ext, &int(7)));
        assert!(eventually(|| service.inflight() == 1));
        // Waiter: coalesces onto the same key, carrying its own token.
        let token = CancelToken::new();
        let wtoken = token.clone();
        let waiter = s.spawn(move || {
            let req = SpecRequest::new(ext.clone(), int(7)).with_cancel(wtoken);
            service.specialize_request(&req)
        });
        assert!(eventually(|| service.stats().coalesced == 1));
        // The client disconnects: fire the waiter's token. The waiter
        // detaches while the leader is still blocked in its fill.
        token.cancel();
        let got = waiter.join().expect("waiter thread");
        assert!(
            matches!(got, Err(ServeError::Cancelled)),
            "waiter should detach as Cancelled, got {got:?}"
        );
        // The leader was never cancelled: release it and it completes.
        latch.release();
        assert!(leader.join().expect("leader thread").is_ok());
    });

    // No stranded flight, and the leader's result was cached normally.
    assert_eq!(service.inflight(), 0);
    assert_eq!(service.len(), 1);
    let hits_before = service.stats().hits;
    assert!(service.specialize(&ext, &int(7)).is_ok());
    assert_eq!(service.stats().hits, hits_before + 1);
}

// ---------------------------------------------------------------------
// Fault tolerance: deadlines and cancellation
// ---------------------------------------------------------------------

/// A program whose full specialization is far too slow for the tests'
/// deadlines: each unfolding peels one recursion, and `SPIN_N` is huge.
const SPIN: &str = "(define (spin n) (if (= n 0) 0 (spin (- n 1))))";
const SPIN_N: i64 = 50_000_000;

fn spin_ext(pgg: &Pgg) -> two4one::GenExt {
    let program = pgg.parse(SPIN).expect("parse spin");
    pgg.cogen(&program, "spin", &Division::new([BT::Static]))
        .expect("cogen spin")
}

#[test]
fn deadline_aborts_long_specialization_promptly() {
    let service = SpecService::with_config(ServeConfig {
        max_inflight: 1,
        ..ServeConfig::default()
    });
    let ext = spin_ext(&Pgg::new());

    let t0 = Instant::now();
    let req = SpecRequest::new(ext.clone(), int(SPIN_N)).with_deadline(Duration::from_millis(20));
    let err = service.specialize_request(&req).expect_err("must time out");
    assert!(matches!(err, ServeError::DeadlineExceeded), "got: {err}");
    // Prompt: worst case is one deadline-check stride in the specializer,
    // not the seconds the full 50M-unfold run would take.
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "deadline abort took {:?}",
        t0.elapsed()
    );
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert!(service.is_empty(), "aborted fill must not be cached");

    // The worker and its admission permit were reclaimed: with
    // max_inflight 1, a leaked permit would park this next fill in the
    // admission queue until its deadline.
    let ok =
        SpecRequest::new(power_ext(&Pgg::new()), int(5)).with_deadline(Duration::from_secs(30));
    let outcome = service.specialize_request(&ok).expect("service usable");
    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(2))
        .expect("run residual");
    assert_eq!(out.value, Datum::Int(32));
}

#[test]
fn explicit_cancellation_stops_a_running_fill() {
    let service = SpecService::new();
    let ext = spin_ext(&Pgg::new());
    let token = CancelToken::new();
    let req = SpecRequest::new(ext, int(SPIN_N)).with_cancel(token.clone());

    let err = std::thread::scope(|s| {
        let handle = s.spawn(|| service.specialize_request(&req));
        // Let the fill get going, then pull the plug.
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
        handle
            .join()
            .expect("request thread")
            .expect_err("cancelled")
    });
    assert!(matches!(err, ServeError::Cancelled), "got: {err}");
    assert!(service.is_empty());
}

#[test]
fn waiter_deadline_does_not_cancel_the_leader() {
    // A waiter with a short deadline gives up on a slow flight; the
    // leader keeps running and its result lands in the cache.
    let latch = Arc::new(Latch::default());
    let hook_latch = latch.clone();
    let entered = Arc::new(AtomicUsize::new(0));
    let hook_entered = entered.clone();
    let service = SpecService::with_config(ServeConfig {
        fill_hook: Some(FillHook::new(move || {
            hook_entered.fetch_add(1, Ordering::SeqCst);
            hook_latch.wait();
        })),
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());

    std::thread::scope(|s| {
        let leader = s.spawn(|| service.specialize(&ext, &int(7)));
        assert!(eventually(|| entered.load(Ordering::SeqCst) == 1));
        // Same key, tight deadline: coalesces onto the flight, times out.
        let req = SpecRequest::new(ext.clone(), int(7)).with_deadline(Duration::from_millis(20));
        let err = service.specialize_request(&req).expect_err("waiter");
        assert!(matches!(err, ServeError::DeadlineExceeded), "got: {err}");
        latch.release();
        leader
            .join()
            .expect("leader thread")
            .expect("leader result");
    });

    // One run, cached: the waiter's deadline cost the system nothing.
    let stats = service.stats();
    assert_eq!(stats.spec_runs, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(service.len(), 1);
}

// ---------------------------------------------------------------------
// Fault tolerance: escalated-budget retry
// ---------------------------------------------------------------------

#[test]
fn transient_starvation_is_retried_with_a_bigger_budget() {
    // Fuel 8 cannot finish power^20 (21 unfoldings); the request path's
    // one escalated re-run at 8 * 4 = 32 can. The caller sees a clean,
    // undegraded result.
    let service = SpecService::new();
    let ext = power_ext(&Pgg::new().unfold_fuel(8));
    let outcome = service.specialize(&ext, &int(20)).expect("retried fill");
    assert!(!outcome.stats.degraded(), "escalated retry should finish");
    let stats = service.stats();
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.spec_runs, 1, "retry happens inside one fill");

    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(2))
        .expect("run residual");
    assert_eq!(out.value, Datum::Int(1 << 20));
}

#[test]
fn retry_disabled_keeps_the_degraded_result() {
    // Fuel 4 starves power^20 and so does the one re-run the request path
    // allows (16 < 21): the ladder stops there and the degraded image of
    // the re-run is kept, not discarded.
    let service = SpecService::new();
    let ext = power_ext(&Pgg::new().unfold_fuel(4));
    let outcome = service.specialize(&ext, &int(20)).expect("degraded fill");
    assert!(outcome.stats.degraded());
    let stats = service.stats();
    assert_eq!(stats.retried, 1, "the request path re-runs exactly once");
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.spec_runs, 1);

    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(2))
        .expect("run degraded residual");
    assert_eq!(out.value, Datum::Int(1 << 20));
}

// ---------------------------------------------------------------------
// Fault tolerance: circuit breaker
// ---------------------------------------------------------------------

#[test]
fn open_breaker_serves_generic_fallback_without_specializing() {
    let service = SpecService::with_config(ServeConfig {
        breaker: BreakerPolicy {
            threshold: 2,
            cooldown: Duration::from_secs(600),
        },
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());
    let bad = [Datum::Int(1), Datum::Int(2)]; // arity mismatch: hard failure

    for _ in 0..2 {
        let err = service.specialize(&ext, &bad).expect_err("arity mismatch");
        assert!(matches!(err, ServeError::Spec(_)));
    }

    // Tripped: even a well-formed request is answered with generic
    // fallback code instead of running the specializer.
    let runs_before = service.stats().spec_runs;
    let outcome = service.specialize(&ext, &int(5)).expect("fallback");
    let stats = service.stats();
    assert_eq!(stats.breaker_open, 1);
    assert_eq!(stats.spec_runs, runs_before, "no specializer run");
    assert!(service.is_empty(), "fallback code is never cached");

    // Generic fallback is still *correct* code for these statics.
    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(2))
        .expect("run fallback");
    assert_eq!(out.value, Datum::Int(32));
}

#[test]
fn breaker_recovers_through_a_half_open_probe() {
    let service = SpecService::with_config(ServeConfig {
        breaker: BreakerPolicy {
            threshold: 1,
            cooldown: Duration::ZERO,
        },
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());
    let bad = [Datum::Int(1), Datum::Int(2)];

    let _ = service.specialize(&ext, &bad).expect_err("trips breaker");
    // Cooldown zero: the next request is the half-open probe. A failing
    // probe re-opens the breaker...
    let _ = service.specialize(&ext, &bad).expect_err("probe fails");
    // ...and a succeeding probe closes it for good.
    let ok = service.specialize(&ext, &int(3)).expect("probe succeeds");
    assert!(!ok.stats.degraded());
    let warm = service.specialize(&ext, &int(3)).expect("healthy again");
    assert!(Arc::ptr_eq(&ok.image, &warm.image));
    assert_eq!(service.stats().breaker_open, 0);
}

// ---------------------------------------------------------------------
// Fault tolerance: panic recovery (no deadlocked waiters, ever)
// ---------------------------------------------------------------------

#[test]
fn panic_during_spawned_fill_is_an_error_not_a_deadlock() {
    let plan = PanicPlan::once();
    let hook_plan = plan.clone();
    let service = SpecService::with_config(ServeConfig {
        fill_hook: Some(FillHook::new(move || hook_plan.tick())),
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());

    let err = service.specialize(&ext, &int(9)).expect_err("worker died");
    assert!(matches!(err, ServeError::Worker(_)), "got: {err}");
    assert_eq!(service.stats().errors, 1);
    assert!(service.is_empty(), "no stuck in-flight slot");

    // The same key works on the next attempt (the plan only fires once).
    let outcome = service.specialize(&ext, &int(9)).expect("recovered");
    assert_eq!(plan.calls(), 2);
    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(2))
        .expect("run residual");
    assert_eq!(out.value, Datum::Int(512));
}

#[test]
fn panic_during_inline_pool_fill_fails_only_that_request() {
    // Pool workers (specialize_many) run fills inline on their own big
    // stacks; a panic there must convert to a Worker error for that one
    // request, not tear down the batch.
    let plan = PanicPlan::once();
    let hook_plan = plan.clone();
    let service = SpecService::with_config(ServeConfig {
        fill_hook: Some(FillHook::new(move || hook_plan.tick())),
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());
    let requests: Vec<SpecRequest> = (1..=4)
        .map(|n| SpecRequest::new(ext.clone(), int(n)))
        .collect();

    let results = service.specialize_many(&requests, 2);
    let failed = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Worker(_))))
        .count();
    let succeeded = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(failed, 1, "exactly the injected panic fails");
    assert_eq!(succeeded, 3);

    // And the poisoned key is retryable afterwards.
    let retry = service.specialize_many(&requests, 2);
    assert!(retry.iter().all(|r| r.is_ok()));
}

/// Records the name and id of every thread a fill runs on.
#[derive(Default)]
struct FillThreads(Mutex<Vec<(Option<String>, std::thread::ThreadId)>>);

impl FillThreads {
    fn note(&self) {
        let t = std::thread::current();
        self.0
            .lock()
            .unwrap()
            .push((t.name().map(str::to_string), t.id()));
    }

    fn distinct(&self) -> Vec<(Option<String>, std::thread::ThreadId)> {
        let mut seen = self.0.lock().unwrap().clone();
        seen.dedup();
        seen
    }
}

#[test]
fn one_companion_serves_every_miss_of_its_thread() {
    use two4one::obs;

    let threads = Arc::new(FillThreads::default());
    let hook_threads = threads.clone();
    let service = Arc::new(SpecService::with_config(ServeConfig {
        fill_hook: Some(FillHook::new(move || hook_threads.note())),
        ..ServeConfig::default()
    }));
    let ext = power_ext(&Pgg::new());
    // A fresh requester thread: its first miss spawns its companion.
    let requester = {
        let service = service.clone();
        std::thread::spawn(move || {
            obs::clear_trace();
            service.specialize(&ext, &int(0)).expect("first miss");
            let trace = obs::take_trace();
            for n in 1..200 {
                service.specialize(&ext, &int(n)).expect("miss");
            }
            (std::thread::current().id(), trace)
        })
    };
    let (requester_id, trace) = requester.join().unwrap();
    assert_eq!(service.stats().misses, 200);
    let distinct = threads.distinct();
    assert_eq!(distinct.len(), 1, "every fill on one thread: {distinct:?}");
    let (name, id) = &distinct[0];
    assert_eq!(name.as_deref(), Some("two4one-spec"));
    assert_ne!(*id, requester_id, "fills run on the companion");
    // The companion carries its trace back: the fill's gen-ext run span
    // is on the requesting thread's ring.
    assert!(
        trace
            .iter()
            .any(|e| matches!(e.what, obs::TraceWhat::Enter(obs::Phase::GenextRun))),
        "{}",
        obs::render_trace(&trace)
    );
    let page = service.metrics().to_prometheus();
    assert!(page.contains("t4o_fill_threads_started_total "), "{page}");
}

#[test]
fn a_panicking_fill_leaves_its_companion_serving() {
    let plan = PanicPlan::once();
    let hook_plan = plan.clone();
    let threads = Arc::new(FillThreads::default());
    let hook_threads = threads.clone();
    let service = Arc::new(SpecService::with_config(ServeConfig {
        fill_hook: Some(FillHook::new(move || {
            hook_threads.note();
            hook_plan.tick();
        })),
        ..ServeConfig::default()
    }));
    let ext = power_ext(&Pgg::new());
    let requester = {
        let service = service.clone();
        std::thread::spawn(move || {
            let first = service.specialize(&ext, &int(9));
            let second = service.specialize(&ext, &int(9));
            (first.map(|_| ()), second.map(|_| ()))
        })
    };
    let (first, second) = requester.join().unwrap();
    assert!(matches!(first, Err(ServeError::Worker(_))), "{first:?}");
    assert!(second.is_ok(), "{second:?}");
    assert_eq!(plan.calls(), 2);
    let distinct = threads.distinct();
    assert_eq!(distinct.len(), 1, "the same companion: {distinct:?}");
}

#[test]
fn a_companion_exits_with_its_requester() {
    // A fill leaves a guard in its companion's thread-locals; the guard
    // drops when that thread exits.
    struct OnExit(Arc<AtomicBool>);
    impl Drop for OnExit {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    thread_local! {
        static GUARD: std::cell::RefCell<Option<OnExit>> = const { std::cell::RefCell::new(None) };
    }
    let exited = Arc::new(AtomicBool::new(false));
    let flag = exited.clone();
    let service = Arc::new(SpecService::with_config(ServeConfig {
        fill_hook: Some(FillHook::new(move || {
            GUARD.with(|g| *g.borrow_mut() = Some(OnExit(flag.clone())));
        })),
        ..ServeConfig::default()
    }));
    let ext = power_ext(&Pgg::new());
    let requester = {
        let service = service.clone();
        std::thread::spawn(move || service.specialize(&ext, &int(3)).map(|_| ()))
    };
    requester.join().unwrap().expect("fill");
    assert!(
        exited.load(Ordering::SeqCst),
        "the companion outlived its requester"
    );
}

#[test]
fn waiters_on_a_panicking_leader_are_woken_with_an_error() {
    // The leader panics mid-fill while others are coalesced on its
    // flight: every waiter must come back (error or a successful
    // re-lead), and a fresh request afterwards must succeed. Before the
    // flight guard, this scenario deadlocked the waiters forever.
    let entered = Arc::new(AtomicUsize::new(0));
    let hook_entered = entered.clone();
    let latch = Arc::new(Latch::default());
    let hook_latch = latch.clone();
    let service = SpecService::with_config(ServeConfig {
        fill_hook: Some(FillHook::new(move || {
            // First fill: wait until the test saw the waiters pile up,
            // then panic. Later fills run clean.
            if hook_entered.fetch_add(1, Ordering::SeqCst) == 0 {
                hook_latch.wait();
                panic!("injected fault: leader dies with waiters parked");
            }
        })),
        ..ServeConfig::default()
    });
    let ext = power_ext(&Pgg::new());

    std::thread::scope(|s| {
        let leader = s.spawn(|| service.specialize(&ext, &int(11)));
        assert!(eventually(|| entered.load(Ordering::SeqCst) == 1));
        let waiters: Vec<_> = (0..3)
            .map(|_| s.spawn(|| service.specialize(&ext, &int(11))))
            .collect();
        assert!(eventually(|| service.stats().coalesced == 3));
        latch.release();
        let lead_result = leader.join().expect("leader thread");
        assert!(
            matches!(lead_result, Err(ServeError::Worker(_))),
            "leader sees the panic"
        );
        for w in waiters {
            // Waiters either shared the leader's error or re-led after
            // the slot was cleaned up; both are fine — hanging is not.
            let _ = w.join().expect("waiter thread returned");
        }
    });

    let outcome = service.specialize(&ext, &int(11)).expect("usable after");
    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(2))
        .expect("run residual");
    assert_eq!(out.value, Datum::Int(2048));
}

// ---------------------------------------------------------------------
// Fault tolerance: crash-safe snapshots
// ---------------------------------------------------------------------

#[test]
fn snapshot_restore_round_trip_restores_warm_hits() {
    let service = SpecService::new();
    let ext = power_ext(&Pgg::new());
    for n in [3, 5, 8] {
        service.specialize(&ext, &int(n)).expect("fill");
    }
    let bytes = service.snapshot_bytes();
    // Deterministic: equal cache contents, equal bytes.
    assert_eq!(bytes, service.snapshot_bytes());
    drop(service); // the "crash"

    let revived = SpecService::new();
    let report = revived.restore_bytes(&bytes);
    assert_eq!(report.restored, 3);
    assert_eq!(report.quarantined, 0);
    assert_eq!(revived.len(), 3);

    // First request after restart: warm hit, zero specializer work.
    let outcome = revived.specialize(&ext, &int(5)).expect("warm restart");
    let stats = revived.stats();
    assert_eq!(stats.spec_runs, 0);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.restored, 3);
    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(2))
        .expect("run restored");
    assert_eq!(out.value, Datum::Int(32));

    // A restored snapshot re-snapshots bit-exactly.
    assert_eq!(revived.snapshot_bytes(), bytes);
}

#[test]
fn corrupted_snapshots_are_quarantined_never_fatal() {
    let service = SpecService::new();
    let ext = power_ext(&Pgg::new());
    for n in [2, 4, 6, 9] {
        service.specialize(&ext, &int(n)).expect("fill");
    }
    let good = service.snapshot_bytes();

    for seed in 0..80 {
        let mut rng = Rng::new(seed);
        let (bad, kind) = corrupt(&good, &mut rng);
        let revived = SpecService::new();
        // Must never panic, whatever the damage; losses are counted.
        let report = revived.restore_bytes(&bad);
        assert!(
            report.restored + report.quarantined > 0 || revived.is_empty(),
            "seed {seed} ({kind:?}): empty report on damaged input"
        );
        assert!(
            revived.len() as u64 == report.restored,
            "seed {seed} ({kind:?}): cache size disagrees with report"
        );
        // Whatever survived must serve real hits afterwards.
        let outcome = revived.specialize(&ext, &int(2)).expect("usable");
        let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(3))
            .expect("run after restore");
        assert_eq!(out.value, Datum::Int(9));
    }

    // A wholesale-garbage file quarantines and leaves the service empty
    // but healthy.
    let revived = SpecService::new();
    let report = revived.restore_bytes(b"not a snapshot at all");
    assert_eq!(report.restored, 0);
    assert!(report.quarantined > 0);
    assert!(revived.is_empty());
    assert!(revived.stats().quarantined > 0);
    revived.specialize(&ext, &int(3)).expect("healthy");
}

#[test]
fn snapshot_file_round_trip_via_tempfile() {
    let dir = std::env::temp_dir().join(format!(
        "t4o-snap-test-{}-{:x}",
        std::process::id(),
        Rng::new(0xfeed).next_u64()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("cache.t4os");

    let service = SpecService::new();
    let ext = power_ext(&Pgg::new());
    service.specialize(&ext, &int(6)).expect("fill");
    service.snapshot(&path).expect("snapshot to disk");

    let revived = SpecService::new();
    let report = revived.restore(&path).expect("restore from disk");
    assert_eq!(report.restored, 1);
    assert_eq!(report.quarantined, 0);
    revived.specialize(&ext, &int(6)).expect("warm");
    assert_eq!(revived.stats().spec_runs, 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_hit_records_hit_metric_and_no_specializer_spans() {
    use two4one::obs;

    let service = SpecService::new();
    let ext = power_ext(&Pgg::new());

    // Cold fill: the request's trace (absorbed back from the big-stack
    // worker) must contain a gen-ext run span (the specializer).
    obs::clear_trace();
    service.specialize(&ext, &int(9)).expect("cold");
    let cold_trace = obs::take_trace();
    assert!(
        cold_trace
            .iter()
            .any(|e| matches!(e.what, obs::TraceWhat::Enter(obs::Phase::GenextRun))),
        "cold fill should trace a gen-ext run span: {}",
        obs::render_trace(&cold_trace)
    );

    // Warm hit: a cache-hit event and not a single specializer span.
    obs::clear_trace();
    service.specialize(&ext, &int(9)).expect("warm");
    let warm_trace = obs::take_trace();
    assert!(
        warm_trace
            .iter()
            .any(|e| matches!(e.what, obs::TraceWhat::Point(obs::EventKind::CacheHit, _))),
        "warm hit should trace a cache-hit event: {}",
        obs::render_trace(&warm_trace)
    );
    assert!(
        !warm_trace.iter().any(|e| matches!(
            e.what,
            obs::TraceWhat::Enter(
                obs::Phase::Specialize | obs::Phase::GenextBuild | obs::Phase::GenextRun
            ) | obs::TraceWhat::Exit {
                phase: obs::Phase::Specialize | obs::Phase::GenextBuild | obs::Phase::GenextRun,
                ..
            }
        )),
        "warm hit must not touch the specializer: {}",
        obs::render_trace(&warm_trace)
    );

    // The same facts appear in the exposition page.
    let page = service.metrics().to_prometheus();
    assert!(page.contains("t4o_serve_hits_total 1\n"), "{page}");
    assert!(page.contains("t4o_serve_requests_total 2\n"), "{page}");
}

// ---------------------------------------------------------------------
// Live redefinition: versioned registry, backedges, tombstones
// ---------------------------------------------------------------------

use std::sync::atomic::{AtomicBool, AtomicU64};
use two4one_server::SpecOutcome;

/// One generation of the hammer's program: the epoch number is baked
/// into the source, so running a residual image reveals which
/// generation it was specialized from (`value = 1000*epoch + s*d`).
fn epoch_src(epoch: u64) -> String {
    format!("(define (hot s d) (+ {} (* s d)))", epoch * 1000)
}

fn epoch_ext(epoch: u64) -> two4one::GenExt {
    let pgg = Pgg::new();
    let program = pgg.parse(&epoch_src(epoch)).expect("parse generation");
    pgg.cogen(&program, "hot", &Division::new([BT::Static, BT::Dynamic]))
        .expect("cogen generation")
}

/// Runs a served outcome with `d = 1` and decodes `(epoch, s)`.
fn decode(outcome: &SpecOutcome) -> (u64, i64) {
    let out = two4one::run_image(&outcome.image, outcome.image.entry.as_str(), &int(1))
        .expect("run residual");
    let Datum::Int(v) = out.value else {
        panic!("non-integer residual result: {:?}", out.value)
    };
    ((v / 1000) as u64, v % 1000)
}

#[test]
fn named_requests_resolve_register_and_unknown_names_error() {
    let service = SpecService::new();
    let err = service
        .specialize_named("nowhere", &int(1))
        .expect_err("unregistered name");
    assert!(matches!(err, ServeError::UnknownProgram(_)), "got: {err}");

    let e1 = service.register("hot", &epoch_ext(1));
    assert_eq!(e1.get(), 1);
    // Identical content re-registered: same generation, not a new one.
    assert_eq!(service.register("hot", &epoch_ext(1)), e1);

    let cold = service.specialize_named("hot", &int(4)).expect("cold");
    assert_eq!(decode(&cold), (1, 4));
    let warm = service.specialize_named("hot", &int(4)).expect("warm");
    assert!(Arc::ptr_eq(&cold.image, &warm.image));
    let stats = service.stats();
    assert_eq!(stats.spec_runs, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(service.programs().len(), 1);

    // Batch requests can address programs by name too.
    let reqs = vec![
        SpecRequest::named("hot", int(4)),
        SpecRequest::named("hot", int(5)),
    ];
    let results = service.specialize_many(&reqs, 2);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(service.stats().spec_runs, 2);
}

#[test]
fn redefine_invalidates_only_the_redefined_program() {
    let service = SpecService::new();
    service.register("hot", &epoch_ext(1));
    let other_src = "(define (scale s d) (* s d))";
    let other = {
        let pgg = Pgg::new();
        let p = pgg.parse(other_src).expect("parse other");
        pgg.cogen(&p, "scale", &Division::new([BT::Static, BT::Dynamic]))
            .expect("cogen other")
    };
    service.register("other", &other);
    let anon = power_ext(&Pgg::new());

    for s in [1, 2, 3] {
        service.specialize_named("hot", &int(s)).expect("fill hot");
    }
    service
        .specialize_named("other", &int(7))
        .expect("fill other");
    service.specialize(&anon, &int(5)).expect("fill anon");
    assert_eq!(service.len(), 5);

    let outcome = service.redefine("hot", &epoch_ext(2));
    assert_eq!(outcome.epoch.get(), 2);
    assert_eq!(outcome.invalidated, 3, "exactly hot's entries dropped");
    assert_eq!(service.len(), 2, "other + anonymous survive");
    assert_eq!(service.epoch_of("hot").map(|e| e.get()), Some(2));

    // The survivors are still warm; the redefined program re-specializes
    // from the new source and returns the new generation's result.
    let runs = service.stats().spec_runs;
    service
        .specialize_named("other", &int(7))
        .expect("other warm");
    service.specialize(&anon, &int(5)).expect("anon warm");
    assert_eq!(service.stats().spec_runs, runs, "unrelated entries warm");
    let fresh = service.specialize_named("hot", &int(2)).expect("refill");
    assert_eq!(decode(&fresh), (2, 2));
    let stats = service.stats();
    assert_eq!(stats.spec_runs, runs + 1);
    assert_eq!(stats.invalidated, 3);
}

#[test]
fn redefine_tombstones_an_in_flight_leader_of_the_old_epoch() {
    // The leader starts filling under epoch 1; while it is blocked
    // mid-fill the program is redefined. The leader's caller still gets
    // its (old-generation) result — the request predates the
    // redefinition — but the publication is tombstoned: never cached,
    // never served again.
    let latch = Arc::new(Latch::default());
    let entered = Arc::new(AtomicUsize::new(0));
    let hook_latch = latch.clone();
    let hook_entered = entered.clone();
    let service = SpecService::with_config(ServeConfig {
        fill_hook: Some(FillHook::new(move || {
            // Only the first fill blocks; post-redefinition fills run
            // clean.
            if hook_entered.fetch_add(1, Ordering::SeqCst) == 0 {
                hook_latch.wait();
            }
        })),
        ..ServeConfig::default()
    });
    service.register("hot", &epoch_ext(1));

    std::thread::scope(|s| {
        let leader = s.spawn(|| service.specialize_named("hot", &int(3)));
        assert!(eventually(|| entered.load(Ordering::SeqCst) == 1));
        let outcome = service.redefine("hot", &epoch_ext(2));
        assert_eq!(outcome.epoch.get(), 2);
        assert_eq!(outcome.invalidated, 0, "nothing published yet");
        latch.release();
        let led = leader.join().expect("leader thread").expect("leader ok");
        // The old-generation result went to the caller that asked for it…
        assert_eq!(decode(&led), (1, 3));
    });

    // …but was never cached: the cache is empty, the tombstoned result
    // publication counted as the one conflict (the staged program lives
    // in the dead generation's extension, so it has nothing to race),
    // and the next request specializes fresh from the new source.
    assert!(service.is_empty(), "tombstoned publication must not cache");
    assert_eq!(service.stats().epoch_conflicts, 1);
    assert!(
        service.genext_of("hot").is_none(),
        "the dead generation's staging must not reach the live one"
    );
    let fresh = service.specialize_named("hot", &int(3)).expect("new gen");
    assert_eq!(decode(&fresh), (2, 3));
    assert_eq!(service.stats().spec_runs, 2);
}

#[test]
fn redefine_hammer_never_serves_stale_epochs() {
    // 8 threads: one redefines in a loop while seven workers specialize
    // and serve. Linearizability claim under test: a request *started*
    // after `redefine(e)` returned never yields a generation older than
    // `e` (requests already in flight may legitimately finish with the
    // generation they started under).
    const EPOCHS: u64 = 12;
    const WORKERS: usize = 7;
    const KEYS: i64 = 3;

    let service = SpecService::new();
    service.register("hot", &epoch_ext(1));
    let published = AtomicU64::new(1);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let service = &service;
        let published = &published;
        let done = &done;
        s.spawn(move || {
            for e in 2..=EPOCHS {
                let outcome = service.redefine("hot", &epoch_ext(e));
                assert_eq!(outcome.epoch.get(), e);
                published.store(e, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
            }
            done.store(true, Ordering::SeqCst);
        });
        for w in 0..WORKERS {
            s.spawn(move || {
                let mut served = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let s_arg = (w as i64 + served as i64) % KEYS + 1;
                    let lo = published.load(Ordering::SeqCst);
                    let outcome = service
                        .specialize_named("hot", &int(s_arg))
                        .expect("serve during redefinition");
                    let (epoch, s_res) = decode(&outcome);
                    assert_eq!(s_res, s_arg, "wrong key's residual");
                    assert!(
                        epoch >= lo,
                        "stale-epoch result: got generation {epoch}, \
                         but {lo} was already live before the request"
                    );
                    served += 1;
                }
                assert!(served > 0, "worker {w} never served");
            });
        }
    });

    let stats = service.stats();
    // Per (epoch, key) the single-flight cache runs the specializer at
    // most once, plus a bounded number of races where a fill resolved
    // the old epoch just before a bump (its publication is tombstoned
    // and counted as an epoch conflict, never served stale).
    assert!(
        stats.spec_runs <= 2 * EPOCHS * KEYS as u64,
        "specializer ran {} times for {} epochs x {} keys",
        stats.spec_runs,
        EPOCHS,
        KEYS
    );
    assert_eq!(service.epoch_of("hot").map(|e| e.get()), Some(EPOCHS));

    // Deterministic invalidation accounting once the dust settles: fill
    // all keys, then one more redefinition drops exactly those.
    for s_arg in 1..=KEYS {
        service.specialize_named("hot", &int(s_arg)).expect("fill");
    }
    let outcome = service.redefine("hot", &epoch_ext(EPOCHS + 1));
    assert_eq!(outcome.invalidated, KEYS as u64);
    assert!(service.stats().invalidated >= KEYS as u64);
    let last = service.specialize_named("hot", &int(1)).expect("fresh");
    assert_eq!(decode(&last), (EPOCHS + 1, 1));
}

#[test]
fn redefine_resets_breaker_so_v1_failures_do_not_block_v2() {
    let service = SpecService::with_config(ServeConfig {
        breaker: BreakerPolicy {
            threshold: 2,
            cooldown: Duration::from_secs(600),
        },
        ..ServeConfig::default()
    });
    service.register("hot", &epoch_ext(1));
    let bad = [Datum::Int(1), Datum::Int(2)]; // arity mismatch: hard failure

    for _ in 0..2 {
        let err = service
            .specialize_named("hot", &bad)
            .expect_err("arity mismatch");
        assert!(matches!(err, ServeError::Spec(_)));
    }
    // Open: a good request is served generic fallback, not specialized.
    let runs = service.stats().spec_runs;
    service.specialize_named("hot", &int(2)).expect("fallback");
    assert_eq!(service.stats().breaker_open, 1);
    assert_eq!(service.stats().spec_runs, runs);

    // v2 is a new generation: the breaker state keyed to the logical
    // name is voided by the epoch change, so the first v2 request
    // specializes normally — no cooldown wait, no fallback.
    service.redefine("hot", &epoch_ext(2));
    let healthy = service.specialize_named("hot", &int(2)).expect("v2 clean");
    assert_eq!(decode(&healthy), (2, 2));
    let stats = service.stats();
    assert_eq!(stats.spec_runs, runs + 1, "v2 ran the specializer");
    assert_eq!(stats.breaker_open, 1, "no new fallbacks after redefine");
}

#[test]
fn redefine_makes_snapshot_records_stale_exactly_per_program() {
    // Service A: two named programs plus anonymous traffic.
    let a = SpecService::new();
    a.register("hot", &epoch_ext(1));
    a.register("cool", &epoch_ext(9));
    let anon = power_ext(&Pgg::new());
    for s in [1, 2] {
        a.specialize_named("hot", &int(s)).expect("fill hot");
        a.specialize_named("cool", &int(s)).expect("fill cool");
        a.specialize(&anon, &int(s)).expect("fill anon");
    }
    let bytes = a.snapshot_bytes();
    assert_eq!(bytes, a.snapshot_bytes(), "snapshot is deterministic");

    // Service B ("after the crash"): `hot` was redefined before the
    // restore, `cool` was not. Exactly hot's records drop as stale.
    let b = SpecService::new();
    b.register("hot", &epoch_ext(2));
    b.register("cool", &epoch_ext(9));
    let report = b.restore_bytes(&bytes);
    assert_eq!(report.restored, 4, "cool + anonymous records survive");
    assert_eq!(report.stale_dropped, 2, "exactly hot's records drop");
    assert_eq!(report.quarantined, 0);
    assert_eq!(b.stats().stale_dropped, 2);

    // Survivors are warm (zero specializer work)…
    for s in [1, 2] {
        b.specialize_named("cool", &int(s)).expect("cool warm");
        b.specialize(&anon, &int(s)).expect("anon warm");
    }
    assert_eq!(b.stats().spec_runs, 0);
    assert_eq!(b.stats().hits, 4);
    // …and the redefined program re-specializes from its new source.
    let fresh = b.specialize_named("hot", &int(1)).expect("hot refill");
    assert_eq!(decode(&fresh), (2, 1));

    // Bit-exactness of the survivors: a reference service that never had
    // `hot` entries at all snapshots to the same bytes as B did before
    // refilling hot (restore preserved the surviving records exactly).
    let reference = SpecService::new();
    reference.register("cool", &epoch_ext(9));
    for s in [1, 2] {
        reference
            .specialize_named("cool", &int(s))
            .expect("reference fill");
        reference
            .specialize(&anon, &int(s))
            .expect("reference anon");
    }
    let c = SpecService::new();
    c.register("hot", &epoch_ext(2));
    c.register("cool", &epoch_ext(9));
    c.restore_bytes(&bytes);
    assert_eq!(c.snapshot_bytes(), reference.snapshot_bytes());
}

#[test]
fn redefine_restore_races_are_counted_not_served() {
    // A redefinition racing the restore itself: records judged live at
    // parse time may be tombstoned at publication time. Here the program
    // is redefined *between* snapshot and restore into the same service,
    // so every one of its records is already stale by identity.
    let service = SpecService::new();
    service.register("hot", &epoch_ext(1));
    service.specialize_named("hot", &int(1)).expect("fill");
    let bytes = service.snapshot_bytes();
    service.redefine("hot", &epoch_ext(2));
    let report = service.restore_bytes(&bytes);
    assert_eq!(report.restored, 0);
    assert_eq!(report.stale_dropped, 1);
    assert!(service.is_empty());
}

#[test]
fn corrupted_named_snapshots_are_quarantined_never_fatal() {
    // The 80-seed corruption sweep against the epoch-aware (v3) record
    // format: named records carry `(name, epoch)` payload fields, and no
    // damage to them may panic the restore.
    let service = SpecService::new();
    service.register("hot", &epoch_ext(1));
    for s in [1, 2, 3] {
        service.specialize_named("hot", &int(s)).expect("fill");
    }
    service
        .specialize(&power_ext(&Pgg::new()), &int(4))
        .expect("anon fill");
    let good = service.snapshot_bytes();

    for seed in 0..80 {
        let mut rng = Rng::new(seed);
        let (bad, kind) = corrupt(&good, &mut rng);
        let revived = SpecService::new();
        revived.register("hot", &epoch_ext(1));
        let report = revived.restore_bytes(&bad);
        assert!(
            revived.len() as u64 == report.restored,
            "seed {seed} ({kind:?}): cache size disagrees with report"
        );
        // Whatever survived, the service serves correct results after.
        let outcome = revived.specialize_named("hot", &int(2)).expect("usable");
        assert_eq!(decode(&outcome), (1, 2), "seed {seed} ({kind:?})");
    }
}

// ----- staged gen-exts --------------------------------------------------

#[test]
fn genext_builds_once_per_generation_and_dies_on_redefine() {
    let service = SpecService::new();
    service.register("hot", &epoch_ext(1));
    assert!(
        service.genext_of("hot").is_none(),
        "the generation is staged lazily, on the first miss"
    );

    // The first miss stages the generation; later misses and warm hits
    // reuse its staged program.
    let a = service.specialize_named("hot", &int(3)).expect("cold");
    assert_eq!(decode(&a), (1, 3));
    let built = service.genext_of("hot").expect("generation staged");
    assert_eq!(service.stats().genext_builds, 1);
    service
        .specialize_named("hot", &int(4))
        .expect("second miss");
    service.specialize_named("hot", &int(3)).expect("warm");
    assert_eq!(service.stats().genext_builds, 1, "one build per generation");
    assert!(Arc::ptr_eq(
        built.staged().expect("staged"),
        service
            .genext_of("hot")
            .expect("still staged")
            .staged()
            .expect("staged")
    ));

    // Redefinition retires the staged program with its generation…
    service.redefine("hot", &epoch_ext(2));
    assert!(
        service.genext_of("hot").is_none(),
        "stale gen-ext must die on redefine"
    );

    // …and the next miss builds — and serves from — the new generation's.
    let b = service.specialize_named("hot", &int(3)).expect("new gen");
    assert_eq!(decode(&b), (2, 3), "no stale gen-ext output post-redefine");
    assert_eq!(service.stats().genext_builds, 2);
    assert!(service.genext_of("hot").is_some());
}

#[test]
fn anonymous_and_named_routes_serve_identical_images() {
    // Named fills and anonymous fills run one engine, the gen-ext
    // machine, on a program staged once per extension: they must serve
    // bit-identical residual images with equal specializer stats, and
    // count the same service work.
    let named = SpecService::new();
    named.register("hot", &epoch_ext(1));
    let anon = SpecService::new();
    let ext = epoch_ext(1);
    for s in [0i64, 1, 5] {
        let n = named.specialize_named("hot", &int(s)).expect("named");
        let a = anon.specialize(&ext, &int(s)).expect("anon");
        assert_eq!(
            two4one::encode_image(&n.image),
            two4one::encode_image(&a.image),
            "s={s}: named image differs from anonymous image"
        );
        assert_eq!(n.stats, a.stats);
    }
    let (n, a) = (named.stats(), anon.stats());
    assert_eq!((n.genext_builds, n.spec_runs, n.misses), (1, 3, 3));
    assert_eq!((a.genext_builds, a.spec_runs, a.misses), (1, 3, 3));
    assert!(ext.is_staged(), "the caller's extension keeps the staging");
}

#[test]
fn genext_snapshot_warm_starts_a_second_process() {
    let first = SpecService::new();
    first.register("hot", &epoch_ext(1));
    first.specialize_named("hot", &int(3)).expect("fill");
    assert_eq!(first.stats().genext_builds, 1);
    let snapshot = first.genext_snapshot_bytes();
    assert_eq!(
        snapshot,
        first.genext_snapshot_bytes(),
        "equal registry contents must snapshot identically"
    );

    // "Second process": the same program re-registered from source
    // (epochs are per-process), the gen-ext restored from the snapshot —
    // its cold miss runs the staged bytecode without ever building it.
    let second = SpecService::new();
    second.register("hot", &epoch_ext(1));
    let report = second.restore_genexts_bytes(&snapshot);
    assert_eq!(report.restored, 1);
    assert_eq!(report.quarantined, 0);
    assert_eq!(report.stale_dropped, 0);
    assert!(second.genext_of("hot").is_some());
    let out = second
        .specialize_named("hot", &int(3))
        .expect("cold via restored gen-ext");
    assert_eq!(decode(&out), (1, 3));
    assert_eq!(
        second.stats().genext_builds,
        0,
        "restored artifact — the cold miss must not build"
    );

    // A process whose registration has *different* source drops the
    // record as stale; so does one that never registered the name.
    let third = SpecService::new();
    third.register("hot", &epoch_ext(2));
    let report = third.restore_genexts_bytes(&snapshot);
    assert_eq!(report.restored, 0);
    assert_eq!(report.stale_dropped, 1);
    assert!(third.genext_of("hot").is_none());
    let fourth = SpecService::new();
    assert_eq!(fourth.restore_genexts_bytes(&snapshot).stale_dropped, 1);

    // Corruption quarantines the record instead of restoring garbage.
    let mut corrupted = snapshot.clone();
    let n = corrupted.len();
    corrupted[n - 9] ^= 0x41;
    let fifth = SpecService::new();
    fifth.register("hot", &epoch_ext(1));
    let report = fifth.restore_genexts_bytes(&corrupted);
    assert_eq!(report.restored, 0);
    assert!(report.quarantined >= 1);
    assert!(fifth.genext_of("hot").is_none());
}

#[test]
fn genext_restores_show_in_the_service_counters() {
    use two4one::obs;

    // Three staged programs, snapshotted in name order: a, b, c.
    let first = SpecService::new();
    for (name, generation) in [("a", 1), ("b", 2), ("c", 3)] {
        first.register(name, &epoch_ext(generation));
        first.specialize_named(name, &int(3)).expect("fill");
    }
    let mut snapshot = first.genext_snapshot_bytes();
    // Corrupt the last record, c's.
    let n = snapshot.len();
    snapshot[n - 9] ^= 0x41;

    // a matches its registration, b's source changed, c's record is torn.
    let second = SpecService::new();
    for (name, generation) in [("a", 1), ("b", 5), ("c", 3)] {
        second.register(name, &epoch_ext(generation));
    }
    obs::clear_trace();
    let report = second.restore_genexts_bytes(&snapshot);
    let trace = obs::take_trace();
    assert_eq!(
        (report.restored, report.stale_dropped, report.quarantined),
        (1, 1, 1),
        "{report:?}"
    );
    let stats = second.stats();
    assert_eq!(
        (stats.restored, stats.stale_dropped, stats.quarantined),
        (1, 1, 1),
        "{stats:?}"
    );
    let page = second.metrics().to_prometheus();
    for family in [
        "t4o_serve_restored_total 1",
        "t4o_serve_stale_dropped_total 1",
        "t4o_serve_quarantined_total 1",
    ] {
        assert!(page.contains(family), "missing `{family}` in:\n{page}");
    }
    if obs::enabled() {
        for kind in [
            obs::EventKind::Restored,
            obs::EventKind::StaleDropped,
            obs::EventKind::Quarantined,
        ] {
            assert!(
                trace
                    .iter()
                    .any(|e| matches!(e.what, obs::TraceWhat::Point(k, 1) if k == kind)),
                "no {kind:?} event: {}",
                obs::render_trace(&trace)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Tiered execution: Tier-0 generic serving and background promotion
// ---------------------------------------------------------------------

fn tier0_config(promote_after: u64, promote_workers: usize) -> ServeConfig {
    ServeConfig {
        tier0: true,
        promote_after,
        promote_workers,
        ..ServeConfig::default()
    }
}

#[test]
fn tier0_first_response_is_bit_identical_to_generic_fallback() {
    // Threshold high enough that promotion never fires: the Tier-0
    // image stays in the cache for inspection.
    let service = SpecService::with_config(tier0_config(u64::MAX, 1));
    let ext = power_ext(&Pgg::new());
    let cold = service.specialize(&ext, &int(5)).expect("tier0 cold");

    // The requester paid for generic compilation only: the miss is
    // recorded as a Tier-0 serve, not a specializer run.
    let stats = service.stats();
    let tier = service.tier_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(tier.tier0_served, 1);
    assert_eq!(stats.spec_runs, 0, "requester must not pay the specializer");

    // Tier-0 uses the breaker's fallback recipe verbatim: the same
    // generating extension run with zero unfold fuel and graceful
    // fallback on. Encoding both images proves bit-identity.
    let mut generic_options = ext.options().clone();
    generic_options.limits.unfold_fuel = Some(0);
    generic_options.fallback = true;
    let (generic_image, _) = ext
        .specialize_object_governed(&int(5), &generic_options, None)
        .expect("generic specialize");
    assert_eq!(
        two4one::encode_image(&cold.image),
        two4one::encode_image(&generic_image),
        "Tier-0 image must be bit-identical to the generic fallback"
    );

    // And the generic residual still computes the right answers.
    let out = two4one::run_image(&cold.image, cold.image.entry.as_str(), &int(2))
        .expect("run tier0 residual");
    assert_eq!(out.value, Datum::Int(32));

    // A warm hit shares the cached generic image; still no promotion.
    let warm = service.specialize(&ext, &int(5)).expect("tier0 warm");
    assert!(Arc::ptr_eq(&cold.image, &warm.image));
    assert_eq!(service.tier_stats().promotions, 0);
}

#[test]
fn tier0_promotion_swaps_in_specialized_image() {
    let service = SpecService::with_config(tier0_config(2, 1));
    let ext = power_ext(&Pgg::new());

    let cold = service.specialize(&ext, &int(5)).expect("tier0 cold");
    // Two warm hits cross the promotion threshold and enqueue the key.
    for _ in 0..2 {
        let warm = service.specialize(&ext, &int(5)).expect("warm generic");
        assert!(Arc::ptr_eq(&cold.image, &warm.image), "still generic");
    }
    assert!(
        eventually(|| service.tier_stats().promotions >= 1),
        "promotion never landed: {:?}",
        service.tier_stats()
    );

    // The hot-swapped entry is a *different* image that was actually
    // specialized (the full unfold of power for n = 5), served from the
    // same cache slot with zero work for the requester.
    let promoted = service.specialize(&ext, &int(5)).expect("post-promotion");
    assert!(
        !Arc::ptr_eq(&cold.image, &promoted.image),
        "cache still serves the generic image after promotion"
    );
    assert!(
        !promoted.stats.degraded(),
        "promotion produced a degraded image"
    );
    let out = two4one::run_image(&promoted.image, promoted.image.entry.as_str(), &int(2))
        .expect("run promoted residual");
    assert_eq!(out.value, Datum::Int(32));

    let stats = service.stats();
    let tier = service.tier_stats();
    assert_eq!(stats.spec_runs, 1, "exactly one background specialization");
    assert_eq!(tier.tier0_served, 1);
    assert_eq!(tier.promotions, 1);
    assert_eq!(tier.demotions, 0);
    // The swap replaced the entry in place: no extra miss, no eviction.
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn tier0_stages_once_per_generation_and_promotions_reuse_it() {
    let service = SpecService::with_config(tier0_config(1, 1));
    service.register("hot", &epoch_ext(1));

    // The cold named fill stages the generation for its generic image
    // (the gen-ext machine at zero fuel) and keeps what it staged.
    let cold = service.specialize_named("hot", &int(4)).expect("cold");
    assert_eq!(decode(&cold), (1, 4));
    assert_eq!(service.stats().genext_builds, 1, "first touch stages");
    assert!(service.genext_of("hot").is_some());

    // The first warm hit crosses the threshold; the promotion worker
    // specializes on the staged program without staging again.
    let warm = service.specialize_named("hot", &int(4)).expect("warm");
    assert_eq!(decode(&warm), (1, 4));
    assert!(eventually(|| service.tier_stats().promotions >= 1));
    assert_eq!(service.stats().genext_builds, 1, "promotion restaged");

    // Later fills and promotions of the same generation reuse it too.
    service
        .specialize_named("hot", &int(5))
        .expect("second key cold");
    service
        .specialize_named("hot", &int(5))
        .expect("second key warm");
    assert!(eventually(|| service.tier_stats().promotions >= 2));
    assert_eq!(service.stats().genext_builds, 1, "gen-ext restaged per key");
}

#[test]
fn tier0_promotion_vs_redefine_hammer_never_swaps_stale() {
    // 8 threads: one redefines in a loop while seven workers hammer the
    // Tier-0 serve path hard enough that every key keeps crossing the
    // promotion threshold, so background swaps race the redefinitions.
    // Invariants: (a) a request started after `redefine(e)` returned
    // never yields a generation older than `e`, and (b) once the dust
    // settles every key decodes to the final generation — a stale-epoch
    // promotion that slipped past the tombstone would violate both.
    const EPOCHS: u64 = 8;
    const WORKERS: usize = 7;
    const KEYS: i64 = 3;

    let service = SpecService::with_config(tier0_config(1, 2));
    service.register("hot", &epoch_ext(1));
    let published = AtomicU64::new(1);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let service = &service;
        let published = &published;
        let done = &done;
        s.spawn(move || {
            for e in 2..=EPOCHS {
                let outcome = service.redefine("hot", &epoch_ext(e));
                assert_eq!(outcome.epoch.get(), e);
                published.store(e, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(4));
            }
            done.store(true, Ordering::SeqCst);
        });
        for w in 0..WORKERS {
            s.spawn(move || {
                let mut served = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let s_arg = (w as i64 + served as i64) % KEYS + 1;
                    let lo = published.load(Ordering::SeqCst);
                    let outcome = service
                        .specialize_named("hot", &int(s_arg))
                        .expect("serve during redefinition");
                    let (epoch, s_res) = decode(&outcome);
                    assert_eq!(s_res, s_arg, "wrong key's residual");
                    assert!(
                        epoch >= lo,
                        "stale-epoch result: got generation {epoch}, \
                         but {lo} was already live before the request"
                    );
                    served += 1;
                }
                assert!(served > 0, "worker {w} never served");
            });
        }
    });

    // Drive the final generation over the threshold for every key, then
    // wait for the promotion queue to drain.
    for s_arg in 1..=KEYS {
        service
            .specialize_named("hot", &int(s_arg))
            .expect("final fill");
        service
            .specialize_named("hot", &int(s_arg))
            .expect("final hit");
    }
    assert!(eventually(|| service.tier_stats().queued == 0));
    assert!(
        eventually(|| {
            (1..=KEYS).all(|s_arg| {
                let outcome = service
                    .specialize_named("hot", &int(s_arg))
                    .expect("post-hammer serve");
                decode(&outcome) == (EPOCHS, s_arg)
            })
        }),
        "a key still serves a stale generation after the hammer"
    );

    let tier = service.tier_stats();
    assert!(tier.promotions >= 1, "hammer never promoted: {tier:?}");
    // Conflicted swaps are timing-dependent — record, don't require.
    eprintln!(
        "hammer: {} promotions, {} tombstoned swaps, {} demotions",
        tier.promotions, tier.swap_epoch_conflicts, tier.demotions
    );
    assert_eq!(tier.demotions, 0, "specializer failed during the hammer");
}

#[test]
fn starved_promotion_climbs_the_ladder_in_one_job() {
    // Fuel 4 cannot finish power^20 (21 unfoldings), nor can the ×4 re-run
    // (16); the ×16 re-run (64) can. The promotion climbs both rungs in
    // its one background job and swaps in a clean image once.
    let service = SpecService::with_config(tier0_config(1, 1));
    let ext = power_ext(&Pgg::new().unfold_fuel(4));
    let cold = service.specialize(&ext, &int(20)).expect("tier0 cold");
    service
        .specialize(&ext, &int(20))
        .expect("hit that enqueues");
    assert!(
        eventually(|| service.tier_stats().promotions >= 1),
        "promotion never landed: {:?}",
        service.tier_stats()
    );
    let stats = service.stats();
    assert_eq!(stats.retried, 2, "×4 and ×16 re-runs");
    assert_eq!(stats.spec_runs, 1, "the ladder runs inside one fill");
    assert_eq!(stats.degraded, 0);

    // A clean, final image: later hits share it and enqueue nothing.
    two4one::obs::clear_trace();
    let promoted = service.specialize(&ext, &int(20)).expect("promoted hit");
    for _ in 0..3 {
        let again = service.specialize(&ext, &int(20)).expect("promoted hit");
        assert!(Arc::ptr_eq(&promoted.image, &again.image));
    }
    let trace = two4one::obs::take_trace();
    assert!(
        !trace.iter().any(|e| matches!(
            e.what,
            two4one::obs::TraceWhat::Point(two4one::obs::EventKind::PromoteEnqueued, _)
        )),
        "a final entry was re-enqueued: {}",
        two4one::obs::render_trace(&trace)
    );
    assert!(!Arc::ptr_eq(&cold.image, &promoted.image));
    assert!(!promoted.stats.degraded(), "promotion kept a starved image");
    let out = two4one::run_image(&promoted.image, promoted.image.entry.as_str(), &int(2))
        .expect("run promoted residual");
    assert_eq!(out.value, Datum::Int(1 << 20));
    let tier = service.tier_stats();
    assert_eq!(tier.promotions, 1);
    assert_eq!(tier.queued, 0);
    assert_eq!(service.stats().spec_runs, 1);
}

#[test]
fn promotion_that_stays_starved_keeps_its_last_image() {
    // power^200 needs 201 unfoldings; fuel 1 escalated to ×64 still
    // starves. The promotion spends all three re-runs, then swaps in the
    // last (×64) image: degraded, but better than generic, and final.
    let service = SpecService::with_config(tier0_config(1, 1));
    let ext = power_ext(&Pgg::new().unfold_fuel(1));
    let cold = service.specialize(&ext, &int(200)).expect("tier0 cold");
    service
        .specialize(&ext, &int(200))
        .expect("hit that enqueues");
    assert!(
        eventually(|| service.tier_stats().promotions >= 1),
        "promotion never landed: {:?}",
        service.tier_stats()
    );
    let stats = service.stats();
    assert_eq!(stats.retried, 3, "×4, ×16 and ×64 re-runs");
    assert_eq!(stats.degraded, 1, "only the kept run counts as degraded");
    assert_eq!(stats.spec_runs, 1);

    let kept = service.specialize(&ext, &int(200)).expect("promoted hit");
    assert!(!Arc::ptr_eq(&cold.image, &kept.image));
    assert!(kept.stats.degraded());
    assert_eq!(kept.stats.unfolds, 64, "the ×64 run is the one kept");
    for (x, want) in [(1, 1), (-1, 1), (0, 0)] {
        let out = two4one::run_image(&kept.image, kept.image.entry.as_str(), &int(x))
            .expect("run starved residual");
        assert_eq!(out.value, Datum::Int(want), "x = {x}");
    }
    assert_eq!(service.tier_stats().promotions, 1);
    assert_eq!(
        service.stats().spec_runs,
        1,
        "a final entry is not re-promoted"
    );
}

#[test]
fn tier0_snapshots_hold_only_finished_specializations() {
    // A generic image awaiting promotion is not a finished
    // specialization: snapshotting it would restore it as final, and it
    // would never be promoted.
    let ext = power_ext(&Pgg::new());
    let pending = SpecService::with_config(tier0_config(u64::MAX, 1));
    pending.specialize(&ext, &int(5)).expect("tier0 cold");
    assert_eq!(pending.len(), 1);
    let report = SpecService::new().restore_bytes(&pending.snapshot_bytes());
    assert_eq!(report.restored, 0, "a generic image was saved as final");

    // Once the promotion lands, the entry is final and saved.
    let promoted = SpecService::with_config(tier0_config(1, 1));
    promoted.specialize(&ext, &int(5)).expect("tier0 cold");
    promoted
        .specialize(&ext, &int(5))
        .expect("hit that enqueues");
    assert!(eventually(|| promoted.tier_stats().promotions >= 1));
    let revived = SpecService::with_config(tier0_config(1, 1));
    let report = revived.restore_bytes(&promoted.snapshot_bytes());
    assert_eq!(report.restored, 1);
    let warm = revived.specialize(&ext, &int(5)).expect("restored hit");
    assert!(!warm.stats.degraded(), "restored the generic image");
    assert_eq!(revived.stats().hits, 1);
    assert_eq!(revived.tier_stats().tier0_served, 0);
}
