//! Serving-layer throughput: requests/sec through the `SpecService`,
//! cold (every request specializes) vs. warm (every request hits the
//! cache), single-threaded vs. a 4-worker pool.
//!
//! The paper's economics (Sec. 7: specialization pays for itself after a
//! handful of runs) scale across cores only if concurrent requests don't
//! serialize and repeated requests don't re-specialize; this benchmark
//! tracks both. Results land in `BENCH_serve.json` so successive PRs can
//! compare trajectories.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use two4one::{Datum, Division, Pgg, BT};
use two4one_bench::harness::{self, Criterion};
use two4one_bench::{criterion_group, criterion_main};
use two4one_server::{FillHook, ServeConfig, ServeError, SpecRequest, SpecService};

/// Distinct requests per batch: enough to keep 4 workers busy, small
/// enough that a cold sample stays fast.
const REQUESTS: i64 = 24;

/// Unfold depth floor per request: deep enough that specializer work
/// dominates the service's fixed per-fill bookkeeping, so the cold rows
/// compare engines rather than registry overhead.
const DEPTH: i64 = 100;

fn requests() -> Vec<SpecRequest> {
    let pgg = Pgg::new();
    let program = pgg
        .parse("(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))")
        .expect("parse power");
    let ext = pgg
        .cogen(&program, "power", &Division::new([BT::Static, BT::Dynamic]))
        .expect("cogen power");
    (1..=REQUESTS)
        .map(|n| SpecRequest::new(ext.clone(), vec![Datum::Int(DEPTH + n)]))
        .collect()
}

/// Drains `reqs` through a service with `jobs` workers; `fresh` controls
/// cold (new service per drain) vs. warm (reuse one pre-filled service).
fn drain(service: &SpecService, reqs: &[SpecRequest], jobs: usize) {
    for r in service.specialize_many(reqs, jobs) {
        black_box(r.expect("serve request"));
    }
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    let reqs = requests();

    // Cold cache: every request runs the specializer.
    for jobs in [1usize, 4] {
        let reqs = reqs.clone();
        group.bench_function(format!("cold/{jobs}-thread"), move |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let service = SpecService::new();
                    let t0 = Instant::now();
                    drain(&service, &reqs, jobs);
                    total += t0.elapsed();
                }
                total
            })
        });
    }

    // Cold misses on the named route: the same 24 distinct requests
    // against a *registered* program. The first (untimed) fill stages
    // the generating extension to bytecode — the one-time build cost
    // `spec.rs` reports as `genext-build` — and the timed drain is then
    // 24 pure cache misses served by the machine, directly comparable to
    // `cold/1-thread` (the anonymous route, same engine, same batch).
    {
        let pgg = Pgg::new();
        let program = pgg
            .parse("(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))")
            .expect("parse power");
        let ext = pgg
            .cogen(&program, "power", &Division::new([BT::Static, BT::Dynamic]))
            .expect("cogen power");
        group.bench_function("cold-genext/1-thread", move |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let service = SpecService::new();
                    service.register("bench", &ext);
                    service
                        .specialize_named("bench", &[Datum::Int(0)])
                        .expect("build fill");
                    let staged = service.stats().genext_builds;
                    let t0 = Instant::now();
                    for n in 1..=REQUESTS {
                        black_box(
                            service
                                .specialize_named("bench", &[Datum::Int(DEPTH + n)])
                                .expect("named fill"),
                        );
                    }
                    total += t0.elapsed();
                    assert_eq!(
                        service.stats().genext_builds,
                        staged,
                        "the timed drain staged the gen-ext"
                    );
                }
                total
            })
        });
    }

    // Tier-0 first touch: the same cold batch against a tiered service.
    // Every request is a first touch answered with the generic image;
    // the 2+ ms specializer never runs on the request path. The huge
    // threshold keeps the promotion workers idle so the row isolates
    // the first-touch latency win over `cold/1-thread`.
    {
        let reqs = reqs.clone();
        group.bench_function("tier0-first-touch/1-thread", move |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let service = SpecService::with_config(ServeConfig {
                        tier0: true,
                        promote_after: u64::MAX,
                        ..ServeConfig::default()
                    });
                    let t0 = Instant::now();
                    drain(&service, &reqs, 1);
                    total += t0.elapsed();
                    let tier = service.tier_stats();
                    assert_eq!(tier.tier0_served, REQUESTS as u64);
                    assert_eq!(service.stats().spec_runs, 0);
                }
                total
            })
        });
    }

    // Post-promotion steady state: a tiered service whose whole batch
    // has been hot-swapped to specialized images by the background
    // workers. The convergence claim: once promotion lands, warm
    // traffic must match an eagerly-specialized cache (`warm/4-thread`)
    // — the tier checks on the hit path cost nothing measurable.
    let promoted_service = SpecService::with_config(ServeConfig {
        tier0: true,
        promote_after: 1,
        promote_workers: 4,
        ..ServeConfig::default()
    });
    {
        drain(&promoted_service, &reqs, 4); // generic fills
        drain(&promoted_service, &reqs, 4); // hits cross the threshold
        let give_up = Instant::now() + Duration::from_secs(30);
        while promoted_service.tier_stats().promotions < REQUESTS as u64 {
            assert!(
                Instant::now() < give_up,
                "promotion never converged: {:?}",
                promoted_service.tier_stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let promoted_service = &promoted_service;
        let reqs = reqs.clone();
        group.bench_function("post-promotion/4-thread", move |b| {
            b.iter(|| drain(promoted_service, &reqs, 4))
        });
    }

    // Warm cache: the same batch again is pure cache traffic.
    let warm_service = SpecService::new();
    drain(&warm_service, &reqs, 4);
    {
        let warm_service = &warm_service;
        let reqs = reqs.clone();
        group.bench_function("warm/4-thread", move |b| {
            b.iter(|| drain(warm_service, &reqs, 4))
        });
    }

    // Observability overhead: the same warm traffic with span/latency
    // recording switched off. The gap between this row and the one above
    // is what the metrics layer costs on the hottest path.
    {
        let warm_service = &warm_service;
        let reqs = reqs.clone();
        group.bench_function("warm-noobs/4-thread", move |b| {
            two4one::obs::set_enabled(false);
            b.iter(|| drain(warm_service, &reqs, 4));
            two4one::obs::set_enabled(true);
        });
    }

    // Warm restart: a fresh service revived from a crash-safe snapshot
    // serves the whole batch as cache hits — restore cost included.
    let snapshot = {
        let filled = SpecService::new();
        drain(&filled, &reqs, 4);
        filled.snapshot_bytes()
    };
    {
        let reqs = reqs.clone();
        group.bench_function("warm-restart/4-thread", move |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let service = SpecService::new();
                    let t0 = Instant::now();
                    let report = service.restore_bytes(&snapshot);
                    drain(&service, &reqs, 4);
                    total += t0.elapsed();
                    assert_eq!(report.restored, REQUESTS as u64);
                    assert_eq!(service.stats().spec_runs, 0);
                }
                total
            })
        });
    }

    // Redefinition: invalidating a fully-warm program (24 cached
    // specializations) is backedge surgery on the registry and cache
    // shards, not re-specialization — it must cost nothing next to the
    // cold fills it obsoletes.
    {
        group.bench_function("redefine/24-entries", |b| {
            b.iter_custom(|iters| {
                let pgg = Pgg::new();
                let generation = |e: u64| {
                    let src =
                        format!("(define (power n x) (if (= n 0) {e} (* x (power (- n 1) x))))");
                    let program = pgg.parse(&src).expect("parse generation");
                    pgg.cogen(&program, "power", &Division::new([BT::Static, BT::Dynamic]))
                        .expect("cogen generation")
                };
                let service = SpecService::new();
                service.register("bench", &generation(1));
                let mut total = Duration::ZERO;
                for epoch in 2..=(iters + 1) {
                    // Untimed: warm every entry of the live generation,
                    // and prepare the next one.
                    for n in 1..=REQUESTS {
                        service
                            .specialize_named("bench", &[Datum::Int(n)])
                            .expect("warm fill");
                    }
                    let next = generation(epoch);
                    let t0 = Instant::now();
                    let outcome = service.redefine("bench", &next);
                    total += t0.elapsed();
                    assert_eq!(outcome.invalidated, REQUESTS as u64);
                }
                total
            })
        });
    }

    // Overload shedding: with the gate saturated, rejecting the excess
    // must stay cheap — shedding is the mechanism that protects latency.
    {
        let latch = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicBool::new(false));
        let hook_latch = latch.clone();
        let hook_entered = entered.clone();
        let service = SpecService::with_config(ServeConfig {
            max_inflight: 1,
            queue_bound: 0,
            fill_hook: Some(FillHook::new(move || {
                hook_entered.store(true, Ordering::SeqCst);
                let (open, cv) = &*hook_latch;
                let mut open = open.lock().expect("latch lock");
                while !*open {
                    open = cv.wait(open).expect("latch wait");
                }
            })),
            ..ServeConfig::default()
        });
        let burst = requests();
        std::thread::scope(|scope| {
            let svc = &service;
            let blocker = &burst[0];
            scope.spawn(move || {
                let _ = svc.specialize_request(blocker);
            });
            while !entered.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let excess = &burst[1..];
            group.bench_function("overload-shed/reject", |b| {
                b.iter(|| {
                    for r in excess {
                        let e = svc.specialize_request(r).expect_err("gate full");
                        black_box(matches!(e, ServeError::Overloaded { .. }));
                    }
                })
            });
            let (open, cv) = &*latch;
            *open.lock().expect("latch lock") = true;
            cv.notify_all();
        });
    }

    report(&group);
}

/// Prints requests/sec, checks the scaling acceptance floor, and writes
/// the trajectory file.
fn report(group: &harness::Group) {
    let rate = |id: &str| -> Option<f64> {
        group
            .results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| REQUESTS as f64 / r.median.as_secs_f64())
    };
    let cold1 = rate("cold/1-thread").expect("cold/1 result");
    let cold4 = rate("cold/4-thread").expect("cold/4 result");
    let coldgen = rate("cold-genext/1-thread").expect("cold-genext result");
    let tier0 = rate("tier0-first-touch/1-thread").expect("tier0-first-touch result");
    let postpromo = rate("post-promotion/4-thread").expect("post-promotion result");
    let warm4 = rate("warm/4-thread").expect("warm/4 result");
    let warm4_noobs = rate("warm-noobs/4-thread").expect("warm-noobs result");
    let restart4 = rate("warm-restart/4-thread").expect("warm-restart result");
    let redefine = rate("redefine/24-entries").expect("redefine result");
    let shed = rate("overload-shed/reject").expect("overload-shed result");
    println!("  cold 1-thread: {cold1:.0} req/s");
    println!("  cold 4-thread: {cold4:.0} req/s ({:.2}x)", cold4 / cold1);
    println!(
        "  cold-genext 1-thread (24 named misses): {coldgen:.0} req/s \
         ({:.2}x cold)",
        coldgen / cold1
    );
    println!(
        "  tier0 first touch 1-thread: {tier0:.0} req/s ({:.1}x cold)",
        tier0 / cold1
    );
    println!("  post-promotion 4-thread: {postpromo:.0} req/s",);
    println!(
        "  warm 4-thread: {warm4:.0} req/s ({:.0}x cold)",
        warm4 / cold1
    );
    println!(
        "  warm 4-thread, metrics off: {warm4_noobs:.0} req/s \
         (obs overhead {:.1}%)",
        (1.0 - warm4 / warm4_noobs) * 100.0
    );
    println!(
        "  warm restart (restore + serve): {restart4:.0} req/s ({:.0}x cold)",
        restart4 / cold1
    );
    println!("  redefine (24-entry invalidation): {redefine:.0} entries/s");
    println!("  overload shed: {shed:.0} rejections/s");

    // Anchor to the workspace root so the trajectory file lands in the
    // same place regardless of cargo's bench working directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    harness::write_json(path, group).expect("write BENCH_serve.json");
    println!("  wrote BENCH_serve.json");

    // Acceptance floor: 4 cold workers must not be slower than one
    // (small tolerance for core-starved CI machines). On a single-core
    // box the pool can only add scheduling overhead, so the floor is
    // meaningless there and skipped.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores >= 2 {
        assert!(
            cold4 >= cold1 * 0.9,
            "4-thread cold throughput regressed below single-thread: \
             {cold4:.0} vs {cold1:.0} req/s"
        );
    } else {
        println!("  (single-core machine: 4-thread scaling floor skipped)");
    }
    // Anonymous and named misses run one engine (the gen-ext machine,
    // each on a program staged once): the anonymous route must keep up
    // with the named one, which only adds registry bookkeeping.
    assert!(
        cold1 >= coldgen * 0.9,
        "anonymous cold misses lag named ones on the same engine: \
         {cold1:.0} vs {coldgen:.0} req/s"
    );
    // First-touch economics of the tiered pipeline: answering a cold
    // miss with the generic image must beat blocking on the specializer
    // by at least 5x (it runs at ~20x on an idle machine; the floor
    // leaves room for shared CI hardware).
    assert!(
        tier0 >= cold1 * 5.0,
        "Tier-0 first touch not 5x over cold: {tier0:.0} vs {cold1:.0} req/s"
    );
    // Convergence: once the background workers have hot-swapped every
    // entry, tiered warm traffic must be within 10% of an eagerly
    // specialized cache — the hit-path tier checks are free.
    assert!(
        postpromo >= warm4 * 0.90,
        "post-promotion warm throughput lags eager specialization: \
         {postpromo:.0} vs {warm4:.0} req/s"
    );
    // The warm path does zero specializer work, so it must dominate cold.
    assert!(
        warm4 > cold4,
        "warm cache no faster than cold: {warm4:.0} vs {cold4:.0} req/s"
    );
    // Observability budget: warm-hit throughput with metrics recording
    // on must stay within a small factor of the metrics-off rate (the
    // tolerance is looser than the 5% design budget because both rows
    // are short, noisy samples on shared CI hardware).
    assert!(
        warm4 >= warm4_noobs * 0.80,
        "metrics overhead on the warm path too high: {warm4:.0} vs {warm4_noobs:.0} req/s"
    );
    // A snapshot-restored cache also skips the specializer entirely;
    // restore cost must not eat the advantage.
    assert!(
        restart4 > cold4,
        "warm restart no faster than cold: {restart4:.0} vs {cold4:.0} req/s"
    );
    // Redefinition is registry + cache surgery, never re-specialization:
    // invalidating entries must beat cold-filling them by a wide margin.
    assert!(
        redefine > cold1 * 10.0,
        "redefinition too slow: {redefine:.0} entries/s vs cold {cold1:.0} req/s"
    );
    // Shedding is the overload safety valve: rejections must be at least
    // as cheap as cold specialization by a wide margin.
    assert!(
        shed > cold1 * 10.0,
        "overload shedding too slow: {shed:.0} rejections/s vs cold {cold1:.0} req/s"
    );
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
