//! `spec-cold`: an in-process `SpecService` where every request is a cache
//! miss. Seeded variants of the MIXWELL and LAZY static programs go both
//! anonymously (the interpreted specializer) and by name (the compiled
//! generating extension); one operation in sixteen redefines a program.
//! Every residual image runs once and its result is checked against the
//! interpreter.

use std::collections::BTreeMap;
use std::time::Instant;

use two4one::{Datum, GenExt};
use two4one_server::{ServeConfig, ServeResult, SpecOutcome, SpecService};

use crate::catalog::{self, Lang};
use crate::report::{self, Counters, Samples};
use crate::stream::{ColdKind, ColdOp, ColdStream, COLD_BIASES};
use crate::trace::{self, span};
use crate::{check, closed_loop, exec, measure, timed, Config, Done, Outcome, Slice};

/// Cache capacity: small enough that the warm-up fills it and every
/// measured miss evicts, so memory is in steady state from the first op.
const CACHE_ENTRIES: usize = 128;

/// Misses issued at set-up to fill the cache.
const WARM_FILLS: u64 = CACHE_ENTRIES as u64;

/// Warm-up salts live above every stream salt.
const WARM_SALT: u64 = 1 << 62;

struct State {
    service: SpecService,
    exts: Vec<GenExt>,
}

fn setup() -> State {
    let service = SpecService::with_config(ServeConfig {
        max_entries: CACHE_ENTRIES,
        ..ServeConfig::default()
    });
    let mut exts = Vec::new();
    for lang in Lang::ALL {
        let ext = lang.genext();
        span("server.register", || service.register(lang.name(), &ext));
        exts.push(ext);
    }
    for i in 0..WARM_FILLS {
        let lang = Lang::ALL[(i % 2) as usize];
        let statics = [lang.program((i / 2) as i64 % COLD_BIASES, WARM_SALT + i)];
        let r = if i % 4 < 2 {
            span("server.fill", || {
                service.specialize_named(lang.name(), &statics)
            })
        } else {
            span("server.fill", || {
                service.specialize(&exts[lang as usize], &statics)
            })
        };
        r.expect("warm-up fill");
    }
    State { service, exts }
}

/// Bench-side counts over traced slices.
#[derive(Default)]
struct Tally {
    misses: u64,
    unfolds: u64,
    memo_points: u64,
    fallbacks: u64,
    code_size: u64,
    redefines: u64,
    invalidated: u64,
}

impl Tally {
    fn note(&mut self, outcome: &SpecOutcome) {
        self.misses += 1;
        self.unfolds += outcome.stats.unfolds;
        self.memo_points += outcome.stats.memo_misses;
        self.fallbacks += u64::from(outcome.stats.fallbacks > 0);
        self.code_size += outcome.code_size() as u64;
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let started = Instant::now();
    let oracle = catalog::oracle(COLD_BIASES);
    let prepare_s = started.elapsed().as_secs_f64();

    let mut stream = ColdStream::new(cfg.seed);
    let mut next_id = 0;
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut tally = Tally::default();
    let mut deltas = Counters::default();
    let kinds = [Slice::Untraced, Slice::Traced];
    let (state, setup_times) = measure(cfg, &kinds, setup, |state, kind, budget| {
        let c0 = Counters::read(&state.service);
        let on = kind == Slice::Traced;
        let samples = closed_loop(budget, &mut next_id, &mut stream, |op: ColdOp| {
            let statics = [op.lang.program(op.bias, op.salt)];
            let input = op.lang.input(op.size);
            let (served, latency) = timed(|| {
                let served = serve(state, op, &statics, on.then_some(&mut tally));
                served.map(|outcome| {
                    let got = exec(&outcome.image, &input);
                    (outcome, got)
                })
            });
            let result = match served {
                Ok((outcome, got)) => {
                    if on {
                        tally.note(&outcome);
                    }
                    check(got, &oracle[&(op.lang, op.bias, op.size)])
                }
                Err(e) => Err(format!("serve: {e}")),
            };
            Done {
                class: op.class(),
                latency,
                result,
            }
        });
        if on {
            deltas.add(&Counters::read(&state.service).since(&c0));
            traced.extend(samples);
        } else {
            untraced.extend(samples);
        }
    });

    let mut layers = BTreeMap::new();
    if cfg.trace {
        let ops = traced.lat_ns.len() as f64;
        let served = trace::agg("server.specialize");
        let served_named = trace::agg("server.specialize_named");
        let pe_ns = deltas.specialize.0 + deltas.genext_run.0 + deltas.genext_build.0;
        let fills = served.count + served_named.count;
        layers.insert(
            "server.fill_self_us",
            report::ratio(
                (served.total_ns + served_named.total_ns).saturating_sub(pe_ns) as f64,
                fills as f64 * 1e3,
            ),
        );
        layers.insert(
            "server.redefine_us",
            trace::agg("server.redefine").mean_us(),
        );
        layers.insert(
            "server.invalidated_per_redefine",
            report::ratio(tally.invalidated as f64, tally.redefines as f64),
        );
        layers.insert(
            "server.evictions_per_op",
            report::ratio(deltas.evictions as f64, ops),
        );
        layers.insert("pe.walker_us", report::mean_us(deltas.specialize));
        layers.insert("pe.genext_run_us", report::mean_us(deltas.genext_run));
        layers.insert("pe.genext_build_us", report::mean_us(deltas.genext_build));
        let misses = tally.misses as f64;
        layers.insert(
            "pe.unfolds_per_op",
            report::ratio(tally.unfolds as f64, misses),
        );
        layers.insert(
            "pe.memo_points_per_op",
            report::ratio(tally.memo_points as f64, misses),
        );
        layers.insert(
            "pe.fallback_frac",
            report::ratio(tally.fallbacks as f64, misses),
        );
        layers.insert(
            "compiler.code_size_per_op",
            report::ratio(tally.code_size as f64, misses),
        );
        crate::common_layers(&mut layers, &deltas, &untraced, &traced);
        untraced.extend(traced);
    }
    let meta = format!(
        "\"prepare_s\": {prepare_s:.3}, \"cache_entries\": {CACHE_ENTRIES}, \"service\": {}",
        state.service.stats().to_json()
    );
    Outcome {
        samples: untraced,
        setup_samples: setup_times,
        layers,
        meta,
    }
}

/// Serves one cold request through the route its kind names.
fn serve(state: &State, op: ColdOp, statics: &[Datum], tally: Option<&mut Tally>) -> ServeResult {
    let name = op.lang.name();
    match op.kind {
        ColdKind::Anon => span("server.specialize", || {
            state
                .service
                .specialize(&state.exts[op.lang as usize], statics)
        }),
        ColdKind::Named => span("server.specialize_named", || {
            state.service.specialize_named(name, statics)
        }),
        ColdKind::Redefine => {
            let ext = op.lang.genext();
            let outcome = span("server.redefine", || state.service.redefine(name, &ext));
            if let Some(t) = tally {
                t.redefines += 1;
                t.invalidated += outcome.invalidated;
            }
            span("server.specialize_named", || {
                state.service.specialize_named(name, statics)
            })
        }
    }
}
