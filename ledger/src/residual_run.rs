//! `residual-run`: a catalog of grammar recognizers (the adversarial suite
//! plus seeded grammars) and MIXWELL/LAZY residual programs, all
//! specialized at set-up. Each operation fetches a cached image by name
//! (a hit) and runs it on a seeded input — a word whose length is drawn
//! from a continuous range, accepted or rejected, or a program input of
//! seeded size — and checks the result against the interpreter.

use std::collections::BTreeMap;
use std::time::Instant;

use two4one::{interpret, Datum, Division, BT};
use two4one_langs::grammar;
use two4one_server::SpecService;
use two4one_testkit::Rng;

use crate::catalog::{self, Lang};
use crate::report::{Counters, Samples};
use crate::stream::{stratified, ResOp, ResStream};
use crate::trace::{self, span};
use crate::{check, closed_loop, exec, measure, timed, Config, Done, Outcome, Slice};

/// Inputs per catalog entry.
const POOL: usize = 6;
/// Word lengths, in characters.
const WORD_LEN: (usize, usize) = (64, 448);
/// Variants of each interpreter's static program in the catalog.
const VARIANTS: u64 = 6;

/// MIXWELL `n` / LAZY `k` for residual programs: long enough runs that
/// the VM dominates, short enough that the oracle stays cheap.
fn run_size(lang: Lang) -> (usize, usize) {
    match lang {
        Lang::Mixwell => (12, 40),
        Lang::Lazy => (5, 12),
    }
}

/// One cached image and the inputs it is run on.
struct Entry {
    name: String,
    statics: Vec<Datum>,
    class: &'static str,
    inputs: Vec<Datum>,
    expected: Vec<Datum>,
}

/// What set-up needs to register a catalog entry's program.
enum Source {
    Grammar(String),
    Interp(Lang),
}

fn setup(sources: &[(String, Source)], entries: &[Entry]) -> SpecService {
    let service = SpecService::new();
    for (name, source) in sources {
        let ext = match source {
            Source::Grammar(text) => {
                let g = span("langs.grammar_parse", || grammar::parse(text)).expect("grammar");
                let src = grammar::workload_source(&g);
                let pgg = catalog::grammar_pgg();
                let program = span("frontend.parse", || pgg.parse(&src)).expect("parse");
                span("bta.cogen", || {
                    pgg.cogen(
                        &program,
                        grammar::WORKLOAD_ENTRY,
                        &Division::new([BT::Dynamic]),
                    )
                })
                .expect("cogen")
            }
            Source::Interp(lang) => lang.genext(),
        };
        span("server.register", || service.register(name, &ext));
    }
    // Warm the working set: specialize every entry, then run it once on
    // each of its inputs. The inputs cover each size range evenly on every
    // seed, so this costs the same on every seed.
    for e in entries {
        let outcome = span("server.fill", || {
            service.specialize_named(&e.name, &e.statics)
        })
        .expect("fill");
        for input in &e.inputs {
            exec(&outcome.image, input).expect("warm-up run");
        }
    }
    service
}

/// The catalog with its seeded inputs and the interpreter's answer for
/// every input, built before set-up on a thread of its own (the
/// interpreter recurses deeply).
fn prepare(seed: u64) -> (Vec<(String, Source)>, Vec<Entry>) {
    two4one::with_stack(move || {
        let mut rng = Rng::new(seed ^ 0x4e5_1d0a1);
        let mut sources = Vec::new();
        let mut entries = Vec::new();
        for spec in catalog::grammars(&mut rng) {
            let g = grammar::parse(&spec.text).expect("catalog grammar");
            let pgg = catalog::grammar_pgg();
            let program = pgg.parse(&grammar::workload_source(&g)).expect("parse");
            let lens = stratified(&mut rng, POOL, WORD_LEN.0, WORD_LEN.1);
            let inputs: Vec<Datum> = lens
                .iter()
                .enumerate()
                .map(|(j, &len)| grammar::input_datum(&spec.shape.word(&mut rng, len, j % 2 == 0)))
                .collect();
            let expected = inputs
                .iter()
                .map(|w| {
                    interpret(&program, grammar::WORKLOAD_ENTRY, std::slice::from_ref(w))
                        .expect("oracle run")
                        .value
                })
                .collect();
            entries.push(Entry {
                name: spec.name.clone(),
                statics: Vec::new(),
                class: "recognizer",
                inputs,
                expected,
            });
            sources.push((spec.name, Source::Grammar(spec.text)));
        }
        for lang in Lang::ALL {
            let interp = lang
                .pgg()
                .parse(lang.interp_src())
                .expect("parse interpreter");
            for v in 0..VARIANTS {
                let bias = rng.range_i64(0, 8);
                let statics = vec![lang.program(bias, v)];
                let (lo, hi) = run_size(lang);
                let inputs: Vec<Datum> = stratified(&mut rng, POOL, lo, hi)
                    .into_iter()
                    .map(|n| lang.input(n as i64))
                    .collect();
                let expected = inputs
                    .iter()
                    .map(|d| {
                        let args = [statics[0].clone(), d.clone()];
                        interpret(&interp, lang.entry(), &args)
                            .expect("oracle run")
                            .value
                    })
                    .collect();
                entries.push(Entry {
                    name: lang.name().to_string(),
                    statics,
                    class: match lang {
                        Lang::Mixwell => "mixwell",
                        Lang::Lazy => "lazy",
                    },
                    inputs,
                    expected,
                });
            }
            sources.push((lang.name().to_string(), Source::Interp(lang)));
        }
        (sources, entries)
    })
}

pub fn run(cfg: &Config) -> Outcome {
    let started = Instant::now();
    let (sources, entries) = prepare(cfg.seed);
    let prepare_s = started.elapsed().as_secs_f64();

    let mut stream = ResStream::new(cfg.seed, entries.len(), POOL);
    let mut next_id = 0;
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut deltas = Counters::default();
    let kinds = [Slice::Untraced, Slice::Traced];
    let setup = || setup(&sources, &entries);
    let (service, setup_times) = measure(cfg, &kinds, setup, |service, kind, budget| {
        let c0 = Counters::read(service);
        let samples = closed_loop(budget, &mut next_id, &mut stream, |op: ResOp| {
            let e = &entries[op.entry];
            let (got, latency) = timed(|| {
                span("server.specialize_named", || {
                    service.specialize_named(&e.name, &e.statics)
                })
                .map_err(|err| format!("serve: {err}"))
                .and_then(|outcome| exec(&outcome.image, &e.inputs[op.input]))
            });
            Done {
                class: e.class,
                latency,
                result: check(got, &e.expected[op.input]),
            }
        });
        if kind == Slice::Traced {
            deltas.add(&Counters::read(service).since(&c0));
            traced.extend(samples);
        } else {
            untraced.extend(samples);
        }
    });

    let mut layers = BTreeMap::new();
    if cfg.trace {
        layers.insert(
            "langs.grammar_parse_us",
            trace::agg("langs.grammar_parse").mean_us(),
        );
        layers.insert(
            "server.hit_us",
            trace::agg("server.specialize_named").mean_us(),
        );
        crate::common_layers(&mut layers, &deltas, &untraced, &traced);
        untraced.extend(traced);
    }
    let meta = format!(
        "\"prepare_s\": {prepare_s:.3}, \"catalog\": {}, \"pool\": {POOL}, \"service\": {}",
        entries.len(),
        service.stats().to_json()
    );
    Outcome {
        samples: untraced,
        setup_samples: setup_times,
        layers,
        meta,
    }
}
