//! Walker / gen-ext machine equivalence: both consumers of the staged IR
//! must produce **bit-identical** residual programs and equal stats — on
//! clean runs, across limit sweeps whose starved runs both engines answer
//! with the one generic image, and in strict mode (where they must fail
//! with the same typed error).
//!
//! The machine is the only specializer requests run; the walker is the
//! reference semantics it is held to. Besides hand-written programs, the
//! sweeps cover what the serving layer actually specializes: the paper's
//! MIXWELL and LAZY interpreters under the compilation division, and the
//! grammar matcher on the adversarial grammars. On those, every fuel must
//! also give a residual program that computes what the unspecialized
//! program computes.

use two4one_anf::build::SourceBuilder;
use two4one_bta::{bta_with, Division, Options};
use two4one_compiler::ObjectBuilder;
use two4one_langs::grammar;
use two4one_pe::{run_genext, specialize_staged, stage, SpecOptions};
use two4one_syntax::acs::{CallPolicy, BT};
use two4one_syntax::datum::Datum;
use two4one_syntax::limits::Limits;
use two4one_syntax::stack::with_stack;
use two4one_syntax::symbol::Symbol;
use two4one_vm::{Machine, Value};

/// A workload: source text, entry, division, static arguments, optional
/// call-policy overrides, and inputs to run its residual programs on
/// (each the one dynamic argument of the entry).
struct Workload {
    name: &'static str,
    src: String,
    entry: &'static str,
    div: Vec<BT>,
    statics: Vec<Datum>,
    policies: Vec<(&'static str, CallPolicy)>,
    inputs: Vec<Datum>,
}

impl Workload {
    /// A hand-written program whose `memoize` functions are memoization
    /// points.
    fn new(
        name: &'static str,
        src: &'static str,
        entry: &'static str,
        div: Vec<BT>,
        statics: Vec<Datum>,
        memoize: Vec<&'static str>,
    ) -> Self {
        let policies = memoize.into_iter().map(|m| (m, CallPolicy::Memoize));
        Workload {
            name,
            src: src.to_string(),
            entry,
            div,
            statics,
            policies: policies.collect(),
            inputs: Vec::new(),
        }
    }
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "power-unfolded",
            "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
            "power",
            vec![BT::Dynamic, BT::Static],
            vec![Datum::Int(9)],
            vec![],
        ),
        Workload::new(
            "join-points",
            "(define (f a b c d)
                    (+ (if a 1 2) (+ (if b 3 4) (+ (if c 5 6) (if d 7 8)))))",
            "f",
            vec![BT::Dynamic; 4],
            vec![],
            vec![],
        ),
        Workload::new(
            "memoized-higher-order",
            "(define (apply-n f n x) (if (= n 0) x (apply-n f (- n 1) (f x))))
                  (define (inc v) (+ v 1))
                  (define (dbl v) (* v 2))
                  (define (main x) (+ (apply-n inc 3 x) (apply-n dbl 2 x)))",
            "main",
            vec![BT::Dynamic],
            vec![],
            vec!["apply-n"],
        ),
        Workload::new(
            "fnref-lifting",
            "(define (step x) (+ x 1))
                  (define (main) (lambda (y) (step y)))",
            "main",
            vec![],
            vec![],
            vec![],
        ),
        Workload::new(
            "faulting-static-prim",
            "(define (f d) (if d (car '()) 'safe))",
            "f",
            vec![BT::Dynamic],
            vec![],
            vec![],
        ),
        Workload::new(
            "lambda-rebinding",
            "(define (use2 f x) (eq? f f))
                  (define (main n x) (use2 (lambda (y) (+ y x)) n))",
            "main",
            vec![BT::Dynamic, BT::Dynamic],
            vec![],
            vec![],
        ),
        Workload::new(
            "memoized-recursion-dynamic-n",
            "(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc acc))))
                  (define (main n) (loop n 1))",
            "main",
            vec![BT::Dynamic],
            vec![],
            vec!["loop"],
        ),
    ]
}

/// What the serving layer specializes: the paper's interpreters over
/// their Sec. 7 static programs under the compilation division (program
/// static, input dynamic), and the grammar matcher on each adversarial
/// grammar (grammar embedded, input dynamic). Each grammar runs on the
/// last 33 characters of the suite's accepted and rejected inputs, which
/// keep their verdicts.
fn langs_workloads() -> Vec<Workload> {
    let int_list = |ns: &[i64]| Datum::list(ns.iter().map(|n| Datum::Int(*n)));
    let mut out = vec![
        Workload {
            name: "mixwell",
            src: two4one_langs::MIXWELL_INTERP.to_string(),
            entry: "mixwell-run",
            div: vec![BT::Static, BT::Dynamic],
            statics: vec![two4one_langs::mixwell_program()],
            policies: two4one_langs::mixwell_policies(),
            inputs: vec![int_list(&[20]), int_list(&[3])],
        },
        Workload {
            name: "lazy",
            src: two4one_langs::LAZY_INTERP.to_string(),
            entry: "lazy-run",
            div: vec![BT::Static, BT::Dynamic],
            statics: vec![two4one_langs::lazy_program()],
            policies: two4one_langs::lazy_policies(),
            inputs: vec![int_list(&[3, 4]), int_list(&[2, 3])],
        },
    ];
    for (name, text, accept, reject) in grammar::adversarial_suite() {
        let g = grammar::parse(text).unwrap();
        let tail = |s: &str| grammar::input_datum(&s[s.len() - 33..]);
        out.push(Workload {
            name,
            src: grammar::workload_source(&g),
            entry: grammar::WORKLOAD_ENTRY,
            div: vec![BT::Dynamic],
            statics: vec![],
            policies: grammar::grammar_policies(),
            inputs: vec![tail(&accept), tail(&reject)],
        });
    }
    out
}

fn annotate(w: &Workload) -> two4one_syntax::acs::AProgram {
    let p = two4one_frontend::frontend(&w.src).unwrap();
    let mut opts = Options::default();
    for (name, policy) in &w.policies {
        opts.policy_overrides.insert(Symbol::new(name), *policy);
    }
    bta_with(&p, w.entry, &Division::new(w.div.iter().copied()), &opts).unwrap()
}

/// Runs a workload through both engines under `spec_opts` and asserts
/// bit-identical object images, identical source renderings (the readable
/// diff when something drifts), and equal stats — or the same error.
/// Returns whether the engines produced residual programs.
fn assert_equivalent(w: &Workload, spec_opts: &SpecOptions, ctx: &str) -> bool {
    let aprog = annotate(w);
    let staged = stage(&aprog).unwrap();
    let entry = Symbol::new(w.entry);

    // Source backend first: a divergence shows up as a readable text diff.
    let walker_src = specialize_staged(
        &staged,
        &entry,
        &w.statics,
        SourceBuilder::new(),
        spec_opts,
        spec_opts.limits.deadline(),
    );
    let genext_src = run_genext(
        &staged,
        &entry,
        &w.statics,
        SourceBuilder::new(),
        spec_opts,
        spec_opts.limits.deadline(),
    );
    match (walker_src, genext_src) {
        (Ok((wp, ws)), Ok((gp, gs))) => {
            // Compared as trees, and printed only to show a drift: the
            // deep workloads' residuals take seconds to print in a debug
            // build.
            if wp != gp {
                assert_eq!(
                    wp.to_source(),
                    gp.to_source(),
                    "[{}/{ctx}] residual source drift",
                    w.name
                );
                panic!(
                    "[{}/{ctx}] residual programs differ but print alike",
                    w.name
                );
            }
            assert_eq!(ws, gs, "[{}/{ctx}] stats drift (source backend)", w.name);
        }
        (Err(we), Err(ge)) => {
            assert_eq!(we, ge, "[{}/{ctx}] error drift (source backend)", w.name);
            return false; // both engines reject: nothing further to compare
        }
        (w_res, g_res) => panic!(
            "[{}/{ctx}] one engine failed: walker={:?} genext={:?}",
            w.name,
            w_res.map(|(p, _)| p.to_source()),
            g_res.map(|(p, _)| p.to_source()),
        ),
    }

    // Object backend: the images must be bit-identical.
    let (wimg, wstats) = specialize_staged(
        &staged,
        &entry,
        &w.statics,
        ObjectBuilder::new(),
        spec_opts,
        spec_opts.limits.deadline(),
    )
    .unwrap();
    let (gimg, gstats) = run_genext(
        &staged,
        &entry,
        &w.statics,
        ObjectBuilder::new(),
        spec_opts,
        spec_opts.limits.deadline(),
    )
    .unwrap();
    assert_eq!(
        wstats, gstats,
        "[{}/{ctx}] stats drift (object backend)",
        w.name
    );
    let wbytes = two4one_vm::encode_image(&wimg.unwrap());
    let gbytes = two4one_vm::encode_image(&gimg.unwrap());
    assert_eq!(
        wbytes, gbytes,
        "[{}/{ctx}] object image not bit-identical",
        w.name
    );
    true
}

/// Limits with the depth limit off, so each sweep isolates its own knob
/// (the depth sweep covers `max_depth`).
fn deep_limits() -> Limits {
    Limits::default().with_max_depth(usize::MAX)
}

#[test]
fn engines_agree_on_clean_runs() {
    let opts = SpecOptions {
        limits: deep_limits(),
        fallback: true,
    };
    for w in &workloads() {
        assert_equivalent(w, &opts, "clean");
    }
}

#[test]
fn engines_agree_across_unfold_fuel_sweep() {
    // Every fuel value from starvation to plenty: exercises the generic
    // image and fallback-kind classification.
    for fuel in 0..14u64 {
        let opts = SpecOptions {
            limits: deep_limits().with_unfold_fuel(fuel),
            fallback: true,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("fuel={fuel}"));
        }
    }
}

#[test]
fn engines_agree_across_memo_cap_sweep() {
    for cap in 0..5usize {
        let opts = SpecOptions {
            limits: deep_limits().with_memo_cap(cap),
            fallback: true,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("memo_cap={cap}"));
        }
    }
}

#[test]
fn engines_agree_across_code_cap_sweep() {
    for cap in [1usize, 2, 4, 8, 16, 64, 256] {
        let opts = SpecOptions {
            limits: deep_limits().with_code_cap(cap),
            fallback: true,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("code_cap={cap}"));
        }
    }
}

#[test]
fn engines_agree_in_strict_mode() {
    // With fallback off, limit overruns must abort with the *same* typed
    // error from both engines.
    for fuel in [0u64, 1, 3, 5] {
        let opts = SpecOptions {
            limits: deep_limits().with_unfold_fuel(fuel),
            fallback: false,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("strict-fuel={fuel}"));
        }
    }
    for cap in [0usize, 1, 2] {
        let opts = SpecOptions {
            limits: deep_limits().with_memo_cap(cap),
            fallback: false,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("strict-memo={cap}"));
        }
    }
}

#[test]
fn fallback_classification_matches_on_limit_hits() {
    // Starve the unfolding workload of fuel: both engines must degrade
    // (not abort), classify the first cause identically, and still agree
    // on the residual image.
    let w = &workloads()[0]; // power-unfolded
    let opts = SpecOptions {
        limits: deep_limits().with_unfold_fuel(1),
        fallback: true,
    };
    let aprog = annotate(w);
    let staged = stage(&aprog).unwrap();
    let entry = Symbol::new(w.entry);
    let (_, stats) = run_genext(
        &staged,
        &entry,
        &w.statics,
        SourceBuilder::new(),
        &opts,
        opts.limits.deadline(),
    )
    .unwrap();
    assert!(stats.degraded(), "{stats:?}");
    assert!(stats.fallback_kind.is_some(), "{stats:?}");
    assert_equivalent(w, &opts, "classification");
}

#[test]
fn engines_agree_on_langs_clean_runs() {
    with_stack(|| {
        let opts = SpecOptions {
            limits: deep_limits(),
            fallback: true,
        };
        for w in &langs_workloads() {
            assert!(assert_equivalent(w, &opts, "clean"), "{} failed", w.name);
        }
    });
}

/// Runs `w`'s residual programs from the gen-ext machine under `opts`,
/// on both builders, and asserts that each computes on every input what
/// the unspecialized program computes on the statics and that input.
fn assert_computes_the_interpreted_value(w: &Workload, opts: &SpecOptions, ctx: &str) {
    let program = two4one_frontend::frontend(&w.src).unwrap();
    let staged = stage(&annotate(w)).unwrap();
    let entry = Symbol::new(w.entry);
    let deadline = || opts.limits.deadline();
    let source = run_genext(
        &staged,
        &entry,
        &w.statics,
        SourceBuilder::new(),
        opts,
        deadline(),
    );
    let residual = source.unwrap().0.to_cs();
    let object = run_genext(
        &staged,
        &entry,
        &w.statics,
        ObjectBuilder::new(),
        opts,
        deadline(),
    );
    let image = object.unwrap().0.unwrap();
    for input in &w.inputs {
        let mut statics = w.statics.iter();
        let args: Vec<Datum> = w
            .div
            .iter()
            .map(|bt| match bt {
                BT::Static => statics.next().unwrap().clone(),
                BT::Dynamic => input.clone(),
            })
            .collect();
        let (want, _) = two4one_interp::run_program(&program, w.entry, &args).unwrap();
        let want = want.to_datum();
        let ctx = format!("{}/{ctx}/input {input}", w.name);
        let (got, _) = two4one_interp::run_program(&residual, w.entry, std::slice::from_ref(input))
            .unwrap_or_else(|e| panic!("[{ctx}] residual source: {e}"));
        assert_eq!(got.to_datum(), want, "[{ctx}] residual source");
        let got = Machine::load(&image)
            .call_global(&entry, vec![Value::from(input)])
            .unwrap_or_else(|e| panic!("[{ctx}] residual object: {e:?}"));
        assert_eq!(got.to_datum(), want, "[{ctx}] residual object");
    }
}

#[test]
fn engines_agree_on_langs_across_unfold_fuel_sweep() {
    // Fuel 0 starves the first unfold; the rest starve the interpreters
    // part way. Every fuel must answer: both engines with the same
    // residual program, on both builders, and that program with the
    // unspecialized program's value.
    with_stack(|| {
        for fuel in [0u64, 1, 2, 3, 5, 10, 20, 50, 100, 200] {
            let opts = SpecOptions {
                limits: deep_limits().with_unfold_fuel(fuel),
                fallback: true,
            };
            for w in &langs_workloads() {
                let ctx = format!("fuel={fuel}");
                assert!(
                    assert_equivalent(w, &opts, &ctx),
                    "[{}/{ctx}] no residual program",
                    w.name
                );
                assert_computes_the_interpreted_value(w, &opts, &ctx);
            }
        }
    });
}

#[test]
fn engines_agree_across_depth_sweep() {
    // The machine keeps the walker's recursion depth as a count, so a
    // depth limit stops both engines at the same step with the same error
    // (or lets both finish with the same residual program).
    with_stack(|| {
        for depth in [1usize, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 377, 987, 2584] {
            let opts = SpecOptions {
                limits: Limits::default().with_max_depth(depth),
                fallback: true,
            };
            for w in workloads().iter().chain(&langs_workloads()) {
                assert_equivalent(w, &opts, &format!("depth={depth}"));
            }
        }
    });
}

/// Non-tail static recursion thousands of calls deep: a clean run nests
/// thousands of continuation frames, and a fuel that runs out mid-descent
/// drops a run thousands of frames deep for the generic image. In
/// `deep-replay` every twentieth level also applies a closure to the
/// recursive call's result. (Its static test doubles the walker's Rust
/// stack per level, hence the smaller `n`.)
fn deep_workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "deep-non-tail",
            "(define (f n d) (if (= n 0) d (+ 1 (f (- n 1) d))))",
            "f",
            vec![BT::Static, BT::Dynamic],
            vec![Datum::Int(5_000)],
            vec![],
        ),
        Workload::new(
            "deep-replay",
            "(define (f n d)
                   (if (= n 0)
                       d
                       (if (= (remainder n 20) 0)
                           ((lambda (x) x) (f (- n 1) d))
                           (+ 1 (f (- n 1) d)))))",
            "f",
            vec![BT::Static, BT::Dynamic],
            vec![Datum::Int(2_500)],
            vec![],
        ),
    ]
}

#[test]
fn engines_agree_on_deep_starved_runs() {
    with_stack(|| {
        for fuel in [None, Some(1_000u64), Some(2_500), Some(4_999)] {
            let limits = match fuel {
                Some(f) => deep_limits().with_unfold_fuel(f),
                None => deep_limits(),
            };
            let opts = SpecOptions {
                limits,
                fallback: true,
            };
            for w in &deep_workloads() {
                assert!(assert_equivalent(w, &opts, &format!("fuel={fuel:?}")));
            }
        }
    });
}
