//! Walker / gen-ext machine equivalence: both consumers of the staged IR
//! must produce **bit-identical** residual programs and equal stats — on
//! clean runs, across graceful-fallback limit sweeps, and in strict mode
//! (where they must fail with the same typed error).
//!
//! The machine is the only specializer requests run; the walker is the
//! reference semantics it is held to. Besides hand-written programs, the
//! sweeps cover what the serving layer actually specializes: the paper's
//! MIXWELL and LAZY interpreters under the compilation division, and the
//! grammar matcher on the adversarial grammars.

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

/// A workload: source text, entry, division, static arguments, and
/// optional call-policy overrides.
struct Workload {
    name: &'static str,
    src: String,
    entry: &'static str,
    div: Vec<BT>,
    statics: Vec<Datum>,
    policies: Vec<(&'static str, CallPolicy)>,
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
/// grammar (grammar embedded, input dynamic).
fn langs_workloads() -> Vec<Workload> {
    let mut out = vec![
        Workload {
            name: "mixwell",
            src: two4one_langs::MIXWELL_INTERP.to_string(),
            entry: "mixwell-run",
            div: vec![BT::Static, BT::Dynamic],
            statics: vec![two4one_langs::mixwell_program()],
            policies: two4one_langs::mixwell_policies(),
        },
        Workload {
            name: "lazy",
            src: two4one_langs::LAZY_INTERP.to_string(),
            entry: "lazy-run",
            div: vec![BT::Static, BT::Dynamic],
            statics: vec![two4one_langs::lazy_program()],
            policies: two4one_langs::lazy_policies(),
        },
    ];
    for (name, text, _, _) in grammar::adversarial_suite() {
        let g = grammar::parse(text).unwrap();
        out.push(Workload {
            name,
            src: grammar::workload_source(&g),
            entry: grammar::WORKLOAD_ENTRY,
            div: vec![BT::Dynamic],
            statics: vec![],
            policies: grammar::grammar_policies(),
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
            assert_eq!(
                wp.to_source(),
                gp.to_source(),
                "[{}/{ctx}] residual source drift",
                w.name
            );
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
    // Every fuel value from starvation to plenty: exercises guard replay,
    // generic fallback bodies, and fallback-kind classification.
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

#[test]
fn engines_agree_on_langs_across_unfold_fuel_sweep() {
    // Fuel 0 is the generic-image recipe of Tier-0 fills and the breaker
    // fallback; the rest starve the interpreters part way. Some of these
    // runs fail with the same typed error in both engines (a memoized
    // call reached from generic fallback code gets a dynamic argument for
    // a static parameter), which is a shared defect of the fallback, not
    // a drift between the engines — equivalence is what this checks.
    with_stack(|| {
        for fuel in [0u64, 1, 3, 10, 100] {
            let opts = SpecOptions {
                limits: deep_limits().with_unfold_fuel(fuel),
                fallback: true,
            };
            for w in &langs_workloads() {
                assert_equivalent(w, &opts, &format!("fuel={fuel}"));
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
