//! The fusion theorem (Sec. 5.4), tested exactly:
//!
//! `cata_CS(ev_C)(cata_ACS(ev_S)(M))  ==  cata_ACS(ev_{C∘S})(M)`
//!
//! i.e. specializing to *source* and then compiling that source produces
//! byte-for-byte the same templates as specializing straight to *object
//! code* through the fused combinators. Both specializer runs are
//! deterministic (same gensym discipline), so the comparison is structural
//! template equality, not just behavioral.

use two4one::{compile, compile_program, with_stack, CallPolicy, Datum, Division, Image, Pgg, BT};
use two4one_compiler::compile_program_generic;
use two4one_langs::grammar;
use two4one_vm::{Instr, Template};

fn d(s: &str) -> Datum {
    two4one::reader::read_one(s).unwrap()
}

struct Case {
    name: &'static str,
    src: &'static str,
    entry: &'static str,
    division: Vec<BT>,
    statics: Vec<Datum>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "power",
            src: "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
            entry: "power",
            division: vec![BT::Dynamic, BT::Static],
            statics: vec![Datum::Int(9)],
        },
        Case {
            name: "all-dynamic-loop",
            src: "(define (sum xs acc) (if (null? xs) acc (sum (cdr xs) (+ acc (car xs)))))",
            entry: "sum",
            division: vec![BT::Dynamic, BT::Dynamic],
            statics: vec![],
        },
        Case {
            name: "closures",
            src: "(define (compose f g) (lambda (x) (f (g x))))
                  (define (main a)
                    ((compose (lambda (u) (+ u 1)) (lambda (v) (* v 2))) a))",
            entry: "main",
            division: vec![BT::Dynamic],
            statics: vec![],
        },
        Case {
            name: "matcher",
            src: two4one_langs::classics::MATCHER,
            entry: "match",
            division: vec![BT::Static, BT::Dynamic],
            statics: vec![d("(a b c)")],
        },
        Case {
            name: "effects",
            src: "(define (main n x) (display n) (newline) (+ (* n n) x))",
            entry: "main",
            division: vec![BT::Static, BT::Dynamic],
            statics: vec![Datum::Int(6)],
        },
        Case {
            name: "nested-conditionals",
            src: "(define (classify a b c)
                    (if a (if b 'ab (if c 'ac 'a)) (if b 'b (if c 'c 'none))))",
            entry: "classify",
            division: vec![BT::Dynamic, BT::Dynamic, BT::Dynamic],
            statics: vec![],
        },
    ]
}

#[test]
fn fused_object_code_is_identical_to_compiled_residual_source() {
    with_stack(|| {
        let pgg = Pgg::new();
        for case in cases() {
            let p = pgg.parse(case.src).unwrap();
            let genext = pgg
                .cogen(
                    &p,
                    case.entry,
                    &Division::new(case.division.iter().copied()),
                )
                .unwrap();
            let source = genext.specialize_source(&case.statics).unwrap();
            let compiled = compile_program(&source, case.entry).unwrap();
            let fused = genext.specialize_object(&case.statics).unwrap();

            assert_eq!(
                fused.templates.len(),
                compiled.templates.len(),
                "{}: definition counts differ",
                case.name
            );
            for ((n1, t1), (n2, t2)) in fused.templates.iter().zip(&compiled.templates) {
                assert_eq!(n1, n2, "{}: definition order differs", case.name);
                assert_eq!(
                    t1,
                    t2,
                    "{}: template `{}` differs\n--- fused ---\n{}\n--- compiled ---\n{}\n--- residual source ---\n{}",
                    case.name,
                    n1,
                    t1.disassemble(),
                    t2.disassemble(),
                    source.to_source()
                );
            }
        }
    });
}

#[test]
fn fused_images_behave_identically_too() {
    with_stack(|| {
        let pgg = Pgg::new();
        let p = pgg.parse(two4one_langs::classics::MATCHER).unwrap();
        let genext = pgg
            .cogen(&p, "match", &Division::new([BT::Static, BT::Dynamic]))
            .unwrap();
        let source = genext.specialize_source(&[d("(x y)")]).unwrap();
        let compiled = compile_program(&source, "match").unwrap();
        let fused = genext.specialize_object(&[d("(x y)")]).unwrap();
        for text in ["(a x y b)", "(x x y)", "(y x)", "()"] {
            let args = vec![d(text)];
            let a = two4one::run_image(&fused, "match", &args).unwrap();
            let b = two4one::run_image(&compiled, "match", &args).unwrap();
            assert_eq!(a, b, "on {text}");
        }
    });
}

/// A subject of the consume-contract test: a program with its specializer
/// policies, entry, division and static arguments.
struct Subject {
    name: String,
    pgg: Pgg,
    src: String,
    entry: &'static str,
    division: Vec<BT>,
    statics: Vec<Datum>,
}

/// The fusion cases, MIXWELL and LAZY over their Sec. 7 programs, and
/// the matcher interpreter over each adversarial grammar.
fn subjects() -> Vec<Subject> {
    let pgg_with = |policies: Vec<(&'static str, CallPolicy)>| {
        policies
            .iter()
            .fold(Pgg::new(), |g, (f, pol)| g.policy(f, *pol))
    };
    let mut v: Vec<Subject> = cases()
        .into_iter()
        .map(|c| Subject {
            name: c.name.to_string(),
            pgg: Pgg::new(),
            src: c.src.to_string(),
            entry: c.entry,
            division: c.division,
            statics: c.statics,
        })
        .collect();
    v.push(Subject {
        name: "mixwell".to_string(),
        pgg: pgg_with(two4one_langs::mixwell_policies()),
        src: two4one_langs::MIXWELL_INTERP.to_string(),
        entry: "mixwell-run",
        division: vec![BT::Static, BT::Dynamic],
        statics: vec![two4one_langs::mixwell_program()],
    });
    v.push(Subject {
        name: "lazy".to_string(),
        pgg: pgg_with(two4one_langs::lazy_policies()),
        src: two4one_langs::LAZY_INTERP.to_string(),
        entry: "lazy-run",
        division: vec![BT::Static, BT::Dynamic],
        statics: vec![two4one_langs::lazy_program()],
    });
    for (name, text, _, _) in grammar::adversarial_suite() {
        let g = grammar::parse(text).unwrap();
        v.push(Subject {
            name: name.to_string(),
            pgg: pgg_with(grammar::grammar_policies()),
            src: grammar::workload_source(&g),
            entry: grammar::WORKLOAD_ENTRY,
            division: vec![BT::Dynamic],
            statics: vec![],
        });
    }
    v
}

/// The instruction that runs after the one at `i`, following unconditional
/// jumps: a call to a join point is `bind; jump L`, and what consumes
/// `val` there is the join block at `L`. Jumps only go forward, but the
/// walk is bounded by the template length all the same.
fn next_executed(code: &[Instr], i: usize) -> Option<&Instr> {
    let mut at = i + 1;
    for _ in 0..code.len() {
        match code.get(at) {
            Some(Instr::Jump(target)) => at = *target as usize,
            other => return other,
        }
    }
    None
}

/// Counts the `push` and `bind` sites of `t` and its sub-templates, and
/// fails unless the first instruction to run after each one writes `val`.
fn consumed_sites(image: &str, t: &Template) -> usize {
    let mut sites = 0;
    for (i, ins) in t.code.iter().enumerate() {
        if matches!(ins, Instr::Push | Instr::Bind) {
            sites += 1;
            let next = next_executed(&t.code, i);
            assert!(
                matches!(
                    next,
                    Some(
                        Instr::Const(_)
                            | Instr::Global(_)
                            | Instr::Local(_)
                            | Instr::Captured(_)
                            | Instr::Prim { .. }
                            | Instr::MakeClosure { .. }
                    )
                ),
                "{image}: `{}` at {i} is followed by {next:?}, which leaves `val` live\n{}",
                t.name,
                t.disassemble()
            );
        }
    }
    sites
        + t.templates
            .iter()
            .map(|s| consumed_sites(image, s))
            .sum::<usize>()
}

/// The consume contract of `Instr::Push` and `Instr::Bind`: `val` is dead
/// after both, so the VM moves it instead of cloning it. Every emitter —
/// the ANF compiler on programs and on residual source, the generic
/// compiler, and the fused object builder — must follow each of them with
/// an instruction that writes `val`, once unconditional jumps (the tail
/// of a join-point call) are followed.
#[test]
fn every_push_and_bind_is_followed_by_a_write_of_val() {
    with_stack(|| {
        let mut sites = 0;
        for s in subjects() {
            let p = s.pgg.parse(&s.src).unwrap();
            let genext = s
                .pgg
                .cogen(&p, s.entry, &Division::new(s.division))
                .unwrap();
            let source = genext.specialize_source(&s.statics).unwrap();
            let images: [(&str, Image); 5] = [
                ("compile", compile(&p, s.entry).unwrap()),
                ("generic", compile_program_generic(&p, s.entry).unwrap()),
                ("residual", compile_program(&source, s.entry).unwrap()),
                (
                    "residual-generic",
                    compile_program_generic(&source.to_cs(), s.entry).unwrap(),
                ),
                ("fused", genext.specialize_object(&s.statics).unwrap()),
            ];
            for (emitter, image) in images {
                for (_, t) in &image.templates {
                    sites += consumed_sites(&format!("{}/{emitter}", s.name), t);
                }
            }
        }
        assert!(sites > 5000, "only {sites} push/bind sites checked");
    });
}
