//! The fusion theorem (Sec. 5.4), tested exactly:
//!
//! `cata_CS(ev_C)(cata_ACS(ev_S)(M))  ==  cata_ACS(ev_{C∘S})(M)`
//!
//! i.e. specializing to *source* and then compiling that source produces
//! byte-for-byte the same templates as specializing straight to *object
//! code* through the fused combinators. Both specializer runs are
//! deterministic (same gensym discipline), so the comparison is structural
//! template equality, not just behavioral.

use two4one::{
    compile, compile_program, interpret, run_image, with_stack, with_stack_size, CallPolicy, Datum,
    Division, Image, Pgg, BT,
};
use two4one_langs::grammar;
use two4one_vm::{Instr, Template, OP_NAMES};

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

/// The fused backend emits a body in a loop, not one Rust frame per
/// nesting level: on a 2 MiB thread a debug build fills the residual of a
/// non-tail recursion unfolded 30,000 times, 30,000 nested `let`s, both
/// specialized and as the generic image, staging included. The runs that
/// check both images against the interpreter use a big stack.
#[test]
fn fused_fills_of_a_deep_residual_fit_a_small_stack() {
    const N: i64 = 30_000;
    let pgg = Pgg::new();
    let program = pgg
        .parse("(define (f n d) (if (= n 0) d (+ 1 (f (- n 1) d))))")
        .unwrap();
    let genext = pgg
        .cogen(&program, "f", &Division::new([BT::Static, BT::Dynamic]))
        .unwrap();
    let (fused, generic) = with_stack_size(2 << 20, move || {
        let statics = [Datum::Int(N)];
        let fused = genext.specialize_object(&statics).unwrap();
        let (generic, stats) = genext.generic_object(&statics).unwrap();
        assert!(stats.degraded());
        (fused, generic)
    });
    with_stack(move || {
        let args = [Datum::Int(N), Datum::Int(7)];
        let expect = interpret(&program, "f", &args).unwrap();
        assert_eq!(expect.value, Datum::Int(N + 7));
        for image in [fused, generic] {
            assert_eq!(run_image(&image, "f", &args[1..]).unwrap(), expect);
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

/// What an instruction does with `val`.
enum ValUse {
    /// Writes it without reading it first.
    Writes,
    /// Reads it: `push`, `bind`, a call (the callee), `return` and the
    /// stack-form `jump-if-false`.
    Reads,
    /// Leaves it alone: `trim`, `jump`, the in-place branch and the
    /// primitives that bind their result.
    Passes,
}

fn val_use(i: &Instr) -> ValUse {
    match i {
        Instr::Const(_)
        | Instr::Global(_)
        | Instr::Local(_)
        | Instr::Captured(_)
        | Instr::MakeClosure { .. }
        | Instr::Prim { .. }
        | Instr::PrimLocal { .. }
        | Instr::PrimLocalLocal { .. }
        | Instr::PrimLocalConst { .. } => ValUse::Writes,
        Instr::Push
        | Instr::Bind
        | Instr::Call { .. }
        | Instr::TailCall { .. }
        | Instr::Return
        | Instr::JumpIfFalse(_) => ValUse::Reads,
        Instr::Trim(_)
        | Instr::Jump(_)
        | Instr::JumpIfFalseLocal { .. }
        | Instr::PrimLocalBind { .. }
        | Instr::PrimLocalLocalBind { .. }
        | Instr::PrimLocalConstBind { .. } => ValUse::Passes,
    }
}

/// The instructions that can run right after the one at `i`: the jump
/// target of a jump, both successors of a branch, the next one otherwise.
fn successors(code: &[Instr], i: usize) -> Vec<usize> {
    match code[i] {
        Instr::Jump(t) => vec![t as usize],
        Instr::JumpIfFalse(t) | Instr::JumpIfFalseLocal { target: t, .. } => {
            vec![i + 1, t as usize]
        }
        _ => vec![i + 1],
    }
}

/// Whether the instruction at `i` leaves `val` dead: it consumes `val`
/// (`push`, `bind`), or binds its result or branches on a local in place,
/// so whatever `val` held is stale.
fn kills_val(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Push
            | Instr::Bind
            | Instr::PrimLocalBind { .. }
            | Instr::PrimLocalLocalBind { .. }
            | Instr::PrimLocalConstBind { .. }
            | Instr::JumpIfFalseLocal { .. }
    )
}

/// Counts the sites of `t` and its sub-templates that leave `val` dead
/// into `sites`, by opcode, and fails unless every path from each one
/// writes `val` before it reads it. A path runs through instructions that
/// neither read nor write `val`, following jumps (a call to a join point
/// is `bind; jump L`, and what runs next is the join block at `L`) and
/// both successors of a branch.
fn consumed_sites(image: &str, t: &Template, sites: &mut [usize; Instr::N_OPS]) {
    let code = &t.code;
    for (i, ins) in code.iter().enumerate() {
        if !kills_val(ins) {
            continue;
        }
        sites[ins.opcode()] += 1;
        let mut seen = vec![false; code.len()];
        let mut work = successors(code, i);
        while let Some(at) = work.pop() {
            let Some(next) = code.get(at) else {
                panic!(
                    "{image}: `{}` at {i} runs off the end of the code\n{}",
                    t.name,
                    t.disassemble()
                );
            };
            if std::mem::replace(&mut seen[at], true) {
                continue;
            }
            match val_use(next) {
                ValUse::Writes => {}
                ValUse::Reads => panic!(
                    "{image}: `{}` at {i} leaves `val` dead, but {next:?} at {at} reads it\n{}",
                    t.name,
                    t.disassemble()
                ),
                ValUse::Passes => work.extend(successors(code, at)),
            }
        }
    }
    for sub in &t.templates {
        consumed_sites(image, sub, sites);
    }
}

/// The `val` contract: `push` and `bind` consume `val`, so the VM moves it
/// instead of cloning it, and a primitive that binds its result or a
/// branch that reads its test in place leaves it stale. Every emitter —
/// the ANF compiler on programs and on residual source, and the fused
/// object builder — must write `val` on every path from such a site
/// before anything reads it.
#[test]
fn every_push_and_bind_is_followed_by_a_write_of_val() {
    with_stack(|| {
        // Each emitter's floor sits just under the sites it holds on these
        // subjects (913, 1,083 and 1,083).
        let emitters = [("compile", 800), ("residual", 1000), ("fused", 1000)];
        let mut sites = [[0; Instr::N_OPS]; 3];
        for s in subjects() {
            let p = s.pgg.parse(&s.src).unwrap();
            let genext = s
                .pgg
                .cogen(&p, s.entry, &Division::new(s.division))
                .unwrap();
            let source = genext.specialize_source(&s.statics).unwrap();
            let images: [Image; 3] = [
                compile(&p, s.entry).unwrap(),
                compile_program(&source, s.entry).unwrap(),
                genext.specialize_object(&s.statics).unwrap(),
            ];
            for ((emitter, _), (image, sites)) in emitters.iter().zip(images.iter().zip(&mut sites))
            {
                for (_, t) in &image.templates {
                    consumed_sites(&format!("{}/{emitter}", s.name), t, sites);
                }
            }
        }
        for ((emitter, floor), sites) in emitters.iter().zip(&sites) {
            let n: usize = sites.iter().sum();
            assert!(n > *floor, "only {n} sites checked on {emitter}");
        }
        for op in [
            "push",
            "bind",
            "prim-local-bind",
            "prim-local-local-bind",
            "prim-local-const-bind",
            "jump-if-false-local",
        ] {
            let n: usize = OP_NAMES
                .iter()
                .position(|o| *o == op)
                .map_or(0, |i| sites.iter().map(|s| s[i]).sum());
            assert!(n > 100, "only {n} `{op}` sites checked");
        }
    });
}

/// The walk behind the `val` contract finds a read of a dead `val` past a
/// jump and on either arm of an in-place branch.
#[test]
fn the_val_check_catches_a_read_of_dead_val() {
    use two4one::Symbol;
    use two4one_syntax::prim::Prim;
    use two4one_vm::Asm;
    // `prim-local-bind; jump L; … L: return`: the return reads the dead
    // `val`.
    let mut a = Asm::new(Symbol::new("f"), 1, 0);
    let l = a.make_label();
    a.emit(Instr::PrimLocalBind {
        prim: Prim::Car,
        a: 0,
    });
    a.emit_jump(l);
    a.emit(Instr::Local(0));
    a.attach_label(l);
    a.emit(Instr::Return);
    let jumped = a.finish().unwrap();
    // `jump-if-false local 0 → L; local 0; return; L: return`: only the
    // alternative reads the dead `val`.
    let mut a = Asm::new(Symbol::new("g"), 1, 0);
    let l = a.make_label();
    a.emit_jump_if_false_local(0, l);
    a.emit(Instr::Local(0));
    a.emit(Instr::Return);
    a.attach_label(l);
    a.emit(Instr::Return);
    let branched = a.finish().unwrap();
    for t in [jumped, branched] {
        let caught = std::panic::catch_unwind(|| {
            consumed_sites("hand-made", &t, &mut [0; Instr::N_OPS]);
        });
        assert!(caught.is_err(), "{}", t.disassemble());
    }
}
