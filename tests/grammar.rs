//! The grammar workload end to end: specializing the matcher interpreter
//! over a fixed grammar yields a compiled recognizer that agrees with the
//! interpreted matcher on accepts and rejects.
//!
//! The grammar travels *inside* the program source (a quoted constant in
//! the `gm-main` entry), so the division has a single dynamic parameter —
//! the input word — and redefining the source is all it takes to
//! invalidate every derived artifact downstream.

use two4one::{anf, compile_program, interpret, run_image, with_stack};
use two4one::{CallPolicy, Datum, Division, GenExt, Pgg, BT};
use two4one_langs::grammar;
use two4one_vm::{Instr, Template};

fn pgg() -> Pgg {
    grammar::grammar_policies()
        .iter()
        .fold(Pgg::new(), |p, (name, pol)| p.policy(name, *pol))
}

fn genext_for(g: &grammar::Grammar) -> (Pgg, two4one::cs::Program, GenExt) {
    let pgg = pgg();
    let src = grammar::workload_source(g);
    let parsed = pgg.parse(&src).expect("workload source parses");
    let genext = pgg
        .cogen(
            &parsed,
            grammar::WORKLOAD_ENTRY,
            &Division::new([BT::Dynamic]),
        )
        .expect("cogen");
    (pgg, parsed, genext)
}

#[test]
fn ident_grammar_specializes_to_a_recognizer() {
    with_stack(|| {
        let g = grammar::parse(grammar::IDENT_GRAMMAR).expect("ident grammar");
        let (_pgg, parsed, genext) = genext_for(&g);

        // The interpretive layer is gone: no grammar walking, no decision
        // set membership scans survive in the residual program.
        let residual = genext.specialize_source(&[]).expect("specialize");
        let text = residual.to_source();
        assert!(!text.contains("gm-lookup"), "{text}");
        assert!(!text.contains("gm-match"), "{text}");
        assert!(!text.contains("gm-member"), "{text}");
        // One residual function per nonterminal survives (the gm-nt
        // memoization point), so the recognizer is a family of mutually
        // recursive rule functions.
        assert!(text.contains("gm-nt"), "{text}");

        let image = genext.specialize_object(&[]).expect("object");
        for (input, expect) in [
            ("abc", true),
            ("a", true),
            ("x1_2", true),
            ("", false),
            ("1ab", false),
            ("ab!", false),
        ] {
            let w = grammar::input_datum(input);
            let got = run_image(&image, grammar::WORKLOAD_ENTRY, std::slice::from_ref(&w))
                .expect("run")
                .value;
            let base = interpret(&parsed, grammar::WORKLOAD_ENTRY, std::slice::from_ref(&w))
                .expect("interpret")
                .value;
            assert_eq!(got, base, "input {input:?}");
            assert_eq!(got, Datum::Bool(expect), "input {input:?}");
        }
    });
}

#[test]
fn adversarial_grammars_agree_on_accept_and_reject() {
    with_stack(|| {
        for (name, text, accept, reject) in grammar::adversarial_suite() {
            let g = grammar::parse(text).expect(name);
            let (_pgg, parsed, genext) = genext_for(&g);
            let image = genext.specialize_object(&[]).expect("object");
            for (input, expect) in [(accept, true), (reject, false)] {
                let w = grammar::input_datum(&input);
                let got = run_image(&image, grammar::WORKLOAD_ENTRY, std::slice::from_ref(&w))
                    .expect("run")
                    .value;
                let base = interpret(&parsed, grammar::WORKLOAD_ENTRY, std::slice::from_ref(&w))
                    .expect("interpret")
                    .value;
                assert_eq!(got, base, "{name}");
                assert_eq!(got, Datum::Bool(expect), "{name} len {}", input.len());
            }
        }
    });
}

// ---------------------------------------------------------------------
// Random-grammar property test: 80 seeds of generated grammar text. The
// front end decides which are inside the LL(1) subset; for every valid
// one, the specialized recognizer must agree with the interpreted matcher
// on derived (accepted) words and mutated (mostly rejected) words.

/// Deterministic xorshift64* — the property test must not depend on
/// ambient randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const ALPHABET: [char; 4] = ['a', 'b', 'c', 'd'];

/// A random grammar expression in the surface syntax. Shallow by
/// construction; validity is the front end's problem.
fn gen_expr(rng: &mut Rng, rules: &[String], depth: usize, out: &mut String) {
    let choice = if depth == 0 {
        rng.below(3)
    } else {
        rng.below(10)
    };
    match choice {
        // Terminals dominate so generated grammars often validate.
        0 | 1 => out.push(ALPHABET[rng.below(ALPHABET.len())]),
        2 => {
            if rules.is_empty() {
                out.push(ALPHABET[rng.below(ALPHABET.len())]);
            } else {
                out.push_str(&rules[rng.below(rules.len())]);
            }
        }
        3 | 4 => {
            out.push_str("(seq ");
            gen_expr(rng, rules, depth - 1, out);
            out.push(' ');
            gen_expr(rng, rules, depth - 1, out);
            out.push(')');
        }
        5 | 6 => {
            out.push_str("(alt ");
            gen_expr(rng, rules, depth - 1, out);
            out.push(' ');
            gen_expr(rng, rules, depth - 1, out);
            out.push(')');
        }
        7 => {
            out.push_str("(star ");
            gen_expr(rng, rules, depth - 1, out);
            out.push(')');
        }
        8 => {
            out.push_str("(opt ");
            gen_expr(rng, rules, depth - 1, out);
            out.push(')');
        }
        _ => {
            out.push_str("(plus ");
            gen_expr(rng, rules, depth - 1, out);
            out.push(')');
        }
    }
}

fn gen_grammar(rng: &mut Rng) -> String {
    let n_rules = 1 + rng.below(3);
    let names: Vec<String> = (0..n_rules).map(|i| format!("r{i}")).collect();
    let mut out = String::from("(");
    for (i, name) in names.iter().enumerate() {
        // Bodies may reference later rules; the front end rejects the
        // cycles that would break LL(1).
        let callees = &names[i + 1..];
        out.push('(');
        out.push_str(name);
        out.push(' ');
        gen_expr(rng, callees, 3, &mut out);
        out.push_str(") ");
    }
    out.push(')');
    out
}

/// Derives a word the grammar accepts by walking the *encoded* datum
/// (alt → random branch, star → 0–2 iterations). `None` when the depth
/// cap trips (deeply recursive nonterminal chains).
fn derive(rng: &mut Rng, enc: &Datum, node: &Datum, depth: usize, out: &mut String) -> Option<()> {
    if depth == 0 {
        return None;
    }
    let items = node.to_vec()?;
    let tag = items.first()?.to_string();
    match tag.as_str() {
        "eps" => Some(()),
        "chr" => match items.get(1) {
            Some(Datum::Char(c)) => {
                out.push(*c);
                Some(())
            }
            _ => None,
        },
        "seq" => {
            derive(rng, enc, items.get(1)?, depth - 1, out)?;
            derive(rng, enc, items.get(2)?, depth - 1, out)
        }
        "alt" => {
            let first = if rng.below(2) == 0 { 2 } else { 3 };
            let len0 = out.len();
            if derive(rng, enc, items.get(first)?, depth - 1, out).is_some() {
                return Some(());
            }
            out.truncate(len0);
            derive(rng, enc, items.get(5 - first)?, depth - 1, out)
        }
        "star" => {
            for _ in 0..rng.below(3) {
                let len0 = out.len();
                if derive(rng, enc, items.get(2)?, depth - 1, out).is_none() {
                    out.truncate(len0);
                    break;
                }
            }
            Some(())
        }
        "nt" => {
            let name = items.get(1)?.to_string();
            let rules = enc.to_vec()?;
            let rule = rules
                .iter()
                .find(|r| r.car().map(|c| c.to_string()).as_deref() == Some(name.as_str()))?;
            let body = rule.cdr()?.car()?.clone();
            derive(rng, enc, &body, depth - 1, out)
        }
        _ => None,
    }
}

#[test]
fn random_grammars_specialize_faithfully() {
    with_stack(|| {
        let mut valid = 0usize;
        let mut accepts = 0usize;
        let mut rejects = 0usize;
        for seed in 0..80u64 {
            let mut rng = Rng::new(seed + 1);
            let text = gen_grammar(&mut rng);
            let g = match grammar::parse(&text) {
                Ok(g) => g,
                // Outside the LL(1) subset — the front end's veto is the
                // expected outcome for a chunk of random grammars.
                Err(_) => continue,
            };
            valid += 1;
            let (_pgg, parsed, genext) = genext_for(&g);
            let image = genext.specialize_object(&[]).expect("object");
            let enc = g.encode();

            let mut words: Vec<String> = Vec::new();
            // Derived words (accepted by construction, when derivation
            // fits the depth cap).
            for _ in 0..3 {
                let mut w = String::new();
                let start = enc
                    .car()
                    .and_then(|r| r.cdr())
                    .and_then(|d| d.car())
                    .cloned();
                if let Some(body) = start {
                    if derive(&mut rng, &enc, &body, 40, &mut w).is_some() {
                        words.push(w);
                    }
                }
            }
            // Mutations and random words (mostly rejected).
            let base = words.first().cloned().unwrap_or_default();
            words.push(format!("{base}z"));
            words.push(base.chars().rev().collect());
            words.push(String::new());
            for _ in 0..2 {
                let len = rng.below(5);
                words.push((0..len).map(|_| ALPHABET[rng.below(4)]).collect());
            }

            for w in words {
                let d = grammar::input_datum(&w);
                let spec = run_image(&image, grammar::WORKLOAD_ENTRY, std::slice::from_ref(&d))
                    .expect("run")
                    .value;
                let base = interpret(&parsed, grammar::WORKLOAD_ENTRY, std::slice::from_ref(&d))
                    .expect("interpret")
                    .value;
                assert_eq!(spec, base, "seed {seed} grammar {text} word {w:?}");
                match spec {
                    Datum::Bool(true) => accepts += 1,
                    _ => rejects += 1,
                }
            }
        }
        // The generator must actually exercise the subsystem: enough
        // grammars inside the subset, and both verdicts observed often.
        assert!(valid >= 20, "only {valid}/80 seeds were valid");
        assert!(accepts >= 20, "only {accepts} accepted words");
        assert!(rejects >= 20, "only {rejects} rejected words");
    });
}

// ---------------------------------------------------------------------
// Join points never allocate. Every residual `if` in non-tail position is
// a join point, and a join compiles to a block of its template reached by
// jumps, so the only `make-closure`s left in a residual image are the
// residual program's own lambdas (LAZY's thunks; a recognizer has none).
// The residual optimizer must keep the join marks sound: its output still
// compiles and agrees with the interpreter.

/// A specialization subject: the generating extension, the program it
/// came from, its static arguments and the dynamic inputs to run.
struct JoinSubject {
    name: String,
    parsed: two4one::cs::Program,
    genext: GenExt,
    entry: &'static str,
    statics: Vec<Datum>,
    inputs: Vec<Datum>,
}

/// MIXWELL and LAZY over their Sec. 7 programs, the adversarial grammars
/// and every valid grammar of the random-grammar seeds.
fn join_subjects() -> Vec<JoinSubject> {
    let interp = |name: &str,
                  policies: Vec<(&'static str, CallPolicy)>,
                  src: &str,
                  entry: &'static str,
                  program: Datum,
                  input: Datum| {
        let pgg = policies
            .iter()
            .fold(Pgg::new(), |p, (f, pol)| p.policy(f, *pol));
        let parsed = pgg.parse(src).expect("interpreter parses");
        let genext = pgg
            .cogen(&parsed, entry, &Division::new([BT::Static, BT::Dynamic]))
            .expect("cogen");
        JoinSubject {
            name: name.to_string(),
            parsed,
            genext,
            entry,
            statics: vec![program],
            inputs: vec![input],
        }
    };
    let mut v = vec![
        interp(
            "mixwell",
            two4one_langs::mixwell_policies(),
            two4one_langs::MIXWELL_INTERP,
            "mixwell-run",
            two4one_langs::mixwell_program(),
            Datum::list([Datum::Int(25)]),
        ),
        interp(
            "lazy",
            two4one_langs::lazy_policies(),
            two4one_langs::LAZY_INTERP,
            "lazy-run",
            two4one_langs::lazy_program(),
            Datum::list([Datum::Int(3), Datum::Int(4)]),
        ),
    ];
    let mut recognizer = |name: String, g: &grammar::Grammar, words: Vec<String>| {
        let (_pgg, parsed, genext) = genext_for(g);
        v.push(JoinSubject {
            name,
            parsed,
            genext,
            entry: grammar::WORKLOAD_ENTRY,
            statics: vec![],
            inputs: words.iter().map(|w| grammar::input_datum(w)).collect(),
        });
    };
    for (name, text, accept, reject) in grammar::adversarial_suite() {
        let g = grammar::parse(text).expect(name);
        recognizer(name.to_string(), &g, vec![accept, reject]);
    }
    for seed in 0..80u64 {
        let mut rng = Rng::new(seed + 1);
        let text = gen_grammar(&mut rng);
        let Ok(g) = grammar::parse(&text) else {
            continue;
        };
        let mut words = vec![String::new()];
        let enc = g.encode();
        let start = enc.car().and_then(|r| r.cdr()).and_then(|d| d.car());
        let mut w = String::new();
        if let Some(body) = start {
            if derive(&mut rng, &enc, body, 40, &mut w).is_some() {
                words.push(w);
            }
        }
        words.push((0..4).map(|_| ALPHABET[rng.below(4)]).collect());
        recognizer(format!("seed {seed}: {text}"), &g, words);
    }
    v
}

fn make_closures(t: &Template) -> usize {
    let here = t
        .code
        .iter()
        .filter(|i| matches!(i, Instr::MakeClosure { .. }))
        .count();
    here + t.templates.iter().map(|s| make_closures(s)).sum::<usize>()
}

/// The lambdas of `e`, as `(closures, joins)`.
fn lambdas(e: &anf::Expr) -> (usize, usize) {
    fn add(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
        (a.0 + b.0, a.1 + b.1)
    }
    fn triv(t: &anf::Triv) -> (usize, usize) {
        match t {
            anf::Triv::Lambda(l) => add(
                lambdas(&l.body),
                (usize::from(!l.join), usize::from(l.join)),
            ),
            _ => (0, 0),
        }
    }
    fn app(a: &anf::App) -> (usize, usize) {
        let (f, args) = match a {
            anf::App::Call(f, args) => (triv(f), args),
            anf::App::Prim(_, args) => ((0, 0), args),
        };
        args.iter().map(triv).fold(f, add)
    }
    match e {
        anf::Expr::Ret(t) => triv(t),
        anf::Expr::Tail(a) => app(a),
        anf::Expr::Let(_, anf::Rhs::Triv(t), body) => add(triv(t), lambdas(body)),
        anf::Expr::Let(_, anf::Rhs::App(a), body) => add(app(a), lambdas(body)),
        anf::Expr::If(t, c, a) => add(triv(t), add(lambdas(c), lambdas(a))),
    }
}

#[test]
fn join_points_never_allocate() {
    with_stack(|| {
        let mut joins = 0;
        for s in join_subjects() {
            let source = s.genext.specialize_source(&s.statics).expect("source");
            let (closures, js) = source
                .defs
                .iter()
                .map(|d| lambdas(&d.body))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            joins += js;
            let image = s.genext.specialize_object(&s.statics).expect("object");
            let allocs: usize = image.templates.iter().map(|(_, t)| make_closures(t)).sum();
            assert_eq!(allocs, closures, "{}", s.name);
            if s.entry == grammar::WORKLOAD_ENTRY {
                assert_eq!(allocs, 0, "{}: a recognizer builds no closures", s.name);
            }
        }
        assert!(joins > 100, "only {joins} join points checked");
    });
}

#[test]
fn optimized_residuals_keep_their_join_points_sound() {
    with_stack(|| {
        for s in join_subjects() {
            let optimized = s
                .genext
                .specialize_source_optimized(&s.statics)
                .expect("optimized source");
            let image = compile_program(&optimized, s.entry)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", s.name, optimized.to_source()));
            for input in &s.inputs {
                let got = run_image(&image, s.entry, std::slice::from_ref(input))
                    .expect("run")
                    .value;
                let args: Vec<Datum> = s.statics.iter().chain([input]).cloned().collect();
                let expect = interpret(&s.parsed, s.entry, &args)
                    .expect("interpret")
                    .value;
                assert_eq!(got, expect, "{} on {input}", s.name);
            }
        }
    });
}
