//! Grammar matching at the three execution tiers: how fast does each
//! configuration push characters through a recognizer?
//!
//! The subjects are the adversarial grammars of the grammar workload
//! family — inputs chosen to hurt: a long run that fails only at the very
//! last character (`long-prefix`), a 10-way decision chain taken on every
//! character (`deep-alt`), and interleaved star loops (`star-nest`). For
//! each, three rows:
//!
//! * `interp/…` — the matcher interpreter walking `(grammar, input)`
//!   directly (tier-0 semantics, no compilation at all);
//! * `generic/…` — the interpreter *generically* compiled to bytecode,
//!   grammar still walked at run time (what tier-0 serving executes);
//! * `spec/…` — the residual recognizer: the interpreter specialized
//!   over the grammar straight to object code, one residual function per
//!   nonterminal — the image promotion installs, unmodified.
//!
//! Results (median seconds per match of a ~2048-character input) land in
//! `BENCH_match.json`; the figure in EXPERIMENTS.md reports chars/s. The
//! CI floor: the specialized recognizer must beat the interpreted matcher
//! by at least 5x on every adversarial input — that factor is the whole
//! point of the subsystem, so losing it is a regression, not noise.

use std::hint::black_box;
use two4one::{compile, interpret, run_image, with_stack, Datum, Division, Pgg, BT};
use two4one_bench::harness::{self, Criterion};
use two4one_bench::{criterion_group, criterion_main};
use two4one_langs::grammar;

fn bench_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("match");
    group.sample_size(10);

    let pgg = grammar::grammar_policies()
        .iter()
        .fold(Pgg::new(), |p, (name, pol)| p.policy(name, *pol));

    let mut chars: Vec<(String, usize)> = Vec::new();
    for (name, text, accept, reject) in grammar::adversarial_suite() {
        let g = grammar::parse(text).expect("adversarial grammar");
        let src = grammar::workload_source(&g);
        let parsed = pgg.parse(&src).expect("workload parses");
        // The reject input is the adversarial one (it forces the longest
        // walk before failing); its length is the figure's denominator.
        let input = grammar::input_datum(&reject);
        chars.push((name.to_string(), reject.len()));

        // Sanity: all three tiers agree before any of them is timed.
        let accept_d = grammar::input_datum(&accept);
        let generic = compile(&parsed, grammar::WORKLOAD_ENTRY).expect("generic compile");
        let specialized = with_stack({
            let src = src.clone();
            let pgg = pgg.clone();
            move || {
                let genext = pgg
                    .cogen(
                        &pgg.parse(&src).expect("reparse"),
                        grammar::WORKLOAD_ENTRY,
                        &Division::new([BT::Dynamic]),
                    )
                    .expect("cogen");
                genext.specialize_object(&[]).expect("specialize")
            }
        });
        for (w, expect) in [(&accept_d, true), (&input, false)] {
            let base = interpret(&parsed, grammar::WORKLOAD_ENTRY, std::slice::from_ref(w))
                .expect("interpret")
                .value;
            assert_eq!(base, Datum::Bool(expect), "{name}");
            for img in [&generic, &specialized] {
                let got = run_image(img, grammar::WORKLOAD_ENTRY, std::slice::from_ref(w))
                    .expect("run")
                    .value;
                assert_eq!(got, base, "{name}");
            }
        }

        // Row 1: the matcher interpreter itself.
        {
            let parsed = parsed.clone();
            let input = input.clone();
            group.bench_function(format!("interp/{name}"), move |b| {
                b.iter(|| {
                    black_box(
                        interpret(
                            &parsed,
                            grammar::WORKLOAD_ENTRY,
                            std::slice::from_ref(&input),
                        )
                        .expect("interpret")
                        .value,
                    )
                })
            });
        }

        // Row 2: the generically compiled interpreter (tier-0 serving).
        {
            let input = input.clone();
            group.bench_function(format!("generic/{name}"), move |b| {
                b.iter(|| {
                    black_box(
                        run_image(
                            &generic,
                            grammar::WORKLOAD_ENTRY,
                            std::slice::from_ref(&input),
                        )
                        .expect("run generic")
                        .value,
                    )
                })
            });
        }

        // Row 3: the residual recognizer (what promotion installs).
        {
            let input = input.clone();
            group.bench_function(format!("spec/{name}"), move |b| {
                b.iter(|| {
                    black_box(
                        run_image(
                            &specialized,
                            grammar::WORKLOAD_ENTRY,
                            std::slice::from_ref(&input),
                        )
                        .expect("run specialized")
                        .value,
                    )
                })
            });
        }
    }

    report(&group, &chars);
}

/// Prints the chars/s figure and enforces the speedup floor.
fn report(group: &harness::Group, chars: &[(String, usize)]) {
    let median = |id: &str| -> f64 {
        group
            .results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.median.as_secs_f64())
            .unwrap_or_else(|| panic!("missing row {id}"))
    };
    println!("  grammar matching, adversarial inputs (chars/s, higher is better):");
    println!(
        "    {:<12} {:>12} {:>12} {:>12} {:>9}",
        "grammar", "interp", "generic", "spec", "speedup"
    );
    for (name, n) in chars {
        let interp = median(&format!("interp/{name}"));
        let generic = median(&format!("generic/{name}"));
        let spec = median(&format!("spec/{name}"));
        let rate = |secs: f64| *n as f64 / secs;
        println!(
            "    {:<12} {:>12.0} {:>12.0} {:>12.0} {:>8.1}x",
            name,
            rate(interp),
            rate(generic),
            rate(spec),
            interp / spec
        );
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_match.json");
    harness::write_json(path, group).expect("write BENCH_match.json");
    println!("  wrote BENCH_match.json");

    // The floor: specialization must be worth at least 5x over the
    // interpreted matcher on every adversarial input. The usual margin is
    // far larger (the whole grammar walk and decision-set scan are gone),
    // so 5x holds even at `T4O_BENCH_SAMPLES=1` on loaded CI hardware.
    for (name, _) in chars {
        let interp = median(&format!("interp/{name}"));
        let spec = median(&format!("spec/{name}"));
        assert!(
            interp >= spec * 5.0,
            "specialized recognizer only {:.1}x faster than interpreted on {name}",
            interp / spec
        );
    }
}

criterion_group!(benches, bench_match);
criterion_main!(benches);
