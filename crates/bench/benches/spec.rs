//! Cold-path phase split: where does a cold specialization request spend
//! its time?
//!
//! The serving benchmarks (`serve.rs`) measure the cold path end to end;
//! this file breaks it into its phases so an optimization PR can see
//! *which* phase moved:
//!
//! * `read-front-end` — reader + desugaring + renaming + lambda lifting;
//! * `bta` — binding-time analysis (building the generating extension);
//! * `specialize` — staging plus the interpretive walker (the reference
//!   specializer the gen-ext machine is checked against) producing
//!   residual ANF *source*;
//! * `compile` — the stock byte-code compiler over that residual program;
//! * `vm-exec` — executing the compiled residual code once;
//! * `fused/spec-to-object` — the walker's specialize + compile as the
//!   single composed pass of the paper, for comparison against
//!   `specialize` + `compile`;
//! * `genext-build` and `cold-genext` — staging the generating extension,
//!   and the gen-ext machine that every request runs, compared against
//!   the walker rows above;
//! * `<subject>/genext/*` — the machine's routes to object code, on MIXWELL
//!   and LAZY, timed in alternating pairs (see [`bench_machine_routes`]).
//!   The paper's claims about them are ratios of one pair's readings, and
//!   their floors assert on the median over the pairs. The printed phase
//!   split takes its specialize and compile phases from the MIXWELL rows.
//!
//! Subject of the phase rows: the MIXWELL interpreter specialized over its
//! static program — the paper's headline workload. Results land in
//! `BENCH_spec.json` so successive changes can compare per-phase
//! trajectories.

use std::hint::black_box;
use std::time::{Duration, Instant};
use two4one::{
    compile_program, compile_source_text, encode_genext, with_stack, AProgram, Machine,
    ObjectBuilder, SourceBuilder, SpecOptions, Symbol, Value,
};
use two4one_bench::harness::{self, Criterion, Group, RatioResult};
use two4one_bench::subjects;
use two4one_bench::{criterion_group, criterion_main};

fn bench_spec_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("spec_phases");
    group.sample_size(10);

    let subject = subjects().remove(0); // MIXWELL
    let src: &'static str = subject.interp_src;
    let entry: &'static str = subject.entry;
    let pgg = subject.pgg();
    let parsed = subject.parsed();
    let genext = subject.genext();
    let statics = vec![subject.program.clone()];
    let run_args = subject.run_args.clone();

    // Phase 1: reader + front end.
    {
        let pgg = subject.pgg();
        group.bench_function("read-front-end", move |b| {
            b.iter(|| black_box(pgg.parse(src).expect("parse")))
        });
    }

    // Phase 2: binding-time analysis (cogen builds the generating
    // extension; the division is the compilation division of Sec. 7).
    {
        let parsed = parsed.clone();
        let division = two4one::Division::new([two4one::BT::Static, two4one::BT::Dynamic]);
        group.bench_function("bta", move |b| {
            b.iter(|| black_box(pgg.cogen(&parsed, entry, &division).expect("cogen")))
        });
    }

    // Phase 3: specialization to residual source (ANF) by the walker,
    // staging included. Runs on a big stack: the walker recurses over the
    // interpreter.
    let annotated = genext
        .annotated()
        .expect("cogen keeps the annotation")
        .clone();
    let options = genext.options().clone();
    {
        let (a, o, s) = (annotated.clone(), options.clone(), statics.clone());
        group.bench_function("specialize", move |b| {
            b.iter_custom(|iters| {
                let (a, o, s) = (a.clone(), o.clone(), s.clone());
                with_stack(move || {
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        let residual = walk(&a, entry, &s, SourceBuilder::new(), &o);
                        black_box(residual.size());
                    }
                    t0.elapsed()
                })
            })
        });
    }

    // Phase 4: byte-code compilation of the residual program.
    let residual = {
        let g = genext.clone();
        let s = statics.clone();
        with_stack(move || g.specialize_source(&s).expect("residual"))
    };
    {
        let residual = residual.clone();
        group.bench_function("compile", move |b| {
            b.iter(|| {
                black_box(
                    compile_program(&residual, entry)
                        .expect("compile")
                        .code_size(),
                )
            })
        });
    }

    // Phase 5: one execution of the compiled residual code.
    {
        let image = compile_program(&residual, entry).expect("compile residual");
        let args = run_args.clone();
        group.bench_function("vm-exec", move |b| {
            b.iter(|| {
                let mut m = Machine::load(&image);
                let argv = vec![Value::from(&args)];
                black_box(m.call_global(&image.entry, argv).expect("run"))
            })
        });
    }

    // Phase 5b: the same execution with a tiered-serving profile
    // attached. The VM flushes its fetch/retire/visit counters at the
    // amortized deadline stride, so the gap between this row and
    // `vm-exec` is the whole cost of profiling a warm request (design
    // budget: under 2%).
    {
        let image = compile_program(&residual, entry).expect("compile residual");
        let args = run_args.clone();
        let profile = std::sync::Arc::new(two4one::ExecProfile::default());
        group.bench_function("vm-exec-profiled", move |b| {
            b.iter(|| {
                let mut m = Machine::load(&image).with_profile(profile.clone());
                let argv = vec![Value::from(&args)];
                black_box(m.call_global(&image.entry, argv).expect("run profiled"))
            })
        });
    }

    // The composed pass: residual object code with no residual syntax
    // tree in between — should beat `specialize` + `compile` run apart.
    // The walker again, so the two rows compare one engine.
    {
        let (a, o, s) = (annotated.clone(), options.clone(), statics.clone());
        group.bench_function("fused/spec-to-object", move |b| {
            b.iter_custom(|iters| {
                let (a, o, s) = (a.clone(), o.clone(), s.clone());
                with_stack(move || {
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        let image = walk(&a, entry, &s, ObjectBuilder::new(), &o);
                        black_box(image.expect("fused").code_size());
                    }
                    t0.elapsed()
                })
            })
        });
    }

    // Phase 7: staging the gen-ext to bytecode (and its `.t4og` wire
    // form) — the one-time build cost of the *compiled* generating
    // extension, paid once per program generation.
    {
        let (a, e) = (annotated.clone(), Symbol::new(entry));
        group.bench_function("genext-build", move |b| {
            b.iter(|| {
                let staged = two4one_pe::stage(&a).expect("genext-build");
                black_box(encode_genext(&staged, &e).len())
            })
        });
    }

    // Phase 8: cold specialization through the compiled gen-ext — the
    // machine every request runs, on an extension already staged (a
    // serving process stages once per generation, or restores the
    // staged program from a `.t4og` snapshot). Directly comparable to
    // `fused/spec-to-object`, which is the same residual image produced
    // by the walker.
    {
        let compiled = genext.clone();
        compiled.stage().expect("stage genext");
        let s = statics.clone();
        group.bench_function("cold-genext", move |b| {
            b.iter_custom(|iters| {
                let c = compiled.clone();
                let s = s.clone();
                with_stack(move || {
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        black_box(
                            c.specialize_object_with_stats(&s)
                                .expect("cold-genext")
                                .0
                                .code_size(),
                        );
                    }
                    t0.elapsed()
                })
            })
        });
    }

    let claims = bench_machine_routes(&mut group);
    report(&group);
    check_claims(&claims);
}

/// Pairs of the machine rows after the discarded warm-up pair. The count
/// does not follow `T4O_BENCH_SAMPLES`, so CI's one-sample smoke run
/// asserts the claim floors on as many pairs as a full run.
const PAIRS: usize = 12;

/// Runs of each route per pair; one fill takes about a millisecond.
const RUNS: u32 = 20;

/// The paper's claims about one subject's routes that the bench asserts:
/// each the median per-pair ratio of two of its rows.
struct Claims {
    subject: &'static str,
    /// Fig. 7: fused ÷ the staged text route (source, print, read,
    /// compile).
    fused_vs_text: RatioResult,
    /// Fig. 6: object generation ÷ source generation.
    object_vs_source: RatioResult,
}

/// The gen-ext machine's routes to object code, on MIXWELL and LAZY, each
/// on a staged extension:
///
/// * `genext/source` — `GenExt::specialize_source`, the residual ANF tree
///   (`SourceBuilder`);
/// * `genext/compile` — `compile_program` on that tree, in memory;
/// * `genext/fused` — `GenExt::specialize_object`, object code straight
///   from the machine (`ObjectBuilder`);
/// * `genext/load-text` — printing that tree and compiling the text back
///   (read, front end, compile): what the staged text route of Fig. 7
///   adds to `genext/source`.
///
/// After one discarded warm-up pair, each of [`PAIRS`] pairs runs every
/// route [`RUNS`] times, forward on even pairs and backward on odd ones.
/// A row's sample is one pair's time per run, and a claim's reading is
/// the ratio of two rows within one pair, so drift between pairs moves
/// both sides of it. Besides the two claims, the group records fused ÷
/// (source + in-memory compile), the split route a server could take
/// instead; it reads above 1 (EXPERIMENTS.md, Fig. 7), so it has no
/// floor: a claim that does not hold is retracted in the docs, not kept
/// alive by a looser floor.
fn bench_machine_routes(group: &mut Group) -> Vec<Claims> {
    let mut claims = Vec::new();
    for subject in subjects() {
        let name = subject.name;
        let entry: &'static str = subject.entry;
        let genext = subject.genext();
        genext.stage().expect("stage genext");
        let statics = vec![subject.program.clone()];
        let times = with_stack(move || {
            let tree = genext.specialize_source(&statics).expect("residual");
            time_pairs([
                &|| {
                    let tree = genext.specialize_source(&statics).expect("source");
                    black_box(tree.size());
                },
                &|| {
                    let image = compile_program(&tree, entry).expect("compile");
                    black_box(image.code_size());
                },
                &|| {
                    let image = genext.specialize_object(&statics).expect("fused");
                    black_box(image.code_size());
                },
                &|| {
                    let text = tree.to_source();
                    let image = compile_source_text(&text, entry).expect("load");
                    black_box(image.code_size());
                },
            ])
        });
        let [source, compile, fused, load] = &times;
        for (row, t) in [
            ("source", source),
            ("compile", compile),
            ("fused", fused),
            ("load-text", load),
        ] {
            group.record(format!("{name}/genext/{row}"), t.clone());
        }
        let (mut vs_text, mut vs_source, mut vs_split) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..PAIRS {
            let [src, comp, fus, lo] = [source, compile, fused, load].map(|t| t[i].as_secs_f64());
            vs_text.push(fus / (src + lo));
            vs_source.push(fus / src);
            vs_split.push(fus / (src + comp));
        }
        claims.push(Claims {
            subject: name,
            fused_vs_text: group.record_ratio(format!("{name}/fused/(source+load-text)"), vs_text),
            object_vs_source: group.record_ratio(format!("{name}/fused/source"), vs_source),
        });
        group.record_ratio(format!("{name}/fused/(source+compile)"), vs_split);
    }
    claims
}

/// Times `routes` in alternating pairs (see [`bench_machine_routes`]):
/// per route, one time per run for each pair after the warm-up.
fn time_pairs<const N: usize>(routes: [&dyn Fn(); N]) -> [Vec<Duration>; N] {
    let mut times: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::with_capacity(PAIRS));
    for pair in 0..=PAIRS {
        let mut order: Vec<usize> = (0..N).collect();
        if pair % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let t0 = Instant::now();
            for _ in 0..RUNS {
                routes[i]();
            }
            if pair > 0 {
                times[i].push(t0.elapsed() / RUNS);
            }
        }
    }
    times
}

/// The claim floors of the machine rows, on the median per-pair ratio.
fn check_claims(claims: &[Claims]) {
    for c in claims {
        // Fig. 7: object code straight from the machine beats the staged
        // route through residual text.
        assert!(
            c.fused_vs_text.median <= 1.0,
            "{}: fused generation reads {:.3}x the staged text route",
            c.subject,
            c.fused_vs_text.median
        );
        // Fig. 6: object generation costs at most twice source generation.
        assert!(
            c.object_vs_source.median <= 2.0,
            "{}: object generation reads {:.3}x source generation",
            c.subject,
            c.object_vs_source.median
        );
    }
}

/// One walker run, the reference specializer the gen-ext machine is
/// checked against: stage the annotated program, then walk the staged
/// code.
fn walk<B: two4one::anf::build::CodeBuilder + Default>(
    annotated: &AProgram,
    entry: &str,
    statics: &[two4one::Datum],
    builder: B,
    options: &SpecOptions,
) -> B::Program {
    let staged = two4one_pe::stage(annotated).expect("stage");
    let deadline = options.limits.deadline();
    two4one_pe::specialize_staged(
        &staged,
        &Symbol::new(entry),
        statics,
        builder,
        options,
        deadline,
    )
    .expect("walker")
    .0
}

/// Prints the phase breakdown and writes the trajectory file.
fn report(group: &harness::Group) {
    let phase = |id: &str| -> f64 {
        group
            .results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.median.as_secs_f64() * 1e3)
            .unwrap_or_else(|| panic!("missing phase {id}"))
    };
    let read = phase("read-front-end");
    let bta = phase("bta");
    let spec = phase("specialize");
    let compile = phase("compile");
    let exec = phase("vm-exec");
    let execp = phase("vm-exec-profiled");
    let fused = phase("fused/spec-to-object");
    let gbuild = phase("genext-build");
    let gcold = phase("cold-genext");
    let mspec = phase("MIXWELL/genext/source");
    let mcompile = phase("MIXWELL/genext/compile");
    let mfused = phase("MIXWELL/genext/fused");
    let staged = spec + compile;
    let total = read + bta + mspec + mcompile + exec;
    println!("  cold path, MIXWELL (medians), specializing on the gen-ext machine:");
    for (name, ms) in [
        ("read+front-end", read),
        ("bta", bta),
        ("specialize", mspec),
        ("compile", mcompile),
        ("vm-exec", exec),
    ] {
        println!("    {name:<16} {ms:8.3} ms  ({:5.1}%)", 100.0 * ms / total);
    }
    println!(
        "    vm-exec-profiled {execp:8.3} ms  (counter overhead {:+.1}%)",
        (execp / exec - 1.0) * 100.0
    );
    println!("    fused            {mfused:8.3} ms  (specialize straight to object code)");
    println!("    genext-build     {gbuild:8.3} ms  (one-time, amortized over the cache)");
    println!("  the walker, the reference the machine is tested against:");
    println!("    walker spec+compile  {staged:8.3} ms");
    println!(
        "    walker spec-to-object {fused:7.3} ms  ({:.2}x walker spec+compile)",
        fused / staged
    );
    println!(
        "    cold-genext      {gcold:8.3} ms  ({:.2}x walker specialize, {:.2}x walker fused)",
        spec / gcold,
        fused / gcold
    );

    // Anchor to the workspace root so the trajectory file lands in the
    // same place regardless of cargo's bench working directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spec.json");
    harness::write_json(path, group).expect("write BENCH_spec.json");
    println!("  wrote BENCH_spec.json");

    // Sanity floors, loose enough for a 1-sample CI smoke run: every
    // phase must actually be measured, and the fused pass must not lose
    // badly to running its two halves apart (it skips the residual tree).
    for (name, ms) in [("read", read), ("bta", bta), ("spec", spec)] {
        assert!(ms > 0.0, "phase {name} measured as zero");
    }
    assert!(
        fused < staged * 1.5,
        "fused generation ({fused:.3} ms) much slower than staged ({staged:.3} ms)"
    );
    // The compiled gen-ext earns its keep: a cold miss through the
    // bytecode machine must beat the interpreted specializer by 2x on the
    // same workload (it runs at ~2.2x on an idle machine, and the margin
    // widens under 1-sample smoke runs because the interpreted baseline
    // pays the warmup).
    // Execution profiling is a strided counter flush: its design budget
    // is under 2% on the warm path. The floor is looser because both
    // rows are microsecond-scale samples on shared CI hardware.
    assert!(
        execp <= exec * 1.25,
        "profiled execution ({execp:.3} ms) too far above plain ({exec:.3} ms)"
    );
    assert!(
        gcold * 2.0 <= spec,
        "cold-genext ({gcold:.3} ms) is less than 2x faster than the \
         interpreted specializer ({spec:.3} ms)"
    );
}

criterion_group!(benches, bench_spec_phases);
criterion_main!(benches);
