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
//!   the walker rows above.
//!
//! Subject: the MIXWELL interpreter specialized over its static program —
//! the paper's headline workload. Results land in `BENCH_spec.json` so
//! successive PRs can compare per-phase trajectories.

use std::hint::black_box;
use std::time::Instant;
use two4one::{
    compile_program, encode_genext, with_stack, AProgram, Machine, ObjectBuilder, SourceBuilder,
    SpecOptions, Symbol, Value,
};
use two4one_bench::harness::{self, Criterion};
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

    report(&group);
}

/// One walker run, the reference specializer the gen-ext machine is
/// checked against: stage the annotated program, then walk the staged
/// code.
fn walk<B: two4one::anf::build::CodeBuilder>(
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
    let staged = spec + compile;
    let total = read + bta + staged + exec;
    println!("  cold path, MIXWELL (medians):");
    for (name, ms) in [
        ("read+front-end", read),
        ("bta", bta),
        ("specialize", spec),
        ("compile", compile),
        ("vm-exec", exec),
    ] {
        println!("    {name:<16} {ms:8.3} ms  ({:5.1}%)", 100.0 * ms / total);
    }
    println!(
        "    vm-exec-profiled {execp:8.3} ms  (counter overhead {:+.1}%)",
        (execp / exec - 1.0) * 100.0
    );
    println!("    staged spec+compile {staged:8.3} ms");
    println!(
        "    fused spec-to-object {fused:7.3} ms  ({:.2}x staged)",
        staged / fused
    );
    println!("    genext-build     {gbuild:8.3} ms  (one-time, amortized over the cache)");
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
