//! Cold-path phase split: where does a cold specialization request spend
//! its time?
//!
//! The serving benchmarks (`serve.rs`) measure the cold path end to end;
//! this file breaks it into its phases so an optimization PR can see
//! *which* phase moved:
//!
//! * `read-front-end` — reader + desugaring + renaming + lambda lifting;
//! * `bta` — binding-time analysis (building the generating extension);
//! * `vm-exec` — executing the compiled residual code once, and
//!   `vm-exec-profiled` the same with a tiered-serving profile attached,
//!   timed in alternating pairs (see [`time_pairs`]);
//! * `genext-build` — staging the generating extension, paid once per
//!   program generation;
//! * `<subject>/genext/*` and `<subject>/walker/*` — the gen-ext machine's
//!   routes to object code and the walker's two builders, on MIXWELL and
//!   LAZY, timed in alternating pairs (see [`bench_machine_routes`]). The
//!   paper's claims about them are ratios of one pair's readings, and
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
    compile_program, compile_source_text, encode_genext, with_stack, Machine, ObjectBuilder,
    SourceBuilder, Symbol, Value,
};
use two4one_bench::harness::{self, Criterion, Group, RatioResult};
use two4one_bench::subjects;
use two4one_bench::{criterion_group, criterion_main};
use two4one_pe::specialize_staged;

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

    // The compiled residual program the VM rows run.
    let image = {
        let g = genext.clone();
        let s = statics.clone();
        let residual = with_stack(move || g.specialize_source(&s).expect("residual"));
        std::sync::Arc::new(compile_program(&residual, entry).expect("compile residual"))
    };

    // Phase 3: one execution of the compiled residual code, alone and with
    // a tiered-serving profile attached. The VM flushes its
    // fetch/retire/visit counters at the amortized deadline stride, so
    // the gap between the two rows is the whole cost of profiling a warm
    // request (design budget: under 2%). They run in alternating pairs,
    // and the overhead is read as the median per-pair ratio.
    {
        let profile = std::sync::Arc::new(two4one::ExecProfile::default());
        let exec = |mut m: Machine| {
            let argv = vec![Value::from(&run_args)];
            black_box(m.call_global(&image.entry, argv).expect("run"));
        };
        let plain = || exec(Machine::load(&image));
        let profiled = || exec(Machine::load(&image).with_profile(profile.clone()));
        let [plain, profiled] = time_pairs([&plain, &profiled]);
        let ratios = plain
            .iter()
            .zip(&profiled)
            .map(|(p, q)| q.as_secs_f64() / p.as_secs_f64())
            .collect();
        group.record("vm-exec", plain);
        group.record("vm-exec-profiled", profiled);
        group.record_ratio("vm-exec-profiled/vm-exec", ratios);
    }

    // Phase 4: staging the gen-ext to bytecode (and its `.t4og` wire
    // form) — the one-time build cost of the *compiled* generating
    // extension, paid once per program generation.
    {
        let a = genext
            .annotated()
            .expect("cogen keeps the annotation")
            .clone();
        let e = Symbol::new(entry);
        group.bench_function("genext-build", move |b| {
            b.iter(|| {
                let staged = two4one_pe::stage(&a).expect("genext-build");
                black_box(encode_genext(&staged, &e).len())
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
    /// The walker's fused pass ÷ its source pass plus the in-memory
    /// compile of that tree.
    walker_fused_vs_split: RatioResult,
    /// The machine's fused fill ÷ the walker's source pass.
    fused_vs_walker: RatioResult,
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
///   adds to `genext/source`;
/// * `walker/source` and `walker/fused` — `specialize_staged`, the walker
///   the machine is tested against, with each builder on the same staged
///   program.
///
/// After one discarded warm-up pair, each of [`PAIRS`] pairs runs every
/// route [`RUNS`] times, forward on even pairs and backward on odd ones.
/// A row's sample is one pair's time per run, and a claim's reading is
/// the ratio of two rows within one pair, so drift between pairs moves
/// both sides of it. Besides the claims, the group records fused ÷
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
        let staged = genext.staged().expect("stage genext").clone();
        let options = genext.options().clone();
        let statics = vec![subject.program.clone()];
        let times = with_stack(move || {
            let tree = genext.specialize_source(&statics).expect("residual");
            let root = Symbol::new(entry);
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
                &|| {
                    let deadline = options.limits.deadline();
                    let builder = SourceBuilder::new();
                    let (tree, _) =
                        specialize_staged(&staged, &root, &statics, builder, &options, deadline)
                            .expect("walker source");
                    black_box(tree.size());
                },
                &|| {
                    let deadline = options.limits.deadline();
                    let builder = ObjectBuilder::new();
                    let (image, _) =
                        specialize_staged(&staged, &root, &statics, builder, &options, deadline)
                            .expect("walker fused");
                    black_box(image.expect("walker image").code_size());
                },
            ])
        });
        let [source, compile, fused, load, wsource, wfused] = &times;
        for (row, t) in [
            ("genext/source", source),
            ("genext/compile", compile),
            ("genext/fused", fused),
            ("genext/load-text", load),
            ("walker/source", wsource),
            ("walker/fused", wfused),
        ] {
            group.record(format!("{name}/{row}"), t.clone());
        }
        let mut ratios: [Vec<f64>; 5] = Default::default();
        for i in 0..PAIRS {
            let [src, comp, fus, lo, wsrc, wfus] =
                [source, compile, fused, load, wsource, wfused].map(|t| t[i].as_secs_f64());
            for (r, x) in ratios.iter_mut().zip([
                fus / (src + lo),
                fus / src,
                fus / (src + comp),
                wfus / (wsrc + comp),
                fus / wsrc,
            ]) {
                r.push(x);
            }
        }
        let [vs_text, vs_source, vs_split, walker_split, vs_walker] = ratios;
        claims.push(Claims {
            subject: name,
            fused_vs_text: group.record_ratio(format!("{name}/fused/(source+load-text)"), vs_text),
            object_vs_source: group.record_ratio(format!("{name}/fused/source"), vs_source),
            walker_fused_vs_split: group.record_ratio(
                format!("{name}/walker-fused/(walker-source+compile)"),
                walker_split,
            ),
            fused_vs_walker: group.record_ratio(format!("{name}/fused/walker-source"), vs_walker),
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

/// The claim floors of the paired rows, on the median per-pair ratio.
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
        // The walker's fused pass must not lose badly to its source pass
        // and an in-memory compile run apart.
        assert!(
            c.walker_fused_vs_split.median < 1.5,
            "{}: the walker's fused pass reads {:.3}x its source pass + compile",
            c.subject,
            c.walker_fused_vs_split.median
        );
        // The compiled gen-ext earns its keep: the machine fills object
        // code in at most half the time the walker takes to the source.
        assert!(
            c.fused_vs_walker.median <= 0.5,
            "{}: the machine's fused fill reads {:.3}x the walker's source pass",
            c.subject,
            c.fused_vs_walker.median
        );
    }
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
    let ratio = |id: &str| -> f64 {
        group
            .ratios()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.median)
            .unwrap_or_else(|| panic!("missing ratio {id}"))
    };
    let read = phase("read-front-end");
    let bta = phase("bta");
    let exec = phase("vm-exec");
    let execp = phase("vm-exec-profiled");
    let overhead = ratio("vm-exec-profiled/vm-exec");
    let gbuild = phase("genext-build");
    let mspec = phase("MIXWELL/genext/source");
    let mcompile = phase("MIXWELL/genext/compile");
    let mfused = phase("MIXWELL/genext/fused");
    let wspec = phase("MIXWELL/walker/source");
    let wfused = phase("MIXWELL/walker/fused");
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
        "    vm-exec-profiled {execp:8.3} ms  (counter overhead {:+.1}%, median per-pair ratio)",
        (overhead - 1.0) * 100.0
    );
    println!("    fused            {mfused:8.3} ms  (specialize straight to object code)");
    println!("    genext-build     {gbuild:8.3} ms  (one-time, amortized over the cache)");
    println!("  the walker, the reference the machine is tested against (median per-pair ratios):");
    println!("    walker source    {wspec:8.3} ms");
    println!(
        "    walker fused     {wfused:8.3} ms  ({:.2}x walker source + compile)",
        ratio("MIXWELL/walker-fused/(walker-source+compile)")
    );
    println!(
        "    machine fused    {mfused:8.3} ms  ({:.2}x walker source)",
        ratio("MIXWELL/fused/walker-source")
    );

    // Anchor to the workspace root so the trajectory file lands in the
    // same place regardless of cargo's bench working directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spec.json");
    harness::write_json(path, group).expect("write BENCH_spec.json");
    println!("  wrote BENCH_spec.json");

    // Sanity floors, loose enough for a 1-sample CI smoke run: every
    // phase must actually be measured.
    for (name, ms) in [("read", read), ("bta", bta), ("spec", mspec)] {
        assert!(ms > 0.0, "phase {name} measured as zero");
    }
    // Execution profiling is a strided counter flush: its design budget
    // is under 2% on the warm path. The floor is looser because both
    // rows are sub-millisecond runs on shared CI hardware.
    assert!(
        overhead <= 1.25,
        "profiled execution reads {overhead:.3}x plain (median per-pair ratio)"
    );
}

criterion_group!(benches, bench_spec_phases);
criterion_main!(benches);
