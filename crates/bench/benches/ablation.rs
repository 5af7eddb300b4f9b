//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * **memoize vs. unfold** — generation time and residual size when the
//!   classic `power` example is specialized with its recursion unfolded
//!   (straight-line code) vs. forcibly memoized (residual loop);
//! * **interpreted vs. RTCG execution** — running a MIXWELL program under
//!   the interpreter vs. running the code generated for it at run time,
//!   the end-to-end payoff of the whole system.

use std::hint::black_box;
use std::time::Instant;
use two4one::{
    interpret, run_image, with_stack, CallPolicy, Datum, Division, Machine, Pgg, Symbol, Value, BT,
};
use two4one_bench::harness::Criterion;
use two4one_bench::subjects;
use two4one_bench::{criterion_group, criterion_main};

fn bench_memo_vs_unfold(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_memo_vs_unfold");
    const POWER: &str = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";
    let n = Datum::Int(64);

    let unfold = Pgg::new()
        .cogen(
            &Pgg::new().parse(POWER).unwrap(),
            "power",
            &Division::new([BT::Dynamic, BT::Static]),
        )
        .unwrap();
    let memo = Pgg::new()
        .policy("power", CallPolicy::Memoize)
        .cogen(
            &Pgg::new().parse(POWER).unwrap(),
            "power",
            &Division::new([BT::Dynamic, BT::Static]),
        )
        .unwrap();

    for (label, genext) in [("unfold", unfold), ("memoize", memo)] {
        let g = genext.clone();
        let s = vec![n.clone()];
        group.bench_function(format!("power64/{label}"), move |b| {
            b.iter_custom(|iters| {
                let g = g.clone();
                let s = s.clone();
                with_stack(move || {
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        black_box(g.specialize_object(&s).expect("spec").code_size());
                    }
                    t0.elapsed()
                })
            })
        });
    }
    group.finish();
}

fn bench_interp_vs_rtcg_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_execution");
    group.sample_size(20);
    let subject = subjects().remove(0); // MIXWELL
    let parsed = subject.parsed();
    let program = subject.program.clone();
    let args = subject.run_args.clone();
    let entry = Symbol::new(subject.entry);

    let p = parsed.clone();
    let (prog, a) = (program.clone(), args.clone());
    group.bench_function("mixwell/interpreted", move |b| {
        b.iter_custom(|iters| {
            let p = p.clone();
            let prog = prog.clone();
            let a = a.clone();
            with_stack(move || {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(
                        interpret(&p, "mixwell-run", &[prog.clone(), a.clone()])
                            .expect("interp")
                            .value,
                    );
                }
                t0.elapsed()
            })
        })
    });

    let genext = subject.genext();
    let (prog, a) = (program.clone(), args.clone());
    group.bench_function("mixwell/rtcg-compiled", move |b| {
        b.iter_custom(|iters| {
            let g = genext.clone();
            let prog = prog.clone();
            let a = a.clone();
            with_stack(move || {
                // Code generation happens once; execution is measured.
                let image = g.specialize_object(&[prog]).expect("generate");
                let t0 = Instant::now();
                for _ in 0..iters {
                    let mut m = Machine::load(&image);
                    let argv = vec![Value::from(&a)];
                    black_box(m.call_global(&entry, argv).expect("run"));
                }
                t0.elapsed()
            })
        })
    });

    // End-to-end: generate + run once (the true RTCG break-even question).
    let genext = subject.genext();
    group.bench_function("mixwell/rtcg-generate-and-run-once", move |b| {
        b.iter_custom(|iters| {
            let g = genext.clone();
            let prog = program.clone();
            let a = args.clone();
            with_stack(move || {
                let t0 = Instant::now();
                for _ in 0..iters {
                    let image = g
                        .specialize_object(std::slice::from_ref(&prog))
                        .expect("generate");
                    black_box(
                        run_image(&image, "mixwell-run", std::slice::from_ref(&a))
                            .expect("run")
                            .value,
                    );
                }
                t0.elapsed()
            })
        })
    });
    group.finish();
}

/// Residual-code post-optimization: cost of the ANF optimizer pass and
/// the size reduction it buys on interpreter residuals.
fn bench_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_optimizer");
    for subject in subjects() {
        let genext = subject.genext();
        let statics = vec![subject.program.clone()];
        let sizes: (usize, usize) = {
            let g = genext.clone();
            let s = statics.clone();
            with_stack(move || {
                let r = g.specialize_source(&s).expect("source");
                (r.size(), two4one::anf::optimize(&r).size())
            })
        };
        println!(
            "{}: residual size {} -> optimized {} ({:.0}%)",
            subject.name,
            sizes.0,
            sizes.1,
            100.0 * sizes.1 as f64 / sizes.0 as f64
        );
        let g = genext.clone();
        let s = statics.clone();
        group.bench_function(format!("{}/optimize-pass", subject.name), move |b| {
            b.iter_custom(|iters| {
                let g = g.clone();
                let s = s.clone();
                with_stack(move || {
                    let residual = g.specialize_source(&s).expect("source");
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        black_box(two4one::anf::optimize(&residual).size());
                    }
                    t0.elapsed()
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_memo_vs_unfold,
    bench_optimizer,
    bench_interp_vs_rtcg_execution
);
criterion_main!(benches);
