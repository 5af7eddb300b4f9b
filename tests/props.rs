//! Property-based tests over random programs and data, driven by the
//! in-repo deterministic generator (`two4one_testkit::Rng`): each test
//! sweeps a fixed seed range, and any failure message names the seed that
//! reproduces it.
//!
//! Programs are generated as `Send`-able sketches and materialized inside
//! a large-stack worker thread (syntax trees use `Rc` internally and the
//! engines recurse deeply). Random programs can diverge, so every engine
//! runs with fuel; a case where any engine times out is skipped — the
//! properties quantify over the *decidable* cases.

use two4one::{compile, with_stack_size, Datum, Image, Interp, Machine, Symbol, BT};
use two4one_testkit::{gen_datum, gen_sketch, program_from_sketch, Rng, Sketch};

// The tree-walking interpreter nests a Rust frame per non-tail call, so
// divergent non-tail recursion consumes stack proportional to fuel; keep
// fuel small enough to hit the meter before the 2 GiB worker stack.
const INTERP_FUEL: u64 = 100_000;
const VM_FUEL: u64 = 2_000_000;
// Debug-build CPS frames are large; keep unfold depth well under the
// 512 MiB worker stack.
const PE_FUEL: u64 = 6_000;

const CASES: u64 = 64;

/// Outcome of running a program under some engine.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// Value plus collected output.
    Val(Option<Datum>, String),
    /// A runtime error.
    Fault,
    /// Fuel ran out — undecidable, skip.
    Timeout,
}

fn run_interp(p: &two4one::cs::Program, args: &[Datum]) -> Outcome {
    let mut i = Interp::new(p).with_fuel(INTERP_FUEL);
    let argv = args.iter().map(two4one_interp_value).collect();
    match i.call_global(&Symbol::new("main"), argv) {
        Ok(v) => Outcome::Val(v.to_datum(), i.output),
        Err(two4one::RtError::FuelExhausted) => Outcome::Timeout,
        Err(_) => Outcome::Fault,
    }
}

fn two4one_interp_value(d: &Datum) -> two4one::InterpValue {
    two4one::InterpValue::from(d)
}

fn run_vm(image: &Image, args: &[Datum]) -> Outcome {
    let mut m = Machine::load(image).with_fuel(VM_FUEL);
    let argv = args.iter().map(two4one::Value::from).collect();
    match m.call_global(&Symbol::new("main"), argv) {
        Ok(v) => Outcome::Val(v.to_datum(), m.output),
        Err(two4one::VmError::FuelExhausted) => Outcome::Timeout,
        Err(_) => Outcome::Fault,
    }
}

fn agree(name: &str, a: &Outcome, b: &Outcome) -> Result<(), String> {
    match (a, b) {
        (Outcome::Timeout, _) | (_, Outcome::Timeout) => Ok(()),
        _ if a == b => Ok(()),
        _ => Err(format!("{name}: {a:?} vs {b:?}")),
    }
}

/// One generated case: two program sketches and two small integer args.
fn gen_case(seed: u64) -> (Sketch, Sketch, i64, i64) {
    let mut rng = Rng::new(seed);
    let m = gen_sketch(&mut rng, 5);
    let g = gen_sketch(&mut rng, 4);
    let a = rng.range_i64(-50, 50);
    let b = rng.range_i64(-50, 50);
    (m, g, a, b)
}

/// Engine agreement on random programs: the interpreter against the
/// program compiled through the ANF compilators and run on the VM.
fn check_engines_agree(m: Sketch, g: Sketch, a: i64, b: i64) -> Result<(), String> {
    with_stack_size(2 * 1024 * 1024 * 1024, move || {
        let p = program_from_sketch(&m, &g);
        let args = [Datum::Int(a), Datum::Int(b)];
        let expect = run_interp(&p, &args);
        let image = compile(&p, "main").map_err(|e| format!("compile: {e}"))?;
        agree("interp-vs-vm", &expect, &run_vm(&image, &args))
    })
}

fn check_normalizer(m: Sketch, g: Sketch) -> Result<(), String> {
    with_stack_size(2 * 1024 * 1024 * 1024, move || {
        let p = program_from_sketch(&m, &g);
        let anf = two4one::anf::normalize(&p);
        for d in &anf.defs {
            if !two4one::anf::cs_is_anf(&d.body.to_cs()) {
                return Err(format!("not ANF: {}", d.body));
            }
        }
        let args = [Datum::Int(3), Datum::Int(4)];
        agree(
            "normalize",
            &run_interp(&p, &args),
            &run_interp(&anf.to_cs(), &args),
        )?;
        // The optimizer must preserve semantics and the ANF grammar.
        let opt = two4one::anf::optimize(&anf);
        for d in &opt.defs {
            if !two4one::anf::cs_is_anf(&d.body.to_cs()) {
                return Err(format!("optimizer broke ANF: {}", d.body));
            }
        }
        agree(
            "optimize",
            &run_interp(&anf.to_cs(), &args),
            &run_interp(&opt.to_cs(), &args),
        )
    })
}

fn check_all_dynamic_pe(m: Sketch, g: Sketch, a: i64, b: i64) -> Result<(), String> {
    // Staging and the object builder still recurse over the program, and
    // debug frames are large; give this worker extra address space.
    with_stack_size(2 * 1024 * 1024 * 1024, move || {
        let p = program_from_sketch(&m, &g);
        // The depth budget stops a statically divergent unfolding long
        // before the fuel runs out, which keeps fallback replay cheap
        // (DESIGN.md §7).
        let limits = two4one::Limits::default()
            .with_unfold_fuel(PE_FUEL)
            .with_max_depth(30_000);
        let pgg = two4one::Pgg::new().limits(limits);
        let genext = pgg
            .cogen(&p, "main", &two4one::Division::all_dynamic(2))
            .map_err(|e| format!("cogen: {e}"))?;
        let args = [Datum::Int(a), Datum::Int(b)];
        let expect = run_interp(&p, &args);
        match genext.specialize_object(&[]) {
            Ok(image) => agree("pe", &expect, &run_vm(&image, &args)),
            // Unfold-fuel exhaustion = spec-time divergence or work
            // exceeding the test budget: undecidable, skip.
            Err(two4one::Error::Pe(two4one::PeError::UnfoldLimit(_))) => Ok(()),
            // Speculative static evaluation may fault where the program
            // faults at run time.
            Err(e) => {
                if matches!(expect, Outcome::Fault | Outcome::Timeout) {
                    Ok(())
                } else {
                    Err(format!("specializer failed ({e}) on a healthy program"))
                }
            }
        }
    })
}

/// The divisions of `main`'s two parameters: SS, SD, DS and DD.
const DIVISIONS: [[BT; 2]; 4] = [
    [BT::Static, BT::Static],
    [BT::Static, BT::Dynamic],
    [BT::Dynamic, BT::Static],
    [BT::Dynamic, BT::Dynamic],
];

/// Unfold fuels from none to the test budget: every starved run is
/// answered with the generic image.
const DIVISION_FUELS: [u64; 4] = [0, 1, 3, PE_FUEL];

/// The partial-evaluation equation under every division of `main`: the
/// generic image (the core call a Tier-0 first touch and an open breaker
/// make) always computes what the program computes, and a specialization
/// with fallback on never leaves a recoverable limit unanswered and
/// computes it too whenever it returns an image.
fn check_static_divisions(m: Sketch, g: Sketch, a: i64, b: i64) -> Result<(), String> {
    with_stack_size(2 * 1024 * 1024 * 1024, move || {
        let p = program_from_sketch(&m, &g);
        let args = [Datum::Int(a), Datum::Int(b)];
        let expect = run_interp(&p, &args);
        if expect == Outcome::Timeout {
            return Ok(());
        }
        for div in DIVISIONS {
            let name: String = div
                .iter()
                .map(|bt| if *bt == BT::Static { 'S' } else { 'D' })
                .collect();
            let (statics, dynamics): (Vec<_>, Vec<_>) = div
                .iter()
                .zip(&args)
                .partition(|(bt, _)| **bt == BT::Static);
            let statics: Vec<Datum> = statics.into_iter().map(|(_, d)| d.clone()).collect();
            let dynamics: Vec<Datum> = dynamics.into_iter().map(|(_, d)| d.clone()).collect();
            let genext = match two4one::Pgg::new().cogen(&p, "main", &two4one::Division::new(div)) {
                Ok(genext) => genext,
                // The analysis refuses a division whose static parameter
                // it has to make dynamic; nothing to specialize.
                Err(two4one::Error::Bta(_)) => continue,
                Err(e) => return Err(format!("{name}: cogen: {e}")),
            };
            let (image, _) = genext
                .generic_object(&statics)
                .map_err(|e| format!("{name}: generic image: {e}"))?;
            agree(
                &format!("{name} generic image"),
                &expect,
                &run_vm(&image, &dynamics),
            )?;
            for fuel in DIVISION_FUELS {
                let ctx = format!("{name} fuel={fuel}");
                // The depth budget stops a statically divergent unfolding
                // long before the fuel runs out.
                let limits = two4one::Limits::default()
                    .with_unfold_fuel(fuel)
                    .with_max_depth(30_000);
                let options = two4one::SpecOptions {
                    limits,
                    fallback: true,
                };
                match genext.with_options(options).specialize_object(&statics) {
                    Ok(image) => agree(&ctx, &expect, &run_vm(&image, &dynamics))?,
                    Err(two4one::Error::Pe(e)) if e.is_recoverable() => {
                        return Err(format!("{ctx}: fallback left a recoverable error: {e}"))
                    }
                    // Speculative static evaluation may fault where the
                    // program faults at run time.
                    Err(e) => {
                        if !matches!(expect, Outcome::Fault | Outcome::Timeout) {
                            return Err(format!(
                                "{ctx}: specializer failed ({e}) on a healthy program"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    })
}

#[test]
fn interpreter_and_vm_agree_on_random_programs() {
    for seed in 0..CASES {
        let (m, g, a, b) = gen_case(seed);
        if let Err(e) = check_engines_agree(m, g, a, b) {
            panic!("seed {seed}: {e}");
        }
    }
}

#[test]
fn normalizer_output_is_valid_anf() {
    for seed in 0..CASES {
        let (m, g, _, _) = gen_case(seed);
        if let Err(e) = check_normalizer(m, g) {
            panic!("seed {seed}: {e}");
        }
    }
}

#[test]
fn all_dynamic_specialization_preserves_semantics() {
    for seed in 0..CASES {
        let (m, g, a, b) = gen_case(seed);
        if let Err(e) = check_all_dynamic_pe(m, g, a / 3, b / 3) {
            panic!("seed {seed}: {e}");
        }
    }
}

#[test]
fn static_divisions_preserve_semantics_on_every_generic_route() {
    for seed in 0..CASES {
        let (m, g, a, b) = gen_case(seed);
        if let Err(e) = check_static_divisions(m, g, a / 3, b / 3) {
            panic!("seed {seed}: {e}");
        }
    }
}

#[test]
fn pretty_printer_roundtrip() {
    for seed in 0..200 {
        let d = gen_datum(&mut Rng::new(seed), 4);
        let text = two4one::printer::pretty(&d, 30);
        let back = two4one::reader::read_one(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse pretty `{text}`: {e}"));
        assert_eq!(back, d, "seed {seed}");
    }
}
