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

use two4one::{compile, with_stack_size, Datum, Image, Interp, Machine, Symbol};
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

/// Engine agreement on random programs.
fn check_engines_agree(m: Sketch, g: Sketch, a: i64, b: i64) -> Result<(), String> {
    with_stack_size(2 * 1024 * 1024 * 1024, move || {
        let p = program_from_sketch(&m, &g);
        let args = [Datum::Int(a), Datum::Int(b)];
        let expect = run_interp(&p, &args);
        let image = compile(&p, "main").map_err(|e| format!("compile: {e}"))?;
        let got = run_vm(&image, &args);
        agree("interp-vs-vm", &expect, &got)
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
fn reader_printer_roundtrip() {
    for seed in 0..200 {
        let d = gen_datum(&mut Rng::new(seed), 4);
        let text = d.to_string();
        let back = two4one::reader::read_one(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse `{text}`: {e}"));
        assert_eq!(back, d, "seed {seed}");
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
