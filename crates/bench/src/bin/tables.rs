//! Prints the paper's Figures 6–8 as tables with measured numbers next to
//! the published 1997 values (Pentium/90 seconds). Absolute values are not
//! comparable across 30 years of hardware; the *shape* — who wins, by what
//! rough factor — is what reproduces.
//!
//! ```text
//! cargo run --release -p two4one-bench --bin tables
//! ```

use std::time::Duration;
use two4one::{compile_source_text, with_stack, Division};
use two4one_bench::{paper, subjects, time_min, Subject};

const REPS: u32 = 12;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    println!("# two4one — paper table reproduction\n");
    println!("(times in milliseconds, best of {REPS} runs, this machine;");
    println!(" paper times in seconds on a Pentium/90 — compare *ratios*, not values)\n");
    fig6();
    fig7();
    fig8();
    trajectories();
    metrics_snapshot();
}

/// Dumps the process-global metrics page after all the measurements
/// above: every parse/BTA/specialize/compile the tables ran shows up in
/// the phase histograms and specializer counters — the first-class
/// replacement for the hand-rolled phase split this binary used to be
/// the only source of.
fn metrics_snapshot() {
    println!("## Metrics snapshot (process-global registry)\n");
    println!("```text");
    let snap = two4one::obs::global().snapshot();
    for line in snap.to_prometheus().lines() {
        // The full histogram bucket dump is exposition-scraper food;
        // keep the human page to counts, sums, and counters.
        if !line.contains("_bucket{") {
            println!("{line}");
        }
    }
    println!("```");
}

fn measure_source(s: &Subject) -> Duration {
    let g = s.genext();
    let st = vec![s.program.clone()];
    time_min(REPS, move || {
        std::hint::black_box(g.specialize_source(&st).expect("source").size());
    })
}

fn measure_object(s: &Subject) -> Duration {
    let g = s.genext();
    let st = vec![s.program.clone()];
    time_min(REPS, move || {
        std::hint::black_box(g.specialize_object(&st).expect("object").code_size());
    })
}

fn fig6() {
    println!("## Figure 6 — Generation speed\n");
    println!("| subject | source gen (ms) | object gen (ms) | ratio | paper src (s) | paper obj (s) | paper ratio |");
    println!("|---|---|---|---|---|---|---|");
    for (s, (pname, psrc, pobj)) in subjects().iter().zip(paper::FIG6) {
        assert_eq!(s.name, *pname);
        let src = measure_source(s);
        let obj = measure_object(s);
        println!(
            "| {} | {:.3} | {:.3} | {:.2}× | {:.3} | {:.3} | {:.2}× |",
            s.name,
            ms(src),
            ms(obj),
            obj.as_secs_f64() / src.as_secs_f64(),
            psrc,
            pobj,
            pobj / psrc,
        );
    }
    println!("\nPaper's claim: object generation ≤ ~2× source generation.\n");
}

fn fig7() {
    println!("## Figure 7 — Compilation times for the specialization output\n");
    println!("| subject | load residual source (ms) | object-gen marginal cost (ms) | staged total (ms) | fused total (ms) |");
    println!("|---|---|---|---|---|");
    for s in subjects() {
        let text: String = {
            let g = s.genext();
            let st = vec![s.program.clone()];
            with_stack(move || g.specialize_source(&st).expect("src").to_source())
        };
        let entry: &'static str = s.entry;
        let t2 = text.clone();
        let load = time_min(REPS, move || {
            std::hint::black_box(compile_source_text(&t2, entry).expect("load").code_size());
        });
        let src = measure_source(&s);
        let obj = measure_object(&s);
        let marginal = obj.saturating_sub(src);
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} |",
            s.name,
            ms(load),
            ms(marginal),
            ms(src + load),
            ms(obj),
        );
    }
    println!("\nPaper's claim: loading residual source back is far more expensive");
    println!("than what direct object generation adds over source generation;");
    println!("the fused total beats source-generation + compile.\n");
}

fn fig8() {
    println!("## Figure 8 — Using RTCG for normal compilation (all inputs dynamic)\n");
    println!("| subject | BTA (ms) | Generate (ms) | Compile stock (ms) | paper BTA (s) | paper Load (s) | paper Gen (s) | paper Compile (s) |");
    println!("|---|---|---|---|---|---|---|---|");
    for (s, (pname, pbta, pload, pgen, pcomp)) in subjects().iter().zip(paper::FIG8) {
        assert_eq!(s.name, *pname);
        let pgg = s.pgg();
        let parsed = s.parsed();
        let entry: &'static str = s.entry;
        let src: &'static str = s.interp_src;

        let (p2, pg2) = (parsed.clone(), pgg.clone());
        let bta = time_min(REPS, move || {
            std::hint::black_box(
                pg2.cogen(&p2, entry, &Division::all_dynamic(2))
                    .expect("cogen")
                    .annotated()
                    .map_or(0, |a| a.defs.len()),
            );
        });
        let g = s.genext_all_dynamic();
        let generate = time_min(REPS, move || {
            std::hint::black_box(g.specialize_object(&[]).expect("gen").code_size());
        });
        let compile = time_min(REPS, move || {
            std::hint::black_box(compile_source_text(src, entry).expect("stock").code_size());
        });
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |",
            s.name,
            ms(bta),
            ms(generate),
            ms(compile),
            pbta,
            pload,
            pgen,
            pcomp,
        );
    }
    println!("\nPaper's shape: BTA (one-off) dominates; per-program Generate is the");
    println!("same order as stock Compile. The paper's Load column (compiling the");
    println!("object-code generator itself) has no analogue here: our generating");
    println!("extensions are in-memory closures and need no loading — see EXPERIMENTS.md.\n");
}

/// One row of a committed trajectory file.
struct TrajRow {
    id: String,
    median_ns: u64,
    min_ns: u64,
}

/// Parses the flat JSON the bench harness writes (one result object per
/// line) without a JSON dependency. Lines that don't look like a result
/// row are skipped, so a hand-edited file degrades to fewer rows, not a
/// crash.
fn parse_trajectory(text: &str) -> Vec<TrajRow> {
    fn field(line: &str, key: &str) -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        let digits: String = rest
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    }
    text.lines()
        .filter_map(|line| {
            let rest = &line[line.find("\"id\": \"")? + 7..];
            let id = rest[..rest.find('"')?].to_string();
            Some(TrajRow {
                id,
                median_ns: field(line, "\"median_ns\":")?,
                min_ns: field(line, "\"min_ns\":")?,
            })
        })
        .collect()
}

/// Prints the committed benchmark trajectory files side by side: the
/// cold-path phase split (`BENCH_spec.json`) and the serving throughput
/// (`BENCH_serve.json`). Regenerate them with
/// `cargo bench -p two4one-bench --bench spec` / `--bench serve`.
fn trajectories() {
    println!("## Benchmark trajectories (committed BENCH_*.json)\n");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (file, title, note) in [
        (
            "BENCH_spec.json",
            "cold-path phase split (MIXWELL)",
            "`specialize` is the phase to watch (see DESIGN.md §10); \
             `cold-genext` is the same request served by the *compiled* \
             generating extension, with `genext-build` its one-time \
             staging cost — the CI floor holds `cold-genext` at ≥ 2x \
             `specialize` (see DESIGN.md §13).",
        ),
        (
            "BENCH_serve.json",
            "serving throughput (24-request batches)",
            "`cold/1-thread` is the cold-path acceptance row; \
             `cold-genext/1-thread` drains the same batch as misses on a \
             *registered* program, served by its compiled gen-ext; \
             `tier0-first-touch` and `post-promotion` bracket the tiered \
             pipeline (see DESIGN.md §15).",
        ),
        (
            "BENCH_match.json",
            "grammar matching (adversarial ~2 KiB inputs)",
            "three rows per grammar: `interp/*` walks (grammar, input) \
             directly, `generic/*` is the generically compiled matcher \
             (tier-0 serving), `spec/*` is the residual recognizer — the \
             CI floor holds `spec` at ≥ 5x faster than `interp` on every \
             adversarial input (see DESIGN.md §16).",
        ),
    ] {
        let path = format!("{root}/{file}");
        let rows = match std::fs::read_to_string(&path) {
            Ok(text) => parse_trajectory(&text),
            Err(e) => {
                println!("### {title}\n\n({file} unreadable: {e} — run the bench to create it)\n");
                continue;
            }
        };
        println!("### {title} — {file}\n");
        println!("| id | median (ms) | min (ms) |");
        println!("|---|---|---|");
        for r in &rows {
            println!(
                "| {} | {:.3} | {:.3} |",
                r.id,
                r.median_ns as f64 / 1e6,
                r.min_ns as f64 / 1e6,
            );
        }
        // The tiered-serving trajectory in per-request terms: what a
        // first touch costs under Tier-0, where background promotion
        // lands steady-state traffic, and the eager-specialized bound
        // (serve batches are 24 requests; see benches/serve.rs).
        if file == "BENCH_serve.json" {
            let per_req = |id: &str| {
                rows.iter()
                    .find(|r| r.id == id)
                    .map(|r| r.median_ns as f64 / 24.0 / 1e3)
            };
            if let (Some(cold), Some(first), Some(post), Some(warm)) = (
                per_req("cold/1-thread"),
                per_req("tier0-first-touch/1-thread"),
                per_req("post-promotion/4-thread"),
                per_req("warm/4-thread"),
            ) {
                println!(
                    "\nTier trajectory (per request): first touch {first:.1} µs \
                     ({:.0}× under blocking cold at {cold:.1} µs) → \
                     post-promotion {post:.1} µs (eager-specialized warm: \
                     {warm:.1} µs).\n",
                    cold / first
                );
            }
        }
        // The recognizer payoff per grammar: interpreted over specialized
        // median, the factor the CI floor guards at 5x.
        if file == "BENCH_match.json" {
            let median = |id: &str| rows.iter().find(|r| r.id == id).map(|r| r.median_ns as f64);
            let speedups: Vec<String> = rows
                .iter()
                .filter_map(|r| r.id.strip_prefix("interp/"))
                .filter_map(|g| {
                    let interp = median(&format!("interp/{g}"))?;
                    let spec = median(&format!("spec/{g}"))?;
                    Some(format!("{g} {:.1}×", interp / spec))
                })
                .collect();
            if !speedups.is_empty() {
                println!("\nSpecialized-over-interpreted: {}.\n", speedups.join(", "));
            }
        }
        println!("\n{note}\n");
    }
}
