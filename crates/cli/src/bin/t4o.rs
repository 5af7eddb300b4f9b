//! `t4o` — command-line driver for the two4one system.
//!
//! ```text
//! t4o compile <file.scm> --entry <name> [-o out.t4o]
//! t4o run <file.scm|file.t4o> --entry <name> [--arg <datum>]...
//!         [--fuel <steps>] [--timeout-ms <ms>]
//! t4o spec <file.scm> --entry <name> --division SDSD
//!          [--static <datum>]... [-o out.t4o | --source] [--optimize]
//!          [--unfold-fuel <n>] [--timeout-ms <ms>] [--strict]
//!          [--jobs <n>] [--batch '(<datum>...)']... [--genext-file <f.t4og>]
//! t4o spec <file.g> --grammar [--source | -o out.t4o] [--optimize]
//! t4o serve <file.scm> --entry <name> --division SDSD [--name <logical>]
//!           [--listen <addr:port>] [--tenants-file <f>]
//!           [--drain-timeout-ms <ms>] [--cache-file <f.t4os>]
//!           [--genext-cache <f.t4og>] [--max-inflight <n>] [--deadline-ms <ms>]
//! t4o stats [<file.scm> --entry <name> --division SDSD ...] [--json] [-o out]
//! t4o dis <file.scm|file.t4o> --entry <name>
//! ```
//!
//! Data arguments are written as Scheme literals, e.g. `--arg '(1 2 3)'`.
//!
//! Resource governance: `--fuel` meters execution steps, `--timeout-ms`
//! bounds wall-clock time (specialization and runs), `--unfold-fuel`
//! bounds specialization effort. By default a starved specialization
//! degrades to generic code (and says so); `--strict` makes it fail with
//! the limit error instead.
//!
//! Batch serving: `--jobs N` routes `spec` through the concurrent
//! [`SpecService`], which caches residual code and deduplicates repeated
//! requests. Each `--batch '(<datum>...)'` is one request's static
//! argument list; without `--batch`, the `--static` arguments form the
//! single request. With `-o out`, batch results are written to
//! `out.0.t4o`, `out.1.t4o`, ....
//!
//! Serving robustness: `--deadline-ms` bounds each request end to end
//! (queueing included), `--max-inflight` caps concurrent specializations
//! (the batch must fit the admission queue behind it), and
//! `--cache-file <f.t4os>` warm-starts the service from a crash-safe
//! snapshot and re-snapshots it after serving.
//!
//! Live redefinition: `--name <logical>` registers the program in the
//! service's versioned registry (requests resolve by name, cache entries
//! carry `(name, epoch)` backedges, and snapshot records from an older
//! generation are dropped as stale on restore); `--redefine <file2.scm>`
//! swaps in new source mid-run — the old generation's cached
//! specializations are invalidated and the batch is served again from
//! the new one.
//!
//! Compiled gen-exts: every specialization stages the generating
//! extension to bytecode (the second Futamura projection, compiled) and
//! runs it on the gen-ext machine. `--genext-file <f.t4og>` loads the
//! staged gen-ext from the file when it exists (warm start, skipping
//! front-end + BTA + staging) and writes it there after staging
//! otherwise. In serve mode the service stages each registered
//! generation once by itself; `--genext-cache <f.t4og>` persists those
//! staged programs across runs, mirroring `--cache-file` for residuals.
//!
//! Tiered serving: `--tier0` answers a cold miss with the
//! generically-compiled image immediately (tens of microseconds) instead
//! of blocking the request on the full specializer, then promotes hot
//! entries to specialized code in the background and hot-swaps them into
//! the cache. `--promote-after <n>` sets the hit threshold (default 2;
//! 0 promotes immediately), `--promote-workers <n>` sizes the
//! background worker pool (default 1).
//!
//! Grammar matching: `--grammar` switches the input file from Scheme to
//! the grammar language of `two4one_langs::grammar` — one rule list,
//! LL(1)-checked at parse time. The grammar becomes a quoted constant in
//! the matcher-interpreter workload, so `t4o spec g.g --grammar --source`
//! prints the compiled recognizer (one residual function per
//! nonterminal) and `t4o serve g.g --grammar` serves it by name (default:
//! the start rule) — clients can also register grammars live over the
//! wire with a `REQ_GRAMMAR` frame.
//!
//! Network serving: `t4o serve` keeps the process alive behind the
//! fault-hardened socket front end (HTTP/1.1 plus the binary wire
//! protocol) until SIGTERM, then drains gracefully — in-flight requests
//! finish, caches are snapshotted, and the final counters are printed.
//!
//! Observability: `t4o stats` prints the metrics exposition page
//! (Prometheus text, or JSON with `--json`), optionally after serving a
//! workload; `t4o spec --metrics-file <f>` dumps the same page after a
//! spec run, and `--stats-json <f>` writes the final serve counters as
//! JSON in serve mode.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use two4one::obs;
use two4one::{
    compile, load_image, reader, run_image_with, save_image, with_stack, Datum, Division, Image,
    Limits, Pgg, BT,
};
use two4one_langs::grammar;
use two4one_net::{net_stats_line, tenants::TenantTable, NetConfig, NetServer};
use two4one_server::{serve_stats_line, RestoreReport, ServeConfig, SpecRequest, SpecService};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    with_stack(move || match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("t4o: {msg}");
            ExitCode::FAILURE
        }
    })
}

struct Opts {
    positional: Vec<String>,
    entry: Option<String>,
    output: Option<String>,
    division: Option<String>,
    statics: Vec<String>,
    args: Vec<String>,
    source: bool,
    optimize: bool,
    fuel: Option<u64>,
    timeout_ms: Option<u64>,
    unfold_fuel: Option<u64>,
    strict: bool,
    jobs: Option<usize>,
    batches: Vec<String>,
    name: Option<String>,
    grammar: bool,
    redefine: Option<String>,
    cache_file: Option<String>,
    genext_file: Option<String>,
    genext_cache: Option<String>,
    deadline_ms: Option<u64>,
    max_inflight: Option<usize>,
    tier0: bool,
    promote_after: Option<u64>,
    promote_workers: Option<usize>,
    metrics_file: Option<String>,
    stats_json: Option<String>,
    json: bool,
    listen: Option<String>,
    tenants_file: Option<String>,
    drain_timeout_ms: Option<u64>,
}

impl Opts {
    /// Limits for *running* a program: step fuel and deadline.
    fn run_limits(&self) -> Limits {
        let mut l = Limits::none();
        if let Some(fuel) = self.fuel {
            l = l.with_step_fuel(fuel);
        }
        if let Some(ms) = self.timeout_ms {
            l = l.with_timeout(Duration::from_millis(ms));
        }
        l
    }

    /// Limits for *specializing*: the governed defaults plus overrides.
    fn spec_limits(&self) -> Limits {
        let mut l = Limits::default();
        if let Some(fuel) = self.unfold_fuel {
            l = l.with_unfold_fuel(fuel);
        }
        if let Some(ms) = self.timeout_ms {
            l = l.with_timeout(Duration::from_millis(ms));
        }
        l
    }
}

fn parse_u64(name: &str, text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("`{name}` needs a non-negative integer, got `{text}`"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        entry: None,
        output: None,
        division: None,
        statics: Vec::new(),
        args: Vec::new(),
        source: false,
        optimize: false,
        fuel: None,
        timeout_ms: None,
        unfold_fuel: None,
        strict: false,
        jobs: None,
        batches: Vec::new(),
        name: None,
        grammar: false,
        redefine: None,
        cache_file: None,
        genext_file: None,
        genext_cache: None,
        deadline_ms: None,
        max_inflight: None,
        tier0: false,
        promote_after: None,
        promote_workers: None,
        metrics_file: None,
        stats_json: None,
        json: false,
        listen: None,
        tenants_file: None,
        drain_timeout_ms: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match a.as_str() {
            "--entry" | "-e" => o.entry = Some(take("--entry")?),
            "-o" | "--output" => o.output = Some(take("--output")?),
            "--division" | "-d" => o.division = Some(take("--division")?),
            "--static" | "-s" => o.statics.push(take("--static")?),
            "--arg" | "-a" => o.args.push(take("--arg")?),
            "--source" => o.source = true,
            "--optimize" => o.optimize = true,
            "--fuel" => o.fuel = Some(parse_u64("--fuel", &take("--fuel")?)?),
            "--timeout-ms" => {
                o.timeout_ms = Some(parse_u64("--timeout-ms", &take("--timeout-ms")?)?)
            }
            "--unfold-fuel" => {
                o.unfold_fuel = Some(parse_u64("--unfold-fuel", &take("--unfold-fuel")?)?)
            }
            "--strict" => o.strict = true,
            "--jobs" | "-j" => {
                let n = parse_u64("--jobs", &take("--jobs")?)?;
                if n == 0 {
                    return Err("`--jobs` needs at least 1".to_string());
                }
                o.jobs = Some(n as usize);
            }
            "--batch" | "-b" => o.batches.push(take("--batch")?),
            "--name" | "-n" => o.name = Some(take("--name")?),
            "--grammar" | "-g" => o.grammar = true,
            "--redefine" => o.redefine = Some(take("--redefine")?),
            "--cache-file" => o.cache_file = Some(take("--cache-file")?),
            "--genext-file" => o.genext_file = Some(take("--genext-file")?),
            "--genext-cache" => o.genext_cache = Some(take("--genext-cache")?),
            "--metrics-file" => o.metrics_file = Some(take("--metrics-file")?),
            "--stats-json" => o.stats_json = Some(take("--stats-json")?),
            "--json" => o.json = true,
            "--deadline-ms" => {
                o.deadline_ms = Some(parse_u64("--deadline-ms", &take("--deadline-ms")?)?)
            }
            "--listen" | "-l" => o.listen = Some(take("--listen")?),
            "--tenants-file" => o.tenants_file = Some(take("--tenants-file")?),
            "--drain-timeout-ms" => {
                o.drain_timeout_ms = Some(parse_u64(
                    "--drain-timeout-ms",
                    &take("--drain-timeout-ms")?,
                )?)
            }
            "--max-inflight" => {
                let n = parse_u64("--max-inflight", &take("--max-inflight")?)?;
                if n == 0 {
                    return Err("`--max-inflight` needs at least 1".to_string());
                }
                o.max_inflight = Some(n as usize);
            }
            "--tier0" => o.tier0 = true,
            "--promote-after" => {
                o.promote_after = Some(parse_u64("--promote-after", &take("--promote-after")?)?)
            }
            "--promote-workers" => {
                let n = parse_u64("--promote-workers", &take("--promote-workers")?)?;
                if n == 0 {
                    return Err("`--promote-workers` needs at least 1".to_string());
                }
                o.promote_workers = Some(n as usize);
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let opts = parse_opts(rest)?;
    match cmd.as_str() {
        "compile" => cmd_compile(&opts),
        "run" => cmd_run(&opts),
        "spec" => cmd_spec(&opts),
        "serve" => cmd_serve(&opts),
        "stats" => cmd_stats(&opts),
        "dis" => cmd_dis(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     t4o compile <file.scm> --entry <name> [-o out.t4o]\n  \
     t4o run <file.scm|file.t4o> --entry <name> [--arg <datum>]... \
     [--fuel <steps>] [--timeout-ms <ms>]\n  \
     t4o spec <file.scm> --entry <name> --division <S|D letters> \
     [--static <datum>]... [-o out.t4o | --source] [--optimize] \
     [--unfold-fuel <n>] [--timeout-ms <ms>] [--strict] \
     [--jobs <n>] [--batch '(<datum>...)']... \
     [--name <logical> [--redefine <file2.scm>]] \
     [--genext-file <f.t4og>] \
     [--cache-file <f.t4os>] [--genext-cache <f.t4og>] \
     [--deadline-ms <ms>] [--max-inflight <n>] \
     [--tier0 [--promote-after <n>] [--promote-workers <n>]] \
     [--metrics-file <f.prom>] [--stats-json <f.json>]\n  \
     t4o spec <file.g> --grammar [--source | -o out.t4o] [--optimize]\n  \
     t4o serve <file.scm|file.g --grammar> --entry <name> --division <S|D letters> \
     [--name <logical>] [--listen <addr:port>] [--tenants-file <f>] \
     [--drain-timeout-ms <ms>] [--cache-file <f.t4os>] \
     [--genext-cache <f.t4og>] [--max-inflight <n>] [--deadline-ms <ms>] \
     [--tier0 [--promote-after <n>] [--promote-workers <n>]]\n  \
     t4o stats [<file.scm> --entry <name> --division <S|D letters> \
     [--static <datum>]... [--batch '(<datum>...)']... [--jobs <n>] \
     [--name <logical>] [--cache-file <f.t4os>] [--genext-cache <f.t4og>]] \
     [--json] [-o <file>]\n  \
     t4o dis <file.scm|file.t4o> --entry <name>"
        .to_string()
}

fn need_file(o: &Opts) -> Result<&str, String> {
    o.positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| format!("missing input file\n{}", usage()))
}

fn need_entry(o: &Opts) -> Result<&str, String> {
    o.entry
        .as_deref()
        .ok_or_else(|| "missing --entry".to_string())
}

fn read_data(texts: &[String]) -> Result<Vec<Datum>, String> {
    texts
        .iter()
        .map(|t| reader::read_one(t).map_err(|e| e.to_string()))
        .collect()
}

/// Loads an image either from a `.t4o` object file or by compiling source.
fn load_or_compile(path: &str, entry: &str) -> Result<Image, String> {
    if path.ends_with(".t4o") {
        return load_image(path).map_err(|e| e.to_string());
    }
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = Pgg::new().parse(&src).map_err(|e| e.to_string())?;
    compile(&program, entry).map_err(|e| e.to_string())
}

fn cmd_compile(o: &Opts) -> Result<(), String> {
    let file = need_file(o)?;
    let entry = need_entry(o)?;
    let image = load_or_compile(file, entry)?;
    let out = o
        .output
        .clone()
        .unwrap_or_else(|| format!("{}.t4o", file.trim_end_matches(".scm")));
    save_image(&image, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {out} ({} templates, {} instructions)",
        image.templates.len(),
        image.code_size()
    );
    Ok(())
}

fn cmd_run(o: &Opts) -> Result<(), String> {
    let file = need_file(o)?;
    let entry = need_entry(o)?;
    let image = load_or_compile(file, entry)?;
    let args = read_data(&o.args)?;
    let out = run_image_with(&image, entry, &args, &o.run_limits()).map_err(|e| e.to_string())?;
    print!("{}", out.output);
    println!("{}", out.value);
    Ok(())
}

/// Parses a division string like `SD` or `DSS` into binding times.
fn parse_division(text: &str) -> Result<Vec<BT>, String> {
    let mut division = Vec::new();
    for c in text.chars() {
        match c.to_ascii_uppercase() {
            'S' => division.push(BT::Static),
            'D' => division.push(BT::Dynamic),
            other => return Err(format!("bad division letter `{other}` (use S/D)")),
        }
    }
    Ok(division)
}

/// Front-end + BTA for `spec`/`stats`: reads the file, parses, and runs
/// cogen under the requested division, yielding the generating extension.
fn build_genext(o: &Opts) -> Result<two4one::GenExt, String> {
    build_genext_from(o, need_file(o)?)
}

/// Same pipeline against an explicit source path — `--redefine <file>`
/// reuses the entry point and division of the original registration.
fn build_genext_from(o: &Opts, file: &str) -> Result<two4one::GenExt, String> {
    if o.grammar {
        return build_grammar_genext(o, file);
    }
    let entry = need_entry(o)?;
    let division_text = o
        .division
        .as_deref()
        .ok_or_else(|| "missing --division (e.g. `SD` or `DSS`)".to_string())?;
    let division = parse_division(division_text)?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let pgg = Pgg::new().limits(o.spec_limits()).fallback(!o.strict);
    let program = pgg.parse(&src).map_err(|e| e.to_string())?;
    pgg.cogen(&program, entry, &Division::new(division))
        .map_err(|e| e.to_string())
}

/// The `--grammar` pipeline: the positional file is grammar text, not
/// Scheme. The grammar is parsed and LL(1)-checked, embedded as a quoted
/// constant in the matcher-interpreter workload, and cogen'd under the
/// fixed all-dynamic division (the input word is the one argument) with
/// the matcher's unfold/memoize policies — so the resulting gen-ext
/// specializes to a compiled recognizer. `--entry` and `--division` are
/// owned by the workload and must not be given.
fn build_grammar_genext(o: &Opts, file: &str) -> Result<two4one::GenExt, String> {
    if o.entry.is_some() || o.division.is_some() {
        return Err("`--grammar` fixes the entry (gm-main) and division (D); \
                    drop --entry/--division"
            .to_string());
    }
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let g = grammar::parse(&text).map_err(|e| format!("{file}: bad grammar: {e}"))?;
    let pgg = grammar::grammar_policies().iter().fold(
        Pgg::new().limits(o.spec_limits()).fallback(!o.strict),
        |p, (name, pol)| p.policy(name, *pol),
    );
    let program = pgg
        .parse(&grammar::workload_source(&g))
        .map_err(|e| e.to_string())?;
    pgg.cogen(
        &program,
        grammar::WORKLOAD_ENTRY,
        &Division::new(vec![BT::Dynamic]),
    )
    .map_err(|e| e.to_string())
}

/// The registry name a `--grammar` workload serves under when `--name`
/// is not given: the grammar's start rule.
fn grammar_default_name(o: &Opts) -> Result<String, String> {
    let file = need_file(o)?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let g = grammar::parse(&text).map_err(|e| format!("{file}: bad grammar: {e}"))?;
    Ok(g.start().to_string())
}

/// The single-shot generating extension. With `--genext-file` pointing
/// at an existing `.t4og`, the staged gen-ext is loaded and the Scheme
/// front end never runs — a cross-process warm start, so the positional
/// source file, `--entry`, and `--division` are all optional. Otherwise
/// the gen-ext is built the usual way and, with `--genext-file`, staged
/// now and written there for the next process.
fn obtain_genext(o: &Opts) -> Result<two4one::GenExt, String> {
    if let Some(path) = &o.genext_file {
        if std::path::Path::new(path).exists() {
            let options = two4one::SpecOptions {
                limits: o.spec_limits(),
                fallback: !o.strict,
            };
            let genext = two4one::load_genext(path, options).map_err(|e| format!("{path}: {e}"))?;
            let staged = genext.staged().map_err(|e| e.to_string())?;
            println!(
                ";; genext: loaded from {path} ({} defs, {} ops)",
                staged.defs.len(),
                staged.code.len()
            );
            return Ok(genext);
        }
    }
    let genext = build_genext(o)?;
    if let Some(path) = &o.genext_file {
        let staged = genext.staged().map_err(|e| e.to_string())?;
        let bytes = genext.to_bytes().map_err(|e| e.to_string())?;
        println!(
            ";; genext: compiled ({} defs, {} ops, {} bytes)",
            staged.defs.len(),
            staged.code.len(),
            bytes.len()
        );
        two4one::save_genext(&genext, path).map_err(|e| format!("{path}: {e}"))?;
        println!(";; genext: written to {path}");
    }
    Ok(genext)
}

/// Writes the Prometheus rendering of `snap` to `path`.
fn write_metrics_file(path: &str, snap: &obs::MetricsSnapshot) -> Result<(), String> {
    std::fs::write(path, snap.to_prometheus()).map_err(|e| format!("{path}: {e}"))?;
    println!(";; metrics: written to {path}");
    Ok(())
}

fn cmd_spec(o: &Opts) -> Result<(), String> {
    if o.redefine.is_some() && o.name.is_none() {
        return Err("`--redefine` needs `--name <logical>` (the program to redefine)".to_string());
    }
    if o.jobs.is_some() || !o.batches.is_empty() || o.name.is_some() {
        if o.genext_file.is_some() {
            return Err("`--genext-file` is a single-shot flag; serve mode stages \
                        gen-exts by itself (persist them across runs with \
                        `--genext-cache <f.t4og>`)"
                .to_string());
        }
        return cmd_spec_serve(o, build_genext(o)?);
    }
    if o.genext_cache.is_some() {
        return Err(
            "`--genext-cache` needs serve mode (`--jobs`/`--batch`/`--name`); \
                    single-shot warm starts use `--genext-file`"
                .to_string(),
        );
    }
    if o.stats_json.is_some() {
        return Err("`--stats-json` needs serve mode (`--jobs`/`--batch`); \
                    single-shot spec has no serve counters"
            .to_string());
    }
    // Register every pipeline-level family up front, so the metrics file
    // is complete (zero-valued included) even for a trivial request.
    if o.metrics_file.is_some() {
        two4one::init_metrics();
        two4one_net::init_metrics();
    }
    let genext = obtain_genext(o)?;
    let statics = read_data(&o.statics)?;
    let mut degraded = false;
    if o.source || o.output.is_none() {
        let (residual, stats) = genext
            .specialize_source_with_stats(&statics)
            .map_err(|e| e.to_string())?;
        degraded |= stats.degraded();
        let residual = if o.optimize {
            two4one::anf::optimize(&residual)
        } else {
            residual
        };
        println!("{}", residual.to_source());
    }
    if let Some(out) = &o.output {
        let (image, stats) = genext
            .specialize_object_with_stats(&statics)
            .map_err(|e| e.to_string())?;
        degraded |= stats.degraded();
        save_image(&image, out).map_err(|e| e.to_string())?;
        println!(
            ";; wrote {out} ({} templates, {} instructions)",
            image.templates.len(),
            image.code_size()
        );
    }
    if degraded {
        eprintln!(
            "t4o: note: specialization hit a resource limit and emitted \
             generic fallback code (raise --unfold-fuel/--timeout-ms, or \
             pass --strict to fail instead)"
        );
    }
    if let Some(path) = &o.metrics_file {
        write_metrics_file(path, &obs::global().snapshot())?;
    }
    Ok(())
}

/// Converts a read `(a b c)` literal into its element data.
fn datum_list(d: &Datum) -> Result<Vec<Datum>, String> {
    let mut items = Vec::new();
    let mut cur = d;
    loop {
        match cur {
            Datum::Nil => return Ok(items),
            Datum::Pair(p) => {
                items.push(p.car.clone());
                cur = &p.cdr;
            }
            other => return Err(format!("`--batch` needs a proper list, got `{other}`")),
        }
    }
}

/// One request per `--batch '(<datum>...)'`, or a single one from the
/// `--static` list when no batches were given: for the program
/// registered under `--name` when one is, else for `genext` itself.
fn build_requests(o: &Opts, genext: &two4one::GenExt) -> Result<Vec<SpecRequest>, String> {
    let batches = if o.batches.is_empty() {
        vec![read_data(&o.statics)?]
    } else {
        o.batches
            .iter()
            .map(|text| datum_list(&reader::read_one(text).map_err(|e| e.to_string())?))
            .collect::<Result<_, _>>()?
    };
    Ok(batches
        .into_iter()
        .map(|statics| match &o.name {
            Some(name) => SpecRequest::named(name, statics),
            None => SpecRequest::new(genext.clone(), statics),
        })
        .collect())
}

/// Restores `--cache-file` and `--genext-cache` when they exist — after
/// registration, since snapshot records are judged against the live
/// registry — and reports each restore on stdout, or on stderr when
/// stdout carries something else.
fn restore_snapshots(o: &Opts, service: &SpecService, to_stderr: bool) -> Result<(), String> {
    type Restore = fn(&SpecService, &str) -> std::io::Result<RestoreReport>;
    let snapshots: [(&Option<String>, &str, &str, Restore); 2] = [
        (&o.cache_file, "cache", "entries", |s, p| s.restore(p)),
        (&o.genext_cache, "genext-cache", "gen-ext(s)", |s, p| {
            s.restore_genexts(p)
        }),
    ];
    for (file, label, what, restore) in snapshots {
        let Some(path) = file.as_ref().filter(|p| std::path::Path::new(p).exists()) else {
            continue;
        };
        let report = restore(service, path).map_err(|e| format!("{path}: {e}"))?;
        let line = format!(
            ";; {label}: restored {} {what} from {path} \
             ({} quarantined, {} stale dropped)",
            report.restored, report.quarantined, report.stale_dropped
        );
        if to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    Ok(())
}

/// Snapshots the caches to `--cache-file` and `--genext-cache`.
fn save_snapshots(o: &Opts, service: &SpecService) -> Result<(), String> {
    if let Some(path) = &o.cache_file {
        service.snapshot(path).map_err(|e| format!("{path}: {e}"))?;
        println!(";; cache: snapshot written to {path}");
    }
    if let Some(path) = &o.genext_cache {
        service
            .snapshot_genexts(path)
            .map_err(|e| format!("{path}: {e}"))?;
        println!(";; genext-cache: snapshot written to {path}");
    }
    Ok(())
}

/// A service configured from the CLI's serving flags.
fn build_service(o: &Opts) -> SpecService {
    let mut config = ServeConfig::default();
    if let Some(n) = o.max_inflight {
        config.max_inflight = n;
    }
    if let Some(ms) = o.deadline_ms {
        config.default_deadline = Some(Duration::from_millis(ms));
    }
    config.tier0 = o.tier0;
    if let Some(n) = o.promote_after {
        config.promote_after = n;
    }
    if let Some(n) = o.promote_workers {
        config.promote_workers = n;
    }
    SpecService::with_config(config)
}

/// Prints (and with `-o`, writes) one serve pass's results; returns
/// whether any specialization degraded and how many requests failed.
fn report_results(
    o: &Opts,
    results: &[two4one_server::ServeResult],
    requests: &[SpecRequest],
) -> Result<(bool, usize), String> {
    let mut degraded = false;
    let mut failures = 0usize;
    for (i, (result, req)) in results.iter().zip(requests).enumerate() {
        let rendered = req.statics.to_string();
        match result {
            Ok(outcome) => {
                degraded |= outcome.stats.degraded();
                if let Some(prefix) = &o.output {
                    let path = if results.len() == 1 {
                        prefix.clone()
                    } else {
                        format!("{}.{i}.t4o", prefix.trim_end_matches(".t4o"))
                    };
                    save_image(&outcome.image, &path).map_err(|e| e.to_string())?;
                    println!(
                        ";; [{i}] ({rendered}) -> {path} ({} templates, {} instructions)",
                        outcome.image.templates.len(),
                        outcome.code_size()
                    );
                } else {
                    println!(
                        ";; [{i}] ({rendered}) {} templates, {} instructions",
                        outcome.image.templates.len(),
                        outcome.code_size()
                    );
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("t4o: request {i} ({rendered}): {e}");
            }
        }
    }
    Ok((degraded, failures))
}

/// The `spec --jobs/--batch/--name` path: a request per batch (or one
/// request from `--static`), served through the concurrent `SpecService`
/// over a bounded worker pool. With `--name` the program is registered
/// in the service's versioned registry and requests resolve through it;
/// `--redefine <file>` then swaps in the new source mid-run, invalidates
/// every cached specialization of the old generation, and serves the
/// same batch again from the new one (with `-o`, the second pass's
/// object files overwrite the first — the live generation wins).
fn cmd_spec_serve(o: &Opts, genext: two4one::GenExt) -> Result<(), String> {
    if o.source {
        return Err("`--source` cannot be combined with `--jobs`/`--batch` \
                    (the service caches object code)"
            .to_string());
    }
    let jobs = o.jobs.unwrap_or(1);
    let requests = build_requests(o, &genext)?;
    let service = build_service(o);
    if requests.len() > service.admission_capacity() {
        return Err(format!(
            "{} batch requests exceed the admission capacity of {} \
             (raise --max-inflight or split the batch)",
            requests.len(),
            service.admission_capacity()
        ));
    }
    if let Some(name) = &o.name {
        let epoch = service.register(name, &genext);
        println!(";; program: {name} registered (epoch {epoch})");
    }
    restore_snapshots(o, &service, false)?;
    let results = service.specialize_many(&requests, jobs);
    let (mut degraded, mut failures) = report_results(o, &results, &requests)?;

    if let Some(path) = &o.redefine {
        let name = o
            .name
            .as_ref()
            .ok_or_else(|| "`--redefine` needs `--name <logical>`".to_string())?;
        let next = build_genext_from(o, path)?;
        let outcome = service.redefine(name, &next);
        println!(
            ";; program: {name} redefined (epoch {}, {} invalidated)",
            outcome.epoch, outcome.invalidated
        );
        let results = service.specialize_many(&requests, jobs);
        let (d, f) = report_results(o, &results, &requests)?;
        degraded |= d;
        failures += f;
    }
    println!("{}", serve_stats_line(jobs, &service.stats()));
    save_snapshots(o, &service)?;
    if let Some(path) = &o.stats_json {
        std::fs::write(path, service.stats().to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!(";; stats: json written to {path}");
    }
    if let Some(path) = &o.metrics_file {
        write_metrics_file(path, &service.metrics())?;
    }
    if degraded {
        eprintln!(
            "t4o: note: specialization hit a resource limit and emitted \
             generic fallback code (raise --unfold-fuel/--timeout-ms, or \
             pass --strict to fail instead)"
        );
    }
    if failures > 0 {
        Err(format!("{failures} of {} requests failed", requests.len()))
    } else {
        Ok(())
    }
}

/// `t4o serve`: the long-running network front end.
///
/// Builds the generating extension once, registers it in the service's
/// versioned registry under `--name` (defaulting to the entry point),
/// warm-starts the residual and gen-ext caches when `--cache-file` /
/// `--genext-cache` point at existing snapshots, and binds the socket
/// front end on `--listen`. The process then serves both protocols —
/// HTTP/1.1 (`/healthz`, `/metrics`, `/stats`, `POST /spec`) and the
/// length-prefixed binary framing — until SIGTERM, at which point it
/// drains: the listener sheds new connections, in-flight requests finish
/// (bounded by `--drain-timeout-ms`), caches are re-snapshotted, the
/// final serve and net counter lines are printed, and the process exits
/// 0. `--tenants-file` enables per-tenant bearer-token auth with
/// fair-share quotas (one `token name quota` triple per line).
fn cmd_serve(o: &Opts) -> Result<(), String> {
    let genext = build_genext(o)?;
    let name = match &o.name {
        Some(name) => name.clone(),
        None if o.grammar => grammar_default_name(o)?,
        None => need_entry(o)?.to_string(),
    };
    let service = Arc::new(build_service(o));
    let epoch = service.register(&name, &genext);
    println!(";; program: {name} registered (epoch {epoch})");
    restore_snapshots(o, &service, false)?;

    let mut config = NetConfig::default();
    if let Some(listen) = &o.listen {
        config.listen = listen.clone();
    }
    if let Some(ms) = o.deadline_ms {
        config.request_deadline = Duration::from_millis(ms);
    }
    if let Some(ms) = o.drain_timeout_ms {
        config.drain_timeout = Duration::from_millis(ms);
    }
    if let Some(path) = &o.tenants_file {
        let table = TenantTable::load(path).map_err(|e| format!("{path}: {e}"))?;
        println!(";; tenants: {} loaded from {path}", table.len());
        config.tenants = Some(table);
    }
    let server = NetServer::bind(Arc::clone(&service), config).map_err(|e| e.to_string())?;
    two4one_net::install_sigterm_drain();
    // The cross-process tests (and any supervisor) parse this line for
    // the bound address, so it must reach the pipe before the first
    // client connects — flush past stdout's pipe buffering.
    println!(";; net: listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !two4one_net::sigterm_received() {
        std::thread::sleep(Duration::from_millis(25));
    }
    println!(";; net: SIGTERM received, draining");
    let _ = std::io::stdout().flush();
    let net_snap = server.join();
    save_snapshots(o, &service)?;
    println!(
        "{}",
        serve_stats_line(o.jobs.unwrap_or(1), &service.stats())
    );
    println!("{}", net_stats_line(&net_snap));
    Ok(())
}

/// `t4o stats`: the metrics exposition page.
///
/// With no input file, a fresh service is constructed and its (zero-
/// valued, but fully registered) exposition is printed — useful to see
/// every metric family the system exports. With a `.scm` file plus
/// `--entry`/`--division`, the requests (`--static` or `--batch`, under
/// `--jobs`) are served first, so the page shows real traffic. Output is
/// Prometheus text by default, JSON with `--json`; `-o` writes to a file
/// instead of stdout.
fn cmd_stats(o: &Opts) -> Result<(), String> {
    // The exposition page advertises every family the system exports,
    // including the network front end's `t4o_net_*` counters and the
    // VM's per-opcode `t4o_vm_dispatch_total` family (zero-valued when
    // no server ran / no code executed in this process).
    two4one::init_metrics();
    two4one_net::init_metrics();
    let service = build_service(o);
    if !o.positional.is_empty() {
        let genext = build_genext(o)?;
        let jobs = o.jobs.unwrap_or(1);
        let requests = build_requests(o, &genext)?;
        if let Some(name) = &o.name {
            let epoch = service.register(name, &genext);
            eprintln!(";; program: {name} registered (epoch {epoch})");
        }
        // Keep stdout pure exposition: restore reports go to stderr too.
        restore_snapshots(o, &service, true)?;
        let results = service.specialize_many(&requests, jobs);
        let failures = results.iter().filter(|r| r.is_err()).count();
        // Keep stdout pure exposition; the human summary goes to stderr.
        eprintln!("{}", serve_stats_line(jobs, &service.stats()));
        if failures > 0 {
            eprintln!(
                "t4o: note: {failures} of {} requests failed",
                requests.len()
            );
        }
    }
    let snap = service.metrics();
    let page = if o.json {
        snap.to_json()
    } else {
        snap.to_prometheus()
    };
    match &o.output {
        Some(path) => {
            std::fs::write(path, &page).map_err(|e| format!("{path}: {e}"))?;
            println!(";; metrics: written to {path}");
        }
        None => print!("{page}"),
    }
    Ok(())
}

fn cmd_dis(o: &Opts) -> Result<(), String> {
    let file = need_file(o)?;
    let entry = need_entry(o)?;
    let image = load_or_compile(file, entry)?;
    print!("{}", image.disassemble());
    Ok(())
}
