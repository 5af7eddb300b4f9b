//! The two4one benchmark: three seeded closed-loop workloads, each driven
//! by one client thread in this process, timed end to end and, in a
//! separate traced run, attributed to the repository's layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload spec-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it carries the run metadata. See `README.md` for the workloads, the
//! metrics and which end-to-end metric each per-layer metric should move.

mod catalog;
mod probe;
mod report;
mod residual_run;
mod spec_cold;
mod stream;
mod trace;
mod wire_warm;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use two4one::{Datum, Image, Machine, Value};

use report::{Counters, Metric, Samples, Window};

/// Length of the windows an untraced run is split into. End-to-end
/// timings are taken per window and scaled by the host's speed in that
/// window (`probe`), then summarized over the run's windows.
const WINDOW: Duration = Duration::from_secs(1);

/// An untraced run sets up afresh after every this many windows, so its
/// set-up samples spread over the run as its windows do.
const SETUP_EVERY: usize = 3;

/// Time from one run of the speed probe to the next inside a window.
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Pause before each probe. The program's other threads share the pinned
/// CPU; the pause lets them finish what the last operation left them, so
/// that the probe times the host and not the program.
const PROBE_SETTLE: Duration = Duration::from_micros(100);

/// Probes run back to back just before, and again just after, each set-up.
const SETUP_PROBES: usize = 16;

/// Length of the slices a traced run alternates between (untraced,
/// traced, ...). Short, so the compared slices see the same machine.
const TRACE_SLICE: Duration = Duration::from_millis(100);

/// Failed operations reported individually on standard error.
const REPORT_FAILURES: u64 = 20;

/// Stack of the client thread, as large as the program gives its own
/// recursive phases (`two4one::with_stack`): set-up and redefinitions run
/// the front end and BTA on this thread.
const CLIENT_STACK: usize = 512 << 20;

#[derive(Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A set-up's time in seconds, and the probe's median time around it.
pub type SetupSample = (f64, Duration);

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// The untraced measured operations.
    pub samples: Samples,
    /// Each set-up's time, with the probe's time around it.
    pub setup_samples: Vec<SetupSample>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific metadata, as JSON members.
    pub meta: String,
}

/// Scratch space inside the benchmark's own directory (snapshots, span
/// dumps); `.gitignore`d.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).expect("create work directory");
    dir
}

/// Which kind of slice a traced run is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    Untraced,
    Traced,
    /// Untraced with the program's own observability switched off.
    ObsOff,
}

/// Sets a workload up and measures it for `cfg.seconds`, handing each
/// slice to `run_slice` with the state. Returns the last state and every
/// set-up's sample.
///
/// An untraced run is a row of `WINDOW`s, with a fresh set-up (the old
/// state dropped first) after every `SETUP_EVERY` of them. A traced run
/// sets up once, traced, then alternates `TRACE_SLICE` slices of `kinds`.
pub fn measure<S>(
    cfg: &Config,
    kinds: &[Slice],
    mut setup: impl FnMut() -> S,
    mut run_slice: impl FnMut(&mut S, Slice, Duration),
) -> (S, Vec<SetupSample>) {
    // Builds the probe's buffer before the peak is reset.
    probe::run();
    report::reset_peak_rss();
    let mut times = Vec::new();
    let mut set_up = |times: &mut Vec<SetupSample>| {
        let mut probes = probe::sample(SETUP_PROBES);
        trace::set_on(cfg.trace);
        trace::set_op(0);
        let t0 = Instant::now();
        let state = trace::span("setup", &mut setup);
        let secs = t0.elapsed().as_secs_f64();
        trace::set_on(false);
        probes.extend(probe::sample(SETUP_PROBES));
        times.push((secs, probe::median(&mut probes)));
        state
    };
    let mut state = set_up(&mut times);
    if !cfg.trace {
        let window = WINDOW.min(Duration::from_secs_f64(cfg.seconds));
        let windows = (cfg.seconds / window.as_secs_f64()).ceil() as usize;
        for w in 0..windows.max(1) {
            if w > 0 && w % SETUP_EVERY == 0 {
                drop(state);
                state = set_up(&mut times);
            }
            run_slice(&mut state, Slice::Untraced, window);
        }
        return (state, times);
    }
    let rounds = (cfg.seconds / (TRACE_SLICE.as_secs_f64() * kinds.len() as f64)).ceil();
    for _ in 0..(rounds as usize).max(1) {
        for &kind in kinds {
            trace::set_on(kind == Slice::Traced);
            two4one::obs::set_enabled(kind != Slice::ObsOff);
            run_slice(&mut state, kind, TRACE_SLICE);
        }
    }
    trace::set_on(false);
    two4one::obs::set_enabled(true);
    (state, times)
}

/// One operation's report: its class, its blocking time, and whether its
/// output matched the reference.
pub struct Done {
    pub class: &'static str,
    pub latency: Duration,
    pub result: Result<(), String>,
}

/// Runs `f`, an operation's blocking path, inside the `op` span and
/// returns its result with its duration. Everything the benchmark does
/// around it (building inputs, checking outputs) stays outside.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    trace::span("op", || {
        let t0 = Instant::now();
        let r = f();
        (r, t0.elapsed())
    })
}

/// Closed loop over `stream` for `budget`, as one window: the next
/// operation starts when the previous one has finished. Every
/// `PROBE_EVERY`, between two operations, the speed probe runs; the time
/// it takes, with its pause, is left out of the window's. Operation ids
/// continue across calls.
pub fn closed_loop<O>(
    budget: Duration,
    next_id: &mut u64,
    stream: &mut impl Iterator<Item = O>,
    mut op: impl FnMut(O) -> Done,
) -> Samples {
    let mut samples = Samples::default();
    let mut probes = Vec::new();
    let mut probing = Duration::ZERO;
    let start = Instant::now();
    let mut next_probe = start;
    while start.elapsed() < budget {
        let now = Instant::now();
        if now >= next_probe {
            std::thread::sleep(PROBE_SETTLE);
            probes.push(probe::run());
            let done = Instant::now();
            probing += done - now;
            next_probe = done + PROBE_EVERY;
        }
        let Some(o) = stream.next() else { break };
        *next_id += 1;
        trace::set_op(*next_id);
        let done = op(o);
        samples.push(done.class, done.latency);
        if let Err(msg) = done.result {
            samples.failed += 1;
            if samples.failed <= REPORT_FAILURES {
                eprintln!(
                    "ledger: operation #{} ({}) failed: {msg}",
                    next_id, done.class
                );
            }
        }
    }
    samples.windows.push(Window {
        ops: samples.lat_ns.len(),
        elapsed: start.elapsed().saturating_sub(probing),
        probe: probe::median(&mut probes),
    });
    samples
}

/// Loads `image` and calls its entry on `input`: `Machine::load` plus
/// argument conversion, then `Machine::call_global`, each in its own span.
/// Returns the result as data.
pub fn exec(image: &Image, input: &Datum) -> Result<Datum, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (mut m, argv) = trace::span("vm.load", || {
            (Machine::load(image), vec![Value::from(input)])
        });
        let v = trace::span("vm.call", || m.call_global(&image.entry, argv))
            .map_err(|e| format!("vm: {e}"))?;
        v.to_datum()
            .ok_or_else(|| format!("result is not data: {v:?}"))
    }))
    .unwrap_or_else(|_| Err("vm panicked".to_string()))
}

/// Compares an output with its reference.
pub fn check(got: Result<Datum, String>, want: &Datum) -> Result<(), String> {
    match got {
        Ok(v) if &v == want => Ok(()),
        Ok(v) => Err(format!("got {v}, interpreter gives {want}")),
        Err(e) => Err(e),
    }
}

/// Per-layer metrics every traced run takes the same way: front end and
/// BTA spans, the server's hit ratio, the VM's spans and dispatch counts
/// (`deltas` are the traced slices' counter differences), tracing
/// overhead and the unattributed part of the blocking path.
pub fn common_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    deltas: &Counters,
    untraced: &Samples,
    traced: &Samples,
) {
    layers.insert(
        "frontend.parse_us",
        trace::agg("frontend.parse").self_mean_us(),
    );
    layers.insert("bta.cogen_us", trace::agg("bta.cogen").self_mean_us());
    layers.insert(
        "server.hit_ratio",
        report::ratio(deltas.hits as f64, (deltas.hits + deltas.misses) as f64),
    );
    layers.insert("vm.load_us", trace::agg("vm.load").self_mean_us());
    layers.insert("vm.call_us", trace::agg("vm.call").self_mean_us());
    layers.insert(
        "vm.dispatch_per_op",
        report::ratio(
            deltas.dispatch_total as f64,
            trace::agg("vm.call").count as f64,
        ),
    );
    layers.insert(
        "vm.fused_dispatch_frac",
        report::ratio(deltas.dispatch_fused as f64, deltas.dispatch_total as f64),
    );
    let op = trace::agg("op");
    layers.insert(
        "trace.overhead_frac",
        1.0 - report::ratio(traced.ops_per_s(), untraced.ops_per_s()),
    );
    layers.insert("trace.unattributed_us", op.self_mean_us());
    layers.insert(
        "trace.unattributed_frac",
        report::ratio(op.self_ns as f64, op.total_ns as f64),
    );
    layers.insert("trace.spans", trace::recorded() as f64);
}

fn usage() -> ! {
    eprintln!(
        "usage: ledger --workload <spec-cold|wire-warm|residual-run> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut cfg = Config {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let run: fn(&Config) -> Outcome = match workload.as_str() {
        "spec-cold" => spec_cold::run,
        "wire-warm" => wire_warm::run,
        "residual-run" => residual_run::run,
        _ => usage(),
    };
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        usage();
    }

    // Same placement on every run: this thread and everything it spawns
    // (fill workers, the server's accept and handler threads) share the
    // highest-numbered allowed CPU. On a two-core host this was both
    // faster and steadier than putting the server on the other core.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpus = report::allowed();
    let pinned = cpus.last().copied().filter(|&cpu| report::pin(cpu));
    two4one::init_metrics();

    let outcome = std::thread::Builder::new()
        .name("ledger-client".to_string())
        .stack_size(CLIENT_STACK)
        .spawn(move || {
            let out = run(&cfg);
            if cfg.trace {
                let path = work_dir().join(format!("trace-{workload}.jsonl"));
                if let Err(e) = trace::write(&path) {
                    eprintln!("ledger: cannot write {}: {e}", path.display());
                }
            }
            out
        })
        .expect("spawn client thread")
        .join()
        .expect("client thread");

    let s = &outcome.samples;
    let attempted = s.lat_ns.len() as u64;
    let metrics: Vec<Metric> = if cfg.trace {
        report::per_layer(outcome.layers)
    } else {
        report::end_to_end(s, &outcome.setup_samples)
    };
    let setups: Vec<String> = outcome
        .setup_samples
        .iter()
        .map(|(t, _)| format!("{t:.6}"))
        .collect();
    let setup_probes: Vec<String> = outcome
        .setup_samples
        .iter()
        .map(|(_, p)| format!("{:.1}", p.as_secs_f64() * 1e6))
        .collect();
    println!(
        "{{\"meta\": {{{}, \"nproc\": {nproc}, \"seed\": {}, \"trace\": {}, \"probe_nominal_us\": {}, \"setup_samples_s\": [{}], \"setup_probe_us\": [{}], {}, {}}}}}",
        report::run_meta(&cpus, pinned),
        cfg.seed,
        cfg.trace,
        probe::NOMINAL.as_micros(),
        setups.join(", "),
        setup_probes.join(", "),
        report::latency_meta(s),
        outcome.meta.replace('\n', " "),
    );
    println!(
        "{}",
        report::result_line(
            s.failed == 0 && attempted > 0,
            attempted.max(1),
            s.failed,
            &metrics
        )
    );
}
