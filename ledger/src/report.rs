//! Result assembly: latency percentiles, the metric list, run metadata,
//! counter deltas read from the program's own exports, and process
//! placement.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use two4one::obs::{self, MetricsSnapshot};
use two4one_server::SpecService;

use crate::probe;

/// The five superinstruction families' dispatch labels.
const FUSED_OPS: [&str; 5] = [
    "local-push",
    "const-push",
    "local-prim",
    "const-prim",
    "prim-branch",
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit }
}

/// One measured stretch of a run.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Operations completed; their samples are contiguous in `lat_ns`.
    pub ops: usize,
    /// The window's time, less the probes run in it and their pauses.
    pub elapsed: Duration,
    /// The probe's median time in the window.
    pub probe: Duration,
}

/// Per-operation latencies of measured windows, with each sample's
/// request class.
#[derive(Default)]
pub struct Samples {
    pub lat_ns: Vec<u64>,
    pub class: Vec<&'static str>,
    /// The windows, in order.
    pub windows: Vec<Window>,
    pub failed: u64,
}

impl Samples {
    pub fn push(&mut self, class: &'static str, d: Duration) {
        self.lat_ns.push(d.as_nanos() as u64);
        self.class.push(class);
    }

    pub fn ops_per_s(&self) -> f64 {
        let elapsed: Duration = self.windows.iter().map(|w| w.elapsed).sum();
        self.lat_ns.len() as f64 / elapsed.as_secs_f64().max(1e-9)
    }

    pub fn extend(&mut self, other: Samples) {
        self.lat_ns.extend(other.lat_ns);
        self.class.extend(other.class);
        self.windows.extend(other.windows);
        self.failed += other.failed;
    }

    /// Throughput and latency percentiles of each non-empty window, scaled
    /// to the probe's nominal speed, with the window's probe time.
    fn per_window(&self) -> Windows {
        let mut w = Windows::default();
        let mut start = 0;
        for win in &self.windows {
            let n = win.ops;
            let mut lat = self.lat_ns[start..start + n].to_vec();
            start += n;
            if n == 0 {
                continue;
            }
            lat.sort_unstable();
            let scale = probe::scale(win.probe);
            let p90 = percentile(&lat, 0.90);
            w.ops_per_s
                .push(n as f64 / win.elapsed.as_secs_f64().max(1e-9) / scale);
            w.p50_us.push(percentile(&lat, 0.50) as f64 / 1e3 * scale);
            w.p90_us.push(p90 as f64 / 1e3 * scale);
            w.probe_us.push(win.probe.as_secs_f64() * 1e6);
            w.samples.push(n);
            w.beyond_p90.push(lat.iter().filter(|&&x| x > p90).count());
        }
        w
    }
}

/// Per-window figures of an untraced run.
#[derive(Default)]
struct Windows {
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    probe_us: Vec<f64>,
    samples: Vec<usize>,
    beyond_p90: Vec<usize>,
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q` quantile of `xs`, interpolating linearly between ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The metric-independent part of the result: sample counts, each
/// window's probe time and scaled figures, and the raw deciles and the
/// share and raw percentiles of each request class.
pub fn latency_meta(s: &Samples) -> String {
    let mut sorted = s.lat_ns.clone();
    sorted.sort_unstable();
    let w = s.per_window();
    let mut by_class: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (c, l) in s.class.iter().zip(&s.lat_ns) {
        by_class.entry(c).or_default().push(*l);
    }
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.1}", percentile(&sorted, d as f64 / 10.0) as f64 / 1e3))
        .collect();
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = format!(
        "\"samples\": {}, \"windows\": {}, \"window_samples_min\": {}, \
         \"window_beyond_p90_min\": {}, \"per_window\": {{\"probe_us\": [{}], \
         \"ops_per_s\": [{}], \"op_p50_us\": [{}], \"op_p90_us\": [{}]}}, \
         \"raw_deciles_us\": [{}], \"raw_classes\": {{",
        sorted.len(),
        w.samples.len(),
        w.samples.iter().min().unwrap_or(&0),
        w.beyond_p90.iter().min().unwrap_or(&0),
        list(&w.probe_us),
        list(&w.ops_per_s),
        list(&w.p50_us),
        list(&w.p90_us),
        deciles.join(", ")
    );
    for (i, (c, mut v)) in by_class.into_iter().enumerate() {
        v.sort_unstable();
        let _ = write!(
            out,
            "{}\"{c}\": {{\"n\": {}, \"p10_us\": {:.1}, \"p50_us\": {:.1}, \"p90_us\": {:.1}}}",
            if i == 0 { "" } else { ", " },
            v.len(),
            percentile(&v, 0.10) as f64 / 1e3,
            percentile(&v, 0.50) as f64 / 1e3,
            percentile(&v, 0.90) as f64 / 1e3,
        );
    }
    out.push('}');
    out
}

/// The end-to-end metrics every workload reports: each timing is the
/// median of its scaled per-window (for `setup_s`, per-set-up) figures.
pub fn end_to_end(s: &Samples, setups: &[(f64, Duration)]) -> Vec<Metric> {
    let w = s.per_window();
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|&(secs, p)| secs * probe::scale(p))
        .collect();
    let attempted = s.lat_ns.len().max(1) as f64;
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("ops_per_s", median(&w.ops_per_s), "1/s"),
        metric("op_p50_us", median(&w.p50_us), "us"),
        metric("op_p90_us", median(&w.p90_us), "us"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("success_rate", 1.0 - s.failed as f64 / attempted, "ratio"),
    ]
}

/// Every per-layer metric name with its unit, in report order. A traced
/// run prints all of them; a layer its workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("frontend.parse_us", "us"),
    ("bta.cogen_us", "us"),
    ("langs.grammar_parse_us", "us"),
    ("server.hit_us", "us"),
    ("server.fill_self_us", "us"),
    ("server.redefine_us", "us"),
    ("server.invalidated_per_redefine", "count"),
    ("server.evictions_per_op", "count"),
    ("server.restore_us", "us"),
    ("server.hit_ratio", "ratio"),
    ("pe.walker_us", "us"),
    ("pe.genext_run_us", "us"),
    ("pe.genext_build_us", "us"),
    ("pe.unfolds_per_op", "count"),
    ("pe.memo_points_per_op", "count"),
    ("pe.fallback_frac", "ratio"),
    ("compiler.code_size_per_op", "count"),
    ("vm.load_us", "us"),
    ("vm.call_us", "us"),
    ("vm.dispatch_per_op", "count"),
    ("vm.fused_dispatch_frac", "ratio"),
    ("net.bin_rtt_us", "us"),
    ("net.http_rtt_us", "us"),
    ("net.server_self_us", "us"),
    ("net.object_decode_us", "us"),
    ("net.resp_bytes_per_op", "bytes"),
    ("obs.overhead_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_us", "us"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Fills in every per-layer metric from `found`, zero where absent.
pub fn per_layer(found: BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in found.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric `{name}` is not declared"
        );
    }
    PER_LAYER
        .iter()
        .map(|(name, unit)| metric(name, found.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The counters the program exports that the per-layer metrics are
/// differences of. Histograms are `(sum_ns, count)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub specialize: (u64, u64),
    pub genext_run: (u64, u64),
    pub genext_build: (u64, u64),
    pub dispatch_total: u64,
    pub dispatch_fused: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// `t4o_serve_request_nanos` of the service.
    pub serve: (u64, u64),
}

impl Counters {
    /// Reads the process-global pipeline series and `service`'s own.
    pub fn read(service: &SpecService) -> Counters {
        let snap = obs::global().snapshot();
        let stats = service.stats();
        let mut c = Counters {
            specialize: phase(&snap, "specialize"),
            genext_run: phase(&snap, "genext-run"),
            genext_build: phase(&snap, "genext-build"),
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            serve: histogram(&service.metrics(), "t4o_serve_request_nanos", None),
            ..Counters::default()
        };
        for (id, v) in &snap.counters {
            if id.name == "t4o_vm_dispatch_total" {
                c.dispatch_total += v;
                if id.label.is_some_and(|(_, op)| FUSED_OPS.contains(&op)) {
                    c.dispatch_fused += v;
                }
            }
        }
        c
    }

    fn zip(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        let pair = |a: (u64, u64), b: (u64, u64)| (f(a.0, b.0), f(a.1, b.1));
        Counters {
            specialize: pair(self.specialize, other.specialize),
            genext_run: pair(self.genext_run, other.genext_run),
            genext_build: pair(self.genext_build, other.genext_build),
            dispatch_total: f(self.dispatch_total, other.dispatch_total),
            dispatch_fused: f(self.dispatch_fused, other.dispatch_fused),
            hits: f(self.hits, other.hits),
            misses: f(self.misses, other.misses),
            evictions: f(self.evictions, other.evictions),
            serve: pair(self.serve, other.serve),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |a, b| a - b)
    }

    pub fn add(&mut self, other: &Counters) {
        *self = self.zip(other, |a, b| a + b);
    }
}

/// `(sum_ns, count)` of a `t4o_phase_nanos{phase=...}` histogram.
fn phase(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    histogram(snap, "t4o_phase_nanos", Some(name))
}

/// `(sum_ns, count)` of a histogram series, zero when absent.
fn histogram(snap: &MetricsSnapshot, family: &str, label: Option<&str>) -> (u64, u64) {
    snap.histograms
        .iter()
        .find(|(id, _)| id.name == family && id.label.map(|(_, v)| v) == label)
        .map_or((0, 0), |(_, h)| (h.sum, h.count))
}

/// Mean of a `(sum_ns, count)` pair, in microseconds.
pub fn mean_us((sum, count): (u64, u64)) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e3
    }
}

/// Ratio that reads 0 instead of NaN on an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Resets the process's peak resident set to its current size, so that
/// `peak_rss_mb` leaves out what the preparation before set-up touched.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t` is 1024 bits on Linux.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if got != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Pins the calling thread, and every thread it spawns afterwards, to
    /// `cpu`. Returns whether the kernel accepted it.
    pub fn pin(cpu: usize) -> bool {
        if cpu >= WORDS * 64 {
            return false;
        }
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) -> bool {
        false
    }
}

pub use affinity::{allowed, pin};

/// Output of a short-lived command, or `"unknown"`; waits for it to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Run metadata: source revision, toolchain, the CPUs the process was
/// allowed before pinning, and the CPU every thread was pinned to.
pub fn run_meta(cpus: &[usize], pinned: Option<usize>) -> String {
    let list: Vec<String> = cpus.iter().map(usize::to_string).collect();
    format!(
        "\"git_rev\": \"{}\", \"rustc\": \"{}\", \"cpus_allowed\": [{}], \"pinned_cpu\": {}",
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["--version"]),
        list.join(", "),
        pinned.map_or_else(|| "null".to_string(), |c| c.to_string()),
    )
}

/// Renders the final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_scaled_to_the_nominal_speed() {
        let mut s = Samples::default();
        for _ in 0..4 {
            s.push("op", Duration::from_micros(100));
        }
        // The host ran at half speed: the probe took twice its nominal time.
        s.windows.push(Window {
            ops: 4,
            elapsed: Duration::from_millis(1),
            probe: probe::NOMINAL * 2,
        });
        let w = s.per_window();
        assert!((w.p50_us[0] - 50.0).abs() < 1e-9, "{:?}", w.p50_us);
        assert!((w.ops_per_s[0] - 8000.0).abs() < 1e-6, "{:?}", w.ops_per_s);
        let setup = end_to_end(&s, &[(0.2, probe::NOMINAL * 2)]);
        assert!((setup[0].value - 0.1).abs() < 1e-12);
    }
}
