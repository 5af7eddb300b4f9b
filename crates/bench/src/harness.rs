//! A minimal, dependency-free benchmark harness.
//!
//! The workspace builds offline, so the usual benchmarking crates are
//! unavailable. This module reproduces exactly the slice of their API the
//! `benches/` files use — `Criterion::benchmark_group`, `sample_size`,
//! `bench_function`, `Bencher::iter`/`iter_custom`, and the
//! [`criterion_group!`](crate::criterion_group)/
//! [`criterion_main!`](crate::criterion_main) macros — and reports the
//! median and minimum per-iteration time for each benchmark.
//!
//! Set `T4O_BENCH_SAMPLES` to override the sample count (e.g. `=3` for a
//! smoke run in CI).

use std::time::{Duration, Instant};
use two4one::obs::json_escape;

/// Harness entry point; one per benchmark binary.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related measurements.
    pub fn benchmark_group(&mut self, name: &str) -> Group {
        println!("\n== {name} ==");
        Group {
            name: name.to_string(),
            samples: default_samples(),
            results: Vec::new(),
            ratios: Vec::new(),
        }
    }
}

/// One finished measurement, for programmatic consumption (e.g. writing a
/// trajectory JSON file next to the printed report).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id within its group.
    pub id: String,
    /// Median per-iteration time across samples.
    pub median: Duration,
    /// Minimum per-iteration time across samples.
    pub min: Duration,
}

/// A claim measured as a ratio of two timings over alternating pairs: the
/// median per-pair ratio and its quartiles.
#[derive(Debug, Clone)]
pub struct RatioResult {
    /// Ratio id within its group.
    pub id: String,
    /// Median of the per-pair ratios.
    pub median: f64,
    /// Lower quartile of the per-pair ratios.
    pub q1: f64,
    /// Upper quartile of the per-pair ratios.
    pub q3: f64,
    /// Number of pairs.
    pub pairs: usize,
}

fn default_samples() -> usize {
    std::env::var("T4O_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10)
}

/// A group of measurements sharing a heading and sample count.
pub struct Group {
    name: String,
    samples: usize,
    results: Vec<BenchResult>,
    ratios: Vec<RatioResult>,
}

impl Group {
    /// Sets how many samples to take per benchmark (the env override
    /// `T4O_BENCH_SAMPLES` wins).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if std::env::var_os("T4O_BENCH_SAMPLES").is_none() && n > 0 {
            self.samples = n;
        }
        self
    }

    /// Measures one benchmark: runs `f` once per sample and prints the
    /// median and minimum per-iteration time.
    pub fn bench_function<S: std::fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        let mut times: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let mut b = Bencher { per_iter: None };
            f(&mut b);
            if let Some(d) = b.per_iter {
                times.push(d);
            }
        }
        self.record(id, times)
    }

    /// Records a measurement timed by the caller, one per-iteration time
    /// per sample, and prints its median and minimum.
    pub fn record<S: std::fmt::Display>(&mut self, id: S, mut times: Vec<Duration>) -> &mut Self {
        if times.is_empty() {
            println!("  {id}: no measurement");
            return self;
        }
        times.sort();
        let median = times[times.len() / 2];
        let min = times[0];
        println!("  {id}: median {}  min {}", fmt(median), fmt(min));
        self.results.push(BenchResult {
            id: id.to_string(),
            median,
            min,
        });
        self
    }

    /// Records a ratio from its per-pair readings, prints its median and
    /// quartiles, and returns it.
    ///
    /// # Panics
    ///
    /// Panics when `ratios` is empty.
    pub fn record_ratio<S: std::fmt::Display>(
        &mut self,
        id: S,
        mut ratios: Vec<f64>,
    ) -> RatioResult {
        assert!(!ratios.is_empty(), "ratio {id} has no pairs");
        ratios.sort_by(f64::total_cmp);
        let at = |q: usize| ratios[(ratios.len() - 1) * q / 4];
        let r = RatioResult {
            id: id.to_string(),
            median: at(2),
            q1: at(1),
            q3: at(3),
            pairs: ratios.len(),
        };
        println!(
            "  {}: median {:.3}  quartiles {:.3}–{:.3}  over {} pairs",
            r.id, r.median, r.q1, r.q3, r.pairs
        );
        self.ratios.push(r.clone());
        r
    }

    /// Ends the group (kept for API compatibility; printing is eager).
    pub fn finish(&mut self) {}

    /// The group's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Measurements recorded so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Ratios recorded so far, in execution order.
    pub fn ratios(&self) -> &[RatioResult] {
        &self.ratios
    }
}

/// Writes a group's results as a small JSON trajectory file (one object
/// per measurement, then one per ratio if the group has any), so
/// successive runs can be compared across PRs.
///
/// # Errors
///
/// Propagates I/O failures from writing `path`.
pub fn write_json(path: impl AsRef<std::path::Path>, group: &Group) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"group\": {},\n", json_escape(group.name())));
    out.push_str("  \"results\": [\n");
    for (i, r) in group.results().iter().enumerate() {
        let comma = if i + 1 == group.results().len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"id\": {}, \"median_ns\": {}, \"min_ns\": {}}}{comma}\n",
            json_escape(&r.id),
            r.median.as_nanos(),
            r.min.as_nanos()
        ));
    }
    out.push_str("  ]");
    if !group.ratios().is_empty() {
        out.push_str(",\n  \"ratios\": [\n");
        for (i, r) in group.ratios().iter().enumerate() {
            let comma = if i + 1 == group.ratios().len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"id\": {}, \"median\": {:.4}, \"q1\": {:.4}, \"q3\": {:.4}, \"pairs\": {}}}{comma}\n",
                json_escape(&r.id),
                r.median,
                r.q1,
                r.q3,
                r.pairs
            ));
        }
        out.push_str("  ]");
    }
    out.push_str("\n}\n");
    std::fs::write(path, out)
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Passed to the benchmark closure; records one sample.
pub struct Bencher {
    per_iter: Option<Duration>,
}

impl Bencher {
    /// Times `f` directly, auto-scaling the iteration count so one sample
    /// takes at least ~2 ms.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t0.elapsed();
            if elapsed >= Duration::from_millis(2) || iters >= 1 << 20 {
                self.per_iter = Some(elapsed / iters.max(1) as u32);
                return;
            }
            iters *= 4;
        }
    }

    /// Lets the closure time `iters` iterations itself (for setup-heavy
    /// benchmarks) and records the per-iteration cost.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        let mut iters: u64 = 1;
        loop {
            let elapsed = f(iters);
            if elapsed >= Duration::from_millis(2) || iters >= 1 << 20 {
                self.per_iter = Some(elapsed / iters.max(1) as u32);
                return;
            }
            iters *= 4;
        }
    }
}

/// Builds the function `criterion_group!` names from a list of benchmark
/// functions, mirroring the classic macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $f(&mut c); )+
        }
    };
}

/// Emits `main` for a benchmark binary, mirroring the classic macro.
#[macro_export]
macro_rules! criterion_main {
    ($name:ident) => {
        fn main() {
            $name();
        }
    };
}
