//! The machine's current speed, taken with a fixed piece of the
//! benchmark's own work (the probe). The host the benchmark runs on is
//! shared, and the speed of its cores changes from one second to the next
//! and sometimes for minutes at a time, by half or more. The probe runs
//! between operations, on the same pinned CPU, and never calls into the
//! program, so a change to the program cannot change the probe's time:
//! scaling a timing by the probe's time at that moment takes out the
//! host's speed and leaves the program's.
//!
//! The probe is branchy integer work on buffers of its own that fit a
//! core's private caches: binary searches in a sorted table and a sort.
//! It runs twice and times only the second pass, so what the program left
//! in the caches, or which allocations it made, does not change its time;
//! only the speed of the core does.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Entries of the sorted table searched (8 bytes each): 64 KiB.
const TABLE: usize = 1 << 13;
/// Binary searches per pass.
const SEARCHES: usize = 3_000;
/// Entries sorted per pass.
const SORTED: usize = 2_048;

/// The probe's median time on the host the benchmark was tuned on, at its
/// faster speed. Timings are reported as if every probe had taken this
/// long, so on that host they read as plain microseconds and seconds.
pub const NOMINAL: Duration = Duration::from_micros(120);

struct Buffers {
    table: Vec<u64>,
    scratch: Vec<u64>,
}

static BUFFERS: Mutex<Option<Buffers>> = Mutex::new(None);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pass of the probe's work; the same work on every call.
fn pass(b: &mut Buffers) -> u64 {
    let mut state = 0x5eed;
    let mut found = 0u64;
    for _ in 0..SEARCHES {
        let key = splitmix(&mut state) % (4 * TABLE as u64);
        found += b.table.binary_search(&key).map_or(1, |i| i as u64);
    }
    for x in b.scratch.iter_mut() {
        *x = splitmix(&mut state);
    }
    b.scratch.sort_unstable();
    found ^ b.scratch[SORTED / 2]
}

/// Runs the probe once and returns the duration of its timed pass.
pub fn run() -> Duration {
    let mut guard = BUFFERS.lock().unwrap_or_else(|e| e.into_inner());
    let b = guard.get_or_insert_with(|| {
        let mut state = 0x7ab1e;
        let mut table: Vec<u64> = (0..TABLE)
            .map(|_| splitmix(&mut state) % (4 * TABLE as u64))
            .collect();
        table.sort_unstable();
        Buffers {
            table,
            scratch: vec![0; SORTED],
        }
    });
    black_box(pass(b));
    let t0 = Instant::now();
    black_box(pass(b));
    t0.elapsed()
}

/// `n` probes run one after another.
pub fn sample(n: usize) -> Vec<Duration> {
    (0..n).map(|_| run()).collect()
}

/// Median of `ds` (zero when empty).
pub fn median(ds: &mut [Duration]) -> Duration {
    if ds.is_empty() {
        return Duration::ZERO;
    }
    ds.sort_unstable();
    ds[ds.len() / 2]
}

/// The factor that turns a time taken while the probe took `probe` into
/// a time at the nominal speed.
pub fn scale(probe: Duration) -> f64 {
    if probe.is_zero() {
        1.0
    } else {
        NOMINAL.as_secs_f64() / probe.as_secs_f64()
    }
}
