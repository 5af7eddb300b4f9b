//! The benchmark's own spans: one per public call into a layer, recorded
//! from outside the program. Spans stay in memory (up to a cap) and are
//! written out at exit; per-name counts, total time and self time are
//! aggregated for every span, kept or not.
//!
//! A span's self time is its duration minus the durations of its direct
//! children, so the self time of an `op` span is the part of the
//! operation's blocking path that no layer span covers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept for the exit dump; aggregation covers all of them.
const KEEP: usize = 200_000;

#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn self_mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

struct Record {
    id: u32,
    parent: u32,
    name: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u32,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u32,
    op: u64,
    stack: Vec<Open>,
    kept: Vec<Record>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        next_id: 1,
        op: 0,
        stack: Vec::new(),
        kept: Vec::new(),
        dropped: 0,
        agg: BTreeMap::new(),
    });
}

/// Turns span recording on or off for this thread.
pub fn set_on(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Sets the operation id later spans are tagged with.
pub fn set_op(op: u64) {
    TRACER.with(|t| t.borrow_mut().op = op);
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let on = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return false;
        }
        let id = t.next_id;
        t.next_id = t.next_id.wrapping_add(1);
        t.stack.push(Open {
            id,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        true
    });
    if !on {
        return f();
    }
    let r = f();
    let end = Instant::now();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(open) = t.stack.pop() else { return };
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
        let parent = t.stack.last().map_or(0, |p| p.id);
        let a = t.agg.entry(open.name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if t.kept.len() < KEEP {
            let start_ns = open.start.duration_since(t.epoch).as_nanos() as u64;
            let op = t.op;
            t.kept.push(Record {
                id: open.id,
                parent,
                name: open.name,
                op,
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            t.dropped += 1;
        }
    });
    r
}

/// The aggregate for `name` (zero when no such span was recorded).
pub fn agg(name: &str) -> Agg {
    TRACER.with(|t| t.borrow().agg.get(name).copied().unwrap_or_default())
}

/// Number of spans recorded (kept and dropped).
pub fn recorded() -> u64 {
    TRACER.with(|t| {
        let t = t.borrow();
        t.kept.len() as u64 + t.dropped
    })
}

/// Writes the kept spans as JSON lines (`name`, `id`, `parent`, `op`,
/// `start_ns`, `end_ns`) followed by one summary line per span name.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &t.kept {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.name, r.id, r.parent, r.op, r.start_ns, r.end_ns
            )?;
        }
        for (name, a) in &t.agg {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.total_ns, a.self_ns
            )?;
        }
        writeln!(out, "{{\"dropped\":{}}}", t.dropped)?;
        out.flush()
    })
}
