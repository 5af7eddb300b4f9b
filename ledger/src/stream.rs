//! Seeded operation streams. Everything a workload sends is generated
//! here from `--seed`; the program under test only ever sees the
//! generated inputs.
//!
//! Request classes come in fixed-size blocks holding a fixed multiset of
//! classes in seeded order, so each class's share is exact on every seed
//! and a latency percentile lands in the same class on every run.

use two4one_testkit::Rng;

use crate::catalog::Lang;

/// Shuffles `block` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut Rng, block: &mut [T]) {
    for i in (1..block.len()).rev() {
        block.swap(i, rng.index(i + 1));
    }
}

/// Stratified draw of `n` values from `lo..hi`: one value from each of `n`
/// equal sub-ranges, in seeded order, so the spread of sizes is the same
/// on every seed while the values differ.
pub fn stratified(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo) as f64 / n as f64;
    let mut out: Vec<usize> = (0..n)
        .map(|j| {
            let off = (rng.below(1 << 20) as f64 / f64::from(1 << 20)) * width;
            lo + (j as f64 * width + off) as usize
        })
        .collect();
    shuffle(rng, &mut out);
    out
}

// ---- spec-cold -----------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdKind {
    /// Anonymous request: the interpreted specializer (walker).
    Anon,
    /// Named request: the program's compiled generating extension.
    Named,
    /// Re-parse and redefine the program, then a named request, which
    /// rebuilds the compiled generating extension.
    Redefine,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdOp {
    pub kind: ColdKind,
    pub lang: Lang,
    pub bias: i64,
    pub salt: u64,
    pub size: i64,
}

impl ColdOp {
    pub fn class(&self) -> &'static str {
        match (self.kind, self.lang) {
            (ColdKind::Anon, Lang::Mixwell) => "anon-mixwell",
            (ColdKind::Anon, Lang::Lazy) => "anon-lazy",
            (ColdKind::Named, Lang::Mixwell) => "named-mixwell",
            (ColdKind::Named, Lang::Lazy) => "named-lazy",
            (ColdKind::Redefine, Lang::Mixwell) => "redefine-mixwell",
            (ColdKind::Redefine, Lang::Lazy) => "redefine-lazy",
        }
    }
}

/// Live constants a cold variant may carry; the oracle covers each.
pub const COLD_BIASES: i64 = 4;
/// Dynamic input sizes (MIXWELL `n`, LAZY `k`) for residual runs that
/// follow a specialization: small, so the specialization dominates.
pub fn run_sizes(lang: Lang) -> (i64, i64) {
    match lang {
        Lang::Mixwell => (4, 12),
        Lang::Lazy => (3, 8),
    }
}

/// One block of sixteen cold operations: one redefine, the rest split
/// between the two routes and the two interpreters.
const COLD_BLOCK: [(ColdKind, Lang); 16] = [
    (ColdKind::Redefine, Lang::Mixwell),
    (ColdKind::Anon, Lang::Mixwell),
    (ColdKind::Anon, Lang::Mixwell),
    (ColdKind::Anon, Lang::Mixwell),
    (ColdKind::Anon, Lang::Lazy),
    (ColdKind::Anon, Lang::Lazy),
    (ColdKind::Anon, Lang::Lazy),
    (ColdKind::Named, Lang::Mixwell),
    (ColdKind::Named, Lang::Mixwell),
    (ColdKind::Named, Lang::Mixwell),
    (ColdKind::Named, Lang::Mixwell),
    (ColdKind::Named, Lang::Lazy),
    (ColdKind::Named, Lang::Lazy),
    (ColdKind::Named, Lang::Lazy),
    (ColdKind::Named, Lang::Lazy),
    (ColdKind::Named, Lang::Lazy),
];

/// The endless spec-cold stream. Salts are distinct within a stream, so
/// every request is a cache miss.
pub struct ColdStream {
    rng: Rng,
    block: Vec<(ColdKind, Lang)>,
    next_salt: u64,
    redefines: u64,
}

impl ColdStream {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5bec_c01d);
        let next_salt = rng.below(1 << 40);
        ColdStream {
            rng,
            block: Vec::new(),
            next_salt,
            redefines: 0,
        }
    }
}

impl Iterator for ColdStream {
    type Item = ColdOp;

    fn next(&mut self) -> Option<ColdOp> {
        if self.block.is_empty() {
            self.block = COLD_BLOCK.to_vec();
            shuffle(&mut self.rng, &mut self.block);
        }
        let (kind, mut lang) = self.block.pop()?;
        if kind == ColdKind::Redefine {
            // Redefinitions alternate between the two programs.
            lang = Lang::ALL[(self.redefines % 2) as usize];
            self.redefines += 1;
        }
        self.next_salt += 1;
        Some(ColdOp {
            kind,
            lang,
            bias: self.rng.range_i64(0, COLD_BIASES),
            salt: self.next_salt,
            size: {
                let (lo, hi) = run_sizes(lang);
                self.rng.range_i64(lo, hi)
            },
        })
    }
}

// ---- wire-warm -----------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// Binary `REQ_SPEC` asking for metadata.
    BinMeta,
    /// Binary `REQ_SPEC` asking for the object code, decoded by the client.
    BinObject,
    /// HTTP `POST /spec` asking for metadata.
    Http,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOp {
    pub kind: WireKind,
    /// Index into the working set.
    pub key: usize,
    /// Execute the decoded object (object requests only) on this input.
    pub exec_size: Option<i64>,
}

impl WireOp {
    pub fn class(&self) -> &'static str {
        match self.kind {
            WireKind::BinMeta => "bin-meta",
            WireKind::BinObject => "bin-object",
            WireKind::Http => "http-meta",
        }
    }
}

/// Cached entries the wire workload cycles through.
pub const WIRE_KEYS: usize = 1024;
/// Live constants in the wire working set.
pub const WIRE_BIASES: i64 = 2;

/// One block of twenty wire requests: binary metadata dominates, HTTP and
/// object fetches are fixed minorities.
const WIRE_BLOCK: [WireKind; 20] = [
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::BinMeta,
    WireKind::Http,
    WireKind::Http,
    WireKind::Http,
    WireKind::BinObject,
    WireKind::BinObject,
    WireKind::BinObject,
    WireKind::BinObject,
];

/// Every fourth object fetch is executed and checked against the oracle.
const WIRE_EXEC_EVERY: u64 = 4;

/// The program behind working-set entry `key`: three in four are MIXWELL.
/// A MIXWELL program's statics text is several times a LAZY one's, and
/// the server parses it on every request, so the two languages form two
/// latency clusters; an even split would put the median between them.
pub fn wire_lang(key: usize) -> Lang {
    if key % 4 == 3 {
        Lang::Lazy
    } else {
        Lang::Mixwell
    }
}

/// The wire working set: `(lang, bias, salt)` per cached entry.
pub fn wire_working_set(seed: u64) -> Vec<(Lang, i64, u64)> {
    let mut rng = Rng::new(seed ^ 0x3a11_ca7e);
    let base = rng.below(1 << 40);
    (0..WIRE_KEYS)
        .map(|k| (wire_lang(k), rng.range_i64(0, WIRE_BIASES), base + k as u64))
        .collect()
}

pub struct WireStream {
    rng: Rng,
    block: Vec<WireKind>,
    objects: u64,
}

impl WireStream {
    pub fn new(seed: u64) -> Self {
        WireStream {
            rng: Rng::new(seed ^ 0x00b1_ec75),
            block: Vec::new(),
            objects: 0,
        }
    }
}

impl Iterator for WireStream {
    type Item = WireOp;

    fn next(&mut self) -> Option<WireOp> {
        if self.block.is_empty() {
            self.block = WIRE_BLOCK.to_vec();
            shuffle(&mut self.rng, &mut self.block);
        }
        let kind = self.block.pop()?;
        let key = self.rng.index(WIRE_KEYS);
        let exec_size = (kind == WireKind::BinObject)
            .then(|| {
                self.objects += 1;
                self.objects.is_multiple_of(WIRE_EXEC_EVERY)
            })
            .filter(|&e| e)
            .map(|_| {
                let (lo, hi) = run_sizes(wire_lang(key));
                self.rng.range_i64(lo, hi)
            });
        Some(WireOp {
            kind,
            key,
            exec_size,
        })
    }
}

// ---- residual-run --------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResOp {
    /// Index into the residual catalog.
    pub entry: usize,
    /// Index into that entry's input pool.
    pub input: usize,
}

pub struct ResStream {
    rng: Rng,
    entries: usize,
    pool: usize,
}

impl ResStream {
    pub fn new(seed: u64, entries: usize, pool: usize) -> Self {
        ResStream {
            rng: Rng::new(seed ^ 0x2e5_1d0a1),
            entries,
            pool,
        }
    }
}

impl Iterator for ResStream {
    type Item = ResOp;

    fn next(&mut self) -> Option<ResOp> {
        Some(ResOp {
            entry: self.rng.index(self.entries),
            input: self.rng.index(self.pool),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let cold = |s| ColdStream::new(s).take(512).collect::<Vec<_>>();
        assert_eq!(cold(7), cold(7));
        assert_ne!(cold(7), cold(8));
        let wire = |s| WireStream::new(s).take(512).collect::<Vec<_>>();
        assert_eq!(wire(7), wire(7));
        assert_ne!(wire(7), wire(8));
        assert_eq!(wire_working_set(7), wire_working_set(7));
        assert_ne!(wire_working_set(7), wire_working_set(8));
        let res = |s| ResStream::new(s, 10, 12).take(512).collect::<Vec<_>>();
        assert_eq!(res(7), res(7));
        assert_ne!(res(7), res(8));
        let strat = |s| stratified(&mut Rng::new(s), 12, 64, 640);
        assert_eq!(strat(7), strat(7));
        assert_ne!(strat(7), strat(8));
    }

    #[test]
    fn class_shares_are_exact_per_block() {
        let ops: Vec<ColdOp> = ColdStream::new(3).take(16 * 40).collect();
        let redefines = ops.iter().filter(|o| o.kind == ColdKind::Redefine).count();
        assert_eq!(redefines, 40);
        let mut salts: Vec<u64> = ops.iter().map(|o| o.salt).collect();
        salts.dedup();
        assert_eq!(
            salts.len(),
            ops.len(),
            "every cold request is a distinct key"
        );
        let wire: Vec<WireOp> = WireStream::new(3).take(20 * 40).collect();
        let http = wire.iter().filter(|o| o.kind == WireKind::Http).count();
        assert_eq!(http, 3 * 40);
    }

    #[test]
    fn stratified_covers_every_subrange() {
        let mut v = stratified(&mut Rng::new(1), 10, 100, 200);
        v.sort_unstable();
        for (j, x) in v.iter().enumerate() {
            assert!((100 + 10 * j..100 + 10 * (j + 1)).contains(x), "{v:?}");
        }
    }
}
