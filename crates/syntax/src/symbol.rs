//! Symbols, the global symbol interner, and fresh-name generation.
//!
//! A [`Symbol`] is a `NonZeroU32` id into a process-wide, append-only
//! intern table. Interning happens once per distinct name; from then on
//! every equality test, hash, ordering comparison, environment lookup,
//! free-variable-set operation, and memoization probe works on the id —
//! machine-word speed instead of string speed. This is what makes the
//! specialization hot path cheap enough for run-time code generation
//! (the paper's Sec. 6 economics): the specializer compares and hashes
//! symbols constantly, and none of those operations should ever touch
//! the characters of a name again after the first time it is seen.
//!
//! Names live for the lifetime of the process (the table is append-only
//! and never shrinks), which is the standard compiler-interner trade-off:
//! symbol universes are small — source identifiers plus gensyms — and the
//! payoff is that [`Symbol::as_str`] can hand out `&'static str`.
//!
//! Ordering ([`Ord`]) is **by id**, i.e. by first-intern order, not
//! lexicographic. It is deterministic for a deterministic program (the
//! same sequence of interns yields the same ids) and consistent within a
//! process, which is all the engine needs: sorted free-variable lists and
//! B-tree iteration just need *a* total order that every pass agrees on.
//! On-disk formats (`.t4o` object files, cache snapshots) store names,
//! never ids, so ids are free to differ between processes.

use std::fmt;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

/// An identifier in source programs, abstract syntax, and generated code.
///
/// Symbols are `Copy`-cheap to clone (a 4-byte id internally) and compare
/// by identity in the global intern table, which coincides with comparing
/// by string content. They are `Send + Sync` so syntax trees can be moved
/// onto the large-stack worker threads used by the specializer.
///
/// # Example
///
/// ```
/// use two4one_syntax::Symbol;
/// let a = Symbol::new("eval");
/// let b = Symbol::new("eval");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "eval");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(NonZeroU32);

impl Symbol {
    /// Creates (interns) a symbol with the given name.
    pub fn new(name: &str) -> Self {
        Symbol(global().intern(name))
    }

    /// The symbol's name. Interned names live as long as the process, so
    /// the returned string needs no lifetime tie to `self`.
    pub fn as_str(&self) -> &'static str {
        global().name(self.0)
    }

    /// The raw intern id (stable within this process only; on-disk
    /// formats must store [`Symbol::as_str`] instead).
    pub fn id(&self) -> u32 {
        self.0.get()
    }

    /// A process-independent 64-bit digest of the symbol's *name*
    /// (FNV-1a over its bytes), computed once at intern time and cached.
    /// Structural hashes of data containing symbols (see
    /// `Datum::digest`) are built from this, so they depend only on
    /// content, never on interning order.
    pub fn digest(&self) -> u64 {
        global().digest(self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "'{}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(&s)
    }
}

// NOTE: deliberately *no* `Borrow<str> for Symbol`. With id-based
// hashing, `hash(Symbol) != hash(str)`, so a `HashMap<Symbol, _>` can
// never be probed by `&str`; a `Borrow` impl would make such lookups
// compile and then silently miss. Intern explicitly instead:
// `map.get(&Symbol::new(name))`.

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// The 64-bit FNV-1a offset basis: the [`fnv1a`] state before any byte.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues a 64-bit FNV-1a hash from state `h` over `bytes`:
/// `fnv1a(FNV1A_BASIS, b)` is the FNV-1a digest of `b`, and feeding a
/// result back in hashes the concatenation. The workspace's one
/// byte-string hash: symbol names, string data, and the serving layer's
/// cache identities and keys.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One intern-table entry: the leaked name and its cached content digest.
#[derive(Clone, Copy)]
struct Entry {
    name: &'static str,
    digest: u64,
}

/// Number of name→id map shards. A power of two so shard selection is a
/// mask of the content digest.
const SHARDS: usize = 16;

/// A thread-safe, append-only symbol interner.
///
/// The global instance backs [`Symbol`]; independent instances exist so
/// tests can check determinism from a clean slate. Ids are handed out in
/// first-intern order, starting at 1 (`NonZeroU32` lets `Option<Symbol>`
/// stay 4 bytes).
///
/// The name→id map is split into `SHARDS` (16) independent locks, selected
/// by the name's content digest. A single global `RwLock` put every
/// intern — even warm fast-path reads — through one reader-count cache
/// line, and the specializer interns constantly from every worker; under
/// 4-thread cold traffic the resulting ping-pong made the parallel run
/// *slower* than the serial one. Sharding spreads both the reader counts
/// and the new-name (gensym-heavy) write locks. Id allocation stays in
/// the single `entries` append lock, so ids remain globally sequential
/// in first-intern order regardless of sharding — the determinism
/// contract on-disk formats and tests rely on.
pub struct Interner {
    /// name → id, for interning; sharded by content digest.
    shards: [RwLock<std::collections::HashMap<&'static str, NonZeroU32>>; SHARDS],
    /// id − 1 → entry, for `as_str`/`digest`. Entries are `Copy`, and the
    /// names are leaked, so readers copy an entry out and drop the lock.
    /// This is the single id-allocation point.
    entries: RwLock<Vec<Entry>>,
    /// Times a new-name insert found its shard's write lock held by
    /// another thread (surfaced as `t4o_intern_contention`).
    contended: AtomicU64,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            shards: [(); SHARDS].map(|()| RwLock::new(std::collections::HashMap::new())),
            entries: RwLock::new(Vec::new()),
            contended: AtomicU64::new(0),
        }
    }

    /// Interns `name`, returning its id. The first intern of a name
    /// assigns the next id; later interns (from any thread) return the
    /// same id.
    pub fn intern(&self, name: &str) -> NonZeroU32 {
        // The digest doubles as the shard selector and the cached content
        // digest stored on first intern.
        let digest = fnv1a(FNV1A_BASIS, name.as_bytes());
        let shard = &self.shards[digest as usize & (SHARDS - 1)];
        if let Some(id) = read(shard).get(name) {
            return *id;
        }
        // Slow path: take the shard's write lock (entries inside) and
        // re-check — another thread may have interned `name` meanwhile.
        let mut map = match shard.try_write() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                write(shard)
            }
        };
        if let Some(id) = map.get(name) {
            return *id;
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let mut entries = write(&self.entries);
        entries.push(Entry {
            name: leaked,
            digest,
        });
        // Table position n-1 ⇒ id n; a symbol table big enough to overflow
        // u32 is unreachable in practice (it would hold 4 billion names).
        let id = NonZeroU32::new(entries.len() as u32).unwrap_or(NonZeroU32::MIN);
        drop(entries);
        map.insert(leaked, id);
        id
    }

    /// Times a new-name insert had to wait for its shard's write lock.
    pub fn contention(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// The name behind `id`.
    fn name(&self, id: NonZeroU32) -> &'static str {
        self.entry(id).name
    }

    /// The cached content digest behind `id`.
    fn digest(&self, id: NonZeroU32) -> u64 {
        self.entry(id).digest
    }

    fn entry(&self, id: NonZeroU32) -> Entry {
        let entries = read(&self.entries);
        match entries.get(id.get() as usize - 1) {
            Some(e) => *e,
            // Unreachable for ids produced by this interner; keep it
            // panic-free anyway (robustness contract, DESIGN.md §7).
            None => Entry {
                name: "<bad-symbol-id>",
                digest: 0,
            },
        }
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        read(&self.entries).len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lock helpers that recover from poisoning: the interner's state is
/// always consistent (each mutation is completed inside one critical
/// section), so a panicking writer elsewhere must not wedge the table.
fn read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new)
}

/// Shard-lock contention observed by the process-wide interner: how many
/// new-name inserts found their shard's write lock held. Exposed so the
/// serving layer can surface it as a metric (`t4o_intern_contention`).
pub fn intern_contention() -> u64 {
    global().contention()
}

/// Number of distinct names interned by the process-wide interner.
pub fn interned_count() -> usize {
    global().len()
}

/// A deterministic fresh-name generator.
///
/// Generated names contain a `%`, which the [reader](crate::reader) never
/// produces inside identifiers read from source text that follows the
/// conventions of this workspace, so fresh names cannot capture user names.
///
/// The counter is atomic, so a single generator can be shared by reference
/// across threads and still never hand out the same name twice. Draws from
/// a single thread remain deterministic (`x%0`, `x%1`, ...).
///
/// # Example
///
/// ```
/// use two4one_syntax::Gensym;
/// let g = Gensym::new();
/// let a = g.fresh("x");
/// let b = g.fresh("x");
/// assert_ne!(a, b);
/// assert!(a.as_str().starts_with("x%"));
/// ```
#[derive(Debug, Default)]
pub struct Gensym {
    counter: AtomicU64,
}

impl Clone for Gensym {
    /// Snapshots the current counter; the clone continues independently.
    fn clone(&self) -> Self {
        Gensym {
            counter: AtomicU64::new(self.counter.load(Ordering::Relaxed)),
        }
    }
}

impl Gensym {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        Gensym {
            counter: AtomicU64::new(0),
        }
    }

    /// Returns a fresh symbol whose name starts with `base`.
    pub fn fresh(&self, base: &str) -> Symbol {
        // Strip an existing `%NNN` suffix so repeated renaming does not grow
        // names without bound.
        let stem = match base.find('%') {
            Some(i) => &base[..i],
            None => base,
        };
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        // Format into a stack buffer: stems are short identifiers, and the
        // specializer draws fresh names on its hot path.
        let mut buf = [0u8; 96];
        let mut w = Cursor {
            buf: &mut buf,
            at: 0,
        };
        use std::fmt::Write;
        if write!(w, "{stem}%{n}").is_ok() {
            let at = w.at;
            if let Ok(s) = std::str::from_utf8(&buf[..at]) {
                return Symbol::new(s);
            }
        }
        // Oversized stem: fall back to the heap.
        Symbol::new(&format!("{stem}%{n}"))
    }

    /// The number of names generated so far.
    pub fn count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

/// Minimal `fmt::Write` adapter over a stack buffer.
struct Cursor<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl fmt::Write for Cursor<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let bytes = s.as_bytes();
        if self.at + bytes.len() > self.buf.len() {
            return Err(fmt::Error);
        }
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn symbols_compare_by_content() {
        assert_eq!(Symbol::new("a"), Symbol::from("a"));
        assert_ne!(Symbol::new("a"), Symbol::new("b"));
    }

    #[test]
    fn ordering_is_total_and_id_based() {
        let a = Symbol::new("interner-ord-a");
        let b = Symbol::new("interner-ord-b");
        // First-intern order, not lexicographic: `a` was interned before
        // `b` in this test, but other tests may have interned either
        // earlier — the guarantee is a total order consistent with ids.
        assert_eq!(a.cmp(&b), a.id().cmp(&b.id()));
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn symbol_display_is_bare_name() {
        assert_eq!(Symbol::new("lambda").to_string(), "lambda");
    }

    #[test]
    fn symbol_is_small() {
        assert_eq!(std::mem::size_of::<Symbol>(), 4);
        assert_eq!(std::mem::size_of::<Option<Symbol>>(), 4);
    }

    #[test]
    fn digest_depends_on_content_only() {
        assert_eq!(
            Symbol::new("digest-probe").digest(),
            fnv1a(FNV1A_BASIS, b"digest-probe")
        );
        assert_ne!(
            Symbol::new("digest-probe").digest(),
            Symbol::new("digest-probe2").digest()
        );
    }

    #[test]
    fn fresh_interner_ids_are_deterministic() {
        // The same sequence of interns yields the same ids — the property
        // that makes symbol ids reproducible across runs of a
        // deterministic program.
        let names = ["eval", "apply", "x", "eval", "y%3", "apply"];
        let a: Vec<u32> = {
            let i = Interner::new();
            names.iter().map(|n| i.intern(n).get()).collect()
        };
        let b: Vec<u32> = {
            let i = Interner::new();
            names.iter().map(|n| i.intern(n).get()).collect()
        };
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3, 1, 4, 2]);
    }

    #[test]
    fn concurrent_interning_yields_one_id_per_name() {
        const THREADS: usize = 8;
        const NAMES: usize = 400;
        let interner = Interner::new();
        // Every thread interns the same name set (racing on each name);
        // all must agree on every id, and round-trip through the table.
        let per_thread: Vec<Vec<(String, u32)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        (0..NAMES)
                            .map(|i| {
                                let name = format!("sym-{i}");
                                let id = interner.intern(&name).get();
                                (name, id)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interner thread"))
                .collect()
        });
        let first = &per_thread[0];
        for got in &per_thread {
            assert_eq!(got, first, "threads disagree on interned ids");
        }
        let distinct: HashSet<u32> = first.iter().map(|(_, id)| *id).collect();
        assert_eq!(distinct.len(), NAMES);
        assert_eq!(interner.len(), NAMES);
        for (name, id) in first {
            let id = NonZeroU32::new(*id).expect("nonzero id");
            assert_eq!(interner.name(id), name.as_str(), "as_str round-trip");
        }
    }

    #[test]
    fn global_concurrent_interning_round_trips() {
        const THREADS: usize = 8;
        let syms: Vec<Vec<Symbol>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        (0..200)
                            .map(|i| Symbol::new(&format!("global-race-{i}")))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("symbol thread"))
                .collect()
        });
        for other in &syms[1..] {
            assert_eq!(other, &syms[0]);
        }
        for (i, s) in syms[0].iter().enumerate() {
            assert_eq!(s.as_str(), format!("global-race-{i}"));
        }
    }

    #[test]
    fn contention_counter_stays_zero_single_threaded() {
        let i = Interner::new();
        for n in 0..100 {
            i.intern(&format!("solo-{n}"));
        }
        assert_eq!(i.contention(), 0);
        // The global accessors exist and are monotone.
        let before = intern_contention();
        Symbol::new("contention-probe");
        assert!(intern_contention() >= before);
        assert!(interned_count() > 0);
    }

    #[test]
    fn gensym_is_fresh_and_deterministic() {
        let g = Gensym::new();
        let names: HashSet<_> = (0..100).map(|_| g.fresh("tmp")).collect();
        assert_eq!(names.len(), 100);
        let g2 = Gensym::new();
        assert_eq!(g2.fresh("tmp"), Symbol::new("tmp%0"));
        assert_eq!(g2.fresh("tmp"), Symbol::new("tmp%1"));
    }

    #[test]
    fn gensym_strips_previous_suffix() {
        let g = Gensym::new();
        let a = g.fresh("x");
        let b = g.fresh(a.as_str());
        assert_eq!(b.as_str(), "x%1");
    }

    #[test]
    fn gensym_survives_oversized_stems() {
        let g = Gensym::new();
        let stem = "s".repeat(200);
        let a = g.fresh(&stem);
        assert!(a.as_str().starts_with(&stem));
        assert!(a.as_str().ends_with("%0"));
    }

    #[test]
    fn gensym_clone_snapshots_counter() {
        let g = Gensym::new();
        g.fresh("a");
        let h = g.clone();
        assert_eq!(h.count(), 1);
        assert_eq!(h.fresh("a"), Symbol::new("a%1"));
    }

    #[test]
    fn gensym_is_unique_across_threads() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 1000;
        let g = Gensym::new();
        let names: Vec<Symbol> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| s.spawn(|| (0..PER_THREAD).map(|_| g.fresh("t")).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("gensym thread"))
                .collect()
        });
        let unique: HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), THREADS * PER_THREAD);
        assert_eq!(g.count(), (THREADS * PER_THREAD) as u64);
    }

    #[test]
    fn symbols_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Symbol>();
    }

    #[test]
    fn hashmap_lookup_requires_explicit_interning() {
        // `Borrow<str>` is gone on purpose: probe with an interned key.
        let mut m = std::collections::HashMap::new();
        m.insert(Symbol::new("k"), 1);
        assert_eq!(m.get(&Symbol::new("k")), Some(&1));
    }
}
