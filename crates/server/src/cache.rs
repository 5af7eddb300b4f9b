//! The sharded specialization-result cache.
//!
//! Layout: `shards` independent hash maps, each behind its own mutex, so
//! concurrent requests for different keys proceed without contention.
//! A shard is picked by the key's 64-bit digest; *within* a shard the map
//! is keyed by the **full** key (rendered program, entry, the canonical
//! bytes of the static arguments), so two different programs whose
//! digests happen to collide can never alias each other's residual code —
//! the digest is a routing and hashing accelerator, never an identity.
//!
//! Each occupied slot is either `Ready` (a finished result plus LRU
//! bookkeeping) or `InFlight` (a single-flight rendezvous: the first
//! requester of a key specializes, everyone else arriving before it
//! finishes blocks on the flight's condvar and shares the one result).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use two4one::{CacheIdentity, CancelToken, Epoch};
use two4one_syntax::symbol::fnv1a;

use crate::SpecOutcome;

/// Locks a mutex, recovering from poisoning (shard state is always
/// consistent: every mutation happens fully inside one critical section).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ends each part of a key digest: a byte UTF-8 text never contains, so
/// `("ab","c")` and `("a","bc")` digest apart. (The statics are not text,
/// but their canonical bytes delimit themselves.)
const SEP: &[u8] = &[0xff];

/// Continues the FNV-1a state `h` over one key part and its separator.
fn digest_part(h: u64, part: &[u8]) -> u64 {
    fnv1a(fnv1a(h, part), SEP)
}

/// Full identity of a specialization request.
///
/// Equality compares every field; the precomputed digest only serves as
/// the hash and the shard selector.
#[derive(Debug, Clone)]
pub(crate) struct Key {
    pub(crate) digest: u64,
    /// Digest over (program, entry) only — shared by all static-argument
    /// variants of one specialization target. The circuit breaker tracks
    /// failure streaks at this granularity. Not part of identity.
    pub(crate) program_digest: u64,
    pub(crate) program: Arc<str>,
    pub(crate) entry: Arc<str>,
    /// The canonical bytes of the static arguments ([`crate::Statics`]).
    pub(crate) statics: Arc<[u8]>,
    /// Invalidation backedge: the logical registry name and epoch this
    /// result was specialized under, or `None` for anonymous requests
    /// (callers holding a raw [`two4one::GenExt`]). Part of identity —
    /// re-registering identical source under a new epoch must not alias
    /// the old generation's entries.
    pub(crate) backedge: Option<(Arc<str>, Epoch)>,
}

impl Key {
    /// The key of `statics` for `entry` of the program with identity
    /// `program`, whose text the key shares and whose digest it continues
    /// from: only the entry and the statics are hashed here.
    pub(crate) fn new(program: &CacheIdentity, entry: &str, statics: Arc<[u8]>) -> Self {
        // The identity's digest covers its text; one separator after it
        // makes `program_digest` the digest of the parts (program, entry).
        let program_digest = digest_part(fnv1a(program.digest(), SEP), entry.as_bytes());
        Key {
            digest: digest_part(program_digest, &statics),
            program_digest,
            program: program.text().clone(),
            entry: Arc::from(entry),
            statics,
            backedge: None,
        }
    }

    /// A key carrying a registry backedge: same content identity as
    /// [`Key::new`], plus the `(name, epoch)` of the registration the
    /// request resolved. The epoch is folded into the digest so two
    /// generations of one program never share a slot.
    pub(crate) fn versioned(
        name: &Arc<str>,
        epoch: Epoch,
        program: &CacheIdentity,
        entry: &str,
        statics: Arc<[u8]>,
    ) -> Self {
        let mut key = Key::new(program, entry, statics);
        key.digest = digest_part(
            digest_part(key.digest, name.as_bytes()),
            &epoch.get().to_le_bytes(),
        );
        key.backedge = Some((name.clone(), epoch));
        key
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest
            && self.entry == other.entry
            && self.statics == other.statics
            && self.program == other.program
            && self.backedge == other.backedge
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// Single-flight rendezvous for one in-progress specialization.
#[derive(Debug, Default)]
pub(crate) struct Flight {
    /// `None` while the leader is still working; then the shared result
    /// (errors travel as rendered messages, since engine errors are not
    /// `Clone`).
    result: Mutex<Option<Result<Arc<SpecOutcome>, String>>>,
    done: Condvar,
}

impl Flight {
    /// Publishes the leader's result and wakes all waiters.
    pub(crate) fn complete(&self, r: Result<Arc<SpecOutcome>, String>) {
        *lock(&self.result) = Some(r);
        self.done.notify_all();
    }

    /// Blocks until the leader publishes, `until` passes, or the waiter's
    /// own [`CancelToken`] fires: a coalesced waiter whose client
    /// disconnects detaches from the flight instead of blocking until the
    /// deadline. Giving up is strictly waiter-side — the leader keeps
    /// running and publishes for everyone else (a waiter's deadline or
    /// token never cancels someone else's request). A published result
    /// always wins over an expired deadline or a fired token: delivering
    /// it is free and the caller may still be able to use it.
    pub(crate) fn wait_cancellable(
        &self,
        until: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> FlightWait {
        // With a token present we wake in short ticks to notice the token
        // firing; condvar wakeups from `complete` still arrive instantly.
        const TICK: Duration = Duration::from_millis(10);
        // "No deadline" still needs a finite wait_timeout argument when
        // ticking; one hour is indistinguishable from forever here.
        const UNBOUNDED: Duration = Duration::from_secs(3600);
        let mut guard = lock(&self.result);
        loop {
            if let Some(r) = guard.as_ref() {
                return FlightWait::Done(r.clone());
            }
            if let Some(token) = cancel {
                if token.is_stopped() {
                    return FlightWait::Detached;
                }
            }
            let now = Instant::now();
            let mut step = match until {
                Some(u) if now >= u => return FlightWait::TimedOut,
                Some(u) => u - now,
                None => UNBOUNDED,
            };
            if cancel.is_some() {
                step = step.min(TICK);
            }
            guard = self
                .done
                .wait_timeout(guard, step)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Why [`Flight::wait_cancellable`] returned.
#[derive(Debug)]
pub(crate) enum FlightWait {
    /// The leader published; the shared result.
    Done(Result<Arc<SpecOutcome>, String>),
    /// The waiter's deadline passed before the leader published.
    TimedOut,
    /// The waiter's cancellation token fired; it detached from the flight
    /// without affecting the leader.
    Detached,
}

/// Where a cached entry stands in tiered promotion.
///
/// `Pending` is a Tier-0 generic image (fuel-0 fallback recipe, published
/// immediately on a cold miss) counting hits toward its promotion.
/// `Queued` is one whose promotion candidate is queued or running, which
/// gates duplicate enqueues. `Final` is everything promotion leaves
/// alone: a request-path specialization, a restored snapshot record, a
/// promotion's swapped-in image (clean or still starved at the top of
/// the ladder), and a generic image whose promotion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Promotion {
    Pending,
    Queued,
    Final,
}

/// A finished, cached result.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) outcome: Arc<SpecOutcome>,
    /// Logical access time (global ticket counter), for LRU-ish eviction.
    pub(crate) last_access: u64,
    /// Code-size units this entry charges against the shard budget.
    size: usize,
    /// Serve-path hits since publication — combined with the image's
    /// execution profile to decide promotion.
    pub(crate) hits: u64,
    pub(crate) promotion: Promotion,
}

impl Entry {
    pub(crate) fn new(outcome: Arc<SpecOutcome>, last_access: u64, promotion: Promotion) -> Self {
        Entry {
            size: outcome.code_size().max(1),
            outcome,
            last_access,
            hits: 0,
            promotion,
        }
    }
}

#[derive(Debug)]
pub(crate) enum Slot {
    Ready(Entry),
    InFlight(Arc<Flight>),
}

/// One shard: a map, the code-size total of its `Ready` entries, and the
/// budgets that total and the entry count are held to. Every write of a
/// `Ready` entry goes through [`Shard::put`] or [`Shard::remove_ready`],
/// which keep the total; the map itself is only probed and used for
/// in-flight slots outside this module.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) map: HashMap<Key, Slot>,
    code_size: usize,
    max_entries: usize,
    code_budget: Option<usize>,
}

impl Shard {
    pub(crate) fn new(max_entries: usize, code_budget: Option<usize>) -> Self {
        Shard {
            map: HashMap::new(),
            code_size: 0,
            max_entries,
            code_budget,
        }
    }

    /// Stores `entry` under `key`, replacing whatever slot was there (the
    /// leader's in-flight slot, or the entry a promotion supersedes), and
    /// evicts down to the budgets. Returns the number of entries evicted.
    pub(crate) fn put(&mut self, key: Key, entry: Entry) -> u64 {
        self.code_size += entry.size;
        if let Some(Slot::Ready(old)) = self.map.insert(key, Slot::Ready(entry)) {
            self.code_size -= old.size.min(self.code_size);
        }
        self.evict()
    }

    /// Drops `key`'s `Ready` entry, if it has one (an in-flight slot
    /// belongs to its leader and is left alone). Returns whether an entry
    /// was dropped.
    pub(crate) fn remove_ready(&mut self, key: &Key) -> bool {
        if !matches!(self.map.get(key), Some(Slot::Ready(_))) {
            return false;
        }
        if let Some(Slot::Ready(e)) = self.map.remove(key) {
            self.code_size -= e.size.min(self.code_size);
        }
        true
    }

    fn ready_count(&self) -> usize {
        self.map
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Evicts least-recently-used `Ready` entries until the shard is
    /// within its entry and code budgets. A single entry larger than the
    /// whole code budget is kept (evicting it would make the hit rate
    /// zero without freeing space for anything usable); in-flight slots
    /// are never evicted. Returns the number of entries removed.
    fn evict(&mut self) -> u64 {
        let mut evicted = 0;
        loop {
            let ready = self.ready_count();
            let over_count = ready > self.max_entries;
            let over_size = match self.code_budget {
                Some(b) => self.code_size > b && ready > 1,
                None => false,
            };
            if !over_count && !over_size {
                return evicted;
            }
            let victim = self
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(e) => Some((k.clone(), e.last_access)),
                    Slot::InFlight(_) => None,
                })
                .min_by_key(|(_, t)| *t)
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    self.remove_ready(&k);
                    evicted += 1;
                }
                None => return evicted,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one::SpecStats;
    use two4one::{Image, Symbol};

    fn dummy_outcome() -> Arc<SpecOutcome> {
        Arc::new(SpecOutcome {
            image: Arc::new(Image {
                templates: Vec::new(),
                entry: Symbol::new("e"),
            }),
            stats: SpecStats::default(),
            profile: Arc::new(two4one::ExecProfile::default()),
        })
    }

    fn ready(tick: u64, size: usize) -> Entry {
        let mut entry = Entry::new(dummy_outcome(), tick, Promotion::Final);
        entry.size = size;
        entry
    }

    /// The key bytes of the statics in `text`.
    fn bytes(text: &str) -> Arc<[u8]> {
        let statics = crate::Statics::scan(text, &two4one::Limits::none()).expect("statics scan");
        statics.bytes().clone()
    }

    /// An anonymous key for a program identity rendered as `program`,
    /// with the statics in `statics`.
    fn anon(program: &str, entry: &str, statics: &str) -> Key {
        Key::new(&CacheIdentity::new(program), entry, bytes(statics))
    }

    #[test]
    fn digest_separates_parts() {
        let (a, b) = (anon("ab", "c", "x"), anon("a", "bc", "x"));
        assert_ne!(a.program_digest, b.program_digest);
        assert_ne!(a.digest, b.digest);
        assert_ne!(anon("p", "ab", "c").digest, anon("p", "a", "bc").digest);
        assert_eq!(anon("x", "y", "z").digest, anon("x", "y", "z").digest);
    }

    #[test]
    fn keys_share_the_identity_text_and_continue_its_digest() {
        let identity = CacheIdentity::new("(define (f x) x)");
        let key = Key::new(&identity, "f", bytes("(1)"));
        assert!(Arc::ptr_eq(&key.program, identity.text()));
        // The same digests as hashing every part, identity included.
        let full = |parts: &[&[u8]]| {
            parts
                .iter()
                .fold(two4one_syntax::symbol::FNV1A_BASIS, |h, p| {
                    digest_part(h, p)
                })
        };
        let (text, entry) = (b"(define (f x) x)".as_slice(), b"f".as_slice());
        assert_eq!(key.program_digest, full(&[text, entry]));
        assert_eq!(key.digest, full(&[text, entry, &bytes("(1)")]));
    }

    #[test]
    fn statics_that_print_alike_are_different_keys() {
        let identity = CacheIdentity::new("(define (pick s d) s)");
        let sym = crate::Statics::encode(&[two4one::Datum::sym("12")]);
        let int = crate::Statics::encode(&[two4one::Datum::Int(12)]);
        let a = Key::new(&identity, "pick", sym.bytes().clone());
        let b = Key::new(&identity, "pick", int.bytes().clone());
        assert_ne!(a, b);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn equal_digests_do_not_collide_in_a_shard() {
        // Two different programs forced onto the same digest: the map must
        // keep them apart because Key equality compares full contents.
        let mut a = anon("(define (f x) x)", "f", "(1)");
        let mut b = anon("(define (f x) (+ x 1))", "f", "(1)");
        (a.digest, b.digest) = (42, 42);
        assert_ne!(a, b);
        let mut shard = Shard::new(8, None);
        shard.put(a.clone(), ready(0, 1));
        shard.put(b.clone(), ready(1, 1));
        assert_eq!(shard.map.len(), 2);
        assert!(matches!(shard.map.get(&a), Some(Slot::Ready(_))));
        assert!(matches!(shard.map.get(&b), Some(Slot::Ready(_))));
    }

    #[test]
    fn epochs_of_one_program_are_different_keys() {
        let name: Arc<str> = Arc::from("P");
        let program = CacheIdentity::new("(define (f x) x)");
        let a = Key::versioned(&name, Epoch::FIRST, &program, "f", bytes("(1)"));
        let b = Key::versioned(&name, Epoch::FIRST.next(), &program, "f", bytes("(1)"));
        // Identical source under a new epoch must not alias the old
        // generation's slot, by digest or by equality.
        assert_ne!(a, b);
        assert_ne!(a.digest, b.digest);
        // Nor does a versioned key alias the anonymous key for the same
        // content.
        let anonymous = anon("(define (f x) x)", "f", "(1)");
        assert_ne!(a, anonymous);
    }

    #[test]
    fn same_program_different_statics_are_different_keys() {
        let a = anon("(define (f s d) s)", "f", "(1)");
        let b = anon("(define (f s d) s)", "f", "(2)");
        assert_ne!(a, b);
    }

    #[test]
    fn eviction_removes_oldest_ready_first() {
        let mut shard = Shard::new(2, None);
        assert_eq!(shard.put(anon("p1", "e", "()"), ready(5, 10)), 0);
        assert_eq!(shard.put(anon("p2", "e", "()"), ready(1, 10)), 0);
        assert_eq!(shard.put(anon("p3", "e", "()"), ready(9, 10)), 1);
        assert!(!shard.map.contains_key(&anon("p2", "e", "()")));
        assert_eq!(shard.code_size, 20);
    }

    #[test]
    fn eviction_never_removes_inflight() {
        let mut shard = Shard::new(0, None);
        shard
            .map
            .insert(anon("p1", "e", "()"), Slot::InFlight(Arc::default()));
        assert_eq!(shard.put(anon("p2", "e", "()"), ready(1, 10)), 1);
        assert!(shard.map.contains_key(&anon("p1", "e", "()")));
        assert!(!shard.map.contains_key(&anon("p2", "e", "()")));
    }

    #[test]
    fn oversized_single_entry_survives() {
        let mut shard = Shard::new(8, Some(10));
        assert_eq!(shard.put(anon("p1", "e", "()"), ready(1, 100)), 0);
        assert_eq!(shard.map.len(), 1);
        assert_eq!(shard.code_size, 100);
    }

    #[test]
    fn lock_recovers_from_poisoning() {
        // A panic while holding a shard lock poisons the mutex; `lock`
        // must keep serving (shard mutations are single-critical-section,
        // so the state behind a poisoned lock is still consistent).
        let shard = Arc::new(Mutex::new(Shard::new(8, None)));
        let poisoner = shard.clone();
        let panicked = std::thread::spawn(move || {
            let mut guard = poisoner.lock().expect("first lock");
            guard.put(anon("p", "e", "()"), ready(0, 1));
            panic!("injected fault: die holding the shard lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(shard.is_poisoned());
        let guard = lock(&shard);
        assert!(guard.map.contains_key(&anon("p", "e", "()")));
    }

    #[test]
    fn flight_wait_until_times_out_and_still_delivers_later() {
        let f = Arc::new(Flight::default());
        // Deadline already passed and nothing published: give up.
        assert!(matches!(
            f.wait_cancellable(Some(Instant::now()), None),
            FlightWait::TimedOut
        ));
        f.complete(Ok(dummy_outcome()));
        // Published: even an expired deadline returns the result.
        assert!(matches!(
            f.wait_cancellable(Some(Instant::now()), None),
            FlightWait::Done(Ok(_))
        ));
        assert!(matches!(
            f.wait_cancellable(None, None),
            FlightWait::Done(Ok(_))
        ));
    }

    #[test]
    fn cancelled_waiter_detaches_without_touching_leader() {
        // Regression: a network client that disconnects while parked as a
        // coalesced waiter must detach promptly — and the flight (the
        // leader's rendezvous) must stay fully usable for everyone else.
        let f = Arc::new(Flight::default());
        let token = CancelToken::new();
        let (f2, t2) = (f.clone(), token.clone());
        let waiter = std::thread::spawn(move || {
            let far = Some(Instant::now() + Duration::from_secs(30));
            f2.wait_cancellable(far, Some(&t2))
        });
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
        let got = waiter.join().expect("waiter thread");
        assert!(matches!(got, FlightWait::Detached));
        // The leader publishes afterwards; other waiters still rendezvous.
        f.complete(Ok(dummy_outcome()));
        assert!(matches!(
            f.wait_cancellable(None, Some(&token)),
            // Published result wins even though this token already fired.
            FlightWait::Done(Ok(_))
        ));
        assert!(matches!(
            f.wait_cancellable(None, None),
            FlightWait::Done(Ok(_))
        ));
    }

    #[test]
    fn cancellable_wait_without_token_matches_wait_until() {
        let f = Arc::new(Flight::default());
        assert!(matches!(
            f.wait_cancellable(Some(Instant::now()), None),
            FlightWait::TimedOut
        ));
        f.complete(Ok(dummy_outcome()));
        assert!(matches!(
            f.wait_cancellable(Some(Instant::now()), None),
            FlightWait::Done(Ok(_))
        ));
    }

    #[test]
    fn flight_rendezvous_shares_result() {
        let f = Arc::new(Flight::default());
        let f2 = f.clone();
        let waiter = std::thread::spawn(move || f2.wait_cancellable(None, None));
        f.complete(Ok(dummy_outcome()));
        assert!(matches!(
            waiter.join().expect("waiter thread"),
            FlightWait::Done(Ok(_))
        ));
        // Late arrivals see the published result immediately.
        assert!(matches!(
            f.wait_cancellable(None, None),
            FlightWait::Done(Ok(_))
        ));
    }
}
