//! The versioned program registry: logical names, epochs, and
//! invalidation backedges.
//!
//! A long-lived server must survive a program being *redefined*. The
//! digest-keyed cache alone cannot: stale specializations live forever
//! under their old digest, and nothing connects them to the source they
//! were derived from. The registry makes that derivation link a
//! first-class, revocable artifact:
//!
//! * every program registered under a logical name carries a
//!   monotonically increasing [`Epoch`];
//! * every cache entry published on behalf of a registered program is
//!   recorded here as a *dependent* of its `(name, epoch)` — the
//!   invalidation backedge;
//! * [`Registry::redefine`] atomically bumps the epoch, swaps the
//!   source, and hands back exactly the dependent keys so the service
//!   can drop them — no full-cache flush, unrelated programs untouched;
//! * an in-flight single-flight leader for the old epoch completes (its
//!   waiters legitimately predate the redefinition and share its
//!   result), but its publication goes through
//!   [`Registry::publish_if_live`], which refuses to cache into a dead
//!   generation — the tombstone: finished, served once, never cached,
//!   never served again.
//!
//! Lock order: the registry mutex is always acquired **before** any
//! cache shard mutex (`publish_if_live` runs the shard insert inside
//! the registry critical section). Redefinition takes the registry
//! lock alone and removes dependents afterwards — a racing old-epoch
//! publication is already excluded by the epoch check, so the sweep
//! needs no atomicity with the bump.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use two4one::{obs, Epoch, GenExt};

use crate::cache::{lock, Key};

/// A live `(name, epoch)` pair a request resolved against, carried from
/// resolution to publication.
pub(crate) type Backedge = (Arc<str>, Epoch);

/// What one registration (generation) of a program tracks.
#[derive(Debug)]
struct Registration {
    epoch: Epoch,
    /// The generation's extension. Its staged program lives inside it
    /// (staged by the first fill, or adopted from a `.t4og` snapshot), so
    /// a redefinition, which swaps the extension, retires the staged
    /// program with its generation.
    ext: GenExt,
    /// Cache keys published for this generation — the invalidation
    /// backedges. A set, because restore and re-publication after
    /// eviction may record the same key twice.
    dependents: HashSet<Key>,
}

/// The result of [`crate::SpecService::redefine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedefineOutcome {
    /// The new live epoch of the program.
    pub epoch: Epoch,
    /// Cached specializations of the previous generations that were
    /// invalidated (dropped from the cache) by this redefinition.
    pub invalidated: u64,
}

#[derive(Debug)]
pub(crate) struct Registry {
    programs: Mutex<HashMap<Arc<str>, Registration>>,
    /// Number of registered logical programs (`t4o_programs_registered`).
    registered_gauge: obs::Gauge,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(obs::Gauge::new())
    }
}

impl Registry {
    pub(crate) fn new(registered_gauge: obs::Gauge) -> Self {
        Registry {
            programs: Mutex::new(HashMap::new()),
            registered_gauge,
        }
    }

    /// Registers `ext` under `name`. Idempotent when the program is
    /// already live with the same cache identity (same source, entry,
    /// and options): the current epoch is returned and nothing is
    /// invalidated. Different content behaves exactly like
    /// [`Registry::redefine`].
    pub(crate) fn register(&self, name: &str, ext: &GenExt) -> (Epoch, Vec<Key>, bool) {
        let mut map = lock(&self.programs);
        if let Some(reg) = map.get(name) {
            if reg.ext.cache_identity() == ext.cache_identity() && reg.ext.entry() == ext.entry() {
                return (reg.epoch, Vec::new(), false);
            }
        }
        let (epoch, victims) = self.bump(&mut map, name, ext);
        (epoch, victims, true)
    }

    /// Redefines `name`: bumps the epoch unconditionally (even for
    /// byte-identical source — the caller asked for a new generation)
    /// and returns the new epoch plus every dependent key of the old
    /// generations, for the service to drop. A name never seen before
    /// simply starts at [`Epoch::FIRST`].
    pub(crate) fn redefine(&self, name: &str, ext: &GenExt) -> (Epoch, Vec<Key>) {
        let mut map = lock(&self.programs);
        self.bump(&mut map, name, ext)
    }

    fn bump(
        &self,
        map: &mut HashMap<Arc<str>, Registration>,
        name: &str,
        ext: &GenExt,
    ) -> (Epoch, Vec<Key>) {
        match map.get_mut(name) {
            Some(reg) => {
                reg.epoch = reg.epoch.next();
                reg.ext = ext.clone();
                let victims = reg.dependents.drain().collect();
                (reg.epoch, victims)
            }
            None => {
                map.insert(
                    Arc::from(name),
                    Registration {
                        epoch: Epoch::FIRST,
                        ext: ext.clone(),
                        dependents: HashSet::new(),
                    },
                );
                self.registered_gauge.add(1);
                (Epoch::FIRST, Vec::new())
            }
        }
    }

    /// The live `(name, epoch, extension)` of `name`, if registered. The
    /// name comes back as the registry's interned `Arc<str>` (the one
    /// the backedge will carry), and the extension is a cheap clone (its
    /// heavy parts are shared behind `Arc`s), so a redefinition racing
    /// this request cannot swap the source out from under the
    /// specializer mid-fill.
    pub(crate) fn resolve(&self, name: &str) -> Option<(Arc<str>, Epoch, GenExt)> {
        let map = lock(&self.programs);
        map.get_key_value(name)
            .map(|(interned, reg)| (interned.clone(), reg.epoch, reg.ext.clone()))
    }

    /// The live epoch of `name`, if registered.
    pub(crate) fn epoch_of(&self, name: &str) -> Option<Epoch> {
        lock(&self.programs).get(name).map(|reg| reg.epoch)
    }

    /// Every registered extension whose staged program exists, with its
    /// name and live epoch: what a `.t4og` snapshot records. Sorted by
    /// name for deterministic snapshots.
    pub(crate) fn staged_entries(&self) -> Vec<(Arc<str>, Epoch, GenExt)> {
        let map = lock(&self.programs);
        let mut out: Vec<_> = map
            .iter()
            .filter(|(_, reg)| reg.ext.is_staged())
            .map(|(name, reg)| (name.clone(), reg.epoch, reg.ext.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The live epoch and extension of `name` **iff** its registered
    /// cache identity and entry match. Snapshot restore uses this: epochs
    /// are per-process counters, so a record from another process is
    /// judged by content identity and rebased onto the live epoch, not
    /// compared by raw epoch number.
    pub(crate) fn live_for_identity(
        &self,
        name: &str,
        identity: &str,
        entry: &str,
    ) -> Option<(Epoch, GenExt)> {
        let map = lock(&self.programs);
        let reg = map.get(name)?;
        if reg.ext.cache_identity() == identity && reg.ext.entry().as_str() == entry {
            Some((reg.epoch, reg.ext.clone()))
        } else {
            None
        }
    }

    /// Every registered program as `(name, epoch)`, sorted by name.
    pub(crate) fn programs(&self) -> Vec<(Arc<str>, Epoch)> {
        let map = lock(&self.programs);
        let mut out: Vec<(Arc<str>, Epoch)> = map
            .iter()
            .map(|(name, reg)| (name.clone(), reg.epoch))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Runs `publish` (a cache-shard insert) iff `backedge` is still the
    /// live generation, recording `key` as a dependent; `None` means the
    /// generation died while the fill ran and nothing was published —
    /// the tombstone path. Anonymous publications (no backedge) always
    /// proceed. The registry lock is held across `publish`, so a
    /// concurrent `redefine` either sees the key in `dependents` or the
    /// epoch check here sees the new epoch — a stale entry can never
    /// slip past both.
    pub(crate) fn publish_if_live<T>(
        &self,
        backedge: Option<&Backedge>,
        key: &Key,
        publish: impl FnOnce() -> T,
    ) -> Option<T> {
        let Some((name, epoch)) = backedge else {
            return Some(publish());
        };
        let mut map = lock(&self.programs);
        match map.get_mut(name.as_ref()) {
            Some(reg) if reg.epoch == *epoch => {
                let out = publish();
                reg.dependents.insert(key.clone());
                Some(out)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one::{Division, Pgg, BT};

    fn ext(body: &str) -> GenExt {
        let pgg = Pgg::new();
        let program = pgg
            .parse(&format!("(define (f s d) {body})"))
            .expect("parse");
        pgg.cogen(&program, "f", &Division::new([BT::Static, BT::Dynamic]))
            .expect("cogen")
    }

    #[test]
    fn register_is_idempotent_for_identical_content() {
        let r = Registry::default();
        let e = ext("(+ s d)");
        let (first, victims, changed) = r.register("P", &e);
        assert_eq!(first, Epoch::FIRST);
        assert!(victims.is_empty());
        assert!(changed);
        let (again, victims, changed) = r.register("P", &e.clone());
        assert_eq!(again, Epoch::FIRST);
        assert!(victims.is_empty());
        assert!(!changed);
    }

    #[test]
    fn register_with_new_content_bumps_like_redefine() {
        let r = Registry::default();
        r.register("P", &ext("(+ s d)"));
        let (epoch, _, changed) = r.register("P", &ext("(* s d)"));
        assert_eq!(epoch, Epoch::FIRST.next());
        assert!(changed);
    }

    #[test]
    fn redefine_always_bumps_and_drains_dependents() {
        let r = Registry::default();
        let e = ext("(+ s d)");
        let (epoch, _, _) = r.register("P", &e);
        let name: Arc<str> = Arc::from("P");
        let key = Key::versioned(&name, epoch, e.cache_identity(), "f", "(1)");
        let published = r.publish_if_live(Some(&(name.clone(), epoch)), &key, || 7);
        assert_eq!(published, Some(7));
        // Same source again — the caller asked for a new generation.
        let (e2, victims) = r.redefine("P", &e);
        assert_eq!(e2, epoch.next());
        assert_eq!(victims, vec![key]);
        // Dependents were drained: the next redefine has none to return.
        let (_, victims) = r.redefine("P", &e);
        assert!(victims.is_empty());
    }

    #[test]
    fn publish_into_a_dead_epoch_is_tombstoned() {
        let r = Registry::default();
        let e = ext("(+ s d)");
        let (old, _, _) = r.register("P", &e);
        let name: Arc<str> = Arc::from("P");
        r.redefine("P", &ext("(* s d)"));
        let key = Key::versioned(&name, old, e.cache_identity(), "f", "(1)");
        let mut ran = false;
        let out = r.publish_if_live(Some(&(name, old)), &key, || ran = true);
        assert_eq!(out, None);
        assert!(!ran, "tombstoned publication must not touch the cache");
    }

    #[test]
    fn identity_check_rebases_only_matching_content() {
        let r = Registry::default();
        let e = ext("(+ s d)");
        r.register("P", &e);
        let live = r.live_for_identity("P", e.cache_identity(), "f");
        assert_eq!(live.map(|(epoch, _)| epoch), Some(Epoch::FIRST));
        assert!(r.live_for_identity("P", "something else", "f").is_none());
        assert!(r.live_for_identity("P", e.cache_identity(), "g").is_none());
        assert!(r
            .live_for_identity("unknown", e.cache_identity(), "f")
            .is_none());
    }

    #[test]
    fn resolve_names_and_epochs() {
        let r = Registry::default();
        assert!(r.resolve("P").is_none());
        assert!(r.epoch_of("P").is_none());
        r.register("P", &ext("(+ s d)"));
        r.register("Q", &ext("(- s d)"));
        r.redefine("Q", &ext("(* s d)"));
        assert_eq!(r.epoch_of("P"), Some(Epoch::FIRST));
        assert_eq!(r.epoch_of("Q"), Some(Epoch::FIRST.next()));
        let listing = r.programs();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0].0.as_ref(), "P");
        assert_eq!(listing[1].0.as_ref(), "Q");
        let (name, epoch, resolved) = r.resolve("Q").expect("registered");
        assert_eq!(name.as_ref(), "Q");
        assert_eq!(epoch, Epoch::FIRST.next());
        assert_eq!(resolved.entry().as_str(), "f");
    }
}
