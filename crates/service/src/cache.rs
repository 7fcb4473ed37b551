//! The resident graph cache: parse once, serve many sessions.
//!
//! Since the `kdc_api` Session layer, this module is *only* the name-keyed
//! map the daemon protocol needs: each [`GraphEntry`] pairs a cache name
//! and parse cost with a [`kdc_api::Session`], and every solver-side
//! artifact (degeneracy peeling, resident CTCP reducers with LRU bounds,
//! best-known witnesses, the proven-optimal result memo) lives inside the
//! session where the CLI, the benches and embedders share the exact same
//! code path. Counters stay explicit — `parses` and per-entry `hits` here,
//! everything else via [`kdc_api::SessionCounters`] — so warm-vs-cold
//! claims are asserted, not inferred from timings.

use crate::sync::{rank, TrackedRwLock};
use kdc_api::Session;
use kdc_graph::Graph;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A cached graph: one resident solver session plus protocol bookkeeping.
#[derive(Debug)]
pub struct GraphEntry {
    /// Cache key this entry is stored under.
    pub name: String,
    /// Wall-clock cost of the original parse (what the warm path saves).
    pub parse_time: Duration,
    session: Session,
    hits: AtomicU64,
    /// Logical-clock stamp of the last lookup or insert, for LRU eviction.
    last_used: AtomicU64,
    /// Where the graph was parsed from plus the FNV-1a hash of the raw
    /// file bytes — the identity recovery revalidates against. `None` for
    /// entries inserted directly from memory (tests, benches), which the
    /// durable store therefore never persists.
    source: Option<(String, u64)>,
    /// Whether this entry's `Graph` meta record has been journaled this
    /// process (a lock-free once-latch; see `persist`).
    meta_journaled: AtomicBool,
}

impl GraphEntry {
    fn new(
        name: String,
        graph: Graph,
        parse_time: Duration,
        source: Option<(String, u64)>,
    ) -> Self {
        GraphEntry {
            name,
            parse_time,
            session: Session::new(graph),
            hits: AtomicU64::new(0),
            last_used: AtomicU64::new(0),
            source,
            meta_journaled: AtomicBool::new(false),
        }
    }

    /// The resident solver session — the single query surface every job
    /// runs through.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The parsed graph, shared with in-flight jobs.
    pub fn graph(&self) -> &Arc<Graph> {
        self.session.graph()
    }

    /// Successful cache lookups of this entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Source path and content hash, when the entry came from a file.
    pub fn source(&self) -> Option<(&str, u64)> {
        self.source.as_ref().map(|(p, h)| (p.as_str(), *h))
    }

    /// Flips the once-per-process meta-journal latch; `true` exactly once.
    pub fn claim_meta_journal(&self) -> bool {
        !self.meta_journaled.swap(true, Ordering::Relaxed)
    }
}

/// Name-keyed cache of [`GraphEntry`]s shared by every connection and
/// worker. Lookups take a shared (read) lock so concurrent `SOLVE`s on
/// different connections never serialize on the map; only `LOAD`/`UNLOAD`
/// take the exclusive lock. The lock is rank-checked against
/// `LOCK_ORDER.md` in debug builds and recovers from poisoning.
#[derive(Debug)]
pub struct GraphCache {
    entries: TrackedRwLock<HashMap<String, Arc<GraphEntry>>>,
    parses: AtomicU64,
    /// Maximum resident entries; 0 = unlimited (the default).
    capacity: AtomicUsize,
    /// Monotonic logical clock stamping every lookup/insert for LRU order.
    clock: AtomicU64,
    /// One slot: entries evicted, also `kdc_service_cache_evictions_total`.
    evictions: kdc_obs::CounterBlock<1>,
    faults_injected: kdc_obs::Counter,
}

/// The process-wide eviction series, registered once.
fn eviction_totals() -> &'static [kdc_obs::Counter; 1] {
    static TOTALS: OnceLock<[kdc_obs::Counter; 1]> = OnceLock::new();
    TOTALS
        .get_or_init(|| [kdc_obs::registry().register_counter("kdc_service_cache_evictions_total")])
}

impl Default for GraphCache {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphCache {
    /// An empty cache with unlimited capacity.
    pub fn new() -> Self {
        let r = kdc_obs::registry();
        GraphCache {
            entries: TrackedRwLock::new(rank::GRAPH_CACHE, "GraphCache::entries", HashMap::new()),
            parses: AtomicU64::new(0),
            capacity: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            evictions: kdc_obs::CounterBlock::new(eviction_totals()),
            faults_injected: r.register_counter("kdc_service_faults_injected_total"),
        }
    }

    /// Caps the cache at `capacity` resident graphs (0 = unlimited).
    /// Shrinking below the current population evicts on the next insert,
    /// not immediately.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
    }

    /// Entries evicted to enforce the capacity bound since startup.
    pub fn evictions(&self) -> u64 {
        self.evictions.get(0)
    }

    fn touch(&self, entry: &GraphEntry) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(now, Ordering::Relaxed);
    }

    /// Checks the `cache_insert` fault point. `Error` and `DropConnection`
    /// both surface as an `Err` (the caller owns the connection and decides
    /// whether to answer or hang up); `Delay` sleeps inline.
    fn insert_fault(&self) -> Result<(), String> {
        let Some(action) = kdc_faults::check(kdc_faults::Point::CacheInsert) else {
            return Ok(());
        };
        self.faults_injected.inc();
        match action {
            kdc_faults::Action::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            kdc_faults::Action::Error
            | kdc_faults::Action::DropConnection
            | kdc_faults::Action::TornWrite => Err("fault injected at cache_insert".to_string()),
            kdc_faults::Action::Panic => kdc_faults::panic_now(kdc_faults::Point::CacheInsert),
        }
    }

    /// Stores `entry` under its name, then enforces the LRU capacity bound
    /// (never evicting the entry just inserted).
    fn store(&self, entry: Arc<GraphEntry>) {
        self.touch(&entry);
        let mut map = self.entries.write();
        map.insert(entry.name.clone(), entry.clone());
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap == 0 {
            return;
        }
        while map.len() > cap {
            let victim = map
                .iter()
                .filter(|(name, _)| *name != &entry.name)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    map.remove(&name);
                    self.evictions.bump(0, 1);
                }
                // Only the just-inserted entry remains: a capacity of zero
                // is "unlimited", so cap >= 1 always keeps it.
                None => break,
            }
        }
    }

    /// Parses `path` and stores it under `name`, replacing any previous
    /// entry of that name — *unless* the resident entry was parsed from
    /// the same path and the file's bytes still hash identically, in
    /// which case the entry (and all its warm session state, including
    /// anything recovered from the durable store) is kept and returned:
    /// re-`LOAD`ing unchanged content is idempotent, never state loss.
    /// The file is read once: its raw bytes are hashed first, so the entry
    /// carries the identity recovery revalidates against, and then parsed
    /// in place. Returns the entry.
    pub fn load(&self, path: &str, name: &str) -> Result<Arc<GraphEntry>, String> {
        self.insert_fault()?;
        let t0 = Instant::now();
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let content_hash = kdc_store::content_hash(&bytes);
        if let Some(existing) = self.entries.read().get(name) {
            if existing.source() == Some((path, content_hash)) {
                let existing = existing.clone();
                self.touch(&existing);
                return Ok(existing);
            }
        }
        let graph = kdc_graph::io::parse_by_extension(Path::new(path), &bytes[..])
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        self.parses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(GraphEntry::new(
            name.to_string(),
            graph,
            t0.elapsed(),
            Some((path.to_string(), content_hash)),
        ));
        self.store(entry.clone());
        Ok(entry)
    }

    /// Stores an already-parsed graph (tests and benches; counts as a parse
    /// so warm/cold comparisons stay honest).
    pub fn insert(&self, name: &str, graph: Graph) -> Arc<GraphEntry> {
        self.parses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(GraphEntry::new(
            name.to_string(),
            graph,
            Duration::default(),
            None,
        ));
        self.store(entry.clone());
        entry
    }

    /// Looks up `name`, counting a cache hit (and refreshing LRU recency)
    /// on success.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        let entry = self.entries.read().get(name).cloned();
        if let Some(e) = &entry {
            e.hits.fetch_add(1, Ordering::Relaxed);
            self.touch(e);
        }
        entry
    }

    /// Drops `name` from the cache; running jobs keep their `Arc`.
    pub fn unload(&self, name: &str) -> bool {
        self.entries.write().remove(name).is_some()
    }

    /// Number of graph files parsed since startup (LOAD + insert calls —
    /// *not* incremented by cache hits; the core of the warm-path claim).
    pub fn parses(&self) -> u64 {
        self.parses.load(Ordering::Relaxed)
    }

    /// Currently cached names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdc_graph::named;

    #[test]
    fn peeling_is_built_exactly_once() {
        let cache = GraphCache::new();
        let entry = cache.insert("fig2", named::figure2());
        assert_eq!(
            entry.session().counters().peel_builds,
            0,
            "peel must be lazy"
        );
        let d1 = entry.session().degeneracy();
        let d2 = entry.session().degeneracy();
        assert_eq!(d1, d2);
        assert_eq!(
            entry.session().counters().peel_builds,
            1,
            "artifact must be cached after first use"
        );
    }

    #[test]
    fn hits_and_parses_are_tracked() {
        let cache = GraphCache::new();
        cache.insert("a", named::figure2());
        assert_eq!(cache.parses(), 1);
        assert!(cache.get("a").is_some());
        assert!(cache.get("a").is_some());
        assert!(cache.get("missing").is_none());
        let entry = cache.get("a").unwrap();
        assert_eq!(entry.hits(), 3, "three successful lookups");
        assert_eq!(cache.parses(), 1, "lookups must not re-parse");
    }

    #[test]
    fn unload_drops_but_arc_survives() {
        let cache = GraphCache::new();
        let entry = cache.insert("a", named::figure2());
        let graph = entry.graph().clone();
        assert!(cache.unload("a"));
        assert!(!cache.unload("a"));
        assert!(cache.get("a").is_none());
        assert_eq!(graph.n(), 12, "in-flight Arc keeps the graph alive");
    }

    #[test]
    fn names_are_sorted() {
        let cache = GraphCache::new();
        cache.insert("zeta", named::figure2());
        cache.insert("alpha", named::figure2());
        assert_eq!(cache.names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = GraphCache::new();
        cache.set_capacity(2);
        cache.insert("a", named::figure2());
        cache.insert("b", named::figure2());
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get("a").is_some());
        cache.insert("c", named::figure2());
        assert_eq!(cache.names(), vec!["a".to_string(), "c".to_string()]);
        assert_eq!(cache.evictions(), 1);
        // Re-inserting an existing name replaces in place, no eviction.
        cache.insert("a", named::figure2());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.names().len(), 2);
    }

    #[test]
    fn zero_capacity_means_unlimited() {
        let cache = GraphCache::new();
        for name in ["a", "b", "c", "d"] {
            cache.insert(name, named::figure2());
        }
        assert_eq!(cache.names().len(), 4);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn reloading_unchanged_content_keeps_the_entry_and_its_state() {
        let dir = std::env::temp_dir().join(format!("kdc_cache_reload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.clq");
        kdc_graph::io::write_dimacs(&named::figure2(), &path).unwrap();
        let path = path.to_string_lossy().into_owned();

        let cache = GraphCache::new();
        let first = cache.load(&path, "fig2").unwrap();
        assert!(first.session().solve(2).is_optimal());
        assert_eq!(first.session().counters().solves, 1);

        // Same name, same path, same bytes: the warm entry survives.
        let again = cache.load(&path, "fig2").unwrap();
        assert!(Arc::ptr_eq(&first, &again), "entry must be kept");
        assert!(again.session().solve(2).cache.result_memo_hit);
        assert_eq!(cache.parses(), 1, "unchanged reload must not re-parse");

        // Changed bytes under the same name: a genuine replacement.
        kdc_graph::io::write_dimacs(&kdc_graph::gen::complete(5), Path::new(&path)).unwrap();
        let replaced = cache.load(&path, "fig2").unwrap();
        assert!(!Arc::ptr_eq(&first, &replaced), "changed file must reload");
        assert_eq!(replaced.graph().n(), 5);
        assert_eq!(cache.parses(), 2);
    }

    #[test]
    fn capacity_one_keeps_newest_insert() {
        let cache = GraphCache::new();
        cache.set_capacity(1);
        cache.insert("a", named::figure2());
        cache.insert("b", named::figure2());
        assert_eq!(cache.names(), vec!["b".to_string()]);
        assert_eq!(cache.evictions(), 1);
    }
}
