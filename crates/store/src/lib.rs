#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # kdc_store — crash-safe durable state for the kDC daemon
//!
//! A versioned, checksummed on-disk store for the daemon's warm session
//! state: per-graph best-known witnesses and proven-optimal memo entries,
//! keyed to the graph's source path and content hash so stale state for a
//! changed input is never replayed. Two files live in the state directory:
//!
//! - `snapshot.kds` — the compacted full state, rewritten atomically
//!   (tmp-write + rename) by [`Store::compact`];
//! - `journal.kdj` — an append-only log of facts proven since the last
//!   compaction, one CRC-framed record per [`Store::append`].
//!
//! Both files share the codec in [`codec`]: an 8-byte header followed by
//! length-prefixed, CRC-32-framed records. [`Store::open`] replays the
//! snapshot then the journal, truncating each at the first torn or corrupt
//! frame (counted, never propagated), folds the surviving records into
//! [`GraphState`]s, and immediately re-compacts — so damage discovered on
//! one boot is physically gone by the next.
//!
//! Durability model: a journal append is a single buffered write + flush of
//! one frame. A crash (SIGKILL) can tear at most the record being written,
//! which replay drops; everything previously flushed survives. `fsync` is
//! deliberately not issued per append — the store defends against process
//! death, and the periodic snapshot (`sync_all` before rename) bounds the
//! window a power loss could cost.
//!
//! Fault injection: every write passes the `store_write` point and replay
//! passes `store_read` (see `kdc_faults`); the `torn` action truncates a
//! journal append mid-record, which is how the chaos soak proves torn-tail
//! recovery end to end. Counters live in one [`kdc_obs::CounterBlock`] that
//! also feeds the global metrics registry as `kdc_store_*_total`.
//!
//! The store's internal mutex (`store`) is rank 8 in `LOCK_ORDER.md`: a
//! leaf below every daemon lock except the metrics registry, so callers
//! collect what they want to persist *before* calling in.

pub mod codec;

pub use codec::{Record, ReplayReport};

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Appends between automatic compactions (see [`Store::append`]).
pub const COMPACT_EVERY: u64 = 32;

/// Snapshot file name inside the state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.kds";

/// Journal file name inside the state directory.
pub const JOURNAL_FILE: &str = "journal.kdj";

/// FNV-1a 64-bit hash of a byte slice — the graph content hash recorded in
/// [`Record::Graph`] and revalidated on recovery.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One proven-optimal memo entry of a [`GraphState`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoState {
    /// Defect budget of the memoized query.
    pub k: u64,
    /// Options preset the proof ran under.
    pub preset: String,
    /// Optimal witness vertex ids.
    pub vertices: Vec<u64>,
    /// Solve status token.
    pub status: String,
    /// Opaque compact-encoded search stats.
    pub stats: String,
}

/// The folded durable state of one graph: identity plus everything worth
/// rehydrating into a warm `Session`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphState {
    /// Cache name the graph was registered under.
    pub name: String,
    /// Source path the graph was parsed from.
    pub source_path: String,
    /// [`content_hash`] of the source file bytes at solve time.
    pub content_hash: u64,
    /// Best-known witness per defect budget `k` (ascending `k`).
    pub witnesses: Vec<(u64, Vec<u64>)>,
    /// Proven-optimal memo entries (ascending `(k, preset)`).
    pub memos: Vec<MemoState>,
}

impl GraphState {
    /// Flattens this state back into the records that reproduce it.
    pub fn records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(1 + self.witnesses.len() + self.memos.len());
        out.push(Record::Graph {
            name: self.name.clone(),
            source_path: self.source_path.clone(),
            content_hash: self.content_hash,
        });
        for (k, vertices) in &self.witnesses {
            out.push(Record::Witness {
                graph: self.name.clone(),
                k: *k,
                vertices: vertices.clone(),
            });
        }
        for m in &self.memos {
            out.push(Record::Memo {
                graph: self.name.clone(),
                k: m.k,
                preset: m.preset.clone(),
                vertices: m.vertices.clone(),
                status: m.status.clone(),
                stats: m.stats.clone(),
            });
        }
        out
    }
}

/// Folds a replayed record stream into per-graph state, last write wins.
/// Witness and memo records for a graph with no preceding [`Record::Graph`]
/// identity are dropped — without a source path and hash they could never
/// be validated on recovery.
pub fn fold(records: &[Record]) -> Vec<GraphState> {
    let mut graphs: BTreeMap<String, GraphState> = BTreeMap::new();
    for rec in records {
        match rec {
            Record::Graph {
                name,
                source_path,
                content_hash,
            } => {
                let entry = graphs.entry(name.clone()).or_default();
                entry.name = name.clone();
                entry.source_path = source_path.clone();
                entry.content_hash = *content_hash;
            }
            Record::Witness { graph, k, vertices } => {
                if let Some(entry) = graphs.get_mut(graph) {
                    match entry.witnesses.binary_search_by_key(k, |&(wk, _)| wk) {
                        Ok(i) => entry.witnesses[i].1 = vertices.clone(),
                        Err(i) => entry.witnesses.insert(i, (*k, vertices.clone())),
                    }
                }
            }
            Record::Memo {
                graph,
                k,
                preset,
                vertices,
                status,
                stats,
            } => {
                if let Some(entry) = graphs.get_mut(graph) {
                    let state = MemoState {
                        k: *k,
                        preset: preset.clone(),
                        vertices: vertices.clone(),
                        status: status.clone(),
                        stats: stats.clone(),
                    };
                    match entry
                        .memos
                        .binary_search_by(|m| (m.k, m.preset.as_str()).cmp(&(*k, preset)))
                    {
                        Ok(i) => entry.memos[i] = state,
                        Err(i) => entry.memos.insert(i, state),
                    }
                }
            }
        }
    }
    graphs.into_values().collect()
}

/// Snapshot of the store's own counters (each also summed process-wide
/// as `kdc_store_<field>_total` in the global metrics registry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Records appended to the journal.
    pub journal_appends: u64,
    /// Snapshot files written by compaction.
    pub snapshot_writes: u64,
    /// Opens that found prior on-disk state to replay.
    pub recoveries: u64,
    /// Torn (interrupted) records truncated on replay.
    pub torn_records_dropped: u64,
    /// Corrupt (checksum/parse-failed) records truncated on replay.
    pub corrupt_records_dropped: u64,
}

/// The store counters, named once: slots of the store's
/// [`kdc_obs::CounterBlock`], in [`StoreCounters`] field order.
#[derive(Clone, Copy)]
enum StoreCounter {
    JournalAppends,
    SnapshotWrites,
    Recoveries,
    TornRecordsDropped,
    CorruptRecordsDropped,
}

/// Number of [`StoreCounter`]s.
const STORE_COUNTERS: usize = 5;

/// The process-wide `kdc_store_*_total` series, registered once and
/// indexed by [`StoreCounter`].
fn store_totals() -> &'static [kdc_obs::Counter; STORE_COUNTERS] {
    static TOTALS: OnceLock<[kdc_obs::Counter; STORE_COUNTERS]> = OnceLock::new();
    TOTALS.get_or_init(|| {
        let reg = kdc_obs::registry();
        [
            reg.register_counter("kdc_store_journal_appends_total"),
            reg.register_counter("kdc_store_snapshot_writes_total"),
            reg.register_counter("kdc_store_recoveries_total"),
            reg.register_counter("kdc_store_torn_records_dropped_total"),
            reg.register_counter("kdc_store_corrupt_records_dropped_total"),
        ]
    })
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State guarded by the store mutex: the file handles are reopened per
/// operation, so only the compaction cadence needs protecting.
struct StoreInner {
    appends_since_compact: u64,
}

/// A durable state store rooted at one state directory.
pub struct Store {
    dir: PathBuf,
    /// Rank 8 in `LOCK_ORDER.md`: leaf lock; collect state to persist
    /// before calling into the store.
    store: Mutex<StoreInner>,
    counters: kdc_obs::CounterBlock<STORE_COUNTERS>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("dir", &self.dir).finish()
    }
}

/// Maps a `store_read`/`store_write` fault to an error string, handling
/// the shared actions (delay sleeps, panic panics) in place. Returns
/// `Some(reason)` when the operation must fail.
fn fault_gate(point: kdc_faults::Point) -> Option<&'static str> {
    match kdc_faults::check(point)? {
        kdc_faults::Action::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        kdc_faults::Action::Panic => kdc_faults::panic_now(point),
        kdc_faults::Action::TornWrite => Some("torn"),
        kdc_faults::Action::Error | kdc_faults::Action::DropConnection => Some("error"),
    }
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, replays
    /// `snapshot.kds` then `journal.kdj`, and returns the recovered
    /// per-graph state. Torn and corrupt tails are truncated and counted;
    /// the surviving state is immediately re-compacted so the next boot
    /// starts from clean files. An armed `store_read` error fault makes
    /// recovery fall back cold (as an unreadable disk would).
    ///
    /// # Errors
    /// Only filesystem failures (directory creation, compaction rewrite)
    /// are errors; damaged state never is.
    pub fn open(dir: &Path) -> Result<(Store, Vec<GraphState>), String> {
        fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", dir.display()))?;
        let store = Store {
            dir: dir.to_path_buf(),
            store: Mutex::new(StoreInner {
                appends_since_compact: 0,
            }),
            counters: kdc_obs::CounterBlock::new(store_totals()),
        };
        let unreadable = fault_gate(kdc_faults::Point::StoreRead).is_some();
        let mut records = Vec::new();
        let mut had_state = false;
        if !unreadable {
            for file in [SNAPSHOT_FILE, JOURNAL_FILE] {
                let Ok(bytes) = fs::read(store.dir.join(file)) else {
                    continue;
                };
                had_state = true;
                let (recs, report) = codec::replay(&bytes);
                records.extend(recs);
                store.bump(StoreCounter::TornRecordsDropped, report.torn_dropped);
                store.bump(StoreCounter::CorruptRecordsDropped, report.corrupt_dropped);
            }
        }
        let recovered = fold(&records);
        if had_state {
            store.bump(StoreCounter::Recoveries, 1);
        }
        // Normalize whatever survived into fresh files; best effort when a
        // write fault is armed (the journal is left untouched on failure).
        if let Err(e) = store.compact(&recovered) {
            eprintln!("kdc_store: startup compaction skipped: {e}");
        }
        Ok((store, recovered))
    }

    /// The state directory this store is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record to the journal (buffered write + flush). Returns
    /// `true` when [`COMPACT_EVERY`] appends have accumulated and the
    /// caller should [`Store::compact`]. A `torn` fault writes a partial
    /// frame before failing, leaving exactly the tail replay truncates.
    ///
    /// # Errors
    /// Filesystem failures and injected `store_write` faults.
    pub fn append(&self, rec: &Record) -> Result<bool, String> {
        let framed = codec::frame_record(rec);
        let path = self.dir.join(JOURNAL_FILE);
        let mut inner = lock_unpoisoned(&self.store);
        let write = |bytes: &[u8]| -> Result<(), String> {
            let mut file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
            if file
                .metadata()
                .map_err(|e| format!("cannot stat journal: {e}"))?
                .len()
                == 0
            {
                file.write_all(&codec::HEADER)
                    .map_err(|e| format!("cannot write journal header: {e}"))?;
            }
            file.write_all(bytes)
                .map_err(|e| format!("cannot append to journal: {e}"))?;
            file.flush()
                .map_err(|e| format!("cannot flush journal: {e}"))
        };
        match fault_gate(kdc_faults::Point::StoreWrite) {
            Some("torn") => {
                let cut = (framed.len() / 2).max(1);
                let _ = write(&framed[..cut]);
                return Err("fault injected: torn journal append".to_string());
            }
            Some(_) => return Err("fault injected: store_write error".to_string()),
            None => {}
        }
        write(&framed)?;
        self.bump(StoreCounter::JournalAppends, 1);
        inner.appends_since_compact += 1;
        Ok(inner.appends_since_compact >= COMPACT_EVERY)
    }

    /// Rewrites the snapshot from `states` (tmp-write, `sync_all`, rename)
    /// and truncates the journal. On failure the journal is left intact,
    /// so no fact is lost; a `torn` fault tears the snapshot itself, which
    /// the next open truncates and re-covers from the journal.
    ///
    /// # Errors
    /// Filesystem failures and injected `store_write` faults.
    pub fn compact(&self, states: &[GraphState]) -> Result<(), String> {
        let mut records = Vec::new();
        for state in states {
            records.extend(state.records());
        }
        let bytes = codec::render_file(&records);
        let snap = self.dir.join(SNAPSHOT_FILE);
        let journal = self.dir.join(JOURNAL_FILE);
        let tmp_snap = self.dir.join("tmp-snapshot.kds");
        let tmp_journal = self.dir.join("tmp-journal.kdj");
        let mut inner = lock_unpoisoned(&self.store);
        let replace = |tmp: &Path, target: &Path, bytes: &[u8]| -> Result<(), String> {
            let mut file = fs::File::create(tmp)
                .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
            file.write_all(bytes)
                .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
            file.sync_all()
                .map_err(|e| format!("cannot sync {}: {e}", tmp.display()))?;
            fs::rename(tmp, target)
                .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
        };
        match fault_gate(kdc_faults::Point::StoreWrite) {
            Some("torn") => {
                let cut = (bytes.len() / 2).max(1);
                let _ = replace(&tmp_snap, &snap, &bytes[..cut.min(bytes.len())]);
                return Err("fault injected: torn snapshot write".to_string());
            }
            Some(_) => return Err("fault injected: store_write error".to_string()),
            None => {}
        }
        replace(&tmp_snap, &snap, &bytes)?;
        replace(&tmp_journal, &journal, &codec::HEADER)?;
        inner.appends_since_compact = 0;
        self.bump(StoreCounter::SnapshotWrites, 1);
        Ok(())
    }

    /// Snapshot of this store's counters.
    pub fn counters(&self) -> StoreCounters {
        let get = |c: StoreCounter| self.counters.get(c as usize);
        StoreCounters {
            journal_appends: get(StoreCounter::JournalAppends),
            snapshot_writes: get(StoreCounter::SnapshotWrites),
            recoveries: get(StoreCounter::Recoveries),
            torn_records_dropped: get(StoreCounter::TornRecordsDropped),
            corrupt_records_dropped: get(StoreCounter::CorruptRecordsDropped),
        }
    }

    /// Counts `n` on the store and in its `kdc_store_*_total` series.
    fn bump(&self, counter: StoreCounter, n: u64) {
        self.counters.bump(counter as usize, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault plans are process-global: a test that arms one fires on
    /// whichever store hits the fault point first. Every test that opens,
    /// appends to or compacts a `Store` holds this guard, so an armed fault
    /// only ever meets the test that armed it.
    static FAULT_GUARD: Mutex<()> = Mutex::new(());

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kdc_store_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_state() -> GraphState {
        GraphState {
            name: "pg".to_string(),
            source_path: "/tmp/pg.dimacs".to_string(),
            content_hash: 7,
            witnesses: vec![(3, vec![0, 1, 2, 5])],
            memos: vec![MemoState {
                k: 3,
                preset: "kdc".to_string(),
                vertices: vec![0, 1, 2, 5],
                status: "optimal".to_string(),
                stats: "nodes=9".to_string(),
            }],
        }
    }

    #[test]
    fn append_then_reopen_recovers_state() {
        let _g = FAULT_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = tmp_dir("roundtrip");
        let (store, recovered) = Store::open(&dir).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(
            store.counters().recoveries,
            0,
            "first boot is not a recovery"
        );
        for rec in sample_state().records() {
            store.append(&rec).unwrap();
        }
        assert_eq!(store.counters().journal_appends, 3);
        drop(store);

        let (store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered, vec![sample_state()]);
        let c = store.counters();
        assert_eq!(c.recoveries, 1);
        assert_eq!(c.torn_records_dropped + c.corrupt_records_dropped, 0);
        // Recovery compacted: journal is back to a bare header.
        let journal = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(journal, codec::HEADER);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_tail_is_truncated_on_reopen() {
        let _g = FAULT_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = tmp_dir("torn");
        let (store, _) = Store::open(&dir).unwrap();
        let records = sample_state().records();
        for rec in &records {
            store.append(rec).unwrap();
        }
        drop(store);
        // Tear the last frame by hand, as a mid-append SIGKILL would.
        let path = dir.join(JOURNAL_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();

        let (store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(store.counters().torn_records_dropped, 1);
        // The memo (last record) is gone; identity and witness survive.
        let mut expect = sample_state();
        expect.memos.clear();
        assert_eq!(recovered, vec![expect.clone()]);
        drop(store);
        // The torn tail was compacted away: a third open is clean.
        let (store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(store.counters().torn_records_dropped, 0);
        assert_eq!(recovered, vec![expect]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_duplicates_and_resets_cadence() {
        let _g = FAULT_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = tmp_dir("compact");
        let (store, _) = Store::open(&dir).unwrap();
        let state = sample_state();
        for rec in state.records() {
            store.append(&rec).unwrap();
        }
        // A better witness for the same k overrides on fold.
        store
            .append(&Record::Witness {
                graph: "pg".to_string(),
                k: 3,
                vertices: vec![0, 1, 2, 5, 9],
            })
            .unwrap();
        let mut expect = state.clone();
        expect.witnesses = vec![(3, vec![0, 1, 2, 5, 9])];
        store.compact(&[expect.clone()]).unwrap();
        assert_eq!(store.counters().snapshot_writes, 2, "open + explicit");
        drop(store);
        let (_store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered, vec![expect]);
        assert!(
            !fs::read_dir(&dir)
                .unwrap()
                .any(|e| { e.unwrap().file_name().to_string_lossy().starts_with("tmp-") }),
            "compaction must not leak tmp files"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_fault_leaves_a_replayable_tail() {
        let _g = FAULT_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = tmp_dir("fault_torn");
        let (store, _) = Store::open(&dir).unwrap();
        let records = sample_state().records();
        store.append(&records[0]).unwrap();
        kdc_faults::install_plan("store_write:torn:n=1").unwrap();
        let err = store.append(&records[1]).unwrap_err();
        assert!(err.contains("torn"), "{err}");
        kdc_faults::disarm_all();
        // The journal now ends in half a frame; the good prefix survives.
        drop(store);
        let (store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(store.counters().torn_records_dropped, 1);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].name, "pg");
        assert!(recovered[0].witnesses.is_empty(), "torn witness dropped");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_fault_falls_back_cold() {
        let _g = FAULT_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = tmp_dir("fault_read");
        let (store, _) = Store::open(&dir).unwrap();
        for rec in sample_state().records() {
            store.append(&rec).unwrap();
        }
        drop(store);
        kdc_faults::install_plan("store_read:error:n=1").unwrap();
        let (store, recovered) = Store::open(&dir).unwrap();
        kdc_faults::disarm_all();
        assert!(recovered.is_empty(), "unreadable state must start cold");
        assert_eq!(store.counters().recoveries, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_reports_compaction_due() {
        let _g = FAULT_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = tmp_dir("cadence");
        let (store, _) = Store::open(&dir).unwrap();
        let rec = Record::Graph {
            name: "g".to_string(),
            source_path: "p".to_string(),
            content_hash: 1,
        };
        for i in 1..=COMPACT_EVERY {
            let due = store.append(&rec).unwrap();
            assert_eq!(due, i == COMPACT_EVERY, "append {i}");
        }
        store.compact(&[]).unwrap();
        assert!(!store.append(&rec).unwrap(), "cadence resets after compact");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_hash_is_stable_and_input_sensitive() {
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(content_hash(b"p edge 3 2"), content_hash(b"p edge 3 3"));
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
    }
}
