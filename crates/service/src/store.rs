//! The persistent pre-solve store: solve responses that survive
//! restarts.
//!
//! The in-memory [`InstanceCache`](crate::cache::InstanceCache) wins
//! ~170× on repeat requests but evaporates with the process. This
//! module adds the durable layer underneath it: an **append-only
//! record log** on disk holding the deterministic payload of every
//! completed solve, keyed by a 64-bit fingerprint of everything that
//! determines that payload — the game's *canonical* payoff fingerprint
//! (spec-form independent, see `cnash_game::canonical`) combined with
//! the solver/hardware spec, run budget, seeding, early-stop rule,
//! display label and ground-truth policy. A repeat `solve` request on
//! a warm store is answered in O(lookup) without running a single
//! anneal iteration, marked with a `"cache":"disk"` provenance field,
//! and its payload is byte-identical to the cold-solve response modulo
//! that field and the wall-clock fields (CI's `store-smoke` job gates
//! exactly this, across a daemon restart).
//!
//! ## On-disk format
//!
//! Hand-rolled, dependency-free, and deliberately boring: an 8-byte
//! magic (`CNSHSTR1`) followed by length-prefixed records
//!
//! ```text
//! | key: u64 LE | payload_len: u32 LE | checksum: u64 LE | payload |
//! ```
//!
//! where `payload` is the compact-JSON deterministic response (the
//! solve response minus `id`, `wall_ms`, `program_ms`) and `checksum`
//! is [`record_checksum`] over the key and payload. The log is only
//! ever appended to; there is no in-place mutation to corrupt.
//!
//! ## Crash safety: open is a scan, corruption is skipped
//!
//! [`SolutionStore::open`] rebuilds the in-memory index with a single
//! forward scan. A **truncated tail** (torn final write — the crash
//! case append-only logs exist for) drops the partial record; a record
//! whose **checksum does not match** is skipped; a frame that points
//! past the end of the file is treated as a truncated tail. None of
//! these are errors — surviving records are served, and the log is
//! **compacted** (rewritten atomically via a temp file + rename) so
//! the damage does not linger. Only a missing/foreign magic or a real
//! I/O failure fails the open. The recovery properties are
//! property-tested in `tests/store_proptests.rs`.
//!
//! Payloads live in the index (`Arc<str>`), so after the open scan the
//! whole store serves from memory — this *is* the daemon's warm boot.
//!
//! [`fsck`](SolutionStore::fsck) is the same walk without the
//! recovery: a read-only checksum + framing + index-consistency report
//! for CI (`store fsck` binary, nightly job).

use crate::protocol::TruthPolicy;
use cnash_game::canonical::Hasher64;
use cnash_game::BimatrixGame;
use cnash_runtime::spec::JobSpec;
use cnash_runtime::{EarlyStop, Json};
use cnash_telemetry::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// File magic: 8 bytes at offset 0 of every store log.
pub const STORE_MAGIC: &[u8; 8] = b"CNSHSTR1";

/// Fixed bytes per record before the payload: key (8) + len (4) +
/// checksum (8).
pub const RECORD_HEADER_BYTES: usize = 20;

/// Checksum of one record: [`Hasher64`] over a domain tag, the key and
/// the payload bytes. Catches key corruption as well as payload
/// corruption (the key is not covered by the payload).
pub fn record_checksum(key: u64, payload: &str) -> u64 {
    let mut h = Hasher64::new();
    h.write_str("store-record")
        .write_u64(key)
        .write_str(payload);
    h.finish()
}

/// The store key of a solve request: a fingerprint of everything that
/// determines the *deterministic* response payload.
///
/// * the game's canonical payoff fingerprint (spec-form independent —
///   a builtin and its explicit-matrix capture share the key),
/// * the solver spec's canonical JSON (config preset, iteration
///   budget, hardware seed, D-Wave model/reads — the
///   solver/hardware fingerprint),
/// * `runs`, `base_seed` and the early-stop rule (they shape
///   `executed_runs`/`stopped_early` and the seed-ordered fold),
/// * the *resolved* display label (the default label embeds the
///   spec-form-dependent game name, which appears in the payload),
/// * the ground-truth policy (coverage statistics differ).
///
/// No thread count is part of the key: the runtime's determinism
/// contract makes the payload thread-count independent.
pub fn solve_key(game: &BimatrixGame, job: &JobSpec, truth: TruthPolicy) -> u64 {
    let label = job.label_for(game);
    let early = match job.early_stop {
        None => "none".to_string(),
        Some(EarlyStop::Successes(n)) => format!("successes:{n}"),
        Some(EarlyStop::Coverage(n)) => format!("coverage:{n}"),
    };
    let mut h = Hasher64::new();
    h.write_str("solve-record-v1")
        .write_u64(game.canonical_fingerprint())
        .write_str(&job.solver.to_json().compact())
        .write_u64(job.runs as u64)
        .write_u64(job.base_seed)
        .write_str(&early)
        .write_str(&label)
        .write_str(match truth {
            TruthPolicy::Enumerate => "enumerate",
            TruthPolicy::Skip => "skip",
        });
    h.finish()
}

/// What [`SolutionStore::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReport {
    /// Records serving after the scan.
    pub records: u64,
    /// Records skipped for a bad checksum.
    pub corrupt_skipped: u64,
    /// Bytes dropped from a truncated (or frame-overrunning) tail.
    pub truncated_tail_bytes: u64,
    /// Whether the log was rewritten to shed skipped bytes.
    pub compacted: bool,
}

/// Read-only integrity report of a store log ([`SolutionStore::fsck`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsckReport {
    /// Checksum-valid records in the log.
    pub records: u64,
    /// Distinct keys among the valid records.
    pub distinct_keys: u64,
    /// Keys that appear more than once (append-time dedup should make
    /// this 0; last record wins on open).
    pub duplicate_keys: u64,
    /// Records whose checksum does not match their bytes.
    pub corrupt_records: u64,
    /// Bytes in a truncated or frame-overrunning tail.
    pub truncated_tail_bytes: u64,
    /// Total log size in bytes, magic included.
    pub log_bytes: u64,
}

impl FsckReport {
    /// A clean log: every byte accounted for by checksum-valid,
    /// uniquely-keyed records.
    pub fn ok(&self) -> bool {
        self.corrupt_records == 0 && self.truncated_tail_bytes == 0 && self.duplicate_keys == 0
    }

    /// Serialises the report (exact integers throughout).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("records", Json::uint(self.records)),
            ("distinct_keys", Json::uint(self.distinct_keys)),
            ("duplicate_keys", Json::uint(self.duplicate_keys)),
            ("corrupt_records", Json::uint(self.corrupt_records)),
            (
                "truncated_tail_bytes",
                Json::uint(self.truncated_tail_bytes),
            ),
            ("log_bytes", Json::uint(self.log_bytes)),
            ("ok", Json::Bool(self.ok())),
        ])
    }
}

/// Counter snapshot of a [`SolutionStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Records appended this process lifetime.
    pub appends: u64,
    /// Records currently resident (disk and memory — they are the
    /// same set).
    pub records: u64,
}

impl StoreStats {
    /// Serialises the snapshot (exact integers, like
    /// [`CacheStats`](crate::cache::CacheStats)).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::uint(self.hits)),
            ("misses", Json::uint(self.misses)),
            ("appends", Json::uint(self.appends)),
            ("records", Json::uint(self.records)),
        ])
    }
}

struct Inner {
    file: File,
    index: HashMap<u64, Arc<str>>,
}

/// The disk-backed solution store: an append-only record log plus the
/// in-memory index rebuilt by one scan on open. Shared (`Arc`) by every
/// scheduler shard; all mutation is behind one mutex (appends are rare
/// — every append is a solve that just took orders of magnitude
/// longer).
pub struct SolutionStore {
    path: PathBuf,
    inner: Mutex<Inner>,
    open_report: OpenReport,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    appends: Arc<Counter>,
    records_gauge: Arc<Gauge>,
}

impl std::fmt::Debug for SolutionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolutionStore")
            .field("path", &self.path)
            .field("records", &self.len())
            .finish()
    }
}

/// One raw scan over a store log's bytes: the shared walk under both
/// `open` (which recovers) and `fsck` (which only reports).
struct Scan {
    /// Surviving records in log order (last occurrence of a key wins,
    /// earlier duplicates are dropped during replay into the map).
    records: Vec<(u64, Arc<str>)>,
    corrupt_skipped: u64,
    truncated_tail_bytes: u64,
    duplicate_keys: u64,
}

fn scan_log(bytes: &[u8]) -> io::Result<Scan> {
    if bytes.len() < STORE_MAGIC.len() || &bytes[..STORE_MAGIC.len()] != STORE_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a cnash solution store (bad magic)",
        ));
    }
    let mut scan = Scan {
        records: Vec::new(),
        corrupt_skipped: 0,
        truncated_tail_bytes: 0,
        duplicate_keys: 0,
    };
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut pos = STORE_MAGIC.len();
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_HEADER_BYTES {
            scan.truncated_tail_bytes = (bytes.len() - pos) as u64;
            break;
        }
        let key = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        let len =
            u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().expect("8 bytes"));
        let body = pos + RECORD_HEADER_BYTES;
        if len > bytes.len() - body {
            // A frame pointing past EOF: either a torn tail write or a
            // corrupted length. Either way nothing after this offset
            // can be framed — treat the rest as a truncated tail.
            scan.truncated_tail_bytes = (bytes.len() - pos) as u64;
            break;
        }
        pos = body + len;
        let payload = &bytes[body..pos];
        let valid = std::str::from_utf8(payload)
            .ok()
            .filter(|p| record_checksum(key, p) == sum);
        match valid {
            Some(payload) => {
                if let Some(&prior) = seen.get(&key) {
                    // Last record wins; drop the stale occurrence but
                    // keep log order for the survivors.
                    scan.duplicate_keys += 1;
                    scan.records[prior] = (key, Arc::from(payload));
                } else {
                    seen.insert(key, scan.records.len());
                    scan.records.push((key, Arc::from(payload)));
                }
            }
            None => scan.corrupt_skipped += 1,
        }
    }
    Ok(scan)
}

fn write_record(out: &mut impl Write, key: u64, payload: &str) -> io::Result<()> {
    out.write_all(&key.to_le_bytes())?;
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&record_checksum(key, payload).to_le_bytes())?;
    out.write_all(payload.as_bytes())
}

impl SolutionStore {
    /// Opens (or creates) a store log, rebuilding the index with one
    /// scan. Truncated tails and checksum-invalid records are skipped
    /// and the log is compacted — corruption is never a crash.
    ///
    /// # Errors
    ///
    /// Fails on real I/O errors, or when the file exists but does not
    /// start with the store magic (it is not a store log — refusing to
    /// "recover" it protects whatever it actually is).
    pub fn open(path: impl AsRef<Path>) -> io::Result<SolutionStore> {
        Self::open_instrumented(path, None)
    }

    /// [`SolutionStore::open`] with the store's instruments registered
    /// in `registry` under stable names: `store_hits`, `store_misses`,
    /// `store_appends` (counters), `store_records` (gauge) and
    /// `store_open_scan_ns` (histogram — one observation per open), so
    /// metrics snapshots see the store without asking it.
    pub fn open_with_registry(
        path: impl AsRef<Path>,
        registry: &Registry,
    ) -> io::Result<SolutionStore> {
        Self::open_instrumented(path, Some(registry))
    }

    fn open_instrumented(
        path: impl AsRef<Path>,
        registry: Option<&Registry>,
    ) -> io::Result<SolutionStore> {
        let path = path.as_ref().to_path_buf();
        let started = Instant::now();
        let (scan, compact) = match std::fs::read(&path) {
            Ok(bytes) if bytes.is_empty() => {
                // An empty file (fresh `touch`, or a crash before the
                // magic landed): claim it as a new store.
                std::fs::write(&path, STORE_MAGIC)?;
                (
                    Scan {
                        records: Vec::new(),
                        corrupt_skipped: 0,
                        truncated_tail_bytes: 0,
                        duplicate_keys: 0,
                    },
                    false,
                )
            }
            Ok(bytes) => {
                let scan = scan_log(&bytes)?;
                let dirty = scan.corrupt_skipped > 0
                    || scan.truncated_tail_bytes > 0
                    || scan.duplicate_keys > 0;
                (scan, dirty)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                std::fs::write(&path, STORE_MAGIC)?;
                (
                    Scan {
                        records: Vec::new(),
                        corrupt_skipped: 0,
                        truncated_tail_bytes: 0,
                        duplicate_keys: 0,
                    },
                    false,
                )
            }
            Err(e) => return Err(e),
        };
        if compact {
            // Shed the skipped bytes atomically: full rewrite beside
            // the log, then rename over it. A crash mid-compaction
            // leaves either the old log (skipped again next open) or
            // the new one — never a halfway state.
            let tmp = path.with_extension("compact-tmp");
            let mut out = io::BufWriter::new(File::create(&tmp)?);
            out.write_all(STORE_MAGIC)?;
            for (key, payload) in &scan.records {
                write_record(&mut out, *key, payload)?;
            }
            out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&tmp, &path)?;
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        let index: HashMap<u64, Arc<str>> = scan.records.iter().cloned().collect();
        let open_report = OpenReport {
            records: index.len() as u64,
            corrupt_skipped: scan.corrupt_skipped,
            truncated_tail_bytes: scan.truncated_tail_bytes,
            compacted: compact,
        };
        let (hits, misses, appends, records_gauge) = match registry {
            Some(r) => {
                r.histogram("store_open_scan_ns")
                    .record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                (
                    r.counter("store_hits"),
                    r.counter("store_misses"),
                    r.counter("store_appends"),
                    r.gauge("store_records"),
                )
            }
            None => (
                Arc::new(Counter::new()),
                Arc::new(Counter::new()),
                Arc::new(Counter::new()),
                Arc::new(Gauge::new()),
            ),
        };
        records_gauge.set(index.len() as i64);
        Ok(SolutionStore {
            path,
            inner: Mutex::new(Inner { file, index }),
            open_report,
            hits,
            misses,
            appends,
            records_gauge,
        })
    }

    /// The log path this store serves from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What the open scan found and did.
    pub fn open_report(&self) -> OpenReport {
        self.open_report
    }

    /// Resident record count.
    pub fn len(&self) -> u64 {
        self.inner.lock().expect("store poisoned").index.len() as u64
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is resident. Unlike [`SolutionStore::lookup`]
    /// this moves no counters — it is the sweeper's resumability probe,
    /// not a serve.
    pub fn contains(&self, key: u64) -> bool {
        self.inner
            .lock()
            .expect("store poisoned")
            .index
            .contains_key(&key)
    }

    /// Looks `key` up, counting a hit or a miss. O(lookup): the
    /// payload is served from the in-memory index built at open.
    pub fn lookup(&self, key: u64) -> Option<Arc<str>> {
        let found = self
            .inner
            .lock()
            .expect("store poisoned")
            .index
            .get(&key)
            .cloned();
        if found.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        found
    }

    /// Appends one record, unless `key` is already resident (appends
    /// are idempotent — the store is a set, and re-solving a resident
    /// key by definition produced the same payload). Returns whether a
    /// record was written.
    ///
    /// Durability: the write is flushed to the OS, not fsynced — a
    /// power loss may cost the tail record, which the next open's
    /// truncated-tail recovery absorbs.
    ///
    /// # Errors
    ///
    /// Propagates write errors (the record is then *not* indexed, so
    /// memory and disk stay consistent).
    pub fn append(&self, key: u64, payload: &str) -> io::Result<bool> {
        let mut inner = self.inner.lock().expect("store poisoned");
        if inner.index.contains_key(&key) {
            return Ok(false);
        }
        write_record(&mut inner.file, key, payload)?;
        inner.file.flush()?;
        inner.index.insert(key, Arc::from(payload));
        self.appends.inc();
        self.records_gauge.set(inner.index.len() as i64);
        Ok(true)
    }

    /// A snapshot of the hit/miss/append counters and record count.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            appends: self.appends.get(),
            records: self.len(),
        }
    }

    /// Read-only integrity walk of a store log: re-frames and
    /// re-checksums every record and cross-checks the rebuilt index
    /// against the log (framing covers every byte, keys are unique).
    /// Never mutates the file — safe to run against a store another
    /// process is reading.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a missing/foreign magic.
    pub fn fsck(path: impl AsRef<Path>) -> io::Result<FsckReport> {
        let bytes = std::fs::read(path)?;
        let scan = scan_log(&bytes)?;
        let distinct: HashMap<u64, ()> = scan.records.iter().map(|(k, _)| (*k, ())).collect();
        Ok(FsckReport {
            records: scan.records.len() as u64 + scan.duplicate_keys,
            distinct_keys: distinct.len() as u64,
            duplicate_keys: scan.duplicate_keys,
            corrupt_records: scan.corrupt_skipped,
            truncated_tail_bytes: scan.truncated_tail_bytes,
            log_bytes: bytes.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cnash_store_test_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn append_reopen_lookup_round_trips() {
        let path = temp_path("roundtrip");
        let _cleanup = Cleanup(path.clone());
        let store = SolutionStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert!(store.append(7, r#"{"ok":true,"x":1}"#).unwrap());
        assert!(store.append(9, r#"{"ok":true,"x":2}"#).unwrap());
        // Idempotent: a resident key is never re-written.
        assert!(!store.append(7, r#"{"ok":true,"x":1}"#).unwrap());
        assert_eq!(store.stats().appends, 2);
        drop(store);

        let store = SolutionStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert!(!store.open_report().compacted);
        assert_eq!(&*store.lookup(7).unwrap(), r#"{"ok":true,"x":1}"#);
        assert_eq!(&*store.lookup(9).unwrap(), r#"{"ok":true,"x":2}"#);
        assert!(store.lookup(8).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.records), (2, 1, 2));
    }

    #[test]
    fn truncated_tail_is_dropped_and_compacted() {
        let path = temp_path("trunc");
        let _cleanup = Cleanup(path.clone());
        let store = SolutionStore::open(&path).unwrap();
        store.append(1, r#"{"a":1}"#).unwrap();
        store.append(2, r#"{"b":2}"#).unwrap();
        drop(store);
        // Tear the final record's last 3 bytes off.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let report = SolutionStore::fsck(&path).unwrap();
        assert_eq!(report.records, 1);
        assert!(report.truncated_tail_bytes > 0);
        assert!(!report.ok());

        let store = SolutionStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.open_report().compacted);
        assert_eq!(&*store.lookup(1).unwrap(), r#"{"a":1}"#);
        assert!(store.lookup(2).is_none());
        drop(store);
        // The compaction stuck: a further open is clean.
        assert!(SolutionStore::fsck(&path).unwrap().ok());
    }

    #[test]
    fn flipped_checksum_byte_skips_only_that_record() {
        let path = temp_path("flip");
        let _cleanup = Cleanup(path.clone());
        let store = SolutionStore::open(&path).unwrap();
        store.append(1, r#"{"a":1}"#).unwrap();
        store.append(2, r#"{"b":2}"#).unwrap();
        store.append(3, r#"{"c":3}"#).unwrap();
        drop(store);
        // Flip a byte of record 2's checksum field: records are
        // magic + [key 8 | len 4 | sum 8 | payload], payloads 7 bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        let record2 = STORE_MAGIC.len() + RECORD_HEADER_BYTES + 7;
        bytes[record2 + 12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let report = SolutionStore::fsck(&path).unwrap();
        assert_eq!(report.corrupt_records, 1);
        assert_eq!(report.records, 2);

        let store = SolutionStore::open(&path).unwrap();
        assert!(store.open_report().compacted);
        assert_eq!(store.open_report().corrupt_skipped, 1);
        assert_eq!(&*store.lookup(1).unwrap(), r#"{"a":1}"#);
        assert!(store.lookup(2).is_none());
        assert_eq!(&*store.lookup(3).unwrap(), r#"{"c":3}"#);
        // Appends keep working after a recovery open.
        store.append(2, r#"{"b":2}"#).unwrap();
        drop(store);
        assert!(SolutionStore::fsck(&path).unwrap().ok());
    }

    #[test]
    fn foreign_files_are_refused_not_recovered() {
        let path = temp_path("foreign");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, b"definitely not a store log").unwrap();
        let err = SolutionStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(SolutionStore::fsck(&path).is_err());
    }

    #[test]
    fn registry_backed_instruments_are_visible_in_snapshots() {
        let path = temp_path("registry");
        let _cleanup = Cleanup(path.clone());
        let registry = Registry::new();
        let store = SolutionStore::open_with_registry(&path, &registry).unwrap();
        store.append(5, r#"{"x":5}"#).unwrap();
        assert!(store.lookup(5).is_some());
        assert!(store.lookup(6).is_none());
        let snap = registry.snapshot();
        assert_eq!(snap.counters["store_hits"], 1);
        assert_eq!(snap.counters["store_misses"], 1);
        assert_eq!(snap.counters["store_appends"], 1);
        assert_eq!(snap.gauges["store_records"], 1);
        assert_eq!(snap.histograms["store_open_scan_ns"].count, 1);
    }

    #[test]
    fn solve_keys_separate_what_the_payload_separates() {
        use cnash_runtime::spec::{ConfigSpec, GameSpec, SolverSpec};
        let job = |game: &GameSpec, runs: usize, seed: u64, label: Option<&str>| JobSpec {
            game: game.clone(),
            solver: SolverSpec::CNash {
                config: ConfigSpec::paper(12).with_iterations(800),
                hardware_seed: 1,
            },
            runs,
            base_seed: seed,
            early_stop: None,
            label: label.map(str::to_string),
        };
        let builtin = GameSpec::Builtin("battle_of_the_sexes".into());
        let game = builtin.build().unwrap();
        let base = solve_key(&game, &job(&builtin, 4, 0, None), TruthPolicy::Enumerate);
        // Identical job: identical key.
        assert_eq!(
            base,
            solve_key(&game, &job(&builtin, 4, 0, None), TruthPolicy::Enumerate)
        );
        // Every payload-relevant knob moves the key.
        assert_ne!(
            base,
            solve_key(&game, &job(&builtin, 5, 0, None), TruthPolicy::Enumerate)
        );
        assert_ne!(
            base,
            solve_key(&game, &job(&builtin, 4, 1, None), TruthPolicy::Enumerate)
        );
        assert_ne!(
            base,
            solve_key(
                &game,
                &job(&builtin, 4, 0, Some("bos")),
                TruthPolicy::Enumerate
            )
        );
        assert_ne!(
            base,
            solve_key(&game, &job(&builtin, 4, 0, None), TruthPolicy::Skip)
        );
        // An explicit-matrix capture keeps the game's name: the builtin
        // and captured forms build canonically-equal games with equal
        // default labels, so they share one record — spec-form
        // independence, like the instance cache.
        let explicit = GameSpec::from_game(&game);
        let explicit_game = explicit.build().unwrap();
        assert_eq!(
            game.canonical_fingerprint(),
            explicit_game.canonical_fingerprint()
        );
        assert_eq!(
            base,
            solve_key(
                &explicit_game,
                &job(&explicit, 4, 0, None),
                TruthPolicy::Enumerate
            )
        );
        // Renaming the same payoffs changes the default label, which
        // the payload embeds — the key must diverge...
        let GameSpec::Explicit {
            row_payoffs,
            col_payoffs,
            ..
        } = explicit
        else {
            unreachable!("from_game returns an explicit spec");
        };
        let renamed = GameSpec::Explicit {
            name: "renamed".into(),
            row_payoffs,
            col_payoffs,
        };
        let renamed_game = renamed.build().unwrap();
        assert_eq!(
            game.canonical_fingerprint(),
            renamed_game.canonical_fingerprint()
        );
        assert_ne!(
            base,
            solve_key(
                &renamed_game,
                &job(&renamed, 4, 0, None),
                TruthPolicy::Enumerate
            )
        );
        // ... while a pinned label makes them share a record again.
        assert_eq!(
            solve_key(
                &game,
                &job(&builtin, 4, 0, Some("pin")),
                TruthPolicy::Enumerate
            ),
            solve_key(
                &renamed_game,
                &job(&renamed, 4, 0, Some("pin")),
                TruthPolicy::Enumerate
            )
        );
    }
}
