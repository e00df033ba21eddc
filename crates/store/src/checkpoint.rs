//! The serving wrapper: a checkpointed index and its background writer.
//!
//! [`CheckpointedIndex`] owns an [`OnlineIndex`] behind a read/write
//! lock, logs every mutation as a [`DeltaOp`], and drains the log to the
//! next file in the base snapshot's delta chain on [`checkpoint`]. It
//! implements [`Queryable`], so it slots directly into anything that
//! serves one — `passjoin-serve`'s `Server::run` takes it as-is.
//!
//! [`Checkpointer`] is the background half: a thread that checkpoints on
//! an interval and once more on shutdown (drain-safe — stopping it never
//! loses an already-applied mutation; at worst a crash loses the ops
//! since the last interval, which is the checkpointing contract).
//!
//! # Consistency
//!
//! Mutations hold the op-log lock *across* the index write and the log
//! append, so the log order always equals the index's epoch order and
//! `end_epoch = base_epoch + n_ops` holds for every drained batch.
//! Queries take only the index read lock and never block on the log.
//!
//! [`checkpoint`]: CheckpointedIndex::checkpoint

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use passjoin::sink::MatchSink;
use passjoin_obs::{Counter, Gauge, Histogram, Registry};
use passjoin_online::{
    EngineObs, ExecSource, KeyBackend, LoadMode, OnlineIndex, OnlineStats, QueryOutcome, Queryable,
    SearchRequest, SearchResponse,
};
use passjoin_persist::{segdirect, DeltaMeta, DeltaOp, PersistError, SnapshotFile};
use sj_common::StringId;

use crate::delta::{
    apply_delta, delta_path, find_chain, read_delta_file, replay_state, write_delta,
};
use crate::mmap::open_bytes;

/// The store's metric bundle, registered under `passjoin_store_*` so a
/// serving process's one registry scrape covers engine, server, and
/// storage.
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `passjoin_store_checkpoints_total` | counter | delta files written |
/// | `passjoin_store_checkpoint_failures_total` | counter | checkpoint attempts that failed |
/// | `passjoin_store_checkpoint_ops_total` | counter | mutations persisted into delta files |
/// | `passjoin_store_checkpoint_bytes_total` | counter | delta file bytes written |
/// | `passjoin_store_checkpoint_write_ns` | histogram | per-checkpoint write time |
/// | `passjoin_store_pending_ops` | gauge | mutations logged but not yet checkpointed |
/// | `passjoin_store_chain_length` | gauge | delta files in the chain |
/// | `passjoin_store_replayed_ops_total` | counter | chain ops replayed at open |
/// | `passjoin_store_open_ns` | histogram | total open time (load + chain replay) |
/// | `passjoin_store_verify_failures_total` | counter | background integrity checks that failed |
#[derive(Debug, Clone)]
pub struct StoreObs {
    /// Delta files written.
    pub checkpoints_total: Counter,
    /// Checkpoint attempts that failed (the pending log is retained).
    pub checkpoint_failures_total: Counter,
    /// Mutations persisted into delta files.
    pub checkpoint_ops_total: Counter,
    /// Delta file bytes written.
    pub checkpoint_bytes_total: Counter,
    /// Per-checkpoint write time.
    pub checkpoint_write_ns: Histogram,
    /// Mutations logged but not yet checkpointed.
    pub pending_ops: Gauge,
    /// Delta files in the chain (replayed at open + written since).
    pub chain_length: Gauge,
    /// Chain ops replayed at open.
    pub replayed_ops_total: Counter,
    /// Total open time: base load plus chain replay.
    pub open_ns: Histogram,
    /// Background integrity checks that failed (instant opens).
    pub verify_failures_total: Counter,
}

impl StoreObs {
    /// Registers (or re-attaches to) the store metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            checkpoints_total: registry.counter("passjoin_store_checkpoints_total"),
            checkpoint_failures_total: registry.counter("passjoin_store_checkpoint_failures_total"),
            checkpoint_ops_total: registry.counter("passjoin_store_checkpoint_ops_total"),
            checkpoint_bytes_total: registry.counter("passjoin_store_checkpoint_bytes_total"),
            checkpoint_write_ns: registry.histogram("passjoin_store_checkpoint_write_ns"),
            pending_ops: registry.gauge("passjoin_store_pending_ops"),
            chain_length: registry.gauge("passjoin_store_chain_length"),
            replayed_ops_total: registry.counter("passjoin_store_replayed_ops_total"),
            open_ns: registry.histogram("passjoin_store_open_ns"),
            verify_failures_total: registry.counter("passjoin_store_verify_failures_total"),
        }
    }
}

/// How [`CheckpointedIndex::open`] loads the base snapshot.
#[derive(Debug, Clone, Default)]
pub struct OpenOptions {
    /// Map the base snapshot instead of reading it (`mmap(2)`; falls
    /// back to a read where mapping is unavailable).
    pub mmap: bool,
    /// Instant restart: defer per-section CRC validation and the deep
    /// structural scan of the direct postings to a background thread,
    /// so open cost is O(sections), not O(bytes). Queries are served
    /// immediately from the shallow-validated (bounds-checked) view;
    /// see [`CheckpointedIndex::verification`] for the caveat.
    pub instant: bool,
    /// Anchor the delta chain at this path instead of the base snapshot
    /// (`<anchor>.delta-1`, …) — for read-only snapshot locations, or to
    /// keep checkpoints on faster storage. Discovery at open follows the
    /// same anchor.
    pub checkpoint_base: Option<PathBuf>,
    /// Register store + engine metrics into this registry.
    pub registry: Option<Arc<Registry>>,
}

impl OpenOptions {
    /// Default options: buffered read, eager validation, direct load.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets [`OpenOptions::mmap`].
    pub fn mmap(mut self, yes: bool) -> Self {
        self.mmap = yes;
        self
    }

    /// Sets [`OpenOptions::instant`].
    pub fn instant(mut self, yes: bool) -> Self {
        self.instant = yes;
        self
    }

    /// Sets [`OpenOptions::checkpoint_base`].
    pub fn checkpoint_base(mut self, anchor: impl Into<PathBuf>) -> Self {
        self.checkpoint_base = Some(anchor.into());
        self
    }

    /// Sets [`OpenOptions::registry`].
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }
}

/// Replay contract for the *next* delta file, plus the not-yet-drained
/// op log. Guarded by one mutex; see the module docs for the lock order.
struct LogState {
    pending: Vec<DeltaOp>,
    base_epoch: u64,
    base_universe: u64,
    next_k: u32,
}

/// Result of the background integrity check an instant open schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyState {
    /// Still running (or never scheduled — eager opens are born `Ok`).
    Pending,
    /// Every section CRC and the deep structural scan passed.
    Ok,
    /// The file failed validation; `what` is the failing invariant.
    Failed {
        /// Display form of the underlying [`PersistError`].
        what: String,
    },
}

/// A serving index with durability: the loaded base snapshot plus an
/// in-memory mutation log, drained to delta checkpoint files. See the
/// module docs for the locking and consistency story.
pub struct CheckpointedIndex {
    index: RwLock<OnlineIndex>,
    log: Mutex<LogState>,
    base: PathBuf,
    obs: Option<StoreObs>,
    verify: Arc<Mutex<VerifyState>>,
}

impl CheckpointedIndex {
    /// Opens `base` and replays its delta chain, recovering exactly the
    /// state of the last completed checkpoint.
    ///
    /// The base loads via the v3 direct appendix (no posting replay); a
    /// v2 snapshot without the appendix falls back to the rebuild path.
    /// With [`OpenOptions::instant`], CRC and deep validation run on a
    /// background thread and open returns as soon as the metadata
    /// sections parse.
    pub fn open(base: impl AsRef<Path>, options: OpenOptions) -> Result<Self, PersistError> {
        let base = base.as_ref().to_path_buf();
        let anchor = options
            .checkpoint_base
            .clone()
            .unwrap_or_else(|| base.clone());
        let start = Instant::now();
        let store_obs = options.registry.as_ref().map(|r| StoreObs::register(r));
        let engine_obs = options
            .registry
            .as_ref()
            .map(|r| Arc::new(EngineObs::with_registry(Arc::clone(r))));

        let (buf, _mapped) = open_bytes(&base, options.mmap)?;
        let file = if options.instant {
            SnapshotFile::parse_lazy(buf)?
        } else {
            SnapshotFile::parse(buf)?
        };
        let mode = if segdirect::has_direct_sections(&file) {
            LoadMode::Direct {
                deep_validate: !options.instant,
            }
        } else {
            LoadMode::Rebuild
        };
        let mut index = match &engine_obs {
            Some(obs) => OnlineIndex::from_snapshot_file_with(&file, mode, Arc::clone(obs))?,
            None => OnlineIndex::from_snapshot_file(&file, mode)?,
        };

        let verify = Arc::new(Mutex::new(
            if options.instant && mode != LoadMode::Rebuild {
                VerifyState::Pending
            } else {
                VerifyState::Ok
            },
        ));
        if matches!(*lock(&verify), VerifyState::Pending) {
            // The deep scan needs the *base* universe (chain replay
            // grows the table afterwards).
            let (_, base_universe) = replay_state(&index);
            spawn_verifier(
                file,
                index.tau_max(),
                base_universe as usize,
                Arc::clone(&verify),
                store_obs.clone(),
            );
        }

        let chain = find_chain(&anchor);
        let mut replayed = 0u64;
        for path in &chain {
            let (meta, ops) = read_delta_file(path)?;
            replayed += ops.len() as u64;
            apply_delta(&mut index, &meta, &ops)?;
        }

        let (base_epoch, base_universe) = replay_state(&index);
        if let Some(obs) = &store_obs {
            obs.chain_length.set(chain.len() as i64);
            obs.replayed_ops_total.inc(replayed);
            obs.open_ns.observe(start.elapsed().as_nanos() as u64);
            obs.pending_ops.set(0);
        }
        Ok(Self {
            index: RwLock::new(index),
            log: Mutex::new(LogState {
                pending: Vec::new(),
                base_epoch,
                base_universe,
                next_k: chain.len() as u32 + 1,
            }),
            base: anchor,
            obs: store_obs,
            verify,
        })
    }

    /// The path the delta chain hangs off: the base snapshot, unless
    /// [`OpenOptions::checkpoint_base`] re-anchored it.
    pub fn base_path(&self) -> &Path {
        &self.base
    }

    /// The store's metric handles, when a registry was attached.
    pub fn obs(&self) -> Option<&StoreObs> {
        self.obs.as_ref()
    }

    /// The state of the background integrity check. Eager opens are
    /// `Ok` from construction. An instant open serves queries while the
    /// check runs: the shallow-validated view is bounds-checked (reads
    /// cannot go out of range), but until the check reports `Ok` a
    /// corrupted-yet-CRC-consistent file could still return wrong
    /// results or panic the query thread — callers that cannot accept
    /// that window should poll this before going live, or open eagerly.
    pub fn verification(&self) -> VerifyState {
        lock(&self.verify).clone()
    }

    /// Blocks until the background integrity check finishes, returning
    /// the terminal state (`Ok` or `Failed`).
    pub fn wait_for_verification(&self) -> VerifyState {
        loop {
            let state = self.verification();
            if state != VerifyState::Pending {
                return state;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Inserts a string, logging it for the next checkpoint. Same id
    /// contract as [`OnlineIndex::insert`].
    pub fn insert(&self, s: &[u8]) -> StringId {
        let mut log = lock_log(&self.log);
        let id = write_lock(&self.index).insert(s);
        log.pending.push(DeltaOp::Insert {
            id,
            bytes: s.to_vec(),
        });
        self.note_pending(log.pending.len());
        id
    }

    /// Removes a string by id, logging an actual removal for the next
    /// checkpoint. Same contract as [`OnlineIndex::remove`].
    pub fn remove(&self, id: StringId) -> bool {
        let mut log = lock_log(&self.log);
        let removed = write_lock(&self.index).remove(id);
        if removed {
            log.pending.push(DeltaOp::Remove { id });
            self.note_pending(log.pending.len());
        }
        removed
    }

    /// Drains the pending op log to the next delta file in the chain.
    /// Returns the written path, or `None` when there was nothing to
    /// persist. On error the log is retained, so a later attempt (or
    /// the shutdown drain) still covers the same ops.
    pub fn checkpoint(&self) -> Result<Option<PathBuf>, PersistError> {
        let mut log = lock_log(&self.log);
        if log.pending.is_empty() {
            return Ok(None);
        }
        let start = Instant::now();
        let inserts = log
            .pending
            .iter()
            .filter(|op| matches!(op, DeltaOp::Insert { .. }))
            .count() as u64;
        let meta = DeltaMeta {
            tau_max: read_lock(&self.index).tau_max() as u64,
            base_epoch: log.base_epoch,
            end_epoch: log.base_epoch + log.pending.len() as u64,
            base_universe: log.base_universe,
            end_universe: log.base_universe + inserts,
        };
        let path = delta_path(&self.base, log.next_k);
        match write_delta(&path, &meta, &log.pending) {
            Ok(bytes) => {
                if let Some(obs) = &self.obs {
                    obs.checkpoints_total.inc(1);
                    obs.checkpoint_ops_total.inc(log.pending.len() as u64);
                    obs.checkpoint_bytes_total.inc(bytes);
                    obs.checkpoint_write_ns
                        .observe(start.elapsed().as_nanos() as u64);
                    obs.chain_length.set(log.next_k as i64);
                }
                log.base_epoch = meta.end_epoch;
                log.base_universe = meta.end_universe;
                log.next_k += 1;
                log.pending.clear();
                self.note_pending(0);
                Ok(Some(path))
            }
            Err(e) => {
                if let Some(obs) = &self.obs {
                    obs.checkpoint_failures_total.inc(1);
                }
                Err(e)
            }
        }
    }

    /// Writes a *full* snapshot of the current state to `path` — the
    /// compaction primitive: a full save starts a fresh, empty chain at
    /// the new path (this index keeps appending to its own chain).
    /// Mutations are blocked for the duration.
    pub fn save_full(&self, path: &Path) -> Result<u64, PersistError> {
        read_lock(&self.index).save(path)
    }

    /// Runs `f` against the live index under the read lock, for
    /// inspection APIs [`Queryable`] does not carry (`get`,
    /// `cache_stats`, …). The guard cannot escape; return owned data.
    pub fn with_index<R>(&self, f: impl FnOnce(&OnlineIndex) -> R) -> R {
        f(&read_lock(&self.index))
    }

    /// Resizes the inner index's query cache (a non-logged maintenance
    /// knob; it never touches the corpus, so the checkpoint log is
    /// unaffected).
    pub fn set_cache_capacity(&self, capacity: usize) {
        write_lock(&self.index).set_cache_capacity(capacity);
    }

    /// Mutations logged since the last checkpoint.
    pub fn pending_ops(&self) -> usize {
        lock_log(&self.log).pending.len()
    }

    /// Index statistics of the current (post-replay, post-mutation)
    /// state.
    pub fn stats(&self) -> OnlineStats {
        read_lock(&self.index).stats()
    }

    fn note_pending(&self, n: usize) {
        if let Some(obs) = &self.obs {
            obs.pending_ops.set(n as i64);
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, OnlineIndex> {
        read_lock(&self.index)
    }
}

/// A composite [`Queryable`]: no single borrowable inner state (the
/// index lives behind the lock), so `exec_source` is `None` and every
/// provided method delegates through a read guard — the same pattern as
/// the shard router.
impl Queryable for CheckpointedIndex {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        None
    }

    fn search(&self, req: &SearchRequest) -> QueryOutcome {
        self.read().search(req)
    }

    fn search_batch(&self, reqs: &[SearchRequest]) -> SearchResponse {
        self.read().search_batch(reqs)
    }

    fn search_streaming(&self, req: &SearchRequest, sink: &mut dyn MatchSink) -> QueryOutcome {
        self.read().search_streaming(req, sink)
    }

    fn search_batch_streaming(
        &self,
        reqs: &[SearchRequest],
        sinks: &mut [&mut (dyn MatchSink + Send)],
    ) -> SearchResponse {
        self.read().search_batch_streaming(reqs, sinks)
    }

    fn tau_max(&self) -> usize {
        self.read().tau_max()
    }

    fn key_backend(&self) -> KeyBackend {
        self.read().key_backend()
    }

    fn len(&self) -> usize {
        self.read().len()
    }

    fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    fn epoch(&self) -> u64 {
        self.read().epoch()
    }
}

impl std::fmt::Debug for CheckpointedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointedIndex")
            .field("base", &self.base)
            .finish_non_exhaustive()
    }
}

/// Runs the full integrity pass an instant open deferred: every section
/// CRC, then the deep structural scan of the direct postings, off the
/// serving path.
fn spawn_verifier(
    file: SnapshotFile,
    tau_max: usize,
    universe: usize,
    slot: Arc<Mutex<VerifyState>>,
    obs: Option<StoreObs>,
) {
    let thread_slot = Arc::clone(&slot);
    let run = move || {
        let outcome = file
            .verify_all()
            .and_then(|()| segdirect::decode_direct(&file, tau_max, Some(universe)).map(|_| ()));
        let state = match outcome {
            Ok(()) => VerifyState::Ok,
            Err(e) => {
                if let Some(obs) = &obs {
                    obs.verify_failures_total.inc(1);
                }
                VerifyState::Failed {
                    what: e.to_string(),
                }
            }
        };
        *lock(&thread_slot) = state;
    };
    if std::thread::Builder::new()
        .name("passjoin-store-verify".into())
        .spawn(run)
        .is_err()
    {
        // No thread available: fail safe by reporting unverified-failed
        // rather than claiming Ok for bytes nobody checked.
        *lock(&slot) = VerifyState::Failed {
            what: "could not spawn the verification thread".into(),
        };
    }
}

/// The background checkpoint thread: drains the op log every `interval`
/// and once more on [`stop`](Checkpointer::stop) (or drop), so shutdown
/// never loses an applied mutation. Write errors are counted in
/// [`StoreObs::checkpoint_failures_total`] and kept in
/// [`last_error`](Checkpointer::last_error); the pending log survives a
/// failed attempt, so the next tick retries the same ops.
pub struct Checkpointer {
    stop: Arc<AtomicBool>,
    last_error: Arc<Mutex<Option<String>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Checkpointer {
    /// Starts checkpointing `index` every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (the thread would spin) or the
    /// thread cannot be spawned.
    pub fn start(index: Arc<CheckpointedIndex>, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "checkpoint interval must be non-zero");
        let stop = Arc::new(AtomicBool::new(false));
        let last_error = Arc::new(Mutex::new(None));
        let handle = {
            let stop = Arc::clone(&stop);
            let last_error = Arc::clone(&last_error);
            std::thread::Builder::new()
                .name("passjoin-store-checkpoint".into())
                .spawn(move || {
                    // Poll in short steps so stop latency stays bounded
                    // regardless of the interval.
                    let step = interval.min(Duration::from_millis(50));
                    let mut elapsed = Duration::ZERO;
                    loop {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(step);
                        elapsed += step;
                        if elapsed >= interval {
                            elapsed = Duration::ZERO;
                            note(&last_error, index.checkpoint());
                        }
                    }
                    // Drain: persist everything applied before stop.
                    note(&last_error, index.checkpoint());
                })
                .expect("spawning the checkpoint thread")
        };
        Self {
            stop,
            last_error,
            handle: Some(handle),
        }
    }

    /// Stops the thread after a final drain checkpoint and waits for it.
    /// Returns the drain's error, if the final checkpoint failed —
    /// `Some` means applied mutations are still only in memory.
    pub fn stop(mut self) -> Option<String> {
        self.shutdown();
        lock(&self.last_error).clone()
    }

    /// The display form of the most recent checkpoint error, if any
    /// attempt has failed since the last success.
    pub fn last_error(&self) -> Option<String> {
        lock(&self.last_error).clone()
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer").finish_non_exhaustive()
    }
}

fn note(slot: &Mutex<Option<String>>, outcome: Result<Option<PathBuf>, PersistError>) {
    match outcome {
        Ok(_) => *lock(slot) = None,
        Err(e) => *lock(slot) = Some(e.to_string()),
    }
}

// Lock helpers: a poisoned lock means a panic already happened on
// another thread; the data these guards protect stays structurally
// valid (every critical section restores invariants before unwinding
// points), so serving continues rather than cascading the panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_log(m: &Mutex<LogState>) -> MutexGuard<'_, LogState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_lock(l: &RwLock<OnlineIndex>) -> RwLockReadGuard<'_, OnlineIndex> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock(l: &RwLock<OnlineIndex>) -> std::sync::RwLockWriteGuard<'_, OnlineIndex> {
    l.write().unwrap_or_else(|e| e.into_inner())
}
