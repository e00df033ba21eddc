//! End-to-end tests of the instant-restart subsystem: checkpoint chains,
//! crash recovery, open-path parity, instant-open verification, and
//! hostile delta files.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use passjoin_obs::Registry;
use passjoin_online::{
    CollectSink, EngineObs, KeyBackend, OnlineIndex, PersistError, Queryable, SearchRequest,
    ShardBy, ShardedIndex,
};
use passjoin_store::delta::{apply_delta, read_delta_file};
use passjoin_store::{
    delta_path, find_chain, CheckpointedIndex, Checkpointer, OpenOptions, VerifyState,
};

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("passjoin-store-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small deterministic corpus with plenty of near-duplicates.
fn corpus(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("record-{:04}-{}", i / 3, ["alpha", "beta", "gamma"][i % 3]).into_bytes())
        .collect()
}

fn build_index(tau_max: usize, strings: &[Vec<u8>]) -> OnlineIndex {
    let mut index = OnlineIndex::new(tau_max);
    for s in strings {
        index.insert(s);
    }
    index
}

/// Queries that exercise exact hits, near misses, and absent strings.
fn probe_queries() -> Vec<Vec<u8>> {
    vec![
        b"record-0001-alpha".to_vec(),
        b"record-0001-alphq".to_vec(),
        b"record-0012-gamma".to_vec(),
        b"record-9999-omega".to_vec(),
        b"rec".to_vec(),
    ]
}

/// Asserts two queryables answer identically over the probe set at
/// every τ up to τ_max.
fn assert_equivalent(a: &dyn Queryable, b: &dyn Queryable, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: live counts differ");
    assert_eq!(a.epoch(), b.epoch(), "{context}: epochs differ");
    assert_eq!(a.tau_max(), b.tau_max(), "{context}: tau_max differs");
    for q in probe_queries() {
        for tau in 0..=a.tau_max() {
            assert_eq!(
                a.matches(&q, tau),
                b.matches(&q, tau),
                "{context}: query {:?} tau {tau}",
                String::from_utf8_lossy(&q)
            );
        }
    }
}

/// The twin-driving mutation script: deterministic inserts and removes.
enum Op {
    Insert(&'static [u8]),
    Remove(u32),
}

const ROUND_ONE: &[Op] = &[
    Op::Insert(b"record-0100-delta"),
    Op::Insert(b"record-0100-epsilon"),
    Op::Remove(2),
    Op::Insert(b"record-0101-delta"),
    Op::Remove(5),
];

const ROUND_TWO: &[Op] = &[
    Op::Remove(60),
    Op::Insert(b"record-0102-zeta"),
    Op::Insert(b"record-0102-eta"),
    Op::Remove(0),
];

fn apply_to_twin(twin: &mut OnlineIndex, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(s) => {
                twin.insert(s);
            }
            Op::Remove(id) => {
                assert!(twin.remove(*id));
            }
        }
    }
}

fn apply_to_store(store: &CheckpointedIndex, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(s) => {
                store.insert(s);
            }
            Op::Remove(id) => {
                assert!(store.remove(*id));
            }
        }
    }
}

#[test]
fn checkpoint_chain_roundtrips_across_restarts() {
    let scratch = Scratch::new("chain-roundtrip");
    let base = scratch.path("index.snap");
    let mut twin = build_index(2, &corpus(60));
    twin.save(&base).unwrap();

    // First serving session: mutate, checkpoint, mutate, checkpoint.
    {
        let store = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
        apply_to_store(&store, ROUND_ONE);
        assert_eq!(store.pending_ops(), ROUND_ONE.len());
        assert_eq!(store.checkpoint().unwrap(), Some(delta_path(&base, 1)));
        assert_eq!(store.pending_ops(), 0);
        assert!(
            store.checkpoint().unwrap().is_none(),
            "an empty log writes nothing"
        );
        apply_to_store(&store, ROUND_TWO);
        assert_eq!(store.checkpoint().unwrap(), Some(delta_path(&base, 2)));
    }
    apply_to_twin(&mut twin, ROUND_ONE);
    apply_to_twin(&mut twin, ROUND_TWO);

    assert_eq!(find_chain(&base).len(), 2);

    // Restart: every open mode recovers base + chain exactly.
    for (name, options) in [
        ("default", OpenOptions::new()),
        ("mmap", OpenOptions::new().mmap(true)),
        ("instant", OpenOptions::new().mmap(true).instant(true)),
    ] {
        let store = CheckpointedIndex::open(&base, options).unwrap();
        if name == "instant" {
            assert_eq!(store.wait_for_verification(), VerifyState::Ok);
        } else {
            assert_eq!(store.verification(), VerifyState::Ok);
        }
        assert_equivalent(&store, &twin, name);
    }

    // And the unwrapped recovery path agrees too: a plain load with the
    // chain replayed link by link.
    let mut plain = OnlineIndex::load(&base).unwrap();
    for link in find_chain(&base) {
        let (meta, ops) = read_delta_file(&link).unwrap();
        apply_delta(&mut plain, &meta, &ops).unwrap();
    }
    assert_equivalent(&plain, &twin, "load + replay");
}

#[test]
fn a_killed_server_recovers_exactly_the_last_checkpoint() {
    let scratch = Scratch::new("crash-replay");
    let base = scratch.path("index.snap");
    let mut twin = build_index(2, &corpus(60));
    twin.save(&base).unwrap();

    // Session 1 "crashes": ROUND_ONE is checkpointed, ROUND_TWO is
    // applied in memory but never drained — `forget` skips every drop
    // (no Checkpointer shutdown drain, no flush), like a SIGKILL.
    {
        let store = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
        apply_to_store(&store, ROUND_ONE);
        store.checkpoint().unwrap();
        apply_to_store(&store, ROUND_TWO);
        std::mem::forget(store);
    }
    apply_to_twin(&mut twin, ROUND_ONE); // ROUND_TWO is lost by design

    let recovered = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
    assert_equivalent(&recovered, &twin, "post-crash");

    // Session 2 resumes the chain where the crash left it: its first
    // checkpoint is delta-2 and must replay cleanly on the next boot.
    apply_to_store(&recovered, ROUND_TWO);
    assert_eq!(recovered.checkpoint().unwrap(), Some(delta_path(&base, 2)));
    apply_to_twin(&mut twin, ROUND_TWO);
    let rebooted = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
    assert_equivalent(&rebooted, &twin, "post-crash second boot");
}

#[test]
fn background_checkpointer_drains_on_stop() {
    let scratch = Scratch::new("checkpointer");
    let base = scratch.path("index.snap");
    let mut twin = build_index(1, &corpus(12));
    twin.save(&base).unwrap();

    let registry = Arc::new(Registry::new());
    let store = Arc::new(
        CheckpointedIndex::open(&base, OpenOptions::new().registry(Arc::clone(&registry))).unwrap(),
    );
    // A long interval: the drain on stop must do the work, not the timer.
    let writer = Checkpointer::start(Arc::clone(&store), Duration::from_secs(3600));
    apply_to_store(&store, ROUND_ONE);
    apply_to_twin(&mut twin, ROUND_ONE);
    assert!(writer.last_error().is_none());
    writer.stop();
    assert_eq!(store.pending_ops(), 0, "stop drains the log");
    assert_eq!(find_chain(&base).len(), 1);

    let obs = store.obs().expect("registry attached");
    assert_eq!(obs.checkpoints_total.get(), 1);
    assert_eq!(obs.checkpoint_ops_total.get(), ROUND_ONE.len() as u64);
    assert!(registry
        .render_prometheus()
        .contains("passjoin_store_checkpoints_total 1"));

    let recovered = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
    assert_equivalent(&recovered, &twin, "after background drain");
}

#[test]
fn instant_open_stays_mutable_and_materializes() {
    // An all-long corpus defers the span walk to the first mutation; the
    // second holds strings ≤ τ_max, so its short lane is counted at open.
    let mut with_short = corpus(90);
    with_short[2] = b"ab".to_vec(); // removed by ROUND_ONE
    with_short[7] = b"".to_vec();
    with_short[8] = b"re".to_vec(); // within τ of the "rec" probe
    for (name, strings) in [("all-long", corpus(90)), ("with-short", with_short)] {
        let scratch = Scratch::new(&format!("instant-mutate-{name}"));
        let base = scratch.path("index.snap");
        let mut twin = build_index(2, &strings);
        twin.save(&base).unwrap();

        // The instant open reads strings in place off the mapped span
        // table; parity must hold before any mutation…
        let instant =
            CheckpointedIndex::open(&base, OpenOptions::new().mmap(true).instant(true)).unwrap();
        assert_equivalent(&instant, &twin, "pristine instant open");

        // …and the first mutation (which runs any deferred span walk,
        // recounting from the spans actually read, and rebuilds the
        // segment lane) must keep it in lockstep with the eagerly built
        // twin, including tombstone counts.
        apply_to_twin(&mut twin, ROUND_ONE);
        apply_to_store(&instant, ROUND_ONE);
        assert_equivalent(&instant, &twin, "after materializing mutations");
        assert_eq!(instant.stats().tombstones, twin.stats().tombstones);
        assert_eq!(instant.wait_for_verification(), VerifyState::Ok);

        // A save of the mutated state round-trips like any other.
        let resaved = scratch.path("resaved.snap");
        instant.save_full(&resaved).unwrap();
        let reloaded = OnlineIndex::load(&resaved).unwrap();
        assert_equivalent(&reloaded, &twin, "resaved after materialization");
    }
}

#[test]
fn hostile_spans_read_as_tombstones_on_the_lazy_path() {
    let scratch = Scratch::new("hostile-span");
    let base = scratch.path("index.snap");
    build_index(2, &corpus(30)).save(&base).unwrap();

    // Point id 7's span far past the arena (12 bytes per span entry:
    // start u64 + len u32; section 2 is the span table). The section CRC
    // now lies — an eager load catches that, an instant open defers it.
    let pristine = std::fs::read(&base).unwrap();
    let file = passjoin_persist::SnapshotFile::parse_lazy(pristine.clone().into()).unwrap();
    let spans = file.section_range(2).unwrap();
    let mut bytes = pristine;
    let at = spans.start + 7 * 12;
    bytes[at..at + 8].copy_from_slice(&(u64::MAX - 1024).to_le_bytes());
    std::fs::write(&base, &bytes).unwrap();
    assert!(
        OnlineIndex::load(&base).is_err(),
        "eager load must reject the corrupted span section"
    );

    // Deferred validation must stay memory-safe: the hostile span reads
    // as a tombstone, so queries (whose postings still reference id 7)
    // skip it instead of slicing out of bounds.
    let instant =
        CheckpointedIndex::open(&base, OpenOptions::new().mmap(true).instant(true)).unwrap();
    for q in probe_queries() {
        let _ = instant.matches(&q, 2);
    }
    assert!(
        instant.matches(b"record-0002-beta", 0).is_empty(),
        "the hostile id must not match"
    );

    // The first mutation walks every span: no panic, and the hostile id
    // stays dead.
    instant.insert(b"record-0030-delta");
    assert!(!instant.remove(7), "hostile span materializes as tombstone");
    assert_eq!(instant.len(), 30, "29 survivors + 1 insert");
    // And the background check rejects the file.
    assert!(matches!(
        instant.wait_for_verification(),
        VerifyState::Failed { .. }
    ));
}

/// A chained instant open replays the chain onto the base, and the
/// replay's first mutation rebuilds the segment lane out of the file's
/// postings. So the base is checked before the replay: a flipped byte
/// in any section from the span table (2) to the id blob (9) fails the
/// open instead of panicking it. Each flip gets a fresh file (a mapped
/// file is never rewritten).
#[test]
fn chained_instant_opens_reject_a_corrupt_base() {
    let scratch = Scratch::new("chained-instant-flips");
    let source = scratch.path("source.snap");
    build_index(2, &corpus(60)).save(&source).unwrap();
    let store = CheckpointedIndex::open(&source, OpenOptions::new()).unwrap();
    store.insert(b"record-0100-delta");
    store.checkpoint().unwrap();
    drop(store);
    let delta = std::fs::read(delta_path(&source, 1)).unwrap();
    let pristine = std::fs::read(&source).unwrap();
    let file = passjoin_persist::SnapshotFile::parse_lazy(pristine.clone().into()).unwrap();
    // Section 5 is absent: only the retired interned backend wrote it.
    for section in file.section_ids().filter(|id| (2..=9).contains(id)) {
        let range = file.section_range(section).unwrap();
        let step = (range.len() / 64).max(1);
        for at in range.step_by(step) {
            let mut flipped = pristine.clone();
            flipped[at] ^= 0xff;
            let base = scratch.path(&format!("flip-{at}.snap"));
            std::fs::write(&base, &flipped).unwrap();
            std::fs::write(delta_path(&base, 1), &delta).unwrap();
            let options = OpenOptions::new().mmap(true).instant(true);
            if let Ok(store) = CheckpointedIndex::open(&base, options) {
                panic!(
                    "section {section}: the flip at byte {at} opened ({:?})",
                    store.verification()
                );
            }
            std::fs::remove_file(delta_path(&base, 1)).unwrap();
            std::fs::remove_file(&base).unwrap();
        }
    }
}

/// Without a chain, an instant open checks its file in the background,
/// so queries, a save or the first mutation can run before the check
/// reports. A flipped byte in any section from the span table (2) to the
/// id blob (9) must then cost a query at most a wrong answer (a posting
/// may name an id past the table, or a segment may disagree with the
/// string read in place), the save an error and the insert a rebuilt
/// segment lane, never a panic, and the check must still fail the file.
/// Queries run through `search`, `search_streaming` and `search_batch`.
/// `remove` is left out: a flipped key byte can replay into postings that
/// disagree with the strings.
#[test]
fn saves_and_inserts_before_the_check_survive_a_corrupt_file() {
    let scratch = Scratch::new("instant-flips");
    let source = scratch.path("source.snap");
    build_index(2, &corpus(60)).save(&source).unwrap();
    let pristine = std::fs::read(&source).unwrap();
    let file = passjoin_persist::SnapshotFile::parse_lazy(pristine.clone().into()).unwrap();
    let resaved = scratch.path("resaved.snap");
    let queries = probe_queries();
    let reqs: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, 2))
        .collect();
    for section in file.section_ids().filter(|id| (2..=9).contains(id)) {
        let range = file.section_range(section).unwrap();
        let step = (range.len() / 64).max(1);
        for at in range.step_by(step) {
            let mut flipped = pristine.clone();
            flipped[at] ^= 0xff;
            let base = scratch.path(&format!("flip-{at}.snap"));
            std::fs::write(&base, &flipped).unwrap();
            let options = OpenOptions::new().mmap(true).instant(true);
            if let Ok(store) = CheckpointedIndex::open(&base, options) {
                for req in &reqs {
                    store.search(req);
                    store.search_streaming(req, &mut CollectSink::new(&mut Vec::new()));
                }
                store.search_batch(&reqs);
                let _ = store.save_full(&resaved);
                store.insert(b"record-0100-delta");
                assert!(
                    matches!(store.wait_for_verification(), VerifyState::Failed { .. }),
                    "section {section}: the check passed the flip at byte {at}"
                );
            }
            std::fs::remove_file(&base).unwrap();
        }
    }
}

#[test]
fn chains_from_a_different_base_are_rejected() {
    let scratch = Scratch::new("wrong-base");
    let base_a = scratch.path("a.snap");
    let base_b = scratch.path("b.snap");
    build_index(2, &corpus(30)).save(&base_a).unwrap();
    build_index(2, &corpus(33)).save(&base_b).unwrap();

    let store = CheckpointedIndex::open(&base_a, OpenOptions::new()).unwrap();
    store.insert(b"only-in-a");
    store.checkpoint().unwrap();
    drop(store);

    // Graft a's delta onto b's chain: the replay contract must refuse.
    std::fs::copy(delta_path(&base_a, 1), delta_path(&base_b, 1)).unwrap();
    match CheckpointedIndex::open(&base_b, OpenOptions::new()) {
        Err(PersistError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn out_of_order_deltas_are_rejected() {
    let scratch = Scratch::new("out-of-order");
    let base = scratch.path("index.snap");
    build_index(1, &corpus(12)).save(&base).unwrap();

    let store = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
    store.insert(b"one");
    store.checkpoint().unwrap();
    store.insert(b"two");
    store.checkpoint().unwrap();
    drop(store);

    // Swap delta-1 and delta-2: discovery finds both, replay refuses.
    let d1 = delta_path(&base, 1);
    let d2 = delta_path(&base, 2);
    let tmp = scratch.path("tmp");
    std::fs::rename(&d1, &tmp).unwrap();
    std::fs::rename(&d2, &d1).unwrap();
    std::fs::rename(&tmp, &d2).unwrap();
    match CheckpointedIndex::open(&base, OpenOptions::new()) {
        Err(PersistError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // A gap orphans the tail: with slot 1 missing, the remaining file
    // (the original delta-1 sitting at slot 2) is ignored entirely and
    // recovery lands on the bare base.
    std::fs::rename(&d1, &tmp).unwrap(); // removes the delta-2 content
    let recovered = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
    assert!(find_chain(&base).is_empty());
    assert_eq!(recovered.epoch(), 12, "12 builds, no replayed ops");
    drop(recovered);

    // Restore the true delta-1 to slot 1: the one-link chain replays.
    std::fs::rename(&d2, &d1).unwrap();
    std::fs::remove_file(&tmp).unwrap();
    let recovered = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
    assert_eq!(find_chain(&base).len(), 1);
    assert_eq!(recovered.epoch(), 13, "12 builds + 1 replayed insert");
}

#[test]
fn every_corruption_of_a_delta_file_is_rejected() {
    let scratch = Scratch::new("delta-corruption");
    let base = scratch.path("index.snap");
    let mut twin = build_index(1, &corpus(9));
    twin.save(&base).unwrap();

    let store = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
    apply_to_store(&store, ROUND_ONE);
    store.checkpoint().unwrap();
    drop(store);
    apply_to_twin(&mut twin, ROUND_ONE);

    let path = delta_path(&base, 1);
    let pristine = std::fs::read(&path).unwrap();

    // The pristine chain replays.
    CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();

    // Every truncation length fails loudly.
    for len in 0..pristine.len() {
        std::fs::write(&path, &pristine[..len]).unwrap();
        match CheckpointedIndex::open(&base, OpenOptions::new()) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {len} bytes was accepted"),
        }
    }

    // Every single-byte flip fails loudly or, if it is genuinely
    // unreachable by any validator, at least never diverges silently.
    for i in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match CheckpointedIndex::open(&base, OpenOptions::new()) {
            Err(_) => {}
            Ok(recovered) => {
                // CRC32 catches single-bit flips in sections; only
                // header/table bytes that round-trip to the same
                // meaning could land here — the state must still be
                // the pristine one.
                assert_equivalent(&recovered, &twin, "flip survived validation");
            }
        }
    }

    std::fs::write(&path, &pristine).unwrap();
    let recovered = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
    assert_equivalent(&recovered, &twin, "restored pristine chain");
}

#[test]
fn a_full_snapshot_in_the_chain_position_is_rejected() {
    let scratch = Scratch::new("snapshot-as-delta");
    let base = scratch.path("index.snap");
    build_index(1, &corpus(9)).save(&base).unwrap();
    // A valid *snapshot* where a delta should be.
    std::fs::copy(&base, delta_path(&base, 1)).unwrap();
    match CheckpointedIndex::open(&base, OpenOptions::new()) {
        Err(PersistError::Corrupt { context }) => {
            assert!(context.contains("delta"), "context: {context}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn instant_open_flags_a_deep_lie_in_the_background() {
    let scratch = Scratch::new("instant-verify");
    let base = scratch.path("index.snap");
    build_index(1, &corpus(30)).save(&base).unwrap();

    // Eager open rejects a corrupted section outright…
    let pristine = std::fs::read(&base).unwrap();
    let mut bytes = pristine.clone();
    let n = bytes.len();
    bytes[n - 9] ^= 0xff; // deep inside the last section's payload
    std::fs::write(&base, &bytes).unwrap();
    assert!(CheckpointedIndex::open(&base, OpenOptions::new()).is_err());

    // …while an instant open may defer the rejection to the verifier.
    match CheckpointedIndex::open(&base, OpenOptions::new().instant(true)) {
        Err(_) => {} // the touched byte was in an eagerly read section
        Ok(store) => match store.wait_for_verification() {
            VerifyState::Failed { .. } => {}
            state => panic!("background verify missed the corruption: {state:?}"),
        },
    }

    std::fs::write(&base, &pristine).unwrap();
    let store = CheckpointedIndex::open(&base, OpenOptions::new().instant(true)).unwrap();
    assert_eq!(store.wait_for_verification(), VerifyState::Ok);
}

#[test]
fn v2_snapshots_open_through_the_rebuild_fallback() {
    let scratch = Scratch::new("v2-fallback");
    let base = scratch.path("index.snap");
    let v2: &[u8] = include_bytes!("../../online/tests/data/v2-owned.snap");
    std::fs::write(&base, v2).unwrap();
    assert_eq!(&v2[8..12], &2u32.to_le_bytes(), "fixture is format v2");

    let store = CheckpointedIndex::open(&base, OpenOptions::new().mmap(true)).unwrap();
    assert_eq!(store.verification(), VerifyState::Ok);
    let twin = OnlineIndex::load(&base).unwrap();
    assert_equivalent(&store, &twin, "v2 fallback");

    // And it checkpoints like any other base.
    store.insert(b"fresh");
    store.checkpoint().unwrap();
    drop(store);
    let recovered = CheckpointedIndex::open(&base, OpenOptions::new()).unwrap();
    assert!(!recovered.matches(b"fresh", 0).is_empty());
}

/// Snapshots written by the retired interned key backend — the v2 and v3
/// golden fixtures, the five-string collection with id 2 removed — open
/// on every store path, answer exactly like an owned build of the same
/// strings, take a first mutation, and re-save as that build's owned
/// file. Along the way, the snapshot check is checked to be timed once
/// in the engine metrics, eager or instant, and
/// `CheckpointedIndex::matches` to be counted like any other request.
#[test]
fn interned_snapshots_open_on_every_path() {
    let strings = ["pass-join", "pass-joins", "snapshot", "ab", ""];
    let owned_build = || {
        let mut index = OnlineIndex::from_strings(strings.iter().map(|s| s.as_bytes()), 2);
        index.remove(2);
        index
    };
    let queries: Vec<&[u8]> = strings
        .iter()
        .map(|s| s.as_bytes())
        .chain([&b"pass"[..], b"snapshots"])
        .collect();
    let assert_answers_like = |a: &dyn Queryable, b: &dyn Queryable, context: &str| {
        assert_eq!(a.len(), b.len(), "{context}: live counts differ");
        for q in &queries {
            for tau in 0..=2 {
                assert_eq!(
                    a.matches(q, tau),
                    b.matches(q, tau),
                    "{context}: {q:?} at {tau}"
                );
            }
        }
    };
    let fixtures: [(&str, &[u8]); 2] = [
        (
            "v2",
            include_bytes!("../../online/tests/data/v2-interned.snap"),
        ),
        (
            "v3",
            include_bytes!("../../online/tests/data/v3-interned.snap"),
        ),
    ];
    for (version, bytes) in fixtures {
        let scratch = Scratch::new(&format!("interned-{version}"));
        let base = scratch.path("index.snap");
        std::fs::write(&base, bytes).unwrap();
        let fresh = owned_build();
        assert_answers_like(
            &CheckpointedIndex::open(&base, OpenOptions::new().mmap(true)).unwrap(),
            &fresh,
            "mapped open",
        );

        for (mode, options) in [
            ("eager", OpenOptions::new()),
            ("instant", OpenOptions::new().mmap(true).instant(true)),
        ] {
            let context = format!("{version} {mode}");
            let registry = Arc::new(Registry::new());
            let store = CheckpointedIndex::open(&base, options.registry(Arc::clone(&registry)))
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(store.wait_for_verification(), VerifyState::Ok, "{context}");
            let checks = registry.histogram("passjoin_snapshot_load_validate_ns");
            assert_eq!(checks.count(), 1, "{context}: the check is timed once");
            assert_answers_like(&store, &fresh, &context);
            let requests = registry.counter("passjoin_requests_total");
            let before = requests.get();
            store.matches(b"pass-join", 1);
            assert_eq!(requests.get(), before + 1, "{context}: matches is counted");

            let mut twin = owned_build();
            assert_eq!(store.insert(b"pass-jion"), twin.insert(b"pass-jion"));
            assert_eq!(store.remove(0), twin.remove(0));
            assert_answers_like(&store, &twin, &context);

            let resaved = scratch.path(&format!("resaved-{mode}.snap"));
            let expected = scratch.path(&format!("expected-{mode}.snap"));
            store.save_full(&resaved).unwrap();
            twin.save(&expected).unwrap();
            assert_eq!(
                std::fs::read(&resaved).unwrap(),
                std::fs::read(&expected).unwrap(),
                "{context}: re-saves as the owned build's file"
            );
        }
    }
}

/// The five-string collection of the golden fixtures, τ_max 2, id 2
/// removed.
const FIVE: [&str; 5] = ["pass-join", "pass-joins", "snapshot", "ab", ""];

fn five_build() -> OnlineIndex {
    let mut index = OnlineIndex::from_strings(FIVE.iter().map(|s| s.as_bytes()), 2);
    index.remove(2);
    index
}

/// A snapshot opened through one of the public single-index paths.
enum Opened {
    Index(OnlineIndex),
    Store(CheckpointedIndex),
}

impl Opened {
    fn queryable(&self) -> &dyn Queryable {
        match self {
            Opened::Index(index) => index,
            Opened::Store(store) => store,
        }
    }

    fn save(&self, path: &Path) {
        match self {
            Opened::Index(index) => index.save(path),
            Opened::Store(store) => store.save_full(path),
        }
        .unwrap();
    }
}

/// `path` opened through every public single-index path. Store opens
/// must pass their check (before returning, or in the background).
fn open_every_way(path: &Path) -> Vec<(&'static str, Opened)> {
    let store = |options: OpenOptions| {
        let store = CheckpointedIndex::open(path, options).unwrap();
        assert_eq!(store.wait_for_verification(), VerifyState::Ok);
        Opened::Store(store)
    };
    vec![
        ("load", Opened::Index(OnlineIndex::load(path).unwrap())),
        (
            "load_with",
            Opened::Index(OnlineIndex::load_with(path, Arc::new(EngineObs::new())).unwrap()),
        ),
        ("open", store(OpenOptions::new())),
        ("open mmap", store(OpenOptions::new().mmap(true))),
        ("open instant", store(OpenOptions::new().instant(true))),
        (
            "open mmap + instant",
            store(OpenOptions::new().mmap(true).instant(true)),
        ),
    ]
}

/// Asserts `a` answers every query exactly like `b` at every τ up to
/// τ_max, through single requests and one batch per τ.
fn assert_answers_agree(a: &dyn Queryable, b: &dyn Queryable, queries: &[Vec<u8>], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: live counts differ");
    assert_eq!(a.tau_max(), b.tau_max(), "{context}: tau_max differs");
    for tau in 0..=b.tau_max() {
        for q in queries {
            assert_eq!(
                a.matches(q, tau),
                b.matches(q, tau),
                "{context}: {q:?} at {tau}"
            );
        }
        let reqs = SearchRequest::uniform(queries, tau);
        assert_eq!(
            a.search_batch(&reqs).into_matches(),
            b.search_batch(&reqs).into_matches(),
            "{context}: batch at {tau}"
        );
    }
}

/// One parity table over every open path. Each fixture — the golden
/// v1, v2 and v3 files and a fresh save — opened through every public
/// path must be on the direct store exactly when the file carries
/// sections 6–9, answer like the owned build of its collection for every
/// τ ≤ τ_max, and re-save as that build's file, byte for byte. The
/// router fixture does the same through `ShardedIndex::load_sharded`.
#[test]
fn every_open_path_agrees_on_every_fixture() {
    let scratch = Scratch::new("open-parity");
    let mut fresh = build_index(2, &corpus(90));
    for id in [3, 40, 41] {
        assert!(fresh.remove(id));
    }
    let fresh_file = scratch.path("fresh-source.snap");
    fresh.save(&fresh_file).unwrap();
    let fixtures: [(&str, Vec<u8>, OnlineIndex, bool); 5] = [
        (
            "v1-owned",
            include_bytes!("../../online/tests/data/v1-owned.snap").to_vec(),
            five_build(),
            false,
        ),
        (
            "v2-owned",
            include_bytes!("../../online/tests/data/v2-owned.snap").to_vec(),
            five_build(),
            false,
        ),
        (
            "v2-interned",
            include_bytes!("../../online/tests/data/v2-interned.snap").to_vec(),
            five_build(),
            false,
        ),
        (
            "v3-interned",
            include_bytes!("../../online/tests/data/v3-interned.snap").to_vec(),
            five_build(),
            true,
        ),
        ("fresh", std::fs::read(&fresh_file).unwrap(), fresh, true),
    ];
    let queries: Vec<Vec<u8>> = FIVE
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .chain([b"pass".to_vec(), b"snapshots".to_vec()])
        .chain(probe_queries())
        .collect();
    for (name, bytes, build, appendix) in fixtures {
        let path = scratch.path(&format!("{name}.snap"));
        std::fs::write(&path, &bytes).unwrap();
        let expected_file = scratch.path(&format!("{name}-expected.snap"));
        build.save(&expected_file).unwrap();
        let expected = std::fs::read(&expected_file).unwrap();
        let backend = if appendix {
            KeyBackend::Direct
        } else {
            KeyBackend::Owned
        };
        for (how, opened) in open_every_way(&path) {
            let context = format!("{name} via {how}");
            let source = opened.queryable();
            assert_eq!(source.key_backend(), backend, "{context}");
            assert_eq!(source.epoch(), build.epoch(), "{context}");
            assert_answers_agree(source, &build, &queries, &context);
            let resaved = scratch.path("resaved.snap");
            opened.save(&resaved);
            assert_eq!(
                std::fs::read(&resaved).unwrap(),
                expected,
                "{context}: re-save"
            );
        }
    }

    // The router fixture: a manifest plus one v3 snapshot per shard; ten
    // strings over two length-banded shards, id 2 removed.
    let ten: Vec<&[u8]> = [
        "pass-join",
        "pass-joins",
        "snapshot",
        "ab",
        "",
        "partition-based",
        "similarity joins",
        "vldb",
        "pvldb",
        "similarity join",
    ]
    .iter()
    .map(|s| s.as_bytes())
    .collect();
    let router = scratch.path("router.snap");
    let shard = |i: usize| scratch.path(&format!("router.snap.shard{i}"));
    std::fs::write(
        &router,
        include_bytes!("../../online/tests/data/v3-interned-router.snap"),
    )
    .unwrap();
    std::fs::write(
        shard(0),
        include_bytes!("../../online/tests/data/v3-interned-router.snap.shard0"),
    )
    .unwrap();
    std::fs::write(
        shard(1),
        include_bytes!("../../online/tests/data/v3-interned-router.snap.shard1"),
    )
    .unwrap();
    let loaded = ShardedIndex::load_sharded(&router).unwrap();
    let mut built = ShardedIndex::builder(2)
        .shards(2)
        .shard_by(ShardBy::Len)
        .build_from(ten.iter());
    assert!(built.remove(2));
    assert_eq!(loaded.key_backend(), KeyBackend::Direct);
    let mut router_queries: Vec<Vec<u8>> = ten.iter().map(|s| s.to_vec()).collect();
    router_queries.push(b"pass".to_vec());
    assert_answers_agree(&loaded, &built, &router_queries, "router via load_sharded");
    let (resaved, expected) = (scratch.path("resaved.pj"), scratch.path("expected.pj"));
    loaded.save_sharded(&resaved).unwrap();
    built.save_sharded(&expected).unwrap();
    for suffix in ["", ".shard0", ".shard1"] {
        let file = |base: &Path| {
            let mut name = base.as_os_str().to_owned();
            name.push(suffix);
            std::fs::read(PathBuf::from(name)).unwrap()
        };
        assert_eq!(file(&resaved), file(&expected), "router re-save{suffix}");
    }
}

/// Postings for a crafted snapshot: `(l, slot, key, ids)`.
type Postings<'a> = &'a [(usize, usize, &'a [u8], &'a [u32])];

/// A CRC-valid snapshot from a lying producer: META, SPANS and STRINGS
/// for one live `"abcd"` (id 0) and one tombstone (id 1) at τ_max 1,
/// declaring `entries` postings, then section 4 and the direct-probe
/// appendix built from `postings` — which may lie.
fn lying_snapshot(entries: u64, postings: Postings<'_>) -> Vec<u8> {
    use passjoin::PartitionScheme;
    use passjoin_persist::{format, segdirect, segmap, SnapshotWriter};

    let mut meta = Vec::new();
    for v in [1u64, 0, 2, 1, 4, entries, 0] {
        meta.extend_from_slice(&v.to_le_bytes());
    }
    let mut spans = Vec::new();
    spans.extend_from_slice(&0u64.to_le_bytes()); // id 0: live "abcd"
    spans.extend_from_slice(&4u32.to_le_bytes());
    spans.extend_from_slice(&u64::MAX.to_le_bytes()); // id 1: tombstone
    spans.extend_from_slice(&0u32.to_le_bytes());
    let seg = segmap::encode_with(PartitionScheme::Even, 1, |f| {
        for &(l, slot, key, ids) in postings {
            f(l, slot, key, ids);
        }
    });
    let direct = segdirect::encode_direct(PartitionScheme::Even, 1, |f| {
        for &(l, slot, key, ids) in postings {
            f(l, slot, key, ids);
        }
    });
    let mut ids_at = format::payload_base(8) as u64;
    for len in [
        meta.len(),
        spans.len(),
        4,
        seg.len(),
        direct.dir.len(),
        direct.runs.len(),
        direct.keys.len(),
    ] {
        ids_at += len as u64;
    }
    let mut writer = SnapshotWriter::new();
    writer
        .section(1, meta)
        .section(2, spans)
        .section(3, b"abcd".to_vec())
        .section(4, seg);
    for (id, payload) in direct.finish(ids_at) {
        writer.section(id, payload);
    }
    let mut out = Vec::new();
    writer.write_to(&mut out).unwrap();
    out
}

/// Every CRC-valid lie in the direct-probe appendix that an eager open
/// rejects, an instant open rejects too: at open when the O(sections)
/// checks catch it, otherwise by the time the background verifier
/// reports — never `Ok`.
#[test]
fn instant_opens_reject_what_eager_opens_reject() {
    let scratch = Scratch::new("instant-lies");
    // A consistent base for the directory lie: a real save whose DIR
    // section claims one more posting than the id blob holds.
    let base = scratch.path("base.snap");
    build_index(2, &corpus(40)).save(&base).unwrap();
    let dir_lie = {
        use passjoin_persist::{SnapshotFile, SnapshotWriter};
        let parsed = SnapshotFile::open(&base).unwrap();
        let mut writer = SnapshotWriter::new();
        for id in parsed.section_ids() {
            let mut payload = parsed.section(id).unwrap().to_vec();
            if id == 6 {
                let n = u64::from_le_bytes(payload[24..32].try_into().unwrap());
                payload[24..32].copy_from_slice(&(n + 1).to_le_bytes());
            }
            writer.section(id, payload);
        }
        let mut out = Vec::new();
        writer.write_to(&mut out).unwrap();
        out
    };
    // "abcd" at τ = 1 partitions into "ab" (slot 1) + "cd" (slot 2).
    let cases: [(&str, Vec<u8>, bool); 6] = [
        (
            "postings on a tombstone",
            lying_snapshot(2, &[(4, 1, b"ab", &[1]), (4, 2, b"cd", &[1])]),
            false,
        ),
        (
            "postings of the wrong length",
            lying_snapshot(2, &[(5, 1, b"ab", &[0]), (5, 2, b"cde", &[0])]),
            false,
        ),
        (
            "keys off the partition geometry",
            lying_snapshot(2, &[(4, 1, b"abc", &[0]), (4, 2, b"d", &[0])]),
            false,
        ),
        (
            "unsorted posting ids",
            lying_snapshot(4, &[(4, 1, b"ab", &[1, 0]), (4, 2, b"cd", &[0, 1])]),
            true,
        ),
        (
            "an entry-count lie",
            lying_snapshot(7, &[(4, 1, b"ab", &[0]), (4, 2, b"cd", &[0])]),
            true,
        ),
        ("a directory blob-size lie", dir_lie, true),
    ];
    for (what, bytes, caught_at_open) in cases {
        let path = scratch.path("lie.snap");
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            CheckpointedIndex::open(&path, OpenOptions::new()).is_err(),
            "{what}: eager open accepted it"
        );
        for options in [
            OpenOptions::new().instant(true),
            OpenOptions::new().mmap(true).instant(true),
        ] {
            match CheckpointedIndex::open(&path, options) {
                Err(_) => assert!(caught_at_open, "{what}: rejected at open"),
                Ok(store) => {
                    assert!(!caught_at_open, "{what}: not rejected at open");
                    match store.wait_for_verification() {
                        VerifyState::Failed { .. } => {}
                        state => panic!("{what}: instant open ended {state:?}"),
                    }
                }
            }
        }
    }
}

/// An instant open verifies v1 and v2 files like v3 ones: every flipped
/// byte of the golden v1/v2 fixtures, which an eager open rejects, is
/// rejected at open or ends in `Failed` — never `Ok`.
#[test]
fn instant_opens_of_v1_and_v2_files_are_verified() {
    let scratch = Scratch::new("instant-legacy-flips");
    let fixtures: [(&str, &[u8]); 3] = [
        (
            "v1-owned",
            include_bytes!("../../online/tests/data/v1-owned.snap"),
        ),
        (
            "v2-owned",
            include_bytes!("../../online/tests/data/v2-owned.snap"),
        ),
        (
            "v2-interned",
            include_bytes!("../../online/tests/data/v2-interned.snap"),
        ),
    ];
    for (name, bytes) in fixtures {
        for at in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 0x20;
            // A fresh file per flip: a mapped file is never rewritten.
            let path = scratch.path(&format!("{name}-{at}.snap"));
            std::fs::write(&path, &flipped).unwrap();
            assert!(
                CheckpointedIndex::open(&path, OpenOptions::new()).is_err(),
                "{name}: eager open accepted the flip at {at}"
            );
            if let Ok(store) =
                CheckpointedIndex::open(&path, OpenOptions::new().mmap(true).instant(true))
            {
                match store.wait_for_verification() {
                    VerifyState::Failed { .. } => {}
                    state => panic!("{name}: flip at {at} ended {state:?}"),
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
