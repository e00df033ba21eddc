//! End-to-end tests of the instant-restart subsystem: checkpoint chains,
//! crash recovery, load-mode parity, and hostile delta files.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use passjoin_obs::Registry;
use passjoin_online::{OnlineIndex, PersistError, Queryable, SearchRequest};
use passjoin_store::{
    delta_path, find_chain, load_chain, open_instant, open_mapped, CheckpointedIndex, Checkpointer,
    OpenOptions, VerifyState,
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
        ("rebuild", OpenOptions::new().rebuild(true)),
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

    // And the unwrapped recovery path agrees too.
    let (plain, replayed) = load_chain(&base).unwrap();
    assert_eq!(replayed, 2);
    assert_equivalent(&plain, &twin, "load_chain");
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
fn open_modes_agree_with_the_plain_loader() {
    let scratch = Scratch::new("mode-parity");
    let base = scratch.path("index.snap");
    let twin = build_index(2, &corpus(90));
    twin.save(&base).unwrap();

    let plain = OnlineIndex::load(&base).unwrap();
    let mapped = open_mapped(&base).unwrap();
    let instant = open_instant(&base).unwrap();
    assert_equivalent(&mapped, &plain, "open_mapped");
    assert_equivalent(&instant, &plain, "open_instant");

    // Batched queries agree too (the engine path, not just `matches`).
    let reqs: Vec<SearchRequest> = probe_queries()
        .into_iter()
        .map(|q| SearchRequest::new(q, 2))
        .collect();
    let a = plain.search_batch(&reqs);
    let b = mapped.search_batch(&reqs);
    for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
        assert_eq!(x.matches, y.matches);
        assert_eq!(x.count, y.count);
    }
}

#[test]
fn instant_open_stays_mutable_and_materializes() {
    let scratch = Scratch::new("instant-mutate");
    let base = scratch.path("index.snap");
    let mut twin = build_index(2, &corpus(90));
    twin.save(&base).unwrap();

    // The instant open serves strings lazily off the mapped span table;
    // parity must hold before any materialization…
    let mut instant = open_instant(&base).unwrap();
    assert_equivalent(&instant, &twin, "pristine instant open");

    // …and the first mutation (which materializes the table and rebuilds
    // the accounting from the spans actually decoded) must keep it in
    // lockstep with the eagerly built twin, including tombstone counts.
    apply_to_twin(&mut twin, ROUND_ONE);
    apply_to_twin(&mut instant, ROUND_ONE);
    assert_equivalent(&instant, &twin, "after materializing mutations");
    assert_eq!(instant.stats().tombstones, twin.stats().tombstones);

    // A save of the materialized state round-trips like any other.
    let resaved = scratch.path("resaved.snap");
    instant.save(&resaved).unwrap();
    let reloaded = OnlineIndex::load(&resaved).unwrap();
    assert_equivalent(&reloaded, &twin, "resaved after materialization");
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
    let mut instant = open_instant(&base).unwrap();
    for q in probe_queries() {
        let _ = instant.matches(&q, 2);
    }
    assert!(
        instant.matches(b"record-0002-beta", 0).is_empty(),
        "the hostile id must not match"
    );

    // Materialization (first mutation) walks every span: no panic, and
    // the hostile id stays dead.
    instant.insert(b"record-0030-delta");
    assert!(!instant.remove(7), "hostile span materializes as tombstone");
    assert_eq!(instant.len(), 30, "29 survivors + 1 insert");
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
/// file. `CheckpointedIndex::matches` is checked to be counted by the
/// engine metrics like any other request along the way.
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
        assert_answers_like(&open_instant(&base).unwrap(), &fresh, "open_instant");
        assert_answers_like(&open_mapped(&base).unwrap(), &fresh, "open_mapped");

        for (mode, options) in [
            ("eager", OpenOptions::new()),
            ("instant", OpenOptions::new().mmap(true).instant(true)),
        ] {
            let context = format!("{version} {mode}");
            let registry = Arc::new(Registry::new());
            let store = CheckpointedIndex::open(&base, options.registry(Arc::clone(&registry)))
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(store.wait_for_verification(), VerifyState::Ok, "{context}");
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
