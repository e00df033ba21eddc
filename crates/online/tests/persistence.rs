//! Persistence contract: a saved-then-loaded index is indistinguishable
//! from the index it was saved from — byte-identical query results for
//! **every** τ ≤ τ_max, identical stats, identical tombstones — on random
//! and planted corpora, through churn, and the loaded index stays fully
//! mutable. A saved file opens on its direct-probe appendix; the same
//! file with the appendix stripped (the v2 layout) decodes its hash-map
//! section into the owned map, and the round-trip properties run on
//! both. And every way a file can rot — truncation, any flipped byte, a
//! wrong version, garbage — is rejected with a typed error, never a
//! panic.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use common::strip_appendix;
use passjoin_online::{KeyBackend, OnlineIndex, PersistError, Queryable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A unique temp path per call (tests run concurrently in one process).
fn temp_snapshot_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "passjoin-persistence-{}-{tag}-{n}.snap",
        std::process::id()
    ))
}

/// RAII cleanup so failing tests don't leak files into the temp dir.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn save_to_temp(index: &OnlineIndex, tag: &str) -> TempFile {
    let file = TempFile(temp_snapshot_path(tag));
    index.save(&file.0).expect("save must succeed");
    file
}

/// The snapshot at `file` with its direct-probe appendix stripped (see
/// [`strip_appendix`]), as a second temp file.
fn stripped(file: &TempFile, tag: &str) -> TempFile {
    let out = TempFile(temp_snapshot_path(&format!("{tag}-stripped")));
    std::fs::write(&out.0, strip_appendix(&std::fs::read(&file.0).unwrap())).unwrap();
    out
}

/// Loads `file` on both stores — as saved (the direct-probe appendix)
/// and stripped (section 4 or 5 decoded into the owned map) — and
/// asserts each is equivalent to `original` over `queries`.
fn assert_both_layouts_equivalent(
    original: &OnlineIndex,
    file: &TempFile,
    tag: &str,
    queries: &[Vec<u8>],
) {
    let direct = OnlineIndex::load(&file.0).expect("load must succeed");
    assert_eq!(direct.key_backend(), KeyBackend::Direct);
    assert_equivalent(original, &direct, queries);
    let owned = OnlineIndex::load(&stripped(file, tag).0).expect("stripped load must succeed");
    assert_eq!(owned.key_backend(), KeyBackend::Owned);
    assert_equivalent(original, &owned, queries);
}

/// Saves `index` the way the retired interned backend laid snapshots out:
/// META backend code 1 and section 5 (a byte-sorted segment dictionary
/// plus rank-keyed postings) in place of section 4, then the same
/// direct-probe appendix. Transcoded from the owned save of `index`, so
/// both files describe one collection (`v3_interned_snapshots_still_load`
/// pins it byte-identical to a file that backend wrote).
fn save_interned(index: &OnlineIndex, tag: &str) -> TempFile {
    use passjoin_persist::{format, segdirect, segmap, SnapshotFile, SnapshotWriter};

    let owned = save_to_temp(index, tag);
    let file = SnapshotFile::open(&owned.0).unwrap();
    let section = |id| file.section(id).unwrap().to_vec();
    let mut meta = section(1);
    meta[48..56].copy_from_slice(&1u64.to_le_bytes());
    let (spans, arena) = (section(2), section(3));
    let postings = segmap::decode(&section(4), index.tau_max(), usize::MAX, usize::MAX).unwrap();
    let interned = segmap::encode_interned_with(postings.scheme(), postings.tau(), |f| {
        postings.visit_postings(f)
    });
    let direct = segdirect::encode_direct_owned(&postings);
    let mut ids_at = format::payload_base(8) as u64;
    for len in [
        meta.len(),
        spans.len(),
        arena.len(),
        interned.len(),
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
        .section(3, arena)
        .section(5, interned);
    for (id, payload) in direct.finish(ids_at) {
        writer.section(id, payload);
    }
    let out = TempFile(temp_snapshot_path(&format!("{tag}-interned")));
    writer.save(&out.0).unwrap();
    out
}

/// Asserts the loaded index is equivalent to `original`: same metadata,
/// same per-id strings (tombstones included), and byte-identical query
/// results for every τ ≤ τ_max over `queries`.
fn assert_equivalent(original: &OnlineIndex, loaded: &OnlineIndex, queries: &[Vec<u8>]) {
    assert_eq!(loaded.tau_max(), original.tau_max());
    assert_eq!(loaded.len(), original.len());
    assert_eq!(loaded.epoch(), original.epoch());
    // Stats agree except resident_bytes, which (deliberately) also counts
    // the pinned snapshot buffer on the loaded side.
    let (ls, os) = (loaded.stats(), original.stats());
    assert_eq!(
        (
            ls.live,
            ls.tombstones,
            ls.segment_entries,
            ls.short_strings,
            ls.epoch
        ),
        (
            os.live,
            os.tombstones,
            os.segment_entries,
            os.short_strings,
            os.epoch
        )
    );
    for id in 0..original.stats().live as u32 + original.stats().tombstones as u32 {
        assert_eq!(loaded.get(id), original.get(id), "string id {id}");
    }
    for q in queries {
        for tau in 0..=original.tau_max() {
            assert_eq!(
                loaded.matches(q, tau),
                original.matches(q, tau),
                "query {:?} at tau={tau}",
                String::from_utf8_lossy(q)
            );
        }
    }
}

fn small_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..12),
        0..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn round_trip_on_random_corpora(strings in small_corpus(), tau_max in 1usize..5) {
        let index = OnlineIndex::from_strings(strings.iter(), tau_max);
        let file = save_to_temp(&index, "random");
        // Probe with the corpus itself plus off-corpus neighbours.
        let mut queries = strings.clone();
        queries.push(b"abab".to_vec());
        queries.push(Vec::new());
        assert_both_layouts_equivalent(&index, &file, "random", &queries);
    }

    #[test]
    fn round_trip_survives_churn(
        strings in small_corpus(),
        tau_max in 1usize..4,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        // Remove a pseudo-random subset first: tombstones, short-lane
        // holes, and emptied segment lists must all round-trip.
        let mut index = OnlineIndex::from_strings(strings.iter(), tau_max);
        let mut rng = StdRng::seed_from_u64(seed);
        for id in 0..strings.len() as u32 {
            if rng.gen_bool(0.35) {
                index.remove(id);
            }
        }
        let file = save_to_temp(&index, "churn");
        assert_both_layouts_equivalent(&index, &file, "churn", &strings);
    }
}

/// A planted corpus: datagen base strings plus controlled near-duplicates
/// (the same shape `properties.rs` uses against the batch join).
fn planted_corpus(n: usize, seed: u64, max_edits: usize) -> Vec<Vec<u8>> {
    let base = datagen::DatasetSpec::new(datagen::DatasetKind::Author, n)
        .with_seed(seed)
        .generate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    let mut strings = Vec::with_capacity(2 * n);
    for s in base {
        if rng.gen_bool(0.5) {
            strings.push(datagen::mutate(&s, rng.gen_range(1..=max_edits), &mut rng));
        }
        strings.push(s);
    }
    strings
}

#[test]
fn round_trip_on_planted_corpus() {
    let strings = planted_corpus(300, 42, 2);
    let index = OnlineIndex::from_strings(strings.iter(), 3);
    let file = save_to_temp(&index, "planted");
    let loaded = OnlineIndex::load(&file.0).expect("load must succeed");
    let queries: Vec<Vec<u8>> = strings.iter().step_by(5).cloned().collect();
    assert_equivalent(&index, &loaded, &queries);
}

#[test]
fn loaded_index_stays_fully_mutable() {
    let strings = planted_corpus(100, 7, 2);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let file = save_to_temp(&index, "mutable");
    let mut loaded = OnlineIndex::load(&file.0).expect("load must succeed");

    // Mutate the loaded index and a parallel in-memory twin identically;
    // they must stay equivalent (exercises removing arena-backed strings
    // and mixing owned inserts over the arena).
    let mut twin = OnlineIndex::from_strings(strings.iter(), 2);
    for id in (0..strings.len() as u32).step_by(3) {
        assert_eq!(loaded.remove(id), twin.remove(id));
    }
    let added_l = loaded.insert(b"freshly inserted after load");
    let added_t = twin.insert(b"freshly inserted after load");
    assert_eq!(added_l, added_t);
    for q in strings.iter().step_by(7) {
        assert_eq!(loaded.matches(q, 2), twin.matches(q, 2));
    }
    assert_eq!(
        loaded.matches(b"freshly inserted after load", 1),
        vec![(added_l, 0)]
    );

    // A snapshot save of the *mutated* loaded index round-trips again
    // (arena spans and owned strings interleave in the new arena).
    let file2 = save_to_temp(&loaded, "mutable-resave");
    let reloaded = OnlineIndex::load(&file2.0).expect("re-load must succeed");
    let queries: Vec<Vec<u8>> = strings.iter().step_by(7).cloned().collect();
    assert_equivalent(&loaded, &reloaded, &queries);
}

#[test]
fn loaded_stats_count_the_pinned_buffer_and_churn_releases_it() {
    let strings = planted_corpus(60, 11, 2);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let file = save_to_temp(&index, "pinned");
    let file_size = std::fs::metadata(&file.0).unwrap().len();

    // A loaded index pins the whole snapshot buffer; resident_bytes must
    // say so (an operator sizing a box from --stats must not be lied to).
    let mut loaded = OnlineIndex::load(&file.0).unwrap();
    assert!(
        loaded.stats().resident_bytes >= file_size,
        "resident {} must count the pinned {file_size}-byte buffer",
        loaded.stats().resident_bytes
    );

    // Removing the last arena-backed string releases the buffer: a fully
    // churned loaded index converges to a built index's memory profile.
    for id in 0..strings.len() as u32 {
        assert!(loaded.remove(id));
    }
    assert_eq!(loaded.len(), 0);
    assert_eq!(loaded.stats().resident_bytes, 0);
    // And it keeps serving: post-release inserts and queries work.
    let id = loaded.insert(b"fresh after arena release");
    assert_eq!(
        loaded.matches(b"fresh after arena release", 1),
        vec![(id, 0)]
    );
}

#[test]
fn zero_length_arena_strings_keep_the_arena_alive() {
    // Empty strings occupy zero arena bytes but are live arena references:
    // removing the last *non-empty* loaded string must not release the
    // buffer out from under them.
    let mut index = OnlineIndex::new(2);
    let empty = index.insert(b"");
    let full = index.insert(b"abcdef");
    let file = save_to_temp(&index, "zero-len");
    let mut loaded = OnlineIndex::load(&file.0).unwrap();

    assert!(loaded.remove(full));
    // The empty string is still live and must stay queryable/savable.
    assert_eq!(loaded.get(empty), Some(&b""[..]));
    assert_eq!(loaded.matches(b"", 0), vec![(empty, 0)]);
    let resave = save_to_temp(&loaded, "zero-len-resave");
    assert_eq!(
        OnlineIndex::load(&resave.0).unwrap().get(empty),
        Some(&b""[..])
    );
    // Only once the empty string goes too is the buffer released.
    assert!(loaded.remove(empty));
    assert_eq!(loaded.stats().resident_bytes, 0);
}

#[test]
fn saves_are_deterministic() {
    let strings = planted_corpus(80, 3, 2);
    let mut index = OnlineIndex::from_strings(strings.iter(), 2);
    index.remove(5);
    let a = save_to_temp(&index, "det-a");
    let b = save_to_temp(&index, "det-b");
    assert_eq!(
        std::fs::read(&a.0).unwrap(),
        std::fs::read(&b.0).unwrap(),
        "same state must serialize to identical bytes"
    );
}

#[test]
fn save_is_atomic_over_an_existing_snapshot() {
    let strings = planted_corpus(40, 9, 2);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let file = save_to_temp(&index, "atomic");
    // Re-saving over an existing snapshot must go through the temp-file
    // rename (no lingering sibling) and leave a loadable file.
    index.save(&file.0).unwrap();
    let mut tmp = file.0.as_os_str().to_owned();
    tmp.push(".tmp");
    assert!(
        !std::path::Path::new(&tmp).exists(),
        "temp file must not outlive a successful save"
    );
    assert_eq!(OnlineIndex::load(&file.0).unwrap().len(), index.len());

    // A *failed* save must leave the existing snapshot untouched: point
    // the save at a path whose parent directory does not exist.
    let bogus = file.0.join("sub/never.snap");
    assert!(matches!(index.save(&bogus), Err(PersistError::Io(_))));
    assert_eq!(OnlineIndex::load(&file.0).unwrap().len(), index.len());
}

#[test]
fn empty_index_round_trips() {
    let index = OnlineIndex::new(2);
    let file = save_to_temp(&index, "empty");
    let loaded = OnlineIndex::load(&file.0).unwrap();
    assert!(loaded.is_empty());
    assert_eq!(loaded.tau_max(), 2);
    assert!(loaded.matches(b"anything", 2).is_empty());
}

fn sample_snapshot_bytes() -> Vec<u8> {
    let strings = ["pass-join", "pass-joins", "snapshot", "ab", ""];
    let mut index = OnlineIndex::from_strings(strings.iter().map(|s| s.as_bytes()), 2);
    index.remove(2);
    let file = save_to_temp(&index, "corruption-base");
    std::fs::read(&file.0).unwrap()
}

fn load_bytes(bytes: &[u8], tag: &str) -> Result<OnlineIndex, PersistError> {
    let file = TempFile(temp_snapshot_path(tag));
    std::fs::write(&file.0, bytes).unwrap();
    OnlineIndex::load(&file.0)
}

// The two sweeps below run on the sample in the v2 layout, where the
// owned map is decoded from section 4; `direct_backend` sweeps the file
// as saved, appendix included.

#[test]
fn rejects_truncation_at_every_length() {
    let bytes = strip_appendix(&sample_snapshot_bytes());
    for cut in 0..bytes.len() {
        assert!(
            load_bytes(&bytes[..cut], "trunc").is_err(),
            "truncation to {cut}/{} bytes must be rejected",
            bytes.len()
        );
    }
}

#[test]
fn rejects_every_flipped_byte() {
    // Every byte of a snapshot is covered by the header CRC or a section
    // CRC, so *any* single-byte corruption must surface as a typed error.
    let bytes = strip_appendix(&sample_snapshot_bytes());
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x20;
        assert!(
            load_bytes(&flipped, "flip").is_err(),
            "flipped byte at offset {at} must be rejected"
        );
    }
}

#[test]
fn rejects_wrong_version_with_typed_error() {
    let mut bytes = sample_snapshot_bytes();
    // Patch the version field (offset 8) and leave everything else alone:
    // the loader must identify the *version* as the problem, not fail on
    // an opaque checksum error.
    bytes[8] = 0xFE;
    assert!(matches!(
        load_bytes(&bytes, "version"),
        Err(PersistError::UnsupportedVersion { found }) if found != 1
    ));
}

#[test]
fn rejects_non_snapshot_files_with_bad_magic() {
    assert!(matches!(
        load_bytes(b"this is not a snapshot file at all", "magic"),
        Err(PersistError::BadMagic { .. })
    ));
    assert!(matches!(
        load_bytes(b"", "empty"),
        Err(PersistError::Truncated { .. })
    ));
}

/// Hand-assembles a snapshot container from raw parts — a stand-in for a
/// *buggy producer*: framing and CRCs are valid, so only the loader's
/// structural cross-checks stand between these files and a query-time
/// panic.
mod inconsistent_producer {
    use super::*;
    use passjoin::OwnedSegmentIndex;
    use passjoin_persist::{segmap, SnapshotWriter};

    /// META + SPANS for one live string `"abcd"` (id 0) and one tombstone
    /// (id 1) at τ_max = 1, paired with the given segment map. The trailing
    /// 0 is the v2 backend code (owned).
    fn craft(segments: &OwnedSegmentIndex, tag: &str) -> Result<OnlineIndex, PersistError> {
        let mut meta = Vec::new();
        for v in [1u64, 0, 2, 1, 4, segments.entries(), 0] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
        let mut spans = Vec::new();
        spans.extend_from_slice(&0u64.to_le_bytes()); // id 0: live "abcd"
        spans.extend_from_slice(&4u32.to_le_bytes());
        spans.extend_from_slice(&u64::MAX.to_le_bytes()); // id 1: tombstone
        spans.extend_from_slice(&0u32.to_le_bytes());

        let mut writer = SnapshotWriter::new();
        writer
            .section(1, meta)
            .section(2, spans)
            .section(3, b"abcd".to_vec())
            .section(4, segmap::encode(segments));
        let file = TempFile(temp_snapshot_path(tag));
        writer.save(&file.0)?;
        OnlineIndex::load(&file.0)
    }

    #[test]
    fn consistent_parts_load() {
        // The crafting itself is sound: postings matching the string
        // table load and answer queries.
        let mut segments = OwnedSegmentIndex::new(0, 1);
        segments.insert_owned(b"abcd", 0);
        let index = craft(&segments, "crafted-ok").expect("consistent parts must load");
        assert_eq!(index.matches(b"abcd", 1), vec![(0, 0)]);
    }

    #[test]
    fn rejects_postings_referencing_a_tombstone() {
        // Same posting count, but the references point at the removed id:
        // the query path would `expect` liveness and panic.
        let mut segments = OwnedSegmentIndex::new(0, 1);
        segments.insert_owned(b"abcd", 1);
        assert!(matches!(
            craft(&segments, "crafted-tombstone"),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_postings_with_mismatched_length() {
        // References a live id, but under the wrong string length: probing
        // would slice the 4-byte string with 5-length geometry and panic.
        let mut segments = OwnedSegmentIndex::new(0, 1);
        segments.insert_owned(b"abcde", 0);
        assert!(matches!(
            craft(&segments, "crafted-length"),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_non_even_partition_schemes() {
        // The online planner probes with the even partition; a left-heavy
        // snapshot would load and then silently miss every match.
        use passjoin::PartitionScheme;
        let mut segments = OwnedSegmentIndex::with_scheme(0, 1, PartitionScheme::LeftHeavy);
        segments.insert_owned(b"abcd", 0);
        assert!(matches!(
            craft(&segments, "crafted-scheme"),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_incomplete_posting_coverage() {
        // One of the live long string's τ_max+1 postings is missing (the
        // entry count in META is kept honest): the index would silently
        // miss matches that probe the absent slot.
        let mut segments = OwnedSegmentIndex::new(0, 1);
        segments
            .restore_posting(4, 1, b"ab".to_vec().into_boxed_slice(), vec![0])
            .unwrap();
        assert!(matches!(
            craft(&segments, "crafted-missing-slot"),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_hostile_tau_max_without_panicking() {
        // META claiming tau_max = u32::MAX (with a matching SEGMENTS tau
        // field, so the codec's equality check passes) must be a typed
        // error — not an arithmetic overflow panic in debug builds or a
        // silently accepted bogus index in release.
        let mut meta = Vec::new();
        for v in [u32::MAX as u64, 0, 0, 0, 0, 0, 0] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
        let mut segments_payload = Vec::new();
        segments_payload.extend_from_slice(&0u32.to_le_bytes()); // even scheme
        segments_payload.extend_from_slice(&u32::MAX.to_le_bytes()); // tau
        segments_payload.extend_from_slice(&0u64.to_le_bytes()); // no postings
        let mut writer = SnapshotWriter::new();
        writer
            .section(1, meta)
            .section(2, Vec::new())
            .section(3, Vec::new())
            .section(4, segments_payload);
        let file = TempFile(temp_snapshot_path("crafted-tau-bomb"));
        writer.save(&file.0).unwrap();
        assert!(matches!(
            OnlineIndex::load(&file.0),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_hostile_posting_length_without_huge_allocation() {
        // A tiny CRC-valid file whose one posting frame claims a
        // ~4-billion-byte string length must be rejected cheaply — not
        // balloon the per-length table into an OOM abort during the
        // pre-reservation skim.
        let mut meta = Vec::new();
        for v in [1u64, 0, 2, 1, 4, 2, 0] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
        let mut spans = Vec::new();
        spans.extend_from_slice(&0u64.to_le_bytes());
        spans.extend_from_slice(&4u32.to_le_bytes());
        spans.extend_from_slice(&u64::MAX.to_le_bytes());
        spans.extend_from_slice(&0u32.to_le_bytes());
        let mut segments_payload = Vec::new();
        segments_payload.extend_from_slice(&0u32.to_le_bytes()); // even scheme
        segments_payload.extend_from_slice(&1u32.to_le_bytes()); // tau = 1
        segments_payload.extend_from_slice(&1u64.to_le_bytes()); // one posting
        segments_payload.extend_from_slice(&(u32::MAX - 1).to_le_bytes()); // l bomb
        segments_payload.extend_from_slice(&1u32.to_le_bytes()); // slot
        segments_payload.extend_from_slice(&0u32.to_le_bytes()); // key_len
        segments_payload.extend_from_slice(&0u32.to_le_bytes()); // n_ids
        let mut writer = SnapshotWriter::new();
        writer
            .section(1, meta)
            .section(2, spans)
            .section(3, b"abcd".to_vec())
            .section(4, segments_payload);
        let file = TempFile(temp_snapshot_path("crafted-length-bomb"));
        writer.save(&file.0).unwrap();
        assert!(matches!(
            OnlineIndex::load(&file.0),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_overflowing_universe() {
        // A META section claiming a universe whose span-table size
        // overflows must be a typed error, not a panic or huge allocation.
        let mut meta = Vec::new();
        for v in [1u64, 0, u64::MAX / 2, 0, 0, 0, 0] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
        let segments = OwnedSegmentIndex::new(0, 1);
        let mut writer = SnapshotWriter::new();
        writer
            .section(1, meta)
            .section(2, Vec::new())
            .section(3, Vec::new())
            .section(4, segmap::encode(&segments));
        let file = TempFile(temp_snapshot_path("crafted-overflow"));
        writer.save(&file.0).unwrap();
        assert!(matches!(
            OnlineIndex::load(&file.0),
            Err(PersistError::Corrupt { .. })
        ));
    }
}

#[test]
fn missing_file_is_an_io_error() {
    let path = temp_snapshot_path("never-written");
    assert!(matches!(OnlineIndex::load(&path), Err(PersistError::Io(_))));
}

/// Snapshots from the retired interned key backend: section 5 (segment
/// dictionary + rank-keyed postings) is decoded straight into owned keys,
/// so such a file loads as an owned index that answers identically and
/// re-saves as owned; the section survives the same corruption sweep as
/// the rest of the file; and v1 (owned-key, pre-backend) snapshots keep
/// loading.
mod interned_backend {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn round_trip_on_random_corpora(strings in small_corpus(), tau_max in 1usize..5) {
            let index = OnlineIndex::from_strings(strings.iter(), tau_max);
            let file = save_interned(&index, "interned-random");
            let mut queries = strings.clone();
            queries.push(b"abab".to_vec());
            queries.push(Vec::new());
            assert_both_layouts_equivalent(&index, &file, "interned-random", &queries);
        }

        #[test]
        fn round_trip_survives_churn(
            strings in small_corpus(),
            tau_max in 1usize..4,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            // Churn first: tombstones and emptied posting keys must come
            // through the dictionary layout intact.
            let mut index = OnlineIndex::from_strings(strings.iter(), tau_max);
            let mut rng = StdRng::seed_from_u64(seed);
            for id in 0..strings.len() as u32 {
                if rng.gen_bool(0.35) {
                    index.remove(id);
                }
            }
            let file = save_interned(&index, "interned-churn");
            assert_both_layouts_equivalent(&index, &file, "interned-churn", &strings);
        }
    }

    #[test]
    fn round_trip_on_planted_corpus_and_stays_mutable() {
        let strings = planted_corpus(200, 42, 2);
        let index = OnlineIndex::from_strings(strings.iter(), 3);
        let file = save_interned(&index, "interned-planted");
        let mut loaded = OnlineIndex::load(&file.0).expect("load must succeed");
        let queries: Vec<Vec<u8>> = strings.iter().step_by(5).cloned().collect();
        assert_equivalent(&index, &loaded, &queries);

        // The loaded index keeps mutating like a built one.
        let mut twin = OnlineIndex::from_strings(strings.iter(), 3);
        for id in (0..strings.len() as u32).step_by(3) {
            assert_eq!(loaded.remove(id), twin.remove(id));
        }
        assert_eq!(
            loaded.insert(b"fresh after interned load"),
            twin.insert(b"fresh after interned load")
        );
        for q in strings.iter().step_by(7) {
            assert_eq!(loaded.matches(q, 3), twin.matches(q, 3));
        }
        // And a re-save of the mutated loaded index round-trips again.
        let file2 = save_to_temp(&loaded, "interned-resave");
        let reloaded = OnlineIndex::load(&file2.0).expect("re-load must succeed");
        assert_equivalent(&loaded, &reloaded, &queries);
    }

    #[test]
    fn saves_are_deterministic_and_history_independent() {
        // An interned file re-saves as exactly the owned file of the same
        // content, whichever way it was loaded.
        let strings = planted_corpus(80, 3, 2);
        let mut index = OnlineIndex::from_strings(strings.iter(), 2);
        index.remove(5);
        let owned = std::fs::read(&save_to_temp(&index, "interned-det-owned").0).unwrap();
        let file = save_interned(&index, "interned-det");
        for loaded in [
            OnlineIndex::load(&file.0).unwrap(),
            OnlineIndex::load(&stripped(&file, "interned-det").0).unwrap(),
        ] {
            let a = save_to_temp(&loaded, "interned-det-a");
            let b = save_to_temp(&loaded, "interned-det-b");
            assert_eq!(std::fs::read(&a.0).unwrap(), owned);
            assert_eq!(std::fs::read(&b.0).unwrap(), owned);
        }

        // Two indices with one final content but different histories
        // (one held, then dropped, a string whose segments nothing else
        // uses) re-save identically after an interned round trip.
        let history = |temporary: &[u8]| {
            let mut index = OnlineIndex::new(2);
            index.insert(temporary);
            for s in &strings {
                index.insert(s);
            }
            assert!(index.remove(0), "drop the temporary string");
            let file = save_interned(&index, "interned-det-history");
            let loaded = OnlineIndex::load(&file.0).unwrap();
            std::fs::read(&save_to_temp(&loaded, "interned-det-resave").0).unwrap()
        };
        assert_eq!(
            history(b"a temporary resident string"),
            history(b"another temporary resident")
        );
    }

    #[test]
    fn empty_interned_index_round_trips() {
        let file = save_interned(&OnlineIndex::new(2), "interned-empty");
        for (file, backend) in [
            (file.0.clone(), KeyBackend::Direct),
            (
                stripped(&file, "interned-empty").0.clone(),
                KeyBackend::Owned,
            ),
        ] {
            let loaded = OnlineIndex::load(&file).unwrap();
            assert!(loaded.is_empty());
            assert_eq!(loaded.key_backend(), backend);
            assert!(loaded.matches(b"anything", 2).is_empty());
        }
    }

    /// A golden v3 snapshot written by the interned backend before its
    /// retirement: the five-string collection of the v1/v2 fixtures, id 2
    /// removed. It must load on both stores (as written, and with the
    /// appendix stripped so section 5 is decoded), answer byte-identically
    /// to an owned build of the same strings, survive a first mutation,
    /// and re-save as exactly that owned build's file.
    #[test]
    fn v3_interned_snapshots_still_load() {
        let bytes = include_bytes!("data/v3-interned.snap");
        assert_eq!(&bytes[8..12], &3u32.to_le_bytes(), "fixture is v3");
        let strings = ["pass-join", "pass-joins", "snapshot", "ab", ""];
        let mut fresh = OnlineIndex::from_strings(strings.iter().map(|s| s.as_bytes()), 2);
        fresh.remove(2);
        // The transcoding helper the other tests use reproduces the
        // retired writer byte for byte.
        assert_eq!(
            std::fs::read(&save_interned(&fresh, "v3-golden-transcode").0).unwrap(),
            bytes
        );
        let owned = std::fs::read(&save_to_temp(&fresh, "v3-golden-owned").0).unwrap();

        let file = TempFile(temp_snapshot_path("v3-golden"));
        std::fs::write(&file.0, bytes).unwrap();
        let queries: Vec<Vec<u8>> = strings
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .chain([b"pass".to_vec()])
            .collect();
        for mut loaded in [
            OnlineIndex::load(&file.0).expect("direct load"),
            OnlineIndex::load(&stripped(&file, "v3-golden").0).expect("section 5 load"),
        ] {
            assert_equivalent(&fresh, &loaded, &queries);
            assert_eq!(loaded.get(2), None, "tombstone round-trips");
            let resave = save_to_temp(&loaded, "v3-golden-resave");
            assert_eq!(
                std::fs::read(&resave.0).unwrap(),
                owned,
                "re-saves as owned"
            );

            let mut twin = OnlineIndex::from_strings(strings.iter().map(|s| s.as_bytes()), 2);
            twin.remove(2);
            assert_eq!(loaded.insert(b"pass-jion"), twin.insert(b"pass-jion"));
            assert!(loaded.remove(0) && twin.remove(0));
            assert_eq!(loaded.key_backend(), KeyBackend::Owned);
            assert_equivalent(&twin, &loaded, &queries);
        }
    }

    fn interned_snapshot_bytes() -> Vec<u8> {
        include_bytes!("data/v3-interned.snap").to_vec()
    }

    /// The fixture as written, and stripped to the v2 layout in which
    /// section 5 is decoded rather than only checksummed.
    fn interned_layouts() -> [Vec<u8>; 2] {
        let bytes = interned_snapshot_bytes();
        let stripped = strip_appendix(&bytes);
        [bytes, stripped]
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        for bytes in interned_layouts() {
            for cut in 0..bytes.len() {
                assert!(
                    load_bytes(&bytes[..cut], "interned-trunc").is_err(),
                    "truncation to {cut}/{} bytes must be rejected",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn rejects_every_flipped_byte() {
        // The dictionary + id-keyed posting section is covered by its CRC
        // like every other section: any single-byte corruption must
        // surface as a typed error, never a panic or a silent wrong index.
        for bytes in interned_layouts() {
            for at in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[at] ^= 0x20;
                assert!(
                    load_bytes(&flipped, "interned-flip").is_err(),
                    "flipped byte at offset {at} must be rejected"
                );
            }
        }
    }

    /// CRC-valid files from a lying producer: the interned section's
    /// structural checks must reject what framing cannot.
    mod inconsistent_producer {
        use super::*;
        use passjoin::OwnedSegmentIndex;
        use passjoin_persist::{segmap, SnapshotWriter};

        /// `segments`' postings in the interned section layout.
        fn interned(segments: &OwnedSegmentIndex) -> Vec<u8> {
            segmap::encode_interned_with(segments.scheme(), segments.tau(), |f| {
                segments.visit_postings(f)
            })
        }

        /// META + SPANS for one live string `"abcd"` (id 0) and one
        /// tombstone (id 1) at τ_max = 1, backend code 1 (interned),
        /// paired with the given postings in the interned layout.
        fn craft(segments: &OwnedSegmentIndex, tag: &str) -> Result<OnlineIndex, PersistError> {
            let mut meta = Vec::new();
            for v in [1u64, 0, 2, 1, 4, segments.entries(), 1] {
                meta.extend_from_slice(&v.to_le_bytes());
            }
            let mut spans = Vec::new();
            spans.extend_from_slice(&0u64.to_le_bytes()); // id 0: live "abcd"
            spans.extend_from_slice(&4u32.to_le_bytes());
            spans.extend_from_slice(&u64::MAX.to_le_bytes()); // id 1: tombstone
            spans.extend_from_slice(&0u32.to_le_bytes());

            let mut writer = SnapshotWriter::new();
            writer
                .section(1, meta)
                .section(2, spans)
                .section(3, b"abcd".to_vec())
                .section(5, interned(segments));
            let file = TempFile(temp_snapshot_path(tag));
            writer.save(&file.0)?;
            OnlineIndex::load(&file.0)
        }

        #[test]
        fn consistent_parts_load() {
            let mut segments = OwnedSegmentIndex::new(0, 1);
            segments.insert_owned(b"abcd", 0);
            let index = craft(&segments, "interned-crafted-ok").expect("consistent parts load");
            assert_eq!(index.key_backend(), KeyBackend::Owned);
            assert_eq!(index.matches(b"abcd", 1), vec![(0, 0)]);
        }

        #[test]
        fn rejects_postings_referencing_a_tombstone() {
            let mut segments = OwnedSegmentIndex::new(0, 1);
            segments.insert_owned(b"abcd", 1);
            assert!(matches!(
                craft(&segments, "interned-crafted-tombstone"),
                Err(PersistError::Corrupt { .. })
            ));
        }

        #[test]
        fn rejects_postings_with_mismatched_length() {
            let mut segments = OwnedSegmentIndex::new(0, 1);
            segments.insert_owned(b"abcde", 0);
            assert!(matches!(
                craft(&segments, "interned-crafted-length"),
                Err(PersistError::Corrupt { .. })
            ));
        }

        #[test]
        fn rejects_owned_section_under_interned_backend() {
            // META claims the interned backend but the file carries the
            // byte-keyed section 4: the required section 5 is missing.
            let mut meta = Vec::new();
            for v in [1u64, 0, 2, 1, 4, 2, 1] {
                meta.extend_from_slice(&v.to_le_bytes());
            }
            let mut spans = Vec::new();
            spans.extend_from_slice(&0u64.to_le_bytes());
            spans.extend_from_slice(&4u32.to_le_bytes());
            spans.extend_from_slice(&u64::MAX.to_le_bytes());
            spans.extend_from_slice(&0u32.to_le_bytes());
            let mut owned = OwnedSegmentIndex::new(0, 1);
            owned.insert_owned(b"abcd", 0);
            let mut writer = SnapshotWriter::new();
            writer
                .section(1, meta)
                .section(2, spans)
                .section(3, b"abcd".to_vec())
                .section(4, segmap::encode(&owned));
            let file = TempFile(temp_snapshot_path("interned-crafted-wrong-section"));
            writer.save(&file.0).unwrap();
            assert!(matches!(
                OnlineIndex::load(&file.0),
                Err(PersistError::MissingSection { section: 5 })
            ));
        }

        #[test]
        fn rejects_unknown_backend_code() {
            let mut meta = Vec::new();
            for v in [1u64, 0, 0, 0, 0, 0, 7] {
                meta.extend_from_slice(&v.to_le_bytes());
            }
            let segments = OwnedSegmentIndex::new(0, 1);
            let mut writer = SnapshotWriter::new();
            writer
                .section(1, meta)
                .section(2, Vec::new())
                .section(3, Vec::new())
                .section(5, interned(&segments));
            let file = TempFile(temp_snapshot_path("interned-crafted-backend-code"));
            writer.save(&file.0).unwrap();
            assert!(matches!(
                OnlineIndex::load(&file.0),
                Err(PersistError::Corrupt { .. })
            ));
        }
    }

    /// A golden v1 snapshot written by the pre-backend build (6-field
    /// META, byte-keyed section 4, container version 1): it must keep
    /// loading as an owned-key index and answer byte-identically to a
    /// fresh build of the same collection.
    #[test]
    fn v1_snapshots_still_load() {
        let bytes = include_bytes!("data/v1-owned.snap");
        assert_eq!(&bytes[8..12], &1u32.to_le_bytes(), "fixture is v1");
        let loaded = load_bytes(bytes, "v1-golden").expect("v1 snapshot must load");
        assert_eq!(loaded.key_backend(), KeyBackend::Owned);

        // The fixture's collection: five strings, id 2 removed.
        let strings = ["pass-join", "pass-joins", "snapshot", "ab", ""];
        let mut fresh = OnlineIndex::from_strings(strings.iter().map(|s| s.as_bytes()), 2);
        fresh.remove(2);
        assert_eq!(loaded.len(), fresh.len());
        assert_eq!(loaded.tau_max(), fresh.tau_max());
        assert_eq!(loaded.get(2), None, "tombstone round-trips");
        for q in strings.iter().map(|s| s.as_bytes()).chain([&b"pass"[..]]) {
            for tau in 0..=2 {
                assert_eq!(loaded.matches(q, tau), fresh.matches(q, tau), "query {q:?}");
            }
        }

        // Re-saving a v1-loaded index writes the current version; it keeps
        // round-tripping.
        let resave = save_to_temp(&loaded, "v1-resave");
        let reloaded = OnlineIndex::load(&resave.0).unwrap();
        assert_eq!(reloaded.len(), fresh.len());
        assert_eq!(
            std::fs::read(&resave.0).unwrap()[8..12],
            passjoin_persist::FORMAT_VERSION.to_le_bytes()
        );
    }
}

/// The direct-probe store (format v3, sections 6–9): a load of any
/// snapshot must be indistinguishable from the load of the same file with
/// the appendix stripped, whose postings are decoded into the owned map —
/// byte-identical query results, identical metadata, byte-identical
/// re-saves — while never replaying a posting; it must stay fully mutable
/// through backend promotion; and the appendix gets the same
/// corruption/lying-producer treatment as every other section.
mod direct_backend {
    use super::*;

    /// The section layouts a snapshot's hash-map postings come in: the
    /// owned section 4 every save writes, or the interned section 5 of
    /// files from the retired interned backend.
    #[derive(Debug, Clone, Copy)]
    enum Origin {
        Owned,
        Interned,
    }

    fn save_as(index: &OnlineIndex, origin: Origin, tag: &str) -> TempFile {
        match origin {
            Origin::Owned => save_to_temp(index, tag),
            Origin::Interned => save_interned(index, tag),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn direct_load_answers_identically_to_rebuild_load(
            strings in small_corpus(),
            tau_max in 1usize..5,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let origin = if seed % 2 == 0 { Origin::Interned } else { Origin::Owned };
            let mut index = OnlineIndex::from_strings(strings.iter(), tau_max);
            let mut rng = StdRng::seed_from_u64(seed);
            for id in 0..strings.len() as u32 {
                if rng.gen_bool(0.3) {
                    index.remove(id);
                }
            }
            let file = save_as(&index, origin, "direct-diff");
            let rebuilt =
                OnlineIndex::load(&stripped(&file, "direct-diff").0).expect("rebuild load must succeed");
            let direct = OnlineIndex::load(&file.0).expect("direct load must succeed");
            prop_assert_eq!(rebuilt.key_backend(), KeyBackend::Owned);
            prop_assert_eq!(direct.key_backend(), KeyBackend::Direct);
            let mut queries = strings.clone();
            queries.push(b"abab".to_vec());
            queries.push(Vec::new());
            assert_equivalent(&rebuilt, &direct, &queries);
        }
    }

    #[test]
    fn direct_resave_is_byte_identical_for_both_origins() {
        // A direct-loaded index re-saves exactly the owned file of its
        // content, byte for byte — the file it was loaded from when that
        // was owned — the strongest form of "nothing was lost by not
        // rebuilding".
        for origin in [Origin::Owned, Origin::Interned] {
            let strings = planted_corpus(120, 17, 2);
            let mut index = OnlineIndex::from_strings(strings.iter(), 2);
            index.remove(9);
            let owned = save_to_temp(&index, "direct-resave-owned");
            let file = save_as(&index, origin, "direct-resave");
            let direct = OnlineIndex::load(&file.0).unwrap();
            assert_eq!(direct.key_backend(), KeyBackend::Direct);
            let resave = save_to_temp(&direct, "direct-resave-out");
            assert_eq!(
                std::fs::read(&owned.0).unwrap(),
                std::fs::read(&resave.0).unwrap(),
                "direct re-save must be byte-identical ({origin:?} origin)"
            );
        }
    }

    #[test]
    fn first_mutation_promotes_back_to_the_origin_backend() {
        for origin in [Origin::Owned, Origin::Interned] {
            let strings = planted_corpus(150, 23, 2);
            let index = OnlineIndex::from_strings(strings.iter(), 2);
            let file = save_as(&index, origin, "direct-promote");
            let mut direct = OnlineIndex::load(&file.0).unwrap();
            let mut twin = OnlineIndex::load(&stripped(&file, "direct-promote").0).unwrap();
            assert_eq!(direct.key_backend(), KeyBackend::Direct);

            // Queries before mutation leave the lane untouched.
            assert_eq!(direct.matches(&strings[0], 2), twin.matches(&strings[0], 2));
            assert_eq!(direct.key_backend(), KeyBackend::Direct);

            // The first mutation rebuilds the owned map, whichever section
            // the file carried; afterwards the two indices stay in
            // lockstep through further churn.
            for id in (0..strings.len() as u32).step_by(4) {
                assert_eq!(direct.remove(id), twin.remove(id));
            }
            assert_eq!(
                direct.key_backend(),
                KeyBackend::Owned,
                "promotion rebuilds the owned map ({origin:?} origin)"
            );
            assert_eq!(
                direct.insert(b"inserted after promotion"),
                twin.insert(b"inserted after promotion")
            );
            for q in strings.iter().step_by(7) {
                assert_eq!(direct.matches(q, 2), twin.matches(q, 2));
            }
            let queries: Vec<Vec<u8>> = strings.iter().step_by(9).cloned().collect();
            assert_equivalent(&twin, &direct, &queries);
        }
    }

    #[test]
    fn empty_index_loads_direct() {
        let file = save_to_temp(&OnlineIndex::new(2), "direct-empty");
        let loaded = OnlineIndex::load(&file.0).unwrap();
        assert_eq!(loaded.key_backend(), KeyBackend::Direct);
        assert!(loaded.is_empty());
        assert!(loaded.matches(b"anything", 2).is_empty());
    }

    #[test]
    fn direct_load_rejects_truncation_at_every_length() {
        let bytes = sample_snapshot_bytes();
        for cut in 0..bytes.len() {
            let file = TempFile(temp_snapshot_path("direct-trunc"));
            std::fs::write(&file.0, &bytes[..cut]).unwrap();
            assert!(
                OnlineIndex::load(&file.0).is_err(),
                "truncation to {cut}/{} bytes must be rejected",
                bytes.len()
            );
        }
    }

    #[test]
    fn direct_load_rejects_every_flipped_byte() {
        // Every section is CRC-covered, and the eager open checks them
        // all — section 4 too, although the direct store never decodes it.
        let bytes = sample_snapshot_bytes();
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x20;
            let file = TempFile(temp_snapshot_path("direct-flip"));
            std::fs::write(&file.0, &flipped).unwrap();
            assert!(
                OnlineIndex::load(&file.0).is_err(),
                "flipped byte at offset {at} must be rejected"
            );
        }
    }

    /// CRC-valid v3 files from a lying producer: the appendix's structural
    /// validation must reject what framing cannot.
    mod inconsistent_producer {
        use super::*;
        use passjoin::PartitionScheme;
        use passjoin_persist::{format, segdirect, segmap, SnapshotWriter};
        use sj_common::StringId;

        /// META + SPANS + STRINGS + section 4 for one live `"abcd"` (id 0)
        /// and one tombstone (id 1) at τ_max = 1, plus a direct appendix
        /// built from `postings` — which may lie.
        fn craft(
            entries: u64,
            postings: &[(usize, usize, &[u8], &[StringId])],
            tag: &str,
        ) -> Result<OnlineIndex, PersistError> {
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
            let file = TempFile(temp_snapshot_path(tag));
            writer.save(&file.0)?;
            OnlineIndex::load(&file.0)
        }

        #[test]
        fn consistent_parts_load() {
            // "abcd" at τ=1 partitions into "ab" (slot 1) + "cd" (slot 2).
            let postings: &[(usize, usize, &[u8], &[StringId])] =
                &[(4, 1, b"ab", &[0]), (4, 2, b"cd", &[0])];
            let index = craft(2, postings, "direct-crafted-ok").expect("consistent parts load");
            assert_eq!(index.key_backend(), KeyBackend::Direct);
            assert_eq!(index.matches(b"abcd", 1), vec![(0, 0)]);
        }

        #[test]
        fn rejects_unsorted_posting_ids() {
            // Probing merges sorted lists; unsorted ids would corrupt
            // result order downstream.
            let postings: &[(usize, usize, &[u8], &[StringId])] =
                &[(4, 1, b"ab", &[1, 0]), (4, 2, b"cd", &[0, 1])];
            assert!(matches!(
                craft(4, postings, "direct-crafted-unsorted"),
                Err(PersistError::Corrupt { .. })
            ));
        }

        #[test]
        fn rejects_postings_referencing_a_tombstone() {
            let postings: &[(usize, usize, &[u8], &[StringId])] =
                &[(4, 1, b"ab", &[1]), (4, 2, b"cd", &[1])];
            assert!(matches!(
                craft(2, postings, "direct-crafted-tombstone"),
                Err(PersistError::Corrupt { .. })
            ));
        }

        #[test]
        fn rejects_postings_with_mismatched_length() {
            // Well-formed runs for a 5-byte string, referencing the 4-byte
            // live id: probing would slice it with 5-length geometry.
            let postings: &[(usize, usize, &[u8], &[StringId])] =
                &[(5, 1, b"ab", &[0]), (5, 2, b"cde", &[0])];
            assert!(matches!(
                craft(2, postings, "direct-crafted-length"),
                Err(PersistError::Corrupt { .. })
            ));
        }

        #[test]
        fn rejects_keys_breaking_the_partition_geometry() {
            // Slot 1 of an even 2-partition of length 4 is 2 bytes; a
            // 3-byte key there would make probes slice out of bounds.
            let postings: &[(usize, usize, &[u8], &[StringId])] =
                &[(4, 1, b"abc", &[0]), (4, 2, b"d", &[0])];
            assert!(matches!(
                craft(2, postings, "direct-crafted-geometry"),
                Err(PersistError::Corrupt { .. })
            ));
        }

        #[test]
        fn rejects_entry_count_lies() {
            let postings: &[(usize, usize, &[u8], &[StringId])] =
                &[(4, 1, b"ab", &[0]), (4, 2, b"cd", &[0])];
            assert!(matches!(
                craft(7, postings, "direct-crafted-count"),
                Err(PersistError::Corrupt { .. })
            ));
        }

        #[test]
        fn rejects_a_dir_section_whose_blob_sizes_lie() {
            // Patch n_entries inside an otherwise-valid DIR payload (the
            // writer recomputes CRCs, so only the structural cross-check
            // can catch it): the id blob no longer matches the directory.
            let strings = planted_corpus(40, 31, 2);
            let index = OnlineIndex::from_strings(strings.iter(), 2);
            let file = save_to_temp(&index, "direct-dir-lie-base");
            let bytes = std::fs::read(&file.0).unwrap();
            let parsed = passjoin_persist::SnapshotFile::parse(bytes.into()).unwrap();
            let mut writer = SnapshotWriter::new();
            for id in [1u32, 2, 3, 4] {
                writer.section(id, parsed.section(id).unwrap().to_vec());
            }
            let mut dir = parsed.section(6).unwrap().to_vec();
            let wrong = (index.stats().segment_entries + 1).to_le_bytes();
            dir[24..32].copy_from_slice(&wrong); // n_entries field
            writer.section(6, dir);
            for id in [7u32, 8, 9] {
                writer.section(id, parsed.section(id).unwrap().to_vec());
            }
            let out = TempFile(temp_snapshot_path("direct-dir-lie"));
            writer.save(&out.0).unwrap();
            assert!(matches!(
                OnlineIndex::load(&out.0),
                Err(PersistError::Corrupt { .. })
            ));
            // Without the appendix the file decodes section 4 and loads.
            let bytes = strip_appendix(&std::fs::read(&out.0).unwrap());
            let loaded = load_bytes(&bytes, "direct-dir-lie-stripped").expect("section 4 loads");
            assert_eq!(loaded.key_backend(), KeyBackend::Owned);
        }
    }

    /// Golden v2 snapshots written by the pre-appendix build, with owned
    /// and interned keys: without sections 6–9 they load by decoding
    /// section 4 or 5 into the owned map, and a re-save writes v3 with
    /// the appendix, which loads on the direct store.
    #[test]
    fn v2_snapshots_still_load_without_the_appendix() {
        for bytes in [
            &include_bytes!("data/v2-owned.snap")[..],
            &include_bytes!("data/v2-interned.snap")[..],
        ] {
            assert_eq!(&bytes[8..12], &2u32.to_le_bytes(), "fixture is v2");
            let loaded = load_bytes(bytes, "v2-golden").expect("v2 snapshot must load");
            assert_eq!(loaded.key_backend(), KeyBackend::Owned);

            // The fixtures' collection: five strings, id 2 removed.
            let strings = ["pass-join", "pass-joins", "snapshot", "ab", ""];
            let mut fresh = OnlineIndex::from_strings(strings.iter().map(|s| s.as_bytes()), 2);
            fresh.remove(2);
            assert_eq!(loaded.len(), fresh.len());
            assert_eq!(loaded.get(2), None, "tombstone round-trips");
            for q in strings.iter().map(|s| s.as_bytes()).chain([&b"pass"[..]]) {
                for tau in 0..=2 {
                    assert_eq!(loaded.matches(q, tau), fresh.matches(q, tau), "query {q:?}");
                }
            }

            let resave = save_to_temp(&loaded, "v2-resave");
            let direct = OnlineIndex::load(&resave.0).unwrap();
            assert_eq!(direct.key_backend(), KeyBackend::Direct);
            assert_eq!(direct.matches(b"pass-join", 1).len(), 2);
        }
    }
}
