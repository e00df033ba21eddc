//! Helpers shared by the integration suites.

use std::sync::atomic::{AtomicU64, Ordering};

use passjoin_online::{KeyBackend, OnlineIndex};

/// The same index on the other segment store: saved, then reopened with
/// [`OnlineIndex::load_direct`], so its segment lane probes the snapshot's
/// sorted runs instead of the owned map. Ids, tombstones and the epoch
/// carry over; cache capacity and observability are the loader's
/// defaults. The reopened index holds the file in memory, so the file is
/// removed at once.
pub fn reopen_direct(index: &OnlineIndex) -> OnlineIndex {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "passjoin-reopen-{}-{}.snap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    index.save(&path).expect("save for a direct reopen");
    let reopened = OnlineIndex::load_direct(&path);
    let _ = std::fs::remove_file(&path);
    let reopened = reopened.expect("direct reopen");
    assert_eq!(reopened.key_backend(), KeyBackend::Direct);
    reopened
}
