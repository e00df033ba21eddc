//! The `passjoin_setsim_*` metrics family — the set-similarity lane's
//! counterpart of the edit-distance engine's `EngineObs`, over the same
//! shared [`Registry`].
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `passjoin_setsim_requests_total` | counter | search requests answered |
//! | `passjoin_setsim_candidates_total` | counter | posting entries screened |
//! | `passjoin_setsim_verifications_total` | counter | overlap verifications started (an early reject counts once) |
//! | `passjoin_setsim_matches_total` | counter | matches accepted |
//! | `passjoin_setsim_truncated_total` | counter | requests cut short by a budget |
//! | `passjoin_setsim_inserts_total` | counter | records inserted |
//! | `passjoin_setsim_removes_total` | counter | records removed |
//! | `passjoin_setsim_request_ns` | histogram | per-request wall time (ns) |
//! | `passjoin_setsim_index_records` | gauge | live records |
//! | `passjoin_setsim_index_tokens` | gauge | distinct dictionary tokens |
//! | `passjoin_setsim_index_postings` | gauge | live posting entries |
//!
//! Counter totals reconcile exactly with summed per-request
//! [`ExecStats`]: `candidates_total` = Σ `stats.candidates`,
//! `verifications_total` = Σ `stats.verifications`, `matches_total` =
//! Σ `stats.segment_matches` — pinned by the differential suite and the
//! CI dedup smoke.

use std::sync::Arc;

use passjoin_obs::{Counter, Gauge, Histogram, Registry};
use passjoin_online::{Completion, ExecStats};

/// Handles to the `passjoin_setsim_*` instruments. Attach to a
/// [`SetSimilarityIndex`](crate::SetSimilarityIndex) via
/// `set_observability`; share the registry with other engine families to
/// get one merged dump.
pub struct SetSimObs {
    registry: Arc<Registry>,
    requests: Counter,
    candidates: Counter,
    verifications: Counter,
    matches: Counter,
    truncated: Counter,
    inserts: Counter,
    removes: Counter,
    request_ns: Histogram,
    index_records: Gauge,
    index_tokens: Gauge,
    index_postings: Gauge,
}

impl SetSimObs {
    /// Instruments registered on a fresh private registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Instruments registered on a shared registry (one dump for the
    /// whole process).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let c = |name: &str| registry.counter(name);
        let g = |name: &str| registry.gauge(name);
        Self {
            requests: c("passjoin_setsim_requests_total"),
            candidates: c("passjoin_setsim_candidates_total"),
            verifications: c("passjoin_setsim_verifications_total"),
            matches: c("passjoin_setsim_matches_total"),
            truncated: c("passjoin_setsim_truncated_total"),
            inserts: c("passjoin_setsim_inserts_total"),
            removes: c("passjoin_setsim_removes_total"),
            request_ns: registry.histogram("passjoin_setsim_request_ns"),
            index_records: g("passjoin_setsim_index_records"),
            index_tokens: g("passjoin_setsim_index_tokens"),
            index_postings: g("passjoin_setsim_index_postings"),
            registry,
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one answered request: its counters, truncation, and wall
    /// time.
    pub fn record_request(&self, stats: &ExecStats, completion: &Completion, total_ns: u64) {
        self.requests.inc(1);
        self.candidates.inc(stats.candidates);
        self.verifications.inc(stats.verifications);
        self.matches.inc(stats.segment_matches);
        if !completion.is_complete() {
            self.truncated.inc(1);
        }
        self.request_ns.observe(total_ns);
    }

    /// Bumps the insert counter.
    pub fn note_insert(&self) {
        self.inserts.inc(1);
    }

    /// Bumps the remove counter.
    pub fn note_remove(&self) {
        self.removes.inc(1);
    }

    /// Publishes index-shape gauges.
    pub fn record_index(&self, records: usize, tokens: usize, postings: u64) {
        let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        self.index_records.set(clamp(records as u64));
        self.index_tokens.set(clamp(tokens as u64));
        self.index_postings.set(clamp(postings));
    }

    /// Prometheus text dump of the backing registry.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// JSON dump of the backing registry.
    pub fn render_json(&self) -> String {
        self.registry.render_json()
    }
}

impl Default for SetSimObs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SetSimObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetSimObs")
            .field("requests", &self.requests.get())
            .field("candidates", &self.candidates.get())
            .field("verifications", &self.verifications.get())
            .finish_non_exhaustive()
    }
}
