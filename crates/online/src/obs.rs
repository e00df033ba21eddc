//! Engine observability: [`EngineObs`] and the wall-clock tick source.
//!
//! The primitives (counters, histograms, registry, clocks, trace sinks)
//! live in the dependency-free `passjoin-obs` crate; this module binds
//! them to the engine. [`EngineObs`] pre-registers every metric the
//! engine reports — attaching one to an [`OnlineIndex`](crate::OnlineIndex)
//! (via [`OnlineIndexBuilder::observability`](crate::OnlineIndexBuilder::observability)
//! or [`OnlineIndex::set_observability`](crate::OnlineIndex::set_observability))
//! turns the instrumentation on. Without one, a request reads no clock
//! and fires no trace event; the engine runs the same code, skipping
//! each timer and event behind an `Option` check.
//!
//! # Metric names
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `passjoin_requests_total` | counter | requests executed through the typed `search*` paths |
//! | `passjoin_candidates_total` | counter | inverted-list occurrences screened (≡ summed [`ExecStats::candidates`](crate::ExecStats)) |
//! | `passjoin_verifications_total` | counter | segment-lane verifications, a signature reject counted once (≡ `ExecStats::verifications`) |
//! | `passjoin_short_checked_total` | counter | short-lane brute-force checks (≡ `ExecStats::short_checked`) |
//! | `passjoin_segment_matches_total` | counter | matches accepted from the segment lane (≡ `ExecStats::segment_matches`) |
//! | `passjoin_short_matches_total` | counter | matches accepted from the short lane (≡ `ExecStats::short_matches`) |
//! | `passjoin_truncated_verification_cap_total` | counter | requests truncated by a verification cap |
//! | `passjoin_truncated_candidate_cap_total` | counter | requests truncated by a candidate cap |
//! | `passjoin_truncated_deadline_total` | counter | requests truncated by a deadline |
//! | `passjoin_cache_hits_total` | counter | cache lookups answered (≡ [`CacheStats::hits`](crate::CacheStats)) |
//! | `passjoin_cache_misses_total` | counter | cache lookups that ran the query (≡ `CacheStats::misses`) |
//! | `passjoin_cache_derived_hits_total` | counter | shaped requests answered by deriving from a cached full result |
//! | `passjoin_cache_evictions_total` | counter | LRU evictions (≡ `CacheStats::evictions`) |
//! | `passjoin_cache_invalidations_total` | counter | wholesale epoch invalidations (≡ `CacheStats::invalidations`) |
//! | `passjoin_phase_plan_ns` | histogram | per-request planning time (length-plan build/reuse) |
//! | `passjoin_phase_probe_ns` | histogram | per-request probing/assembly time (total − plan − verify − cache) |
//! | `passjoin_phase_verify_ns` | histogram | per-request time inside exact edit-distance verification |
//! | `passjoin_phase_cache_ns` | histogram | per-request time holding/waiting on the cache lock |
//! | `passjoin_request_ns` | histogram | per-request wall time (= the sum of the four phases) |
//! | `passjoin_index_live_strings` | gauge | live strings at the last [`EngineObs::record_index_stats`] |
//! | `passjoin_index_segment_entries` | gauge | segment-lane posting entries at the last record |
//! | `passjoin_index_resident_bytes` | gauge | estimated resident bytes at the last record |
//! | `passjoin_index_epoch` | gauge | mutation epoch at the last record |
//! | `passjoin_snapshot_save_bytes_total` / `…_load_bytes_total` | counter | snapshot file bytes written / read |
//! | `passjoin_snapshot_save_sections_ns` / `…_save_encode_ns` / `…_save_write_ns` | histogram | save phases: string/span assembly, segment encoding, container write |
//! | `passjoin_snapshot_load_read_ns` / `…_load_decode_ns` / `…_load_validate_ns` | histogram | load phases: file read, open (section decoding), `verify_snapshot` |
//! | `passjoin_snapshot_section_meta_bytes_total` / `…_spans…` / `…_strings…` / `…_segments…` | counter | per-section payload bytes saved/loaded (`segments`: every posting section, 4 or 5 plus 6–9) |
//!
//! Phase attribution is exact by construction: `probe` is defined as the
//! request's wall time minus the measured plan/verify/cache time, so the
//! four phases always sum to `passjoin_request_ns`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use passjoin::sink::TickSource;
use passjoin_obs::{
    Clock, Counter, Gauge, Histogram, MonotonicClock, NoopTraceSink, Registry, TraceEvent,
    TraceSink,
};

use passjoin::sink::TruncationReason;

use crate::cache::CacheCounters;
use crate::index::OnlineStats;
use crate::request::{Completion, ExecStats};

/// The engine's bundle of pre-registered metrics, a clock, and a trace
/// sink. Create one, share it via `Arc`, and attach it to the indices
/// (and snapshots, which inherit it) whose work it should account.
///
/// ```
/// use std::sync::Arc;
/// use passjoin_online::{EngineObs, OnlineIndex, Queryable, SearchRequest};
///
/// let obs = Arc::new(EngineObs::new());
/// let mut index = OnlineIndex::builder(1)
///     .observability(Arc::clone(&obs))
///     .build_from(["vldb", "pvldb"]);
/// index.search(&SearchRequest::new(b"vldb", 1));
/// assert!(obs.render_prometheus().contains("passjoin_requests_total 1"));
/// ```
pub struct EngineObs {
    registry: Arc<Registry>,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) trace: Arc<dyn TraceSink>,
    // Request counters (≡ summed ExecStats by construction: bumped from
    // each request's final stats, not independently).
    pub(crate) requests: Counter,
    pub(crate) candidates: Counter,
    pub(crate) verifications: Counter,
    pub(crate) short_checked: Counter,
    pub(crate) segment_matches: Counter,
    pub(crate) short_matches: Counter,
    pub(crate) truncated_verification_cap: Counter,
    pub(crate) truncated_candidate_cap: Counter,
    pub(crate) truncated_deadline: Counter,
    // Cache counters: hits/misses/evictions/invalidations are bumped by
    // the cache itself at the same sites as its CacheStats; derived hits
    // are engine-side (the cache cannot see the request shape).
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) cache_derived_hits: Counter,
    pub(crate) cache_evictions: Counter,
    pub(crate) cache_invalidations: Counter,
    // Phase timings.
    pub(crate) phase_plan_ns: Histogram,
    pub(crate) phase_probe_ns: Histogram,
    pub(crate) phase_verify_ns: Histogram,
    pub(crate) phase_cache_ns: Histogram,
    pub(crate) request_ns: Histogram,
    // Index gauges.
    index_live_strings: Gauge,
    index_segment_entries: Gauge,
    index_resident_bytes: Gauge,
    index_epoch: Gauge,
    // Snapshot persistence.
    pub(crate) snapshot_save_bytes: Counter,
    pub(crate) snapshot_load_bytes: Counter,
    pub(crate) snapshot_save_sections_ns: Histogram,
    pub(crate) snapshot_save_encode_ns: Histogram,
    pub(crate) snapshot_save_write_ns: Histogram,
    pub(crate) snapshot_load_read_ns: Histogram,
    pub(crate) snapshot_load_decode_ns: Histogram,
    pub(crate) snapshot_load_validate_ns: Histogram,
    pub(crate) section_meta_bytes: Counter,
    pub(crate) section_spans_bytes: Counter,
    pub(crate) section_strings_bytes: Counter,
    pub(crate) section_segments_bytes: Counter,
}

impl EngineObs {
    /// Observability over a fresh registry, the production
    /// [`MonotonicClock`], and the no-op trace sink.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Observability reporting into an existing registry — several
    /// indices (or other subsystems) can share one dump.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let c = |name: &str| registry.counter(name);
        let h = |name: &str| registry.histogram(name);
        let g = |name: &str| registry.gauge(name);
        Self {
            clock: Arc::new(MonotonicClock::new()),
            trace: Arc::new(NoopTraceSink),
            requests: c("passjoin_requests_total"),
            candidates: c("passjoin_candidates_total"),
            verifications: c("passjoin_verifications_total"),
            short_checked: c("passjoin_short_checked_total"),
            segment_matches: c("passjoin_segment_matches_total"),
            short_matches: c("passjoin_short_matches_total"),
            truncated_verification_cap: c("passjoin_truncated_verification_cap_total"),
            truncated_candidate_cap: c("passjoin_truncated_candidate_cap_total"),
            truncated_deadline: c("passjoin_truncated_deadline_total"),
            cache_hits: c("passjoin_cache_hits_total"),
            cache_misses: c("passjoin_cache_misses_total"),
            cache_derived_hits: c("passjoin_cache_derived_hits_total"),
            cache_evictions: c("passjoin_cache_evictions_total"),
            cache_invalidations: c("passjoin_cache_invalidations_total"),
            phase_plan_ns: h("passjoin_phase_plan_ns"),
            phase_probe_ns: h("passjoin_phase_probe_ns"),
            phase_verify_ns: h("passjoin_phase_verify_ns"),
            phase_cache_ns: h("passjoin_phase_cache_ns"),
            request_ns: h("passjoin_request_ns"),
            index_live_strings: g("passjoin_index_live_strings"),
            index_segment_entries: g("passjoin_index_segment_entries"),
            index_resident_bytes: g("passjoin_index_resident_bytes"),
            index_epoch: g("passjoin_index_epoch"),
            snapshot_save_bytes: c("passjoin_snapshot_save_bytes_total"),
            snapshot_load_bytes: c("passjoin_snapshot_load_bytes_total"),
            snapshot_save_sections_ns: h("passjoin_snapshot_save_sections_ns"),
            snapshot_save_encode_ns: h("passjoin_snapshot_save_encode_ns"),
            snapshot_save_write_ns: h("passjoin_snapshot_save_write_ns"),
            snapshot_load_read_ns: h("passjoin_snapshot_load_read_ns"),
            snapshot_load_decode_ns: h("passjoin_snapshot_load_decode_ns"),
            snapshot_load_validate_ns: h("passjoin_snapshot_load_validate_ns"),
            section_meta_bytes: c("passjoin_snapshot_section_meta_bytes_total"),
            section_spans_bytes: c("passjoin_snapshot_section_spans_bytes_total"),
            section_strings_bytes: c("passjoin_snapshot_section_strings_bytes_total"),
            section_segments_bytes: c("passjoin_snapshot_section_segments_bytes_total"),
            registry,
        }
    }

    /// Replaces the clock (deterministic tests use
    /// [`passjoin_obs::ManualNanos`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Replaces the trace sink (default: [`NoopTraceSink`]). The sink is
    /// called at plan/verify/cache/flush/snapshot boundaries — once per
    /// request per boundary, never per candidate — and must be cheap; it
    /// runs on the query path, including parallel batch workers.
    pub fn with_trace(mut self, trace: Arc<dyn TraceSink>) -> Self {
        self.trace = trace;
        self
    }

    /// The shared registry behind this bundle.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Renders the registry in Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Renders the registry as deterministic JSON.
    pub fn render_json(&self) -> String {
        self.registry.render_json()
    }

    /// Copies an index's aggregate statistics into the `passjoin_index_*`
    /// gauges (gauges are point-in-time: call before dumping).
    pub fn record_index_stats(&self, stats: &OnlineStats) {
        let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        self.index_live_strings.set(clamp(stats.live as u64));
        self.index_segment_entries.set(clamp(stats.segment_entries));
        self.index_resident_bytes.set(clamp(stats.resident_bytes));
        self.index_epoch.set(clamp(stats.epoch));
    }

    /// The cache's registry mirrors (see [`CacheCounters`]).
    pub(crate) fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.cache_hits.clone(),
            misses: self.cache_misses.clone(),
            invalidations: self.cache_invalidations.clone(),
            evictions: self.cache_evictions.clone(),
        }
    }

    /// Accounts one finished request: stats counters, completion, and the
    /// phase split. `probe` is derived as the remainder so the four phases
    /// sum exactly to `total`.
    pub(crate) fn record_request(
        &self,
        stats: &ExecStats,
        completion: &Completion,
        total_ns: u64,
        plan_ns: u64,
        cache_ns: u64,
        verify_ns: u64,
    ) {
        self.requests.inc(1);
        self.candidates.inc(stats.candidates);
        self.verifications.inc(stats.verifications);
        self.short_checked.inc(stats.short_checked);
        self.segment_matches.inc(stats.segment_matches);
        self.short_matches.inc(stats.short_matches);
        if let Completion::Truncated { reason } = completion {
            match reason {
                TruncationReason::VerificationCap => self.truncated_verification_cap.inc(1),
                TruncationReason::CandidateCap => self.truncated_candidate_cap.inc(1),
                TruncationReason::Deadline => self.truncated_deadline.inc(1),
            }
        }
        let measured = plan_ns.saturating_add(cache_ns).saturating_add(verify_ns);
        self.phase_plan_ns.observe(plan_ns);
        self.phase_probe_ns
            .observe(total_ns.saturating_sub(measured));
        self.phase_verify_ns.observe(verify_ns);
        self.phase_cache_ns.observe(cache_ns);
        self.request_ns.observe(total_ns.max(measured));
    }
}

impl Default for EngineObs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EngineObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineObs").finish_non_exhaustive()
    }
}

/// Fires a trace event; a one-liner so call sites stay terse.
#[inline]
pub(crate) fn trace(obs: &EngineObs, event: TraceEvent) {
    obs.trace.event(event);
}

/// A real-time [`TickSource`]: a timer thread wakes every `period` and
/// stores the number of whole periods elapsed since construction in an
/// atomic, so
/// [`ExecBudget::with_deadline`](crate::ExecBudget::with_deadline) works
/// against wall-clock time. [`ManualTicks`](crate::ManualTicks) remains
/// the deterministic choice for tests.
///
/// Resolution equals the period: a deadline of `now + n` expires between
/// `(n-1)·period` and `(n+1)·period` of real time. The tick count is read
/// off the clock rather than counted per wake-up, so a late wake-up
/// delays one store, and no error accumulates. Dropping the source
/// signals the thread to exit at its next wake-up; the drop itself does
/// not block.
///
/// ```
/// use std::sync::Arc;
/// use passjoin_online::{ExecBudget, TickSource, WallClockTicks};
///
/// let ticks = Arc::new(WallClockTicks::millis());
/// let already_passed = ticks.ticks(); // expires immediately
/// let budget = ExecBudget::new().with_deadline(ticks, already_passed);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug)]
pub struct WallClockTicks {
    ticks: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl WallClockTicks {
    /// Starts a timer thread advancing one tick per elapsed `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (the thread would spin).
    pub fn start(period: Duration) -> Self {
        assert!(!period.is_zero(), "tick period must be non-zero");
        let ticks = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let origin = std::time::Instant::now();
        {
            let ticks = Arc::clone(&ticks);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("passjoin-ticks".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(period);
                        let elapsed = origin.elapsed().as_nanos() / period.as_nanos();
                        let elapsed = u64::try_from(elapsed).unwrap_or(u64::MAX);
                        ticks.store(elapsed, Ordering::Relaxed);
                    }
                })
                .expect("spawning the tick thread");
        }
        Self { ticks, stop }
    }

    /// A millisecond-resolution source: one tick per millisecond, the
    /// natural unit for request deadlines.
    pub fn millis() -> Self {
        Self::start(Duration::from_millis(1))
    }
}

impl TickSource for WallClockTicks {
    fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

impl Drop for WallClockTicks {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// The deadline `ms` milliseconds from now on `ticks`, as the
/// `(source, expires_at)` pair [`ExecBudget::with_deadline`] takes —
/// the one way every surface (CLI `--deadline-ms`, the network server's
/// per-request deadlines) converts a millisecond budget into tick terms,
/// so deadline semantics cannot drift between them.
///
/// `ticks` should be a long-lived [`WallClockTicks::millis`] source: each
/// source owns a timer thread, so per-request construction would leak a
/// thread per request.
///
/// [`ExecBudget::with_deadline`]: crate::ExecBudget::with_deadline
///
/// ```
/// use std::sync::Arc;
/// use passjoin_online::{wall_deadline, ExecBudget, WallClockTicks};
///
/// let ticker = Arc::new(WallClockTicks::millis());
/// let (source, at) = wall_deadline(&ticker, 250);
/// let budget = ExecBudget::new().with_deadline(source, at);
/// assert!(!budget.is_unlimited());
/// ```
pub fn wall_deadline(ticks: &Arc<WallClockTicks>, ms: u64) -> (Arc<dyn TickSource>, u64) {
    let expires_at = ticks.ticks().saturating_add(ms);
    (Arc::clone(ticks) as Arc<dyn TickSource>, expires_at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_ticks_advance() {
        let source = WallClockTicks::start(Duration::from_millis(2));
        let start = source.ticks();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while source.ticks() == start {
            assert!(
                std::time::Instant::now() < deadline,
                "tick thread never advanced"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(source.ticks() > start);
    }

    #[test]
    fn wall_clock_ticks_track_elapsed_milliseconds() {
        let before = std::time::Instant::now();
        let source = WallClockTicks::millis();
        std::thread::sleep(Duration::from_millis(300));
        let ticks = source.ticks();
        let elapsed = before.elapsed().as_millis() as u64;
        assert!(
            (elapsed.saturating_sub(5)..=elapsed + 1).contains(&ticks),
            "{ticks} ticks after {elapsed} ms"
        );
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_period_is_rejected() {
        let _ = WallClockTicks::start(Duration::ZERO);
    }

    #[test]
    fn record_request_attributes_all_time() {
        let obs = EngineObs::new();
        let stats = ExecStats {
            candidates: 10,
            verifications: 4,
            short_checked: 1,
            segment_matches: 2,
            short_matches: 1,
        };
        obs.record_request(&stats, &Completion::Complete, 1_000, 100, 50, 300);
        assert_eq!(obs.candidates.get(), 10);
        assert_eq!(obs.requests.get(), 1);
        let phases = obs.phase_plan_ns.sum()
            + obs.phase_probe_ns.sum()
            + obs.phase_verify_ns.sum()
            + obs.phase_cache_ns.sum();
        assert_eq!(
            phases,
            obs.request_ns.sum(),
            "phases partition the wall time"
        );
        assert_eq!(obs.phase_probe_ns.sum(), 550, "probe is the remainder");
    }

    #[test]
    fn truncation_reasons_route_to_their_counters() {
        let obs = EngineObs::new();
        for (reason, counter) in [
            (
                TruncationReason::VerificationCap,
                &obs.truncated_verification_cap,
            ),
            (TruncationReason::CandidateCap, &obs.truncated_candidate_cap),
            (TruncationReason::Deadline, &obs.truncated_deadline),
        ] {
            let before = counter.get();
            obs.record_request(
                &ExecStats::default(),
                &Completion::Truncated { reason },
                0,
                0,
                0,
                0,
            );
            assert_eq!(counter.get(), before + 1);
        }
        assert_eq!(obs.requests.get(), 3);
    }
}
