//! Set-similarity metrics and their prefix-filtering bounds.
//!
//! All three metrics compare *sets* of token ids; `o` is the overlap
//! `|x ∩ y|`, `sx`/`sy` the set sizes. Thresholds live in `(0, 1]`:
//!
//! * **Jaccard** `o / (sx + sy − o)` — size interval
//!   `[⌈t·sx⌉, ⌊sx/t⌋]`, required overlap `⌈t/(1+t)·(sx+sy)⌉`
//!   (PPJoin, Xiao et al., WWW 2008 / TODS 2011);
//! * **Cosine** `o / √(sx·sy)` — size interval `[⌈t²·sx⌉, ⌊sx/t²⌋]`,
//!   required overlap `⌈t·√(sx·sy)⌉` (All-Pairs, Bayardo et al.,
//!   WWW 2007);
//! * **Overlap** `o / min(sx, sy)` — no usable size upper bound,
//!   required overlap `⌈t·min(sx, sy)⌉`.
//!
//! Every accept test is a *division-free* integer-vs-float comparison
//! (`accepts`), and the brute-force differential suite uses the very
//! same function — so index and oracle can never disagree on a
//! borderline pair due to floating-point rounding. The pruning bounds
//! subtract/add a small epsilon before rounding so they only ever err
//! toward admitting an extra candidate, never toward dropping a true
//! match.

/// Scale used to map a similarity in `[0, 1]` onto the integer distance
/// axis of [`passjoin::sink::MatchSink`]: `dist = round((1 − sim) · SCALE)`.
///
/// One unit of distance is one millionth of similarity — far finer than
/// any corpus distinguishes — so top-k ordering over scaled distances
/// matches ordering over the underlying similarity values.
pub const DIST_SCALE: u32 = 1_000_000;

/// Guard band for the floating-point pruning bounds. Rounding the exact
/// real-arithmetic bound may land a hair's breadth on either side of an
/// integer; shifting by `EPS` before `ceil`/`floor` guarantees the bound
/// under-(resp. over-)estimates, so pruning stays lossless.
const EPS: f64 = 1e-7;

/// A set-similarity metric with a threshold semantics of "similarity ≥ t".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetMetric {
    /// `|x ∩ y| / |x ∪ y|`.
    Jaccard,
    /// `|x ∩ y| / √(|x|·|y|)`.
    Cosine,
    /// `|x ∩ y| / min(|x|, |y|)`.
    Overlap,
}

impl SetMetric {
    /// Parses a CLI-style metric name (`jaccard`, `cosine`, `overlap`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "jaccard" => Some(Self::Jaccard),
            "cosine" => Some(Self::Cosine),
            "overlap" => Some(Self::Overlap),
            _ => None,
        }
    }

    /// The metric's canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Jaccard => "jaccard",
            Self::Cosine => "cosine",
            Self::Overlap => "overlap",
        }
    }

    /// The similarity value for overlap `o` between sets of sizes `sx`
    /// and `sy`. Empty sets have similarity 0 to everything (including
    /// each other) — an empty record matches nothing.
    pub fn similarity(&self, o: usize, sx: usize, sy: usize) -> f64 {
        if sx == 0 || sy == 0 {
            return 0.0;
        }
        let (o, sx, sy) = (o as f64, sx as f64, sy as f64);
        match self {
            Self::Jaccard => o / (sx + sy - o),
            Self::Cosine => o / (sx * sy).sqrt(),
            Self::Overlap => o / sx.min(sy),
        }
    }

    /// Whether overlap `o` between sets of sizes `sx`, `sy` meets
    /// threshold `t` — i.e. `similarity ≥ t`, evaluated division-free so
    /// the test is exact for all corpus-scale inputs. Empty sets never
    /// match.
    pub fn accepts(&self, t: f64, o: usize, sx: usize, sy: usize) -> bool {
        if o == 0 {
            // t > 0 always demands some overlap; also enforces the
            // empty-set rule without a special case.
            return false;
        }
        let (fo, fx, fy) = (o as f64, sx as f64, sy as f64);
        match self {
            // o/(sx+sy−o) ≥ t  ⟺  o·(1+t) ≥ t·(sx+sy)
            Self::Jaccard => fo * (1.0 + t) >= t * (fx + fy),
            // o/√(sx·sy) ≥ t  ⟺  o² ≥ t²·sx·sy
            Self::Cosine => fo * fo >= t * t * fx * fy,
            Self::Overlap => fo >= t * fx.min(fy),
        }
    }

    /// The minimum overlap α(sx, sy, t) any accepted pair must have — a
    /// safe under-estimate (never larger than the true requirement), at
    /// least 1.
    pub fn min_overlap(&self, t: f64, sx: usize, sy: usize) -> usize {
        let (fx, fy) = (sx as f64, sy as f64);
        let raw = match self {
            Self::Jaccard => t / (1.0 + t) * (fx + fy),
            Self::Cosine => t * (fx * fy).sqrt(),
            Self::Overlap => t * fx.min(fy),
        };
        (raw - EPS).ceil().max(1.0) as usize
    }

    /// The interval `[lo, hi]` of candidate-set sizes that could meet
    /// threshold `t` against a set of size `sx` (length-interval
    /// pruning). `lo ≥ 1`; for the overlap metric `hi` is unbounded
    /// (`usize::MAX`).
    pub fn size_range(&self, t: f64, sx: usize) -> (usize, usize) {
        let fx = sx as f64;
        let (lo, hi) = match self {
            Self::Jaccard => ((t * fx - EPS).ceil(), (fx / t + EPS).floor()),
            Self::Cosine => ((t * t * fx - EPS).ceil(), (fx / (t * t) + EPS).floor()),
            Self::Overlap => (1.0, f64::MAX),
        };
        let lo = lo.max(1.0) as usize;
        let hi = if hi >= usize::MAX as f64 {
            usize::MAX
        } else {
            hi as usize
        };
        (lo, hi)
    }

    /// The similarity scaled onto the sink distance axis:
    /// `round((1 − sim) · DIST_SCALE)`, so *smaller is more similar* and
    /// `TopKSink` keeps the k most-similar matches.
    pub fn scaled_distance(&self, o: usize, sx: usize, sy: usize) -> usize {
        let sim = self.similarity(o, sx, sy).clamp(0.0, 1.0);
        ((1.0 - sim) * DIST_SCALE as f64).round() as usize
    }

    /// The largest scaled distance any match at threshold `t` can have —
    /// the initial `tau` handed to [`passjoin::sink::MatchSink::bound`]
    /// for top-k steering. One extra unit absorbs `scaled_distance`'s
    /// rounding.
    pub fn distance_bound(t: f64) -> usize {
        ((1.0 - t) * DIST_SCALE as f64).ceil() as usize + 1
    }

    /// The threshold implied by a sink distance bound `b`: matches
    /// scoring worse (greater distance) than `b` are unwanted, so the
    /// probe may tighten to `t_eff = 1 − (b + 1)/DIST_SCALE` (the `+1`
    /// absorbs `scaled_distance` rounding). Never loosens below the
    /// requested `t`.
    pub fn tightened_threshold(t: f64, bound: usize) -> f64 {
        let implied = 1.0 - (bound as f64 + 1.0) / DIST_SCALE as f64;
        implied.max(t)
    }
}

/// The exact overlap `|x ∩ y|` of two strictly-sorted slices, by linear
/// merge. Both slices must be sorted under the same total order and
/// duplicate-free (token *sets*).
pub fn sorted_overlap<T: Ord>(x: &[T], y: &[T]) -> usize {
    let (mut i, mut j, mut o) = (0, 0, 0);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                o += 1;
                i += 1;
                j += 1;
            }
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similarity_formulas() {
        let m = SetMetric::Jaccard;
        assert!((m.similarity(2, 3, 3) - 0.5).abs() < 1e-12);
        let m = SetMetric::Cosine;
        assert!((m.similarity(2, 4, 1) - 1.0).abs() < 1e-12);
        let m = SetMetric::Overlap;
        assert!((m.similarity(2, 2, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accepts_matches_similarity_threshold() {
        for metric in [SetMetric::Jaccard, SetMetric::Cosine, SetMetric::Overlap] {
            for sx in 1..=12usize {
                for sy in 1..=12usize {
                    for o in 0..=sx.min(sy) {
                        for t in [0.3, 0.5, 0.75, 0.8, 1.0] {
                            let sim = metric.similarity(o, sx, sy);
                            // Away from the boundary the two must agree;
                            // at the boundary `accepts` is the canonical
                            // answer (division-free, hence exact).
                            if (sim - t).abs() > 1e-9 {
                                assert_eq!(
                                    metric.accepts(t, o, sx, sy),
                                    sim >= t,
                                    "{metric:?} t={t} o={o} sx={sx} sy={sy}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn min_overlap_is_a_valid_lower_bound() {
        // Verification rejects a pair as soon as its overlap provably
        // stays below α, so an α one too large silently drops matches:
        // cover set sizes well past a ~100-token record, and thresholds
        // that are not exact in binary.
        for metric in [SetMetric::Jaccard, SetMetric::Cosine, SetMetric::Overlap] {
            for sx in 1..=300usize {
                for sy in 1..=300usize {
                    for t in [0.3, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.8, 0.9, 1.0] {
                        let alpha = metric.min_overlap(t, sx, sy);
                        // No accepted overlap may fall below alpha.
                        for o in 0..alpha.min(sx.min(sy) + 1) {
                            assert!(
                                !metric.accepts(t, o, sx, sy),
                                "{metric:?} t={t} o={o} < α={alpha} accepted (sx={sx}, sy={sy})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn size_range_is_a_valid_interval() {
        for metric in [SetMetric::Jaccard, SetMetric::Cosine, SetMetric::Overlap] {
            for sx in 1..=15usize {
                for t in [0.3, 0.5, 0.8, 1.0] {
                    let (lo, hi) = metric.size_range(t, sx);
                    for sy in 1..=30usize {
                        if sy < lo || sy > hi {
                            // Outside the interval even total overlap fails.
                            let o = sx.min(sy);
                            assert!(
                                !metric.accepts(t, o, sx, sy),
                                "{metric:?} t={t} sx={sx} sy={sy} outside [{lo},{hi}] but accepted"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_sets_never_match() {
        for metric in [SetMetric::Jaccard, SetMetric::Cosine, SetMetric::Overlap] {
            assert!(!metric.accepts(0.5, 0, 0, 0));
            assert!(!metric.accepts(0.5, 0, 0, 3));
            assert_eq!(metric.similarity(0, 0, 0), 0.0);
        }
    }

    #[test]
    fn scaled_distance_orders_by_similarity() {
        let m = SetMetric::Jaccard;
        let d_exact = m.scaled_distance(3, 3, 3);
        let d_close = m.scaled_distance(3, 3, 4);
        let d_far = m.scaled_distance(1, 3, 4);
        assert_eq!(d_exact, 0);
        assert!(d_exact < d_close && d_close < d_far);
        // A match at threshold t never exceeds the steering bound.
        for t in [0.3, 0.8, 1.0] {
            let b = SetMetric::distance_bound(t);
            for (o, sx, sy) in [(4, 5, 5), (8, 10, 10), (1, 1, 1)] {
                if m.accepts(t, o, sx, sy) {
                    assert!(m.scaled_distance(o, sx, sy) <= b);
                }
            }
        }
    }

    #[test]
    fn sorted_overlap_merges() {
        assert_eq!(sorted_overlap(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 2);
        assert_eq!(sorted_overlap::<u32>(&[], &[1]), 0);
        assert_eq!(sorted_overlap(&[1, 2], &[1, 2]), 2);
    }

    #[test]
    fn parse_round_trips() {
        for m in [SetMetric::Jaccard, SetMetric::Cosine, SetMetric::Overlap] {
            assert_eq!(SetMetric::parse(m.name()), Some(m));
        }
        assert_eq!(SetMetric::parse("dice"), None);
    }
}
