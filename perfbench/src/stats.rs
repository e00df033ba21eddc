//! Sample summaries and process measurements.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `pct`-th percentile of `values`, refused unless at
/// least [`TAIL_BEYOND`] samples lie beyond it: a tail figure resting on
/// fewer samples is mostly noise.
pub fn tail_percentile(values: &[f64], pct: usize) -> Result<f64, String> {
    assert!((1..100).contains(&pct), "percentile must be in 1..100");
    let n = values.len();
    // 1-based nearest rank: the smallest k with k/n ≥ pct/100.
    let rank = (pct * n).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < TAIL_BEYOND {
        return Err(format!(
            "p{pct} needs {TAIL_BEYOND} samples beyond it, but {n} samples leave {beyond}"
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// "min / median / max" of timings in seconds, for the human-readable lines.
pub fn summary(secs: &[f64]) -> String {
    let min = secs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = secs.iter().copied().fold(0.0, f64::max);
    format!("{min:.3} / {:.3} / {max:.3} s", median(secs))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90), Ok(90.0));
        // 99 samples put rank 90 at the 90th value with only 9 beyond.
        let err = tail_percentile(&hundred[..99], 90).unwrap_err();
        assert!(err.contains("leave 9"), "{err}");
        assert!(tail_percentile(&[], 90).is_err());
    }

    #[test]
    fn median_rank_needs_twenty_samples() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty, 50), Ok(10.0));
        assert!(tail_percentile(&twenty[..19], 50).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
