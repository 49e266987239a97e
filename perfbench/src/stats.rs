//! The benchmark's own arithmetic: percentiles, the tail-percentile
//! rule, and peak memory.

/// Samples a reported percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps an exact rank (p·n/100 integral) from rounding
    // up to the next one.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile, at most `max_p`, that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its rank; p50 when
/// there are too few samples for any such tail.
pub fn tail_percentile(n: usize, max_p: f64) -> f64 {
    if n <= 2 * TAIL_MIN_BEYOND {
        return 50.0;
    }
    // Rank k = ceil(p·n/100) must satisfy n − k ≥ TAIL_MIN_BEYOND.
    let max_rank = n - TAIL_MIN_BEYOND;
    (100.0 * max_rank as f64 / n as f64).min(max_p)
}

/// Median of unsorted values (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Throughput of a window: the completions at or before `window`
/// seconds (`done_at`: completion times, s since the window opened)
/// divided by the window.
pub fn rate_within(done_at: &[f64], window: f64) -> f64 {
    done_at.iter().filter(|&&t| t <= window).count() as f64 / window
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_capped_once_enough_samples_exist() {
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        assert_eq!(tail_percentile(50_000, 99.0), 99.0);
        assert_eq!(tail_percentile(100, 90.0), 90.0);
        assert_eq!(tail_percentile(50_000, 95.0), 95.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [21usize, 50, 100, 333, 999] {
            let p = tail_percentile(n, 99.0);
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = percentile(&samples, p);
            let beyond = samples.iter().filter(|&&s| s > v).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p} beyond={beyond}");
            // And it is the highest such rank: one rank up leaves fewer.
            let next = samples.iter().position(|&s| s > v).unwrap();
            let beyond_next = n - next - 1;
            assert!(p == 99.0 || beyond_next < TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        assert_eq!(tail_percentile(20, 99.0), 50.0);
        assert_eq!(tail_percentile(1, 99.0), 50.0);
    }

    #[test]
    fn window_rate_counts_only_completions_inside_the_window() {
        // 10 completions per second for 10 s, then 5 more after it.
        let done: Vec<f64> = (1..=105).map(|i| f64::from(i) / 10.0).collect();
        assert!((rate_within(&done, 10.0) - 10.0).abs() < 1e-9);
        // A stall inside the window counts in full.
        let stalled: Vec<f64> = (1..=100).map(|i| f64::from(i) / 10.0 + 5.0).collect();
        assert!((rate_within(&stalled, 10.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
