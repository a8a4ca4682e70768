//! Order statistics used by every reported percentile.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(p × n)` (rank 1 for `p = 0`). With 64 samples p50 is
/// the 32nd value and p80 the 52nd, which leaves twelve samples beyond it —
/// p80 is the highest percentile the guide's "ten samples beyond" rule
/// allows at the benchmark's smallest per-kind sample count. Returns 0 for
/// an empty sample so a workload that has no updates of a kind reports 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (NaN-safe total order).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median as the mean of the two middle values for even counts (set-up
/// repeats are few, so the midpoint matters there).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_documented_rank() {
        let v: Vec<f64> = (1..=64).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 32.0);
        assert_eq!(percentile(&v, 0.8), 52.0); // twelve samples beyond
        assert_eq!(percentile(&v, 0.99), 64.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 64.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&ten, 0.8), 8.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.8), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
