//! Order statistics the benchmark reports, and the determinism digest.

use muir_core::ContentHasher;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice:
/// the smallest sample with at least `p`% of the samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: u32) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p as usize * n).div_ceil(100)).clamp(1, n))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    nearest_rank(n, p).map_or(0, |r| n - r)
}

/// Whether percentile `p` of `n` samples keeps [`TAIL_BEYOND`] samples
/// beyond it (the rule a reported tail must meet).
pub fn tail_resolved(n: usize, p: u32) -> bool {
    beyond(n, p) >= TAIL_BEYOND
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|&v| (v.max(1) as f64).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Determinism digest of one repetition: a content hash over every
/// design point's `(design id, simulated cycles, end-state hash)`, in
/// evaluation order. Two repetitions agree iff they produced the same
/// designs with the same cycles and the same end states.
pub struct Digest(ContentHasher);

impl Digest {
    /// An empty digest tagged with the workload it covers.
    pub fn new(workload: &str) -> Digest {
        let mut h = ContentHasher::new();
        h.push_str("perfbench-digest-v1");
        h.push_str(workload);
        Digest(h)
    }

    /// Fold in one verified design point.
    pub fn point(&mut self, design: &str, id: u64, cycles: u64, end_state: u64) {
        self.0.push_str(design);
        self.0.push_u64(id);
        self.0.push_u64(cycles);
        self.0.push_u64(end_state);
    }

    /// Fold in a design point that failed (so a failure changes the digest).
    pub fn failure(&mut self, design: &str, id: u64) {
        self.0.push_str("failed");
        self.0.push_str(design);
        self.0.push_u64(id);
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 95), Some(10.0));
        assert_eq!(percentile(&v, 100), Some(10.0));
        assert_eq!(percentile(&v, 1), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(100.0));
        assert_eq!(percentile(&v, 95), Some(190.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(beyond(200, 95), 10);
        assert!(tail_resolved(200, 95));
        assert_eq!(beyond(199, 95), 9);
        assert!(!tail_resolved(199, 95));
        assert!(tail_resolved(20, 50));
        assert!(!tail_resolved(0, 50));
        // The smallest resolving count for p95 is exactly 200.
        let first = (1..1000).find(|&n| tail_resolved(n, 95));
        assert_eq!(first, Some(200));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1, 100]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn digest_orders_and_separates_points() {
        let make = |pts: &[(u64, u64, u64)]| {
            let mut d = Digest::new("w");
            for &(id, c, e) in pts {
                d.point("x", id, c, e);
            }
            d.finish()
        };
        let a = make(&[(1, 10, 7), (2, 20, 8)]);
        assert_eq!(a, make(&[(1, 10, 7), (2, 20, 8)]));
        assert_ne!(a, make(&[(2, 20, 8), (1, 10, 7)]), "order matters");
        assert_ne!(a, make(&[(1, 10, 7), (2, 21, 8)]), "cycles matter");
        assert_ne!(a, make(&[(1, 10, 7), (2, 20, 9)]), "end state matters");
        let mut f = Digest::new("w");
        f.point("x", 1, 10, 7);
        f.failure("x", 2);
        assert_ne!(a, f.finish(), "a failure changes the digest");
    }
}
