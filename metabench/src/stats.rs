//! Percentiles under the rule that a reported percentile must have at
//! least [`MIN_BEYOND`] samples beyond it, over bounded latency samples.

use crate::rng::Rng;

/// Samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0..=1`) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Latency samples kept per metric. Beyond this many, a uniform random
/// subset is kept, so the benchmark's own memory (and `peak_rss_mb`)
/// does not grow with how fast a run goes.
pub const RESERVOIR: usize = 1 << 18;

/// A uniform sample of at most [`RESERVOIR`] of the values pushed
/// (reservoir sampling, Vitter's algorithm R).
pub struct Samples {
    seen: u64,
    kept: Vec<u64>,
    rng: Rng,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            seen: 0,
            kept: Vec::with_capacity(RESERVOIR),
            rng: Rng::new(0),
        }
    }
}

impl Samples {
    pub fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(value);
        } else {
            let slot = self.rng.next_u64() % self.seen;
            if let Some(k) = self.kept.get_mut(slot as usize) {
                *k = value;
            }
        }
    }

    /// Values pushed, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept values, sorted.
    pub fn sorted(&mut self) -> &[u64] {
        self.kept.sort_unstable();
        &self.kept
    }
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.9), Some(90));
        // p99 of 100 samples has only one sample beyond it.
        assert_eq!(percentile(&v, 0.99), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs n - ceil(0.99 n) >= 10, i.e. at least 1000 samples.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        // The median needs 20 samples.
        assert_eq!(percentile(&(1..=19).collect::<Vec<u64>>(), 0.5), None);
        assert_eq!(percentile(&(1..=20).collect::<Vec<u64>>(), 0.5), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut s = Samples::default();
        let n = 4 * RESERVOIR as u64;
        for v in 0..n {
            s.push(v);
        }
        assert_eq!(s.seen(), n);
        let kept = s.sorted();
        assert_eq!(kept.len(), RESERVOIR);
        // A uniform sample of 0..n has its median near n / 2.
        let median = percentile(kept, 0.5).unwrap() as f64;
        assert!((median / n as f64 - 0.5).abs() < 0.01, "median {median}");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
