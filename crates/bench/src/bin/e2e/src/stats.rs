//! Order statistics for the benchmark's own samples.

/// Median, extremes and quartiles of one metric's samples in a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric measured once, or computed rather than measured.
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            min: value,
            max: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// How far the reported median itself is expected to move between
    /// runs, as a share of the median: the quartile distance shrunk by
    /// `sqrt(n)` (for roughly normal samples the standard error of a
    /// median is `1.25 sigma / sqrt(n)` and the quartile distance is
    /// `1.35 sigma`). Below four samples the quartiles are the extremes.
    pub fn median_spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1).abs() / (self.median.abs() * (self.n as f64).sqrt())
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(ascending: &[f64], q: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no samples");
    let rank = (q.clamp(0.0, 1.0) * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// Median with the two middle samples averaged for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Summarises one metric's samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q3) = if v.len() < 4 {
        (v[0], v[v.len() - 1])
    } else {
        (percentile(&v, 0.25), percentile(&v, 0.75))
    };
    Summary {
        median: median(&v),
        min: v[0],
        max: v[v.len() - 1],
        q1,
        q3,
        n: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 99% of 150 samples is 148.5: the 149th sample covers it.
        let w: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), 149.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0]);
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 8));
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(Summary::single(2.0).median_spread(), 0.0);
        // Eight samples with quartiles 2 and 7 around a median of 4.5.
        let expect = 5.0 / (4.5 * 8f64.sqrt());
        assert!((s.median_spread() - expect).abs() < 1e-12);
    }
}
