//! Order statistics over latency samples.

use std::collections::BTreeMap;

/// Linear-interpolated quantile of unsorted values (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latency samples tagged with the class of operation that produced them
/// (which lake, which kind of table, which mutation).
///
/// A phase that mixes classes of very different cost in fixed proportions
/// has a multi-modal latency distribution whose pooled median sits on the
/// boundary between two modes and jumps between them from run to run. The
/// typical latency is therefore the mean over classes of each class's own
/// median. The tail is the pooled upper quantile: it falls inside the
/// costliest class, where it is as steady as that class.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    by_class: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, class: &str, ms: f64) {
        self.by_class.entry(class.to_string()).or_default().push(ms);
    }

    pub fn extend(&mut self, other: Samples) {
        for (c, v) in other.by_class {
            self.by_class.entry(c).or_default().extend(v);
        }
    }

    pub fn len(&self) -> usize {
        self.by_class.values().map(Vec::len).sum()
    }

    /// Mean over classes of the per-class median.
    pub fn p50(&self) -> f64 {
        let meds: Vec<f64> = self.by_class.values().map(|v| median(v)).collect();
        meds.iter().sum::<f64>() / meds.len() as f64
    }

    /// Pooled quantile `q` over every class.
    pub fn pooled(&self, q: f64) -> f64 {
        let all: Vec<f64> = self.by_class.values().flatten().copied().collect();
        quantile(&all, q)
    }
}

/// The tail percentile every latency metric reports.
pub const TAIL_Q: f64 = 0.9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn class_balanced_median_ignores_mix_boundary() {
        let mut s = Samples::default();
        for i in 0..50 {
            s.push("cheap", 10.0 + i as f64 * 0.01);
            s.push("dear", 100.0 + i as f64 * 0.01);
        }
        // The pooled median would sit between the modes; the class-balanced
        // one is the mean of the two class medians.
        assert!((s.p50() - 55.245).abs() < 1e-9);
        assert!(s.pooled(TAIL_Q) > 100.0);
    }
}
