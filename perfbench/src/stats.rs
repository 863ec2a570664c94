//! Order statistics and the per-run report every workload returns.

use std::collections::BTreeMap;

use nexsort_server::json::Value;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations started (sorts or daemon jobs).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric name to value.
    pub metrics: BTreeMap<String, f64>,
    /// Digest of the run's outputs, for the default-seed record.
    pub digest: u64,
    /// Logical block transfers, for the default-seed record.
    pub logical_io: u64,
    /// Every span recorded (empty unless tracing).
    pub spans: Vec<Value>,
}

impl Report {
    /// Record metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// `failed / attempted` turned around: the share of operations that
    /// succeeded (1 when every operation did).
    pub fn success_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// The `q`-quantile (0..=1) of `values`, interpolating linearly between
/// order statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
