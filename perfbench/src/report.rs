//! Order statistics, the metric table and the result line.

use std::fmt::Write as _;

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentile. A fixed percentile, not the `(n − 10)`-th order
/// statistic: that one climbs towards the maximum as a run times more
/// batches, and a few seconds of host interference then decide it. Every
/// run times at least [`crate::MIN_ROUNDS`] batches of each kind, so at
/// least ten lie beyond it.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// The [`TAIL_PERCENTILE`] of `xs` (nearest rank; 0 when empty).
pub fn tail(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((TAIL_PERCENTILE / 100.0 * v.len() as f64).ceil() as usize).max(1);
    v[rank - 1]
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Metrics in the order they were added, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    /// One human-readable line per metric.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    /// The final result line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_90th_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), 90.0);
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&xs), 180.0);
        assert_eq!(median(&xs), 100.0);
    }
}
