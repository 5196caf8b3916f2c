//! The benchmark's arithmetic and output format, in one place: elapsed
//! time, nearest-rank percentiles, the bitwise output comparator and
//! the one-line JSON result.

use nebula_tensor::Tensor;
use std::time::Duration;

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it (`p` in `(0, 100]`). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// [`percentile`] for a tail: `None` unless at least [`TAIL_SUPPORT`]
/// samples lie beyond the chosen rank, so p90 needs 100 samples.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(samples.len(), p)?;
    if samples.len() - rank < TAIL_SUPPORT {
        return None;
    }
    percentile(samples, p)
}

/// 1-based nearest rank `⌈p/100 · n⌉`, clamped to `1..=n`.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Bitwise equality of two output tensors: equal shapes and equal
/// `f32` bit patterns, so `NaN` equals only the same `NaN` and `0.0`
/// differs from `-0.0`.
pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's verdict and metrics, printed as the last line of stdout.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (calls or requests) attempted.
    pub attempted: u64,
    /// Operations that errored, were refused or disagreed with the
    /// oracle.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The run is correct when it attempted something, nothing failed
    /// and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A non-finite value is written as `null` (and makes the run
    /// incorrect).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; `null` for NaN and infinities.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so the helpers must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = seq(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&seq(5)), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 99 samples is rank 90: only 9 beyond.
        assert_eq!(tail_percentile(&seq(99), 90.0), None);
        // p90 of 100 samples is rank 90: exactly 10 beyond.
        assert_eq!(tail_percentile(&seq(100), 90.0), Some(90.0));
        assert_eq!(tail_percentile(&seq(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&seq(19), 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn bitwise_comparator_treats_nan_and_zero_as_bits() {
        let t = |v: Vec<f32>| Tensor::from_vec(v.clone(), &[v.len()]).unwrap();
        assert!(bits_equal(&t(vec![1.0, f32::NAN]), &t(vec![1.0, f32::NAN])));
        let other_nan = f32::from_bits(f32::NAN.to_bits() ^ 1);
        assert!(!bits_equal(&t(vec![f32::NAN]), &t(vec![other_nan])));
        assert!(!bits_equal(&t(vec![0.0]), &t(vec![-0.0])));
        assert!(bits_equal(&t(vec![-0.0]), &t(vec![-0.0])));
        let square = Tensor::from_vec(vec![1.0; 4], &[2, 2]).unwrap();
        assert!(!bits_equal(&square, &t(vec![1.0; 4])));
        assert!(!bits_equal(&t(vec![1.0]), &t(vec![1.0, 2.0])));
    }

    #[test]
    fn report_json_shape() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.push("latency_ms", 1.25, "ms");
        r.push("count", 3.0, "count");
        assert!(r.correct());
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        r.failed = 1;
        assert!(!r.correct());
        let mut nan = Report {
            attempted: 1,
            ..Report::default()
        };
        nan.push("x", f64::NAN, "ms");
        assert!(!nan.correct());
        assert!(nan.to_json().contains("null"));
        assert_eq!(json_string("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }
}
