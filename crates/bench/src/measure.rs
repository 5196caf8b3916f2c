//! Helpers the bench binaries share: wall-clock milliseconds, bitwise
//! and relative comparisons against a reference run, JSON string
//! escaping and sample counts read from the environment.

use nebula_tensor::Tensor;
use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Same shape and the same bits in every element.
pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `|value − reference| / |reference|`; `0` when both are zero and
/// infinite when only the reference is.
pub fn rel_err(value: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if value == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((value - reference) / reference).abs()
    }
}

/// Escapes backslashes and double quotes for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The positive integer in env var `var`, or `default` when it is
/// unset, unparsable or zero.
pub fn sample_count(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}
