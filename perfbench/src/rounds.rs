//! The timed loop of the batch workloads: rounds of a fixed amount of
//! work, repeated until the run's seconds are spent and enough calls
//! were timed for a p90.
//!
//! Every round evaluates the same inputs, so each is one fixed-work
//! measurement and the reported figures are medians over rounds. In a
//! traced run the rounds alternate between traced and untraced, which
//! gives `trace.overhead_pct` from one process without letting drift
//! between two phases pass as overhead.

use crate::measure::{median, ms};
use crate::trace::{SpanId, Tracer};
use std::time::{Duration, Instant};

/// Fewest rounds a run measures, whatever its seconds.
pub const MIN_ROUNDS: usize = 4;
/// Fewest calls a run times: a nearest-rank p90 needs 100.
pub const MIN_CALLS: usize = 100;

/// Alternates, times and counts rounds.
pub struct RoundLoop {
    deadline: Instant,
    traced_run: bool,
    rounds: usize,
    current: Option<(Instant, Option<SpanId>, bool)>,
    /// Per-call milliseconds of the untraced rounds.
    pub call_ms: Vec<f64>,
    /// Per-call milliseconds of every round, traced or not.
    pub all_call_ms: Vec<f64>,
    /// Seconds of each untraced round.
    pub round_s: Vec<f64>,
    /// Seconds of each traced round.
    pub traced_round_s: Vec<f64>,
}

impl RoundLoop {
    /// A loop that runs for `seconds`, traced every other round when
    /// `tr` is enabled.
    pub fn new(tr: &Tracer, seconds: f64) -> Self {
        Self {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            traced_run: tr.enabled(),
            rounds: 0,
            current: None,
            call_ms: Vec::new(),
            all_call_ms: Vec::new(),
            round_s: Vec::new(),
            traced_round_s: Vec::new(),
        }
    }

    /// Starts the next round and returns its index and span, or `None`
    /// when time is up (never before [`MIN_ROUNDS`] rounds and, for
    /// loops that time calls, [`MIN_CALLS`] calls).
    pub fn begin(&mut self, tr: &mut Tracer) -> Option<(usize, Option<SpanId>)> {
        let enough_calls = self.all_call_ms.is_empty() || self.all_call_ms.len() >= MIN_CALLS;
        if self.rounds >= MIN_ROUNDS && enough_calls && Instant::now() >= self.deadline {
            tr.set_enabled(self.traced_run);
            return None;
        }
        let traced = self.traced_run && self.rounds.is_multiple_of(2);
        tr.set_enabled(traced);
        let span = tr.open("round", None);
        self.current = Some((Instant::now(), span, traced));
        Some((self.rounds, span))
    }

    /// Times one call of the current round as a span named `name`.
    pub fn call<T>(
        &mut self,
        tr: &mut Tracer,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, d) = tr.time(name, parent, f);
        if matches!(self.current, Some((_, _, false))) {
            self.call_ms.push(ms(d));
        }
        self.all_call_ms.push(ms(d));
        out
    }

    /// Ends the current round.
    pub fn end(&mut self, tr: &mut Tracer) {
        let (start, span, traced) = self.current.take().expect("end without begin");
        let s = start.elapsed().as_secs_f64();
        tr.close(span);
        if traced {
            self.traced_round_s.push(s);
        } else {
            self.round_s.push(s);
        }
        self.rounds += 1;
    }

    /// Median work per second over untraced rounds, `work` units each.
    pub fn throughput(&self, work: usize) -> f64 {
        let rates: Vec<f64> = self.round_s.iter().map(|s| work as f64 / s).collect();
        median(&rates).unwrap_or(0.0)
    }

    /// How much longer the median traced round took than the median
    /// untraced one, in percent.
    pub fn overhead_pct(&self) -> f64 {
        overhead_pct(&self.traced_round_s, &self.round_s)
    }
}

/// `(median(traced) / median(untraced) − 1) · 100`; 0 when either side
/// has no samples.
fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    match (median(traced), median(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_loop_runs_min_rounds_and_records_calls() {
        let mut tr = Tracer::new(false);
        let mut rl = RoundLoop::new(&tr, 0.0);
        let mut rounds = 0;
        while let Some((i, span)) = rl.begin(&mut tr) {
            assert_eq!(i, rounds);
            rl.call(&mut tr, span, "call", || ());
            rl.call(&mut tr, span, "call", || ());
            rl.end(&mut tr);
            rounds += 1;
        }
        assert_eq!(rounds, MIN_CALLS / 2);
        assert_eq!(rl.call_ms.len(), MIN_CALLS);
        assert_eq!(rl.round_s.len(), MIN_CALLS / 2);
        assert!(rl.traced_round_s.is_empty());
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn loop_without_calls_stops_after_min_rounds() {
        let mut tr = Tracer::new(false);
        let mut rl = RoundLoop::new(&tr, 0.0);
        let mut rounds = 0;
        while rl.begin(&mut tr).is_some() {
            rl.end(&mut tr);
            rounds += 1;
        }
        assert_eq!(rounds, MIN_ROUNDS);
    }

    #[test]
    fn traced_loop_alternates() {
        let mut tr = Tracer::new(true);
        let mut rl = RoundLoop::new(&tr, 0.0);
        while let Some((_, span)) = rl.begin(&mut tr) {
            for _ in 0..MIN_CALLS / MIN_ROUNDS {
                rl.call(&mut tr, span, "call", || ());
            }
            rl.end(&mut tr);
        }
        assert!(tr.enabled());
        assert_eq!(rl.round_s.len(), MIN_ROUNDS / 2);
        assert_eq!(rl.traced_round_s.len(), MIN_ROUNDS / 2);
        assert_eq!(rl.call_ms.len(), MIN_CALLS / 2);
        assert_eq!(rl.all_call_ms.len(), MIN_CALLS);
        assert_eq!(tr.self_ms("call").len(), MIN_CALLS / 2);
        assert_eq!(tr.self_ms("round").len(), MIN_ROUNDS / 2);
    }

    #[test]
    fn overhead_is_relative_median_difference() {
        assert!((overhead_pct(&[1.1, 1.1, 5.0], &[1.0, 0.5, 1.0]) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[], &[1.0]), 0.0);
    }
}
