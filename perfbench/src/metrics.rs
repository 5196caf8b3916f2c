//! The metric catalogue. Every run prints every end-to-end metric
//! (untraced) or every per-layer metric (traced), in this order; a
//! layer a workload never calls reports 0.

use crate::measure::Report;
use std::collections::BTreeMap;

/// End-to-end metrics, from untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_read_energy_nj", "nJ"),
    ("sim_waves", "count"),
];

/// Per-layer metrics, from traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("nn.train_ms", "ms"),
    ("nn.quantize_ms", "ms"),
    ("nn.convert_ms", "ms"),
    ("analog.compile_ms", "ms"),
    ("analog_snn.compile_ms", "ms"),
    ("analog.program_energy_nj", "nJ"),
    ("crossbar.cache_build_ms", "ms"),
    ("crossbar.cache_bytes", "bytes"),
    ("multichip.shard_ms", "ms"),
    ("multichip.stages", "count"),
    ("serve.start_ms", "ms"),
    ("analog.forward_ms_p50", "ms"),
    ("analog.forward_ms_p90", "ms"),
    ("analog_snn.run_ms_p50", "ms"),
    ("analog_snn.run_ms_p90", "ms"),
    ("analog_snn.timestep_us", "us"),
    ("workloads.input_density", "ratio"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.ann.queued_ms_p50", "ms"),
    ("serve.ann.queued_ms_p90", "ms"),
    ("serve.snn.queued_ms_p50", "ms"),
    ("serve.snn.queued_ms_p90", "ms"),
    ("serve.ann.service_ms_p50", "ms"),
    ("serve.snn.service_ms_p50", "ms"),
    ("serve.snn.service_ms_p90", "ms"),
    ("serve.ann.batch_mean", "requests"),
    ("serve.snn.batch_mean", "requests"),
    ("serve.snn.largest_batch", "requests"),
    ("serve.submit_blocked_ms", "ms"),
    ("serve.generator_late_ms_p90", "ms"),
    ("serve.failed", "count"),
    ("multichip.transfers_per_request", "count"),
    ("noc.flit_hops_per_request", "count"),
    ("noc.link_flit_hops_per_request", "count"),
    ("host.cpu_s", "s"),
    ("host.steal_ms", "ms"),
    ("host.pool_workers", "count"),
    ("host.nproc", "count"),
    ("trace.overhead_pct", "%"),
    ("timed.samples", "count"),
    ("oracle.checked", "count"),
];

/// Named values a workload measured.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error, refusal or oracle mismatch).
    pub failed: u64,
    /// Values of [`END_TO_END`] metrics.
    pub end_to_end: Values,
    /// Values of [`PER_LAYER`] metrics.
    pub per_layer: Values,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The result line's report over `catalogue`, taking values from
    /// `values` (absent ones are 0).
    pub fn report(&self, catalogue: &[(&str, &'static str)], values: &Values) -> Report {
        let mut r = Report {
            attempted: self.attempted,
            failed: self.failed,
            metrics: Vec::new(),
        };
        for &(name, unit) in catalogue {
            r.push(name, values.get(name).copied().unwrap_or(0.0), unit);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and `BENCHMARK.json` list the same metrics
    /// with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn names_are_unique_and_absent_values_are_zero() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        let mut o = Outcome::default();
        o.count(true);
        let r = o.report(END_TO_END, &Values::new());
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert!(r.metrics.iter().all(|m| m.value == 0.0));
    }
}
