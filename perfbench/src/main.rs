//! The NEBULA simulator's benchmark.
//!
//! ```text
//! nebula-perfbench --workload <ann_dense|snn_events|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it sets up several times, measures
//! for `--seconds`, checks outputs against the sequential oracle and
//! prints one JSON line. Untraced runs (`--trace 0`) report the
//! end-to-end metrics; traced runs (`--trace 1`) time every call into a
//! layer as a span, write the spans to `.bench_out/` and report the
//! per-layer metrics. See `perfbench/README.md` for the catalogue.

mod ann_dense;
mod host;
mod measure;
mod metrics;
mod rounds;
mod serve_mixed;
mod setup;
mod snn_events;
mod trace;

use measure::median;
use metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// A workload: its name and its entry point.
struct Workload {
    name: &'static str,
    run: fn(&Args, &mut Tracer, Instant) -> Outcome,
}

/// Worker threads of the simulator's tensor pool, pinned through
/// `NEBULA_THREADS` before the pool starts. A second worker makes
/// `ann_dense` about 1.4× and `snn_events` about 5% faster on a 2-vCPU
/// host, but a parallel call waits for its slowest part, so contention
/// on either vCPU then slows every call and the run-to-run spread
/// grows (`ann_dense` throughput: 21% at 2 workers against 15% at 1
/// over six interleaved pairs of processes).
const POOL_WORKERS: usize = 1;

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ann_dense",
        run: ann_dense::run,
    },
    Workload {
        name: "snn_events",
        run: snn_events::run,
    },
    Workload {
        name: "serve_mixed",
        run: serve_mixed::run,
    },
];

/// Set-up layers: `(metric, span name)`; each metric is the median over
/// set-ups of the summed self time of that layer's spans.
const SETUP_LAYERS: &[(&str, &str)] = &[
    ("workloads.generate_ms", "workloads.generate"),
    ("nn.train_ms", "nn.train"),
    ("nn.quantize_ms", "nn.quantize"),
    ("nn.convert_ms", "nn.convert"),
    ("analog.compile_ms", "analog.compile"),
    ("analog_snn.compile_ms", "analog_snn.compile"),
    ("crossbar.cache_build_ms", "crossbar.cache_build"),
    ("multichip.shard_ms", "multichip.shard"),
    ("serve.start_ms", "serve.start"),
];

/// Directory traced runs write their spans to.
const TRACE_DIR: &str = ".bench_out";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds the timed phase runs.
    pub seconds: f64,
    /// Whether to record spans.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    Ok(args)
}

/// Whether two read-energy totals of the same work agree: the fast
/// kernels sum energy per row, the reference per cell, so they differ
/// by rounding only (at most 1e-9 relative).
pub fn energy_agrees(fast_j: f64, reference_j: f64) -> bool {
    fast_j > 0.0 && ((fast_j - reference_j) / reference_j).abs() <= 1e-9
}

/// Inserts the set-up layer metrics measured by the tracer.
pub fn setup_layers(tr: &Tracer, values: &mut Values) {
    for &(metric, span) in SETUP_LAYERS {
        let per_setup = tr.child_ms_per_parent("setup", span);
        values.insert(metric, median(&per_setup).unwrap_or(0.0));
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nebula-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("validated workload");
    // No thread has started yet, and the pool reads this on first use.
    std::env::set_var("NEBULA_THREADS", POOL_WORKERS.to_string());
    let mut tr = Tracer::new(args.trace);
    let mut outcome = (workload.run)(&args, &mut tr, process_start);
    outcome
        .end_to_end
        .insert("peak_rss_mb", host::peak_rss_mb());
    let layer = &mut outcome.per_layer;
    layer.insert("host.pool_workers", nebula_tensor::pool::size() as f64);
    layer.insert("host.nproc", host::nproc() as f64);

    if args.trace {
        let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", args.workload, args.seed);
        let written =
            std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
        if let Err(e) = written {
            eprintln!("nebula-perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("spans: {path}");
    }
    let (catalogue, values) = if args.trace {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    println!("{}", outcome.report(catalogue, values).to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload snn_events --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "snn_events");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 3.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--workload ann_dense --seed x",
            "--workload ann_dense --seconds 0",
            "--workload ann_dense --trace 2",
            "--workload ann_dense --seed",
            "--workload ann_dense --colour blue",
            "",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn energy_agreement_is_relative() {
        assert!(energy_agrees(1.0 + 1e-12, 1.0));
        assert!(!energy_agrees(1.0 + 1e-6, 1.0));
        assert!(!energy_agrees(0.0, 0.0));
    }
}
