//! The sparsity–energy frontier: event-driven SNN evaluation vs the
//! dense ANN baseline on DVS-style event streams.
//!
//! NEBULA's central claim is that spiking workloads win on energy
//! because silent neurons cost (almost) nothing. This benchmark maps
//! where that win actually begins on the circuit-level simulator:
//! quantized VGG/10 run as an SNN at 150 and 300 timesteps over
//! synthetic event frames ([`EventStreamConfig`]) whose input sparsity
//! is an exact knob, swept 90–99% sparse, against the same quantized
//! network run once as an ANN on the same frames.
//!
//! Per (timesteps, sparsity) point, two SNN legs run:
//!
//! * **sequential** — `run_sequential`, the per-sample per-cell
//!   reference;
//! * **event** — `run`, the event-driven engine (the timed production
//!   path), whose outputs, waves *and* read energy must match the
//!   reference bit for bit.
//!
//! The ANN baseline leg (`forward` vs `forward_sequential`) is checked
//! the same way. Constant input encoding makes every leg's active set
//! deterministic and exactly the configured density. A sparsity-0.0
//! point per timestep count is the **dense-tick baseline**: the same
//! engine with every input pixel active, i.e. the cost of ticking every
//! neuron every timestep. `wall_ratio_vs_dense` divides each sparse
//! point's event-path wall time by that baseline — the wall-time-vs-
//! activity scaling the event-driven engine is meant to deliver — and
//! the binary asserts SNN@300 at 99% sparsity lands at ≤ 0.5× dense.
//! The SNN-vs-ANN energy crossover per timestep count is interpolated
//! from the energy sweep (`null` when the curves don't cross in range).
//!
//! Writes `results/BENCH_sparsity.json` (schema
//! `nebula-bench-sparsity/2`, documented in `EXPERIMENTS.md`).
//! `NEBULA_SPARSITY_SAMPLES` overrides the evaluated sample count and
//! `NEBULA_SPARSITY_POINTS` the sweep size (CI smoke runs 2 points).
//! The binary aborts on any divergence.

use std::time::Instant;

use nebula_bench::measure::{bits_equal, ms, sample_count};
use nebula_bench::setup::{trained, Workload};
use nebula_core::analog::compile_ann;
use nebula_core::analog_snn::compile_snn_default;
use nebula_nn::convert::{ann_to_snn, ConversionConfig};
use nebula_nn::quant::{quantize_network, QuantConfig};
use nebula_nn::snn::InputEncoding;
use nebula_workloads::{generate_events, EventStreamConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Acceptance bar: SNN@300 event-path wall time at 99% sparsity must be
/// at most this fraction of the dense-tick baseline. Applies to the
/// full default configuration (the recorded run); reduced smoke
/// configurations use [`SMOKE_WALL_RATIO_MAX`] instead, because with 2
/// samples the per-point wall times are a handful of engine passes and
/// scheduler noise alone can swing the ratio by tens of percent.
const SPARSE_WALL_RATIO_MAX: f64 = 0.5;

/// Sanity bar for reduced (CI smoke) configurations: still fails on a
/// real scaling regression — the event path costing as much as dense
/// ticking — without flaking on shared-runner timing noise.
const SMOKE_WALL_RATIO_MAX: f64 = 0.8;

/// The full sparsity sweep (fraction of *silent* input pixels).
const SWEEP: [f64; 5] = [0.90, 0.925, 0.95, 0.975, 0.99];

/// Sweep points to run, evenly selected from [`SWEEP`] (2 keeps the
/// endpoints — the CI smoke configuration).
fn sweep_points() -> Vec<f64> {
    let n: usize = std::env::var("NEBULA_SPARSITY_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| (2..=SWEEP.len()).contains(&n))
        .unwrap_or(SWEEP.len());
    (0..n)
        .map(|i| SWEEP[i * (SWEEP.len() - 1) / (n - 1)])
        .collect()
}

struct Point {
    timesteps: usize,
    sparsity: f64,
    /// Fraction of input pixels active (exactly `1 − sparsity` by the
    /// event generator's contract).
    activity: f64,
    dense_baseline: bool,
    sequential_ms: f64,
    event_ms: f64,
    ann_ms: f64,
    snn_energy_j: f64,
    ann_energy_j: f64,
    /// Both fast legs bitwise identical to their references: outputs,
    /// waves and read energy.
    identical: bool,
    wall_ratio_vs_dense: f64,
}

/// Linear interpolation of the sparsity where the SNN and ANN energy
/// curves cross, from the per-point energy gaps; `None` when the sign
/// never flips inside the sweep.
fn crossover(points: &[&Point]) -> Option<f64> {
    for pair in points.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let (ga, gb) = (
            a.snn_energy_j - a.ann_energy_j,
            b.snn_energy_j - b.ann_energy_j,
        );
        if ga == 0.0 {
            return Some(a.sparsity);
        }
        if ga.signum() != gb.signum() {
            let t = ga / (ga - gb);
            return Some(a.sparsity + t * (b.sparsity - a.sparsity));
        }
    }
    None
}

fn main() {
    let samples = sample_count("NEBULA_SPARSITY_SAMPLES", 4);
    let sweep = sweep_points();
    let workers = nebula_tensor::pool::size();
    let t = trained(Workload::Vgg10, 500, 20);
    let q = quantize_network(&t.net, &t.train.take(64), &QuantConfig::default()).unwrap();
    let snn = ann_to_snn(&q, &t.train.take(64), &ConversionConfig::default()).unwrap();
    let snn_master = {
        let mut m = compile_snn_default(&snn).unwrap();
        // Constant encoding: the input spike set per timestep is exactly
        // the event pixels (> 0.5), so activity is deterministic and
        // precisely the configured density — no Poisson smearing.
        m.set_encoding(InputEncoding::Constant);
        m
    };
    let ann_master = compile_ann(&q).unwrap();

    let mut points: Vec<Point> = Vec::new();
    for &timesteps in &[150usize, 300] {
        let mut dense_event_ms = f64::NAN;
        for (i, &sparsity) in std::iter::once(&0.0).chain(sweep.iter()).enumerate() {
            let dense_baseline = i == 0;
            let cfg = EventStreamConfig::dvs(16, 10, samples, sparsity);
            let x = generate_events(&cfg).unwrap().inputs;

            // --- SNN: sequential reference, event-driven engine ------
            let mut seq = snn_master.clone();
            let mut event = snn_master.clone();
            let mut r_seq = ChaCha8Rng::seed_from_u64(7);
            let mut r_event = ChaCha8Rng::seed_from_u64(7);
            let tm = Instant::now();
            let ys = seq.run_sequential(&x, timesteps, &mut r_seq).unwrap();
            let sequential_ms = ms(tm);
            let tm = Instant::now();
            let ye = event.run(&x, timesteps, &mut r_event).unwrap();
            let event_ms = ms(tm);
            let event_identical = bits_equal(&ye, &ys)
                && event.read_energy().0.to_bits() == seq.read_energy().0.to_bits()
                && event.waves() == seq.waves();

            // --- ANN baseline on the same frames ----------------------
            let mut ann = ann_master.clone();
            let mut ann_seq = ann_master.clone();
            let tm = Instant::now();
            let ya = ann.forward(&x).unwrap();
            let ann_ms = ms(tm);
            let yas = ann_seq.forward_sequential(&x).unwrap();
            let ann_identical = bits_equal(&ya, &yas)
                && ann.read_energy().0.to_bits() == ann_seq.read_energy().0.to_bits()
                && ann.waves() == ann_seq.waves();

            if dense_baseline {
                dense_event_ms = event_ms;
            }
            points.push(Point {
                timesteps,
                sparsity,
                activity: 1.0 - sparsity,
                dense_baseline,
                sequential_ms,
                event_ms,
                ann_ms,
                snn_energy_j: event.read_energy().0,
                ann_energy_j: ann.read_energy().0,
                identical: event_identical && ann_identical,
                wall_ratio_vs_dense: event_ms / dense_event_ms.max(1e-9),
            });
        }
    }

    let all_identical = points.iter().all(|p| p.identical);
    let sparsest = *sweep.last().unwrap();
    let snn300_ratio = points
        .iter()
        .find(|p| p.timesteps == 300 && p.sparsity == sparsest)
        .map(|p| p.wall_ratio_vs_dense)
        .unwrap_or(f64::NAN);

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"nebula-bench-sparsity/2\",\n");
    json.push_str("  \"workload\": \"VGG/10 on DVS event streams\",\n");
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!(
        "  \"sweep\": [{}],\n",
        sweep
            .iter()
            .map(|s| format!("{s}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"timesteps\": {}, \"sparsity\": {}, \"activity\": {}, \"dense_baseline\": {}, \"sequential_ms\": {:.3}, \"event_ms\": {:.3}, \"ann_ms\": {:.3}, \"snn_energy_j\": {:.6e}, \"ann_energy_j\": {:.6e}, \"snn_over_ann_energy\": {:.4}, \"wall_ratio_vs_dense\": {:.4}, \"identical\": {}}}{}\n",
            p.timesteps,
            p.sparsity,
            p.activity,
            p.dense_baseline,
            p.sequential_ms,
            p.event_ms,
            p.ann_ms,
            p.snn_energy_j,
            p.ann_energy_j,
            p.snn_energy_j / p.ann_energy_j.max(1e-300),
            p.wall_ratio_vs_dense,
            p.identical,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"crossover\": [\n");
    for (i, &timesteps) in [150usize, 300].iter().enumerate() {
        let swept: Vec<&Point> = points
            .iter()
            .filter(|p| p.timesteps == timesteps && !p.dense_baseline)
            .collect();
        let x = crossover(&swept);
        json.push_str(&format!(
            "    {{\"timesteps\": {}, \"sparsity\": {}}}{}\n",
            timesteps,
            x.map_or("null".into(), |v| format!("{v:.4}")),
            if i == 0 { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let full_config = samples >= 4 && sweep.len() == SWEEP.len();
    let wall_ratio_max = if full_config {
        SPARSE_WALL_RATIO_MAX
    } else {
        SMOKE_WALL_RATIO_MAX
    };
    json.push_str(&format!(
        "  \"summary\": {{\"identical\": {}, \"snn300_sparsest_wall_ratio\": {:.4}, \"wall_ratio_max\": {}}}\n",
        all_identical, snn300_ratio, wall_ratio_max
    ));
    json.push_str("}\n");

    let path = if std::path::Path::new("results").is_dir() {
        "results/BENCH_sparsity.json"
    } else {
        "BENCH_sparsity.json"
    };
    std::fs::write(path, &json).expect("write BENCH_sparsity.json");

    println!("BENCH sparsity (VGG/10 events, {samples} samples), written to {path}\n");
    for p in &points {
        println!(
            "  snn@{:<3} sparsity {:>5.3}{}  seq {:>8.1} ms   event {:>8.1} ms   ann {:>7.1} ms   snn/ann energy {:>8.3}   wall/dense {:>6.3}   identical: {}",
            p.timesteps,
            p.sparsity,
            if p.dense_baseline { "*" } else { " " },
            p.sequential_ms,
            p.event_ms,
            p.ann_ms,
            p.snn_energy_j / p.ann_energy_j.max(1e-300),
            p.wall_ratio_vs_dense,
            p.identical,
        );
    }
    println!("\n  (* = dense-tick baseline)  snn@300 wall ratio at sparsity {sparsest}: {snn300_ratio:.3} (bar {wall_ratio_max})");

    assert!(
        all_identical,
        "event-driven path diverged from the reference"
    );
    assert!(
        snn300_ratio <= wall_ratio_max,
        "SNN@300 at {sparsest} sparsity ran at {snn300_ratio:.3}× dense — event-driven skipping is not paying"
    );
}
