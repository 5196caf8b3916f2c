//! Performance sweep: sequential vs parallel wall-clock for the full
//! benchmark-suite evaluation and the VGG-13-scale tensor kernels.
//!
//! Writes `results/BENCH_sweep.json` (schema documented in
//! `EXPERIMENTS.md`) and prints a human-readable summary. Every parallel
//! leg is checked for exact equality with its sequential twin before the
//! timing is reported.

use std::time::Instant;

use nebula_bench::measure::{json_escape, ms};
use nebula_core::energy::EnergyModel;
use nebula_core::engine::{evaluate_suite, par_evaluate_suite_with_workers, SuiteJob, SuiteMode};
use nebula_tensor::conv::{self, ConvGeometry};
use nebula_tensor::{par, Tensor};
use nebula_workloads::zoo;

/// Deterministic pseudo-random tensor (xorshift64*), with exact zeros so
/// the sparsity skip is exercised the way spike trains would.
fn noise_tensor(shape: &[usize], seed: u64) -> Tensor {
    let len: usize = shape.iter().product();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let data: Vec<f32> = (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            if bits.is_multiple_of(5) {
                0.0
            } else {
                ((bits >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            }
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

struct Leg {
    name: String,
    detail: String,
    sequential_ms: f64,
    parallel_ms: f64,
    identical: bool,
}

impl Leg {
    fn speedup(&self) -> f64 {
        self.sequential_ms / self.parallel_ms.max(1e-9)
    }
}

/// The full suite — every zoo model in ANN, SNN@300 and (where the
/// topology allows a split) Hyb-1@100 — repeated enough times to be
/// reliably measurable.
fn suite_leg(workers: usize) -> Leg {
    let model = EnergyModel::default();
    let base_jobs: Vec<SuiteJob> = zoo::all_models()
        .into_iter()
        .flat_map(|(name, ds)| {
            let mut jobs = vec![
                SuiteJob::new(name, ds.clone(), SuiteMode::Ann),
                SuiteJob::new(name, ds.clone(), SuiteMode::Snn { timesteps: 300 }),
            ];
            if ds.len() > 1 {
                jobs.push(SuiteJob::new(
                    name,
                    ds,
                    SuiteMode::Hybrid {
                        ann_layers: 1,
                        timesteps: 100,
                    },
                ));
            }
            jobs
        })
        .collect();
    // Calibrate repetitions so the sequential leg runs long enough to
    // dwarf thread-spawn overhead and timer noise.
    let t = Instant::now();
    let _ = evaluate_suite(&model, &base_jobs);
    let single_ms = ms(t).max(1e-3);
    let reps = ((1500.0 / single_ms).ceil() as usize).clamp(2, 2000);
    let jobs: Vec<SuiteJob> = (0..reps).flat_map(|_| base_jobs.iter().cloned()).collect();

    let t = Instant::now();
    let seq = evaluate_suite(&model, &jobs);
    let sequential_ms = ms(t);
    let t = Instant::now();
    let par = par_evaluate_suite_with_workers(&model, &jobs, workers);
    let parallel_ms = ms(t);
    Leg {
        name: "suite".into(),
        detail: format!(
            "{} models x modes = {} jobs/rep x {reps} reps",
            zoo::all_models().len(),
            base_jobs.len()
        ),
        sequential_ms,
        parallel_ms,
        identical: seq == par,
    }
}

fn matmul_leg(workers: usize) -> Leg {
    let a = noise_tensor(&[2048, 512], 1);
    let b = noise_tensor(&[512, 512], 2);
    let t = Instant::now();
    let seq = a.matmul(&b).unwrap();
    let sequential_ms = ms(t);
    let t = Instant::now();
    let par = par::matmul_with_workers(&a, &b, workers).unwrap();
    let parallel_ms = ms(t);
    Leg {
        name: "matmul".into(),
        detail: "[2048x512] . [512x512]".into(),
        sequential_ms,
        parallel_ms,
        identical: seq.data() == par.data(),
    }
}

fn conv2d_leg(workers: usize) -> Leg {
    // VGG-13 conv3 scale: 8 CIFAR images, 64->128 channels at 32x32.
    let x = noise_tensor(&[8, 64, 32, 32], 3);
    let w = noise_tensor(&[128, 64, 3, 3], 4);
    let bias = noise_tensor(&[128], 5);
    let geom = ConvGeometry::same(3);
    let t = Instant::now();
    let seq = conv::conv2d(&x, &w, Some(&bias), geom).unwrap();
    let sequential_ms = ms(t);
    let t = Instant::now();
    let par = par::conv2d_with_workers(&x, &w, Some(&bias), geom, workers).unwrap();
    let parallel_ms = ms(t);
    Leg {
        name: "conv2d".into(),
        detail: "[8x64x32x32] * [128x64x3x3] same-pad".into(),
        sequential_ms,
        parallel_ms,
        identical: seq.data() == par.data(),
    }
}

fn main() {
    let workers = nebula_tensor::pool::size();
    let legs = [suite_leg(workers), matmul_leg(workers), conv2d_leg(workers)];

    let total_seq: f64 = legs.iter().map(|l| l.sequential_ms).sum();
    let total_par: f64 = legs.iter().map(|l| l.parallel_ms).sum();
    let all_identical = legs.iter().all(|l| l.identical);

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"nebula-bench-sweep/1\",\n");
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str("  \"legs\": [\n");
    for (i, l) in legs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"sequential_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \"identical\": {}}}{}\n",
            json_escape(&l.name),
            json_escape(&l.detail),
            l.sequential_ms,
            l.parallel_ms,
            l.speedup(),
            l.identical,
            if i + 1 < legs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"total\": {{\"sequential_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \"identical\": {}}}\n",
        total_seq,
        total_par,
        total_seq / total_par.max(1e-9),
        all_identical
    ));
    json.push_str("}\n");

    let path = if std::path::Path::new("results").is_dir() {
        "results/BENCH_sweep.json"
    } else {
        "BENCH_sweep.json"
    };
    std::fs::write(path, &json).expect("write BENCH_sweep.json");

    println!("BENCH sweep ({workers} workers), written to {path}\n");
    for l in &legs {
        println!(
            "  {:<8} {:<42} seq {:>9.1} ms   par {:>9.1} ms   {:>5.2}x   identical: {}",
            l.name,
            l.detail,
            l.sequential_ms,
            l.parallel_ms,
            l.speedup(),
            l.identical
        );
    }
    println!(
        "\n  total: seq {total_seq:.1} ms, par {total_par:.1} ms, speedup {:.2}x",
        total_seq / total_par.max(1e-9)
    );
    assert!(all_identical, "parallel results must match sequential");
}
