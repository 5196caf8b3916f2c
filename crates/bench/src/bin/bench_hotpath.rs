//! Analog-eval hot path: the production [`KernelPath::Auto`] kernels vs
//! the scalar fast path vs the legacy per-sample per-cell reference on
//! the circuit-level executors.
//!
//! Times the quantized VGG/10 workload through
//! [`AnalogNetwork`](nebula_core::AnalogNetwork) (ANN) and
//! [`AnalogSpikingNetwork`](nebula_core::AnalogSpikingNetwork) at
//! 50/150/300 timesteps, running three legs once each:
//!
//! * **sequential** — the uncached per-sample reference
//!   (`forward_sequential` / `run_sequential`);
//! * **fast** — the cached, batched, spike-sparse fast path pinned to
//!   [`KernelPath::Scalar`] (the per-cell loop, matching the pre-kernel
//!   fast path bit for bit, energy included);
//! * **auto** — the same fast path on [`KernelPath::Auto`], the
//!   production path: every drive, dense and spike, evaluates through
//!   the differential column-lane layout.
//!
//! Differential outputs and wave counts must match bit for bit across
//! all three; scalar energy must equal the reference exactly; the auto
//! leg's per-row-sum energy is checked against a 1e-9 relative tolerance
//! vs the reference (per-dot bound is 1e-12 — see DESIGN.md "Kernel
//! layer"). The binary aborts on any divergence. The Auto leg's
//! conductance-cache footprint is reported as `cache_bytes`.
//!
//! Writes `results/BENCH_hotpath.json` (schema `nebula-bench-hotpath/5`,
//! documented in `EXPERIMENTS.md`). `NEBULA_HOTPATH_SAMPLES` overrides
//! the evaluated sample count (CI smoke runs use a reduced set).

use std::time::Instant;

use nebula_bench::measure::{bits_equal, json_escape, ms, rel_err, sample_count};
use nebula_bench::setup::{trained, Workload};
use nebula_core::analog::compile_ann;
use nebula_core::analog_snn::compile_snn_default;
use nebula_crossbar::KernelPath;
use nebula_nn::convert::{ann_to_snn, ConversionConfig};
use nebula_nn::quant::{quantize_network, QuantConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Accumulated-energy tolerance for the per-row-sum legs: each dot is
/// within 1e-12 relative of the reference, and the workload sums
/// millions of them, so the accumulated deviation stays far below this.
const ENERGY_RTOL: f64 = 1e-9;

struct Leg {
    name: String,
    detail: String,
    sequential_ms: f64,
    fast_ms: f64,
    auto_ms: f64,
    /// Outputs + waves bitwise identical across all three legs, and
    /// scalar energy exactly equal to the reference.
    identical: bool,
    /// |auto − reference| / |reference| on accumulated read energy.
    energy_rel_err: f64,
    /// Conductance-cache footprint of the Auto layout, in bytes.
    cache_bytes: usize,
}

impl Leg {
    /// Headline speedup: Auto kernels vs the sequential reference.
    fn speedup(&self) -> f64 {
        self.sequential_ms / self.auto_ms.max(1e-9)
    }

    /// Kernel-layer gain: Auto kernels vs the scalar fast path.
    fn kernel_gain(&self) -> f64 {
        self.fast_ms / self.auto_ms.max(1e-9)
    }
}

fn main() {
    // The circuit-level SNN legs dominate the wall clock, so the default
    // sample count stays modest.
    let samples = sample_count("NEBULA_HOTPATH_SAMPLES", 8);
    let workers = nebula_tensor::pool::size();
    let t = trained(Workload::Vgg10, 500, 20);
    let q = quantize_network(&t.net, &t.train.take(64), &QuantConfig::default()).unwrap();
    let x = t.test.take(samples).inputs;

    let mut legs = Vec::new();

    // --- ANN: batched dot_batch_with fast path vs per-row reference -----
    {
        let mut auto = compile_ann(&q).unwrap();
        let mut slow = auto.clone();
        let mut fast = auto.clone();
        fast.set_kernel_path(KernelPath::Scalar);
        let tm = Instant::now();
        let ys = slow.forward_sequential(&x).unwrap();
        let sequential_ms = ms(tm);
        let tm = Instant::now();
        let yf = fast.forward(&x).unwrap();
        let fast_ms = ms(tm);
        let tm = Instant::now();
        let ya = auto.forward(&x).unwrap();
        let auto_ms = ms(tm);
        legs.push(Leg {
            name: "ann".into(),
            detail: format!("VGG/10 quantized, {samples} samples"),
            sequential_ms,
            fast_ms,
            auto_ms,
            identical: bits_equal(&yf, &ys)
                && bits_equal(&ya, &ys)
                && fast.read_energy() == slow.read_energy()
                && fast.waves() == slow.waves()
                && auto.waves() == slow.waves(),
            energy_rel_err: rel_err(auto.read_energy().0, slow.read_energy().0),
            cache_bytes: auto.conductance_cache_bytes(),
        });
    }

    // --- SNN: spike-sparse batched timesteps vs per-sample reference ----
    let snn = ann_to_snn(&q, &t.train.take(64), &ConversionConfig::default()).unwrap();
    for timesteps in [50usize, 150, 300] {
        let mut auto = compile_snn_default(&snn).unwrap();
        let mut slow = auto.clone();
        let mut fast = auto.clone();
        fast.set_kernel_path(KernelPath::Scalar);
        // Same seed on every leg: the Poisson encoder draws per timestep
        // for the whole batch, so RNG consumption is identical.
        let mut r_slow = ChaCha8Rng::seed_from_u64(7);
        let mut r_fast = ChaCha8Rng::seed_from_u64(7);
        let mut r_auto = ChaCha8Rng::seed_from_u64(7);
        let tm = Instant::now();
        let ys = slow.run_sequential(&x, timesteps, &mut r_slow).unwrap();
        let sequential_ms = ms(tm);
        let tm = Instant::now();
        let yf = fast.run(&x, timesteps, &mut r_fast).unwrap();
        let fast_ms = ms(tm);
        let tm = Instant::now();
        let ya = auto.run(&x, timesteps, &mut r_auto).unwrap();
        let auto_ms = ms(tm);
        legs.push(Leg {
            name: format!("snn@{timesteps}"),
            detail: format!("VGG/10 spiking, {samples} samples, {timesteps} timesteps"),
            sequential_ms,
            fast_ms,
            auto_ms,
            identical: bits_equal(&yf, &ys)
                && bits_equal(&ya, &ys)
                && fast.read_energy() == slow.read_energy()
                && fast.waves() == slow.waves()
                && auto.waves() == slow.waves(),
            energy_rel_err: rel_err(auto.read_energy().0, slow.read_energy().0),
            cache_bytes: auto.conductance_cache_bytes(),
        });
    }

    let total_seq: f64 = legs.iter().map(|l| l.sequential_ms).sum();
    let total_fast: f64 = legs.iter().map(|l| l.fast_ms).sum();
    let total_auto: f64 = legs.iter().map(|l| l.auto_ms).sum();
    let all_identical = legs.iter().all(|l| l.identical);
    let max_energy_err = legs.iter().map(|l| l.energy_rel_err).fold(0.0, f64::max);

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"nebula-bench-hotpath/5\",\n");
    json.push_str("  \"workload\": \"VGG/10\",\n");
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str("  \"legs\": [\n");
    for (i, l) in legs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"sequential_ms\": {:.3}, \"fast_ms\": {:.3}, \"auto_ms\": {:.3}, \"speedup\": {:.3}, \"kernel_gain\": {:.3}, \"identical\": {}, \"energy_rel_err\": {:.3e}, \"cache_bytes\": {}}}{}\n",
            json_escape(&l.name),
            json_escape(&l.detail),
            l.sequential_ms,
            l.fast_ms,
            l.auto_ms,
            l.speedup(),
            l.kernel_gain(),
            l.identical,
            l.energy_rel_err,
            l.cache_bytes,
            if i + 1 < legs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"total\": {{\"sequential_ms\": {:.3}, \"fast_ms\": {:.3}, \"auto_ms\": {:.3}, \"speedup\": {:.3}, \"kernel_gain\": {:.3}, \"identical\": {}, \"max_energy_rel_err\": {:.3e}}}\n",
        total_seq,
        total_fast,
        total_auto,
        total_seq / total_auto.max(1e-9),
        total_fast / total_auto.max(1e-9),
        all_identical,
        max_energy_err
    ));
    json.push_str("}\n");

    let path = if std::path::Path::new("results").is_dir() {
        "results/BENCH_hotpath.json"
    } else {
        "BENCH_hotpath.json"
    };
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");

    println!("BENCH hotpath (VGG/10, {samples} samples), written to {path}\n");
    for l in &legs {
        println!(
            "  {:<8} {:<44} seq {:>9.1} ms   fast {:>9.1} ms   auto {:>9.1} ms   {:>5.2}x (gain {:>4.2}x)   identical: {}   energy err {:.1e}   cache {} B",
            l.name,
            l.detail,
            l.sequential_ms,
            l.fast_ms,
            l.auto_ms,
            l.speedup(),
            l.kernel_gain(),
            l.identical,
            l.energy_rel_err,
            l.cache_bytes
        );
    }
    println!(
        "\n  total: seq {total_seq:.1} ms, fast {total_fast:.1} ms, auto {total_auto:.1} ms, speedup {:.2}x, kernel gain {:.2}x",
        total_seq / total_auto.max(1e-9),
        total_fast / total_auto.max(1e-9)
    );
    assert!(all_identical, "fast path diverged from the reference");
    assert!(
        max_energy_err <= ENERGY_RTOL,
        "per-row-sum energy deviated {max_energy_err:.3e} > {ENERGY_RTOL:.0e} relative"
    );
}
