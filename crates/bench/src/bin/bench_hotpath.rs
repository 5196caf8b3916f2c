//! Analog-eval hot path: vectorized and bit-packed quantized kernels vs
//! the scalar fast path vs the legacy per-sample per-cell reference on
//! the circuit-level executors.
//!
//! Times the quantized VGG/10 workload through
//! [`AnalogNetwork`](nebula_core::AnalogNetwork) (ANN) and
//! [`AnalogSpikingNetwork`](nebula_core::AnalogSpikingNetwork) at
//! 50/150/300 timesteps, running each
//! leg five times:
//!
//! * **sequential** — the uncached per-sample reference
//!   (`forward_sequential` / `run_sequential`);
//! * **fast** — the cached, batched, spike-sparse fast path pinned to
//!   [`KernelPath::Scalar`] (the per-cell loop, matching the pre-kernel
//!   fast path bit for bit, energy included);
//! * **kernels** — the same fast path on the default
//!   [`KernelPath::Vectorized`] column-lane GEMV kernels;
//! * **quantized** — [`KernelPath::Quantized`], the nibble-packed
//!   palette layout whose spike inner loop is a pure LUT gather-add;
//! * **auto** — [`KernelPath::Auto`], the production path: every
//!   drive, dense and spike, evaluates through the vectorized
//!   differential layout, the only layout it builds (inside the
//!   scatter-form spike evaluator the differential rows beat the
//!   quantized LUT).
//!
//! Differential outputs and wave counts must match bit for bit across
//! all five; scalar energy must equal the reference exactly; the
//! vectorized, quantized and auto legs share the per-row-sum energy
//! formulation (asserted bitwise equal to *each other*) and are checked
//! against a 1e-9 relative tolerance vs the reference (per-dot bound is
//! 1e-12 — see DESIGN.md "Kernel layer"). The quantized conductance
//! cache must also come in at ≤ 1/3 of the vectorized f64 differential
//! cache (auto holds exactly the vectorized cache). The binary aborts on
//! any divergence.
//!
//! Writes `results/BENCH_hotpath.json` (schema `nebula-bench-hotpath/4`,
//! documented in `EXPERIMENTS.md`). `NEBULA_HOTPATH_SAMPLES` overrides
//! the evaluated sample count (CI smoke runs use a reduced set).

use std::time::Instant;

use nebula_bench::setup::{trained, Workload};
use nebula_core::analog::compile_ann;
use nebula_core::analog_snn::compile_snn_default;
use nebula_crossbar::KernelPath;
use nebula_nn::convert::{ann_to_snn, ConversionConfig};
use nebula_nn::quant::{quantize_network, QuantConfig};
use nebula_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Accumulated-energy tolerance for the per-row-sum legs: each dot is
/// within 1e-12 relative of the reference, and the workload sums
/// millions of them, so the accumulated deviation stays far below this.
const ENERGY_RTOL: f64 = 1e-9;

/// Ceiling on quantized-vs-vectorized conductance-cache footprint (the
/// acceptance bar is "≤ ~1/3"; the packed layout actually lands near
/// 1/16 at crossbar widths).
const CACHE_RATIO_MAX: f64 = 1.0 / 3.0;

/// Evaluated sample count (the circuit-level SNN legs dominate the
/// wall clock, so this stays modest by default).
fn sample_count() -> usize {
    std::env::var("NEBULA_HOTPATH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(8)
}

struct Leg {
    name: String,
    detail: String,
    sequential_ms: f64,
    fast_ms: f64,
    kernels_ms: f64,
    quantized_ms: f64,
    auto_ms: f64,
    /// Outputs + waves bitwise identical across all five paths, scalar
    /// energy exactly equal to the reference, and quantized/auto energy
    /// bitwise equal to vectorized.
    identical: bool,
    /// |per-row-sum − reference| / |reference| on accumulated read
    /// energy (vectorized and quantized accrue identical bits).
    energy_rel_err: f64,
    /// Conductance-cache footprint of the two layouts, in bytes.
    cache_bytes_vectorized: usize,
    cache_bytes_quantized: usize,
}

impl Leg {
    /// Headline speedup: vectorized kernels vs the sequential reference.
    fn speedup(&self) -> f64 {
        self.sequential_ms / self.kernels_ms.max(1e-9)
    }

    /// Kernel-layer gain: vectorized kernels vs the scalar fast path.
    fn kernel_gain(&self) -> f64 {
        self.fast_ms / self.kernels_ms.max(1e-9)
    }

    /// Quantized-tier gain: nibble-packed LUT gather vs the vectorized
    /// kernels it competes with.
    fn quantized_gain(&self) -> f64 {
        self.kernels_ms / self.quantized_ms.max(1e-9)
    }

    /// Auto-dispatch gain: per-drive-shape dispatch vs the *better* of
    /// the two explicit layouts on this leg — ≥ ~1 everywhere means the
    /// heuristic never picks the losing inner loop.
    fn auto_gain(&self) -> f64 {
        self.kernels_ms.min(self.quantized_ms) / self.auto_ms.max(1e-9)
    }

    fn cache_ratio(&self) -> f64 {
        self.cache_bytes_quantized as f64 / (self.cache_bytes_vectorized as f64).max(1.0)
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn rel_err(value: f64, reference: f64) -> f64 {
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

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let samples = sample_count();
    let workers = nebula_tensor::pool::size();
    let t = trained(Workload::Vgg10, 500, 20);
    let q = quantize_network(&t.net, &t.train.take(64), &QuantConfig::default()).unwrap();
    let x = t.test.take(samples).inputs;

    let mut legs = Vec::new();

    // --- ANN: batched dot_batch fast path vs per-row reference ----------
    {
        let mut kernels = compile_ann(&q).unwrap();
        let mut slow = kernels.clone();
        let mut fast = kernels.clone();
        fast.set_kernel_path(KernelPath::Scalar);
        let mut quant = kernels.clone();
        quant.set_kernel_path(KernelPath::Quantized);
        let mut auto = kernels.clone();
        auto.set_kernel_path(KernelPath::Auto);
        let tm = Instant::now();
        let ys = slow.forward_sequential(&x).unwrap();
        let sequential_ms = ms(tm);
        let tm = Instant::now();
        let yf = fast.forward(&x).unwrap();
        let fast_ms = ms(tm);
        let tm = Instant::now();
        let yk = kernels.forward(&x).unwrap();
        let kernels_ms = ms(tm);
        let tm = Instant::now();
        let yq = quant.forward(&x).unwrap();
        let quantized_ms = ms(tm);
        let tm = Instant::now();
        let ya = auto.forward(&x).unwrap();
        let auto_ms = ms(tm);
        legs.push(Leg {
            name: "ann".into(),
            detail: format!("VGG/10 quantized, {samples} samples"),
            sequential_ms,
            fast_ms,
            kernels_ms,
            quantized_ms,
            auto_ms,
            identical: bits_equal(&yf, &ys)
                && bits_equal(&yk, &ys)
                && bits_equal(&yq, &ys)
                && bits_equal(&ya, &ys)
                && fast.read_energy() == slow.read_energy()
                && quant.read_energy() == kernels.read_energy()
                && auto.read_energy() == kernels.read_energy()
                && fast.waves() == slow.waves()
                && kernels.waves() == slow.waves()
                && quant.waves() == slow.waves()
                && auto.waves() == slow.waves(),
            energy_rel_err: rel_err(kernels.read_energy().0, slow.read_energy().0),
            cache_bytes_vectorized: kernels.conductance_cache_bytes(),
            cache_bytes_quantized: quant.conductance_cache_bytes(),
        });
    }

    // --- SNN: spike-sparse batched timesteps vs per-sample reference ----
    let snn = ann_to_snn(&q, &t.train.take(64), &ConversionConfig::default()).unwrap();
    for timesteps in [50usize, 150, 300] {
        let mut kernels = compile_snn_default(&snn).unwrap();
        let mut slow = kernels.clone();
        let mut fast = kernels.clone();
        fast.set_kernel_path(KernelPath::Scalar);
        let mut quant = kernels.clone();
        quant.set_kernel_path(KernelPath::Quantized);
        let mut auto = kernels.clone();
        auto.set_kernel_path(KernelPath::Auto);
        // Same seed on every leg: the Poisson encoder draws per timestep
        // for the whole batch, so RNG consumption is identical.
        let mut r_slow = ChaCha8Rng::seed_from_u64(7);
        let mut r_fast = ChaCha8Rng::seed_from_u64(7);
        let mut r_kern = ChaCha8Rng::seed_from_u64(7);
        let mut r_quant = ChaCha8Rng::seed_from_u64(7);
        let mut r_auto = ChaCha8Rng::seed_from_u64(7);
        let tm = Instant::now();
        let ys = slow.run_sequential(&x, timesteps, &mut r_slow).unwrap();
        let sequential_ms = ms(tm);
        let tm = Instant::now();
        let yf = fast.run(&x, timesteps, &mut r_fast).unwrap();
        let fast_ms = ms(tm);
        let tm = Instant::now();
        let yk = kernels.run(&x, timesteps, &mut r_kern).unwrap();
        let kernels_ms = ms(tm);
        let tm = Instant::now();
        let yq = quant.run(&x, timesteps, &mut r_quant).unwrap();
        let quantized_ms = ms(tm);
        let tm = Instant::now();
        let ya = auto.run(&x, timesteps, &mut r_auto).unwrap();
        let auto_ms = ms(tm);
        legs.push(Leg {
            name: format!("snn@{timesteps}"),
            detail: format!("VGG/10 spiking, {samples} samples, {timesteps} timesteps"),
            sequential_ms,
            fast_ms,
            kernels_ms,
            quantized_ms,
            auto_ms,
            identical: bits_equal(&yf, &ys)
                && bits_equal(&yk, &ys)
                && bits_equal(&yq, &ys)
                && bits_equal(&ya, &ys)
                && fast.read_energy() == slow.read_energy()
                && quant.read_energy() == kernels.read_energy()
                && auto.read_energy() == kernels.read_energy()
                && fast.waves() == slow.waves()
                && kernels.waves() == slow.waves()
                && quant.waves() == slow.waves()
                && auto.waves() == slow.waves(),
            energy_rel_err: rel_err(kernels.read_energy().0, slow.read_energy().0),
            cache_bytes_vectorized: kernels.conductance_cache_bytes(),
            cache_bytes_quantized: quant.conductance_cache_bytes(),
        });
    }

    let total_seq: f64 = legs.iter().map(|l| l.sequential_ms).sum();
    let total_fast: f64 = legs.iter().map(|l| l.fast_ms).sum();
    let total_kernels: f64 = legs.iter().map(|l| l.kernels_ms).sum();
    let total_quantized: f64 = legs.iter().map(|l| l.quantized_ms).sum();
    let total_auto: f64 = legs.iter().map(|l| l.auto_ms).sum();
    let all_identical = legs.iter().all(|l| l.identical);
    let max_energy_err = legs.iter().map(|l| l.energy_rel_err).fold(0.0, f64::max);
    let max_cache_ratio = legs.iter().map(Leg::cache_ratio).fold(0.0, f64::max);

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"nebula-bench-hotpath/4\",\n");
    json.push_str("  \"workload\": \"VGG/10\",\n");
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str("  \"legs\": [\n");
    for (i, l) in legs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"sequential_ms\": {:.3}, \"fast_ms\": {:.3}, \"kernels_ms\": {:.3}, \"quantized_ms\": {:.3}, \"auto_ms\": {:.3}, \"speedup\": {:.3}, \"kernel_gain\": {:.3}, \"quantized_gain\": {:.3}, \"auto_gain\": {:.3}, \"identical\": {}, \"energy_rel_err\": {:.3e}, \"cache_bytes_vectorized\": {}, \"cache_bytes_quantized\": {}, \"cache_ratio\": {:.4}}}{}\n",
            json_escape(&l.name),
            json_escape(&l.detail),
            l.sequential_ms,
            l.fast_ms,
            l.kernels_ms,
            l.quantized_ms,
            l.auto_ms,
            l.speedup(),
            l.kernel_gain(),
            l.quantized_gain(),
            l.auto_gain(),
            l.identical,
            l.energy_rel_err,
            l.cache_bytes_vectorized,
            l.cache_bytes_quantized,
            l.cache_ratio(),
            if i + 1 < legs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"total\": {{\"sequential_ms\": {:.3}, \"fast_ms\": {:.3}, \"kernels_ms\": {:.3}, \"quantized_ms\": {:.3}, \"auto_ms\": {:.3}, \"speedup\": {:.3}, \"kernel_gain\": {:.3}, \"quantized_gain\": {:.3}, \"auto_gain\": {:.3}, \"identical\": {}, \"max_energy_rel_err\": {:.3e}, \"max_cache_ratio\": {:.4}}}\n",
        total_seq,
        total_fast,
        total_kernels,
        total_quantized,
        total_auto,
        total_seq / total_kernels.max(1e-9),
        total_fast / total_kernels.max(1e-9),
        total_kernels / total_quantized.max(1e-9),
        total_kernels.min(total_quantized) / total_auto.max(1e-9),
        all_identical,
        max_energy_err,
        max_cache_ratio
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
            "  {:<8} {:<44} seq {:>9.1} ms   fast {:>9.1} ms   kernels {:>9.1} ms   quant {:>9.1} ms   auto {:>9.1} ms   {:>5.2}x (gain {:>4.2}x, qgain {:>4.2}x, again {:>4.2}x)   identical: {}   energy err {:.1e}   cache {:.3}",
            l.name,
            l.detail,
            l.sequential_ms,
            l.fast_ms,
            l.kernels_ms,
            l.quantized_ms,
            l.auto_ms,
            l.speedup(),
            l.kernel_gain(),
            l.quantized_gain(),
            l.auto_gain(),
            l.identical,
            l.energy_rel_err,
            l.cache_ratio()
        );
    }
    println!(
        "\n  total: seq {total_seq:.1} ms, fast {total_fast:.1} ms, kernels {total_kernels:.1} ms, quantized {total_quantized:.1} ms, auto {total_auto:.1} ms, speedup {:.2}x, kernel gain {:.2}x, quantized gain {:.2}x, auto gain {:.2}x",
        total_seq / total_kernels.max(1e-9),
        total_fast / total_kernels.max(1e-9),
        total_kernels / total_quantized.max(1e-9),
        total_kernels.min(total_quantized) / total_auto.max(1e-9)
    );
    assert!(all_identical, "fast path diverged from the reference");
    assert!(
        max_energy_err <= ENERGY_RTOL,
        "per-row-sum energy deviated {max_energy_err:.3e} > {ENERGY_RTOL:.0e} relative"
    );
    assert!(
        max_cache_ratio <= CACHE_RATIO_MAX,
        "quantized cache ratio {max_cache_ratio:.3} exceeds {CACHE_RATIO_MAX:.3}"
    );
}
