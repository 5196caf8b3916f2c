//! Criterion micro-benchmarks of the simulation kernels: analog crossbar
//! evaluation, convolution lowering, spiking simulation steps and the
//! whole-chip analytical energy evaluation.

use criterion::{black_box, criterion_group, criterion_main, Bencher, Criterion};
use nebula_core::energy::EnergyModel;
use nebula_core::engine::{evaluate_ann, evaluate_snn};
use nebula_core::mapper::map_network;
use nebula_crossbar::{CrossbarConfig, KernelPath, Mode, SuperTile};
use nebula_device::units::Amps;
use nebula_nn::layer::Layer;
use nebula_nn::snn::{IfPopulation, ResetMode};
use nebula_tensor::{conv2d, im2col, ConvGeometry, Tensor};
use nebula_workloads::zoo;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A super-tile holding `weights` on `path`, prepared for the seam.
fn prepared_tile(mode: Mode, weights: &[Vec<f64>], path: KernelPath) -> SuperTile {
    let mut st = SuperTile::new(CrossbarConfig::paper_default(mode)).unwrap();
    st.program(weights, 1.0).unwrap();
    st.set_kernel_path(path);
    st.prepare();
    st
}

/// Times one dense drive through the split-phase seam `nebula-core`
/// runs: evaluate against the prepared tile, then accrue the read
/// energy. The buffers are allocated once, outside the timed loop.
fn bench_seam_dense(b: &mut Bencher, st: &mut SuperTile, inputs: &[f64]) {
    let mut out = vec![Amps::ZERO; st.kernels()];
    let mut currents = vec![0.0; st.chunk_count()];
    let mut scratch = vec![0.0; st.scratch_cols()];
    b.iter(|| {
        st.eval_dense_prepared(black_box(inputs), &mut out, &mut currents, &mut scratch);
        st.accrue_batch(&[&currents]);
    });
}

fn bench_crossbar(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let kernel: Vec<Vec<f64>> = (0..2000).map(|_| vec![rng.gen_range(-1.0..1.0)]).collect();
    let mut st = prepared_tile(Mode::Snn, &kernel, KernelPath::Auto);
    let spikes: Vec<f64> = (0..2000)
        .map(|_| if rng.gen_bool(0.2) { 1.0 } else { 0.0 })
        .collect();
    c.bench_function("supertile_h2_rf2000", |b| {
        bench_seam_dense(b, &mut st, &spikes)
    });
}

fn bench_tensor(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let a = Tensor::rand_uniform(&[64, 256], -1.0, 1.0, &mut rng);
    let b_mat = Tensor::rand_uniform(&[256, 64], -1.0, 1.0, &mut rng);
    c.bench_function("matmul_64x256x64", |b| {
        b.iter(|| a.matmul(black_box(&b_mat)).unwrap())
    });

    let x = Tensor::rand_uniform(&[4, 8, 16, 16], 0.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[16, 8, 3, 3], -1.0, 1.0, &mut rng);
    let geom = ConvGeometry::same(3);
    c.bench_function("conv2d_4x8x16x16_k3", |b| {
        b.iter(|| conv2d(black_box(&x), &w, None, geom).unwrap())
    });
    c.bench_function("im2col_4x8x16x16_k3", |b| {
        b.iter(|| im2col(black_box(&x), geom).unwrap())
    });
}

fn bench_snn(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let input = Tensor::rand_uniform(&[16, 4096], 0.0, 0.3, &mut rng);
    let mut pop = IfPopulation::new(1.0, ResetMode::Subtract);
    c.bench_function("if_population_step_64k_neurons", |b| {
        b.iter(|| pop.step(black_box(&input)).unwrap())
    });

    let mut dense = Layer::dense(256, 128, &mut rng);
    let spikes =
        Tensor::rand_uniform(&[16, 256], 0.0, 1.0, &mut rng)
            .map(|v| if v < 0.2 { 1.0 } else { 0.0 });
    c.bench_function("sparse_dense_forward_16x256", |b| {
        b.iter(|| dense.forward(black_box(&spikes), false).unwrap())
    });
}

/// The two crossbar inner-loop kernels ([`KernelPath`]) head to head on
/// dense and spike-sparse GEMV, plus the register-tiled f32 GEMM against its
/// naive pinned reference at im2col shapes from the LeNet and VGG
/// workloads. Summarized in `EXPERIMENTS.md` ("Kernel microbenchmarks").
fn bench_kernel_paths(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let paths = [("auto", KernelPath::Auto), ("scalar", KernelPath::Scalar)];

    // Dense GEMV: full 128×128 differential array, analog input drive.
    let weights: Vec<Vec<f64>> = (0..128)
        .map(|_| (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let inputs: Vec<f64> = (0..128).map(|_| rng.gen_range(0.0..1.0)).collect();
    for (label, path) in paths {
        let mut st = prepared_tile(Mode::Ann, &weights, path);
        c.bench_function(&format!("gemv_dense_128x128_{label}"), |b| {
            bench_seam_dense(b, &mut st, &inputs)
        });
    }

    // Spike-sparse GEMV at 5 / 20 / 80 % row activity (SNN mode drives
    // active rows at full read voltage; silent rows are skipped): the
    // active rows are added through the tile's spike-row view.
    for activity in [5u32, 20, 80] {
        let active: Vec<usize> = (0..128)
            .filter(|_| rng.gen_bool(f64::from(activity) / 100.0))
            .collect();
        for (label, path) in paths {
            let st = prepared_tile(Mode::Snn, &weights, path);
            let rows = st.spike_rows(0).unwrap();
            let mut acc = vec![0.0; st.scratch_cols()];
            c.bench_function(
                &format!("gemv_sparse_128x128_act{activity:02}_{label}"),
                |b| {
                    b.iter(|| {
                        acc.fill(0.0);
                        rows.add_rows(black_box(&active), 0, &mut acc, 0.0)
                    })
                },
            );
        }
    }

    // Register-tiled f32 GEMM at im2col shapes: LeNet conv2 (24×24 patches of a
    // 6-channel 5×5 window onto 16 kernels) and the VGG/10 bench's
    // second conv (16×16 patches of a 16-channel 3×3 window onto 16
    // kernels), against the naive pinned reference.
    for (name, m, k, n) in [
        ("lenet_conv2", 576usize, 150usize, 16usize),
        ("vgg_conv2", 2048, 144, 16),
    ] {
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b_mat = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        c.bench_function(&format!("gemm_{name}_{m}x{k}x{n}_tiled"), |b| {
            b.iter(|| a.matmul(black_box(&b_mat)).unwrap())
        });
        c.bench_function(&format!("gemm_{name}_{m}x{k}x{n}_reference"), |b| {
            b.iter(|| nebula_tensor::gemm::matmul_reference(&a, black_box(&b_mat)).unwrap())
        });
        // Mostly-zero rows (spike-train matrices): near the threshold the
        // dense tiles still win — the skip branch only pays once rows are
        // nearly silent, as spiking im2col patches are (≥ 99 % zeros).
        for (tag, cut) in [("80pct_zero", 0.6f32), ("98pct_zero", 0.96)] {
            let sparse_a = a.map(|v| if v < cut { 0.0 } else { v });
            c.bench_function(&format!("gemm_{name}_{m}x{k}x{n}_{tag}"), |b| {
                b.iter(|| sparse_a.matmul(black_box(&b_mat)).unwrap())
            });
        }
    }
}

fn bench_architecture(c: &mut Criterion) {
    let model = EnergyModel::default();
    let vgg = zoo::vgg13(10);
    c.bench_function("map_network_vgg13", |b| {
        b.iter(|| map_network(black_box(&vgg)))
    });
    c.bench_function("evaluate_ann_vgg13", |b| {
        b.iter(|| evaluate_ann(&model, black_box(&vgg)))
    });
    c.bench_function("evaluate_snn_vgg13_t300", |b| {
        b.iter(|| evaluate_snn(&model, black_box(&vgg), 300))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_crossbar, bench_tensor, bench_snn, bench_kernel_paths, bench_architecture
}
criterion_main!(benches);
