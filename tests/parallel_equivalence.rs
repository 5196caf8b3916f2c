//! Tier-1 guarantee: every parallel path in the stack is bit-identical
//! to its sequential twin — tensor kernels, the crossbar seam's batched
//! evaluation, and the engine suite — regardless of worker count.

use nebula::core::energy::EnergyModel;
use nebula::core::engine::{evaluate_suite, par_evaluate_suite_with_workers, SuiteJob, SuiteMode};
use nebula::crossbar::config::{CrossbarConfig, Mode};
use nebula::crossbar::tile::SuperTile;
use nebula::crossbar::KernelPath;
use nebula::device::units::Amps;
use nebula::tensor::{conv, par, ConvGeometry, Tensor};
use nebula::workloads::zoo;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_tensor(shape: &[usize], rng: &mut ChaCha8Rng) -> Tensor {
    let len: usize = shape.iter().product();
    let data: Vec<f32> = (0..len)
        .map(|_| {
            if rng.gen_bool(0.2) {
                0.0 // exact zeros exercise the spike-sparsity skip
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

#[test]
fn par_matmul_and_conv_match_sequential_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let a = random_tensor(&[61, 47], &mut rng);
    let b = random_tensor(&[47, 31], &mut rng);
    let seq = a.matmul(&b).unwrap();
    for workers in [1, 2, 4, 9] {
        let p = par::matmul_with_workers(&a, &b, workers).unwrap();
        assert_eq!(p.data(), seq.data(), "matmul workers={workers}");
    }

    let x = random_tensor(&[2, 3, 11, 9], &mut rng);
    let w = random_tensor(&[5, 3, 3, 3], &mut rng);
    let bias = random_tensor(&[5], &mut rng);
    for geom in [ConvGeometry::same(3), ConvGeometry::new(3, 2, 0)] {
        let seq = conv::conv2d(&x, &w, Some(&bias), geom).unwrap();
        for workers in [1, 3, 8] {
            let p = par::conv2d_with_workers(&x, &w, Some(&bias), geom, workers).unwrap();
            assert_eq!(p.data(), seq.data(), "conv2d workers={workers} {geom:?}");
        }
    }
}

#[test]
fn supertile_seam_batch_matches_sequential_oracle_exactly() {
    let mut cfg = CrossbarConfig::paper_default(Mode::Snn);
    cfg.m = 8;
    let mut st = SuperTile::new(cfg).unwrap();
    let rf = 30; // spans 4 ACs
    st.program(&vec![vec![0.75, -0.25, 0.5]; rf], 1.0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let batch: Vec<Vec<f64>> = (0..6)
        .map(|_| {
            (0..rf)
                .map(|_| if rng.gen_bool(0.4) { 1.0 } else { 0.0 })
                .collect()
        })
        .collect();
    let mut seq = st.clone();
    let expected: Vec<_> = batch
        .iter()
        .map(|b| seq.dot_reference(b).unwrap())
        .collect();
    // The seam evaluates items through `&self`, so workers share one
    // prepared tile; each item's AC currents are accrued afterwards in
    // item order. On the Scalar path that reproduces the oracle's energy
    // bits; Auto re-associates it per row (≤ 1e-9 relative).
    for path in [KernelPath::Scalar, KernelPath::Auto] {
        st.set_kernel_path(path);
        st.prepare();
        for workers in [1, 2, 4] {
            let chunk = batch.len().div_ceil(workers);
            let mut got = vec![(Vec::new(), Vec::new()); batch.len()];
            let tile = &st;
            std::thread::scope(|s| {
                for (items, slots) in batch.chunks(chunk).zip(got.chunks_mut(chunk)) {
                    s.spawn(move || {
                        let mut scratch = vec![0.0; tile.scratch_cols()];
                        for (x, slot) in items.iter().zip(slots) {
                            let mut out = vec![Amps::ZERO; tile.kernels()];
                            let mut currents = vec![0.0; tile.chunk_count()];
                            tile.eval_dense_prepared(x, &mut out, &mut currents, &mut scratch);
                            *slot = (out, currents);
                        }
                    });
                }
            });
            let outputs: Vec<_> = got.iter().map(|(out, _)| out.clone()).collect();
            assert_eq!(outputs, expected, "{path:?} workers={workers}");
            let mut accrued = st.clone();
            let per_item: Vec<&[f64]> = got.iter().map(|(_, c)| c.as_slice()).collect();
            accrued.accrue_batch(&per_item);
            let (e, e_ref) = (
                accrued.accumulated_read_energy().0,
                seq.accumulated_read_energy().0,
            );
            match path {
                KernelPath::Scalar => assert_eq!(e.to_bits(), e_ref.to_bits()),
                KernelPath::Auto => assert!((e - e_ref).abs() <= 1e-9 * e_ref, "{e} vs {e_ref}"),
            }
        }
    }
}

#[test]
fn par_suite_matches_sequential_suite_exactly() {
    let model = EnergyModel::default();
    let jobs: Vec<SuiteJob> = zoo::all_models()
        .into_iter()
        .take(3)
        .flat_map(|(name, ds)| {
            [
                SuiteJob::new(name, ds.clone(), SuiteMode::Ann),
                SuiteJob::new(name, ds, SuiteMode::Snn { timesteps: 100 }),
            ]
        })
        .collect();
    let seq = evaluate_suite(&model, &jobs);
    for workers in [1, 2, 5] {
        let par = par_evaluate_suite_with_workers(&model, &jobs, workers);
        assert_eq!(par, seq, "suite workers={workers}");
    }
}
