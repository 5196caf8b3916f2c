//! Analog-fidelity integration tests: the circuit-level crossbar must
//! reproduce software arithmetic within quantization error, end to end
//! through the device models. Physics is checked on the per-cell oracle
//! (`dot_reference`) and on the split-phase seam the engines drive,
//! which must match the oracle bit for bit.

use nebula::crossbar::{
    kernels_per_supertile, nu_level_for, AtomicCrossbar, CrossbarConfig, Mode, NeuronUnit, NuLevel,
    SuperTile,
};
use nebula::device::params::DeviceParams;
use nebula::device::units::Amps;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0xF1DE)
}

/// One drive through the split-phase seam (prepare, evaluate, accrue),
/// checked bitwise against the per-cell oracle on a clone.
fn seam_dot(st: &mut SuperTile, inputs: &[f64]) -> Vec<Amps> {
    let expect = st.clone().dot_reference(inputs).unwrap();
    st.prepare();
    let mut out = vec![Amps::ZERO; st.kernels()];
    let mut currents = vec![0.0; st.chunk_count()];
    let mut scratch = vec![0.0; st.scratch_cols()];
    st.eval_dense_prepared(inputs, &mut out, &mut currents, &mut scratch);
    st.accrue_batch(&[&currents]);
    assert_eq!(out, expect, "seam must match the oracle bitwise");
    out
}

/// Quantizes a weight the way the crossbar will (16 levels over
/// [-clip, clip]) so the comparison isolates analog errors.
fn grid(w: f64, clip: f64, levels: usize) -> f64 {
    let step = 2.0 * clip / (levels - 1) as f64;
    ((w.clamp(-clip, clip) + clip) / step).round() * step - clip
}

#[test]
fn full_crossbar_matches_quantized_matmul() {
    let mut r = rng();
    let mut xbar = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
    let (rows, cols) = (128, 128);
    let weights: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| r.gen_range(-1.0..1.0)).collect())
        .collect();
    let inputs: Vec<f64> = (0..rows).map(|_| r.gen_range(0.0..1.0)).collect();
    xbar.program(&weights, 1.0).unwrap();
    let unit = xbar.unit_current().0;
    let out = xbar.dot_reference(&inputs).unwrap();
    // A one-AC super-tile holding the same block computes the same bits
    // through the seam.
    let mut st = SuperTile::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
    st.program(&weights, 1.0).unwrap();
    assert_eq!(seam_dot(&mut st, &inputs), out);
    for j in (0..cols).step_by(17) {
        let exact: f64 = (0..rows)
            .map(|i| inputs[i] * grid(weights[i][j], 1.0, 16))
            .sum();
        let analog = out[j].0 / unit;
        assert!(
            (analog - exact).abs() < 1e-6 * exact.abs().max(1.0) + 1e-6,
            "col {j}: analog {analog} vs quantized-exact {exact}"
        );
    }
}

#[test]
fn supertile_hierarchy_matches_across_levels() {
    let mut r = rng();
    for rf in [100usize, 300, 900, 2000] {
        let expected_level = nu_level_for(rf, 128).unwrap();
        let mut st = SuperTile::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
        let weights: Vec<Vec<f64>> = (0..rf)
            .map(|_| vec![grid(r.gen_range(-1.0..1.0), 1.0, 16)])
            .collect();
        let level = st.program(&weights, 1.0).unwrap();
        assert_eq!(level, expected_level, "wrong NU level for R_f={rf}");
        let inputs: Vec<f64> = (0..rf).map(|_| r.gen_range(0.0..1.0)).collect();
        let exact: f64 = inputs.iter().zip(&weights).map(|(x, w)| x * w[0]).sum();
        let out = seam_dot(&mut st, &inputs);
        let analog = out[0].0 / st.unit_current().0;
        assert!(
            (analog - exact).abs() < exact.abs().max(1.0) * 1e-6 + 1e-6,
            "R_f={rf}: analog {analog} vs exact {exact}"
        );
    }
}

#[test]
fn snn_crossbar_drives_if_neurons_at_the_right_rate() {
    // A column summing `k` unit weights driven by always-on spikes must
    // make an IF neuron with threshold `n*k` fire every n timesteps.
    let mut st = SuperTile::new(CrossbarConfig::paper_default(Mode::Snn)).unwrap();
    let k = 40usize;
    st.program(&vec![vec![1.0]; k], 1.0).unwrap();
    let params = DeviceParams::default();
    let n = 3.0;
    let mut nu = NeuronUnit::new_spiking(1, n * k as f64, &params).unwrap();
    let mut fires = 0usize;
    let steps = 30usize;
    for _ in 0..steps {
        let out = seam_dot(&mut st, &vec![1.0; k]);
        let value = out[0].0 / st.unit_current().0;
        if nu.process(&[value]).unwrap()[0] > 0.0 {
            fires += 1;
        }
    }
    assert_eq!(
        fires,
        steps / n as usize,
        "expected one spike every {n} steps"
    );
}

#[test]
fn capacity_model_is_self_consistent() {
    // kernels_per_supertile must agree with what program() accepts.
    let m = 128;
    for rf in [64usize, 200, 1000, 2048] {
        let capacity = kernels_per_supertile(rf, m);
        assert!(capacity > 0);
        // One column always fits.
        let mut st = SuperTile::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
        assert!(st.program(&vec![vec![0.5]; rf], 1.0).is_ok());
    }
    assert_eq!(kernels_per_supertile(2049, m), 0);
    assert_eq!(nu_level_for(2049, m), None);
    assert_eq!(nu_level_for(64, m), Some(NuLevel::H0));
}

#[test]
fn event_driven_energy_is_zero_for_silent_inputs() {
    let mut st = SuperTile::new(CrossbarConfig::paper_default(Mode::Snn)).unwrap();
    st.program(&vec![vec![1.0]; 256], 1.0).unwrap();
    let before = st.accumulated_read_energy();
    for _ in 0..10 {
        seam_dot(&mut st, &vec![0.0; 256]);
        st.dot_reference(&vec![0.0; 256]).unwrap();
    }
    assert_eq!(
        st.accumulated_read_energy(),
        before,
        "silent timesteps must be free"
    );
}
