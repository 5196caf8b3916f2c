//! Property-based equivalence of the event-driven SNN engine against
//! the sequential reference.
//!
//! The event-driven hot path ([`AnalogSpikingNetwork::run`]) skips
//! silent rows, silent spike items, zero-current AC accruals, silent
//! layers and fully-silent timesteps. These properties pin down the
//! contract that makes all that skipping legal: on arbitrary small
//! spiking networks — dense and convolutional, Poisson and Constant
//! encoded, with zero-activity timesteps and fully-silent samples in
//! range — outputs are **bitwise identical** to
//! [`AnalogSpikingNetwork::run_sequential`] on every [`KernelPath`],
//! wave counts match exactly, and read energy is bitwise identical on
//! the scalar path (reference formulation) and within 1e-9 relative on
//! the per-row-sum paths. The same holds after hard faults, retention
//! aging and AC kill switches mutate the arrays, because faults perturb
//! conductances, never the active-set bookkeeping.
//!
//! The convolution geometry sweep covers what the scatter-form spike
//! evaluator has to get right: strides, paddings and kernel sizes that
//! change which patches a spiking pixel reaches, receptive fields
//! spanning several ACs, two column groups, two R_f segments, and the
//! same layer split across two chips.

use nebula_core::analog::AnalogError;
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula_core::components::{M, MAX_RF_IN_CORE};
use nebula_core::multichip::{PipelineConfig, ShardedSpikingNetwork};
use nebula_crossbar::KernelPath;
use nebula_device::units::Seconds;
use nebula_device::{FaultClass, FaultModel};
use nebula_nn::layer::Layer;
use nebula_nn::snn::{IfPopulation, InputEncoding, ResetMode, SnnStage, SpikingNetwork};
use nebula_tensor::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Accumulated per-row-sum energy tolerance (1e-12 relative per dot).
const ENERGY_RTOL: f64 = 1e-9;

const PATHS: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Auto];

/// A dense two-stage spiking net: `input → IF → hidden → IF`.
fn dense_snn(input: usize, hidden: usize, out: usize, seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::dense(input, hidden, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::dense(hidden, out, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Zero)),
        ],
        InputEncoding::Poisson,
    );
    compile_snn_default(&snn).unwrap()
}

/// A conv + dense spiking net on `side×side` single-channel frames,
/// exercising the convolution event path.
fn conv_snn(side: usize, out: usize, seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::conv2d(1, 2, 3, 1, 1, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::flatten()),
            SnnStage::Synaptic(Layer::dense(2 * side * side, out, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
        ],
        InputEncoding::Poisson,
    );
    compile_snn_default(&snn).unwrap()
}

/// Runs `master` both ways with identically seeded RNGs and asserts the
/// full equivalence contract for `path`.
fn assert_equivalent(
    master: &AnalogSpikingNetwork,
    path: KernelPath,
    x: &Tensor,
    timesteps: usize,
    seed: u64,
) {
    let mut seq = master.clone();
    let mut fast = master.clone();
    fast.set_kernel_path(path);
    let mut r_seq = ChaCha8Rng::seed_from_u64(seed);
    let mut r_fast = ChaCha8Rng::seed_from_u64(seed);
    let ys = seq.run_sequential(x, timesteps, &mut r_seq).unwrap();
    let yf = fast.run(x, timesteps, &mut r_fast).unwrap();
    assert_eq!(ys.shape(), yf.shape());
    for (i, (a, b)) in ys.data().iter().zip(yf.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{path:?} element {i}: {a} vs {b}");
    }
    assert_eq!(seq.waves(), fast.waves(), "{path:?} wave counts");
    let (e_seq, e_fast) = (seq.read_energy().0, fast.read_energy().0);
    if path == KernelPath::Scalar {
        // Scalar kernels accrue the reference energy formulation: even
        // the joule counter must agree bit for bit.
        assert_eq!(e_seq.to_bits(), e_fast.to_bits());
    } else if e_seq == 0.0 {
        assert_eq!(e_fast, 0.0, "{path:?} energy from silent run");
    } else {
        assert!(
            ((e_fast - e_seq) / e_seq).abs() <= ENERGY_RTOL,
            "{path:?} energy {e_fast} vs {e_seq}"
        );
    }
}

/// Applies an activity mask: elements whose keep-draw clears the
/// density survive, the rest go exactly to `0.0`. `density_step` runs
/// 0..=4 so fully-silent (0) and fully-dense (4) samples are in range.
fn mask(raw: Vec<(f32, f64)>, density_step: usize) -> Vec<f32> {
    let density = density_step as f64 / 4.0;
    raw.into_iter()
        .map(|(v, keep)| if keep < density { v } else { 0.0 })
        .collect()
}

proptest! {
    /// Dense nets: every kernel path, both encodings, activity swept
    /// from fully silent to fully dense.
    #[test]
    fn dense_event_run_matches_sequential_bitwise(
        input in 2usize..10,
        hidden in 2usize..12,
        out in 2usize..5,
        samples in 1usize..4,
        timesteps in 1usize..10,
        constant in 0u8..2,
        raw in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 9 * 3),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = dense_snn(input, hidden, out, net_seed);
        if constant == 1 {
            master.set_encoding(InputEncoding::Constant);
        }
        let flat = mask(raw, density_step);
        let x = Tensor::from_vec(flat[..samples * input].to_vec(), &[samples, input]).unwrap();
        for path in PATHS {
            assert_equivalent(&master, path, &x, timesteps, run_seed);
        }
    }

    /// Fully-silent samples are an exact corner: zero inputs under
    /// Constant encoding mean *every* timestep skips all crossbar work,
    /// yet outputs (bias-driven IF dynamics included) and the zero
    /// energy counter must match the reference bitwise.
    #[test]
    fn fully_silent_samples_match_sequential_bitwise(
        input in 2usize..10,
        hidden in 2usize..12,
        timesteps in 1usize..12,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = dense_snn(input, hidden, 3, net_seed);
        master.set_encoding(InputEncoding::Constant);
        let x = Tensor::zeros(&[2, input]);
        for path in PATHS {
            assert_equivalent(&master, path, &x, timesteps, run_seed);
        }
    }

    /// Conv nets: the convolution event path against the sequential
    /// reference, silent planes included.
    #[test]
    fn conv_event_run_matches_sequential_bitwise(
        timesteps in 1usize..8,
        constant in 0u8..2,
        raw in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 2 * 6 * 6),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = conv_snn(6, 3, net_seed);
        if constant == 1 {
            master.set_encoding(InputEncoding::Constant);
        }
        let x = Tensor::from_vec(mask(raw, density_step), &[2, 1, 6, 6]).unwrap();
        for path in PATHS {
            assert_equivalent(&master, path, &x, timesteps, run_seed);
        }
    }

    /// Equivalence survives every conductance-mutating reliability
    /// event: sampled hard faults, retention aging and AC kill switches
    /// applied once to the shared master before both engines run.
    #[test]
    fn equivalence_holds_under_faults_aging_and_kill_switches(
        input in 2usize..10,
        hidden in 2usize..12,
        timesteps in 1usize..8,
        fault_kind in 0usize..5,
        fault_rate in 0.0f64..0.2,
        age_s in 0.0f64..1e7,
        killed_ac in 0usize..16,
        kill in 0u8..2,
        raw in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 9 * 3),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = dense_snn(input, hidden, 3, net_seed);
        let model = FaultModel::single(FaultClass::ALL[fault_kind], fault_rate);
        let mut fault_rng = ChaCha8Rng::seed_from_u64(net_seed ^ 0xFA17);
        master.inject_faults(&model, &mut fault_rng);
        master.advance_age(Seconds(age_s));
        if kill == 1 {
            // Power-gate one AC of one super-tile: its partial currents
            // read as zero on both engines.
            let tiles = master.supertile_count();
            master.kill_ac(net_seed as usize % tiles, killed_ac);
        }
        let flat = mask(raw, density_step);
        let x = Tensor::from_vec(flat[..2 * input].to_vec(), &[2, input]).unwrap();
        for path in PATHS {
            assert_equivalent(&master, path, &x, timesteps, run_seed);
        }
    }
}

/// A single-convolution spiking net: the run's output is the layer's
/// accumulated crossbar output plus bias, so every bit of the scatter's
/// per-patch result reaches the comparison.
fn single_conv_snn(
    c: usize,
    oc: usize,
    k: usize,
    stride: usize,
    pad: usize,
    seed: u64,
) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let snn = SpikingNetwork::new(
        vec![SnnStage::Synaptic(Layer::conv2d(
            c, oc, k, stride, pad, &mut r,
        ))],
        InputEncoding::Poisson,
    );
    compile_snn_default(&snn).unwrap()
}

/// Sampled hard faults that leave the 16-level grid (per-cell TMR
/// factors, retention drift), plus one power-gated AC.
fn wound(master: &mut AnalogSpikingNetwork, seed: u64, killed_ac: usize) {
    let model = FaultModel::single(FaultClass::TmrDegradation, 0.2)
        .with_class_rate(FaultClass::RetentionDrift, 0.2);
    let mut fault_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17);
    master.inject_faults(&model, &mut fault_rng);
    master.advance_age(Seconds(5e6));
    master.kill_ac(0, killed_ac);
}

/// Random spike-probability frames at `density_step / 4` activity.
fn frames(shape: &[usize], density_step: usize, seed: u64) -> Tensor {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    let raw: Vec<(f32, f64)> = (0..n)
        .map(|_| (r.gen_range(0.0..1.0), r.gen_range(0.0..1.0)))
        .collect();
    Tensor::from_vec(mask(raw, density_step), shape).unwrap()
}

proptest! {
    /// Convolution geometry sweep: stride {1, 2}, pad {0, 1, 2},
    /// kernel {1, 3, 5}, input channels whose receptive field spans 1–3
    /// ACs, spike density 0–100%, every kernel path, with and without
    /// faults and a killed AC — outputs and waves bitwise equal to the
    /// sequential reference, energy within the per-path contract.
    #[test]
    fn conv_geometry_matches_sequential_bitwise(
        stride in 1usize..3,
        pad in 0usize..3,
        k_step in 0usize..3,
        acs in 1usize..4,
        extra_ch in 0usize..3,
        oc in 1usize..5,
        side in 1usize..8,
        density_step in 0usize..5,
        timesteps in 1usize..4,
        faulty in 0u8..2,
        killed_ac in 0usize..3,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let k = [1, 3, 5][k_step];
        if side + 2 * pad < k {
            continue; // no output patch fits
        }
        // The fewest channels whose receptive field needs `acs` ACs.
        let c = ((acs - 1) * M / (k * k) + 1 + extra_ch).min(acs * M / (k * k));
        prop_assert_eq!((c * k * k).div_ceil(M), acs);
        let mut master = single_conv_snn(c, oc, k, stride, pad, net_seed);
        if faulty == 1 {
            wound(&mut master, net_seed, killed_ac % acs);
        }
        let x = frames(&[2, c, side, side], density_step, run_seed);
        for path in PATHS {
            assert_equivalent(&master, path, &x, timesteps, run_seed);
        }
    }
}

/// More than `M` output channels: the layer spans two column groups, so
/// each patch reduces two super-tiles per segment.
#[test]
fn two_column_groups_match_sequential_bitwise() {
    let mut master = single_conv_snn(3, M + 2, 3, 1, 1, 7);
    let x = frames(&[2, 3, 4, 4], 2, 8);
    for path in PATHS {
        assert_equivalent(&master, path, &x, 2, 9);
    }
    wound(&mut master, 7, 0);
    for path in PATHS {
        assert_equivalent(&master, path, &x, 2, 9);
    }
}

/// A receptive field over `MAX_RF_IN_CORE` rows: two R_f segments, each
/// reduced into the output in segment order — on one chip, and split
/// across two chips (one segment each), through the pipeline executor
/// at one claimant and at four (whose stage bodies evaluate on one
/// worker).
#[test]
fn two_segments_and_a_two_chip_split_match_sequential_bitwise() {
    let c = MAX_RF_IN_CORE / 9 + 2;
    let master = single_conv_snn(c, 3, 3, 2, 1, 11);
    let x = frames(&[2, c, 3, 3], 1, 12);
    for path in PATHS {
        assert_equivalent(&master, path, &x, 2, 13);
    }
    let mut seq = master.clone();
    let want = seq
        .run_sequential(&x, 2, &mut ChaCha8Rng::seed_from_u64(13))
        .unwrap();
    for path in PATHS {
        for cfg in [
            PipelineConfig {
                workers: 1,
                ..PipelineConfig::default()
            },
            PipelineConfig {
                workers: 4,
                ..PipelineConfig::default()
            },
        ] {
            let mut sharded = ShardedSpikingNetwork::tensor_sharded(master.clone(), 2).unwrap();
            sharded.set_kernel_path(path);
            sharded.set_pipeline(cfg.clone());
            let got = sharded
                .run(&x, 2, &mut ChaCha8Rng::seed_from_u64(13))
                .unwrap();
            let tag = format!("{path:?} {cfg:?}");
            assert_eq!(got.shape(), want.shape());
            for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{tag} element {i}");
            }
            assert_eq!(sharded.waves(), seq.waves(), "{tag} waves");
            let (e_seq, e) = (seq.read_energy().0, sharded.read_energy().0);
            if path == KernelPath::Scalar {
                assert_eq!(e_seq.to_bits(), e.to_bits(), "{tag} scalar energy");
            } else {
                assert!(((e - e_seq) / e_seq).abs() <= ENERGY_RTOL, "{tag} energy");
            }
        }
    }
}

/// Misshaped and non-finite inputs fail before any timestep, on the
/// event-driven and the sequential legs alike, single-chip and sharded.
#[test]
fn misshaped_and_non_finite_inputs_are_rejected_up_front() {
    let master = dense_snn(4, 3, 2, 1);
    let wrong = Tensor::from_vec(vec![0.5; 4], &[2, 2]).unwrap();
    let mut nan = Tensor::full(&[2, 4], 0.5);
    nan.data_mut()[5] = f32::NAN;
    let mut inf = Tensor::full(&[2, 4], 0.5);
    inf.data_mut()[0] = f32::INFINITY;
    let mut fast = master.clone();
    let mut seq = master.clone();
    let mut r = ChaCha8Rng::seed_from_u64(3);
    let bad_shape =
        |e: Result<Tensor, AnalogError>| matches!(e, Err(AnalogError::BadGeometry { .. }));
    assert!(bad_shape(fast.run(&wrong, 3, &mut r)));
    assert!(bad_shape(seq.run_sequential(&wrong, 3, &mut r)));
    assert!(bad_shape(fast.run_seeded_groups(&wrong, 3, &[(2, 1)])));
    assert!(
        bad_shape(fast.run(&wrong, 0, &mut r)),
        "zero timesteps still validate"
    );
    for (x, index) in [(&nan, 5), (&inf, 0)] {
        let non_finite = |e: Result<Tensor, AnalogError>| matches!(e, Err(AnalogError::NonFiniteInput { index: i }) if i == index);
        assert!(non_finite(fast.run(x, 3, &mut r)));
        assert!(non_finite(seq.run_sequential(x, 3, &mut r)));
        assert!(non_finite(fast.run_seeded_groups(x, 3, &[(1, 1), (1, 2)])));
    }
    assert_eq!(fast.waves(), 0, "no wave ran");
    assert_eq!(seq.read_energy().0, 0.0);
    let mut sharded = ShardedSpikingNetwork::layer_pipelined(master, 2).unwrap();
    assert!(bad_shape(sharded.run(&wrong, 3, &mut r)));
    assert!(bad_shape(sharded.run_seeded_groups(&wrong, 3, &[(2, 1)])));
    assert!(matches!(
        sharded.run_seeded_groups(&nan, 3, &[(2, 1)]),
        Err(AnalogError::NonFiniteInput { index: 5 })
    ));
    // A conv stage fed the wrong channel count is a shape error too.
    let mut conv = conv_snn(6, 3, 2);
    let wrong_channels = Tensor::zeros(&[1, 2, 6, 6]);
    assert!(bad_shape(conv.run(&wrong_channels, 1, &mut r)));
    assert!(bad_shape(conv.run_sequential(&wrong_channels, 1, &mut r)));
    // So is a pool window that does not divide the map, or is zero: it
    // fails before the conv ahead of it drives a crossbar, on every
    // entry point, single-chip and sharded.
    for (k, shape) in [(2, [1, 1, 5, 5]), (2, [1, 1, 4, 5]), (0, [1, 1, 4, 4])] {
        let mut pr = ChaCha8Rng::seed_from_u64(4);
        let master = compile_snn_default(&SpikingNetwork::new(
            vec![
                SnnStage::Synaptic(Layer::conv2d(1, 2, 3, 1, 1, &mut pr)),
                SnnStage::IntegrateFire(IfPopulation::new(0.5, ResetMode::Subtract)),
                SnnStage::Synaptic(Layer::avg_pool(k)),
                SnnStage::Synaptic(Layer::flatten()),
                SnnStage::Synaptic(Layer::dense(8, 3, &mut pr)),
                SnnStage::IntegrateFire(IfPopulation::new(0.5, ResetMode::Zero)),
            ],
            InputEncoding::Poisson,
        ))
        .unwrap();
        let x = Tensor::full(&shape, 0.9);
        let (mut fast, mut seq) = (master.clone(), master.clone());
        let mut sharded = ShardedSpikingNetwork::layer_pipelined(master, 2).unwrap();
        let case = format!("pool {k}, input {shape:?}");
        assert!(bad_shape(fast.run(&x, 3, &mut r)), "{case}");
        assert!(bad_shape(seq.run_sequential(&x, 3, &mut r)), "{case}");
        assert!(
            bad_shape(fast.run_seeded_groups(&x, 3, &[(1, 1)])),
            "{case}"
        );
        assert!(bad_shape(sharded.run(&x, 3, &mut r)), "{case}");
        assert!(fast.output_shape(&shape).is_err(), "{case}");
        assert_eq!(fast.waves() + seq.waves() + sharded.waves(), 0, "{case}");
        let energy = fast.read_energy().0 + seq.read_energy().0 + sharded.read_energy().0;
        assert_eq!(energy, 0.0, "{case}");
        assert_eq!(sharded.traffic().transfers, 0, "{case}: no ring traffic");
    }
}
