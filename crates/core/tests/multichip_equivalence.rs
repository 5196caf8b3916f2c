//! Property-based equivalence of multi-chip sharded execution against
//! the single-chip engine.
//!
//! [`ShardedAnalogNetwork`] and [`ShardedSpikingNetwork`] distribute an
//! already-compiled network over a chip cluster — contiguous pipeline
//! spans or row-wise tensor shards whose partial sums reduce across the
//! ring. These properties pin down the contract that makes the
//! distribution invisible: on arbitrary small networks whose first
//! layer genuinely spans multiple `16M`-row segments, under **both**
//! strategies, on clusters of 1, 2 and 4 chips, across every
//! [`KernelPath`], both input encodings, and after hard faults,
//! retention aging and AC kill switches mutate the donor's arrays,
//! outputs are **bitwise identical** to the single-chip run, wave
//! counts match exactly, and read energy is bitwise identical on the
//! scalar path and within 1e-9 relative on the vectorized paths.

use nebula_core::analog::{compile_ann, AnalogNetwork};
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula_core::components::MAX_RF_IN_CORE;
use nebula_core::multichip::{ShardStrategy, ShardedAnalogNetwork, ShardedSpikingNetwork};
use nebula_crossbar::KernelPath;
use nebula_device::units::Seconds;
use nebula_device::{FaultClass, FaultModel};
use nebula_nn::layer::Layer;
use nebula_nn::network::Network;
use nebula_nn::snn::{IfPopulation, InputEncoding, ResetMode, SnnStage, SpikingNetwork};
use nebula_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Accumulated per-row-sum energy tolerance (1e-12 relative per dot).
const ENERGY_RTOL: f64 = 1e-9;

const PATHS: [KernelPath; 4] = [
    KernelPath::Scalar,
    KernelPath::Vectorized,
    KernelPath::Quantized,
    KernelPath::Auto,
];

const STRATEGIES: [ShardStrategy; 2] =
    [ShardStrategy::LayerPipelined, ShardStrategy::TensorSharded];

const CHIP_COUNTS: [usize; 3] = [1, 2, 4];

/// A dense ANN whose first matrix spans two row segments (`R_f > 16M`),
/// so tensor sharding splits real state across chips.
fn wide_ann(extra: usize, hidden: usize, out: usize, seed: u64) -> AnalogNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::dense(MAX_RF_IN_CORE + extra, hidden, &mut r),
        Layer::relu(),
        Layer::dense(hidden, out, &mut r),
    ]);
    compile_ann(&net).unwrap()
}

/// A dense spiking net with a multi-segment first layer.
fn wide_snn(extra: usize, hidden: usize, out: usize, seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::dense(MAX_RF_IN_CORE + extra, hidden, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::dense(hidden, out, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Zero)),
        ],
        InputEncoding::Poisson,
    );
    compile_snn_default(&snn).unwrap()
}

/// A conv spiking net whose kernel's receptive field (`C·KH·KW`)
/// overflows one segment, so the convolution spike path is sharded too.
fn wide_conv_snn(channels: usize, side: usize, out: usize, seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::conv2d(channels, 2, 3, 1, 1, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::flatten()),
            SnnStage::Synaptic(Layer::dense(2 * side * side, out, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
        ],
        InputEncoding::Poisson,
    );
    compile_snn_default(&snn).unwrap()
}

fn assert_energy(tag: &str, path: KernelPath, e_single: f64, e_sharded: f64) {
    if path == KernelPath::Scalar {
        // Scalar kernels accrue the reference energy formulation: the
        // joule counter must agree bit for bit.
        assert_eq!(e_single.to_bits(), e_sharded.to_bits(), "{tag} {path:?}");
    } else if e_single == 0.0 {
        assert_eq!(e_sharded, 0.0, "{tag} {path:?} energy from silent run");
    } else {
        assert!(
            ((e_sharded - e_single) / e_single).abs() <= ENERGY_RTOL,
            "{tag} {path:?} energy {e_sharded} vs {e_single}"
        );
    }
}

/// Runs `master` single-chip and sharded with the same kernel path and
/// asserts the full equivalence contract.
fn assert_ann_equivalent(
    master: &AnalogNetwork,
    strategy: ShardStrategy,
    chips: usize,
    path: KernelPath,
    x: &Tensor,
) {
    let mut single = master.clone();
    single.set_kernel_path(path);
    let want = single.forward(x).unwrap();
    let mut sharded = ShardedAnalogNetwork::new(master.clone(), chips, strategy).unwrap();
    sharded.set_kernel_path(path);
    let got = sharded.forward(x).unwrap();
    assert_eq!(want.shape(), got.shape());
    for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{strategy:?}/{chips} {path:?} element {i}: {a} vs {b}"
        );
    }
    assert_eq!(
        single.waves(),
        sharded.waves(),
        "{strategy:?}/{chips} {path:?} waves"
    );
    assert_energy("ann", path, single.read_energy().0, sharded.read_energy().0);
}

/// SNN variant: identically seeded RNGs on both sides, so encoding
/// equality is part of the contract.
fn assert_snn_equivalent(
    master: &AnalogSpikingNetwork,
    strategy: ShardStrategy,
    chips: usize,
    path: KernelPath,
    x: &Tensor,
    timesteps: usize,
    seed: u64,
) {
    let mut single = master.clone();
    single.set_kernel_path(path);
    let mut r_single = ChaCha8Rng::seed_from_u64(seed);
    let want = single.run(x, timesteps, &mut r_single).unwrap();
    let mut sharded = ShardedSpikingNetwork::new(master.clone(), chips, strategy).unwrap();
    sharded.set_kernel_path(path);
    let mut r_sharded = ChaCha8Rng::seed_from_u64(seed);
    let got = sharded.run(x, timesteps, &mut r_sharded).unwrap();
    assert_eq!(want.shape(), got.shape());
    for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{strategy:?}/{chips} {path:?} element {i}: {a} vs {b}"
        );
    }
    assert_eq!(
        single.waves(),
        sharded.waves(),
        "{strategy:?}/{chips} {path:?} waves"
    );
    assert_energy("snn", path, single.read_energy().0, sharded.read_energy().0);
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

/// Tiles `pattern` to `len` values in [0, 1] — cheap wide inputs
/// without generating thousands of proptest draws per case.
fn tiled_input(pattern: &[(f32, f64)], density_step: usize, len: usize) -> Vec<f32> {
    let flat = mask(pattern.to_vec(), density_step);
    (0..len).map(|i| flat[i % flat.len()]).collect()
}

proptest! {
    /// Wide dense ANNs: both strategies, 1/2/4 chips, every kernel
    /// path, activity swept from fully silent to fully dense.
    #[test]
    fn sharded_ann_matches_single_chip_bitwise(
        extra in 1usize..40,
        hidden in 2usize..8,
        out in 2usize..5,
        samples in 1usize..3,
        pattern in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 16..64),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
    ) {
        let master = wide_ann(extra, hidden, out, net_seed);
        let input = MAX_RF_IN_CORE + extra;
        let x = Tensor::from_vec(
            tiled_input(&pattern, density_step, samples * input),
            &[samples, input],
        ).unwrap();
        for strategy in STRATEGIES {
            for chips in CHIP_COUNTS {
                for path in PATHS {
                    assert_ann_equivalent(&master, strategy, chips, path, &x);
                }
            }
        }
    }

    /// Wide dense SNNs: both strategies, 1/2/4 chips, every kernel
    /// path, both encodings — RNG consumption must survive sharding.
    #[test]
    fn sharded_snn_matches_single_chip_bitwise(
        extra in 1usize..40,
        hidden in 2usize..8,
        out in 2usize..5,
        samples in 1usize..3,
        timesteps in 1usize..6,
        constant in 0u8..2,
        pattern in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 16..64),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = wide_snn(extra, hidden, out, net_seed);
        if constant == 1 {
            master.set_encoding(InputEncoding::Constant);
        }
        let input = MAX_RF_IN_CORE + extra;
        let x = Tensor::from_vec(
            tiled_input(&pattern, density_step, samples * input),
            &[samples, input],
        ).unwrap();
        for strategy in STRATEGIES {
            for chips in CHIP_COUNTS {
                for path in PATHS {
                    assert_snn_equivalent(&master, strategy, chips, path, &x, timesteps, run_seed);
                }
            }
        }
    }

    /// Wide conv SNNs: the sharded convolution spike path. The
    /// 232-channel 3×3 kernel's receptive field (2088 rows) spans two
    /// segments, so the conv itself is what shards.
    #[test]
    fn sharded_conv_snn_matches_single_chip_bitwise(
        timesteps in 1usize..4,
        constant in 0u8..2,
        pattern in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 16..64),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let side = 4usize;
        let channels = 232usize; // 232 · 9 = 2088 > 2048 rows
        let mut master = wide_conv_snn(channels, side, 3, net_seed);
        if constant == 1 {
            master.set_encoding(InputEncoding::Constant);
        }
        let x = Tensor::from_vec(
            tiled_input(&pattern, density_step, channels * side * side),
            &[1, channels, side, side],
        ).unwrap();
        for strategy in STRATEGIES {
            for chips in [1usize, 3] {
                for path in PATHS {
                    assert_snn_equivalent(&master, strategy, chips, path, &x, timesteps, run_seed);
                }
            }
        }
    }

    /// Equivalence survives every conductance-mutating reliability
    /// event: faults are injected into the *compiled single-chip* net,
    /// and the faulted clone is what gets sharded — the fault maps ride
    /// the moved tiles.
    #[test]
    fn sharded_equivalence_holds_under_faults_aging_and_kill_switches(
        extra in 1usize..40,
        hidden in 2usize..8,
        timesteps in 1usize..5,
        fault_kind in 0usize..5,
        fault_rate in 0.0f64..0.2,
        age_s in 0.0f64..1e7,
        killed_ac in 0usize..16,
        kill in 0u8..2,
        pattern in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 16..64),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = wide_snn(extra, hidden, 3, net_seed);
        let model = FaultModel::single(FaultClass::ALL[fault_kind], fault_rate);
        let mut fault_rng = ChaCha8Rng::seed_from_u64(net_seed ^ 0xFA17);
        master.inject_faults(&model, &mut fault_rng);
        master.advance_age(Seconds(age_s));
        if kill == 1 {
            let tiles = master.supertile_count();
            master.kill_ac(net_seed as usize % tiles, killed_ac);
        }
        let input = MAX_RF_IN_CORE + extra;
        let x = Tensor::from_vec(
            tiled_input(&pattern, density_step, 2 * input),
            &[2, input],
        ).unwrap();
        for strategy in STRATEGIES {
            for chips in CHIP_COUNTS {
                for path in PATHS {
                    assert_snn_equivalent(&master, strategy, chips, path, &x, timesteps, run_seed);
                }
            }
        }
    }
}
