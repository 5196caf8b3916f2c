//! Property-based equivalence of multi-chip sharded execution against
//! the single-chip engine and the sequential oracle.
//!
//! [`AnalogNetwork::shard`] and [`AnalogSpikingNetwork::shard`] re-place
//! an already-compiled network over a chip cluster — contiguous pipeline
//! spans or row-wise tensor shards whose partial sums reduce across the
//! ring — and every call runs through the pipeline executor. These
//! properties pin down the contract that makes both the distribution
//! and the schedule invisible: on arbitrary small networks whose first
//! layer genuinely spans multiple `16M`-row segments, under **both**
//! strategies, on clusters of 1, 2 and 4 chips, across every
//! [`KernelPath`], both input encodings, every micro-batch depth
//! {1, 2, 7, 64} × claimant count {1, 2, 4} × queue capacity, and after
//! hard faults, retention aging and AC kill switches mutate the donor's
//! arrays, outputs are **bitwise identical** to the single-chip run,
//! wave counts match exactly, and read energy is bitwise identical on
//! the scalar path and within 1e-9 relative on Auto. Traffic has no
//! single-chip counterpart, so every schedule's full [`TrafficStats`]
//! must equal the one-claimant, whole-batch schedule's, and
//! layer-pipelined link transfers follow a closed form. The sequential
//! oracle runs on the sharded placements too, and matches without
//! moving any ring traffic. Deterministic
//! cases cover capacity-1 backpressure, dead ring links and zero-size
//! batches.

use nebula_core::analog::{compile_ann, AnalogError, AnalogNetwork};
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula_core::components::MAX_RF_IN_CORE;
use nebula_core::multichip::{PipelineConfig, ShardStrategy};
use nebula_crossbar::KernelPath;
use nebula_device::units::{Joules, Seconds};
use nebula_device::{FaultClass, FaultModel};
use nebula_nn::layer::Layer;
use nebula_nn::network::Network;
use nebula_nn::snn::{IfPopulation, InputEncoding, ResetMode, SnnStage, SpikingNetwork};
use nebula_noc::TrafficStats;
use nebula_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Accumulated per-row-sum energy tolerance (1e-12 relative per dot).
const ENERGY_RTOL: f64 = 1e-9;

const PATHS: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Auto];

const STRATEGIES: [ShardStrategy; 2] =
    [ShardStrategy::LayerPipelined, ShardStrategy::TensorSharded];

const CHIP_COUNTS: [usize; 3] = [1, 2, 4];

/// Micro-batch depths: degenerate (1), tiny, odd (7, so the last
/// micro-batch is ragged) and larger than any test batch (64).
const DEPTHS: [usize; 4] = [1, 2, 7, 64];

/// Pipeline claimants: one (sequential), and more than one.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Multi-unit placements the sequential oracle runs on.
const ORACLE_CHIPS: [usize; 2] = [2, 4];

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

fn assert_bits_equal(tag: &str, want: &Tensor, got: &Tensor) {
    assert_eq!(want.shape(), got.shape(), "{tag} shape");
    for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{tag} element {i}: {a} vs {b}");
    }
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

/// The fully sequential schedule: one claimant, the whole batch as one
/// item. Its traffic is the reference every other schedule must match.
fn whole_batch() -> PipelineConfig {
    PipelineConfig {
        micro_batch: usize::MAX,
        workers: 1,
        ..PipelineConfig::default()
    }
}

fn config(depth: usize, workers: usize, queue_capacity: usize) -> PipelineConfig {
    PipelineConfig {
        micro_batch: depth,
        workers,
        queue_capacity,
    }
}

/// Runs `master` single-chip, then sharded under the whole-batch
/// schedule and under `cfg`, with the same kernel path: both sharded
/// runs must match the single chip (outputs bitwise, waves exactly,
/// energy per [`assert_energy`]) and report the same full cluster
/// [`TrafficStats`]. Returns that traffic.
fn assert_ann_equivalent(
    master: &AnalogNetwork,
    strategy: ShardStrategy,
    chips: usize,
    path: KernelPath,
    x: &Tensor,
    cfg: &PipelineConfig,
) -> TrafficStats {
    let mut single = master.clone();
    single.set_kernel_path(path);
    let want = single.forward(x).unwrap();
    let mut traffic = Vec::new();
    for cfg in [whole_batch(), cfg.clone()] {
        let tag = format!("{strategy:?}/{chips} {path:?} {cfg:?}");
        let mut sharded = master.clone().shard(chips, strategy).unwrap();
        sharded.set_kernel_path(path);
        sharded.set_pipeline(cfg);
        let got = sharded.forward(x).unwrap();
        assert_bits_equal(&tag, &want, &got);
        assert_eq!(single.waves(), sharded.waves(), "{tag} waves");
        assert_energy(&tag, path, single.read_energy().0, sharded.read_energy().0);
        traffic.push(sharded.traffic());
    }
    assert_eq!(
        traffic[0], traffic[1],
        "{strategy:?}/{chips} {path:?} {cfg:?} traffic"
    );
    traffic[0]
}

/// SNN variant: identically seeded RNGs on every side, so encoding
/// equality is part of the contract. `shard` builds the sharded twin.
fn assert_snn_equivalent(
    master: &AnalogSpikingNetwork,
    shard: &dyn Fn(AnalogSpikingNetwork) -> AnalogSpikingNetwork,
    path: KernelPath,
    x: &Tensor,
    timesteps: usize,
    seed: u64,
    cfg: &PipelineConfig,
) -> TrafficStats {
    let mut single = master.clone();
    single.set_kernel_path(path);
    let want = single
        .run(x, timesteps, &mut ChaCha8Rng::seed_from_u64(seed))
        .unwrap();
    let mut traffic = Vec::new();
    for cfg in [whole_batch(), cfg.clone()] {
        let mut sharded = shard(master.clone());
        let tag = format!(
            "{:?}/{} {path:?} t={timesteps} {cfg:?}",
            sharded.strategy(),
            sharded.chips()
        );
        sharded.set_kernel_path(path);
        sharded.set_pipeline(cfg);
        let got = sharded
            .run(x, timesteps, &mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        assert_bits_equal(&tag, &want, &got);
        assert_eq!(single.waves(), sharded.waves(), "{tag} waves");
        assert_energy(&tag, path, single.read_energy().0, sharded.read_energy().0);
        traffic.push(sharded.traffic());
    }
    assert_eq!(
        traffic[0], traffic[1],
        "{path:?} t={timesteps} {cfg:?} traffic"
    );
    traffic[0]
}

/// [`AnalogSpikingNetwork::shard`] under `strategy` on `chips` chips.
fn sharded_snn(
    strategy: ShardStrategy,
    chips: usize,
) -> impl Fn(AnalogSpikingNetwork) -> AnalogSpikingNetwork {
    move |net| net.shard(chips, strategy).unwrap()
}

fn energy_bits(e: Joules) -> u64 {
    e.0.to_bits()
}

/// The sequential oracle on a `chips`-chip placement, under both
/// strategies on the Scalar kernel: its output bits, waves and read
/// energy bits match the pipelined `forward` on the same placement and
/// the one-chip donor's, and it leaves the cluster's traffic unchanged.
fn assert_ann_oracle_on_placement(master: &AnalogNetwork, chips: usize, x: &Tensor) {
    let scalar = |mut net: AnalogNetwork| {
        net.set_kernel_path(KernelPath::Scalar);
        net
    };
    let mut donor = scalar(master.clone());
    let want = donor.forward(x).unwrap();
    for strategy in STRATEGIES {
        let tag = format!("{strategy:?}/{chips} forward_sequential");
        let mut pipelined = scalar(master.clone().shard(chips, strategy).unwrap());
        let fast = pipelined.forward(x).unwrap();
        let mut oracle = scalar(master.clone().shard(chips, strategy).unwrap());
        let before = oracle.traffic();
        let got = oracle.forward_sequential(x).unwrap();
        assert_bits_equal(&tag, &fast, &got);
        assert_bits_equal(&tag, &want, &got);
        assert_eq!(oracle.waves(), pipelined.waves(), "{tag} waves");
        assert_eq!(oracle.waves(), donor.waves(), "{tag} waves");
        let e = energy_bits(oracle.read_energy());
        assert_eq!(e, energy_bits(pipelined.read_energy()), "{tag} energy");
        assert_eq!(e, energy_bits(donor.read_energy()), "{tag} energy");
        assert_eq!(oracle.traffic(), before, "{tag} moved ring traffic");
    }
}

/// SNN twin of [`assert_ann_oracle_on_placement`]: `run_sequential` on
/// the sharded placement against `run` on it and on the donor, every
/// leg encoding from an identically seeded RNG.
fn assert_snn_oracle_on_placement(
    master: &AnalogSpikingNetwork,
    chips: usize,
    x: &Tensor,
    timesteps: usize,
    seed: u64,
) {
    let scalar = |mut net: AnalogSpikingNetwork| {
        net.set_kernel_path(KernelPath::Scalar);
        net
    };
    let rng = || ChaCha8Rng::seed_from_u64(seed);
    let mut donor = scalar(master.clone());
    let want = donor.run(x, timesteps, &mut rng()).unwrap();
    for strategy in STRATEGIES {
        let tag = format!("{strategy:?}/{chips} run_sequential t={timesteps}");
        let mut pipelined = scalar(master.clone().shard(chips, strategy).unwrap());
        let fast = pipelined.run(x, timesteps, &mut rng()).unwrap();
        let mut oracle = scalar(master.clone().shard(chips, strategy).unwrap());
        let before = oracle.traffic();
        let got = oracle.run_sequential(x, timesteps, &mut rng()).unwrap();
        assert_bits_equal(&tag, &fast, &got);
        assert_bits_equal(&tag, &want, &got);
        assert_eq!(oracle.waves(), pipelined.waves(), "{tag} waves");
        assert_eq!(oracle.waves(), donor.waves(), "{tag} waves");
        let e = energy_bits(oracle.read_energy());
        assert_eq!(e, energy_bits(pipelined.read_energy()), "{tag} energy");
        assert_eq!(e, energy_bits(donor.read_energy()), "{tag} energy");
        assert_eq!(oracle.traffic(), before, "{tag} moved ring traffic");
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

/// Tiles `pattern` to `len` values in [0, 1] — cheap wide inputs
/// without generating thousands of proptest draws per case.
fn tiled_input(pattern: &[(f32, f64)], density_step: usize, len: usize) -> Vec<f32> {
    let flat = mask(pattern.to_vec(), density_step);
    (0..len).map(|i| flat[i % flat.len()]).collect()
}

proptest! {
    /// Wide dense ANNs: both strategies, 1/2/4 chips, every kernel
    /// path, activity swept from fully silent to fully dense, under a
    /// drawn schedule — micro-batch depth (ragged at 7, larger than the
    /// batch at 64), claimants and queue capacity — and the sequential
    /// oracle on a drawn 2- or 4-chip placement.
    #[test]
    fn multichip_ann_matches_single_chip_bitwise(
        extra in 1usize..40,
        hidden in 2usize..8,
        out in 2usize..5,
        samples in 1usize..9,
        depth_idx in 0usize..DEPTHS.len(),
        workers_idx in 0usize..WORKER_COUNTS.len(),
        queue_capacity in 1usize..4,
        pattern in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 16..64),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        oracle_chips_idx in 0usize..ORACLE_CHIPS.len(),
    ) {
        let master = wide_ann(extra, hidden, out, net_seed);
        let input = MAX_RF_IN_CORE + extra;
        let x = Tensor::from_vec(
            tiled_input(&pattern, density_step, samples * input),
            &[samples, input],
        ).unwrap();
        let cfg = config(DEPTHS[depth_idx], WORKER_COUNTS[workers_idx], queue_capacity);
        for strategy in STRATEGIES {
            for chips in CHIP_COUNTS {
                for path in PATHS {
                    assert_ann_equivalent(&master, strategy, chips, path, &x, &cfg);
                }
            }
        }
        assert_ann_oracle_on_placement(&master, ORACLE_CHIPS[oracle_chips_idx], &x);
    }

    /// Wide dense SNNs: both strategies, 1/2/4 chips, every kernel
    /// path, both encodings — RNG consumption, membrane state order and
    /// per-timestep silence skips must survive sharding and any number
    /// of pipeline claimants, and the sequential oracle on a drawn 2- or
    /// 4-chip placement.
    #[test]
    fn sharded_snn_matches_single_chip_bitwise(
        extra in 1usize..40,
        hidden in 2usize..8,
        out in 2usize..5,
        samples in 1usize..3,
        timesteps in 1usize..6,
        constant in 0u8..2,
        workers_idx in 0usize..WORKER_COUNTS.len(),
        queue_capacity in 1usize..4,
        pattern in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 16..64),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
        oracle_chips_idx in 0usize..ORACLE_CHIPS.len(),
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
        let cfg = config(8, WORKER_COUNTS[workers_idx], queue_capacity);
        for strategy in STRATEGIES {
            for chips in CHIP_COUNTS {
                for path in PATHS {
                    assert_snn_equivalent(
                        &master, &sharded_snn(strategy, chips), path, &x, timesteps, run_seed, &cfg,
                    );
                }
            }
        }
        let chips = ORACLE_CHIPS[oracle_chips_idx];
        assert_snn_oracle_on_placement(&master, chips, &x, timesteps, run_seed);
    }

    /// Wide conv SNNs: the sharded convolution spike path. The
    /// 232-channel 3×3 kernel's receptive field (2088 rows) spans two
    /// segments, so the conv itself is what shards. The
    /// compute-balanced constructor splits the same network by
    /// per-timestep work instead of super-tile count; any contiguous
    /// split keeps the bits.
    #[test]
    fn sharded_conv_snn_matches_single_chip_bitwise(
        timesteps in 1usize..4,
        constant in 0u8..2,
        workers_idx in 0usize..WORKER_COUNTS.len(),
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
        let cfg = config(1, WORKER_COUNTS[workers_idx], 2);
        for path in PATHS {
            for strategy in STRATEGIES {
                for chips in [1usize, 3] {
                    assert_snn_equivalent(
                        &master, &sharded_snn(strategy, chips), path, &x, timesteps, run_seed, &cfg,
                    );
                }
            }
            let balanced = |net: AnalogSpikingNetwork| {
                net.layer_pipelined_for_input(3, x.shape()).unwrap()
            };
            assert_snn_equivalent(&master, &balanced, path, &x, timesteps, run_seed, &cfg);
        }
    }

    /// Equivalence survives every conductance-mutating reliability
    /// event: faults are injected into the *compiled single-chip* net,
    /// and the faulted clone is what gets sharded — the fault maps ride
    /// the moved tiles — with capacity-1 queues between the stages.
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
        workers_idx in 0usize..WORKER_COUNTS.len(),
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
            master.kill_ac(net_seed as usize % tiles, killed_ac).unwrap();
        }
        let input = MAX_RF_IN_CORE + extra;
        let x = Tensor::from_vec(
            tiled_input(&pattern, density_step, 2 * input),
            &[2, input],
        ).unwrap();
        let cfg = config(2, WORKER_COUNTS[workers_idx], 1);
        for strategy in STRATEGIES {
            for chips in CHIP_COUNTS {
                for path in PATHS {
                    assert_snn_equivalent(
                        &master, &sharded_snn(strategy, chips), path, &x, timesteps, run_seed, &cfg,
                    );
                }
            }
        }
    }
}

/// Deterministic backpressure: capacity-1 queues with depth-1
/// micro-batches force maximum stalling on a 4-chip pipeline, at every
/// claimant count (including more claimants than stages). No deadlock,
/// and the bits don't move.
#[test]
fn capacity_one_backpressure_completes_with_identical_bits() {
    let master = wide_ann(13, 6, 4, 77);
    let input = MAX_RF_IN_CORE + 13;
    let mut r = ChaCha8Rng::seed_from_u64(5);
    let x = Tensor::rand_uniform(&[9, input], 0.0, 1.0, &mut r);
    for workers in [1, 2, 4, 9] {
        let cfg = config(1, workers, 1);
        for path in PATHS {
            assert_ann_equivalent(&master, ShardStrategy::LayerPipelined, 4, path, &x, &cfg);
        }
    }
}

/// Two-stage pipelined SNN smoke: fast, no proptest, exercises
/// encode-at-head serialization plus the journal replay under real pool
/// concurrency, on the default kernel path and the default and a
/// multi-claimant schedule.
#[test]
fn two_stage_pipeline_smoke() {
    let master = wide_snn(9, 5, 3, 21);
    let input = MAX_RF_IN_CORE + 9;
    let mut r = ChaCha8Rng::seed_from_u64(2);
    let x = Tensor::rand_uniform(&[2, input], 0.0, 1.0, &mut r);
    let two_chips = sharded_snn(ShardStrategy::LayerPipelined, 2);
    for cfg in [PipelineConfig::default(), config(8, 3, 2)] {
        let traffic =
            assert_snn_equivalent(&master, &two_chips, KernelPath::default(), &x, 6, 7, &cfg);
        assert!(traffic.link_flit_hops > 0, "spikes crossed the ring");
    }
}

/// Dead ring links surface from the journal replay as a typed NoC
/// error — and a detourable topology (4-chip ring, one dead link)
/// still matches the single chip, with the same traffic under every
/// schedule.
#[test]
fn dead_link_errors_or_detours() {
    let master = wide_snn(5, 5, 3, 31);
    let input = MAX_RF_IN_CORE + 5;
    let x = Tensor::from_vec(vec![1.0; input], &[1, input]).unwrap();
    for cfg in [whole_batch(), PipelineConfig::default(), config(1, 4, 1)] {
        // Two chips share one link: severing the ring must fail loudly.
        let mut sharded = master.clone().tensor_sharded(2).unwrap();
        sharded.set_pipeline(cfg.clone());
        sharded.cluster_mut().fail_link(0).unwrap();
        let err = sharded
            .run(&x, 1, &mut ChaCha8Rng::seed_from_u64(1))
            .unwrap_err();
        assert!(matches!(err, AnalogError::Noc(_)), "{cfg:?}: got {err:?}");
        // A 4-chip ring detours the long way.
        let wounded = |net: AnalogSpikingNetwork| {
            let mut s = net.tensor_sharded(4).unwrap();
            s.cluster_mut().fail_link(0).unwrap();
            s
        };
        for path in PATHS {
            let traffic = assert_snn_equivalent(&master, &wounded, path, &x, 2, 1, &cfg);
            assert!(
                traffic.link_flit_hops > 0,
                "{cfg:?}: partials crossed the ring"
            );
        }
    }
}

/// A dense stack of three single-tile layers. Layer-pipelined onto
/// `chips` chips it splits into `min(chips, 3)` spans on consecutive
/// chips, so it has `min(chips, 3) − 1` chip boundaries.
fn deep_narrow_ann(seed: u64) -> AnalogNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    compile_ann(&Network::new(vec![
        Layer::dense(6, 6, &mut r),
        Layer::relu(),
        Layer::dense(6, 6, &mut r),
        Layer::relu(),
        Layer::dense(6, 3, &mut r),
    ]))
    .unwrap()
}

fn deep_narrow_snn(seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let mut stages = Vec::new();
    for (rf, cols) in [(6, 6), (6, 6), (6, 3)] {
        stages.push(SnnStage::Synaptic(Layer::dense(rf, cols, &mut r)));
        stages.push(SnnStage::IntegrateFire(IfPopulation::new(
            0.5,
            ResetMode::Subtract,
        )));
    }
    compile_snn_default(&SpikingNetwork::new(stages, InputEncoding::Poisson)).unwrap()
}

/// Closed form of layer-pipelined ring traffic: every ANN call moves
/// one transfer per chip boundary, however many micro-batches stream
/// through it, and every SNN timestep moves one transfer per chip
/// boundary — silent or not.
#[test]
fn link_transfers_count_one_per_boundary_per_call_or_timestep() {
    let mut r = ChaCha8Rng::seed_from_u64(3);
    let x = Tensor::rand_uniform(&[5, 6], 0.0, 1.0, &mut r);
    let silent = Tensor::zeros(&[5, 6]);
    for chips in [1usize, 2, 3, 4] {
        let boundaries = chips.min(3) as u64 - 1;
        for cfg in [whole_batch(), config(1, 2, 1), config(2, 4, 2)] {
            let tag = format!("{chips} chips {cfg:?}");
            let mut ann = deep_narrow_ann(1).layer_pipelined(chips).unwrap();
            ann.set_pipeline(cfg.clone());
            for calls in 1..=3 {
                ann.forward(&x).unwrap();
                assert_eq!(
                    ann.cluster().link_stats().transfers,
                    calls * boundaries,
                    "{tag}: ANN after {calls} calls"
                );
            }
            let mut snn = deep_narrow_snn(2).layer_pipelined(chips).unwrap();
            snn.set_pipeline(cfg);
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            snn.run(&x, 4, &mut rng).unwrap();
            assert_eq!(
                snn.cluster().link_stats().transfers,
                4 * boundaries,
                "{tag}"
            );
            snn.run_seeded_groups(&silent, 3, &[(2, 1), (3, 2)])
                .unwrap();
            assert_eq!(
                snn.cluster().link_stats().transfers,
                7 * boundaries,
                "{tag}"
            );
        }
    }
}

fn traffic(transfers: u64, flit_hops: u64, ru: u64, link_flit_hops: u64) -> TrafficStats {
    TrafficStats {
        transfers,
        flit_hops,
        ru_adds: ru,
        ru_activations: ru,
        link_flit_hops,
    }
}

/// Zero-size edges, pinned to the values the sequential sharded walk
/// produced before the pipeline executor ran every call: a zero-row ANN
/// batch runs as one empty micro-batch (its boundary and shard
/// transfers still round 0 bits up to one flit), zero timesteps return
/// shaped zeros with no traffic, and a stage-less network is the
/// identity (ANN) or the sum of its encoded inputs (SNN). A rank-0 input
/// fits no network, stage-less or not: `BadGeometry`, as on one chip.
#[test]
fn zero_size_edges_keep_their_shapes_waves_and_traffic() {
    let mut r = ChaCha8Rng::seed_from_u64(9);
    let input = MAX_RF_IN_CORE + 5;
    let ann = compile_ann(&Network::new(vec![
        Layer::dense(input, 6, &mut r),
        Layer::relu(),
        Layer::dense(6, 3, &mut r),
    ]))
    .unwrap();
    let snn = compile_snn_default(&SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::dense(input, 5, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::dense(5, 3, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Zero)),
        ],
        InputEncoding::Poisson,
    ))
    .unwrap();
    let empty_ann = compile_ann(&Network::new(vec![])).unwrap();
    let empty_snn =
        compile_snn_default(&SpikingNetwork::new(vec![], InputEncoding::Poisson)).unwrap();
    let none = TrafficStats::default();
    for cfg in [whole_batch(), PipelineConfig::default(), config(1, 4, 1)] {
        for strategy in STRATEGIES {
            let tag = format!("{strategy:?} {cfg:?}");
            let zero_rows = match strategy {
                ShardStrategy::LayerPipelined => traffic(3, 27, 0, 1),
                ShardStrategy::TensorSharded => traffic(6, 54, 1, 2),
            };
            for (name, net, shape, want_shape, want_traffic) in [
                (
                    "zero rows",
                    &ann,
                    vec![0, input],
                    Some(vec![0, 3]),
                    zero_rows,
                ),
                ("stage-less", &empty_ann, vec![2, 4], Some(vec![2, 4]), none),
                (
                    "stage-less zero rows",
                    &empty_ann,
                    vec![0, 4],
                    Some(vec![0, 4]),
                    none,
                ),
                ("stage-less rank 0", &empty_ann, vec![], None, none),
            ] {
                let mut sharded = net.clone().shard(2, strategy).unwrap();
                sharded.set_pipeline(cfg.clone());
                let y = sharded.forward(&Tensor::full(&shape, 0.5));
                match want_shape {
                    Some(want_shape) => {
                        assert_eq!(y.unwrap().shape(), &want_shape[..], "{tag} ANN {name}")
                    }
                    None => assert!(
                        matches!(y, Err(AnalogError::BadGeometry { .. })),
                        "{tag} ANN {name}: {y:?}"
                    ),
                }
                assert_eq!(sharded.waves(), 0, "{tag} ANN {name}");
                assert_eq!(sharded.traffic(), want_traffic, "{tag} ANN {name}");
            }
            let snn_zero_rows = match strategy {
                ShardStrategy::LayerPipelined => traffic(6, 54, 0, 2),
                ShardStrategy::TensorSharded => none,
            };
            for (name, net, shape, timesteps, want_shape, want_traffic) in [
                ("zero timesteps", &snn, vec![2, input], 0, vec![2, 3], none),
                (
                    "zero rows",
                    &snn,
                    vec![0, input],
                    2,
                    vec![0, 3],
                    snn_zero_rows,
                ),
                ("stage-less", &empty_snn, vec![2, 4], 3, vec![2, 4], none),
            ] {
                let x = Tensor::full(&shape, 0.5);
                let groups: Vec<(usize, u64)> = match shape[0] {
                    0 => vec![],
                    n => vec![(n, 4)],
                };
                let mut by_rng = net.clone().shard(2, strategy).unwrap();
                by_rng.set_pipeline(cfg.clone());
                let y_rng = by_rng
                    .run(&x, timesteps, &mut ChaCha8Rng::seed_from_u64(4))
                    .unwrap();
                let mut by_groups = net.clone().shard(2, strategy).unwrap();
                by_groups.set_pipeline(cfg.clone());
                let y_groups = by_groups.run_seeded_groups(&x, timesteps, &groups).unwrap();
                for (leg, y, sharded) in
                    [("run", &y_rng, &by_rng), ("groups", &y_groups, &by_groups)]
                {
                    let case = format!("{tag} SNN {name} {leg}");
                    assert_eq!(y.shape(), &want_shape[..], "{case}");
                    assert_eq!(sharded.waves(), 0, "{case}");
                    assert_eq!(sharded.traffic(), want_traffic, "{case}");
                    if timesteps == 0 {
                        assert!(y.data().iter().all(|&v| v == 0.0), "{case}");
                    }
                }
                if name == "stage-less" {
                    assert_eq!(
                        y_rng.data(),
                        &[1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 0.0, 1.0],
                        "{tag}"
                    );
                    assert_eq!(
                        y_groups.data(),
                        &[2.0, 2.0, 2.0, 1.0, 3.0, 2.0, 2.0, 1.0],
                        "{tag}"
                    );
                }
            }
        }
    }
}

/// A misshaped batch fails with `BadGeometry` under both strategies and
/// any schedule, before any crossbar or ring traffic — for a dense and
/// a convolutional first layer whose receptive field spans two
/// segments, so tensor sharding splits it into row shards, and for a
/// pool window that does not divide its map or is zero.
#[test]
fn multichip_ann_rejects_misshaped_batches_up_front() {
    let mut r = ChaCha8Rng::seed_from_u64(21);
    let channels = MAX_RF_IN_CORE / 9 + 1;
    let conv = Network::new(vec![
        Layer::conv2d(channels, 2, 3, 1, 1, &mut r),
        Layer::relu(),
        Layer::flatten(),
        Layer::dense(2 * 4 * 4, 3, &mut r),
    ]);
    let input = MAX_RF_IN_CORE + 5;
    // A pool window must be nonzero and divide the map it pools; `k = 2`
    // pools 4×4 frames to 2×2.
    let pooled = |k, r: &mut ChaCha8Rng| {
        compile_ann(&Network::new(vec![
            Layer::conv2d(1, 2, 3, 1, 1, r),
            Layer::relu(),
            Layer::avg_pool(k),
            Layer::flatten(),
            Layer::dense(8, 3, r),
        ]))
        .unwrap()
    };
    let cases = [
        (
            wide_ann(5, 6, 3, 9),
            Some(vec![2, input]),
            vec![
                vec![2, input - 1],
                vec![2, input + 1],
                vec![2, 1, input],
                vec![input],
                vec![],
            ],
        ),
        (
            compile_ann(&conv).unwrap(),
            Some(vec![1, channels, 4, 4]),
            vec![
                vec![1, channels - 1, 4, 4],
                vec![1, channels, 5, 4],
                vec![1, channels * 16],
                vec![channels, 4, 4],
            ],
        ),
        (
            pooled(2, &mut r),
            Some(vec![1, 1, 4, 4]),
            vec![vec![1, 1, 5, 5], vec![1, 1, 4, 5]],
        ),
        (pooled(0, &mut r), None, vec![vec![1, 1, 4, 4]]),
    ];
    for (net, good, bad_shapes) in cases {
        for strategy in STRATEGIES {
            for cfg in [PipelineConfig::default(), config(1, 2, 1)] {
                let mut sharded = net.clone().shard(2, strategy).unwrap();
                sharded.set_pipeline(cfg.clone());
                for shape in &bad_shapes {
                    let x = Tensor::zeros(shape);
                    let case = format!("{strategy:?} {cfg:?} input {shape:?}");
                    assert!(
                        matches!(sharded.forward(&x), Err(AnalogError::BadGeometry { .. })),
                        "forward, {case}"
                    );
                    assert!(sharded.output_shape(shape).is_err(), "output_shape, {case}");
                }
                assert_eq!(sharded.waves(), 0, "{strategy:?}: no wave ran");
                assert_eq!(
                    sharded.read_energy().0,
                    0.0,
                    "{strategy:?}: no crossbar read"
                );
                assert_eq!(
                    sharded.traffic().transfers,
                    0,
                    "{strategy:?}: no ring traffic"
                );
                if let Some(good) = &good {
                    let x = Tensor::full(good, 0.5);
                    let want = sharded.output_shape(good).unwrap();
                    assert_eq!(sharded.forward(&x).unwrap().shape(), &want[..]);
                }
            }
        }
    }
}

/// A dense ANN of six synaptic layers, each one super-tile: a 2- or
/// 3-chip pipeline puts several synaptic stages on one chip span.
fn six_layer_ann(seed: u64) -> AnalogNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let mut layers = Vec::new();
    for (i, (rf, cols)) in [(24, 40), (40, 40), (40, 40), (40, 40), (40, 40), (40, 5)]
        .into_iter()
        .enumerate()
    {
        if i > 0 {
            layers.push(Layer::relu());
        }
        layers.push(Layer::dense(rf, cols, &mut r));
    }
    compile_ann(&Network::new(layers)).unwrap()
}

/// Scalar-path energy is one fold over the donor's stages, in stage
/// order, whichever chips the stages sit on: read energy (and the ANN's
/// programming energy) must equal the single chip's bit for bit when a
/// tensor-sharded layer spans several column groups (129–300 outputs,
/// over M = 128) and when one pipeline span holds several synaptic
/// stages. Summing per-unit or per-segment subtotals first moves the
/// last bits in some of these cases.
#[test]
fn scalar_energy_folds_in_single_chip_order() {
    let path = KernelPath::Scalar;
    let bits = |e: nebula_device::units::Joules| e.0.to_bits();
    let input = MAX_RF_IN_CORE + 9;
    for (hidden, seed) in [(129usize, 1u64), (200, 2), (300, 3)] {
        let x = Tensor::rand_uniform(
            &[3, input],
            0.0,
            1.0,
            &mut ChaCha8Rng::seed_from_u64(seed + 100),
        );
        let mut single = wide_ann(9, hidden, 3, seed);
        single.set_kernel_path(path);
        single.forward(&x).unwrap();
        let mut single_snn = wide_snn(9, hidden, 3, seed);
        single_snn.set_kernel_path(path);
        single_snn
            .run(&x, 3, &mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        for chips in [2usize, 3, 4] {
            let tag = format!("hidden {hidden}, {chips} chips");
            let mut ann = wide_ann(9, hidden, 3, seed).tensor_sharded(chips).unwrap();
            ann.set_kernel_path(path);
            ann.forward(&x).unwrap();
            assert_eq!(bits(ann.read_energy()), bits(single.read_energy()), "{tag}");
            assert_eq!(
                bits(ann.program_energy()),
                bits(single.program_energy()),
                "{tag}"
            );
            let mut snn = wide_snn(9, hidden, 3, seed).tensor_sharded(chips).unwrap();
            snn.set_kernel_path(path);
            snn.run(&x, 3, &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(
                bits(snn.read_energy()),
                bits(single_snn.read_energy()),
                "SNN {tag}"
            );
        }
    }
    for seed in 0..6u64 {
        let x = Tensor::rand_uniform(
            &[4, 24],
            0.0,
            1.0,
            &mut ChaCha8Rng::seed_from_u64(seed + 200),
        );
        let mut single = six_layer_ann(seed);
        single.set_kernel_path(path);
        single.forward(&x).unwrap();
        for chips in [2usize, 3] {
            let tag = format!("seed {seed}, {chips}-chip pipeline");
            let mut ann = six_layer_ann(seed).layer_pipelined(chips).unwrap();
            ann.set_kernel_path(path);
            ann.forward(&x).unwrap();
            assert_eq!(bits(ann.read_energy()), bits(single.read_energy()), "{tag}");
            assert_eq!(
                bits(ann.program_energy()),
                bits(single.program_energy()),
                "{tag}"
            );
        }
    }
}

/// Tensor-sharded ring traffic and waves, pinned to the values the
/// per-segment shard evaluator produced: on every ANN call the home
/// chip multicasts the 4-bit input and gathers 32-bit partials from the
/// chips holding the layer's other segments; on an SNN timestep it does
/// so only when the spikes reach a patch, so an all-silent timestep
/// moves nothing (and still counts its waves). Three-segment layers, so
/// 2 chips hold segments {0, 2} and {1}, and 4 chips spread them over
/// chips 0–2.
#[test]
fn tensor_sharded_traffic_and_waves_are_pinned() {
    let input = 2 * MAX_RF_IN_CORE + 9;
    let channels = 460; // 460 · 9 = 4140 rows: three segments
    let mut r = ChaCha8Rng::seed_from_u64(12);
    let ann_x = Tensor::rand_uniform(&[3, input], 0.0, 1.0, &mut r);
    let snn_x = Tensor::rand_uniform(&[2, input], 0.0, 1.0, &mut r);
    let conv_x = Tensor::rand_uniform(&[1, channels, 4, 4], 0.0, 1.0, &mut r);
    let pins = [
        (
            2,
            traffic(12, 84_132, 2, 3_116),
            traffic(18, 21_627, 3, 801),
            traffic(18, 21_222, 3, 786),
        ),
        (
            4,
            TrafficStats {
                ru_activations: 2,
                ..traffic(28, 208_772, 4, 9_348)
            },
            TrafficStats {
                ru_activations: 3,
                ..traffic(42, 53_667, 6, 2_403)
            },
            TrafficStats {
                ru_activations: 3,
                ..traffic(42, 52_662, 6, 2_358)
            },
        ),
    ];
    for (chips, ann_traffic, snn_traffic, conv_traffic) in pins {
        let mut ann =
            AnalogNetwork::tensor_sharded(wide_ann(MAX_RF_IN_CORE + 9, 6, 3, 5), chips).unwrap();
        ann.forward(&ann_x).unwrap();
        ann.forward(&ann_x).unwrap();
        assert_eq!(ann.traffic(), ann_traffic, "ANN dense, {chips} chips");
        assert_eq!(ann.waves(), 12, "ANN dense, {chips} chips");
        let snn =
            AnalogSpikingNetwork::tensor_sharded(wide_snn(MAX_RF_IN_CORE + 9, 5, 3, 6), chips)
                .unwrap();
        let conv =
            AnalogSpikingNetwork::tensor_sharded(wide_conv_snn(channels, 4, 3, 8), chips).unwrap();
        for (name, mut net, x, seed, want, waves) in [
            ("SNN dense", snn, &snn_x, 7, snn_traffic, [12, 16]),
            ("SNN conv", conv, &conv_x, 9, conv_traffic, [51, 68]),
        ] {
            let tag = format!("{name}, {chips} chips");
            net.run(x, 3, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
            assert_eq!(net.traffic(), want, "{tag}");
            assert_eq!(net.waves(), waves[0], "{tag}");
            let silent = Tensor::zeros(x.shape());
            net.run(&silent, 1, &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(net.traffic(), want, "{tag}: a silent timestep");
            assert_eq!(net.waves(), waves[1], "{tag}: a silent timestep");
        }
    }
}
