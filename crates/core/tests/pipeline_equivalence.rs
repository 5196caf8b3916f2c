//! Property-based equivalence of the **concurrent pipeline executor**
//! against sequential sharded execution.
//!
//! `forward_pipelined` / `run_pipelined` stream micro-batches (ANN) or
//! timesteps (SNN) through the chip stages on pool workers, journaling
//! per-stage traffic and replaying it at the join. The contract pinned
//! here: for every micro-batch depth {1, 2, 7, 64} × worker count
//! {1, 2, 4} × strategy × kernel path — and with faults, aging and AC
//! kill switches mutating the donor — the pipelined run is **bitwise
//! identical** to the sequential sharded walk in outputs, wave counts,
//! read energy (scalar path exactly; vectorized within the accumulated
//! 1e-9 relative bound) and the *entire* cluster [`TrafficStats`],
//! `link_flit_hops` included. Deterministic backpressure cases
//! (capacity-1 queues, more workers than stages) prove the bounded
//! scheduler cannot deadlock.

use nebula_core::analog::{compile_ann, AnalogNetwork};
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula_core::components::MAX_RF_IN_CORE;
use nebula_core::multichip::{
    PipelineConfig, ShardStrategy, ShardedAnalogNetwork, ShardedSpikingNetwork,
};
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

/// Micro-batch depths the issue pins: degenerate (1), tiny, odd (7, so
/// the last micro-batch is ragged) and larger than any test batch (64).
const DEPTHS: [usize; 4] = [1, 2, 7, 64];

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn wide_ann(extra: usize, hidden: usize, out: usize, seed: u64) -> AnalogNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::dense(MAX_RF_IN_CORE + extra, hidden, &mut r),
        Layer::relu(),
        Layer::dense(hidden, out, &mut r),
    ]);
    compile_ann(&net).unwrap()
}

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

/// A conv spiking net whose kernel receptive field (`C·KH·KW`) spans
/// two segments — shards the convolution spike path too.
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

fn assert_energy(tag: &str, path: KernelPath, e_seq: f64, e_pipe: f64) {
    if path == KernelPath::Scalar {
        assert_eq!(e_seq.to_bits(), e_pipe.to_bits(), "{tag} {path:?}");
    } else if e_seq == 0.0 {
        assert_eq!(e_pipe, 0.0, "{tag} {path:?} energy from silent run");
    } else {
        assert!(
            ((e_pipe - e_seq) / e_seq).abs() <= ENERGY_RTOL,
            "{tag} {path:?} energy {e_pipe} vs {e_seq}"
        );
    }
}

/// Sequential-sharded vs pipelined twin, same donor and kernel path.
fn assert_ann_pipeline_equivalent(
    master: &AnalogNetwork,
    strategy: ShardStrategy,
    chips: usize,
    path: KernelPath,
    x: &Tensor,
    cfg: &PipelineConfig,
) {
    let tag = format!(
        "{strategy:?}/{chips} {path:?} d={} w={}",
        cfg.micro_batch, cfg.workers
    );
    let mut seq = ShardedAnalogNetwork::new(master.clone(), chips, strategy).unwrap();
    seq.set_kernel_path(path);
    let want = seq.forward(x).unwrap();
    let mut pipe = ShardedAnalogNetwork::new(master.clone(), chips, strategy).unwrap();
    pipe.set_kernel_path(path);
    let got = pipe.forward_pipelined(x, cfg).unwrap();
    assert_bits_equal(&tag, &want, &got);
    assert_eq!(seq.waves(), pipe.waves(), "{tag} waves");
    assert_eq!(seq.traffic(), pipe.traffic(), "{tag} traffic stats");
    assert_energy(&tag, path, seq.read_energy().0, pipe.read_energy().0);
}

/// SNN variant: identically seeded RNGs feed both sides, so the
/// serialized pipeline-head encoder must consume the stream exactly as
/// the sequential loop does.
#[allow(clippy::too_many_arguments)]
fn assert_snn_pipeline_equivalent(
    master: &AnalogSpikingNetwork,
    strategy: ShardStrategy,
    chips: usize,
    path: KernelPath,
    x: &Tensor,
    timesteps: usize,
    seed: u64,
    cfg: &PipelineConfig,
) {
    let tag = format!(
        "{strategy:?}/{chips} {path:?} t={timesteps} w={}",
        cfg.workers
    );
    let mut seq = ShardedSpikingNetwork::new(master.clone(), chips, strategy).unwrap();
    seq.set_kernel_path(path);
    let mut r_seq = ChaCha8Rng::seed_from_u64(seed);
    let want = seq.run(x, timesteps, &mut r_seq).unwrap();
    let mut pipe = ShardedSpikingNetwork::new(master.clone(), chips, strategy).unwrap();
    pipe.set_kernel_path(path);
    let mut r_pipe = ChaCha8Rng::seed_from_u64(seed);
    let got = pipe.run_pipelined(x, timesteps, &mut r_pipe, cfg).unwrap();
    assert_bits_equal(&tag, &want, &got);
    assert_eq!(seq.waves(), pipe.waves(), "{tag} waves");
    assert_eq!(seq.traffic(), pipe.traffic(), "{tag} traffic stats");
    assert_energy(&tag, path, seq.read_energy().0, pipe.read_energy().0);
}

/// Activity mask: elements whose keep-draw clears the density survive,
/// the rest go exactly to `0.0` (step 0 = fully silent, 4 = dense).
fn mask(raw: Vec<(f32, f64)>, density_step: usize) -> Vec<f32> {
    let density = density_step as f64 / 4.0;
    raw.into_iter()
        .map(|(v, keep)| if keep < density { v } else { 0.0 })
        .collect()
}

fn tiled_input(pattern: &[(f32, f64)], density_step: usize, len: usize) -> Vec<f32> {
    let flat = mask(pattern.to_vec(), density_step);
    (0..len).map(|i| flat[i % flat.len()]).collect()
}

proptest! {
    /// ANN: every depth × worker count × strategy × kernel path on a
    /// wide dense net, batch sizes that exercise ragged micro-batches.
    #[test]
    fn pipelined_ann_matches_sequential_sharded_bitwise(
        extra in 1usize..40,
        hidden in 2usize..8,
        out in 2usize..5,
        samples in 1usize..9,
        depth_idx in 0usize..DEPTHS.len(),
        workers_idx in 0usize..WORKER_COUNTS.len(),
        chips in 2usize..5,
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
        let cfg = PipelineConfig {
            micro_batch: DEPTHS[depth_idx],
            workers: WORKER_COUNTS[workers_idx],
            queue_capacity: 2,
        };
        for strategy in STRATEGIES {
            for path in PATHS {
                assert_ann_pipeline_equivalent(&master, strategy, chips, path, &x, &cfg);
            }
        }
    }

    /// SNN: timesteps are the pipeline items; RNG encoding, membrane
    /// state order and per-timestep silence skips must all survive.
    #[test]
    fn pipelined_snn_matches_sequential_sharded_bitwise(
        extra in 1usize..40,
        hidden in 2usize..8,
        out in 2usize..5,
        samples in 1usize..3,
        timesteps in 1usize..6,
        constant in 0u8..2,
        workers_idx in 0usize..WORKER_COUNTS.len(),
        chips in 2usize..5,
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
        let cfg = PipelineConfig {
            micro_batch: 8,
            workers: WORKER_COUNTS[workers_idx],
            queue_capacity: 2,
        };
        for strategy in STRATEGIES {
            for path in PATHS {
                assert_snn_pipeline_equivalent(
                    &master, strategy, chips, path, &x, timesteps, run_seed, &cfg,
                );
            }
        }
    }

    /// Conv SNN through the compute-balanced constructor: the
    /// cost-aware span split must keep the same bits (any contiguous
    /// split does) while the pipelined runtime drives it.
    #[test]
    fn pipelined_conv_snn_with_compute_balanced_spans_matches(
        timesteps in 1usize..4,
        workers_idx in 0usize..WORKER_COUNTS.len(),
        pattern in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 16..64),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let side = 4usize;
        let channels = 232usize; // 232 · 9 = 2088 > 2048 rows
        let master = wide_conv_snn(channels, side, 3, net_seed);
        let x = Tensor::from_vec(
            tiled_input(&pattern, density_step, channels * side * side),
            &[1, channels, side, side],
        ).unwrap();
        let cfg = PipelineConfig {
            micro_batch: 1,
            workers: WORKER_COUNTS[workers_idx],
            queue_capacity: 2,
        };
        // Sequential twin uses the same compute-balanced constructor so
        // the span split (and thus the boundary traffic) is identical.
        let mut seq =
            ShardedSpikingNetwork::layer_pipelined_for_input(master.clone(), 3, x.shape())
                .unwrap();
        let mut r_seq = ChaCha8Rng::seed_from_u64(run_seed);
        let want = seq.run(&x, timesteps, &mut r_seq).unwrap();
        let mut pipe =
            ShardedSpikingNetwork::layer_pipelined_for_input(master.clone(), 3, x.shape())
                .unwrap();
        let mut r_pipe = ChaCha8Rng::seed_from_u64(run_seed);
        let got = pipe.run_pipelined(&x, timesteps, &mut r_pipe, &cfg).unwrap();
        assert_bits_equal("conv compute-balanced", &want, &got);
        prop_assert_eq!(seq.waves(), pipe.waves());
        prop_assert_eq!(seq.traffic(), pipe.traffic());
        // And the cost-balanced split itself is bit-identical to the
        // single-chip engine (the fold-over-stages argument).
        let mut single = master.clone();
        let mut r_single = ChaCha8Rng::seed_from_u64(run_seed);
        let single_want = single.run(&x, timesteps, &mut r_single).unwrap();
        assert_bits_equal("conv vs single-chip", &single_want, &want);
    }

    /// Equivalence survives conductance-mutating reliability events:
    /// faults, retention aging and AC kill switches ride the moved
    /// tiles into both twins identically.
    #[test]
    fn pipelined_equivalence_holds_under_faults_aging_and_kill_switches(
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
            master.kill_ac(net_seed as usize % tiles, killed_ac);
        }
        let input = MAX_RF_IN_CORE + extra;
        let x = Tensor::from_vec(
            tiled_input(&pattern, density_step, 2 * input),
            &[2, input],
        ).unwrap();
        let cfg = PipelineConfig {
            micro_batch: 2,
            workers: WORKER_COUNTS[workers_idx],
            queue_capacity: 1,
        };
        for strategy in STRATEGIES {
            for path in PATHS {
                assert_snn_pipeline_equivalent(
                    &master, strategy, 3, path, &x, timesteps, run_seed, &cfg,
                );
            }
        }
    }
}

/// Deterministic backpressure: capacity-1 queues with depth-1
/// micro-batches force maximum stalling on a 4-stage pipeline, at every
/// worker count (including more workers than stages). No deadlock, and
/// the bits don't move.
#[test]
fn capacity_one_backpressure_completes_with_identical_bits() {
    let master = wide_ann(13, 6, 4, 77);
    let input = MAX_RF_IN_CORE + 13;
    let mut r = ChaCha8Rng::seed_from_u64(5);
    let x = Tensor::rand_uniform(&[9, input], 0.0, 1.0, &mut r);
    let mut seq = ShardedAnalogNetwork::layer_pipelined(master.clone(), 4).unwrap();
    let want = seq.forward(&x).unwrap();
    for workers in WORKER_COUNTS {
        let cfg = PipelineConfig {
            micro_batch: 1,
            workers,
            queue_capacity: 1,
        };
        let mut pipe = ShardedAnalogNetwork::layer_pipelined(master.clone(), 4).unwrap();
        let got = pipe.forward_pipelined(&x, &cfg).unwrap();
        assert_bits_equal(&format!("backpressure w={workers}"), &want, &got);
        assert_eq!(seq.waves(), pipe.waves());
        assert_eq!(seq.traffic(), pipe.traffic());
    }
}

/// Two-stage pipelined SNN smoke for the native-CPU CI job: fast, no
/// proptest, exercises encode-at-head serialization plus the journal
/// replay under real pool concurrency.
#[test]
fn two_stage_pipeline_smoke() {
    let master = wide_snn(9, 5, 3, 21);
    let input = MAX_RF_IN_CORE + 9;
    let mut r = ChaCha8Rng::seed_from_u64(2);
    let x = Tensor::rand_uniform(&[2, input], 0.0, 1.0, &mut r);
    let mut seq = ShardedSpikingNetwork::layer_pipelined(master.clone(), 2).unwrap();
    let mut r_seq = ChaCha8Rng::seed_from_u64(7);
    let want = seq.run(&x, 6, &mut r_seq).unwrap();
    let mut pipe = ShardedSpikingNetwork::layer_pipelined(master, 2).unwrap();
    let mut r_pipe = ChaCha8Rng::seed_from_u64(7);
    let got = pipe
        .run_pipelined(&x, 6, &mut r_pipe, &PipelineConfig::default())
        .unwrap();
    assert_bits_equal("two-stage smoke", &want, &got);
    assert_eq!(seq.waves(), pipe.waves());
    assert_eq!(seq.traffic(), pipe.traffic());
    assert_eq!(
        seq.read_energy().0.to_bits(),
        pipe.read_energy().0.to_bits(),
        "default path energy"
    );
}

/// Dead ring links surface from the journal replay with the same error
/// kind the sequential walk raises — and a detourable topology (4-chip
/// ring, one dead link) still completes with identical traffic.
#[test]
fn pipelined_dead_link_errors_or_detours_like_sequential() {
    let master = wide_snn(5, 5, 3, 31);
    let input = MAX_RF_IN_CORE + 5;
    let x = Tensor::from_vec(vec![1.0; input], &[1, input]).unwrap();
    let cfg = PipelineConfig::default();
    // Two chips share one link: severing the ring must fail loudly.
    let mut pipe = ShardedSpikingNetwork::tensor_sharded(master.clone(), 2).unwrap();
    pipe.cluster_mut().fail_link(0).unwrap();
    let mut r = ChaCha8Rng::seed_from_u64(1);
    let err = pipe.run_pipelined(&x, 1, &mut r, &cfg).unwrap_err();
    assert!(
        matches!(err, nebula_core::analog::AnalogError::Noc(_)),
        "got {err:?}"
    );
    // A 4-chip ring detours the long way; traffic must match the
    // sequential walk on the same wounded topology.
    let mut seq = ShardedSpikingNetwork::tensor_sharded(master.clone(), 4).unwrap();
    seq.cluster_mut().fail_link(0).unwrap();
    let mut r_seq = ChaCha8Rng::seed_from_u64(1);
    let want = seq.run(&x, 2, &mut r_seq).unwrap();
    let mut pipe4 = ShardedSpikingNetwork::tensor_sharded(master, 4).unwrap();
    pipe4.cluster_mut().fail_link(0).unwrap();
    let mut r_pipe = ChaCha8Rng::seed_from_u64(1);
    let got = pipe4.run_pipelined(&x, 2, &mut r_pipe, &cfg).unwrap();
    assert_bits_equal("dead-link detour", &want, &got);
    assert_eq!(seq.traffic(), pipe4.traffic());
    assert!(pipe4.traffic().link_flit_hops > 0);
}
