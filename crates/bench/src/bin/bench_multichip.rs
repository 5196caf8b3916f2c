//! Multi-chip scaling: throughput, capacity, inter-chip NoC energy and
//! — new in schema /2 — **measured wall-clock pipeline speedup** across
//! cluster sizes N ∈ {1, 2, 4, 8}.
//!
//! Four studies per run:
//!
//! * **Plan** — VGG/13 in SNN mode planned layer-pipelined onto each
//!   cluster size ([`plan_cluster`]): stages used, bottleneck cycles
//!   and the analytic throughput speedup at batch depths {1, 8, 64}.
//!   The partitioner may use fewer chips than offered once one stage
//!   dominates — the honest saturation point is part of the result.
//! * **Execution** — a wide 9-segment MLP (ANN and SNN) actually runs
//!   on every cluster size under both strategies, through the same
//!   circuit-level executors the single-chip engine uses. Every leg
//!   runs **three** times: single-chip, then sharded through the
//!   pipeline executor ([`ShardedAnalogNetwork::forward`] /
//!   [`ShardedSpikingNetwork::run`]) under two schedules set with
//!   `set_pipeline` — one claimant with the whole batch as one item
//!   (the sequential schedule, `sharded_ms`) and the default
//!   [`PipelineConfig`] (`pipelined_ms`). All three must agree bitwise
//!   on outputs and wave counts, the two schedules must report
//!   identical cluster traffic, and read energy must match the single
//!   chip to ≤1e-9 relative. `measured_speedup` is sequential over
//!   pipelined wall time; `modeled_speedup` is the PR 9 analytic plan
//!   at the same item count, and `speedup_ratio` their agreement.
//! * **Scaled VGG/13 SNN** — a channels/8 VGG-13 on 16×16 inputs,
//!   sharded with the cost-aware
//!   [`ShardedSpikingNetwork::layer_pipelined_for_input`] splitter, is
//!   the headline measured-speedup leg: on a multi-core runner
//!   (`NEBULA_THREADS ≥ 4` with ≥ 4 hardware threads) the 4-chip
//!   pipelined run must beat the sequential schedule by ≥ 1.5×. On a
//!   single-CPU host the leg still runs, still checks bitwise
//!   identity, and records the honest ≈1× number.
//! * **Over-capacity** — a 16384-wide dense layer needs 16 ANN cores,
//!   two more than one chip's pool: [`fits_chip`] rejects it with a
//!   typed [`CapacityExceeded`](nebula_core::CapacityExceeded), the
//!   tensor-sharded executor runs it
//!   on 4 chips (under the sequential *and* the default schedule), and the output still
//!   matches the (hypothetical) single-chip computation bit for bit.
//!   Sharding buys capacity, the pipeline buys throughput.
//!
//! Writes `results/BENCH_multichip.json` (schema
//! `nebula-bench-multichip/2`, documented in `EXPERIMENTS.md`).
//! `NEBULA_MULTICHIP_SAMPLES` overrides the batch rows (CI smoke runs
//! 2); `NEBULA_MULTICHIP_DEPTH` overrides the ANN micro-batch depth;
//! `NEBULA_THREADS` sizes the worker pool the pipeline claimants ride.
//! The binary aborts on any divergence.

use std::time::Instant;

use nebula_bench::measure::{bits_equal, ms, rel_err, sample_count};
use nebula_core::analog::{compile_ann, AnalogNetwork};
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula_core::capacity::fits_chip;
use nebula_core::chip::ChipConfig;
use nebula_core::energy::{EnergyModel, ExecMode};
use nebula_core::multichip::{
    plan_cluster, ClusterConfig, PipelineConfig, ShardStrategy, ShardedAnalogNetwork,
    ShardedSpikingNetwork,
};
use nebula_nn::layer::Layer;
use nebula_nn::network::Network;
use nebula_nn::snn::{IfPopulation, InputEncoding, ResetMode, SnnStage, SpikingNetwork};
use nebula_nn::stats::LayerDescriptor;
use nebula_noc::TrafficStats;
use nebula_tensor::Tensor;
use nebula_workloads::zoo;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Accumulated per-row-sum energy tolerance vs the reference.
const ENERGY_RTOL: f64 = 1e-9;

/// Cluster sizes swept in the plan and wide-MLP execution studies.
const CHIPS: [usize; 4] = [1, 2, 4, 8];

/// Cluster sizes for the scaled VGG/13 measured leg.
const VGG_CHIPS: [usize; 3] = [1, 2, 4];

/// Batch depths the analytic pipeline speedup is quoted at.
const PLAN_DEPTHS: [u64; 3] = [1, 8, 64];

/// The headline plan depth (kept from schema /1).
const PLAN_BATCHES: u64 = 64;

/// SNN timesteps for the wide-MLP execution legs.
const TIMESTEPS: usize = 12;

/// SNN timesteps for the scaled VGG/13 leg — also its pipeline item
/// count, so it sets how far the fill latency is amortised.
const VGG_TIMESTEPS: usize = 16;

/// Segments in the wide execution MLP's first layer (2048 rows each).
const WIDE_SEGMENTS: usize = 9;

/// The pipelined schedule for every leg: the default, with the ANN
/// micro-batch depth overridable through `NEBULA_MULTICHIP_DEPTH`
/// (a positive integer; anything else keeps the default).
fn pipeline_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    if let Some(depth) = std::env::var("NEBULA_MULTICHIP_DEPTH")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&d| d >= 1)
    {
        cfg.micro_batch = depth;
    }
    cfg
}

/// The sequential schedule every leg is timed against: one claimant,
/// the whole batch as one item.
fn sequential_config() -> PipelineConfig {
    PipelineConfig {
        micro_batch: usize::MAX,
        workers: 1,
        ..PipelineConfig::default()
    }
}

/// The wide execution MLP: first layer spans [`WIDE_SEGMENTS`] crossbar
/// segments, so tensor sharding splits real state on every cluster
/// size in the sweep.
fn wide_input() -> usize {
    WIDE_SEGMENTS * 2048 - 1835 // 16597 → 9 segments, last one ragged
}

fn wide_ann(seed: u64) -> AnalogNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::dense(wide_input(), 48, &mut r),
        Layer::relu(),
        Layer::dense(48, 10, &mut r),
    ]);
    compile_ann(&net).unwrap()
}

fn wide_snn(seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::dense(wide_input(), 48, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::dense(48, 10, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Zero)),
        ],
        InputEncoding::Poisson,
    );
    compile_snn_default(&snn).unwrap()
}

/// Plan-study descriptors for the wide MLP, so each execution leg can
/// quote the analytic speedup the measured number is judged against.
fn wide_descriptors() -> Vec<LayerDescriptor> {
    vec![
        LayerDescriptor::dense(0, "fc0", wide_input(), 48),
        LayerDescriptor::dense(1, "fc1", 48, 10),
    ]
}

/// Channel pairs of the five VGG-13 conv blocks at 1/8 width.
const VGG_BLOCKS: [[(usize, usize); 2]; 5] = [
    [(3, 8), (8, 8)],
    [(8, 16), (16, 16)],
    [(16, 32), (32, 32)],
    [(32, 64), (64, 64)],
    [(64, 64), (64, 64)],
];

/// Scaled VGG-13 SNN for 16×16 RGB inputs: ten 3×3 convs in five
/// blocks at 1/8 the paper's channel widths, average pools between the
/// first four blocks (the fifth runs at 1×1, where VGG's final pool
/// has nothing left to shrink), then flatten and two dense layers.
/// Every synaptic stage — pools included, matching the converter's
/// placement — is followed by an integrate-and-fire population.
fn scaled_vgg13_snn(classes: usize, seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let mut stages = Vec::new();
    for (block, pair) in VGG_BLOCKS.iter().enumerate() {
        for &(in_c, out_c) in pair {
            stages.push(SnnStage::Synaptic(Layer::conv2d(
                in_c, out_c, 3, 1, 1, &mut r,
            )));
            stages.push(SnnStage::IntegrateFire(IfPopulation::new(
                0.7,
                ResetMode::Subtract,
            )));
        }
        if block < 4 {
            stages.push(SnnStage::Synaptic(Layer::avg_pool(2)));
            stages.push(SnnStage::IntegrateFire(IfPopulation::new(
                0.7,
                ResetMode::Subtract,
            )));
        }
    }
    stages.push(SnnStage::Synaptic(Layer::flatten()));
    stages.push(SnnStage::Synaptic(Layer::dense(64, 64, &mut r)));
    stages.push(SnnStage::IntegrateFire(IfPopulation::new(
        0.7,
        ResetMode::Subtract,
    )));
    stages.push(SnnStage::Synaptic(Layer::dense(64, classes, &mut r)));
    stages.push(SnnStage::IntegrateFire(IfPopulation::new(
        0.7,
        ResetMode::Zero,
    )));
    compile_snn_default(&SpikingNetwork::new(stages, InputEncoding::Poisson)).unwrap()
}

/// Plan-study descriptors matching [`scaled_vgg13_snn`] geometry.
fn scaled_vgg13_descriptors(classes: usize) -> Vec<LayerDescriptor> {
    let mut d = Vec::new();
    let mut hw = 16usize;
    for (block, pair) in VGG_BLOCKS.iter().enumerate() {
        for (j, &(in_c, out_c)) in pair.iter().enumerate() {
            let name = format!("conv{}_{}", block + 1, j + 1);
            d.push(LayerDescriptor::conv(
                d.len(),
                name,
                in_c,
                out_c,
                3,
                1,
                1,
                (hw, hw),
            ));
        }
        if block < 4 {
            hw /= 2;
        }
    }
    d.push(LayerDescriptor::dense(d.len(), "fc1", 64, 64));
    d.push(LayerDescriptor::dense(d.len(), "fc2", 64, classes));
    d
}

struct PlanPoint {
    chips: usize,
    stages: usize,
    bottleneck_cycles: u64,
    single_pass_cycles: u64,
    speedup: f64,
    speedup_at_depth: [f64; PLAN_DEPTHS.len()],
    max_chip_cores: usize,
}

struct ExecPoint {
    model: &'static str,
    mode: &'static str,
    strategy: &'static str,
    chips: usize,
    single_ms: f64,
    sharded_ms: f64,
    pipelined_ms: f64,
    modeled_speedup: f64,
    measured_speedup: f64,
    speedup_ratio: f64,
    read_energy_j: f64,
    noc_energy_j: f64,
    noc_energy_share: f64,
    link_flit_hops: u64,
    identical: bool,
    energy_rel_err: f64,
}

/// Folds the three runs of one leg into an [`ExecPoint`], enforcing
/// the identity contract: both sharded schedules bitwise-match the
/// single-chip outputs and waves, report the *same* cluster traffic
/// (all [`TrafficStats`] fields, link flit-hops included), and land
/// within [`ENERGY_RTOL`] of the single-chip read energy.
#[allow(clippy::too_many_arguments)]
fn finish_point(
    model: &'static str,
    mode: &'static str,
    strategy: &'static str,
    chips: usize,
    times: (f64, f64, f64),
    modeled_speedup: f64,
    outputs: (&Tensor, &Tensor, &Tensor),
    energies: (f64, f64, f64),
    waves_ok: bool,
    traffic_seq: TrafficStats,
    traffic_pipe: TrafficStats,
    energy_model: &EnergyModel,
) -> ExecPoint {
    let (single_ms, sharded_ms, pipelined_ms) = times;
    let (want, got_seq, got_pipe) = outputs;
    let (e_single, e_seq, e_pipe) = energies;
    let energy_rel_err = rel_err(e_seq, e_single).max(rel_err(e_pipe, e_single));
    let identical = bits_equal(want, got_seq)
        && bits_equal(want, got_pipe)
        && waves_ok
        && traffic_seq == traffic_pipe
        && energy_rel_err <= ENERGY_RTOL;
    let noc_energy_j = energy_model.noc_traffic_energy(&traffic_seq).0;
    let measured_speedup = sharded_ms / pipelined_ms.max(1e-9);
    let speedup_ratio = if modeled_speedup.is_finite() && modeled_speedup > 0.0 {
        measured_speedup / modeled_speedup
    } else {
        f64::NAN
    };
    ExecPoint {
        model,
        mode,
        strategy,
        chips,
        single_ms,
        sharded_ms,
        pipelined_ms,
        modeled_speedup,
        measured_speedup,
        speedup_ratio,
        read_energy_j: e_seq,
        noc_energy_j,
        noc_energy_share: noc_energy_j / (noc_energy_j + e_seq).max(1e-300),
        link_flit_hops: traffic_seq.link_flit_hops,
        identical,
        energy_rel_err,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_ann_point(
    model: &'static str,
    strategy: ShardStrategy,
    chips: usize,
    ann: &AnalogNetwork,
    x: &Tensor,
    cfg: &PipelineConfig,
    modeled_speedup: f64,
    energy_model: &EnergyModel,
) -> ExecPoint {
    let mut single = ann.clone();
    let tm = Instant::now();
    let want = single.forward(x).unwrap();
    let single_ms = ms(tm);

    let mut seq = ShardedAnalogNetwork::new(ann.clone(), chips, strategy).unwrap();
    seq.set_pipeline(sequential_config());
    let tm = Instant::now();
    let got_seq = seq.forward(x).unwrap();
    let sharded_ms = ms(tm);

    let mut pipe = ShardedAnalogNetwork::new(ann.clone(), chips, strategy).unwrap();
    pipe.set_pipeline(cfg.clone());
    let tm = Instant::now();
    let got_pipe = pipe.forward(x).unwrap();
    let pipelined_ms = ms(tm);

    let waves_ok = single.waves() == seq.waves() && seq.waves() == pipe.waves();
    finish_point(
        model,
        "ann",
        strategy.name(),
        chips,
        (single_ms, sharded_ms, pipelined_ms),
        modeled_speedup,
        (&want, &got_seq, &got_pipe),
        (
            single.read_energy().0,
            seq.read_energy().0,
            pipe.read_energy().0,
        ),
        waves_ok,
        seq.traffic(),
        pipe.traffic(),
        energy_model,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_snn_point(
    model: &'static str,
    strategy: &'static str,
    chips: usize,
    snn: &AnalogSpikingNetwork,
    build: &dyn Fn(AnalogSpikingNetwork, usize) -> ShardedSpikingNetwork,
    x: &Tensor,
    timesteps: usize,
    cfg: &PipelineConfig,
    modeled_speedup: f64,
    energy_model: &EnergyModel,
) -> ExecPoint {
    let mut single = snn.clone();
    let mut r1 = ChaCha8Rng::seed_from_u64(7);
    let tm = Instant::now();
    let want = single.run(x, timesteps, &mut r1).unwrap();
    let single_ms = ms(tm);

    let mut seq = build(snn.clone(), chips);
    seq.set_pipeline(sequential_config());
    let mut r2 = ChaCha8Rng::seed_from_u64(7);
    let tm = Instant::now();
    let got_seq = seq.run(x, timesteps, &mut r2).unwrap();
    let sharded_ms = ms(tm);

    let mut pipe = build(snn.clone(), chips);
    pipe.set_pipeline(cfg.clone());
    let mut r3 = ChaCha8Rng::seed_from_u64(7);
    let tm = Instant::now();
    let got_pipe = pipe.run(x, timesteps, &mut r3).unwrap();
    let pipelined_ms = ms(tm);

    let waves_ok = single.waves() == seq.waves() && seq.waves() == pipe.waves();
    finish_point(
        model,
        "snn",
        strategy,
        chips,
        (single_ms, sharded_ms, pipelined_ms),
        modeled_speedup,
        (&want, &got_seq, &got_pipe),
        (
            single.read_energy().0,
            seq.read_energy().0,
            pipe.read_energy().0,
        ),
        waves_ok,
        seq.traffic(),
        pipe.traffic(),
        energy_model,
    )
}

fn modeled_speedup_for(
    descriptors: &[LayerDescriptor],
    chips: usize,
    strategy: ShardStrategy,
    mode: ExecMode,
    items: u64,
) -> f64 {
    plan_cluster(descriptors, &ClusterConfig::new(chips, strategy), mode)
        .map(|p| p.speedup(items))
        .unwrap_or(f64::NAN)
}

fn main() {
    let samples = sample_count("NEBULA_MULTICHIP_SAMPLES", 4);
    let workers = nebula_tensor::pool::size();
    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let cfg = pipeline_config();
    let energy_model = EnergyModel::default();

    // --- Plan study: VGG/13 SNN layer-pipelined across cluster sizes --
    let vgg = zoo::vgg13(10);
    let mut plan_points = Vec::new();
    for &chips in &CHIPS {
        let plan = plan_cluster(
            &vgg,
            &ClusterConfig::new(chips, ShardStrategy::LayerPipelined),
            ExecMode::Snn { timesteps: 1 },
        )
        .unwrap();
        let mut speedup_at_depth = [0.0; PLAN_DEPTHS.len()];
        for (slot, &depth) in speedup_at_depth.iter_mut().zip(&PLAN_DEPTHS) {
            *slot = plan.speedup(depth);
        }
        plan_points.push(PlanPoint {
            chips,
            stages: plan.stage_count,
            bottleneck_cycles: plan.bottleneck_cycles,
            single_pass_cycles: plan.single_pass_cycles,
            speedup: plan.speedup(PLAN_BATCHES),
            speedup_at_depth,
            max_chip_cores: plan.per_chip_cores.iter().copied().max().unwrap_or(0),
        });
    }

    // --- Execution study: wide MLP, both modes × strategies × N -------
    let ann = wide_ann(2026);
    let snn = wide_snn(2027);
    let mut r = ChaCha8Rng::seed_from_u64(99);
    let x = Tensor::rand_uniform(&[samples, wide_input()], 0.0, 1.0, &mut r);
    let wide_desc = wide_descriptors();
    let ann_items = samples.div_ceil(cfg.micro_batch.max(1)) as u64;
    let mut exec_points = Vec::new();
    for strategy in [ShardStrategy::LayerPipelined, ShardStrategy::TensorSharded] {
        for &chips in &CHIPS {
            let modeled =
                modeled_speedup_for(&wide_desc, chips, strategy, ExecMode::Ann, ann_items);
            exec_points.push(run_ann_point(
                "wide_mlp",
                strategy,
                chips,
                &ann,
                &x,
                &cfg,
                modeled,
                &energy_model,
            ));
        }
    }
    for strategy in [ShardStrategy::LayerPipelined, ShardStrategy::TensorSharded] {
        for &chips in &CHIPS {
            let modeled = modeled_speedup_for(
                &wide_desc,
                chips,
                strategy,
                ExecMode::Snn {
                    timesteps: TIMESTEPS as u32,
                },
                TIMESTEPS as u64,
            );
            exec_points.push(run_snn_point(
                "wide_mlp",
                strategy.name(),
                chips,
                &snn,
                &|net, c| ShardedSpikingNetwork::new(net, c, strategy).unwrap(),
                &x,
                TIMESTEPS,
                &cfg,
                modeled,
                &energy_model,
            ));
        }
    }

    // --- Scaled VGG/13 SNN: the measured-speedup headline leg ---------
    let vgg_snn = scaled_vgg13_snn(10, 4242);
    let vgg_desc = scaled_vgg13_descriptors(10);
    let mut r_vgg = ChaCha8Rng::seed_from_u64(424);
    let x_vgg = Tensor::rand_uniform(&[samples, 3, 16, 16], 0.0, 1.0, &mut r_vgg);
    for &chips in &VGG_CHIPS {
        let modeled = modeled_speedup_for(
            &vgg_desc,
            chips,
            ShardStrategy::LayerPipelined,
            ExecMode::Snn {
                timesteps: VGG_TIMESTEPS as u32,
            },
            VGG_TIMESTEPS as u64,
        );
        let shape = x_vgg.shape().to_vec();
        exec_points.push(run_snn_point(
            "scaled_vgg13",
            ShardStrategy::LayerPipelined.name(),
            chips,
            &vgg_snn,
            &move |net, c| {
                ShardedSpikingNetwork::layer_pipelined_for_input(net, c, &shape).unwrap()
            },
            &x_vgg,
            VGG_TIMESTEPS,
            &cfg,
            modeled,
            &energy_model,
        ));
    }

    // --- Over-capacity study ------------------------------------------
    // 16384×256 dense: 16 ANN cores > the 14-core pool. One chip rejects
    // it with a typed error; 4 tensor-sharded chips run it — under both
    // the sequential and the pipelined schedule.
    let oc_desc = vec![LayerDescriptor::dense(0, "wide_fc", 16384, 256)];
    let oc_err = fits_chip(&oc_desc, &ChipConfig::default(), ExecMode::Ann)
        .expect_err("wide_fc must overflow one chip's ANN pool");
    let oc_plan = plan_cluster(
        &oc_desc,
        &ClusterConfig::new(4, ShardStrategy::TensorSharded),
        ExecMode::Ann,
    )
    .unwrap();
    let mut r_oc = ChaCha8Rng::seed_from_u64(5150);
    let oc_net = compile_ann(&Network::new(vec![Layer::dense(16384, 256, &mut r_oc)])).unwrap();
    let x_oc = Tensor::rand_uniform(&[2, 16384], 0.0, 1.0, &mut r_oc);
    let oc_want = oc_net.clone().forward(&x_oc).unwrap();
    let mut oc_sharded =
        ShardedAnalogNetwork::new(oc_net.clone(), 4, ShardStrategy::TensorSharded).unwrap();
    oc_sharded.set_pipeline(sequential_config());
    let oc_got = oc_sharded.forward(&x_oc).unwrap();
    let mut oc_pipe = ShardedAnalogNetwork::new(oc_net, 4, ShardStrategy::TensorSharded).unwrap();
    oc_pipe.set_pipeline(cfg.clone());
    let oc_got_pipe = oc_pipe.forward(&x_oc).unwrap();
    let oc_identical = bits_equal(&oc_want, &oc_got);
    let oc_pipelined_identical =
        bits_equal(&oc_want, &oc_got_pipe) && oc_sharded.traffic() == oc_pipe.traffic();
    let oc_max_chip_cores = oc_plan.per_chip_cores.iter().copied().max().unwrap_or(0);

    // --- JSON ----------------------------------------------------------
    let all_identical =
        exec_points.iter().all(|p| p.identical) && oc_identical && oc_pipelined_identical;
    let max_energy_err = exec_points
        .iter()
        .map(|p| p.energy_rel_err)
        .fold(0.0, f64::max);
    let speedup_at_4 = plan_points
        .iter()
        .find(|p| p.chips == 4)
        .map(|p| p.speedup)
        .unwrap_or(f64::NAN);
    let vgg_at_4 = exec_points
        .iter()
        .find(|p| p.model == "scaled_vgg13" && p.chips == 4)
        .expect("VGG/13 leg at 4 chips");
    let measured_at_4 = vgg_at_4.measured_speedup;
    let modeled_at_4 = vgg_at_4.modeled_speedup;
    // The measured wall-clock gate only arms where overlap is physically
    // possible: ≥4 pool workers on ≥4 hardware threads. A 1-CPU host
    // still runs the leg and records its honest ≈1× number.
    let gate_armed = workers >= 4 && hw_threads >= 4;

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"nebula-bench-multichip/2\",\n");
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"hw_threads\": {hw_threads},\n"));
    json.push_str(&format!("  \"micro_batch\": {},\n", cfg.micro_batch));
    json.push_str(&format!("  \"queue_capacity\": {},\n", cfg.queue_capacity));
    json.push_str(&format!("  \"plan_batches\": {PLAN_BATCHES},\n"));
    json.push_str("  \"plan\": [\n");
    for (i, p) in plan_points.iter().enumerate() {
        let depths: Vec<String> = PLAN_DEPTHS
            .iter()
            .zip(&p.speedup_at_depth)
            .map(|(d, s)| format!("\"{d}\": {s:.4}"))
            .collect();
        json.push_str(&format!(
            "    {{\"model\": \"vgg13\", \"mode\": \"snn\", \"strategy\": \"layer_pipelined\", \"chips\": {}, \"stages\": {}, \"bottleneck_cycles\": {}, \"single_pass_cycles\": {}, \"speedup\": {:.4}, \"speedup_at_depth\": {{{}}}, \"max_chip_cores\": {}}}{}\n",
            p.chips,
            p.stages,
            p.bottleneck_cycles,
            p.single_pass_cycles,
            p.speedup,
            depths.join(", "),
            p.max_chip_cores,
            if i + 1 < plan_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"execution\": [\n");
    for (i, p) in exec_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"mode\": \"{}\", \"strategy\": \"{}\", \"chips\": {}, \"single_ms\": {:.3}, \"sharded_ms\": {:.3}, \"pipelined_ms\": {:.3}, \"modeled_speedup\": {:.4}, \"measured_speedup\": {:.4}, \"speedup_ratio\": {:.4}, \"read_energy_j\": {:.6e}, \"noc_energy_j\": {:.6e}, \"noc_energy_share\": {:.6}, \"link_flit_hops\": {}, \"identical\": {}, \"energy_rel_err\": {:.3e}}}{}\n",
            p.model,
            p.mode,
            p.strategy,
            p.chips,
            p.single_ms,
            p.sharded_ms,
            p.pipelined_ms,
            p.modeled_speedup,
            p.measured_speedup,
            p.speedup_ratio,
            p.read_energy_j,
            p.noc_energy_j,
            p.noc_energy_share,
            p.link_flit_hops,
            p.identical,
            p.energy_rel_err,
            if i + 1 < exec_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"over_capacity\": {{\"model\": \"wide_fc 16384x256\", \"mode\": \"ann\", \"unsharded_error\": \"{}\", \"demanded\": {}, \"available\": {}, \"sharded_chips\": 4, \"max_chip_cores\": {}, \"ran_sharded\": true, \"identical\": {}, \"pipelined_identical\": {}}},\n",
        oc_err.to_string().replace('"', "\\\""),
        oc_err.demanded,
        oc_err.available,
        oc_max_chip_cores,
        oc_identical,
        oc_pipelined_identical
    ));
    json.push_str(&format!(
        "  \"summary\": {{\"identical\": {}, \"max_energy_rel_err\": {:.3e}, \"pipeline_speedup_at_4_chips\": {:.4}, \"measured_speedup_at_4_chips\": {:.4}, \"modeled_speedup_at_4_chips\": {:.4}, \"wall_clock_gate_armed\": {}}}\n",
        all_identical, max_energy_err, speedup_at_4, measured_at_4, modeled_at_4, gate_armed
    ));
    json.push_str("}\n");

    let path = if std::path::Path::new("results").is_dir() {
        "results/BENCH_multichip.json"
    } else {
        "BENCH_multichip.json"
    };
    std::fs::write(path, &json).expect("write BENCH_multichip.json");

    println!("BENCH multichip ({samples} samples, {workers} workers, {hw_threads} hw threads), written to {path}\n");
    println!("  plan: VGG/13 SNN layer-pipelined, speedup at depths {PLAN_DEPTHS:?}");
    for p in &plan_points {
        println!(
            "    chips {:>2}  stages {:>2}  bottleneck {:>12} cyc  speedup {:>6.3} | {:>6.3} | {:>6.3}  max cores/chip {:>3}",
            p.chips,
            p.stages,
            p.bottleneck_cycles,
            p.speedup_at_depth[0],
            p.speedup_at_depth[1],
            p.speedup_at_depth[2],
            p.max_chip_cores
        );
    }
    println!(
        "\n  execution: {samples} samples, micro-batch {}",
        cfg.micro_batch
    );
    for p in &exec_points {
        println!(
            "    {:<12} {:>3} {:<15} chips {:>2}  seq {:>8.1} ms  pipe {:>8.1} ms  measured {:>5.2}x  modeled {:>5.2}x  identical: {}",
            p.model,
            p.mode,
            p.strategy,
            p.chips,
            p.sharded_ms,
            p.pipelined_ms,
            p.measured_speedup,
            p.modeled_speedup,
            p.identical,
        );
    }
    println!(
        "\n  over-capacity: wide_fc demanded {} > {} available → \"{}\"; ran tensor-sharded on 4 chips (max {}/chip), identical: {} (pipelined: {})",
        oc_err.demanded,
        oc_err.available,
        oc_err,
        oc_max_chip_cores,
        oc_identical,
        oc_pipelined_identical
    );
    println!(
        "\n  VGG/13 SNN at 4 chips: measured {measured_at_4:.2}x vs modeled {modeled_at_4:.2}x (wall-clock gate {})",
        if gate_armed { "armed" } else { "disarmed: needs ≥4 workers on ≥4 hw threads" }
    );

    assert!(all_identical, "sharded execution diverged from single-chip");
    assert!(
        max_energy_err <= ENERGY_RTOL,
        "sharded energy deviated {max_energy_err:.3e} > {ENERGY_RTOL:.0e} relative"
    );
    assert!(
        speedup_at_4 > 1.5,
        "4-chip modeled pipeline speedup {speedup_at_4:.3} ≤ 1.5 at depth {PLAN_BATCHES}"
    );
    if gate_armed {
        assert!(
            measured_at_4 >= 1.5,
            "4-chip measured pipeline speedup {measured_at_4:.3} < 1.5 on VGG/13 SNN with {workers} workers"
        );
    }
    let remote_traffic = exec_points
        .iter()
        .any(|p| p.chips > 1 && p.link_flit_hops > 0);
    assert!(remote_traffic, "no leg ever crossed a chip-to-chip link");
    assert!(
        oc_err.demanded > oc_err.available,
        "over-capacity model unexpectedly fits one chip"
    );
}
