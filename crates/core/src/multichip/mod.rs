//! Multi-chip sharding: execute one network across a ring of NEBULA
//! chips, with inter-chip traffic as first-class NoC links.
//!
//! Two strategies, matching how real workloads outgrow one chip:
//!
//! * **Layer-pipelined** ([`ShardStrategy::LayerPipelined`]) —
//!   contiguous layer spans live on successive chips and batches stream
//!   through the pipeline. The planner balances per-stage latency with
//!   the linear-partition DP ([`crate::mapper::plan_stages`]); the
//!   pipeline's steady-state initiation interval is the bottleneck
//!   stage, so throughput scales until one stage dominates.
//! * **Tensor-sharded** ([`ShardStrategy::TensorSharded`]) — wide
//!   layers are split *row-wise* (along the receptive field) across
//!   chips: each chip holds some of the layer's `16M`-row crossbar
//!   segments and computes a partial sum; partials ride the ring to the
//!   home chip and reduce there. This is the strategy that makes a
//!   layer wider than one chip's core pool runnable at all.
//!
//! The functional executors ([`ShardedAnalogNetwork`],
//! [`ShardedSpikingNetwork`]) are built by *splitting an
//! already-compiled* single-chip network — programmed [`SuperTile`]s
//! move, they are never reprogrammed — and their outputs, wave counts
//! and (scalar-path) energy counters are **bit-identical** to the
//! single-chip engine. The bitwise argument:
//!
//! * Pipelined: a forward pass is a left-to-right fold over stages, so
//!   splitting the stage list at any boundary changes no operation.
//! * Tensor-sharded: the single-chip matrix already accumulates
//!   per-segment partials in ascending segment order
//!   (`out[c] += contribution(seg)` — exactly one f32 add per segment
//!   per column). A shard *is* one segment (see
//!   `ProgrammedMatrix::split_segments`), computes the identical
//!   contribution with the identical tiles, and the reducer adds shard
//!   outputs in the same ascending segment order starting from `0.0`.
//!   The only representable difference is `-0.0` vs `+0.0` partials,
//!   and `0.0 + x` normalizes `-0.0` to `+0.0` in both engines, so all
//!   bits match (asserted exhaustively in
//!   `tests/multichip_equivalence.rs`).
//!
//! Inter-chip traffic is accounted through a
//! [`nebula_noc::ChipCluster`]: one ring `send` per pipeline boundary
//! per wave, and one `multicast_across` (input fan-out) plus one
//! `reduce_across` (partial fan-in) per tensor-sharded stage per wave.
//! Payload sizes come from the real tensor shapes: 4-bit activations in
//! ANN mode, 1-bit spike bitmaps in SNN mode, 32-bit partial sums on
//! the reduction. Dead chip-to-chip links reroute the other way around
//! the ring or surface as [`AnalogError::Noc`] /
//! [`NocError::UnroutableChips`] — the same detour-or-fail fault model
//! the intra-chip mesh uses.
//!
//! Both executors have a **concurrent pipelined** entry point
//! ([`ShardedAnalogNetwork::forward_pipelined`],
//! [`ShardedSpikingNetwork::run_pipelined`]) that streams micro-batches
//! (ANN) or timesteps (SNN) through the chip stages on pool workers,
//! turning the plan's modeled overlap into measured wall-clock overlap
//! while keeping every counter bit-identical to the sequential walk —
//! see the `exec` module docs for the scheduler and the journaled
//! traffic replay that make that hold.
//!
//! [`SuperTile`]: nebula_crossbar::SuperTile
//! [`NocError::UnroutableChips`]: nebula_noc::NocError::UnroutableChips

mod exec;

pub use exec::PipelineConfig;

use exec::{
    effective_workers, run_pipeline, stage_workers, LiveSink, SourceFn, StageFn, TrafficJournal,
    TrafficSink,
};

use crate::analog::{check_finite, AnalogError, AnalogNetwork, AnalogStage, ProgrammedMatrix};
use crate::analog_snn::{
    add_bias, conv_output_shape, encode_groups, encode_with, AnalogSpikingNetwork, EventScratch,
    SnnMatrix, SpikingAnalogStage, StageGeometry,
};
use crate::capacity::CapacityExceeded;
use crate::chip::ChipConfig;
use crate::components::{MAX_RF_IN_CORE, MESH_SIDE};
use crate::energy::ExecMode;
use crate::mapper;
use crate::pipeline;
use nebula_device::units::Joules;
use nebula_nn::snn::InputEncoding;
use nebula_nn::stats::LayerDescriptor;
use nebula_noc::{ChipCluster, ClusterNode, MeshTopology, NodeId, TrafficStats, LINK_HOP_CYCLES};
use nebula_tensor::{ConvGeometry, Tensor};
use rand::Rng;

/// Bits per inter-chip activation in ANN mode (4-bit quantized values).
const ANN_ACT_BITS: u64 = 4;
/// Bits per inter-chip activation in SNN mode (binary spike bitmap).
const SNN_ACT_BITS: u64 = 1;
/// Bits per reduced partial sum (full-precision f32 on the ring).
const PARTIAL_BITS: u64 = 32;
/// The chip that owns inputs, non-sharded stages and reductions under
/// tensor sharding.
const HOME: usize = 0;

/// How a network is distributed across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Contiguous layer spans per chip; batches stream through.
    LayerPipelined,
    /// Wide layers split row-wise across chips; partials reduce to the
    /// home chip.
    TensorSharded,
}

impl ShardStrategy {
    /// `"layer_pipelined"` or `"tensor_sharded"` — the label benches
    /// report.
    pub fn name(&self) -> &'static str {
        match self {
            ShardStrategy::LayerPipelined => "layer_pipelined",
            ShardStrategy::TensorSharded => "tensor_sharded",
        }
    }
}

/// A cluster to plan against: chip count, strategy, per-chip design
/// point.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Chips in the ring.
    pub chips: usize,
    /// Distribution strategy.
    pub strategy: ShardStrategy,
    /// Per-chip configuration (core pools, mesh side).
    pub chip: ChipConfig,
}

impl ClusterConfig {
    /// A cluster of `chips` paper-default chips under `strategy`.
    pub fn new(chips: usize, strategy: ShardStrategy) -> Self {
        Self {
            chips,
            strategy,
            chip: ChipConfig::default(),
        }
    }
}

/// The analytic outcome of planning a workload onto a cluster:
/// stage/shard assignment, per-chip core demand and pipeline timing.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// Strategy planned for.
    pub strategy: ShardStrategy,
    /// Chips in the cluster.
    pub chips: usize,
    /// Pipeline stages actually used (`1` under tensor sharding).
    pub stage_count: usize,
    /// Stage index per layer (all zeros under tensor sharding).
    pub stage_of_layer: Vec<usize>,
    /// Per-stage latency of one inference pass, in 110 ns cycles.
    pub stage_cycles: Vec<u64>,
    /// Core demand per chip.
    pub per_chip_cores: Vec<usize>,
    /// The slowest stage — the pipeline's steady-state initiation
    /// interval.
    pub bottleneck_cycles: u64,
    /// One full single-chip pass (Σ over all layers) — the scaling
    /// baseline.
    pub single_pass_cycles: u64,
}

impl ClusterPlan {
    /// Cycles to drain `batches` independent inference passes through
    /// the pipeline: fill (every stage plus a link crossing per
    /// boundary) then one bottleneck interval per additional batch.
    pub fn makespan_cycles(&self, batches: u64) -> u64 {
        if batches == 0 {
            return 0;
        }
        let fill: u64 = self.stage_cycles.iter().sum::<u64>()
            + self.stage_count.saturating_sub(1) as u64 * LINK_HOP_CYCLES;
        fill + (batches - 1) * self.bottleneck_cycles.max(1)
    }

    /// Throughput speedup over one chip running the same `batches`
    /// back-to-back (`batches × single_pass / makespan`). Approaches
    /// `single_pass / bottleneck` as batches grow; `≈ 1` under tensor
    /// sharding, which buys capacity rather than throughput.
    pub fn speedup(&self, batches: u64) -> f64 {
        if batches == 0 {
            return 1.0;
        }
        (batches as f64 * self.single_pass_cycles as f64) / self.makespan_cycles(batches) as f64
    }
}

/// Plans a workload onto a cluster. Layer-pipelined planning balances
/// per-stage latency under the per-chip core pool
/// ([`crate::mapper::plan_stages`]); tensor-sharded planning deals
/// segments round-robin and checks each chip's share of every layer
/// against the pool.
///
/// # Errors
///
/// Returns [`CapacityExceeded`] when the workload cannot fit this
/// cluster under the chosen strategy — including the pipelined case of
/// a single layer wider than one chip, which only tensor sharding can
/// run.
pub fn plan_cluster(
    descriptors: &[LayerDescriptor],
    config: &ClusterConfig,
    mode: ExecMode,
) -> Result<ClusterPlan, CapacityExceeded> {
    let chips = config.chips.max(1);
    let pool = match mode {
        ExecMode::Ann => config.chip.ann_cores,
        ExecMode::Snn { .. } => config.chip.snn_cores,
    };
    let mut mappings = mapper::map_network(descriptors);
    let single_pass_cycles: u64 = mappings
        .iter()
        .map(|m| pipeline::layer_latency_cycles(m, 1))
        .sum();
    match config.strategy {
        ShardStrategy::LayerPipelined => {
            let stage_count = mapper::plan_stages(&mut mappings, chips, pool)?;
            let mut stage_cycles = vec![0u64; stage_count];
            let mut per_chip_cores = vec![0usize; chips];
            for m in &mappings {
                stage_cycles[m.stage] += pipeline::layer_latency_cycles(m, 1);
                per_chip_cores[m.stage] += m.cores;
            }
            let bottleneck_cycles = stage_cycles.iter().copied().max().unwrap_or(1);
            Ok(ClusterPlan {
                strategy: config.strategy,
                chips,
                stage_count,
                stage_of_layer: mappings.iter().map(|m| m.stage).collect(),
                stage_cycles,
                per_chip_cores,
                bottleneck_cycles,
                single_pass_cycles,
            })
        }
        ShardStrategy::TensorSharded => {
            // Segment s of every layer lands on chip s % chips; a
            // chip's share of a layer is its share of the segments.
            let mut per_chip_cores = vec![0usize; chips];
            for (m, d) in mappings.iter().zip(descriptors) {
                let segments = d.receptive_field.div_ceil(MAX_RF_IN_CORE).max(1);
                for (chip, cores) in per_chip_cores.iter_mut().enumerate() {
                    let segs_here = segments / chips + usize::from(chip < segments % chips);
                    *cores += (m.cores * segs_here).div_ceil(segments);
                }
            }
            if let Some((chip, &demand)) =
                per_chip_cores.iter().enumerate().find(|&(_, &c)| c > pool)
            {
                let widest = mappings
                    .iter()
                    .max_by_key(|m| m.cores)
                    .expect("non-empty: a chip is over pool");
                let _ = chip;
                return Err(CapacityExceeded {
                    layer_index: widest.layer_index,
                    layer: widest.name.clone(),
                    demanded: demand,
                    available: pool,
                    shortfall: demand - pool,
                });
            }
            Ok(ClusterPlan {
                strategy: config.strategy,
                chips,
                stage_count: 1,
                stage_of_layer: vec![0; mappings.len()],
                stage_cycles: vec![single_pass_cycles],
                per_chip_cores,
                bottleneck_cycles: single_pass_cycles.max(1),
                single_pass_cycles,
            })
        }
    }
}

fn default_cluster(chips: usize) -> Result<ChipCluster, AnalogError> {
    let topo = MeshTopology::new(MESH_SIDE, MESH_SIDE)?;
    Ok(ChipCluster::new(chips.max(1), topo)?)
}

fn portal(chip: usize) -> ClusterNode {
    ClusterNode {
        chip,
        node: NodeId(0),
    }
}

/// Partitions per-stage crossbar costs into contiguous chip spans and
/// returns the chip index per stage (nondecreasing from 0). Stages with
/// no crossbars (activations, pooling) cost nothing and ride with their
/// neighbours.
fn assign_spans(costs: &[u64], chips: usize) -> Vec<usize> {
    mapper::partition_balanced(costs, chips.max(1))
}

/// Unique shard chips other than `home`, in first-seen (segment) order.
fn remote_chips(shard_chips: impl Iterator<Item = usize>, home: usize) -> Vec<usize> {
    let mut remote = Vec::new();
    for c in shard_chips {
        if c != home && !remote.contains(&c) {
            remote.push(c);
        }
    }
    remote
}

/// Accounts one tensor-sharded stage's ring traffic: the home chip
/// multicasts the input wave to every remote shard chip, then remote
/// partials reduce back to the home accumulator. Purely additive
/// accounting — values carried by the reduction are ignored — but the
/// routing is real: dead links detour or error.
fn account_shard_traffic(
    cluster: &mut ChipCluster,
    home: usize,
    remote: &[usize],
    in_bits: u64,
    out_bits: u64,
) -> Result<(), AnalogError> {
    if remote.is_empty() {
        return Ok(());
    }
    let dsts: Vec<ClusterNode> = remote.iter().map(|&c| portal(c)).collect();
    cluster.multicast_across(portal(home), &dsts, in_bits)?;
    let sources: Vec<(ClusterNode, f64)> = remote.iter().map(|&c| (portal(c), 0.0)).collect();
    cluster.reduce_across(&sources, portal(home), out_bits)?;
    Ok(())
}

// ---------------------------------------------------------------------
// ANN executor
// ---------------------------------------------------------------------

/// One row-window shard of a synaptic layer: a single-segment matrix
/// living on `chip`, driving receptive-field rows `[lo, hi)`.
#[derive(Debug, Clone)]
struct AnnShard {
    chip: usize,
    lo: usize,
    hi: usize,
    matrix: ProgrammedMatrix,
}

fn shard_ann_matrix(matrix: ProgrammedMatrix, chips: usize) -> Vec<AnnShard> {
    let mut lo = 0usize;
    matrix
        .split_segments()
        .into_iter()
        .enumerate()
        .map(|(s, m)| {
            let hi = lo + m.rf;
            let shard = AnnShard {
                chip: s % chips,
                lo,
                hi,
                matrix: m,
            };
            lo = hi;
            shard
        })
        .collect()
}

#[derive(Debug, Clone)]
enum AnnUnit {
    /// A contiguous span of stages executing whole on one chip.
    Whole { chip: usize, net: AnalogNetwork },
    /// A dense layer split row-wise across chips.
    Dense {
        shards: Vec<AnnShard>,
        bias: Vec<f32>,
        cols: usize,
        rf: usize,
        /// Shard chips other than home, fixed at construction.
        remote: Vec<usize>,
        /// Reusable partial-sum accumulator (no steady-state allocs).
        acc: Vec<f32>,
    },
    /// A convolution split row-wise (along `C·KH·KW`) across chips.
    Conv {
        shards: Vec<AnnShard>,
        bias: Vec<f32>,
        geom: ConvGeometry,
        out_channels: usize,
        cols: usize,
        rf: usize,
        /// Shard chips other than home, fixed at construction.
        remote: Vec<usize>,
        /// Reusable partial-sum accumulator (no steady-state allocs).
        acc: Vec<f32>,
    },
}

impl AnnUnit {
    fn chip(&self) -> usize {
        match self {
            AnnUnit::Whole { chip, .. } => *chip,
            _ => HOME,
        }
    }
}

/// Advances one ANN unit by one wave: pure evaluation against the
/// unit's own tiles and scratch, with all shared accounting routed
/// through `sink` — the live cluster on the sequential walk, a
/// per-stage journal on the pipelined one. `workers` bounds intra-unit
/// pool parallelism (1 inside a multi-claimant pipeline stage).
fn exec_ann_unit<S: TrafficSink>(
    unit: &mut AnnUnit,
    h: &Tensor,
    sink: &mut S,
    workers: usize,
) -> Result<Tensor, AnalogError> {
    match unit {
        AnnUnit::Whole { net, .. } => net.forward_with_workers(h, workers),
        AnnUnit::Dense {
            shards,
            bias,
            cols,
            rf,
            remote,
            acc,
        } => {
            let n = h.shape()[0];
            sink.shard(
                HOME,
                remote,
                n as u64 * *rf as u64 * ANN_ACT_BITS,
                n as u64 * *cols as u64 * PARTIAL_BITS,
            )?;
            acc.clear();
            acc.resize(n * *cols, 0.0);
            let data = h.data();
            for shard in shards.iter_mut() {
                let (rf, lo, hi) = (*rf, shard.lo, shard.hi);
                let ys = shard
                    .matrix
                    .dot_batch_with(n, workers, |i| &data[i * rf + lo..i * rf + hi])?;
                for (a, v) in acc.iter_mut().zip(ys) {
                    *a += v;
                }
            }
            sink.add_waves(n as u64);
            let mut out = Tensor::zeros(&[n, *cols]);
            for (dst, y) in out.data_mut().chunks_mut(bias.len()).zip(acc.chunks(*cols)) {
                for (d, (v, b)) in dst.iter_mut().zip(y.iter().zip(bias.iter())) {
                    *d = v + b;
                }
            }
            Ok(out)
        }
        AnnUnit::Conv {
            shards,
            bias,
            geom,
            out_channels,
            cols,
            rf,
            remote,
            acc,
        } => {
            let (n, hh, ww) = (h.shape()[0], h.shape()[2], h.shape()[3]);
            let (oh, ow) = geom.out_hw(hh, ww)?;
            // The parallel and serial im2col are bit-identical; the
            // serial one is mandatory inside pipeline stages (nested
            // pool dispatch is forbidden there — see `exec`).
            let patches = if workers <= 1 {
                nebula_tensor::im2col(h, *geom)?
            } else {
                nebula_tensor::par::im2col(h, *geom)?
            };
            let spatial = oh * ow;
            let total_rows = n * spatial;
            sink.shard(
                HOME,
                remote,
                h.len() as u64 * ANN_ACT_BITS,
                total_rows as u64 * *cols as u64 * PARTIAL_BITS,
            )?;
            acc.clear();
            acc.resize(total_rows * *cols, 0.0);
            let data = patches.data();
            for shard in shards.iter_mut() {
                let (rf, lo, hi) = (*rf, shard.lo, shard.hi);
                let ys = shard
                    .matrix
                    .dot_batch_with(total_rows, workers, |ri| &data[ri * rf + lo..ri * rf + hi])?;
                for (a, v) in acc.iter_mut().zip(ys) {
                    *a += v;
                }
            }
            sink.add_waves(total_rows as u64);
            let mut out = Tensor::zeros(&[n, *out_channels, oh, ow]);
            for img in 0..n {
                for s in 0..spatial {
                    let y = &acc[(img * spatial + s) * *cols..][..*cols];
                    for (o, (&v, &b)) in y.iter().zip(bias.iter()).enumerate() {
                        out.data_mut()[img * *out_channels * spatial + o * spatial + s] = v + b;
                    }
                }
            }
            Ok(out)
        }
    }
}

/// An ANN compiled once, then distributed over a chip cluster. Built
/// from an [`AnalogNetwork`] (faults, aging and kernel-path choices
/// carry over with the moved tiles); outputs, wave counts and
/// scalar-path energy are bit-identical to the donor network's
/// [`AnalogNetwork::forward`].
#[derive(Debug, Clone)]
pub struct ShardedAnalogNetwork {
    units: Vec<AnnUnit>,
    cluster: ChipCluster,
    strategy: ShardStrategy,
    extra_waves: u64,
}

impl ShardedAnalogNetwork {
    /// Distributes `net` over `chips` chips under `strategy`.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn new(
        net: AnalogNetwork,
        chips: usize,
        strategy: ShardStrategy,
    ) -> Result<Self, AnalogError> {
        match strategy {
            ShardStrategy::LayerPipelined => Self::layer_pipelined(net, chips),
            ShardStrategy::TensorSharded => Self::tensor_sharded(net, chips),
        }
    }

    /// Pipelines `net` over `chips` chips: contiguous stage spans,
    /// balanced by crossbar (super-tile) weight.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn layer_pipelined(net: AnalogNetwork, chips: usize) -> Result<Self, AnalogError> {
        let costs: Vec<u64> = net
            .stages
            .iter()
            .map(|s| match s {
                AnalogStage::Dense { matrix, .. } | AnalogStage::Conv { matrix, .. } => {
                    matrix.supertile_count().max(1) as u64
                }
                _ => 0,
            })
            .collect();
        Self::pipelined_with_costs(net, chips, &costs)
    }

    /// Pipelines `net` over `chips` chips with stage spans balanced by
    /// *compute* (crossbar waves × receptive field × columns) for the
    /// given input shape, rather than by super-tile count. Super-tile
    /// weight is a capacity proxy; for convolutional networks the
    /// per-stage wall time is dominated by the im2col row count, which
    /// this walker knows — so the resulting spans bottleneck later. Any
    /// contiguous split is bit-identical (the forward pass is a fold
    /// over stages), so this only moves wall-clock balance.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the stages; propagates cluster-construction
    /// failures.
    pub fn layer_pipelined_for_input(
        net: AnalogNetwork,
        chips: usize,
        input_shape: &[usize],
    ) -> Result<Self, AnalogError> {
        let mut shape: Vec<usize> = input_shape.get(1..).unwrap_or_default().to_vec();
        let mut costs = Vec::with_capacity(net.stages.len());
        for stage in &net.stages {
            costs.push(match stage {
                AnalogStage::Dense { matrix, .. } => {
                    shape = vec![matrix.cols];
                    (matrix.rf as u64) * matrix.cols as u64
                }
                AnalogStage::Conv {
                    matrix,
                    geom,
                    out_channels,
                    ..
                } => {
                    if shape.len() != 3 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("conv stage fed rank-{} image", shape.len()),
                        });
                    }
                    let (oh, ow) = geom.out_hw(shape[1], shape[2])?;
                    shape = vec![*out_channels, oh, ow];
                    (oh * ow) as u64 * matrix.rf as u64 * matrix.cols as u64
                }
                AnalogStage::AvgPool { k } => {
                    if shape.len() != 3 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("pool stage fed rank-{} image", shape.len()),
                        });
                    }
                    shape = vec![shape[0], shape[1] / k, shape[2] / k];
                    0
                }
                AnalogStage::Flatten => {
                    shape = vec![shape.iter().product()];
                    0
                }
                AnalogStage::Relu | AnalogStage::Quant { .. } => 0,
            });
        }
        Self::pipelined_with_costs(net, chips, &costs)
    }

    fn pipelined_with_costs(
        net: AnalogNetwork,
        chips: usize,
        costs: &[u64],
    ) -> Result<Self, AnalogError> {
        let cluster = default_cluster(chips)?;
        let extra_waves = net.waves;
        let assignment = assign_spans(costs, chips);
        let mut units = Vec::new();
        let mut span: Vec<AnalogStage> = Vec::new();
        let mut span_chip = 0usize;
        for (stage, &chip) in net.stages.into_iter().zip(assignment.iter()) {
            if chip != span_chip && !span.is_empty() {
                units.push(AnnUnit::Whole {
                    chip: span_chip,
                    net: AnalogNetwork {
                        stages: std::mem::take(&mut span),
                        waves: 0,
                    },
                });
            }
            span_chip = chip;
            span.push(stage);
        }
        if !span.is_empty() {
            units.push(AnnUnit::Whole {
                chip: span_chip,
                net: AnalogNetwork {
                    stages: span,
                    waves: 0,
                },
            });
        }
        Ok(Self {
            units,
            cluster,
            strategy: ShardStrategy::LayerPipelined,
            extra_waves,
        })
    }

    /// Shards `net`'s multi-segment layers row-wise over `chips` chips;
    /// everything else stays on the home chip.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn tensor_sharded(net: AnalogNetwork, chips: usize) -> Result<Self, AnalogError> {
        let cluster = default_cluster(chips)?;
        let chips = chips.max(1);
        let extra_waves = net.waves;
        let mut units = Vec::new();
        let mut span: Vec<AnalogStage> = Vec::new();
        let flush = |span: &mut Vec<AnalogStage>, units: &mut Vec<AnnUnit>| {
            if !span.is_empty() {
                units.push(AnnUnit::Whole {
                    chip: HOME,
                    net: AnalogNetwork {
                        stages: std::mem::take(span),
                        waves: 0,
                    },
                });
            }
        };
        for stage in net.stages {
            match stage {
                AnalogStage::Dense { matrix, bias } if matrix.tiles.len() > 1 => {
                    flush(&mut span, &mut units);
                    let (cols, rf) = (matrix.cols, matrix.rf);
                    let shards = shard_ann_matrix(matrix, chips);
                    let remote = remote_chips(shards.iter().map(|s| s.chip), HOME);
                    units.push(AnnUnit::Dense {
                        shards,
                        bias,
                        cols,
                        rf,
                        remote,
                        acc: Vec::new(),
                    });
                }
                AnalogStage::Conv {
                    matrix,
                    bias,
                    geom,
                    out_channels,
                } if matrix.tiles.len() > 1 => {
                    flush(&mut span, &mut units);
                    let (cols, rf) = (matrix.cols, matrix.rf);
                    let shards = shard_ann_matrix(matrix, chips);
                    let remote = remote_chips(shards.iter().map(|s| s.chip), HOME);
                    units.push(AnnUnit::Conv {
                        shards,
                        bias,
                        geom,
                        out_channels,
                        cols,
                        rf,
                        remote,
                        acc: Vec::new(),
                    });
                }
                other => span.push(other),
            }
        }
        flush(&mut span, &mut units);
        Ok(Self {
            units,
            cluster,
            strategy: ShardStrategy::TensorSharded,
            extra_waves,
        })
    }

    /// The distribution strategy this network was built with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Chips in the cluster.
    pub fn chips(&self) -> usize {
        self.cluster.chips()
    }

    /// The cluster (traffic statistics live here).
    pub fn cluster(&self) -> &ChipCluster {
        &self.cluster
    }

    /// Mutable cluster access — link fault injection goes through here.
    pub fn cluster_mut(&mut self) -> &mut ChipCluster {
        &mut self.cluster
    }

    /// Cumulative cluster traffic (all meshes plus ring links).
    pub fn traffic(&self) -> TrafficStats {
        self.cluster.stats()
    }

    /// Selects the crossbar kernel path on every shard and span.
    pub fn set_kernel_path(&mut self, path: nebula_crossbar::KernelPath) {
        for unit in &mut self.units {
            match unit {
                AnnUnit::Whole { net, .. } => net.set_kernel_path(path),
                AnnUnit::Dense { shards, .. } | AnnUnit::Conv { shards, .. } => {
                    for s in shards {
                        s.matrix.set_kernel_path(path);
                    }
                }
            }
        }
    }

    /// Runs a batch through the cluster and returns the logits —
    /// bit-identical to the donor single-chip
    /// [`AnalogNetwork::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::NonFiniteInput`] for a NaN or infinite
    /// input; propagates circuit and tensor failures; inter-chip routing
    /// failures surface as [`AnalogError::Noc`].
    pub fn forward(&mut self, inputs: &Tensor) -> Result<Tensor, AnalogError> {
        check_finite(inputs)?;
        let workers = nebula_tensor::pool::size();
        let mut h = inputs.clone();
        let mut units = std::mem::take(&mut self.units);
        let result = (|| -> Result<Tensor, AnalogError> {
            let mut sink = LiveSink {
                cluster: &mut self.cluster,
                extra_waves: &mut self.extra_waves,
            };
            let mut prev_chip: Option<usize> = None;
            for unit in units.iter_mut() {
                let here = unit.chip();
                if let Some(prev) = prev_chip {
                    if prev != here {
                        // Activations cross the ring between pipeline
                        // stages: one transfer per wave per boundary.
                        sink.send(prev, here, h.len() as u64 * ANN_ACT_BITS)?;
                    }
                }
                h = exec_ann_unit(unit, &h, &mut sink, workers)?;
                prev_chip = Some(here);
            }
            Ok(h)
        })();
        self.units = units;
        result
    }

    /// [`forward`](Self::forward), executed by the concurrent pipeline:
    /// the batch is split into micro-batches of
    /// [`PipelineConfig::micro_batch`] rows that stream through the
    /// chip stages on pool workers, with per-stage traffic journaled
    /// and replayed at the join — outputs, waves, scalar energy and
    /// cluster traffic are bit-identical to the sequential walk for any
    /// worker count and depth (see the `exec` module docs).
    ///
    /// # Errors
    ///
    /// Same contract as [`forward`](Self::forward); routing failures
    /// surface from the journal replay at the join.
    pub fn forward_pipelined(
        &mut self,
        inputs: &Tensor,
        cfg: &PipelineConfig,
    ) -> Result<Tensor, AnalogError> {
        check_finite(inputs)?;
        let n = match inputs.shape().first() {
            Some(&n) => n,
            None => return self.forward(inputs),
        };
        if self.units.is_empty() || n == 0 {
            return self.forward(inputs);
        }
        let depth = cfg.micro_batch.max(1).min(n);
        let items = n.div_ceil(depth);
        let workers = effective_workers(cfg, self.units.len());
        let sw = stage_workers(workers);
        let row_elems = inputs.len() / n;
        let in_shape = inputs.shape().to_vec();
        let data = inputs.data();
        let mut units = std::mem::take(&mut self.units);
        let chips_of: Vec<usize> = units.iter().map(|u| u.chip()).collect();
        let mut journals: Vec<TrafficJournal> = (0..units.len())
            .map(|_| TrafficJournal::new(true))
            .collect();
        let result = (|| -> Result<Tensor, AnalogError> {
            let source: SourceFn<'_> = Box::new(move |idx| {
                let lo = idx * depth;
                let hi = ((idx + 1) * depth).min(n);
                let mut shape = in_shape.clone();
                shape[0] = hi - lo;
                Ok(Tensor::from_vec(
                    data[lo * row_elems..hi * row_elems].to_vec(),
                    &shape,
                )?)
            });
            let stages: Vec<StageFn<'_>> = units
                .iter_mut()
                .zip(journals.iter_mut())
                .enumerate()
                .map(|(u, (unit, journal))| {
                    let prev = u.checked_sub(1).map(|p| chips_of[p]);
                    let here = chips_of[u];
                    Box::new(move |_idx: usize, h: Tensor| {
                        if let Some(prev) = prev {
                            if prev != here {
                                journal.send(prev, here, h.len() as u64 * ANN_ACT_BITS)?;
                            }
                        }
                        exec_ann_unit(unit, &h, journal, sw)
                    }) as StageFn<'_>
                })
                .collect();
            let outs = run_pipeline(items, source, stages, workers, cfg.queue_capacity)?;
            // Concatenate micro-batch outputs in index order.
            let mut out_shape = outs[0].shape().to_vec();
            out_shape[0] = n;
            let per_row: usize = out_shape.iter().skip(1).product();
            let mut out = Vec::with_capacity(n * per_row);
            for o in &outs {
                out.extend_from_slice(o.data());
            }
            Ok(Tensor::from_vec(out, &out_shape)?)
        })();
        self.units = units;
        let out = result?;
        // The join: replay every stage's journal against the live
        // cluster in stage-major, item-ascending order. This is where
        // dead-link routing failures surface, exactly as the
        // sequential walk would raise them.
        let mut sink = LiveSink {
            cluster: &mut self.cluster,
            extra_waves: &mut self.extra_waves,
        };
        for journal in &journals {
            journal.replay(&mut sink)?;
        }
        Ok(out)
    }

    /// Total analog read energy across every chip, summed in stage then
    /// segment order — the same addition order as the single-chip
    /// engine, hence bitwise equal on the scalar path.
    pub fn read_energy(&self) -> Joules {
        self.units
            .iter()
            .map(|u| match u {
                AnnUnit::Whole { net, .. } => net.read_energy(),
                AnnUnit::Dense { shards, .. } | AnnUnit::Conv { shards, .. } => {
                    shards.iter().map(|s| s.matrix.read_energy()).sum()
                }
            })
            .sum()
    }

    /// Total programming energy (spent before sharding; tiles moved).
    pub fn program_energy(&self) -> Joules {
        self.units
            .iter()
            .map(|u| match u {
                AnnUnit::Whole { net, .. } => net.program_energy(),
                AnnUnit::Dense { shards, .. } | AnnUnit::Conv { shards, .. } => {
                    shards.iter().map(|s| s.matrix.program_energy()).sum()
                }
            })
            .sum()
    }

    /// Crossbar evaluation waves executed across the cluster — equal to
    /// the single-chip count (sharding a wave does not multiply it).
    pub fn waves(&self) -> u64 {
        self.extra_waves
            + self
                .units
                .iter()
                .map(|u| match u {
                    AnnUnit::Whole { net, .. } => net.waves(),
                    _ => 0,
                })
                .sum::<u64>()
    }
}

// ---------------------------------------------------------------------
// SNN executor
// ---------------------------------------------------------------------

/// One row-window shard of a spiking synaptic layer.
#[derive(Debug, Clone)]
struct SnnShard {
    chip: usize,
    lo: usize,
    hi: usize,
    matrix: SnnMatrix,
}

fn shard_snn_matrix(matrix: SnnMatrix, chips: usize) -> Vec<SnnShard> {
    let mut lo = 0usize;
    matrix
        .split_segments()
        .into_iter()
        .enumerate()
        .map(|(s, m)| {
            let hi = lo + m.rf;
            let shard = SnnShard {
                chip: s % chips,
                lo,
                hi,
                matrix: m,
            };
            lo = hi;
            shard
        })
        .collect()
}

#[derive(Debug, Clone)]
enum SnnUnit {
    Whole {
        chip: usize,
        net: AnalogSpikingNetwork,
    },
    Dense {
        shards: Vec<SnnShard>,
        bias: Vec<f32>,
        cols: usize,
        rf: usize,
        scratch: EventScratch,
        /// Shard chips other than home, fixed at construction.
        remote: Vec<usize>,
    },
    Conv {
        shards: Vec<SnnShard>,
        bias: Vec<f32>,
        geom: ConvGeometry,
        out_channels: usize,
        cols: usize,
        scratch: EventScratch,
        /// Shard chips other than home, fixed at construction.
        remote: Vec<usize>,
    },
}

impl SnnUnit {
    fn chip(&self) -> usize {
        match self {
            SnnUnit::Whole { chip, .. } => *chip,
            _ => HOME,
        }
    }
}

/// Advances one SNN unit by one encoded timestep wave. Mirrors
/// [`exec_ann_unit`]: pure evaluation against unit-owned state (tiles,
/// IF membranes, gather scratch), shared accounting through `sink`.
/// Unlike the ANN path, shard traffic is journaled *per timestep* and
/// silence-gated — exactly the sequential per-timestep skips.
fn exec_snn_unit<S: TrafficSink>(
    unit: &mut SnnUnit,
    h: Tensor,
    sink: &mut S,
    workers: usize,
) -> Result<Tensor, AnalogError> {
    match unit {
        SnnUnit::Whole { net, .. } => {
            let len = net.stages.len();
            net.step_range_with(h, 0..len, false, workers)
        }
        SnnUnit::Dense {
            shards,
            bias,
            cols,
            rf,
            scratch,
            remote,
        } => {
            let n = h.shape()[0];
            let geom = StageGeometry::dense(n, *rf);
            let mut out = Tensor::zeros(&[n, *cols]);
            if scatter_shards(shards, h.data(), &geom, scratch, workers, out.data_mut()) {
                // A silent wave ships nothing and touches no crossbar —
                // exactly the single-chip skip.
                sink.shard(
                    HOME,
                    remote,
                    (n * *rf) as u64 * SNN_ACT_BITS,
                    (n * *cols) as u64 * PARTIAL_BITS,
                )?;
            }
            sink.add_waves(n as u64);
            add_bias(&mut out, bias, 1);
            Ok(out)
        }
        SnnUnit::Conv {
            shards,
            bias,
            geom,
            out_channels,
            cols,
            scratch,
            remote,
        } => {
            let sg = StageGeometry::conv(h.shape(), *geom)?;
            let (n, spatial) = (sg.images, sg.patches());
            let [oh, ow] = sg.out_hw;
            let mut out = Tensor::zeros(&[n, *out_channels, oh, ow]);
            if scatter_shards(shards, h.data(), &sg, scratch, workers, out.data_mut()) {
                sink.shard(
                    HOME,
                    remote,
                    (h.len() as u64 * SNN_ACT_BITS).max(1),
                    (n * spatial * *cols) as u64 * PARTIAL_BITS,
                )?;
            }
            sink.add_waves((n * spatial) as u64);
            add_bias(&mut out, bias, spatial);
            Ok(out)
        }
    }
}

/// Drives every shard's R_f window of one spike wave, accumulating the
/// per-segment partials into `out` in shard (= segment) order — the
/// order the unsplit matrix adds them in. Returns whether any spike
/// reached any shard; the windows partition the receptive field, so
/// that is exactly whether the unsplit layer would have seen a spike.
fn scatter_shards(
    shards: &mut [SnnShard],
    spikes: &[f32],
    geom: &StageGeometry,
    scratch: &mut EventScratch,
    workers: usize,
    out: &mut [f32],
) -> bool {
    let mut hit = false;
    for shard in shards {
        let window = shard.lo..shard.hi;
        hit |= shard
            .matrix
            .scatter_spikes(spikes, geom, window, workers, scratch, out);
    }
    hit
}

/// A spiking network distributed over a chip cluster. Built from a
/// compiled [`AnalogSpikingNetwork`]; outputs, RNG consumption, wave
/// counts and scalar-path energy are bit-identical to the donor's
/// [`AnalogSpikingNetwork::run`] / `run_seeded_groups` — every wave is
/// encoded once at the pipeline head, so the Poisson draw order never
/// changes.
#[derive(Debug, Clone)]
pub struct ShardedSpikingNetwork {
    units: Vec<SnnUnit>,
    cluster: ChipCluster,
    strategy: ShardStrategy,
    encoding: InputEncoding,
    extra_waves: u64,
}

impl ShardedSpikingNetwork {
    /// Distributes `net` over `chips` chips under `strategy`.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn new(
        net: AnalogSpikingNetwork,
        chips: usize,
        strategy: ShardStrategy,
    ) -> Result<Self, AnalogError> {
        match strategy {
            ShardStrategy::LayerPipelined => Self::layer_pipelined(net, chips),
            ShardStrategy::TensorSharded => Self::tensor_sharded(net, chips),
        }
    }

    /// Pipelines `net` over `chips` chips (contiguous stage spans,
    /// balanced by super-tile weight). IF populations stay with their
    /// synaptic stage's chip, so membrane state is chip-local.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn layer_pipelined(net: AnalogSpikingNetwork, chips: usize) -> Result<Self, AnalogError> {
        let costs: Vec<u64> = net
            .stages
            .iter()
            .map(|s| match s {
                SpikingAnalogStage::Dense { matrix, .. }
                | SpikingAnalogStage::Conv { matrix, .. } => {
                    matrix.tiles.iter().map(Vec::len).sum::<usize>().max(1) as u64
                }
                _ => 0,
            })
            .collect();
        Self::pipelined_with_costs(net, chips, &costs)
    }

    /// Pipelines `net` over `chips` chips with stage spans balanced by
    /// per-timestep *compute* (crossbar rows × receptive field ×
    /// columns) for the given input shape — the SNN counterpart of
    /// [`ShardedAnalogNetwork::layer_pipelined_for_input`]. Any
    /// contiguous split is bit-identical; this only moves wall-clock
    /// balance toward the im2col-heavy convolutional stages.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the stages; propagates cluster-construction
    /// failures.
    pub fn layer_pipelined_for_input(
        net: AnalogSpikingNetwork,
        chips: usize,
        input_shape: &[usize],
    ) -> Result<Self, AnalogError> {
        let mut shape: Vec<usize> = input_shape.get(1..).unwrap_or_default().to_vec();
        let mut costs = Vec::with_capacity(net.stages.len());
        for stage in &net.stages {
            costs.push(match stage {
                SpikingAnalogStage::Dense { matrix, .. } => {
                    shape = vec![matrix.cols];
                    (matrix.rf as u64) * matrix.cols as u64
                }
                SpikingAnalogStage::Conv {
                    matrix,
                    geom,
                    out_channels,
                    ..
                } => {
                    if shape.len() != 3 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("conv stage fed rank-{} image", shape.len()),
                        });
                    }
                    let (oh, ow) = geom.out_hw(shape[1], shape[2])?;
                    shape = vec![*out_channels, oh, ow];
                    (oh * ow) as u64 * matrix.rf as u64 * matrix.cols as u64
                }
                SpikingAnalogStage::AvgPool { k } => {
                    if shape.len() != 3 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("pool stage fed rank-{} image", shape.len()),
                        });
                    }
                    shape = vec![shape[0], shape[1] / k, shape[2] / k];
                    0
                }
                SpikingAnalogStage::Flatten => {
                    shape = vec![shape.iter().product()];
                    0
                }
                SpikingAnalogStage::IntegrateFire(_) => 0,
            });
        }
        Self::pipelined_with_costs(net, chips, &costs)
    }

    fn pipelined_with_costs(
        net: AnalogSpikingNetwork,
        chips: usize,
        costs: &[u64],
    ) -> Result<Self, AnalogError> {
        let cluster = default_cluster(chips)?;
        let encoding = net.encoding;
        let extra_waves = net.timestep_waves;
        let assignment = assign_spans(costs, chips);
        let mut units = Vec::new();
        let mut span: Vec<SpikingAnalogStage> = Vec::new();
        let mut span_chip = 0usize;
        for (stage, &chip) in net.stages.into_iter().zip(assignment.iter()) {
            if chip != span_chip && !span.is_empty() {
                units.push(SnnUnit::Whole {
                    chip: span_chip,
                    net: AnalogSpikingNetwork {
                        stages: std::mem::take(&mut span),
                        encoding,
                        timestep_waves: 0,
                    },
                });
            }
            span_chip = chip;
            span.push(stage);
        }
        if !span.is_empty() {
            units.push(SnnUnit::Whole {
                chip: span_chip,
                net: AnalogSpikingNetwork {
                    stages: span,
                    encoding,
                    timestep_waves: 0,
                },
            });
        }
        Ok(Self {
            units,
            cluster,
            strategy: ShardStrategy::LayerPipelined,
            encoding,
            extra_waves,
        })
    }

    /// Shards `net`'s multi-segment synaptic layers row-wise across
    /// `chips` chips; IF populations and pooling stay on the home chip.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn tensor_sharded(net: AnalogSpikingNetwork, chips: usize) -> Result<Self, AnalogError> {
        let cluster = default_cluster(chips)?;
        let chips = chips.max(1);
        let encoding = net.encoding;
        let extra_waves = net.timestep_waves;
        let mut units = Vec::new();
        let mut span: Vec<SpikingAnalogStage> = Vec::new();
        let flush = |span: &mut Vec<SpikingAnalogStage>, units: &mut Vec<SnnUnit>| {
            if !span.is_empty() {
                units.push(SnnUnit::Whole {
                    chip: HOME,
                    net: AnalogSpikingNetwork {
                        stages: std::mem::take(span),
                        encoding,
                        timestep_waves: 0,
                    },
                });
            }
        };
        for stage in net.stages {
            match stage {
                SpikingAnalogStage::Dense { matrix, bias, .. } if matrix.tiles.len() > 1 => {
                    flush(&mut span, &mut units);
                    let (cols, rf) = (matrix.cols, matrix.rf);
                    let shards = shard_snn_matrix(matrix, chips);
                    let remote = remote_chips(shards.iter().map(|s| s.chip), HOME);
                    units.push(SnnUnit::Dense {
                        shards,
                        bias,
                        cols,
                        rf,
                        scratch: EventScratch::default(),
                        remote,
                    });
                }
                SpikingAnalogStage::Conv {
                    matrix,
                    bias,
                    geom,
                    out_channels,
                    ..
                } if matrix.tiles.len() > 1 => {
                    flush(&mut span, &mut units);
                    let cols = matrix.cols;
                    let shards = shard_snn_matrix(matrix, chips);
                    let remote = remote_chips(shards.iter().map(|s| s.chip), HOME);
                    units.push(SnnUnit::Conv {
                        shards,
                        bias,
                        geom,
                        out_channels,
                        cols,
                        scratch: EventScratch::default(),
                        remote,
                    });
                }
                other => span.push(other),
            }
        }
        flush(&mut span, &mut units);
        Ok(Self {
            units,
            cluster,
            strategy: ShardStrategy::TensorSharded,
            encoding,
            extra_waves,
        })
    }

    /// The distribution strategy this network was built with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Chips in the cluster.
    pub fn chips(&self) -> usize {
        self.cluster.chips()
    }

    /// The cluster (traffic statistics live here).
    pub fn cluster(&self) -> &ChipCluster {
        &self.cluster
    }

    /// Mutable cluster access — link fault injection goes through here.
    pub fn cluster_mut(&mut self) -> &mut ChipCluster {
        &mut self.cluster
    }

    /// Cumulative cluster traffic (all meshes plus ring links).
    pub fn traffic(&self) -> TrafficStats {
        self.cluster.stats()
    }

    /// Sets the input encoding (carried over from the donor network by
    /// default).
    pub fn set_encoding(&mut self, encoding: InputEncoding) {
        self.encoding = encoding;
    }

    /// Selects the crossbar kernel path on every shard and span.
    pub fn set_kernel_path(&mut self, path: nebula_crossbar::KernelPath) {
        for unit in &mut self.units {
            match unit {
                SnnUnit::Whole { net, .. } => net.set_kernel_path(path),
                SnnUnit::Dense { shards, .. } | SnnUnit::Conv { shards, .. } => {
                    for s in shards {
                        s.matrix.set_kernel_path(path);
                    }
                }
            }
        }
    }

    /// The checks every entry point makes once, before the first
    /// timestep: the shape must flow through every unit
    /// ([`output_shape`](Self::output_shape)) and every value must be
    /// finite.
    fn check_input(&self, inputs: &Tensor) -> Result<(), AnalogError> {
        self.output_shape(inputs.shape())?;
        check_finite(inputs)
    }

    /// Output-potential shape for `input_shape` (used by the
    /// zero-timestep corner).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the units.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        let mut shape = input_shape.to_vec();
        for unit in &self.units {
            shape = match unit {
                SnnUnit::Whole { net, .. } => net.output_shape(&shape)?,
                SnnUnit::Dense { cols, rf, .. } => {
                    if shape.len() != 2 || shape[1] != *rf {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("dense stage expects [n, {rf}], got {shape:?}"),
                        });
                    }
                    vec![shape[0], *cols]
                }
                SnnUnit::Conv {
                    shards,
                    geom,
                    out_channels,
                    ..
                } => {
                    let rf = shards.last().map_or(0, |s| s.hi);
                    conv_output_shape(&shape, rf, *geom, *out_channels)?
                }
            };
        }
        Ok(shape)
    }

    /// Runs `timesteps` of spiking inference across the cluster —
    /// bit-identical to the donor single-chip
    /// [`AnalogSpikingNetwork::run`] (the whole batch is encoded at the
    /// pipeline head each timestep, so RNG consumption matches).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the input shape does not
    /// fit the network (see [`output_shape`](Self::output_shape)) and
    /// [`AnalogError::NonFiniteInput`] for a NaN or infinite input, both
    /// before any timestep runs; propagates circuit and tensor failures;
    /// inter-chip routing failures surface as [`AnalogError::Noc`].
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<Tensor, AnalogError> {
        let encoding = self.encoding;
        self.run_with_encoder(inputs, timesteps, &mut |x: &Tensor| {
            encode_with(encoding, x, rng)
        })
    }

    /// Runs independently seeded request groups — the serving layer's
    /// entry point; bit-identical to the donor's
    /// [`AnalogSpikingNetwork::run_seeded_groups`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the group row counts
    /// don't sum to the batch size; propagates circuit, tensor and
    /// routing failures.
    pub fn run_seeded_groups(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        groups: &[(usize, u64)],
    ) -> Result<Tensor, AnalogError> {
        let n = *inputs
            .shape()
            .first()
            .ok_or_else(|| AnalogError::BadGeometry {
                reason: "rank-0 input".into(),
            })?;
        let total: usize = groups.iter().map(|&(rows, _)| rows).sum();
        if total != n {
            return Err(AnalogError::BadGeometry {
                reason: format!("seeded groups cover {total} rows, batch has {n}"),
            });
        }
        let row_elems = inputs.len().checked_div(n).unwrap_or(0);
        let encoding = self.encoding;
        let mut rngs: Vec<rand::rngs::StdRng> = groups
            .iter()
            .map(|&(_, seed)| rand::SeedableRng::seed_from_u64(seed))
            .collect();
        self.run_with_encoder(inputs, timesteps, &mut |x: &Tensor| {
            encode_groups(encoding, x, row_elems, groups, &mut rngs)
        })
    }

    fn run_with_encoder(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        encode: &mut dyn FnMut(&Tensor) -> Tensor,
    ) -> Result<Tensor, AnalogError> {
        self.check_input(inputs)?;
        for unit in &mut self.units {
            if let SnnUnit::Whole { net, .. } = unit {
                net.reset_state();
            }
        }
        let mut acc: Option<Tensor> = None;
        for _ in 0..timesteps {
            let h = self.step_timestep(encode(inputs))?;
            match &mut acc {
                Some(a) => a.add_assign(&h)?,
                none => *none = Some(h),
            }
        }
        match acc {
            Some(a) => Ok(a),
            None => Ok(Tensor::zeros(&self.output_shape(inputs.shape())?)),
        }
    }

    /// Advances one encoded spike wave through every unit in order.
    fn step_timestep(&mut self, mut h: Tensor) -> Result<Tensor, AnalogError> {
        let workers = nebula_tensor::pool::size();
        let mut units = std::mem::take(&mut self.units);
        let result = (|| -> Result<Tensor, AnalogError> {
            let mut sink = LiveSink {
                cluster: &mut self.cluster,
                extra_waves: &mut self.extra_waves,
            };
            let mut prev_chip: Option<usize> = None;
            for unit in units.iter_mut() {
                let here = unit.chip();
                if let Some(prev) = prev_chip {
                    if prev != here {
                        // Spike bitmaps cross the ring between pipeline
                        // stages once per timestep.
                        sink.send(prev, here, (h.len() as u64 * SNN_ACT_BITS).max(1))?;
                    }
                }
                h = exec_snn_unit(unit, h, &mut sink, workers)?;
                prev_chip = Some(here);
            }
            Ok(h)
        })();
        self.units = units;
        result
    }

    /// [`run`](Self::run), executed by the concurrent pipeline: each
    /// timestep is one pipeline item, so chip stage *k* advances
    /// timestep *t+1* while stage *k+1* advances timestep *t*. The
    /// whole batch is still encoded exactly once per timestep, at the
    /// pipeline head and in ascending timestep order (the source is
    /// serialized), so RNG consumption is untouched; per-stage traffic
    /// is journaled one op per timestep and replayed at the join —
    /// outputs, waves, scalar energy and cluster traffic are
    /// bit-identical to the sequential [`run`](Self::run) for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Same contract as [`run`](Self::run); routing failures surface
    /// from the journal replay at the join.
    pub fn run_pipelined<R: Rng + Send + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
        cfg: &PipelineConfig,
    ) -> Result<Tensor, AnalogError> {
        let encoding = self.encoding;
        self.run_with_encoder_pipelined(inputs, timesteps, cfg, &mut |x: &Tensor| {
            encode_with(encoding, x, rng)
        })
    }

    /// [`run_seeded_groups`](Self::run_seeded_groups) through the
    /// concurrent pipeline — the serving layer's pipelined entry point.
    ///
    /// # Errors
    ///
    /// Same contract as [`run_seeded_groups`](Self::run_seeded_groups).
    pub fn run_seeded_groups_pipelined(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        groups: &[(usize, u64)],
        cfg: &PipelineConfig,
    ) -> Result<Tensor, AnalogError> {
        let n = *inputs
            .shape()
            .first()
            .ok_or_else(|| AnalogError::BadGeometry {
                reason: "rank-0 input".into(),
            })?;
        let total: usize = groups.iter().map(|&(rows, _)| rows).sum();
        if total != n {
            return Err(AnalogError::BadGeometry {
                reason: format!("seeded groups cover {total} rows, batch has {n}"),
            });
        }
        let row_elems = inputs.len().checked_div(n).unwrap_or(0);
        let encoding = self.encoding;
        let mut rngs: Vec<rand::rngs::StdRng> = groups
            .iter()
            .map(|&(_, seed)| rand::SeedableRng::seed_from_u64(seed))
            .collect();
        self.run_with_encoder_pipelined(inputs, timesteps, cfg, &mut |x: &Tensor| {
            encode_groups(encoding, x, row_elems, groups, &mut rngs)
        })
    }

    fn run_with_encoder_pipelined(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        cfg: &PipelineConfig,
        encode: &mut (dyn FnMut(&Tensor) -> Tensor + Send),
    ) -> Result<Tensor, AnalogError> {
        if self.units.is_empty() || timesteps == 0 {
            return self.run_with_encoder(inputs, timesteps, encode);
        }
        self.check_input(inputs)?;
        for unit in &mut self.units {
            if let SnnUnit::Whole { net, .. } = unit {
                net.reset_state();
            }
        }
        let workers = effective_workers(cfg, self.units.len());
        let sw = stage_workers(workers);
        let mut units = std::mem::take(&mut self.units);
        let chips_of: Vec<usize> = units.iter().map(|u| u.chip()).collect();
        // One non-coalescing journal per stage: SNN traffic replays one
        // op per timestep (flit rounding and silence skips are
        // per-timestep in the sequential walk).
        let mut journals: Vec<TrafficJournal> = (0..units.len())
            .map(|_| TrafficJournal::new(false))
            .collect();
        let result = (|| -> Result<Tensor, AnalogError> {
            let source: SourceFn<'_> = Box::new(move |_t| Ok(encode(inputs)));
            let stages: Vec<StageFn<'_>> = units
                .iter_mut()
                .zip(journals.iter_mut())
                .enumerate()
                .map(|(u, (unit, journal))| {
                    let prev = u.checked_sub(1).map(|p| chips_of[p]);
                    let here = chips_of[u];
                    Box::new(move |_t: usize, h: Tensor| {
                        if let Some(prev) = prev {
                            if prev != here {
                                journal.send(prev, here, (h.len() as u64 * SNN_ACT_BITS).max(1))?;
                            }
                        }
                        exec_snn_unit(unit, h, journal, sw)
                    }) as StageFn<'_>
                })
                .collect();
            let outs = run_pipeline(timesteps, source, stages, workers, cfg.queue_capacity)?;
            // Fold potentials in ascending timestep order — the same
            // accumulation the sequential loop performs.
            let mut acc: Option<Tensor> = None;
            for h in outs {
                match &mut acc {
                    Some(a) => a.add_assign(&h)?,
                    none => *none = Some(h),
                }
            }
            Ok(acc.expect("timesteps >= 1"))
        })();
        self.units = units;
        let out = result?;
        let mut sink = LiveSink {
            cluster: &mut self.cluster,
            extra_waves: &mut self.extra_waves,
        };
        for journal in &journals {
            journal.replay(&mut sink)?;
        }
        Ok(out)
    }

    /// Total analog read energy across every chip, summed in stage then
    /// segment order — bitwise equal to the single-chip counter on the
    /// scalar path.
    pub fn read_energy(&self) -> Joules {
        self.units
            .iter()
            .map(|u| match u {
                SnnUnit::Whole { net, .. } => net.read_energy(),
                SnnUnit::Dense { shards, .. } | SnnUnit::Conv { shards, .. } => {
                    shards.iter().map(|s| s.matrix.read_energy()).sum()
                }
            })
            .sum()
    }

    /// Crossbar waves executed across the cluster — equal to the
    /// single-chip count.
    pub fn waves(&self) -> u64 {
        self.extra_waves
            + self
                .units
                .iter()
                .map(|u| match u {
                    SnnUnit::Whole { net, .. } => net.waves(),
                    _ => 0,
                })
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_nn::layer::Layer;
    use nebula_nn::snn::{IfPopulation, ResetMode, SnnStage, SpikingNetwork};
    use nebula_workloads::zoo;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A dense ANN whose first matrix spans multiple R_f segments, so
    /// tensor sharding has something to split.
    fn wide_ann(seed: u64) -> AnalogNetwork {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let net = nebula_nn::network::Network::new(vec![
            Layer::dense(MAX_RF_IN_CORE + 7, 6, &mut r),
            Layer::relu(),
            Layer::dense(6, 4, &mut r),
        ]);
        crate::analog::compile_ann(&net).unwrap()
    }

    fn wide_snn(seed: u64) -> AnalogSpikingNetwork {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let snn = SpikingNetwork::new(
            vec![
                SnnStage::Synaptic(Layer::dense(MAX_RF_IN_CORE + 5, 5, &mut r)),
                SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
                SnnStage::Synaptic(Layer::dense(5, 3, &mut r)),
                SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Zero)),
            ],
            InputEncoding::Poisson,
        );
        crate::analog_snn::compile_snn_default(&snn).unwrap()
    }

    #[test]
    fn pipelined_ann_matches_single_chip_bitwise() {
        let master = wide_ann(11);
        let mut r = ChaCha8Rng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&[3, MAX_RF_IN_CORE + 7], 0.0, 1.0, &mut r);
        let mut single = master.clone();
        let want = single.forward(&x).unwrap();
        for chips in [1usize, 2, 4] {
            let mut sharded = ShardedAnalogNetwork::layer_pipelined(master.clone(), chips).unwrap();
            let got = sharded.forward(&x).unwrap();
            assert!(bits_equal(&want, &got), "{chips}-chip pipeline diverged");
            assert_eq!(sharded.waves(), single.waves());
        }
    }

    #[test]
    fn tensor_sharded_ann_matches_single_chip_bitwise() {
        let master = wide_ann(19);
        let mut r = ChaCha8Rng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&[2, MAX_RF_IN_CORE + 7], 0.0, 1.0, &mut r);
        let mut single = master.clone();
        let want = single.forward(&x).unwrap();
        let mut sharded = ShardedAnalogNetwork::tensor_sharded(master, 2).unwrap();
        let got = sharded.forward(&x).unwrap();
        assert!(bits_equal(&want, &got));
        assert_eq!(sharded.read_energy(), single.read_energy());
        // The wide layer's partials actually crossed the ring.
        assert!(sharded.traffic().link_flit_hops > 0);
    }

    #[test]
    fn sharded_snn_matches_single_chip_bitwise_including_rng() {
        let master = wide_snn(23);
        let mut r = ChaCha8Rng::seed_from_u64(9);
        let x = Tensor::rand_uniform(&[2, MAX_RF_IN_CORE + 5], 0.0, 1.0, &mut r);
        let mut single = master.clone();
        let mut r1 = ChaCha8Rng::seed_from_u64(41);
        let want = single.run(&x, 4, &mut r1).unwrap();
        for strategy in [ShardStrategy::LayerPipelined, ShardStrategy::TensorSharded] {
            let mut sharded = ShardedSpikingNetwork::new(master.clone(), 3, strategy).unwrap();
            let mut r2 = ChaCha8Rng::seed_from_u64(41);
            let got = sharded.run(&x, 4, &mut r2).unwrap();
            assert!(bits_equal(&want, &got), "{strategy:?} diverged");
            assert_eq!(sharded.waves(), single.waves(), "{strategy:?} waves");
        }
    }

    #[test]
    fn dead_link_reroutes_or_surfaces_as_noc_error() {
        let master = wide_snn(31);
        let mut sharded = ShardedSpikingNetwork::tensor_sharded(master.clone(), 2).unwrap();
        let x = Tensor::from_vec(vec![1.0; MAX_RF_IN_CORE + 5], &[1, MAX_RF_IN_CORE + 5]).unwrap();
        // Two chips share one link: killing it severs the ring, so the
        // sharded stage's fan-out must fail loudly, not silently.
        sharded.cluster_mut().fail_link(0).unwrap();
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let err = sharded.run(&x, 1, &mut r).unwrap_err();
        assert!(matches!(err, AnalogError::Noc(_)), "got {err:?}");
        // On a 4-chip ring one dead link just detours the long way.
        let mut sharded4 = ShardedSpikingNetwork::tensor_sharded(master, 4).unwrap();
        sharded4.cluster_mut().fail_link(0).unwrap();
        let mut r = ChaCha8Rng::seed_from_u64(1);
        sharded4.run(&x, 1, &mut r).unwrap();
        assert!(sharded4.traffic().link_flit_hops > 0);
    }

    #[test]
    fn plan_pipelines_vgg_and_rejects_undersized_clusters() {
        let ds = zoo::vgg13(10);
        let plan = plan_cluster(
            &ds,
            &ClusterConfig::new(4, ShardStrategy::LayerPipelined),
            ExecMode::Snn { timesteps: 1 },
        )
        .unwrap();
        assert!(plan.stage_count >= 2 && plan.stage_count <= 4);
        assert_eq!(plan.stage_of_layer.len(), ds.len());
        assert!(plan.speedup(64) > 1.0, "pipelining must pay at depth 64");
        // A 16384-wide dense layer (16 cores) outweighs the 14-core
        // ANN pool, so it cannot pipeline onto ANY cluster — only
        // tensor sharding runs it: 2 of its 8 segments per chip on 4
        // chips is 4 cores each.
        let wide = vec![LayerDescriptor::dense(
            0,
            "wide_fc",
            8 * MAX_RF_IN_CORE,
            256,
        )];
        let cfg = ClusterConfig::new(16, ShardStrategy::LayerPipelined);
        let err = plan_cluster(&wide, &cfg, ExecMode::Ann).unwrap_err();
        assert!(err.demanded > err.available);
        let cfg = ClusterConfig::new(4, ShardStrategy::TensorSharded);
        let plan = plan_cluster(&wide, &cfg, ExecMode::Ann).unwrap();
        assert!(plan.per_chip_cores.iter().all(|&c| c <= 14));
    }

    #[test]
    fn makespan_fills_then_streams_at_the_bottleneck() {
        let plan = ClusterPlan {
            strategy: ShardStrategy::LayerPipelined,
            chips: 2,
            stage_count: 2,
            stage_of_layer: vec![0, 1],
            stage_cycles: vec![10, 30],
            per_chip_cores: vec![1, 1],
            bottleneck_cycles: 30,
            single_pass_cycles: 40,
        };
        assert_eq!(plan.makespan_cycles(0), 0);
        assert_eq!(plan.makespan_cycles(1), 40 + LINK_HOP_CYCLES);
        assert_eq!(plan.makespan_cycles(3), 40 + LINK_HOP_CYCLES + 2 * 30);
        let s = plan.speedup(1000);
        assert!(s > 1.3 && s < 40.0 / 30.0 + 1e-6, "speedup {s}");
    }
}
