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
//! [`ShardedSpikingNetwork`]) are built by *placing an
//! already-compiled* single-chip network — its stages are cut into
//! units, one per chip span, and the programmed
//! [`SuperTile`](nebula_crossbar::SuperTile)s move
//! with them, never reprogrammed. A placement changes where stages run,
//! not how: every unit holds the analog engine both modes share over a
//! contiguous slice of the donor's stages, and the one stage interpreter
//! of [`crate::analog`] runs it. So outputs, wave counts and
//! (scalar-path) energy counters are **bit-identical** to the
//! single-chip engine:
//!
//! * Pipelined: a forward pass is a left-to-right fold over stages, so
//!   splitting the stage list at any boundary changes no operation.
//! * Tensor-sharded: a wide layer keeps the donor's unsplit matrix, and
//!   its unit runs it through the donor's interpreter — same matrix,
//!   same code, same bits. Its segments are *placed* on chips (segment
//!   `s` on chip `s mod N`, like the paper's multi-core spill with some
//!   cores on other chips); only the ring traffic that placement costs
//!   is new.
//! * Energy: the sharded counters fold every unit's stages in the
//!   donor's stage order — the single-chip fold.
//!
//! Inter-chip traffic is accounted through a
//! [`nebula_noc::ChipCluster`]: one ring `send` per pipeline boundary
//! per wave, and one `multicast_across` (input fan-out) plus one
//! `reduce_across` (partial fan-in) per tensor-sharded stage per wave
//! (per SNN timestep only when its spikes reach a patch).
//! Payload sizes come from the real tensor shapes: 4-bit activations in
//! ANN mode, 1-bit spike bitmaps in SNN mode, 32-bit partial sums on
//! the reduction. Dead chip-to-chip links reroute the other way around
//! the ring or surface as [`AnalogError::Noc`] /
//! [`NocError::UnroutableChips`] — the same detour-or-fail fault model
//! the intra-chip mesh uses.
//!
//! Both executors run every call through one **pipeline executor**
//! ([`ShardedAnalogNetwork::forward`], [`ShardedSpikingNetwork::run`]
//! and [`ShardedSpikingNetwork::run_seeded_groups`]): micro-batches
//! (ANN) or timesteps (SNN) stream through the chip stages on pool
//! workers, turning the plan's modeled overlap into measured wall-clock
//! overlap, configured per network by `set_pipeline`
//! ([`PipelineConfig`]). Every counter is the same for any
//! configuration — see the `exec` module docs for the scheduler and
//! the journaled traffic replay that make that hold.
//!
//! [`NocError::UnroutableChips`]: nebula_noc::NocError::UnroutableChips

mod exec;

pub use exec::PipelineConfig;

use exec::{run_units, SourceFn, TrafficJournal};

use crate::analog::{check_finite, AnalogEngine, AnalogError, AnalogNetwork, Stage};
use crate::analog_snn::{encode_with, seeded_groups_encoder, AnalogSpikingNetwork};
use crate::capacity::CapacityExceeded;
use crate::chip::ChipConfig;
use crate::components::{MAX_RF_IN_CORE, MESH_SIDE};
use crate::energy::ExecMode;
use crate::mapper;
use crate::pipeline;
use nebula_crossbar::Mode;
use nebula_device::units::Joules;
use nebula_nn::snn::InputEncoding;
use nebula_nn::stats::LayerDescriptor;
use nebula_noc::{ChipCluster, ClusterNode, MeshTopology, NodeId, TrafficStats, LINK_HOP_CYCLES};
use nebula_tensor::Tensor;
use rand::Rng;
use std::borrow::Cow;

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
            if let Some(&demand) = per_chip_cores.iter().find(|&&c| c > pool) {
                let widest = mappings
                    .iter()
                    .max_by_key(|m| m.cores)
                    .expect("non-empty: a chip is over pool");
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
// Placement: one unit type for both modes and both strategies
// ---------------------------------------------------------------------

/// A contiguous span of the donor's stages placed on `chip`, held as an
/// engine of its own. `remote` is empty except on a unit holding one
/// multi-segment synaptic stage under tensor sharding: there it lists
/// the other chips that hold the stage's segments (segment `s` lives on
/// chip `s mod N`).
#[derive(Debug, Clone)]
pub(crate) struct Unit {
    chip: usize,
    remote: Vec<usize>,
    net: AnalogEngine,
}

impl Unit {
    /// Bits per activation on the ring: 4-bit levels in ANN mode, a
    /// 1-bit spike bitmap in SNN mode.
    fn act_bits(&self) -> u64 {
        match self.net.mode {
            Mode::Ann => ANN_ACT_BITS,
            Mode::Snn => SNN_ACT_BITS,
        }
    }

    /// Bits a wave `h` carries across a ring boundary into this unit (a
    /// spike bitmap crosses once per timestep: at least one bit).
    fn boundary_bits(&self, h: &Tensor) -> u64 {
        let bits = h.len() as u64 * self.act_bits();
        if self.coalesces() {
            bits
        } else {
            bits.max(1)
        }
    }

    /// Whether this unit's journal coalesces transfers per route (ANN)
    /// or keeps one op per timestep (SNN; see [`TrafficJournal`]).
    fn coalesces(&self) -> bool {
        self.net.mode == Mode::Ann
    }

    /// Advances this unit by one item: the interpreter runs it through
    /// the unit's stages, and a tensor-sharded unit journals the input
    /// fan-out and partial fan-in its remote segments cost — on every
    /// ANN call, and on an SNN timestep only when the spikes reached a
    /// patch. The sharded entry point checked the whole input first.
    fn exec(
        &mut self,
        h: Tensor,
        journal: &mut TrafficJournal,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        let in_bits = h.len() as u64 * self.act_bits();
        let (out, hit) = self.net.step(Cow::Owned(h), workers, false)?;
        if hit && !self.remote.is_empty() {
            journal.shard(HOME, &self.remote, in_bits, out.len() as u64 * PARTIAL_BITS);
        }
        Ok(out)
    }
}

/// Cuts `net` into units for `chips` chips. Layer-pipelined: contiguous
/// spans balanced by `costs` (super-tile weight when `None`).
/// Tensor-sharded: a home span, then each multi-segment synaptic stage
/// alone, then the next span. Every unit keeps its stages whole, so the
/// evaluation is the donor's.
fn cut(
    net: AnalogEngine,
    chips: usize,
    strategy: ShardStrategy,
    costs: Option<Vec<u64>>,
) -> Vec<Unit> {
    let AnalogEngine { stages, mode, .. } = net;
    let places: Vec<(usize, Option<Vec<usize>>)> = match strategy {
        ShardStrategy::LayerPipelined => {
            let costs = costs.unwrap_or_else(|| {
                stages
                    .iter()
                    .map(|s| match s.matrix() {
                        None => 0,
                        Some(m) => m.tiles.iter().map(Vec::len).sum::<usize>().max(1) as u64,
                    })
                    .collect()
            });
            let spans = mapper::partition_balanced(&costs, chips);
            spans.into_iter().map(|chip| (chip, None)).collect()
        }
        ShardStrategy::TensorSharded => stages
            .iter()
            .map(|s| {
                let segments = s.matrix().map_or(0, |m| m.tiles.len());
                (
                    HOME,
                    (segments > 1).then(|| (1..segments.min(chips)).collect()),
                )
            })
            .collect(),
    };
    let unit = |chip, remote, stages| Unit {
        chip,
        remote,
        net: AnalogEngine {
            stages,
            waves: 0,
            mode,
        },
    };
    let mut units = Vec::new();
    let mut span = Vec::new();
    let mut span_chip = HOME;
    let flush = |span: &mut Vec<Stage>, units: &mut Vec<Unit>, chip| {
        if !span.is_empty() {
            units.push(unit(chip, Vec::new(), std::mem::take(span)));
        }
    };
    for (stage, (chip, remote)) in stages.into_iter().zip(places) {
        if remote.is_some() || chip != span_chip {
            flush(&mut span, &mut units, span_chip);
        }
        match remote {
            Some(remote) => units.push(unit(chip, remote, vec![stage])),
            None => {
                span_chip = chip;
                span.push(stage);
            }
        }
    }
    flush(&mut span, &mut units, span_chip);
    units
}

/// Output shape for `input_shape`, checked unit by unit as a single-chip
/// network checks its stages.
fn output_shape(units: &[Unit], input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
    units
        .iter()
        .try_fold(input_shape.to_vec(), |shape, u| u.net.output_shape(&shape))
}

/// The checks every sharded entry point makes once, before any crossbar
/// or ring traffic: the shape must flow through every unit and every
/// value must be finite.
fn check_input(units: &[Unit], inputs: &Tensor) -> Result<(), AnalogError> {
    output_shape(units, inputs.shape())?;
    check_finite(inputs)
}

/// Every unit's stages, in the donor's order.
fn stages(units: &[Unit]) -> impl Iterator<Item = &Stage> {
    units.iter().flat_map(|u| &u.net.stages)
}

/// Crossbar waves the donor ran before sharding plus every unit's.
fn waves(extra: u64, units: &[Unit]) -> u64 {
    extra + units.iter().map(|u| u.net.waves).sum::<u64>()
}

// ---------------------------------------------------------------------
// ANN executor
// ---------------------------------------------------------------------

/// An ANN compiled once, then distributed over a chip cluster. Built
/// from an [`AnalogNetwork`] (faults, aging and kernel-path choices
/// carry over with the moved tiles); outputs, wave counts and
/// scalar-path energy are bit-identical to the donor network's
/// [`AnalogNetwork::forward`].
#[derive(Debug, Clone)]
pub struct ShardedAnalogNetwork {
    units: Vec<Unit>,
    cluster: ChipCluster,
    strategy: ShardStrategy,
    extra_waves: u64,
    pipeline: PipelineConfig,
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
        Ok(Self {
            cluster: default_cluster(chips)?,
            strategy,
            extra_waves: net.core.waves,
            units: cut(net.core, chips.max(1), strategy, None),
            pipeline: PipelineConfig::default(),
        })
    }

    /// Pipelines `net` over `chips` chips: contiguous stage spans,
    /// balanced by crossbar (super-tile) weight.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn layer_pipelined(net: AnalogNetwork, chips: usize) -> Result<Self, AnalogError> {
        Self::new(net, chips, ShardStrategy::LayerPipelined)
    }

    /// Shards `net`'s multi-segment layers row-wise over `chips` chips;
    /// everything else stays on the home chip.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn tensor_sharded(net: AnalogNetwork, chips: usize) -> Result<Self, AnalogError> {
        Self::new(net, chips, ShardStrategy::TensorSharded)
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

    /// Configures the pipeline executor every call runs through
    /// ([`PipelineConfig::default`] until set). Any configuration gives
    /// the same outputs, waves, traffic and scalar-path energy; it only
    /// moves wall-clock overlap.
    pub fn set_pipeline(&mut self, cfg: PipelineConfig) {
        self.pipeline = cfg;
    }

    /// Selects the crossbar kernel path on every unit.
    pub fn set_kernel_path(&mut self, path: nebula_crossbar::KernelPath) {
        for unit in &mut self.units {
            unit.net.set_kernel_path(path);
        }
    }

    /// Output shape for `input_shape`, checked unit by unit as
    /// [`AnalogNetwork::output_shape`] checks a single-chip network.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the units.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        output_shape(&self.units, input_shape)
    }

    /// Runs a batch through the cluster and returns the logits —
    /// bit-identical to the donor single-chip
    /// [`AnalogNetwork::forward`]. The batch is split into micro-batches
    /// of [`PipelineConfig::micro_batch`] rows that stream through the
    /// chip stages on pool workers (see
    /// [`set_pipeline`](Self::set_pipeline)); per-stage traffic is
    /// journaled and replayed at the join, one transfer per route per
    /// call. A zero-row batch runs as one empty micro-batch.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the input shape does not
    /// fit the network (see [`output_shape`](Self::output_shape)) and
    /// [`AnalogError::NonFiniteInput`] for a NaN or infinite input, both
    /// before any crossbar or ring traffic; propagates circuit and tensor
    /// failures; inter-chip routing failures surface from the journal
    /// replay as [`AnalogError::Noc`].
    pub fn forward(&mut self, inputs: &Tensor) -> Result<Tensor, AnalogError> {
        check_input(&self.units, inputs)?;
        // Only a stage-less network accepts a rank-0 input: the identity.
        let Some(&n) = inputs.shape().first() else {
            return Ok(inputs.clone());
        };
        let depth = self.pipeline.micro_batch.clamp(1, n.max(1));
        let row_elems = inputs.len().checked_div(n).unwrap_or(0);
        let in_shape = inputs.shape().to_vec();
        let data = inputs.data();
        let source: SourceFn<'_> = Box::new(move |idx| {
            let (lo, hi) = (idx * depth, ((idx + 1) * depth).min(n));
            let mut shape = in_shape.clone();
            shape[0] = hi - lo;
            Ok(Tensor::from_vec(
                data[lo * row_elems..hi * row_elems].to_vec(),
                &shape,
            )?)
        });
        let outs = run_units(
            &mut self.units,
            n.div_ceil(depth).max(1),
            source,
            &self.pipeline,
            &mut self.cluster,
        )?;
        // Concatenate micro-batch outputs in index order.
        let mut out_shape = outs[0].shape().to_vec();
        out_shape[0] = n;
        let mut out = Vec::with_capacity(outs.iter().map(Tensor::len).sum());
        for o in &outs {
            out.extend_from_slice(o.data());
        }
        Ok(Tensor::from_vec(out, &out_shape)?)
    }

    /// Total analog read energy across every chip, folded over the
    /// donor's stages in order — the single-chip fold, so bitwise equal
    /// to the donor's counter on the scalar path.
    pub fn read_energy(&self) -> Joules {
        stages(&self.units).map(Stage::read_energy).sum()
    }

    /// Total programming energy (spent before sharding; tiles moved),
    /// folded as [`read_energy`](Self::read_energy) is.
    pub fn program_energy(&self) -> Joules {
        stages(&self.units).map(Stage::program_energy).sum()
    }

    /// Crossbar evaluation waves executed across the cluster — equal to
    /// the single-chip count (sharding a wave does not multiply it).
    pub fn waves(&self) -> u64 {
        waves(self.extra_waves, &self.units)
    }
}

// ---------------------------------------------------------------------
// SNN executor
// ---------------------------------------------------------------------

/// A spiking network distributed over a chip cluster. Built from a
/// compiled [`AnalogSpikingNetwork`]; outputs, RNG consumption, wave
/// counts and scalar-path energy are bit-identical to the donor's
/// [`AnalogSpikingNetwork::run`] / `run_seeded_groups` — every wave is
/// encoded once at the pipeline head, so the Poisson draw order never
/// changes.
#[derive(Debug, Clone)]
pub struct ShardedSpikingNetwork {
    units: Vec<Unit>,
    cluster: ChipCluster,
    strategy: ShardStrategy,
    encoding: InputEncoding,
    extra_waves: u64,
    pipeline: PipelineConfig,
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
        Self::place(net, chips, strategy, None)
    }

    fn place(
        net: AnalogSpikingNetwork,
        chips: usize,
        strategy: ShardStrategy,
        costs: Option<Vec<u64>>,
    ) -> Result<Self, AnalogError> {
        Ok(Self {
            cluster: default_cluster(chips)?,
            strategy,
            encoding: net.encoding,
            extra_waves: net.core.waves,
            units: cut(net.core, chips.max(1), strategy, costs),
            pipeline: PipelineConfig::default(),
        })
    }

    /// Pipelines `net` over `chips` chips (contiguous stage spans,
    /// balanced by super-tile weight). IF populations stay with their
    /// synaptic stage's chip, so membrane state is chip-local.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn layer_pipelined(net: AnalogSpikingNetwork, chips: usize) -> Result<Self, AnalogError> {
        Self::new(net, chips, ShardStrategy::LayerPipelined)
    }

    /// Pipelines `net` over `chips` chips with stage spans balanced by
    /// per-timestep *compute* (output patches × receptive field ×
    /// columns) for the given input shape, rather than by super-tile
    /// count. Any contiguous split is bit-identical; this only moves
    /// wall-clock balance toward the convolutional stages.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the stages (the check
    /// [`AnalogSpikingNetwork::output_shape`] makes); propagates
    /// cluster-construction failures.
    pub fn layer_pipelined_for_input(
        net: AnalogSpikingNetwork,
        chips: usize,
        input_shape: &[usize],
    ) -> Result<Self, AnalogError> {
        let mut shape = input_shape.to_vec();
        let mut costs = Vec::with_capacity(net.core.stages.len());
        for stage in &net.core.stages {
            let next = stage.output_shape(&shape)?;
            let patches: usize = next[2..].iter().product();
            costs.push(
                stage
                    .matrix()
                    .map_or(0, |m| (patches * m.rf * m.cols) as u64),
            );
            shape = next;
        }
        Self::place(net, chips, ShardStrategy::LayerPipelined, Some(costs))
    }

    /// Shards `net`'s multi-segment synaptic layers row-wise across
    /// `chips` chips; IF populations and pooling stay on the home chip.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn tensor_sharded(net: AnalogSpikingNetwork, chips: usize) -> Result<Self, AnalogError> {
        Self::new(net, chips, ShardStrategy::TensorSharded)
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

    /// Configures the pipeline executor every call runs through
    /// ([`PipelineConfig::default`] until set). Any configuration gives
    /// the same outputs, waves, traffic and scalar-path energy; it only
    /// moves wall-clock overlap.
    pub fn set_pipeline(&mut self, cfg: PipelineConfig) {
        self.pipeline = cfg;
    }

    /// Selects the crossbar kernel path on every unit.
    pub fn set_kernel_path(&mut self, path: nebula_crossbar::KernelPath) {
        for unit in &mut self.units {
            unit.net.set_kernel_path(path);
        }
    }

    /// Output-potential shape for `input_shape` (used by the
    /// zero-timestep corner).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the units.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        output_shape(&self.units, input_shape)
    }

    /// Runs `timesteps` of spiking inference across the cluster —
    /// bit-identical to the donor single-chip
    /// [`AnalogSpikingNetwork::run`]. Each timestep is one pipeline
    /// item (see [`set_pipeline`](Self::set_pipeline)), so chip stage
    /// *k* advances timestep *t+1* while stage *k+1* advances timestep
    /// *t*; the whole batch is encoded exactly once per timestep, at the
    /// pipeline head and in ascending timestep order, so RNG
    /// consumption matches. The RNG is `Send` because the encoder runs
    /// on whichever pool worker claims the pipeline head.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the input shape does not
    /// fit the network (see [`output_shape`](Self::output_shape)) and
    /// [`AnalogError::NonFiniteInput`] for a NaN or infinite input, both
    /// before any timestep runs; propagates circuit and tensor failures;
    /// inter-chip routing failures surface from the journal replay as
    /// [`AnalogError::Noc`].
    pub fn run<R: Rng + Send + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<Tensor, AnalogError> {
        let encoding = self.encoding;
        self.run_with_encoder(inputs, timesteps, |x: &Tensor| {
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
    /// don't sum to the batch size; otherwise as [`run`](Self::run).
    pub fn run_seeded_groups(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        groups: &[(usize, u64)],
    ) -> Result<Tensor, AnalogError> {
        let encode = seeded_groups_encoder(self.encoding, inputs, groups)?;
        self.run_with_encoder(inputs, timesteps, encode)
    }

    fn run_with_encoder(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        mut encode: impl FnMut(&Tensor) -> Tensor + Send,
    ) -> Result<Tensor, AnalogError> {
        check_input(&self.units, inputs)?;
        for unit in &mut self.units {
            unit.net.reset_state();
        }
        let source: SourceFn<'_> = Box::new(move |_t| Ok(encode(inputs)));
        let outs = run_units(
            &mut self.units,
            timesteps,
            source,
            &self.pipeline,
            &mut self.cluster,
        )?;
        // Fold potentials in ascending timestep order. Zero timesteps
        // run no wave and move no traffic, but still return the shape a
        // longer run would (all-zero potentials).
        let mut outs = outs.into_iter();
        let Some(mut acc) = outs.next() else {
            return Ok(Tensor::zeros(&self.output_shape(inputs.shape())?));
        };
        for h in outs {
            acc.add_assign(&h)?;
        }
        Ok(acc)
    }

    /// Total analog read energy across every chip, folded over the
    /// donor's stages in order — bitwise equal to the single-chip
    /// counter on the scalar path.
    pub fn read_energy(&self) -> Joules {
        stages(&self.units).map(Stage::read_energy).sum()
    }

    /// Crossbar waves executed across the cluster — equal to the
    /// single-chip count.
    pub fn waves(&self) -> u64 {
        waves(self.extra_waves, &self.units)
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
