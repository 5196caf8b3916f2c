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
//! A compiled network *is* its placement. [`AnalogNetwork`] and
//! [`AnalogSpikingNetwork`] each hold their stages cut into units, one
//! per chip span, and the cluster those chips form. Compiling gives the
//! trivial placement: every stage in one unit on one chip.
//! [`AnalogNetwork::shard`] (and `layer_pipelined`, `tensor_sharded`,
//! and the SNN's `layer_pipelined_for_input`) re-cut the same stages
//! into more units; the programmed [`SuperTile`]s move with them, never
//! reprogrammed. A placement changes where stages run, not how: every
//! unit holds the analog engine both modes share over a contiguous slice
//! of the stages, and the one stage interpreter of [`crate::analog`]
//! runs it. So outputs, wave counts and energy counters are
//! **bit-identical** on every placement:
//!
//! * Pipelined: a forward pass is a left-to-right fold over stages, so
//!   splitting the stage list at any boundary changes no operation.
//! * Tensor-sharded: a wide layer keeps its unsplit matrix, and its unit
//!   runs it through the same interpreter — same matrix, same code, same
//!   bits. Its segments are *placed* on chips (segment `s` on chip
//!   `s mod N`, like the paper's multi-core spill with some cores on
//!   other chips); only the ring traffic that placement costs is new.
//! * Energy: the counters fold every unit's stages in compile order —
//!   the one-chip fold.
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
//! The one call per mode — [`AnalogNetwork::forward`] and
//! [`AnalogSpikingNetwork::run`] — runs through one **pipeline
//! executor**, with one body per mode: micro-batches (ANN) or
//! timesteps (SNN) stream through the chip units on pool workers, turning
//! the plan's modeled overlap into measured wall-clock overlap. A
//! placement of two or more units runs under its [`PipelineConfig`]
//! (`set_pipeline`); a one-unit placement derives its schedule from the
//! unit count instead — the whole batch as one item (borrowed, not
//! copied), on one claimant, whose stage keeps the whole pool. Every
//! counter is the same for any schedule — see the `exec` module docs for
//! the scheduler and the journaled traffic replay that make that hold.
//! The oracles ([`crate::oracle`]) walk the same units in order on the
//! calling thread, outside the executor.
//!
//! [`NocError::UnroutableChips`]: nebula_noc::NocError::UnroutableChips

mod exec;

pub use exec::PipelineConfig;

use exec::{run_units, SourceFn, TrafficJournal};

use crate::analog::{check_finite, AnalogEngine, AnalogError, AnalogNetwork, Stage};
use crate::analog_snn::AnalogSpikingNetwork;
use crate::capacity::CapacityExceeded;
use crate::chip::ChipConfig;
use crate::components::{MAX_RF_IN_CORE, MESH_SIDE};
use crate::energy::ExecMode;
use crate::mapper;
use crate::pipeline;
#[allow(deprecated)]
use nebula_crossbar::KernelPath;
use nebula_crossbar::{Mode, SuperTile};
use nebula_device::units::Joules;
use nebula_nn::stats::LayerDescriptor;
use nebula_noc::{ChipCluster, ClusterNode, MeshTopology, NodeId, TrafficStats, LINK_HOP_CYCLES};
use nebula_tensor::Tensor;
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

/// A contiguous span of a network's stages placed on `chip`, held as an
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
    /// patch. The entry point checked the whole input first.
    fn exec(
        &mut self,
        h: Cow<'_, Tensor>,
        journal: &mut TrafficJournal,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        let in_bits = h.len() as u64 * self.act_bits();
        let (out, hit) = self.net.step(h, workers, false)?;
        if hit && !self.remote.is_empty() {
            journal.shard(HOME, &self.remote, in_bits, out.len() as u64 * PARTIAL_BITS);
        }
        Ok(out)
    }
}

/// Cuts `stages` into `mode` units for `chips` chips. Layer-pipelined:
/// contiguous spans balanced by `costs` (super-tile weight when `None`).
/// Tensor-sharded: a home span, then each multi-segment synaptic stage
/// alone, then the next span. Every unit keeps its stages whole, so the
/// evaluation is the one-chip network's.
fn cut(
    stages: Vec<Stage>,
    mode: Mode,
    chips: usize,
    strategy: ShardStrategy,
    costs: Option<Vec<u64>>,
) -> Vec<Unit> {
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

// ---------------------------------------------------------------------
// The deployment every compiled network holds
// ---------------------------------------------------------------------

/// A compiled network as it sits on a chip cluster: its stages cut into
/// units, the ring between the chips, and the pipeline configuration.
/// [`AnalogNetwork`] holds one, and [`AnalogSpikingNetwork`] holds one
/// beside its input encoding. Compiling places every stage in one unit
/// on one chip; `shard` re-cuts the same stages into more units. Every
/// fast call runs through [`run_units`], one body per mode, and the
/// oracles ([`crate::oracle`]) walk the same units on the calling thread.
#[derive(Debug, Clone)]
pub(crate) struct Deployment {
    units: Vec<Unit>,
    cluster: ChipCluster,
    strategy: ShardStrategy,
    /// Waves the stages ran under an earlier placement.
    extra_waves: u64,
    pipeline: PipelineConfig,
}

impl Deployment {
    /// Freshly compiled `mode` stages in one unit on one chip (no unit
    /// for a stage-less network): the one-chip layer-pipelined placement.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub(crate) fn one_chip(stages: Vec<Stage>, mode: Mode) -> Result<Self, AnalogError> {
        let strategy = ShardStrategy::LayerPipelined;
        Ok(Self {
            cluster: default_cluster(1)?,
            strategy,
            extra_waves: 0,
            units: cut(stages, mode, 1, strategy, None),
            pipeline: PipelineConfig::default(),
        })
    }

    /// Re-cuts the same stages for `chips` chips under `strategy` (see
    /// [`cut`]) on a fresh cluster. The waves run so far and the pipeline
    /// configuration carry over; on an error nothing has changed.
    fn reshard(
        &mut self,
        mode: Mode,
        chips: usize,
        strategy: ShardStrategy,
        costs: Option<Vec<u64>>,
    ) -> Result<(), AnalogError> {
        self.cluster = default_cluster(chips)?;
        self.extra_waves = self.waves();
        let stages = std::mem::take(&mut self.units)
            .into_iter()
            .flat_map(|u| u.net.stages)
            .collect();
        self.units = cut(stages, mode, chips.max(1), strategy, costs);
        self.strategy = strategy;
        Ok(())
    }

    /// Every unit's stages, in compile order.
    pub(crate) fn stages(&self) -> impl Iterator<Item = &Stage> {
        self.units.iter().flat_map(|u| &u.net.stages)
    }

    /// Every programmed super-tile, in stage then tile order.
    pub(crate) fn tiles_mut(&mut self) -> impl Iterator<Item = &mut SuperTile> {
        self.units.iter_mut().flat_map(|u| u.net.tiles_mut())
    }

    /// Crossbar waves run before the last re-cut plus every unit's.
    fn waves(&self) -> u64 {
        self.extra_waves + self.units.iter().map(|u| u.net.waves).sum::<u64>()
    }

    /// The output shape a batch of `input_shape` produces, checking every
    /// stage's geometry on the way ([`Stage::output_shape`]). A rank-0
    /// input fits no network, not even a stage-less one.
    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        if input_shape.is_empty() {
            return Err(AnalogError::BadGeometry {
                reason: "rank-0 input".into(),
            });
        }
        self.stages()
            .try_fold(input_shape.to_vec(), |shape, stage| {
                stage.output_shape(&shape)
            })
    }

    /// The checks every entry point makes once, before any crossbar or
    /// ring traffic: the shape must flow through every stage and every
    /// value must be finite. Returns the output shape.
    pub(crate) fn check_input(&self, inputs: &Tensor) -> Result<Vec<usize>, AnalogError> {
        let shape = self.output_shape(inputs.shape())?;
        check_finite(inputs)?;
        Ok(shape)
    }

    /// The ANN body: the batch streams through the units as items of the
    /// derived schedule's micro-batch depth — on one unit the whole
    /// batch, borrowed from the caller — and the item outputs are
    /// concatenated in index order. A zero-row batch is one empty item.
    pub(crate) fn forward(&mut self, inputs: &Tensor) -> Result<Tensor, AnalogError> {
        self.check_input(inputs)?;
        let n = inputs.shape()[0];
        let depth = exec::schedule(self.units.len(), &self.pipeline)
            .micro_batch
            .clamp(1, n.max(1));
        let items = n.div_ceil(depth).max(1);
        let row_elems = inputs.len().checked_div(n).unwrap_or(0);
        let source: SourceFn<'_> = Box::new(move |idx| {
            if items == 1 {
                return Ok(Cow::Borrowed(inputs));
            }
            let (lo, hi) = (idx * depth, ((idx + 1) * depth).min(n));
            let mut shape = inputs.shape().to_vec();
            shape[0] = hi - lo;
            let rows = inputs.data()[lo * row_elems..hi * row_elems].to_vec();
            Ok(Cow::Owned(Tensor::from_vec(rows, &shape)?))
        });
        let mut outs = run_units(
            &mut self.units,
            items,
            source,
            &self.pipeline,
            &mut self.cluster,
        )?;
        if outs.len() == 1 {
            return Ok(outs.remove(0));
        }
        let mut out_shape = outs[0].shape().to_vec();
        out_shape[0] = n;
        let mut out = Vec::with_capacity(outs.iter().map(Tensor::len).sum());
        for o in &outs {
            out.extend_from_slice(o.data());
        }
        Ok(Tensor::from_vec(out, &out_shape)?)
    }

    /// The SNN body: returns every membrane to rest, then streams
    /// `timesteps` items through the units, each the whole batch encoded
    /// by `encode` at the pipeline head in ascending timestep order, and
    /// sums the potentials ([`sum_timesteps`]).
    pub(crate) fn run(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        mut encode: impl FnMut(&Tensor) -> Tensor + Send,
    ) -> Result<Tensor, AnalogError> {
        let shape = self.check_input(inputs)?;
        self.reset_state();
        let source: SourceFn<'_> = Box::new(move |_t| Ok(Cow::Owned(encode(inputs))));
        let outs = run_units(
            &mut self.units,
            timesteps,
            source,
            &self.pipeline,
            &mut self.cluster,
        )?;
        sum_timesteps(outs.into_iter().map(Ok), &shape)
    }

    /// The oracle walk: advances `h` through every unit's stages in
    /// order, on the calling thread, each synaptic stage through the
    /// per-cell evaluator (`AnalogEngine::step(.., 1, true)`). It uses no
    /// pipeline, journal or pool, and moves no ring traffic.
    pub(crate) fn walk(&mut self, mut h: Cow<'_, Tensor>) -> Result<Tensor, AnalogError> {
        for unit in &mut self.units {
            h = Cow::Owned(unit.net.step(h, 1, true)?.0);
        }
        Ok(h.into_owned())
    }

    /// Returns every IF population to rest.
    pub(crate) fn reset_state(&mut self) {
        for unit in &mut self.units {
            unit.net.reset_state();
        }
    }

    /// The one unit's engine, for tests that drive the interpreter with
    /// an explicit worker count.
    #[cfg(test)]
    pub(crate) fn sole_engine(&mut self) -> &mut AnalogEngine {
        assert_eq!(self.units.len(), 1, "a one-unit placement");
        &mut self.units[0].net
    }
}

/// Sums per-timestep potentials in ascending timestep order. Zero
/// timesteps run no wave and move no traffic, but still return the
/// `shape` a longer run would (all-zero potentials), so callers — the
/// serving layer in particular — can split it per request.
pub(crate) fn sum_timesteps(
    steps: impl Iterator<Item = Result<Tensor, AnalogError>>,
    shape: &[usize],
) -> Result<Tensor, AnalogError> {
    let mut acc: Option<Tensor> = None;
    for h in steps {
        let h = h?;
        match &mut acc {
            Some(a) => a.add_assign(&h)?,
            none => *none = Some(h),
        }
    }
    Ok(acc.unwrap_or_else(|| Tensor::zeros(shape)))
}

/// The placement API both network types share, written once over their
/// `place` field: re-cutting the stages for more chips, the cluster they
/// run on, the pipeline and kernel configuration, and the counters that
/// every placement keeps identical.
macro_rules! placement_api {
    ($net:ident, $mode:expr) => {
        impl $net {
            /// Re-places this network's stages on `chips` chips under
            /// `strategy`. The programmed tiles move with their stages —
            /// faults and aging go with them, nothing is reprogrammed — so
            /// outputs, waves and energy stay bit-identical to the one-chip
            /// network. The cluster is new:
            /// its traffic starts from zero.
            ///
            /// # Errors
            ///
            /// Propagates cluster-construction failures.
            pub fn shard(
                mut self,
                chips: usize,
                strategy: ShardStrategy,
            ) -> Result<Self, AnalogError> {
                self.place.reshard($mode, chips, strategy, None)?;
                Ok(self)
            }

            /// Pipelines the stages over `chips` chips: contiguous spans,
            /// balanced by crossbar (super-tile) weight. IF populations
            /// stay with their synaptic stage's chip, so membrane state is
            /// chip-local.
            ///
            /// # Errors
            ///
            /// Propagates cluster-construction failures.
            pub fn layer_pipelined(self, chips: usize) -> Result<Self, AnalogError> {
                self.shard(chips, ShardStrategy::LayerPipelined)
            }

            /// Shards the multi-segment synaptic layers row-wise over
            /// `chips` chips; every other stage stays on the home chip.
            ///
            /// # Errors
            ///
            /// Propagates cluster-construction failures.
            pub fn tensor_sharded(self, chips: usize) -> Result<Self, AnalogError> {
                self.shard(chips, ShardStrategy::TensorSharded)
            }

            /// The distribution strategy of the current placement
            /// (layer-pipelined for a freshly compiled network).
            pub fn strategy(&self) -> ShardStrategy {
                self.place.strategy
            }

            /// Chips in the cluster (one for a freshly compiled network).
            pub fn chips(&self) -> usize {
                self.place.cluster.chips()
            }

            /// The cluster (traffic statistics live here).
            pub fn cluster(&self) -> &ChipCluster {
                &self.place.cluster
            }

            /// Mutable cluster access — link fault injection goes through
            /// here.
            pub fn cluster_mut(&mut self) -> &mut ChipCluster {
                &mut self.place.cluster
            }

            /// Cumulative cluster traffic (all meshes plus ring links).
            pub fn traffic(&self) -> TrafficStats {
                self.place.cluster.stats()
            }

            /// Configures the pipeline executor for a placement of two or
            /// more units ([`PipelineConfig::default`] until set; a re-cut
            /// keeps it). A one-unit placement ignores it: it runs the
            /// whole batch as one item on one claimant, whose stage keeps
            /// the whole pool. Any configuration gives the same outputs,
            /// waves, traffic and energy; it only moves wall-clock
            /// overlap.
            pub fn set_pipeline(&mut self, cfg: PipelineConfig) {
                self.place.pipeline = cfg;
            }

            /// Does nothing: every programmed tile evaluates through the
            /// one crossbar kernel path.
            #[deprecated(note = "the crossbar has one kernel path; there is nothing to select")]
            #[allow(deprecated)]
            pub fn set_kernel_path(&mut self, _path: KernelPath) {}

            /// The output shape a batch of `input_shape` produces (for an
            /// SNN, the accumulated potentials'), checking every stage's
            /// geometry on the way: weight stages need exactly their
            /// receptive field per row (`[n, rf]` for dense, `[n, c, h, w]`
            /// with `c·kh·kw = rf` for convolutions), and a pooling window
            /// must be nonzero and divide its rank-4 input's height and
            /// width. Used to size results without executing a wave.
            ///
            /// # Errors
            ///
            /// Returns [`AnalogError::BadGeometry`] for a rank-0 input and
            /// for the first stage the shape does not fit.
            pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
                self.place.output_shape(input_shape)
            }

            /// Super-tiles this network's weights occupy, across every
            /// chip, in stage-then-tile compile order.
            pub fn supertile_count(&self) -> usize {
                self.place
                    .stages()
                    .filter_map(Stage::matrix)
                    .map(|m| m.tiles.iter().map(Vec::len).sum::<usize>())
                    .sum()
            }

            /// Bytes the prepared conductance caches occupy across all
            /// programmed tiles (building any missing caches first) — the
            /// footprint perfbench reports.
            pub fn conductance_cache_bytes(&mut self) -> usize {
                self.place
                    .tiles_mut()
                    .map(|tile| {
                        tile.prepare();
                        tile.kernel_cache_bytes()
                    })
                    .sum()
            }

            /// Total analog read energy across every chip, folded over the
            /// stages in compile order (each stage's tiles summed first) —
            /// the same fold on any placement, so bitwise equal to the
            /// one-chip counter. In SNN mode silent rows
            /// are free: the event-driven energy figure.
            pub fn read_energy(&self) -> Joules {
                self.place.stages().map(Stage::read_energy).sum()
            }

            /// Crossbar evaluation waves executed so far — one 110 ns
            /// pipeline wave per sample and output position (per timestep
            /// in SNN mode). Sharding a wave does not multiply it, so every
            /// placement counts the same.
            pub fn waves(&self) -> u64 {
                self.place.waves()
            }
        }
    };
}

placement_api!(AnalogNetwork, Mode::Ann);
placement_api!(AnalogSpikingNetwork, Mode::Snn);

impl AnalogSpikingNetwork {
    /// Pipelines the stages over `chips` chips with spans balanced by
    /// per-timestep *compute* (output patches × receptive field ×
    /// columns) for the given input shape, rather than by super-tile
    /// count. Any contiguous split is bit-identical; this only moves
    /// wall-clock balance toward the convolutional stages.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the stages (the check
    /// [`output_shape`](Self::output_shape) makes); propagates
    /// cluster-construction failures.
    pub fn layer_pipelined_for_input(
        mut self,
        chips: usize,
        input_shape: &[usize],
    ) -> Result<Self, AnalogError> {
        self.output_shape(input_shape)?;
        let mut shape = input_shape.to_vec();
        let mut costs = Vec::new();
        for stage in self.place.stages() {
            let next = stage.output_shape(&shape)?;
            let patches: usize = next.iter().skip(2).product();
            costs.push(
                stage
                    .matrix()
                    .map_or(0, |m| (patches * m.rf * m.cols) as u64),
            );
            shape = next;
        }
        self.place
            .reshard(Mode::Snn, chips, ShardStrategy::LayerPipelined, Some(costs))?;
        Ok(self)
    }
}

/// The name perfbench gives a sharded spiking network: the spiking
/// network itself, on whatever placement it was given.
#[deprecated(note = "use `AnalogSpikingNetwork`; ROADMAP.md item 11 deletes this alias")]
pub type ShardedSpikingNetwork = AnalogSpikingNetwork;

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_workloads::zoo;

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
