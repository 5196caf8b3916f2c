//! Maps workload layers onto NEBULA's neural cores (paper Fig. 5,
//! §IV-B2/3).
//!
//! A kernel of receptive field `R_f = K_H·K_W·C` is flattened along the
//! crossbar's vertical dimension; kernels become columns. The mapper
//! chooses the neuron-unit hierarchy level per layer, counts the super-
//! tiles (equivalently neural cores, one super-tile per NC) a layer
//! occupies, decides whether the kernel spills across cores (activating
//! the ADC + RU reduction path), and reports the cycle count per
//! inference.

use crate::components::{ACS_PER_SUPERTILE, M, MAX_RF_IN_CORE};
use nebula_crossbar::tile::{acs_per_kernel, nu_level_for, NuLevel};
use nebula_nn::stats::{LayerDescriptor, LayerOp};

/// Where a layer's partial sums are aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Entirely in the current domain inside one NC (H0/H1/H2).
    InCore(NuLevel),
    /// Spilled across `segments` NCs: ADC digitization + RU reduction.
    AcrossCores {
        /// Number of `16M`-row segments the kernel is split into.
        segments: usize,
    },
}

/// The mapping of one workload layer onto the chip.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMapping {
    /// Index of the layer among weight layers.
    pub layer_index: usize,
    /// Layer name (from the descriptor).
    pub name: String,
    /// How partial sums are aggregated.
    pub aggregation: Aggregation,
    /// Neural cores (= super-tiles) the layer's weights occupy.
    pub cores: usize,
    /// Atomic crossbars actually carrying weights.
    pub acs_used: usize,
    /// Fraction of occupied-AC cells holding real weights (utilization).
    pub utilization: f64,
    /// Crossbar evaluation cycles per inference pass (output positions).
    pub cycles: u64,
    /// ADC conversions per inference pass (0 when aggregation is
    /// in-core).
    pub adc_conversions: u64,
    /// Activations (×4 bits) leaving this layer toward the next one per
    /// pass — the NoC payload.
    pub output_elements: u64,
    /// Pipeline stage (= chip) the layer is assigned to. `map_layer`
    /// leaves it 0 (single-chip); the multi-chip planner
    /// ([`plan_stages`]) overwrites it.
    pub stage: usize,
}

impl LayerMapping {
    /// True when this layer needs the ADC + RU reduction path.
    pub fn needs_adc(&self) -> bool {
        matches!(self.aggregation, Aggregation::AcrossCores { .. })
    }
}

/// Maps one layer descriptor onto the architecture.
///
/// # Panics
///
/// Panics when the descriptor has a zero receptive field or zero
/// kernels (workload construction bugs).
pub fn map_layer(desc: &LayerDescriptor) -> LayerMapping {
    assert!(desc.receptive_field > 0, "layer with empty receptive field");
    assert!(desc.kernels > 0, "layer with no kernels");

    let cycles = (desc.output_hw.0 * desc.output_hw.1) as u64;

    // Depthwise layers give each channel its own rows *and* column; a
    // 128-row AC packs ⌊M/R_f⌋ of those diagonal blocks.
    if let LayerOp::DepthwiseConv { .. } = desc.op {
        let kernels_per_ac = (M / desc.receptive_field).clamp(1, M);
        let acs = desc.kernels.div_ceil(kernels_per_ac);
        let cores = acs.div_ceil(ACS_PER_SUPERTILE);
        let cells_used = desc.kernels * desc.receptive_field;
        return LayerMapping {
            layer_index: desc.index,
            name: desc.name.clone(),
            aggregation: Aggregation::InCore(NuLevel::H0),
            cores,
            acs_used: acs,
            utilization: cells_used as f64 / (acs * M * M) as f64,
            cycles,
            adc_conversions: 0,
            output_elements: desc.output_elements as u64,
            stage: 0,
        };
    }

    match nu_level_for(desc.receptive_field, M) {
        Some(level) => {
            // Kernel fits in a super-tile: stack ACs vertically, pack
            // kernels as columns, replicate stacks across ACs.
            let stacks = acs_per_kernel(desc.receptive_field, M);
            let column_groups = desc.kernels.div_ceil(M);
            let acs = stacks * column_groups;
            let cores = acs.div_ceil(ACS_PER_SUPERTILE);
            let cells_used = desc.receptive_field * desc.kernels;
            LayerMapping {
                layer_index: desc.index,
                name: desc.name.clone(),
                aggregation: Aggregation::InCore(level),
                cores,
                acs_used: acs,
                utilization: cells_used as f64 / (acs * M * M) as f64,
                cycles,
                adc_conversions: 0,
                output_elements: desc.output_elements as u64,
                stage: 0,
            }
        }
        None => {
            // R_f > 16M: split into full-super-tile segments; each segment
            // produces a digitized partial sum per kernel per cycle.
            let segments = desc.receptive_field.div_ceil(MAX_RF_IN_CORE);
            let column_groups = desc.kernels.div_ceil(M);
            let acs = segments * ACS_PER_SUPERTILE * column_groups;
            let cores = segments * column_groups;
            let cells_used = desc.receptive_field * desc.kernels;
            LayerMapping {
                layer_index: desc.index,
                name: desc.name.clone(),
                aggregation: Aggregation::AcrossCores { segments },
                cores,
                acs_used: acs,
                utilization: cells_used as f64 / (acs * M * M) as f64,
                cycles,
                adc_conversions: segments as u64 * desc.kernels as u64 * cycles,
                output_elements: desc.output_elements as u64,
                stage: 0,
            }
        }
    }
}

/// Maps a whole workload (one descriptor per weight layer).
pub fn map_network(descriptors: &[LayerDescriptor]) -> Vec<LayerMapping> {
    descriptors.iter().map(map_layer).collect()
}

/// Maps a whole workload after verifying it fits one chip's core pool.
///
/// The unchecked [`map_network`] is the right tool for analytical
/// sweeps that deliberately overload a chip; this is the right tool
/// when the mapping will actually be placed.
///
/// # Errors
///
/// Returns [`CapacityExceeded`](crate::capacity::CapacityExceeded) (from
/// [`crate::capacity::fits_chip`])
/// naming the first layer whose cumulative demand crosses the pool.
pub fn try_map_network(
    descriptors: &[LayerDescriptor],
    config: &crate::chip::ChipConfig,
    mode: crate::energy::ExecMode,
) -> Result<Vec<LayerMapping>, crate::capacity::CapacityExceeded> {
    crate::capacity::fits_chip(descriptors, config, mode)?;
    Ok(map_network(descriptors))
}

/// Contiguous partition of `costs` into at most `parts` runs minimizing
/// the maximum run sum (the classic linear-partition DP). Returns the
/// run index per item, nondecreasing from 0.
///
/// This is the balance objective of the pipeline planner: run sums are
/// per-stage latencies, and the bottleneck stage sets the pipeline's
/// steady-state initiation interval.
pub fn partition_balanced(costs: &[u64], parts: usize) -> Vec<usize> {
    let n = costs.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let mut prefix = vec![0u64; n + 1];
    for (i, &c) in costs.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let run = |j: usize, i: usize| prefix[i] - prefix[j];
    // best[k][i]: minimal max-run-sum splitting the first i items into
    // exactly k runs; cut[k][i] the last cut that achieves it.
    let inf = u64::MAX;
    let mut best = vec![vec![inf; n + 1]; parts + 1];
    let mut cut = vec![vec![0usize; n + 1]; parts + 1];
    best[0][0] = 0;
    for k in 1..=parts {
        for i in k..=n {
            for j in (k - 1)..i {
                if best[k - 1][j] == inf {
                    continue;
                }
                let cand = best[k - 1][j].max(run(j, i));
                if cand < best[k][i] {
                    best[k][i] = cand;
                    cut[k][i] = j;
                }
            }
        }
    }
    let k = (1..=parts).min_by_key(|&k| best[k][n]).unwrap_or(1);
    let mut bounds = vec![n; k + 1];
    bounds[0] = 0;
    let mut i = n;
    for kk in (1..=k).rev() {
        bounds[kk] = i;
        i = cut[kk][i];
    }
    let mut out = vec![0usize; n];
    for r in 0..k {
        for item in out.iter_mut().take(bounds[r + 1]).skip(bounds[r]) {
            *item = r;
        }
    }
    out
}

/// Assigns layers to at most `chips` contiguous pipeline stages,
/// balancing per-stage latency (Σ cycles) subject to each stage's core
/// demand fitting `pool`. Writes the assignment into each mapping's
/// `stage` field and returns the number of stages used.
///
/// # Errors
///
/// Returns [`CapacityExceeded`](crate::capacity::CapacityExceeded) when a
/// single layer exceeds the pool
/// (no amount of pipelining shards one layer — that is tensor
/// sharding's job) or when no contiguous split into `chips` stages
/// satisfies the per-stage pool.
pub fn plan_stages(
    mappings: &mut [LayerMapping],
    chips: usize,
    pool: usize,
) -> Result<usize, crate::capacity::CapacityExceeded> {
    use crate::capacity::CapacityExceeded;
    let n = mappings.len();
    if n == 0 {
        return Ok(0);
    }
    let chips = chips.max(1);
    let total: usize = mappings.iter().map(|m| m.cores).sum();
    for m in mappings.iter() {
        if m.cores > pool {
            return Err(CapacityExceeded {
                layer_index: m.layer_index,
                layer: m.name.clone(),
                demanded: m.cores,
                available: pool,
                shortfall: m.cores - pool,
            });
        }
    }
    // Greedy left-to-right packing yields the minimal contiguous stage
    // count; if even that exceeds the chip budget the workload cannot
    // pipeline onto this cluster.
    let mut greedy_stages = 1usize;
    let mut stage_cores = 0usize;
    for m in mappings.iter() {
        if stage_cores + m.cores > pool {
            greedy_stages += 1;
            stage_cores = 0;
            if greedy_stages > chips {
                return Err(CapacityExceeded {
                    layer_index: m.layer_index,
                    layer: m.name.clone(),
                    demanded: total,
                    available: chips * pool,
                    shortfall: total.saturating_sub(chips * pool).max(1),
                });
            }
        }
        stage_cores += m.cores;
    }
    // Balance latency among the feasible splits: same DP as
    // `partition_balanced` with the per-stage core constraint.
    let mut cost_prefix = vec![0u64; n + 1];
    let mut core_prefix = vec![0usize; n + 1];
    for (i, m) in mappings.iter().enumerate() {
        cost_prefix[i + 1] = cost_prefix[i] + m.cycles.max(1);
        core_prefix[i + 1] = core_prefix[i] + m.cores;
    }
    let parts = chips.min(n);
    let inf = u64::MAX;
    let mut best = vec![vec![inf; n + 1]; parts + 1];
    let mut cut = vec![vec![0usize; n + 1]; parts + 1];
    best[0][0] = 0;
    for k in 1..=parts {
        for i in k..=n {
            for j in (k - 1)..i {
                if best[k - 1][j] == inf || core_prefix[i] - core_prefix[j] > pool {
                    continue;
                }
                let cand = best[k - 1][j].max(cost_prefix[i] - cost_prefix[j]);
                if cand < best[k][i] {
                    best[k][i] = cand;
                    cut[k][i] = j;
                }
            }
        }
    }
    let k = (1..=parts)
        .filter(|&k| best[k][n] != inf)
        .min_by_key(|&k| best[k][n])
        .expect("greedy feasibility check guarantees a DP solution");
    let mut i = n;
    let mut stages = Vec::with_capacity(k);
    for kk in (1..=k).rev() {
        let j = cut[kk][i];
        stages.push((j, i));
        i = j;
    }
    stages.reverse();
    for (s, &(lo, hi)) in stages.iter().enumerate() {
        for m in mappings.iter_mut().take(hi).skip(lo) {
            m.stage = s;
        }
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_conv_fits_one_core_at_h0() {
        // VGG conv1: Rf = 27, 64 kernels.
        let d = LayerDescriptor::conv(0, "conv1", 3, 64, 3, 1, 1, (32, 32));
        let m = map_layer(&d);
        assert_eq!(m.aggregation, Aggregation::InCore(NuLevel::H0));
        assert_eq!(m.cores, 1);
        assert_eq!(m.acs_used, 1);
        assert!(!m.needs_adc());
        assert_eq!(m.cycles, 32 * 32);
        // 27×64 of 128×128 used (the paper's own utilization example).
        assert!((m.utilization - (27.0 * 64.0) / (128.0 * 128.0)).abs() < 1e-9);
    }

    #[test]
    fn mid_conv_uses_h1() {
        // Rf = 3*3*32 = 288 → 129..512 → H1; 128 kernels.
        let d = LayerDescriptor::conv(1, "conv2", 32, 128, 3, 1, 1, (16, 16));
        let m = map_layer(&d);
        assert_eq!(m.aggregation, Aggregation::InCore(NuLevel::H1));
        assert_eq!(m.acs_used, 3); // ceil(288/128) stacks × 1 column group
        assert_eq!(m.cores, 1);
    }

    #[test]
    fn large_conv_uses_h2_and_more_kernels_more_cores() {
        // Rf = 3*3*128 = 1152 → H2 (9 ACs); 512 kernels → 4 column groups.
        let d = LayerDescriptor::conv(2, "conv3", 128, 512, 3, 1, 1, (8, 8));
        let m = map_layer(&d);
        assert_eq!(m.aggregation, Aggregation::InCore(NuLevel::H2));
        assert_eq!(m.acs_used, 9 * 4);
        assert_eq!(m.cores, 3); // ceil(36/16)
        assert_eq!(m.adc_conversions, 0);
    }

    #[test]
    fn huge_dense_layer_spills_across_cores() {
        // AlexNet fc6-like: Rf = 9216 > 2048 → 5 segments.
        let d = LayerDescriptor::dense(5, "fc6", 9216, 4096);
        let m = map_layer(&d);
        assert_eq!(m.aggregation, Aggregation::AcrossCores { segments: 5 });
        assert!(m.needs_adc());
        // 4096 kernels → 32 column groups; 5 segments × 32 groups cores.
        assert_eq!(m.cores, 5 * 32);
        assert_eq!(m.adc_conversions, 5 * 4096);
        assert_eq!(m.cycles, 1);
    }

    #[test]
    fn depthwise_packs_diagonally_with_low_utilization() {
        let d = LayerDescriptor::depthwise(1, "dw2", 64, 3, 1, 1, (32, 32));
        let m = map_layer(&d);
        // 9-row kernels: ⌊128/9⌋ = 14 per AC → ceil(64/14) = 5 ACs.
        assert_eq!(m.acs_used, 5);
        assert_eq!(m.cores, 1);
        assert!(!m.needs_adc());
        assert!(
            m.utilization < 0.01,
            "depthwise utilization should be tiny: {}",
            m.utilization
        );
    }

    #[test]
    fn map_network_preserves_order() {
        let ds = vec![
            LayerDescriptor::conv(0, "conv1", 3, 64, 3, 1, 1, (32, 32)),
            LayerDescriptor::dense(1, "fc", 1024, 10),
        ];
        let ms = map_network(&ds);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].name, "conv1");
        assert_eq!(ms[1].name, "fc");
        assert_eq!(ms[1].cycles, 1);
    }

    #[test]
    fn partition_balanced_minimizes_the_bottleneck() {
        // Costs 8,1,1,8 into 2 runs: [8,1,1][8] (max 10) beats
        // [8][1,1,8] (also 10) and [8,1][1,8] (max 9) wins.
        let parts = partition_balanced(&[8, 1, 1, 8], 2);
        assert_eq!(parts, vec![0, 0, 1, 1]);
        // More parts than items degenerates to one item per run.
        assert_eq!(partition_balanced(&[5, 5], 8), vec![0, 1]);
        assert!(partition_balanced(&[], 3).is_empty());
    }

    #[test]
    fn plan_stages_balances_and_respects_the_pool() {
        let ds = vec![
            LayerDescriptor::conv(0, "conv1", 3, 64, 3, 1, 1, (32, 32)),
            LayerDescriptor::conv(1, "conv2", 64, 128, 3, 1, 1, (16, 16)),
            LayerDescriptor::conv(2, "conv3", 128, 256, 3, 1, 1, (8, 8)),
            LayerDescriptor::dense(3, "fc", 4096, 10),
        ];
        let mut ms = map_network(&ds);
        let stages = plan_stages(&mut ms, 2, 14).unwrap();
        assert!(stages <= 2);
        // Assignment is nondecreasing and every stage fits the pool.
        let mut per_stage = vec![0usize; stages];
        let mut last = 0;
        for m in &ms {
            assert!(m.stage >= last);
            last = m.stage;
            per_stage[m.stage] += m.cores;
        }
        assert!(per_stage.iter().all(|&c| c <= 14));
    }

    #[test]
    fn plan_stages_rejects_a_layer_wider_than_the_pool() {
        // fc6: 160 cores > any sensible pool.
        let ds = vec![LayerDescriptor::dense(0, "fc6", 9216, 4096)];
        let mut ms = map_network(&ds);
        let err = plan_stages(&mut ms, 8, 14).unwrap_err();
        assert_eq!(err.layer, "fc6");
        assert_eq!(err.available, 14);
        assert_eq!(err.shortfall, err.demanded - 14);
    }

    #[test]
    fn plan_stages_rejects_too_few_chips() {
        // Four 8-core layers cannot fit 2 × 14-core stages.
        let ds: Vec<_> = (0..4)
            .map(|i| LayerDescriptor::dense(i, format!("fc{i}"), 1024, 2048))
            .collect();
        let mut ms = map_network(&ds);
        let per: usize = ms[0].cores;
        assert!(2 * per > 14, "each pair must overflow one stage");
        assert!(plan_stages(&mut ms, 2, 14).is_err());
        assert!(plan_stages(&mut ms, 4, 14).is_ok());
    }

    #[test]
    fn boundary_rf_exactly_16m_stays_in_core() {
        let d = LayerDescriptor::dense(0, "fc", 2048, 64);
        let m = map_layer(&d);
        assert!(!m.needs_adc());
        assert_eq!(m.acs_used, 16);
        assert_eq!(m.cores, 1);
        let d2 = LayerDescriptor::dense(0, "fc", 2049, 64);
        assert!(map_layer(&d2).needs_adc());
    }
}
