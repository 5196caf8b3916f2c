//! # nebula-core
//!
//! The NEBULA architecture itself (Singh et al., ISCA 2020): neural
//! cores built from all-spin super-tiles, a 14×14 mesh of 14 ANN cores,
//! 182 SNN cores and 14 accumulator units, and the analytical
//! energy/power/latency model the paper's evaluation (Figs. 12–17,
//! Table III) is built on.
//!
//! * [`components`] — the Table III component catalog (powers, areas,
//!   counts) and architectural constants (`M = 128`, 110 ns cycle,
//!   16M-row in-core aggregation limit).
//! * [`mapper`] — kernel-to-crossbar mapping: NU hierarchy selection
//!   (H0/H1/H2), super-tile occupancy, utilization, ADC spill detection.
//! * [`pipeline`] — the Fig. 8 execution pipeline and latency model.
//! * [`energy`] — per-layer energy/power accounting with event-driven
//!   (activity-scaled) dynamic energy.
//! * [`engine`] — whole-workload evaluation in ANN, SNN and hybrid
//!   modes, plus degraded-chip variants that remap around faults.
//! * [`fault`] — chip-level fault state and the remap-around-faults
//!   policy (graceful degradation instead of hard failure).
//! * [`chip`] — chip configuration, mesh placement and NoC traffic.
//! * [`serve`] — async multi-tenant inference serving: per-model
//!   request queues, a dynamic batcher coalescing compatible requests
//!   into single crossbar waves, and pools of programmed chip replicas.
//!
//! # Examples
//!
//! Evaluate a small conv net in both modes and compare average power:
//!
//! ```
//! use nebula_core::energy::EnergyModel;
//! use nebula_core::engine::{evaluate_ann, evaluate_snn};
//! use nebula_nn::stats::LayerDescriptor;
//!
//! let layers = vec![
//!     LayerDescriptor::conv(0, "conv1", 3, 64, 3, 1, 1, (32, 32)).with_activity(0.2),
//!     LayerDescriptor::dense(1, "fc", 64 * 32 * 32, 10).with_activity(0.05),
//! ];
//! let model = EnergyModel::default();
//! let ann = evaluate_ann(&model, &layers);
//! let snn = evaluate_snn(&model, &layers, 200);
//! assert!(ann.avg_power > snn.avg_power); // the SNN power advantage
//! ```

#![warn(missing_docs)]

pub mod analog;
pub mod analog_snn;
pub mod capacity;
pub mod chip;
pub mod components;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod mapper;
pub mod multichip;
pub mod pipeline;
pub mod serve;
pub mod trace;

pub use analog::{compile as compile_analog, AnalogNetwork};
pub use analog_snn::{compile_snn, AnalogSpikingNetwork};
pub use capacity::{fits_chip, CapacityExceeded};
pub use chip::{Chip, ChipConfig, Placement};
pub use energy::{ComponentEnergy, EnergyModel, ExecMode, LayerEnergy};
pub use engine::{
    evaluate_ann, evaluate_ann_degraded, evaluate_hybrid, evaluate_snn, evaluate_snn_degraded,
    evaluate_suite, par_evaluate_suite, par_evaluate_suite_with_workers, DegradedReport,
    HybridReport, InferenceReport, SuiteJob, SuiteMode, SuiteOutcome, SuiteReport,
};
pub use fault::{remap_network, ChipFaultState, RemapError, RemapPolicy, RemapReport};
pub use mapper::{
    map_layer, map_network, partition_balanced, plan_stages, Aggregation, LayerMapping,
};
pub use multichip::{plan_cluster, ClusterConfig, ClusterPlan, ShardStrategy};
pub use serve::{
    ChipPool, InferenceRequest, InferenceResponse, ModelChip, ModelSpec, ModelStats, RequestKind,
    ResponseHandle, ServeConfig, ServeError, Server, ServerStats,
};
