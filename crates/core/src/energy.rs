//! The analytical energy/power model of the NEBULA chip.
//!
//! Follows the paper's methodology (§V-C, §VI): component powers come
//! from the Table III characterization ([`crate::components`]); a layer's
//! energy is the power of the components active during its computation
//! times the 110 ns pipeline cycle times the number of cycles. Dynamic
//! (crossbar/driver) power scales with the fraction of programmed cells
//! and, in SNN mode, with the measured spiking activity — the
//! event-driven advantage. Memories charge per active core per cycle.

// Building ComponentEnergy field-by-field reads as the energy equations.
#![allow(clippy::field_reassign_with_default)]

use crate::components as parts;
use crate::mapper::LayerMapping;
use nebula_device::units::{Joules, Seconds, Watts};

/// Execution mode for energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One multi-bit pass per inference.
    Ann,
    /// `timesteps` binary passes per inference.
    Snn {
        /// Evidence-integration window length.
        timesteps: u32,
    },
}

impl ExecMode {
    /// Number of passes through the layer per inference.
    pub fn passes(self) -> u64 {
        match self {
            ExecMode::Ann => 1,
            ExecMode::Snn { timesteps } => timesteps as u64,
        }
    }

    /// Bits per transmitted activation (4-bit values vs 1-bit spikes).
    pub fn bits_per_activation(self) -> u64 {
        match self {
            ExecMode::Ann => 4,
            ExecMode::Snn { .. } => 1,
        }
    }
}

/// Energy split by chip component (the Fig. 15/16 breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentEnergy {
    /// Crossbar arrays (synaptic reads).
    pub crossbar: Joules,
    /// DACs (ANN) or spike drivers (SNN).
    pub drivers: Joules,
    /// Spin neuron units.
    pub neuron_units: Joules,
    /// The 4-bit ADC (spill layers only).
    pub adc: Joules,
    /// SRAM input/output buffers.
    pub sram: Joules,
    /// eDRAM staging memory.
    pub edram: Joules,
    /// Mesh NoC traffic.
    pub noc: Joules,
    /// Accumulator units (hybrid boundary only).
    pub accumulator: Joules,
}

impl ComponentEnergy {
    /// Sum over all components.
    pub fn total(&self) -> Joules {
        self.crossbar
            + self.drivers
            + self.neuron_units
            + self.adc
            + self.sram
            + self.edram
            + self.noc
            + self.accumulator
    }

    /// Adds another breakdown into this one.
    pub fn accumulate(&mut self, other: &ComponentEnergy) {
        self.crossbar += other.crossbar;
        self.drivers += other.drivers;
        self.neuron_units += other.neuron_units;
        self.adc += other.adc;
        self.sram += other.sram;
        self.edram += other.edram;
        self.noc += other.noc;
        self.accumulator += other.accumulator;
    }

    /// `(name, fraction of total)` pairs, for breakdown reporting.
    pub fn fractions(&self) -> Vec<(&'static str, f64)> {
        let t = self.total().0;
        if t == 0.0 {
            return Vec::new();
        }
        vec![
            ("crossbar", self.crossbar.0 / t),
            ("drivers", self.drivers.0 / t),
            ("neuron_units", self.neuron_units.0 / t),
            ("adc", self.adc.0 / t),
            ("sram", self.sram.0 / t),
            ("edram", self.edram.0 / t),
            ("noc", self.noc.0 / t),
            ("accumulator", self.accumulator.0 / t),
        ]
    }
}

/// Energy/power report for one layer in one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerEnergy {
    /// Layer name.
    pub name: String,
    /// Energy breakdown per inference.
    pub energy: ComponentEnergy,
    /// Worst-cycle (instantaneous) compute power: the super-tile power
    /// with every mapped cell switching — Fig. 14's metric.
    pub peak_power: Watts,
    /// Total crossbar-evaluation cycles per inference (passes included).
    pub cycles: u64,
    /// Wall-clock latency of the layer per inference.
    pub latency: Seconds,
    /// Mean power while the layer computes.
    pub avg_power: Watts,
}

/// Tunable constants of the analytical model (documented defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Fraction of cycles the eDRAM macro is actually being accessed
    /// (pipeline stages 1 and 3 touch it; it is idled otherwise).
    pub edram_duty: f64,
    /// Mean hops an inter-layer activation travels on the 14×14 mesh.
    pub mean_hops: f64,
    /// NoC transport energy per bit per hop (32 nm mesh estimate).
    pub pj_per_bit_hop: f64,
    /// Chip-to-chip link energy per bit (serdes + board trace — roughly
    /// an order of magnitude above an on-die mesh hop).
    pub pj_per_bit_link: f64,
    /// ANN-core pool on the chip (Table III: 14).
    pub ann_core_pool: usize,
    /// SNN-core pool on the chip (Table III: 182). The 13× larger SNN
    /// fabric lets SNN mode replicate kernels and process many output
    /// positions per timestep in parallel.
    pub snn_core_pool: usize,
    /// Upper bound on kernel replication: input-delivery bandwidth and
    /// eDRAM banking limit how many output positions one layer can
    /// evaluate per cycle regardless of spare cores.
    pub max_replication: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            edram_duty: 0.10,
            mean_hops: 2.0,
            pj_per_bit_hop: 0.1,
            pj_per_bit_link: 0.8,
            ann_core_pool: parts::ANN_CORES,
            snn_core_pool: parts::SNN_CORES,
            max_replication: 8.0,
        }
    }
}

impl EnergyModel {
    /// Transport energy for measured NoC traffic: on-die mesh flit·hops
    /// at [`pj_per_bit_hop`](Self::pj_per_bit_hop) and chip-to-chip
    /// link crossings at the ~8× more expensive
    /// [`pj_per_bit_link`](Self::pj_per_bit_link). Feed it a
    /// [`TrafficStats`](nebula_noc::TrafficStats) from a
    /// [`ChipCluster`](nebula_noc::ChipCluster)
    /// (or a single mesh, where the link term is zero).
    pub fn noc_traffic_energy(&self, stats: &nebula_noc::TrafficStats) -> Joules {
        let flit_bits = nebula_noc::FLIT_BITS as f64;
        Joules(
            stats.flit_hops as f64 * flit_bits * self.pj_per_bit_hop * 1e-12
                + stats.link_flit_hops as f64 * flit_bits * self.pj_per_bit_link * 1e-12,
        )
    }

    /// Computes the energy/power report for one mapped layer.
    ///
    /// `input_activity` is the average input spikes per neuron per
    /// timestep (1.0 in ANN mode); it scales the dynamic crossbar,
    /// driver and NoC energies — the event-driven saving.
    pub fn layer_energy(
        &self,
        mapping: &LayerMapping,
        mode: ExecMode,
        input_activity: f64,
    ) -> LayerEnergy {
        self.layer_energy_replicated(mapping, mode, input_activity, 1.0)
    }

    /// Like [`layer_energy`](Self::layer_energy) but with kernel
    /// replication: `replication` parallel copies of the layer's weights
    /// process that many output positions per cycle, dividing the cycle
    /// count while multiplying the instantaneous active hardware. Layer
    /// *energy* is invariant to replication; latency and average power
    /// are not. The whole-network engines derive the replication factor
    /// from the mode's core pool.
    pub fn layer_energy_replicated(
        &self,
        mapping: &LayerMapping,
        mode: ExecMode,
        input_activity: f64,
        replication: f64,
    ) -> LayerEnergy {
        let activity = match mode {
            ExecMode::Ann => 1.0,
            ExecMode::Snn { .. } => input_activity.clamp(0.0, 1.0),
        };
        let passes = mode.passes();
        let cycle = parts::CYCLE;
        // Replication divides the per-pass wave count (a dense layer's
        // single wave cannot shrink further).
        let waves = ((mapping.cycles as f64 / replication.max(1.0)).ceil() as u64).max(1);
        let cycles = waves * passes;
        // Effective hardware multiplier actually achieved.
        let r_eff = mapping.cycles as f64 / waves as f64;

        // Fraction of one full super-tile's cells active per replica.
        let cells_frac =
            mapping.acs_used as f64 * mapping.utilization / parts::ACS_PER_SUPERTILE as f64;

        let (xbar_p, driver_p, ib_p, ob_p) = match mode {
            ExecMode::Ann => (
                parts::ANN_CROSSBAR.power,
                parts::ANN_DAC.power,
                parts::ANN_INPUT_BUFFER.power,
                parts::ANN_OUTPUT_BUFFER.power,
            ),
            ExecMode::Snn { .. } => (
                parts::SNN_CROSSBAR.power,
                parts::SNN_DRIVER.power,
                parts::SNN_INPUT_BUFFER.power,
                parts::SNN_OUTPUT_BUFFER.power,
            ),
        };

        // In SNN mode the buffers and eDRAM are event-driven: spikes are
        // the only traffic, and membrane state lives in the spin neurons
        // (no SRAM reads/writes per timestep), so memory energy is
        // activity-gated. ANN buffers stream multi-bit data every cycle.
        let mem_gate = match mode {
            ExecMode::Ann => 1.0,
            ExecMode::Snn { .. } => activity,
        };

        let t_active = cycle * cycles as f64;
        let hw = r_eff; // replicas of every per-core resource
        let mut e = ComponentEnergy::default();
        e.crossbar = xbar_p * (cells_frac * activity * hw) * t_active;
        e.drivers = driver_p * (cells_frac * activity * hw) * t_active;
        e.neuron_units = parts::NEURON_UNIT.power * (cells_frac * activity * hw) * t_active;
        e.sram = (ib_p + ob_p) * (mapping.cores as f64 * hw * mem_gate) * t_active;
        e.edram = parts::EDRAM.power
            * (mapping.cores as f64 * hw * mem_gate * self.edram_duty)
            * t_active;

        if mapping.needs_adc() {
            // The ADC digitizes up to 128 partial sums per 110 ns cycle.
            let e_per_conversion = parts::ADC.power * cycle / 128.0;
            e.adc = e_per_conversion * (mapping.adc_conversions * passes) as f64;
        }

        // Inter-layer traffic: each output activation travels mean_hops.
        // `activity` is 1.0 in ANN mode, so this scales spikes only.
        let bits_moved = mapping.output_elements as f64
            * mode.bits_per_activation() as f64
            * passes as f64
            * activity;
        e.noc = Joules(bits_moved * self.mean_hops * self.pj_per_bit_hop * 1e-12);

        // Peak (instantaneous) compute power of one replica — the Fig. 14
        // metric. The worst cycle sees burst activity well above the
        // average rate, so SNN peak activity is floored at 10%.
        let peak_activity = match mode {
            ExecMode::Ann => 1.0,
            ExecMode::Snn { .. } => activity.max(0.1),
        };
        let peak_power =
            (xbar_p + driver_p + parts::NEURON_UNIT.power) * (cells_frac * peak_activity);

        let latency = cycle * cycles as f64;
        let total = e.total();
        let avg_power = if latency.0 > 0.0 {
            total / latency
        } else {
            Watts::ZERO
        };
        LayerEnergy {
            name: mapping.name.clone(),
            energy: e,
            peak_power,
            cycles,
            latency,
            avg_power,
        }
    }

    /// Energy of the accumulator units that bridge a hybrid boundary:
    /// `boundary_elements` spike counters accumulate for `timesteps`
    /// cycles (1024 accumulators per AU).
    pub fn accumulator_energy(&self, boundary_elements: u64, timesteps: u32) -> Joules {
        let aus = boundary_elements.div_ceil(1024).max(1);
        parts::ACCUMULATOR_UNIT.power * aus as f64 * (parts::CYCLE * timesteps as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::map_layer;
    use nebula_nn::stats::LayerDescriptor;

    fn conv_mapping() -> LayerMapping {
        map_layer(&LayerDescriptor::conv(0, "conv", 3, 64, 3, 1, 1, (32, 32)))
    }

    fn spill_mapping() -> LayerMapping {
        map_layer(&LayerDescriptor::dense(0, "fc", 9216, 4096))
    }

    #[test]
    fn ann_energy_exceeds_snn_per_pass() {
        let model = EnergyModel::default();
        let m = conv_mapping();
        let ann = model.layer_energy(&m, ExecMode::Ann, 1.0);
        let snn1 = model.layer_energy(&m, ExecMode::Snn { timesteps: 1 }, 0.2);
        assert!(
            ann.energy.total() > snn1.energy.total(),
            "one ANN pass must outweigh one sparse SNN pass"
        );
    }

    #[test]
    fn snn_energy_scales_linearly_with_timesteps() {
        let model = EnergyModel::default();
        let m = conv_mapping();
        let t100 = model.layer_energy(&m, ExecMode::Snn { timesteps: 100 }, 0.2);
        let t200 = model.layer_energy(&m, ExecMode::Snn { timesteps: 200 }, 0.2);
        let ratio = t200.energy.total() / t100.energy.total();
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn crossbar_energy_scales_with_activity() {
        let model = EnergyModel::default();
        let m = conv_mapping();
        let sparse = model.layer_energy(&m, ExecMode::Snn { timesteps: 10 }, 0.1);
        let dense = model.layer_energy(&m, ExecMode::Snn { timesteps: 10 }, 0.4);
        let ratio = dense.energy.crossbar / sparse.energy.crossbar;
        assert!(
            (ratio - 4.0).abs() < 1e-6,
            "activity scaling broken: {ratio}"
        );
        // SNN buffers are event-driven, so they gate with activity too.
        let sram_ratio = dense.energy.sram / sparse.energy.sram;
        assert!(
            (sram_ratio - 4.0).abs() < 1e-6,
            "sram gating broken: {sram_ratio}"
        );
    }

    #[test]
    fn only_spill_layers_pay_adc() {
        let model = EnergyModel::default();
        let fit = model.layer_energy(&conv_mapping(), ExecMode::Ann, 1.0);
        assert_eq!(fit.energy.adc, Joules::ZERO);
        let spill = model.layer_energy(&spill_mapping(), ExecMode::Ann, 1.0);
        assert!(spill.energy.adc.0 > 0.0);
    }

    #[test]
    fn peak_power_ratio_ann_vs_snn_is_large() {
        // The Fig. 14 headline: ANN peak power can be ~50× SNN peak.
        let model = EnergyModel::default();
        let m = conv_mapping();
        let ann = model.layer_energy(&m, ExecMode::Ann, 1.0);
        let snn = model.layer_energy(&m, ExecMode::Snn { timesteps: 100 }, 0.2);
        let ratio = ann.peak_power / snn.peak_power;
        assert!(
            (10.0..120.0).contains(&ratio),
            "ANN/SNN peak-power ratio {ratio} out of the paper's regime"
        );
    }

    #[test]
    fn snn_average_power_is_well_below_ann() {
        // Fig. 17 bottom: SNN mode is ≥ 6.25× more power-efficient.
        let model = EnergyModel::default();
        let m = conv_mapping();
        let ann = model.layer_energy(&m, ExecMode::Ann, 1.0);
        let snn = model.layer_energy(&m, ExecMode::Snn { timesteps: 100 }, 0.15);
        let ratio = ann.avg_power / snn.avg_power;
        assert!(ratio > 4.0, "ANN/SNN average power ratio only {ratio}");
    }

    #[test]
    fn snn_breakdown_is_memory_dominated_ann_is_compute_dominated() {
        // Fig. 15's qualitative shape.
        let model = EnergyModel::default();
        // A moderately utilized dense layer (≈11% of a super-tile).
        let m = map_layer(&LayerDescriptor::dense(0, "fc", 300, 100));
        let ann = model.layer_energy(&m, ExecMode::Ann, 1.0);
        let snn = model.layer_energy(&m, ExecMode::Snn { timesteps: 300 }, 0.15);
        let compute_ann = (ann.energy.crossbar + ann.energy.drivers).0;
        let mem_ann = (ann.energy.sram + ann.energy.edram).0;
        assert!(compute_ann > mem_ann, "ANN should be compute dominated");
        let compute_snn = (snn.energy.crossbar + snn.energy.drivers).0;
        let mem_snn = (snn.energy.sram + snn.energy.edram).0;
        assert!(mem_snn > compute_snn, "SNN should be memory dominated");
    }

    #[test]
    fn component_energy_totals_and_fractions() {
        let mut a = ComponentEnergy::default();
        a.crossbar = Joules(3.0);
        a.sram = Joules(1.0);
        let mut b = ComponentEnergy::default();
        b.adc = Joules(4.0);
        a.accumulate(&b);
        assert_eq!(a.total(), Joules(8.0));
        let fr = a.fractions();
        let sum: f64 = fr.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accumulator_energy_scales_with_window() {
        let model = EnergyModel::default();
        let short = model.accumulator_energy(4096, 100);
        let long = model.accumulator_energy(4096, 200);
        assert!((long.0 / short.0 - 2.0).abs() < 1e-9);
        // 4096 elements → 4 AUs.
        let one = model.accumulator_energy(100, 100);
        assert!((short.0 / one.0 - 4.0).abs() < 1e-9);
    }
}
