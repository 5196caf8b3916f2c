//! Circuit-level configuration for NEBULA crossbars.

use crate::error::CrossbarError;
use nebula_device::params::DeviceParams;
use nebula_device::units::Volts;

/// Operating mode of a crossbar / neuron unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Non-spiking mode: multi-level (4-bit) DAC inputs at 0.75 V,
    /// saturating-ReLU neurons.
    Ann,
    /// Spiking mode: binary spike drivers at 0.25 V, integrate-and-fire
    /// neurons.
    Snn,
}

impl Mode {
    /// The crossbar read (bit-line) voltage this mode drives
    /// (paper Table III: ANN DAC 0.75 V, SNN driver 0.25 V).
    pub fn read_voltage(self) -> Volts {
        match self {
            Mode::Ann => Volts(0.75),
            Mode::Snn => Volts(0.25),
        }
    }

    /// Input resolution in bits (multi-level for ANN, binary for SNN).
    pub fn input_bits(self) -> u32 {
        match self {
            Mode::Ann => 4,
            Mode::Snn => 1,
        }
    }
}

/// Configuration of an atomic crossbar and its hierarchy.
///
/// The paper's design point is `m = 128` with 16 conductance levels
/// (4 bits/cell).
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarConfig {
    /// Side of the atomic crossbar (rows = columns = `m`).
    pub m: usize,
    /// Operating mode.
    pub mode: Mode,
    /// Device parameters of the DW-MTJ synapses and neurons.
    pub device: DeviceParams,
}

impl CrossbarConfig {
    /// The paper's design point for the given mode.
    pub fn paper_default(mode: Mode) -> Self {
        Self {
            m: 128,
            mode,
            device: DeviceParams::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] when `m` is zero.
    pub fn validate(&self) -> Result<(), CrossbarError> {
        if self.m == 0 {
            return Err(CrossbarError::InvalidConfig {
                reason: "crossbar side m must be nonzero".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = CrossbarConfig::paper_default(Mode::Ann);
        assert_eq!(c.m, 128);
        assert_eq!(c.device.levels(), 16);
        assert_eq!(Mode::Ann.read_voltage(), Volts(0.75));
        assert_eq!(Mode::Snn.read_voltage(), Volts(0.25));
        assert_eq!(Mode::Ann.input_bits(), 4);
        assert_eq!(Mode::Snn.input_bits(), 1);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = CrossbarConfig::paper_default(Mode::Snn);
        c.m = 0;
        assert!(c.validate().is_err());
    }
}
