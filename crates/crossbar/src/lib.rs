//! # nebula-crossbar
//!
//! Circuit level of the NEBULA stack (Singh et al., ISCA 2020): the
//! "All-Spin" neuromorphic crossbar and its periphery.
//!
//! * [`array`](mod@array) — the `M×M` atomic crossbar of DW-MTJ synapses computing
//!   analog dot products by Kirchhoff current summation, with
//!   reference-column signed-weight mapping, 16-level conductance
//!   quantization, hard faults, aging and event-driven energy
//!   accounting.
//! * [`tile`] — morphable tiles (2×2 ACs) and super-tiles (2×2 tiles)
//!   with the H0/H1/H2 neuron-unit hierarchy that merges partial sums in
//!   the *current domain*, supporting receptive fields up to `16M` rows
//!   without an ADC. A super-tile evaluates through one split-phase
//!   seam — [`SuperTile::prepare`], then
//!   [`SuperTile::eval_dense_prepared`] (dense drives) or
//!   [`SuperTile::spike_rows`] (spikes) from any number of workers, then
//!   [`SuperTile::accrue_batch`] — checked against one per-cell oracle,
//!   `dot_reference`, bit for bit in outputs and read energy.
//! * [`nu`] — neuron units: arrays of current-driven spin neurons
//!   (spiking IF or saturating ReLU) terminating crossbar columns.
//! * [`kernel`] — the GEMV kernels beneath the evaluation fast path:
//!   the column-lane differential-conductance layout with per-row
//!   conductance sums (each driven row's current, as the oracle sums
//!   it), and the spike row adds.
//! * [`converters`] — the multi-level DACs, spike drivers and the
//!   sparingly used 4-bit ADC.
//!
//! # Examples
//!
//! An end-to-end analog pipeline — program a kernel, evaluate a dot
//! product (here through the per-cell oracle), threshold it with spin
//! neurons:
//!
//! ```
//! use nebula_crossbar::array::AtomicCrossbar;
//! use nebula_crossbar::config::{CrossbarConfig, Mode};
//! use nebula_crossbar::nu::NeuronUnit;
//! use nebula_device::params::DeviceParams;
//!
//! let mut xbar = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Snn))?;
//! xbar.program(&[vec![1.0], vec![1.0]], 1.0)?;
//! let currents = xbar.dot_reference(&[1.0, 1.0])?; // two simultaneous spikes
//! let value = currents[0].0 / xbar.unit_current().0; // ≈ 2.0
//!
//! let mut nu = NeuronUnit::new_spiking(1, 2.0, &DeviceParams::default())?;
//! let spikes = nu.process(&[value])?;
//! assert_eq!(spikes, vec![1.0]); // the column fired
//! # Ok::<(), nebula_crossbar::CrossbarError>(())
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod config;
pub mod converters;
pub mod error;
pub mod kernel;
pub mod nu;
pub mod tile;

pub use array::AtomicCrossbar;
pub use config::{CrossbarConfig, Mode};
pub use converters::{Adc, MultiLevelDac, SpikeDriver};
pub use error::CrossbarError;
#[allow(deprecated)]
pub use kernel::KernelPath;
pub use nu::NeuronUnit;
pub use tile::{acs_per_kernel, kernels_per_supertile, nu_level_for, NuLevel, SuperTile};
