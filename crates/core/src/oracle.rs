//! The oracles, one per mode: the reference every fast call is checked
//! against. [`forward`] and [`run`] make the checks of
//! [`AnalogNetwork::forward`] and [`AnalogSpikingNetwork::run`], then
//! walk every unit of the placement in order on the calling thread,
//! each synaptic stage through the per-cell evaluator
//! ([`SuperTile::dot_reference`]), without the pipeline executor, its
//! journal or the worker pool, and move no ring traffic. Outputs, waves
//! and read energy match the fast call bit for bit on every placement.
//!
//! [`SuperTile::dot_reference`]: nebula_crossbar::SuperTile::dot_reference

use crate::analog::{AnalogError, AnalogNetwork};
use crate::analog_snn::{AnalogSpikingNetwork, Draws};
use crate::multichip::sum_timesteps;
use nebula_tensor::Tensor;
use std::borrow::Cow;

/// [`AnalogNetwork::forward`] through the oracle.
///
/// # Errors
///
/// As [`AnalogNetwork::forward`], without the routing failures.
pub fn forward(net: &mut AnalogNetwork, inputs: &Tensor) -> Result<Tensor, AnalogError> {
    net.place.check_input(inputs)?;
    net.place.walk(Cow::Borrowed(inputs))
}

/// [`AnalogSpikingNetwork::run`] through the oracle: every membrane to
/// rest, then one walk per timestep over the whole batch, encoded from
/// `draws` first, as the pipeline head encodes it.
///
/// # Errors
///
/// As [`AnalogSpikingNetwork::run`], without the routing failures.
pub fn run(
    net: &mut AnalogSpikingNetwork,
    inputs: &Tensor,
    timesteps: usize,
    draws: Draws<'_>,
) -> Result<Tensor, AnalogError> {
    let mut draws = draws.bind(net.encoding, inputs)?;
    let place = &mut net.place;
    let shape = place.check_input(inputs)?;
    place.reset_state();
    let steps = (0..timesteps).map(|_| place.walk(Cow::Owned(draws.encode(inputs))));
    sum_timesteps(steps, &shape)
}
