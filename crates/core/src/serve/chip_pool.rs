//! Per-model pools of programmed chip instances.
//!
//! A programmed chip (an [`AnalogNetwork`] or [`AnalogSpikingNetwork`]
//! with its weights already written into the crossbar models) is
//! long-lived state; an in-flight request is transient. The pool is the
//! seam that keeps the two apart: batch workers check a chip out for
//! exactly one wave and check it back in, so "which physical chip holds
//! this model" is invisible to tenants and the same model can be
//! replicated, sharded or reprogrammed behind the pool without touching
//! the request path. A sharded model is the same network type on a
//! bigger placement: each replica is a whole chip cluster, checked out
//! as one unit, and it serves through the same two match arms as a
//! single chip. Mutable chip state a wave touches — energy
//! counters, wave counts, membrane potentials — is confined to the
//! checked-out instance, which is what makes concurrent batches for one
//! model safe.

use crate::analog::AnalogNetwork;
use crate::analog_snn::AnalogSpikingNetwork;
use nebula_device::units::Joules;
use std::sync::{Condvar, Mutex};

/// One programmed chip instance: the ANN or SNN analog executor with
/// weights already written, on one chip or sharded over a cluster
/// ([`AnalogNetwork::shard`]) — a model too wide for a single chip
/// serves exactly like any other, the pool seam hides the difference.
#[derive(Debug, Clone)]
pub enum ModelChip {
    /// ANN-mode network ([`AnalogNetwork`]).
    Ann(AnalogNetwork),
    /// SNN-mode network ([`AnalogSpikingNetwork`]).
    Snn(AnalogSpikingNetwork),
}

impl ModelChip {
    /// `"ann"` or `"snn"` — the request kind this chip serves.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ModelChip::Ann(_) => "ann",
            ModelChip::Snn(_) => "snn",
        }
    }

    /// Analog read energy this instance has dissipated so far.
    pub fn read_energy(&self) -> Joules {
        match self {
            ModelChip::Ann(n) => n.read_energy(),
            ModelChip::Snn(n) => n.read_energy(),
        }
    }

    /// Crossbar evaluation waves this instance has executed so far.
    pub fn waves(&self) -> u64 {
        match self {
            ModelChip::Ann(n) => n.waves(),
            ModelChip::Snn(n) => n.waves(),
        }
    }
}

/// A blocking pool of identical programmed chip replicas for one model.
#[derive(Debug)]
pub(crate) struct ChipPool {
    idle: Mutex<Vec<ModelChip>>,
    available: Condvar,
    replicas: usize,
}

impl ChipPool {
    /// Builds a pool of `replicas` instances by cloning the programmed
    /// prototype (cloning copies the programmed conductance state; each
    /// replica's energy counters then accrue independently).
    /// [`Server::start`](crate::serve::Server::start) rejects zero
    /// replicas before it builds a pool.
    ///
    /// # Panics
    ///
    /// Panics when `replicas` is zero.
    pub(crate) fn new(prototype: ModelChip, replicas: usize) -> Self {
        assert!(replicas >= 1, "a chip pool needs at least one replica");
        let mut idle = Vec::with_capacity(replicas);
        for _ in 1..replicas {
            idle.push(prototype.clone());
        }
        idle.push(prototype);
        Self {
            idle: Mutex::new(idle),
            available: Condvar::new(),
            replicas,
        }
    }

    /// Number of replicas the pool was built with.
    pub(crate) fn replicas(&self) -> usize {
        self.replicas
    }

    /// Takes an idle chip, blocking until one is checked back in.
    pub(crate) fn checkout(&self) -> ModelChip {
        let mut idle = self.idle.lock().expect("chip pool poisoned");
        loop {
            if let Some(chip) = idle.pop() {
                return chip;
            }
            idle = self.available.wait(idle).expect("chip pool poisoned");
        }
    }

    /// Returns a chip to the pool and wakes one waiting worker.
    pub(crate) fn checkin(&self, chip: ModelChip) {
        let mut idle = self.idle.lock().expect("chip pool poisoned");
        debug_assert!(idle.len() < self.replicas, "more checkins than replicas");
        idle.push(chip);
        drop(idle);
        self.available.notify_one();
    }

    /// Sum of read energy over the *idle* replicas. Exact once every
    /// chip is checked in (e.g. after
    /// [`Server::shutdown`](crate::serve::Server::shutdown)); a snapshot
    /// otherwise.
    pub(crate) fn total_read_energy(&self) -> Joules {
        self.idle
            .lock()
            .expect("chip pool poisoned")
            .iter()
            .map(ModelChip::read_energy)
            .sum()
    }

    /// Sum of executed waves over the *idle* replicas (see
    /// [`total_read_energy`](Self::total_read_energy) for the caveat).
    pub(crate) fn total_waves(&self) -> u64 {
        self.idle
            .lock()
            .expect("chip pool poisoned")
            .iter()
            .map(ModelChip::waves)
            .sum()
    }
}
