//! Spiking-neural-network simulation: integrate-and-fire layers, rate
//! (Poisson) input encoding and spike-activity statistics.
//!
//! The simulated neuron is the paper's leak-free, refractory-free linear
//! IF neuron (Eq. 2): `u(t+1) = u(t) + Σ_j w_j·i_j(t)`, firing when
//! `u ≥ v_th`. This is exactly the dynamics the DW-MTJ neuron device
//! realizes in hardware
//! ([`nebula_device::neuron::SpikingNeuron`](https://docs.rs)) — membrane
//! potential as domain-wall position, fire-and-reset at the far edge.

use crate::error::NnError;
use crate::layer::Layer;
use nebula_tensor::Tensor;
use rand::Rng;

/// What happens to the membrane potential when a neuron fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetMode {
    /// Subtract the threshold (retains super-threshold charge; the usual
    /// choice for high-accuracy ANN→SNN conversion).
    #[default]
    Subtract,
    /// Reset to the resting potential (the paper's Eq. 2 description; the
    /// DW-MTJ device resets its wall to the left edge).
    Zero,
}

/// How the input image is turned into spikes each timestep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputEncoding {
    /// Bernoulli/Poisson rate coding: a pixel of intensity `p ∈ [0,1]`
    /// spikes with probability `p` each timestep (paper §V-A).
    #[default]
    Poisson,
    /// The analog intensity is injected as a constant input current every
    /// timestep (a common lower-variance alternative).
    Constant,
}

/// One stage of a spiking network.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // synaptic stages dominate by design
pub enum SnnStage {
    /// A synaptic stage reusing an ANN layer's arithmetic (dense, conv,
    /// depthwise, pool, flatten) applied to the spike tensor.
    Synaptic(Layer),
    /// An integrate-and-fire neuron population.
    IntegrateFire(IfPopulation),
}

/// Homeostatic threshold adaptation: each neuron's threshold drifts so
/// its long-run firing rate approaches `target_rate` — the homeostasis
/// extension §II-A lists among the bio-fidelity avenues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Homeostasis {
    /// Desired spikes per neuron per timestep.
    pub target_rate: f32,
    /// Threshold adaptation step per timestep.
    pub adaptation_rate: f32,
    /// Lower bound keeping thresholds positive.
    pub min_threshold: f32,
}

impl Homeostasis {
    /// A gentle default: 10% target rate, slow adaptation.
    pub fn new(target_rate: f32) -> Self {
        Self {
            target_rate,
            adaptation_rate: 0.01,
            min_threshold: 0.05,
        }
    }
}

/// State of one population of IF neurons.
#[derive(Debug, Clone, PartialEq)]
pub struct IfPopulation {
    /// Firing threshold `v_th`.
    pub threshold: f32,
    /// Reset behaviour on firing.
    pub reset: ResetMode,
    /// Multiplicative membrane retention per timestep (1.0 = the paper's
    /// leak-free IF neuron; < 1.0 gives a leaky LIF neuron — one of the
    /// bio-fidelity extensions §II-A mentions).
    pub leak: f32,
    /// Refractory period: timesteps a neuron ignores input after firing
    /// (0 = the paper's refractory-free neuron).
    pub refractory: u32,
    /// Optional homeostatic threshold adaptation.
    pub homeostasis: Option<Homeostasis>,
    membrane: Option<Tensor>,
    refractory_left: Vec<u32>,
    thresholds: Vec<f32>,
    total_spikes: u64,
    neuron_count: usize,
}

impl IfPopulation {
    /// Creates a population with the given threshold and reset mode
    /// (membrane state materializes on first use). Leak-free,
    /// refractory-free — the paper's inference neuron.
    pub fn new(threshold: f32, reset: ResetMode) -> Self {
        Self::with_dynamics(threshold, reset, 1.0, 0)
    }

    /// Creates a population with full LIF dynamics: membrane retention
    /// `leak ∈ (0, 1]` per timestep and a `refractory` dead time after
    /// each spike.
    ///
    /// # Panics
    ///
    /// Panics when `leak` is outside `(0, 1]`.
    pub fn with_dynamics(threshold: f32, reset: ResetMode, leak: f32, refractory: u32) -> Self {
        assert!(
            leak > 0.0 && leak <= 1.0,
            "membrane retention must be in (0, 1], got {leak}"
        );
        Self {
            threshold,
            reset,
            leak,
            refractory,
            homeostasis: None,
            membrane: None,
            refractory_left: Vec::new(),
            thresholds: Vec::new(),
            total_spikes: 0,
            neuron_count: 0,
        }
    }

    /// Enables homeostatic threshold adaptation (builder style).
    pub fn with_homeostasis(mut self, h: Homeostasis) -> Self {
        self.homeostasis = Some(h);
        self
    }

    /// The current per-neuron thresholds (the shared `threshold` until
    /// homeostasis has adapted them).
    pub fn thresholds(&self) -> &[f32] {
        &self.thresholds
    }

    /// Advances one timestep: integrates `input` into the membrane and
    /// returns the binary spike tensor.
    ///
    /// Every neuron runs the same branch-free body: leak, integration,
    /// fire and reset are computed and then picked by selects, so the
    /// loop vectorizes (compiled portable and for AVX2, picked once per
    /// process).
    pub fn step(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.step_with(input, integrate)
    }

    /// [`step`](Self::step) through one build of the IF body.
    fn step_with(&mut self, input: &Tensor, build: IntegrateBuild) -> Result<Tensor, NnError> {
        let needs_init = !matches!(&self.membrane, Some(m) if m.shape() == input.shape());
        if needs_init {
            self.membrane = Some(Tensor::zeros(input.shape()));
            self.refractory_left = vec![0; input.len()];
            self.thresholds = vec![self.threshold; input.len()];
            self.neuron_count = input.len();
        }
        let dynamics = Dynamics {
            leak: self.leak,
            zero_reset: self.reset == ResetMode::Zero,
            refractory: self.refractory,
            homeostasis: self.homeostasis,
        };
        let membrane = self.membrane.as_mut().expect("initialized above");
        let mut spikes = Tensor::zeros(input.shape());
        let neurons = Neurons {
            membrane: membrane.data_mut(),
            refractory_left: &mut self.refractory_left,
            thresholds: &mut self.thresholds,
        };
        self.total_spikes += build(&dynamics, neurons, input.data(), spikes.data_mut());
        Ok(spikes)
    }

    /// Clears membrane state and counters for a new inference window.
    pub fn reset_state(&mut self) {
        self.membrane = None;
        self.refractory_left.clear();
        self.thresholds.clear();
        self.total_spikes = 0;
        self.neuron_count = 0;
    }

    /// Total spikes fired since the last reset.
    pub fn total_spikes(&self) -> u64 {
        self.total_spikes
    }

    /// Number of neurons in the population (0 before first use).
    pub fn neuron_count(&self) -> usize {
        self.neuron_count
    }
}

/// The per-population constants one IF step reads.
#[derive(Debug, Clone, Copy)]
struct Dynamics {
    leak: f32,
    zero_reset: bool,
    refractory: u32,
    homeostasis: Option<Homeostasis>,
}

/// The per-neuron state one IF step advances, one entry per neuron.
struct Neurons<'a> {
    membrane: &'a mut [f32],
    refractory_left: &'a mut [u32],
    thresholds: &'a mut [f32],
}

/// One build of the IF step: advances `neurons` by the input `x`,
/// writes the binary spikes into `s` (one value per neuron) and returns
/// how many fired.
type IntegrateBuild = fn(&Dynamics, Neurons<'_>, &[f32], &mut [f32]) -> u64;

/// The IF step: runs the AVX2 build when the host has it, else the
/// portable one. Both compile the same source and produce the same bits
/// (no FMA contraction, no re-association), like the crossbar GEMV
/// kernel; `is_x86_feature_detected!` probes the CPU on its first call
/// and caches the answer for the process.
fn integrate(d: &Dynamics, n: Neurons<'_>, x: &[f32], s: &mut [f32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host reports AVX2.
        return unsafe { integrate_avx2(d, n, x, s) };
    }
    integrate_portable(d, n, x, s)
}

/// [`integrate`] compiled for the build target's baseline ISA.
fn integrate_portable(d: &Dynamics, n: Neurons<'_>, x: &[f32], s: &mut [f32]) -> u64 {
    integrate_body(d, n, x, s)
}

/// [`integrate`] compiled with AVX2 enabled: the same source, wider
/// registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn integrate_avx2(d: &Dynamics, n: Neurons<'_>, x: &[f32], s: &mut [f32]) -> u64 {
    integrate_body(d, n, x, s)
}

/// The one IF source both builds inline, instantiated once per
/// combination of the optional dynamics so that a population without a
/// refractory period or homeostasis never touches their state.
#[inline(always)]
fn integrate_body(d: &Dynamics, n: Neurons<'_>, x: &[f32], s: &mut [f32]) -> u64 {
    match (d.refractory > 0, d.homeostasis) {
        (false, None) => neurons::<false, false>(d, Homeostasis::new(0.0), n, x, s),
        (true, None) => neurons::<true, false>(d, Homeostasis::new(0.0), n, x, s),
        (false, Some(h)) => neurons::<false, true>(d, h, n, x, s),
        (true, Some(h)) => neurons::<true, true>(d, h, n, x, s),
    }
}

/// The branch-free per-neuron body. Each neuron leaks (`leak < 1`),
/// integrates its input unless it is in its dead time (such input is
/// lost), fires when the membrane reaches its threshold, and then
/// subtracts the threshold or resets to `0.0`; with `REFRACTORY` a spike
/// starts a dead time, and with `HOMEOSTASIS` firing above the target
/// rate raises the threshold and silence lowers it, outside the dead
/// time. Every outcome is computed and picked by a select.
#[inline(always)]
fn neurons<const REFRACTORY: bool, const HOMEOSTASIS: bool>(
    d: &Dynamics,
    h: Homeostasis,
    n: Neurons<'_>,
    x: &[f32],
    s: &mut [f32],
) -> u64 {
    let len = x.len();
    let (m, left, th, s) = (
        &mut n.membrane[..len],
        &mut n.refractory_left[..len],
        &mut n.thresholds[..len],
        &mut s[..len],
    );
    let (leaky, leak, zero_reset) = (d.leak < 1.0, d.leak, d.zero_reset);
    let mut fired = 0u64;
    for i in 0..len {
        let held = if leaky { m[i] * leak } else { m[i] };
        let dead = REFRACTORY && left[i] > 0;
        let v = held + x[i];
        let t = th[i];
        let spiked = !dead && v >= t;
        let reset = if zero_reset { 0.0 } else { v - t };
        m[i] = if dead {
            held
        } else if spiked {
            reset
        } else {
            v
        };
        s[i] = if spiked { 1.0 } else { 0.0 };
        fired += u64::from(spiked);
        if REFRACTORY {
            // Counts down through the dead time; only a spike restarts it.
            left[i] = if spiked {
                d.refractory
            } else {
                left[i].saturating_sub(1)
            };
        }
        if HOMEOSTASIS {
            let err = f32::from(spiked) - h.target_rate;
            let adapted = (t + h.adaptation_rate * err).max(h.min_threshold);
            th[i] = if dead { t } else { adapted };
        }
    }
    fired
}

/// Per-layer spiking-activity statistics (the data behind the paper's
/// Fig. 4).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpikeStats {
    /// Average spikes per neuron per timestep, one entry per IF layer in
    /// network order.
    pub activity_per_layer: Vec<f64>,
    /// Total spikes per IF layer.
    pub total_spikes_per_layer: Vec<u64>,
    /// Neuron count per IF layer.
    pub neurons_per_layer: Vec<usize>,
    /// Number of timesteps simulated.
    pub timesteps: usize,
}

impl SpikeStats {
    /// Mean spiking activity across all layers.
    pub fn mean_activity(&self) -> f64 {
        if self.activity_per_layer.is_empty() {
            0.0
        } else {
            self.activity_per_layer.iter().sum::<f64>() / self.activity_per_layer.len() as f64
        }
    }
}

/// Result of running a spiking network on a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct SnnRunResult {
    /// Predicted class per sample (argmax of accumulated output
    /// potential).
    pub predictions: Vec<usize>,
    /// Accumulated output potentials `[N, classes]` — proportional to the
    /// ANN logits when conversion succeeded.
    pub output_potentials: Tensor,
    /// Spiking statistics per IF layer.
    pub stats: SpikeStats,
}

/// A spiking network: synaptic stages interleaved with IF populations,
/// ending in a potential-accumulating readout stage.
///
/// Build one from a trained ANN with
/// [`crate::convert::ann_to_snn`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingNetwork {
    stages: Vec<SnnStage>,
    encoding: InputEncoding,
}

impl SpikingNetwork {
    /// Assembles a spiking network from explicit stages.
    pub fn new(stages: Vec<SnnStage>, encoding: InputEncoding) -> Self {
        Self { stages, encoding }
    }

    /// The stages, in order.
    pub fn stages(&self) -> &[SnnStage] {
        &self.stages
    }

    /// Mutable stage access (used by the hybrid splitter).
    pub fn stages_mut(&mut self) -> &mut Vec<SnnStage> {
        &mut self.stages
    }

    /// Number of IF populations.
    pub fn if_layer_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s, SnnStage::IntegrateFire(_)))
            .count()
    }

    /// Clears all membrane state.
    pub fn reset_state(&mut self) {
        for stage in &mut self.stages {
            if let SnnStage::IntegrateFire(p) = stage {
                p.reset_state();
            }
        }
    }

    /// Encodes `inputs` (intensities, ideally in `[0, 1]`) into this
    /// timestep's spike tensor.
    fn encode<R: Rng + ?Sized>(&self, inputs: &Tensor, rng: &mut R) -> Tensor {
        match self.encoding {
            InputEncoding::Poisson => {
                let mut t = Tensor::zeros(inputs.shape());
                let (src, dst) = (inputs.data(), t.data_mut());
                for i in 0..src.len() {
                    let p = src[i].clamp(0.0, 1.0);
                    if rng.gen::<f32>() < p {
                        dst[i] = 1.0;
                    }
                }
                t
            }
            InputEncoding::Constant => inputs.clamp(0.0, 1.0),
        }
    }

    /// Runs the network for `timesteps` steps on a batch of inputs,
    /// resetting all state first.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<SnnRunResult, NnError> {
        let (result, _) = self.run_recording(inputs, timesteps, rng, &[])?;
        Ok(result)
    }

    /// Like [`run`](Self::run) but additionally records cumulative spike
    /// counts of selected IF layers (by IF-layer index) at the end of the
    /// run. Recorded tensors have the shape of the layer output and hold
    /// total spike counts per neuron, which divided by `timesteps` are
    /// the rate-coded activations used by the hybrid boundary and the
    /// Fig. 10 correlation study.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn run_recording<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
        record_if_layers: &[usize],
    ) -> Result<(SnnRunResult, Vec<Tensor>), NnError> {
        self.reset_state();
        let mut output_acc: Option<Tensor> = None;
        let mut recorded: Vec<Option<Tensor>> = vec![None; record_if_layers.len()];

        for _t in 0..timesteps {
            let mut h = self.encode(inputs, rng);
            let mut if_index = 0usize;
            for stage in &mut self.stages {
                match stage {
                    SnnStage::Synaptic(layer) => {
                        h = layer.forward(&h, false)?;
                    }
                    SnnStage::IntegrateFire(pop) => {
                        h = pop.step(&h)?;
                        if let Some(slot) = record_if_layers.iter().position(|&r| r == if_index) {
                            match &mut recorded[slot] {
                                Some(acc) => acc.add_assign(&h)?,
                                none => *none = Some(h.clone()),
                            }
                        }
                        if_index += 1;
                    }
                }
            }
            // Readout: accumulate the final stage's analog output.
            match &mut output_acc {
                Some(acc) => acc.add_assign(&h)?,
                none => *none = Some(h),
            }
        }

        let output_potentials = output_acc.unwrap_or_else(|| Tensor::zeros(&[0, 0]));
        let predictions = if output_potentials.rank() == 2 {
            output_potentials.argmax_rows()?
        } else {
            Vec::new()
        };
        let mut stats = SpikeStats {
            timesteps,
            ..SpikeStats::default()
        };
        for stage in &self.stages {
            if let SnnStage::IntegrateFire(p) = stage {
                stats.total_spikes_per_layer.push(p.total_spikes());
                stats.neurons_per_layer.push(p.neuron_count());
                let denom = (p.neuron_count() * timesteps).max(1) as f64;
                stats
                    .activity_per_layer
                    .push(p.total_spikes() as f64 / denom);
            }
        }
        let recorded = recorded.into_iter().flatten().collect();
        Ok((
            SnnRunResult {
                predictions,
                output_potentials,
                stats,
            },
            recorded,
        ))
    }

    /// Classification accuracy of the SNN over a labelled batch.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len()` differs from the batch size.
    pub fn accuracy<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        timesteps: usize,
        rng: &mut R,
    ) -> Result<f64, NnError> {
        let result = self.run(inputs, timesteps, rng)?;
        assert_eq!(result.predictions.len(), labels.len());
        let correct = result
            .predictions
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(17)
    }

    /// The per-neuron IF loop as it was before the step became
    /// branch-free, kept as the reference every build must reproduce.
    fn step_reference(pop: &mut IfPopulation, input: &Tensor) -> Tensor {
        let needs_init = !matches!(&pop.membrane, Some(m) if m.shape() == input.shape());
        if needs_init {
            pop.membrane = Some(Tensor::zeros(input.shape()));
            pop.refractory_left = vec![0; input.len()];
            pop.thresholds = vec![pop.threshold; input.len()];
            pop.neuron_count = input.len();
        }
        let membrane = pop.membrane.as_mut().expect("initialized above");
        if pop.leak < 1.0 {
            membrane.map_inplace(|v| v * pop.leak);
        }
        let mut spikes = Tensor::zeros(input.shape());
        let mut fired = 0u64;
        {
            let (m, s) = (membrane.data_mut(), spikes.data_mut());
            let x = input.data();
            for i in 0..m.len() {
                if pop.refractory > 0 && pop.refractory_left[i] > 0 {
                    pop.refractory_left[i] -= 1;
                    continue;
                }
                m[i] += x[i];
                let th = pop.thresholds[i];
                let spiked = m[i] >= th;
                if spiked {
                    s[i] = 1.0;
                    fired += 1;
                    match pop.reset {
                        ResetMode::Subtract => m[i] -= th,
                        ResetMode::Zero => m[i] = 0.0,
                    }
                    if pop.refractory > 0 {
                        pop.refractory_left[i] = pop.refractory;
                    }
                }
                if let Some(h) = pop.homeostasis {
                    let err = f32::from(spiked) - h.target_rate;
                    pop.thresholds[i] =
                        (pop.thresholds[i] + h.adaptation_rate * err).max(h.min_threshold);
                }
            }
        }
        pop.total_spikes += fired;
        spikes
    }

    /// Every build of the IF body: the dispatched one, the portable one
    /// and, on an AVX2 host, the AVX2 one.
    fn if_builds() -> Vec<(&'static str, IntegrateBuild)> {
        #[allow(unused_mut)]
        let mut builds: Vec<(&'static str, IntegrateBuild)> =
            vec![("dispatch", integrate), ("portable", integrate_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host reports AVX2.
            builds.push(("avx2", |d, n, x, s| unsafe { integrate_avx2(d, n, x, s) }));
        }
        builds
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Steps a copy of `base` through 80 random inputs with every build
    /// and another copy with the reference loop, comparing the spikes,
    /// membrane, spike count, dead times and thresholds bit for bit after
    /// every step. The inputs mix values landing exactly on the
    /// threshold (alone or in two halves), negatives and both signed
    /// zeros.
    fn assert_if_matches_reference(base: &IfPopulation, seed: u64) {
        use rand::Rng;
        let th = base.threshold;
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let neurons = 1 + r.gen_range(0..70usize);
        let inputs: Vec<Tensor> = (0..80)
            .map(|_| {
                let data = (0..neurons)
                    .map(|_| match r.gen_range(0..8) {
                        0 => th,
                        1 => th / 2.0,
                        2 => -th,
                        3 => 0.0,
                        4 => -0.0,
                        5 => r.gen_range(-2.0f32..0.0),
                        _ => r.gen_range(0.0f32..2.0 * th),
                    })
                    .collect();
                Tensor::from_vec(data, &[1, neurons]).unwrap()
            })
            .collect();
        for (name, build) in if_builds() {
            let (mut pop, mut reference) = (base.clone(), base.clone());
            for (t, x) in inputs.iter().enumerate() {
                let got = pop.step_with(x, build).unwrap();
                let want = step_reference(&mut reference, x);
                let at = format!("{name} step {t}: {base:?}");
                assert_eq!(bits(got.data()), bits(want.data()), "spikes, {at}");
                assert_eq!(
                    bits(pop.membrane.as_ref().unwrap().data()),
                    bits(reference.membrane.as_ref().unwrap().data()),
                    "membrane, {at}"
                );
                assert_eq!(pop.total_spikes, reference.total_spikes, "{at}");
                assert_eq!(
                    pop.refractory_left, reference.refractory_left,
                    "dead times, {at}"
                );
                assert_eq!(
                    bits(&pop.thresholds),
                    bits(&reference.thresholds),
                    "thresholds, {at}"
                );
            }
            assert!(reference.total_spikes > 0, "never fired: {base:?}");
        }
    }

    #[test]
    fn if_step_matches_the_reference_loop_bitwise() {
        // Both reset modes, leaky and leak-free, with and without a
        // refractory period and homeostasis, at several thresholds.
        let homeostasis = Homeostasis {
            target_rate: 0.3,
            adaptation_rate: 0.07,
            min_threshold: 0.2,
        };
        let mut seed = 0;
        for reset in [ResetMode::Subtract, ResetMode::Zero] {
            for leak in [1.0, 0.9, 0.5] {
                for refractory in [0, 1, 3] {
                    for homeo in [None, Some(homeostasis)] {
                        for threshold in [1.0, 0.75, 0.3, 2.5] {
                            let mut base =
                                IfPopulation::with_dynamics(threshold, reset, leak, refractory);
                            base.homeostasis = homeo;
                            seed += 1;
                            assert_if_matches_reference(&base, seed);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn if_population_integrates_and_fires() {
        let mut pop = IfPopulation::new(1.0, ResetMode::Subtract);
        let half = Tensor::full(&[1, 2], 0.6);
        let s1 = pop.step(&half).unwrap();
        assert_eq!(s1.data(), &[0.0, 0.0]);
        let s2 = pop.step(&half).unwrap();
        assert_eq!(s2.data(), &[1.0, 1.0]);
        assert_eq!(pop.total_spikes(), 2);
        assert_eq!(pop.neuron_count(), 2);
    }

    #[test]
    fn subtract_reset_preserves_residual_charge() {
        let mut pop = IfPopulation::new(1.0, ResetMode::Subtract);
        pop.step(&Tensor::full(&[1], 1.5)).unwrap();
        // Residual 0.5 remains: the next 0.5 input fires again.
        let s = pop.step(&Tensor::full(&[1], 0.5)).unwrap();
        assert_eq!(s.data(), &[1.0]);
    }

    #[test]
    fn zero_reset_discards_residual_charge() {
        let mut pop = IfPopulation::new(1.0, ResetMode::Zero);
        pop.step(&Tensor::full(&[1], 1.5)).unwrap();
        let s = pop.step(&Tensor::full(&[1], 0.5)).unwrap();
        assert_eq!(s.data(), &[0.0]);
    }

    #[test]
    fn if_firing_rate_matches_input_rate() {
        // With v_th = 1 and constant input r, the firing rate converges
        // to r (the core fact behind ANN→SNN conversion).
        let mut pop = IfPopulation::new(1.0, ResetMode::Subtract);
        let r = 0.37f32;
        let t = 1000;
        for _ in 0..t {
            pop.step(&Tensor::full(&[1], r)).unwrap();
        }
        let rate = pop.total_spikes() as f64 / t as f64;
        assert!((rate - r as f64).abs() < 0.01, "rate {rate} vs input {r}");
    }

    #[test]
    fn poisson_encoding_matches_intensity() {
        let net = SpikingNetwork::new(Vec::new(), InputEncoding::Poisson);
        let mut r = rng();
        let x = Tensor::full(&[1, 1000], 0.3);
        let mut total = 0.0;
        let reps = 50;
        for _ in 0..reps {
            total += net.encode(&x, &mut r).sum();
        }
        let rate = total as f64 / (1000.0 * reps as f64);
        assert!((rate - 0.3).abs() < 0.02, "poisson rate {rate}");
    }

    #[test]
    fn constant_encoding_passes_intensities() {
        let net = SpikingNetwork::new(Vec::new(), InputEncoding::Constant);
        let mut r = rng();
        let x = Tensor::from_vec(vec![0.2, 1.5, -0.3], &[1, 3]).unwrap();
        let e = net.encode(&x, &mut r);
        assert_eq!(e.data(), &[0.2, 1.0, 0.0]); // clamped to [0,1]
    }

    #[test]
    fn single_if_network_rate_codes_identity() {
        // x → dense(identity) → IF: spike counts ≈ intensity · T.
        let mut rng = rng();
        let mut dense = Layer::dense(2, 2, &mut rng);
        if let Layer::Dense(d) = &mut dense {
            d.weight.value = Tensor::eye(2);
            d.bias.value = Tensor::zeros(&[2]);
        }
        let mut snn = SpikingNetwork::new(
            vec![
                SnnStage::Synaptic(dense),
                SnnStage::IntegrateFire(IfPopulation::new(1.0, ResetMode::Subtract)),
            ],
            InputEncoding::Constant,
        );
        let x = Tensor::from_vec(vec![0.8, 0.2], &[1, 2]).unwrap();
        let t = 500;
        let result = snn.run(&x, t, &mut rng).unwrap();
        // Output potentials here are the accumulated binary spikes.
        let counts = result.output_potentials;
        assert!((counts.data()[0] / t as f32 - 0.8).abs() < 0.01);
        assert!((counts.data()[1] / t as f32 - 0.2).abs() < 0.01);
        assert_eq!(result.predictions, vec![0]);
    }

    #[test]
    fn stats_report_per_layer_activity() {
        let mut rng = rng();
        let mut dense = Layer::dense(1, 1, &mut rng);
        if let Layer::Dense(d) = &mut dense {
            d.weight.value = Tensor::ones(&[1, 1]);
            d.bias.value = Tensor::zeros(&[1]);
        }
        let mut snn = SpikingNetwork::new(
            vec![
                SnnStage::Synaptic(dense),
                SnnStage::IntegrateFire(IfPopulation::new(1.0, ResetMode::Subtract)),
            ],
            InputEncoding::Constant,
        );
        let x = Tensor::full(&[1, 1], 0.5);
        let result = snn.run(&x, 100, &mut rng).unwrap();
        assert_eq!(result.stats.activity_per_layer.len(), 1);
        assert!((result.stats.activity_per_layer[0] - 0.5).abs() < 0.02);
        assert_eq!(result.stats.timesteps, 100);
        assert!((result.stats.mean_activity() - 0.5).abs() < 0.02);
    }

    #[test]
    fn recording_returns_cumulative_spike_counts() {
        let mut rng = rng();
        let mut dense = Layer::dense(1, 1, &mut rng);
        if let Layer::Dense(d) = &mut dense {
            d.weight.value = Tensor::ones(&[1, 1]);
            d.bias.value = Tensor::zeros(&[1]);
        }
        let mut snn = SpikingNetwork::new(
            vec![
                SnnStage::Synaptic(dense),
                SnnStage::IntegrateFire(IfPopulation::new(1.0, ResetMode::Subtract)),
            ],
            InputEncoding::Constant,
        );
        let x = Tensor::full(&[1, 1], 1.0);
        let (_, rec) = snn.run_recording(&x, 50, &mut rng, &[0]).unwrap();
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].data()[0], 50.0); // fires every step at rate 1.0
    }

    #[test]
    fn leaky_neuron_forgets_subthreshold_charge() {
        // With 50% retention a 0.6 input can never reach threshold 1.0:
        // the fixed point is 0.6/(1-0.5) = 1.2 > 1 ... so choose 0.4:
        // fixed point 0.8 < 1.0 → never fires. The leak-free neuron
        // fires every ⌈1/0.4⌉ steps.
        let mut leaky = IfPopulation::with_dynamics(1.0, ResetMode::Subtract, 0.5, 0);
        let mut ideal = IfPopulation::new(1.0, ResetMode::Subtract);
        let x = Tensor::full(&[1], 0.4);
        for _ in 0..200 {
            leaky.step(&x).unwrap();
            ideal.step(&x).unwrap();
        }
        assert_eq!(leaky.total_spikes(), 0, "leaky neuron must stay silent");
        assert!(ideal.total_spikes() >= 70, "leak-free neuron must fire");
    }

    #[test]
    fn strong_input_still_drives_leaky_neurons() {
        let mut leaky = IfPopulation::with_dynamics(1.0, ResetMode::Subtract, 0.9, 0);
        let x = Tensor::full(&[1], 0.5);
        for _ in 0..100 {
            leaky.step(&x).unwrap();
        }
        // Fixed point 0.5/(1-0.9) = 5 » threshold: fires, but at a lower
        // rate than the input would suggest without leak.
        let rate = leaky.total_spikes() as f64 / 100.0;
        assert!(rate > 0.2 && rate < 0.5, "leaky rate {rate}");
    }

    #[test]
    fn refractory_period_caps_the_firing_rate() {
        // Saturated input with a 3-step dead time → fires every 4th step.
        let mut pop = IfPopulation::with_dynamics(1.0, ResetMode::Zero, 1.0, 3);
        let x = Tensor::full(&[1], 5.0);
        let mut spikes = 0;
        for _ in 0..40 {
            spikes += pop.step(&x).unwrap().data()[0] as u64;
        }
        assert_eq!(spikes, 10, "refractory cap violated");
    }

    #[test]
    fn refractory_input_is_lost_not_buffered() {
        let mut pop = IfPopulation::with_dynamics(1.0, ResetMode::Zero, 1.0, 2);
        // Step 1: big input fires. Steps 2-3: inputs land in dead time.
        pop.step(&Tensor::full(&[1], 1.0)).unwrap();
        pop.step(&Tensor::full(&[1], 10.0)).unwrap();
        pop.step(&Tensor::full(&[1], 10.0)).unwrap();
        // Step 4: out of refractory with an empty membrane.
        let s = pop.step(&Tensor::full(&[1], 0.4)).unwrap();
        assert_eq!(s.data()[0], 0.0, "dead-time input must be discarded");
    }

    #[test]
    fn homeostasis_regulates_the_firing_rate() {
        // A strong constant drive would fire every step; homeostasis
        // raises the threshold until the rate settles near the target.
        let mut pop = IfPopulation::new(1.0, ResetMode::Subtract).with_homeostasis(Homeostasis {
            target_rate: 0.2,
            adaptation_rate: 0.05,
            min_threshold: 0.05,
        });
        let x = Tensor::full(&[1, 8], 1.0);
        // Warm-up to adapt.
        for _ in 0..400 {
            pop.step(&x).unwrap();
        }
        let before = pop.total_spikes();
        for _ in 0..200 {
            pop.step(&x).unwrap();
        }
        let rate = (pop.total_spikes() - before) as f64 / (200.0 * 8.0);
        assert!(
            (rate - 0.2).abs() < 0.05,
            "homeostatic rate {rate} missed the 0.2 target"
        );
        assert!(pop.thresholds().iter().all(|&t| t > 1.0));
    }

    #[test]
    fn homeostasis_also_lowers_thresholds_for_weak_input() {
        let mut pop =
            IfPopulation::new(5.0, ResetMode::Zero).with_homeostasis(Homeostasis::new(0.5));
        let x = Tensor::full(&[1], 0.3);
        for _ in 0..2000 {
            pop.step(&x).unwrap();
        }
        assert!(
            pop.thresholds()[0] < 5.0,
            "threshold should fall toward the reachable regime"
        );
        assert!(pop.total_spikes() > 0, "adapted neuron must fire");
    }

    #[test]
    fn homeostasis_is_off_by_default() {
        let pop = IfPopulation::new(1.0, ResetMode::Subtract);
        assert!(pop.homeostasis.is_none());
    }

    #[test]
    #[should_panic(expected = "membrane retention")]
    fn invalid_leak_panics() {
        IfPopulation::with_dynamics(1.0, ResetMode::Zero, 0.0, 0);
    }

    #[test]
    fn reset_state_clears_between_runs() {
        let mut rng = rng();
        let mut snn = SpikingNetwork::new(
            vec![SnnStage::IntegrateFire(IfPopulation::new(
                1.0,
                ResetMode::Subtract,
            ))],
            InputEncoding::Constant,
        );
        let x = Tensor::full(&[1, 4], 0.9);
        let r1 = snn.run(&x, 10, &mut rng).unwrap();
        let r2 = snn.run(&x, 10, &mut rng).unwrap();
        assert_eq!(
            r1.stats.total_spikes_per_layer, r2.stats.total_spikes_per_layer,
            "state leaked between runs"
        );
    }
}
