//! Device-fault models beyond Gaussian variation: the hard-failure and
//! ageing modes real DW-MTJ arrays exhibit.
//!
//! The paper's robustness study (§IV-D) covers multiplicative Gaussian
//! mismatch only; fabricated domain-wall arrays additionally suffer
//!
//! * **stuck-at conductance states** — a shorted (stuck-at-`G_max`) or
//!   open/unswitchable (stuck-at-`G_min`) MTJ stack;
//! * **domain-wall pinning faults** — a defect site that traps the wall
//!   some number of pinning sites away from the programmed position,
//!   offsetting the stored conductance by whole device states;
//! * **retention drift** — thermally activated wall creep relaxing the
//!   stored conductance toward the mid state over time;
//! * **TMR degradation** — a degraded tunnel-magnetoresistance ratio
//!   compressing the usable `G_min..G_max` range around its midpoint.
//!
//! [`FaultModel`] samples these per device from seeded, independent
//! per-class rates; [`CellFault`] applies a sampled fault to a programmed
//! conductance (or to the signed weight it encodes, for network-level
//! Monte-Carlo campaigns). Faults compose with the existing
//! [`crate::variation::VariationModel`] through
//! [`NonidealityModel`]: Gaussian mismatch perturbs the programmed value
//! first, then the (rarer, harder) fault transforms the result — a stuck
//! cell ends up stuck regardless of its mismatch draw.

use crate::units::Seconds;
use crate::variation::VariationModel;
use rand::Rng;

/// The fault classes the model can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Cell stuck at the minimum conductance (open / unswitchable stack).
    StuckAtGmin,
    /// Cell stuck at the maximum conductance (shorted stack).
    StuckAtGmax,
    /// Domain wall trapped off the programmed pinning site.
    DwPinning,
    /// Thermally activated relaxation toward the mid conductance.
    RetentionDrift,
    /// Compressed conductance range from a degraded TMR ratio.
    TmrDegradation,
}

impl FaultClass {
    /// Every fault class, in sampling order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::StuckAtGmin,
        FaultClass::StuckAtGmax,
        FaultClass::DwPinning,
        FaultClass::RetentionDrift,
        FaultClass::TmrDegradation,
    ];

    /// Stable display name (used in reports and the fault campaign).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::StuckAtGmin => "stuck-at-gmin",
            FaultClass::StuckAtGmax => "stuck-at-gmax",
            FaultClass::DwPinning => "dw-pinning",
            FaultClass::RetentionDrift => "retention-drift",
            FaultClass::TmrDegradation => "tmr-degradation",
        }
    }
}

/// The conductance range a fault acts within: the device envelope the
/// crossbar programmed its cells against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConductanceEnvelope {
    /// Minimum device conductance (siemens).
    pub g_min: f64,
    /// Maximum device conductance (siemens).
    pub g_max: f64,
    /// Discrete conductance levels (16 for the 4-bit DW-MTJ cell).
    pub levels: usize,
}

impl ConductanceEnvelope {
    /// Midpoint conductance (the zero-weight reference).
    pub fn g_mid(&self) -> f64 {
        (self.g_min + self.g_max) / 2.0
    }

    /// Conductance difference between adjacent device states.
    pub fn state_step(&self) -> f64 {
        (self.g_max - self.g_min) / (self.levels - 1) as f64
    }
}

/// One sampled fault attached to one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellFault {
    /// Conductance pinned at `G_min` regardless of programming.
    StuckAtGmin,
    /// Conductance pinned at `G_max` regardless of programming.
    StuckAtGmax,
    /// Wall trapped `offset_states` pinning sites away from the
    /// programmed position (positive = toward `G_max`).
    DwPinning {
        /// Signed offset in whole device states.
        offset_states: i32,
    },
    /// Stored value relaxes toward the midpoint as
    /// `g(t) = G_mid + (g − G_mid)·e^(−rate·t)`.
    RetentionDrift {
        /// Relaxation rate in 1/s.
        rate_per_s: f64,
    },
    /// Differential conductance compressed by `factor ∈ (0, 1]` around
    /// the midpoint.
    TmrDegradation {
        /// Remaining fraction of the differential range.
        factor: f64,
    },
}

impl CellFault {
    /// The class this fault instance belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            CellFault::StuckAtGmin => FaultClass::StuckAtGmin,
            CellFault::StuckAtGmax => FaultClass::StuckAtGmax,
            CellFault::DwPinning { .. } => FaultClass::DwPinning,
            CellFault::RetentionDrift { .. } => FaultClass::RetentionDrift,
            CellFault::TmrDegradation { .. } => FaultClass::TmrDegradation,
        }
    }

    /// Applies the fault to a programmed conductance `g` inside the
    /// device envelope, `elapsed` seconds after programming (only
    /// retention drift is time-dependent). The result always stays within
    /// `[G_min, G_max]`.
    pub fn apply(&self, g: f64, env: &ConductanceEnvelope, elapsed: Seconds) -> f64 {
        let g_mid = env.g_mid();
        let faulty = match *self {
            CellFault::StuckAtGmin => env.g_min,
            CellFault::StuckAtGmax => env.g_max,
            CellFault::DwPinning { offset_states } => g + offset_states as f64 * env.state_step(),
            CellFault::RetentionDrift { rate_per_s } => {
                g_mid + (g - g_mid) * (-rate_per_s * elapsed.0).exp()
            }
            CellFault::TmrDegradation { factor } => g_mid + (g - g_mid) * factor,
        };
        faulty.clamp(env.g_min, env.g_max)
    }

    /// Applies the fault in *weight space*: the reference-column scheme
    /// maps `G_min ↔ −clip`, `G_mid ↔ 0`, `G_max ↔ +clip`, so every
    /// conductance fault has an exact signed-weight equivalent. Used by
    /// network-level Monte-Carlo campaigns that inject faults into
    /// quantized weight tensors instead of materializing crossbars.
    pub fn apply_weight(&self, w: f64, clip: f64, levels: usize, elapsed: Seconds) -> f64 {
        let step = 2.0 * clip / (levels - 1) as f64;
        let faulty = match *self {
            CellFault::StuckAtGmin => -clip,
            CellFault::StuckAtGmax => clip,
            CellFault::DwPinning { offset_states } => w + offset_states as f64 * step,
            CellFault::RetentionDrift { rate_per_s } => w * (-rate_per_s * elapsed.0).exp(),
            CellFault::TmrDegradation { factor } => w * factor,
        };
        faulty.clamp(-clip, clip)
    }
}

/// Seeded per-device fault sampler: independent per-class rates plus the
/// class parameters (pinning offset range, drift rate, TMR floor).
///
/// # Examples
///
/// ```
/// use nebula_device::fault::{FaultClass, FaultModel};
/// use rand::SeedableRng;
///
/// let model = FaultModel::none().with_class_rate(FaultClass::StuckAtGmin, 0.05);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let faults = (0..10_000)
///     .filter(|_| model.sample_cell(&mut rng).is_some())
///     .count();
/// // ~5% of cells draw a fault.
/// assert!((400..600).contains(&faults), "{faults}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    stuck_at_gmin: f64,
    stuck_at_gmax: f64,
    pinning: f64,
    drift: f64,
    tmr: f64,
    /// Largest |state offset| a pinning fault produces (≥ 1).
    pub pinning_max_offset: u32,
    /// Relaxation rate of drifting cells (1/s).
    pub drift_rate_per_s: f64,
    /// Smallest remaining range fraction of a TMR-degraded cell.
    pub tmr_min_factor: f64,
}

impl FaultModel {
    /// The fault-free model (every rate zero).
    pub fn none() -> Self {
        Self {
            stuck_at_gmin: 0.0,
            stuck_at_gmax: 0.0,
            pinning: 0.0,
            drift: 0.0,
            tmr: 0.0,
            pinning_max_offset: 3,
            drift_rate_per_s: 0.02,
            tmr_min_factor: 0.5,
        }
    }

    /// A model injecting a single class at `rate` (default parameters).
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1]` or the total rate exceeds 1.
    pub fn single(class: FaultClass, rate: f64) -> Self {
        Self::none().with_class_rate(class, rate)
    }

    /// Sets the per-cell rate of one class, keeping the others.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1]` or the total rate exceeds 1.
    pub fn with_class_rate(mut self, class: FaultClass, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate) && rate.is_finite(),
            "fault rate must be in [0, 1], got {rate}"
        );
        match class {
            FaultClass::StuckAtGmin => self.stuck_at_gmin = rate,
            FaultClass::StuckAtGmax => self.stuck_at_gmax = rate,
            FaultClass::DwPinning => self.pinning = rate,
            FaultClass::RetentionDrift => self.drift = rate,
            FaultClass::TmrDegradation => self.tmr = rate,
        }
        assert!(
            self.total_rate() <= 1.0 + 1e-12,
            "total fault rate exceeds 1: {}",
            self.total_rate()
        );
        self
    }

    /// The per-cell rate of one class.
    pub fn class_rate(&self, class: FaultClass) -> f64 {
        match class {
            FaultClass::StuckAtGmin => self.stuck_at_gmin,
            FaultClass::StuckAtGmax => self.stuck_at_gmax,
            FaultClass::DwPinning => self.pinning,
            FaultClass::RetentionDrift => self.drift,
            FaultClass::TmrDegradation => self.tmr,
        }
    }

    /// Probability that a cell draws *any* fault.
    pub fn total_rate(&self) -> f64 {
        self.stuck_at_gmin + self.stuck_at_gmax + self.pinning + self.drift + self.tmr
    }

    /// True when every class rate is zero.
    pub fn is_none(&self) -> bool {
        self.total_rate() == 0.0
    }

    /// Samples the fault state of one device. Exactly one `f64` draw is
    /// consumed for the class decision; faulty classes with free
    /// parameters (pinning offset, TMR factor) consume further draws, so
    /// the stream is reproducible for a fixed seed and cell order.
    pub fn sample_cell<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<CellFault> {
        if self.is_none() {
            return None;
        }
        let u: f64 = rng.gen();
        let mut acc = self.stuck_at_gmin;
        if u < acc {
            return Some(CellFault::StuckAtGmin);
        }
        acc += self.stuck_at_gmax;
        if u < acc {
            return Some(CellFault::StuckAtGmax);
        }
        acc += self.pinning;
        if u < acc {
            let magnitude = rng.gen_range(1..=self.pinning_max_offset.max(1)) as i32;
            let sign = if rng.gen::<f64>() < 0.5 { -1 } else { 1 };
            return Some(CellFault::DwPinning {
                offset_states: sign * magnitude,
            });
        }
        acc += self.drift;
        if u < acc {
            return Some(CellFault::RetentionDrift {
                rate_per_s: self.drift_rate_per_s,
            });
        }
        acc += self.tmr;
        if u < acc {
            let span = (1.0 - self.tmr_min_factor).max(0.0);
            let factor = self.tmr_min_factor + span * rng.gen::<f64>();
            return Some(CellFault::TmrDegradation { factor });
        }
        None
    }
}

impl Default for FaultModel {
    /// Defaults to the fault-free model.
    fn default() -> Self {
        Self::none()
    }
}

/// Gaussian mismatch plus hard faults under one seeded sampler: the
/// complete device-nonideality stack for Monte-Carlo campaigns.
///
/// Application order is *variation first, fault second*: mismatch
/// perturbs the programmed value, then a sampled fault (if any)
/// transforms the perturbed value — stuck cells end up stuck regardless
/// of their mismatch draw, drifting/pinned/degraded cells degrade the
/// already-perturbed value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NonidealityModel {
    /// Multiplicative Gaussian mismatch (§IV-D).
    pub variation: VariationModel,
    /// Hard-fault sampler.
    pub faults: FaultModel,
}

impl NonidealityModel {
    /// Pure variation, no hard faults (the paper's §IV-D setting).
    pub fn variation_only(sigma: f64) -> Self {
        Self {
            variation: VariationModel::new(sigma),
            faults: FaultModel::none(),
        }
    }

    /// Hard faults only, no Gaussian mismatch.
    pub fn faults_only(faults: FaultModel) -> Self {
        Self {
            variation: VariationModel::ideal(),
            faults,
        }
    }

    /// Applies the full stack to a slice of quantized signed weights
    /// (clip `clip`, `levels` device states, `elapsed` seconds since
    /// programming). Returns the number of cells that drew a hard fault.
    pub fn apply_weight_slice_f32<R: Rng + ?Sized>(
        &self,
        values: &mut [f32],
        clip: f64,
        levels: usize,
        elapsed: Seconds,
        rng: &mut R,
    ) -> usize {
        let mut faulty = 0usize;
        for v in values {
            let perturbed = self.variation.perturb(*v as f64, rng);
            *v = match self.faults.sample_cell(rng) {
                Some(fault) => {
                    faulty += 1;
                    fault.apply_weight(perturbed, clip, levels, elapsed) as f32
                }
                None => perturbed as f32,
            };
        }
        faulty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn env() -> ConductanceEnvelope {
        ConductanceEnvelope {
            g_min: 1e-6,
            g_max: 7e-6,
            levels: 16,
        }
    }

    #[test]
    fn stuck_faults_ignore_programming_and_time() {
        let e = env();
        for g in [e.g_min, e.g_mid(), e.g_max] {
            assert_eq!(CellFault::StuckAtGmin.apply(g, &e, Seconds(1e9)), e.g_min);
            assert_eq!(CellFault::StuckAtGmax.apply(g, &e, Seconds(0.0)), e.g_max);
        }
    }

    #[test]
    fn pinning_offsets_by_whole_states_and_clamps() {
        let e = env();
        let g = e.g_mid();
        let plus2 = CellFault::DwPinning { offset_states: 2 }.apply(g, &e, Seconds(0.0));
        assert!((plus2 - (g + 2.0 * e.state_step())).abs() < 1e-18);
        let far = CellFault::DwPinning { offset_states: 100 }.apply(g, &e, Seconds(0.0));
        assert_eq!(far, e.g_max, "pinning must clamp to the envelope");
    }

    #[test]
    fn retention_drift_decays_toward_mid_over_time() {
        let e = env();
        let fault = CellFault::RetentionDrift { rate_per_s: 0.1 };
        let g0 = e.g_max;
        let at0 = fault.apply(g0, &e, Seconds(0.0));
        let at10 = fault.apply(g0, &e, Seconds(10.0));
        let at1000 = fault.apply(g0, &e, Seconds(1000.0));
        assert!((at0 - g0).abs() < 1e-18, "no time, no drift");
        assert!(at10 < at0 && at10 > e.g_mid());
        assert!((at1000 - e.g_mid()).abs() < 1e-8, "long-run limit is G_mid");
    }

    #[test]
    fn tmr_degradation_compresses_around_mid() {
        let e = env();
        let fault = CellFault::TmrDegradation { factor: 0.5 };
        let hi = fault.apply(e.g_max, &e, Seconds(0.0));
        let lo = fault.apply(e.g_min, &e, Seconds(0.0));
        assert!((hi - (e.g_mid() + (e.g_max - e.g_mid()) * 0.5)).abs() < 1e-18);
        assert!(
            ((hi - e.g_mid()) + (lo - e.g_mid())).abs() < 1e-18,
            "symmetric"
        );
        assert_eq!(fault.apply(e.g_mid(), &e, Seconds(0.0)), e.g_mid());
    }

    #[test]
    fn weight_space_application_mirrors_conductance_space() {
        // G_min ↔ -clip, G_mid ↔ 0, G_max ↔ +clip: applying a fault in
        // weight space must equal mapping the conductance result back.
        let e = env();
        let clip = 1.0;
        let to_w = |g: f64| (g - e.g_mid()) / (e.g_max - e.g_min) * 2.0 * clip;
        let faults = [
            CellFault::StuckAtGmin,
            CellFault::StuckAtGmax,
            CellFault::DwPinning { offset_states: -2 },
            CellFault::RetentionDrift { rate_per_s: 0.05 },
            CellFault::TmrDegradation { factor: 0.7 },
        ];
        for fault in faults {
            for frac in [0.0, 0.25, 0.5, 0.8, 1.0] {
                let g = e.g_min + frac * (e.g_max - e.g_min);
                let t = Seconds(7.0);
                let via_g = to_w(fault.apply(g, &e, t));
                let via_w = fault.apply_weight(to_w(g), clip, e.levels, t);
                assert!(
                    (via_g - via_w).abs() < 1e-12,
                    "{fault:?} at frac {frac}: {via_g} vs {via_w}"
                );
            }
        }
    }

    #[test]
    fn sampling_rates_are_respected() {
        let model = FaultModel::none()
            .with_class_rate(FaultClass::StuckAtGmin, 0.02)
            .with_class_rate(FaultClass::StuckAtGmax, 0.02)
            .with_class_rate(FaultClass::DwPinning, 0.04)
            .with_class_rate(FaultClass::RetentionDrift, 0.01)
            .with_class_rate(FaultClass::TmrDegradation, 0.01);
        assert!((model.total_rate() - 0.10).abs() < 1e-12);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            if let Some(f) = model.sample_cell(&mut rng) {
                *counts.entry(f.class().name()).or_insert(0usize) += 1;
            }
        }
        for class in FaultClass::ALL {
            let p = model.class_rate(class);
            let got = *counts.get(class.name()).unwrap_or(&0) as f64 / n as f64;
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                (got - p).abs() < 4.0 * sigma + 1e-4,
                "{}: got {got}, want {p}",
                class.name()
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_under_a_seed() {
        let model = FaultModel::single(FaultClass::DwPinning, 0.2);
        let draw = |seed: u64| -> Vec<Option<CellFault>> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..256).map(|_| model.sample_cell(&mut rng)).collect()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6), "different seeds should differ");
    }

    #[test]
    fn pinning_offsets_are_bounded_and_nonzero() {
        let model = FaultModel::single(FaultClass::DwPinning, 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            match model.sample_cell(&mut rng) {
                Some(CellFault::DwPinning { offset_states }) => {
                    assert!(offset_states != 0);
                    assert!(offset_states.unsigned_abs() <= model.pinning_max_offset);
                }
                other => panic!("expected a pinning fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn none_model_samples_nothing_and_consumes_no_rng() {
        let model = FaultModel::none();
        let mut a = rand::rngs::StdRng::seed_from_u64(1);
        let mut b = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..64 {
            assert_eq!(model.sample_cell(&mut a), None);
        }
        use rand::Rng as _;
        // The fault-free fast path must not advance the stream.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "fault rate")]
    fn out_of_range_rate_panics() {
        FaultModel::single(FaultClass::StuckAtGmin, 1.5);
    }

    #[test]
    #[should_panic(expected = "total fault rate")]
    fn total_rate_above_one_panics() {
        FaultModel::none()
            .with_class_rate(FaultClass::StuckAtGmin, 0.7)
            .with_class_rate(FaultClass::StuckAtGmax, 0.6);
    }

    #[test]
    fn nonideality_composes_variation_then_faults() {
        // All-stuck model: output is ±clip regardless of the variation
        // sigma — the fault must win over the mismatch draw.
        let model = NonidealityModel {
            variation: VariationModel::new(0.5),
            faults: FaultModel::single(FaultClass::StuckAtGmax, 1.0),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut w = vec![0.25f32; 64];
        let faulty = model.apply_weight_slice_f32(&mut w, 1.0, 16, Seconds(0.0), &mut rng);
        assert_eq!(faulty, 64);
        assert!(w.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn nonideality_with_no_faults_matches_pure_variation() {
        let sigma = 0.1;
        let model = NonidealityModel::variation_only(sigma);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(9);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(9);
        let mut a = vec![0.5f32; 128];
        let mut b = a.clone();
        let faulty = model.apply_weight_slice_f32(&mut a, 1.0, 16, Seconds(0.0), &mut rng_a);
        VariationModel::new(sigma).perturb_slice_f32(&mut b, &mut rng_b);
        assert_eq!(faulty, 0);
        assert_eq!(a, b, "no-fault path must preserve the variation stream");
    }
}
