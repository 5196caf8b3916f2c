//! Morphable tiles and super-tiles: composing atomic crossbars to match
//! kernel receptive fields (paper §IV-B2/3, Fig. 7).
//!
//! * A **morphable tile** is a 2×2 array of atomic crossbars (ACs) with
//!   programmable switches: the ACs run independently (`R_f ≤ M`), as
//!   vertical pairs (`R_f ≤ 2M`), or fully merged through the tile-level
//!   neuron unit (`R_f ≤ 4M`).
//! * A **super-tile** is a 2×2 array of tiles with a three-level neuron
//!   unit hierarchy (H0/H1/H2) that sums partial dot products *in the
//!   current domain* — Kirchhoff's law instead of ADCs — supporting
//!   kernels up to `R_f ≤ 16M` without a single analog-to-digital
//!   conversion.

use crate::array::AtomicCrossbar;
use crate::config::CrossbarConfig;
use crate::error::CrossbarError;
use crate::kernel::{self, KernelPath};
use nebula_device::fault::FaultModel;
use nebula_device::units::{Amps, Joules, Seconds};
use rand::Rng;

/// The neuron-unit hierarchy level a kernel activates (paper Fig. 7a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NuLevel {
    /// Per-AC neuron units: `R_f ≤ M`.
    H0,
    /// Tile-level units merging up to 4 ACs: `M < R_f ≤ 4M`.
    H1,
    /// Super-tile-level units merging up to 16 ACs: `4M < R_f ≤ 16M`.
    H2,
}

/// Chooses the NU hierarchy level for a receptive field of `rf` rows on
/// `m`-row atomic crossbars; `None` means the kernel overflows the
/// super-tile and must spill across neural cores (ADC + RU reduction).
pub fn nu_level_for(rf: usize, m: usize) -> Option<NuLevel> {
    if rf == 0 {
        return None;
    }
    if rf <= m {
        Some(NuLevel::H0)
    } else if rf <= 4 * m {
        Some(NuLevel::H1)
    } else if rf <= 16 * m {
        Some(NuLevel::H2)
    } else {
        None
    }
}

/// Number of atomic crossbars stacked vertically to host one kernel of
/// receptive field `rf` (each contributes up to `m` rows).
pub fn acs_per_kernel(rf: usize, m: usize) -> usize {
    rf.div_ceil(m)
}

/// How many kernels of receptive field `rf` one super-tile (16 ACs of
/// side `m`) can evaluate in parallel. Kernels occupy up to `m` columns
/// each; stacking for large `rf` consumes ACs.
pub fn kernels_per_supertile(rf: usize, m: usize) -> usize {
    match nu_level_for(rf, m) {
        None => 0,
        Some(_) => {
            let stacks = 16 / acs_per_kernel(rf, m);
            stacks * m
        }
    }
}

/// A super-tile: 16 atomic crossbars (2×2 tiles of 2×2 ACs) programmed
/// with one kernel matrix and evaluated with pure current-domain
/// aggregation.
///
/// # Examples
///
/// ```
/// use nebula_crossbar::config::{CrossbarConfig, Mode};
/// use nebula_crossbar::tile::{NuLevel, SuperTile};
/// use nebula_device::units::Amps;
///
/// let mut cfg = CrossbarConfig::paper_default(Mode::Ann);
/// cfg.m = 8; // small arrays for the example
/// let mut st = SuperTile::new(cfg)?;
/// // A 20-row kernel needs H1 (8 < 20 ≤ 32).
/// let weights = vec![vec![0.5, -0.5]; 20];
/// let level = st.program(&weights, 1.0)?;
/// assert_eq!(level, NuLevel::H1);
///
/// // The split-phase seam: prepare once, evaluate items through `&self`
/// // (from any number of workers), then accrue their energy in item order.
/// let drive = vec![1.0; 20];
/// st.prepare();
/// let mut out = vec![Amps::ZERO; st.kernels()];
/// let mut currents = vec![0.0; st.chunk_count()];
/// let mut scratch = vec![0.0; st.scratch_cols()];
/// st.eval_dense_prepared(&drive, &mut out, &mut currents, &mut scratch);
/// st.accrue_batch(&[&currents]);
///
/// // The per-cell oracle computes the same bits.
/// assert_eq!(out, st.clone().dot_reference(&drive)?);
/// # Ok::<(), nebula_crossbar::CrossbarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SuperTile {
    acs: Vec<AtomicCrossbar>,
    m: usize,
    rf: usize,
    kernels: usize,
    level: Option<NuLevel>,
}

impl SuperTile {
    /// Creates a super-tile of 16 unprogrammed ACs.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(config: CrossbarConfig) -> Result<Self, CrossbarError> {
        let m = config.m;
        let acs = (0..16)
            .map(|_| AtomicCrossbar::new(config.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            acs,
            m,
            rf: 0,
            kernels: 0,
            level: None,
        })
    }

    /// Atomic-crossbar side `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The hierarchy level the current programming activates.
    pub fn active_level(&self) -> Option<NuLevel> {
        self.level
    }

    /// Programs a kernel matrix `weights[rf][k]` (`k` kernels as columns)
    /// onto the super-tile, splitting rows across vertically stacked ACs.
    /// Returns the NU level the evaluation will use.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::ReceptiveFieldTooLarge`] when `rf > 16M`
    ///   (the kernel must spill across neural cores).
    /// * [`CrossbarError::DimensionMismatch`] when `k` exceeds the column
    ///   capacity for this `rf`.
    /// * [`CrossbarError::InvalidConfig`] for a non-positive clip or
    ///   ragged weight rows.
    ///
    /// On error the super-tile is left exactly as it was: all validation
    /// happens before any atomic crossbar is touched, so a failed call
    /// never leaves some ACs reprogrammed against stale metadata.
    pub fn program(&mut self, weights: &[Vec<f64>], clip: f64) -> Result<NuLevel, CrossbarError> {
        let rf = weights.len();
        let k = weights.first().map_or(0, Vec::len);
        let level = nu_level_for(rf, self.m).ok_or(CrossbarError::ReceptiveFieldTooLarge {
            rf,
            max: 16 * self.m,
        })?;
        if k > self.m {
            // One kernel per column; a super-tile exposes M columns per
            // stack. Multi-stack column packing is the mapper's job.
            return Err(CrossbarError::DimensionMismatch {
                rows: rf,
                cols: k,
                max_rows: 16 * self.m,
                max_cols: self.m,
            });
        }
        // Validate everything the per-AC programming could reject *before*
        // mutating any AC, so an error cannot leave the super-tile with a
        // mix of freshly programmed and stale crossbars.
        if clip <= 0.0 || !clip.is_finite() {
            return Err(CrossbarError::InvalidConfig {
                reason: format!("weight clip must be positive, got {clip}"),
            });
        }
        if weights.iter().any(|r| r.len() != k) {
            return Err(CrossbarError::InvalidConfig {
                reason: "weight rows have unequal lengths".to_string(),
            });
        }
        let stacks_needed = acs_per_kernel(rf, self.m);
        for (chunk_idx, chunk) in weights.chunks(self.m).enumerate() {
            debug_assert!(chunk_idx < stacks_needed);
            self.acs[chunk_idx].program(chunk, clip)?;
        }
        // Reset remaining ACs to an unprogrammed state (their physical
        // fault state — cell faults, kill switches — survives; broken
        // hardware is not repaired by reprogramming).
        for ac in self.acs.iter_mut().skip(stacks_needed) {
            ac.reset();
        }
        self.rf = rf;
        self.kernels = k;
        self.level = Some(level);
        Ok(level)
    }

    /// The per-cell oracle: evaluates one dot-product cycle through each
    /// stacked AC's uncached loop ([`AtomicCrossbar::dot_reference`]),
    /// splitting `inputs` across the ACs and summing their partial column
    /// currents in the current domain (the H1/H2 aggregation,
    /// chunk-ascending). Returns `kernels` differential currents. The
    /// split-phase seam ([`prepare`](Self::prepare),
    /// [`eval_dense_prepared`](Self::eval_dense_prepared) or
    /// [`spike_rows`](Self::spike_rows), then
    /// [`accrue_batch`](Self::accrue_batch)) computes the same output bits
    /// and is checked against this.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] when
    /// `inputs.len() != rf`.
    pub fn dot_reference(&mut self, inputs: &[f64]) -> Result<Vec<Amps>, CrossbarError> {
        if inputs.len() != self.rf {
            return Err(CrossbarError::InputLengthMismatch {
                len: inputs.len(),
                expected: self.rf,
            });
        }
        let mut totals = vec![Amps::ZERO; self.kernels];
        for (chunk_idx, chunk) in inputs.chunks(self.m).enumerate() {
            let partial = self.acs[chunk_idx].dot_reference(chunk)?;
            for (t, p) in totals.iter_mut().zip(partial) {
                *t += p;
            }
        }
        Ok(totals)
    }

    /// Rebuilds every AC's effective-conductance cache if dirty, so the
    /// `&self` split-phase readers
    /// ([`eval_dense_prepared`](Self::eval_dense_prepared),
    /// [`spike_rows`](Self::spike_rows)) can run from parallel workers
    /// that share the tile immutably.
    pub fn prepare(&mut self) {
        for ac in &mut self.acs {
            ac.prepare();
        }
    }

    /// Kernel (output column) count of the current programming.
    pub fn kernels(&self) -> usize {
        self.kernels
    }

    /// Minimum scratch width the split-phase evaluators require:
    /// [`kernels`](Self::kernels) rounded up to a lane multiple so the
    /// differential kernel can write its zero-padded tail lanes.
    pub fn scratch_cols(&self) -> usize {
        kernel::padded_len(self.kernels)
    }

    /// Selects the inner-loop kernel every atomic crossbar's prepared
    /// evaluators run through: [`KernelPath::Auto`] (the default) or the
    /// [`KernelPath::Scalar`] reference. Outputs are bit-identical on both
    /// paths; only the energy term's association differs. Switching does
    /// not discard a prepared layout — the next [`prepare`](Self::prepare)
    /// builds the selected one if it is missing.
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        for ac in &mut self.acs {
            ac.set_kernel_path(path);
        }
    }

    /// The inner-loop kernel the tile's crossbars are set to.
    pub fn kernel_path(&self) -> KernelPath {
        self.acs[0].kernel_path()
    }

    /// Total bytes of the per-AC cache layouts backing the current kernel
    /// path (resolved conductances on [`KernelPath::Scalar`], padded
    /// differential rows plus per-row sums on [`KernelPath::Auto`]); 0 for
    /// ACs whose cache is dirty or unbuilt, so call after
    /// [`prepare`](Self::prepare) for a meaningful footprint.
    pub fn kernel_cache_bytes(&self) -> usize {
        self.acs.iter().map(|ac| ac.kernel_cache_bytes()).sum()
    }

    /// Number of stacked ACs the current programming occupies — the
    /// length of the per-chunk current vector the split-phase evaluators
    /// fill.
    pub fn chunk_count(&self) -> usize {
        self.rf.div_ceil(self.m.max(1))
    }

    /// Split-phase dense evaluation of one item, through `&self` so a
    /// worker pool can evaluate many items against one prepared tile
    /// concurrently: splits `inputs` across the stacked ACs and sums their
    /// partial currents chunk-ascending, as the oracle does.
    /// Writes the per-kernel differential currents into `totals` (len
    /// [`kernels`](Self::kernels)) and the total (non-differential)
    /// current each AC drew into `currents` (len
    /// [`chunk_count`](Self::chunk_count)) — the caller must feed the
    /// latter back through [`accrue_batch`](Self::accrue_batch) in item
    /// order to keep energy counters bit-identical to the sequential
    /// path. `diff` is scratch space (len ≥
    /// [`scratch_cols`](Self::scratch_cols); contents ignored). Every
    /// output is [`dot_reference`](Self::dot_reference)'s bits, whatever
    /// the worker count.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != rf`, a buffer is too short, or
    /// [`prepare`](Self::prepare) has not run since the last state
    /// mutation.
    pub fn eval_dense_prepared(
        &self,
        inputs: &[f64],
        totals: &mut [Amps],
        currents: &mut [f64],
        diff: &mut [f64],
    ) {
        assert_eq!(inputs.len(), self.rf, "drive vector length != rf");
        let totals = &mut totals[..self.kernels];
        totals.fill(Amps::ZERO);
        for (chunk_idx, chunk) in inputs.chunks(self.m).enumerate() {
            let diff = &mut diff[..self.scratch_cols()];
            diff.fill(0.0);
            currents[chunk_idx] = self.acs[chunk_idx].eval_dense_prepared(chunk, diff);
            for (t, &d) in totals.iter_mut().zip(diff[..self.kernels].iter()) {
                *t += Amps(d); // Kirchhoff current summation, chunk-ascending
            }
        }
    }

    /// Atomic crossbar `ac`'s prepared rows as a binary spike drive sees
    /// them ([`kernel::SpikeRows`]), for scatter-form evaluators that add
    /// each patch's driven rows into its column accumulators: AC
    /// `ac` holds receptive-field rows `ac·M .. (ac+1)·M`, and its
    /// differential columns land in the first [`kernels`](Self::kernels)
    /// accumulator slots (the padding lanes up to
    /// [`scratch_cols`](Self::scratch_cols) only gain `+0.0`). `None` for a
    /// dead AC — it contributes zero current and draws no energy. Feed
    /// the per-AC current chains back through
    /// [`accrue_batch`](Self::accrue_batch).
    ///
    /// # Panics
    ///
    /// Panics when `ac ≥ 16` or [`prepare`](Self::prepare) has not run
    /// since the last state mutation.
    pub fn spike_rows(&self, ac: usize) -> Option<kernel::SpikeRows<'_>> {
        self.acs[ac].spike_rows()
    }

    /// Accrual half of the split-phase evaluators: `per_item[i]` is the
    /// per-AC total-current vector the `i`-th item's
    /// [`eval_dense_prepared`](Self::eval_dense_prepared) call returned,
    /// or the per-AC current chains a [`spike_rows`](Self::spike_rows)
    /// scatter built for it. Each AC accrues its items in
    /// ascending item order — the exact floating-point sequence of
    /// calling [`dot_reference`](Self::dot_reference) on each item in turn.
    ///
    /// Items that drew no current from an AC (silent spike items, or
    /// chunks the sparse evaluator dismissed) are skipped outright:
    /// accruing them would add exactly `+0.0 J` (conductances are
    /// positive and drives non-negative, so a total current is `0.0`
    /// only when no row fired; the energy counter is never `-0.0`), so
    /// skipping the add leaves the energy bits unchanged while the
    /// accrual loop scales with *activity* rather than batch size.
    pub fn accrue_batch(&mut self, per_item: &[&[f64]]) {
        let chunks = self.chunk_count();
        for (chunk_idx, ac) in self.acs.iter_mut().take(chunks).enumerate() {
            for item in per_item {
                let current = item[chunk_idx];
                if current == 0.0 {
                    continue;
                }
                ac.accrue_read(current);
            }
        }
    }

    /// Natural current scale: see
    /// [`AtomicCrossbar::unit_current`](crate::array::AtomicCrossbar::unit_current).
    pub fn unit_current(&self) -> Amps {
        self.acs[0].unit_current()
    }

    /// Samples hard faults into every atomic crossbar, in AC order (the
    /// draw sequence is reproducible for a fixed seed). Returns the total
    /// number of faulty cells across the super-tile.
    pub fn inject_faults<R: Rng + ?Sized>(&mut self, model: &FaultModel, rng: &mut R) -> usize {
        self.acs
            .iter_mut()
            .map(|ac| ac.inject_faults(model, rng))
            .sum()
    }

    /// Power-gates one atomic crossbar (e.g. a manufacturing reject):
    /// its partial currents read as zero and it draws no read energy.
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ 16`.
    pub fn kill_ac(&mut self, idx: usize) {
        self.acs[idx].kill();
    }

    /// The whole-tile kill switch: power-gates all 16 atomic crossbars.
    pub fn kill(&mut self) {
        for ac in &mut self.acs {
            ac.kill();
        }
    }

    /// Lifts the kill switch on every AC (cell faults remain).
    pub fn revive(&mut self) {
        for ac in &mut self.acs {
            ac.revive();
        }
    }

    /// Number of power-gated (dead) atomic crossbars.
    pub fn dead_acs(&self) -> usize {
        self.acs.iter().filter(|ac| ac.is_dead()).count()
    }

    /// True when every atomic crossbar is dead — the whole super-tile is
    /// out of service and the mapper must route around it.
    pub fn is_dead(&self) -> bool {
        self.acs.iter().all(AtomicCrossbar::is_dead)
    }

    /// Faulty-cell fraction across the whole super-tile (dead ACs count
    /// as fully faulty — none of their cells can hold a weight).
    pub fn faulty_fraction(&self) -> f64 {
        self.acs
            .iter()
            .map(|ac| {
                if ac.is_dead() {
                    1.0
                } else {
                    ac.faulty_fraction()
                }
            })
            .sum::<f64>()
            / self.acs.len() as f64
    }

    /// Total faulty cells across all ACs (excluding kill switches).
    pub fn faulty_cells(&self) -> usize {
        self.acs.iter().map(AtomicCrossbar::faulty_cells).sum()
    }

    /// Advances every AC's age by `dt` (drives retention-drift faults).
    pub fn advance_age(&mut self, dt: Seconds) {
        for ac in &mut self.acs {
            ac.advance_age(dt);
        }
    }

    /// Total read energy accrued across all ACs.
    pub fn accumulated_read_energy(&self) -> Joules {
        self.acs
            .iter()
            .map(AtomicCrossbar::accumulated_read_energy)
            .sum()
    }

    /// Total programming energy accrued across all ACs.
    pub fn accumulated_program_energy(&self) -> Joules {
        self.acs
            .iter()
            .map(AtomicCrossbar::accumulated_program_energy)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use rand::SeedableRng;

    fn small_config() -> CrossbarConfig {
        let mut cfg = CrossbarConfig::paper_default(Mode::Ann);
        cfg.m = 8;
        cfg
    }

    /// One dense drive through the split-phase seam (prepare, evaluate,
    /// accrue), checked bitwise against the per-cell oracle on a clone.
    fn seam_dot(st: &mut SuperTile, inputs: &[f64]) -> Vec<Amps> {
        let expect = st.clone().dot_reference(inputs).unwrap();
        st.prepare();
        let mut totals = vec![Amps::ZERO; st.kernels()];
        let mut currents = vec![0.0; st.chunk_count()];
        let mut diff = vec![0.0; st.scratch_cols()];
        st.eval_dense_prepared(inputs, &mut totals, &mut currents, &mut diff);
        st.accrue_batch(&[&currents]);
        assert_eq!(totals, expect, "seam must match the oracle bitwise");
        totals
    }

    /// One binary spike drive (ascending active rows) through the seam:
    /// each AC adds its rows from `+0.0` and the ACs merge in ascending
    /// order, as `nebula-core`'s scatter does.
    fn seam_spikes(st: &mut SuperTile, active: &[usize]) -> Vec<Amps> {
        st.prepare();
        let m = st.m();
        let mut totals = vec![Amps::ZERO; st.kernels()];
        let mut currents = vec![0.0; st.chunk_count()];
        let mut acc = vec![0.0; st.scratch_cols()];
        for (ac, current) in currents.iter_mut().enumerate() {
            let Some(rows) = st.spike_rows(ac) else {
                continue; // a dead AC drives and draws nothing
            };
            let lo = active.partition_point(|&r| r < ac * m);
            let hi = active.partition_point(|&r| r < (ac + 1) * m);
            acc.fill(0.0);
            *current = rows.add_rows(&active[lo..hi], ac * m, &mut acc, 0.0);
            for (t, &a) in totals.iter_mut().zip(&acc) {
                *t += Amps(a);
            }
        }
        st.accrue_batch(&[&currents]);
        totals
    }

    #[test]
    fn nu_level_selection_matches_paper_rules() {
        let m = 128;
        assert_eq!(nu_level_for(27, m), Some(NuLevel::H0)); // VGG conv1
        assert_eq!(nu_level_for(128, m), Some(NuLevel::H0));
        assert_eq!(nu_level_for(129, m), Some(NuLevel::H1));
        assert_eq!(nu_level_for(512, m), Some(NuLevel::H1));
        assert_eq!(nu_level_for(513, m), Some(NuLevel::H2));
        assert_eq!(nu_level_for(2048, m), Some(NuLevel::H2));
        assert_eq!(nu_level_for(2049, m), None); // spills across NCs
        assert_eq!(nu_level_for(0, m), None);
    }

    #[test]
    fn kernel_capacity_shrinks_with_receptive_field() {
        let m = 128;
        assert_eq!(kernels_per_supertile(100, m), 16 * 128);
        assert_eq!(kernels_per_supertile(256, m), 8 * 128);
        assert_eq!(kernels_per_supertile(1024, m), 2 * 128);
        assert_eq!(kernels_per_supertile(2048, m), 128);
        assert_eq!(kernels_per_supertile(4096, m), 0);
        assert_eq!(acs_per_kernel(2048, m), 16);
    }

    #[test]
    fn h0_kernel_computes_in_single_ac() {
        let mut st = SuperTile::new(small_config()).unwrap();
        let w = vec![vec![1.0, -1.0]; 4]; // rf=4 ≤ m=8
        assert_eq!(st.program(&w, 1.0).unwrap(), NuLevel::H0);
        let out = seam_dot(&mut st, &[1.0; 4]);
        let unit = st.unit_current().0;
        assert!((out[0].0 / unit - 4.0).abs() < 0.05);
        assert!((out[1].0 / unit + 4.0).abs() < 0.05);
    }

    #[test]
    fn h1_kernel_spans_multiple_acs_and_sums_currents() {
        let mut st = SuperTile::new(small_config()).unwrap();
        let rf = 20; // 8 < 20 ≤ 32 → H1, 3 ACs
                     // ±1.0 sit exactly on the 16-level conductance grid.
        let w = vec![vec![1.0]; rf];
        assert_eq!(st.program(&w, 1.0).unwrap(), NuLevel::H1);
        let out = seam_dot(&mut st, &vec![1.0; rf]);
        let val = out[0].0 / st.unit_current().0;
        assert!((val - 20.0).abs() < 0.2, "summed dot {val} vs exact 20");
    }

    #[test]
    fn h2_kernel_uses_up_to_sixteen_acs() {
        let mut st = SuperTile::new(small_config()).unwrap();
        let rf = 100; // 32 < 100 ≤ 128 → H2, 13 ACs
        let w = vec![vec![-1.0]; rf]; // exactly representable
        assert_eq!(st.program(&w, 1.0).unwrap(), NuLevel::H2);
        let out = seam_dot(&mut st, &vec![1.0; rf]);
        let val = out[0].0 / st.unit_current().0;
        assert!((val + 100.0).abs() < 1.0, "summed dot {val} vs exact -100");
    }

    #[test]
    fn oversized_kernels_are_rejected() {
        let mut st = SuperTile::new(small_config()).unwrap();
        let w = vec![vec![0.0]; 16 * 8 + 1];
        assert!(matches!(
            st.program(&w, 1.0),
            Err(CrossbarError::ReceptiveFieldTooLarge { .. })
        ));
        let too_wide = vec![vec![0.0; 9]; 4];
        assert!(matches!(
            st.program(&too_wide, 1.0),
            Err(CrossbarError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn dot_validates_input_length() {
        let mut st = SuperTile::new(small_config()).unwrap();
        st.program(&vec![vec![1.0]; 10], 1.0).unwrap();
        assert!(matches!(
            st.dot_reference(&[1.0; 9]),
            Err(CrossbarError::InputLengthMismatch {
                len: 9,
                expected: 10
            })
        ));
        assert_eq!(st.accumulated_read_energy(), Joules::ZERO);
    }

    #[test]
    #[should_panic(expected = "drive vector length != rf")]
    fn seam_rejects_a_drive_of_the_wrong_length() {
        let mut st = SuperTile::new(small_config()).unwrap();
        st.program(&vec![vec![1.0]; 10], 1.0).unwrap();
        st.prepare();
        let mut totals = vec![Amps::ZERO; st.kernels()];
        let mut currents = vec![0.0; st.chunk_count()];
        let mut diff = vec![0.0; st.scratch_cols()];
        st.eval_dense_prepared(&[1.0; 9], &mut totals, &mut currents, &mut diff);
    }

    #[test]
    fn reprogramming_clears_stale_acs() {
        let mut st = SuperTile::new(small_config()).unwrap();
        st.program(&vec![vec![1.0]; 20], 1.0).unwrap(); // 3 ACs
        st.program(&vec![vec![1.0]; 4], 1.0).unwrap(); // back to 1 AC
        let out = seam_dot(&mut st, &[1.0; 4]);
        let val = out[0].0 / st.unit_current().0;
        assert!((val - 4.0).abs() < 0.05, "stale rows leaked: {val}");
    }

    #[test]
    fn supertile_dot_reference_matches_fast_path() {
        let mut st = SuperTile::new(small_config()).unwrap();
        let rf = 20;
        st.program(&vec![vec![0.75, -0.25]; rf], 1.0).unwrap();
        let inputs: Vec<f64> = (0..rf).map(|i| (i % 4) as f64 / 3.0).collect();
        let mut reference = st.clone();
        let mut scalar = st.clone();
        scalar.set_kernel_path(KernelPath::Scalar);
        let expected = reference.dot_reference(&inputs).unwrap();
        assert_eq!(seam_dot(&mut st, &inputs), expected);
        assert_eq!(seam_dot(&mut scalar, &inputs), expected);
        // Scalar kernel: energy bitwise; Auto kernel: per-row
        // re-association held to the documented ≤ 1e-12 relative bound.
        assert_eq!(
            scalar.accumulated_read_energy(),
            reference.accumulated_read_energy()
        );
        let e_ref = reference.accumulated_read_energy().0;
        let e_vec = st.accumulated_read_energy().0;
        assert!(
            (e_vec - e_ref).abs() <= 1e-12 * e_ref.abs(),
            "Auto energy {e_vec} vs reference {e_ref}"
        );
    }

    #[test]
    fn supertile_auto_matches_scalar_bitwise() {
        let mut st = SuperTile::new(small_config()).unwrap();
        let rf = 20;
        let weights: Vec<Vec<f64>> = (0..rf)
            .map(|r| vec![(r % 5) as f64 / 4.0 - 0.5, (r % 3) as f64 / 2.0])
            .collect();
        st.program(&weights, 1.0).unwrap();
        st.kill_ac(1); // kill switch must flow through both layouts
        let mut scalar = st.clone();
        scalar.set_kernel_path(KernelPath::Scalar);
        assert_eq!(st.kernel_path(), KernelPath::Auto);

        let inputs: Vec<f64> = (0..rf).map(|i| (i % 4) as f64 / 3.0 - 0.2).collect();
        assert_eq!(
            seam_dot(&mut st, &inputs),
            seam_dot(&mut scalar, &inputs),
            "Auto dense outputs must be bitwise scalar"
        );
        let active = [1usize, 4, 7, 19];
        assert_eq!(
            seam_spikes(&mut st, &active),
            seam_spikes(&mut scalar, &active),
            "Auto spike outputs must be bitwise scalar"
        );
        // Energy uses the per-row-sum formulation: ≤ 1e-12 relative.
        let e_ref = scalar.accumulated_read_energy().0;
        let e_auto = st.accumulated_read_energy().0;
        assert!(
            e_ref > 0.0 && (e_auto - e_ref).abs() <= 1e-12 * e_ref,
            "Auto energy {e_auto} vs scalar {e_ref}"
        );
    }

    #[test]
    fn failed_program_leaves_supertile_unchanged() {
        let mut st = SuperTile::new(small_config()).unwrap();
        st.program(&vec![vec![1.0]; 20], 1.0).unwrap(); // spans 3 ACs
        let snapshot = st.clone();

        // A ragged row in a *later* chunk used to reprogram the earlier
        // ACs before failing, leaving the super-tile half-updated against
        // stale rf/kernel metadata.
        let mut ragged = vec![vec![0.25]; 20];
        ragged[15] = vec![0.25, 0.75]; // second AC's chunk
        assert!(matches!(
            st.program(&ragged, 1.0),
            Err(CrossbarError::InvalidConfig { .. })
        ));
        // Invalid clips must also fail before touching any AC.
        assert!(st.program(&vec![vec![1.0]; 4], 0.0).is_err());
        assert!(st.program(&vec![vec![1.0]; 4], f64::NAN).is_err());

        assert_eq!(st.active_level(), snapshot.active_level());
        let a = st.dot_reference(&[1.0; 20]).unwrap();
        let b = snapshot.clone().dot_reference(&[1.0; 20]).unwrap();
        assert_eq!(a, b, "failed program must not alter crossbar state");
        assert_eq!(
            st.accumulated_program_energy(),
            snapshot.accumulated_program_energy(),
            "failed program must not accrue programming energy"
        );
    }

    #[test]
    fn killed_ac_drops_its_partial_currents() {
        let mut st = SuperTile::new(small_config()).unwrap();
        let rf = 20; // spans 3 ACs of m=8: rows 0..8, 8..16, 16..20
        st.program(&vec![vec![1.0]; rf], 1.0).unwrap();
        st.kill_ac(1); // rows 8..16 go silent
        assert_eq!(st.dead_acs(), 1);
        assert!(!st.is_dead());
        let out = seam_dot(&mut st, &vec![1.0; rf]);
        let val = out[0].0 / st.unit_current().0;
        // 20 rows minus the 8 dead ones ≈ 12.
        assert!((val - 12.0).abs() < 0.2, "graceful partial output: {val}");
    }

    #[test]
    fn whole_tile_kill_switch_silences_everything() {
        let mut st = SuperTile::new(small_config()).unwrap();
        st.program(&vec![vec![1.0]; 10], 1.0).unwrap();
        let before = st.accumulated_read_energy();
        st.kill();
        assert!(st.is_dead());
        assert_eq!(st.faulty_fraction(), 1.0);
        let out = seam_dot(&mut st, &[1.0; 10]);
        assert!(out.iter().all(|i| i.0 == 0.0));
        assert!(seam_spikes(&mut st, &[0, 9]).iter().all(|i| i.0 == 0.0));
        assert_eq!(
            st.accumulated_read_energy(),
            before,
            "dead tile draws nothing"
        );
        st.revive();
        assert_eq!(st.dead_acs(), 0);
        let out = seam_dot(&mut st, &[1.0; 10]);
        assert!(out[0].0 > 0.0, "revival restores evaluation");
    }

    #[test]
    fn tile_fault_injection_is_seeded_and_survives_reprogramming() {
        use nebula_device::fault::{FaultClass, FaultModel};
        let model = FaultModel::single(FaultClass::StuckAtGmax, 0.05);
        let count = |seed: u64| {
            let mut st = SuperTile::new(small_config()).unwrap();
            st.program(&vec![vec![0.0]; 20], 1.0).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            st.inject_faults(&model, &mut rng)
        };
        assert_eq!(count(7), count(7), "same seed, same fault map");
        let mut st = SuperTile::new(small_config()).unwrap();
        st.program(&vec![vec![0.0]; 20], 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = st.inject_faults(&model, &mut rng);
        assert!(n > 0);
        // Reprogramming (even shrinking to fewer ACs) keeps the faults.
        st.program(&vec![vec![0.5]; 4], 1.0).unwrap();
        assert_eq!(st.faulty_cells(), n, "faults must survive reprogram");
    }

    #[test]
    fn energy_accounting_aggregates_across_acs() {
        let mut st = SuperTile::new(small_config()).unwrap();
        st.program(&vec![vec![1.0]; 20], 1.0).unwrap();
        assert!(st.accumulated_program_energy().0 > 0.0);
        seam_dot(&mut st, &[1.0; 20]);
        assert!(st.accumulated_read_energy().0 > 0.0);
    }
}
