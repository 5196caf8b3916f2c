//! The atomic crossbar: an `M×M` array of DW-MTJ synapses computing
//! analog dot products by Kirchhoff current summation (paper Fig. 3).
//!
//! Signed weights are realized with a *reference-column* scheme: a weight
//! `w ∈ [−w_clip, +w_clip]` is programmed as a conductance offset around
//! the mid conductance `G_mid`, and every column current is reported
//! relative to the current a reference column at `G_mid` would carry
//! under the same drive. The reported differential current is then
//! exactly proportional to `Σ_i v_i·w_i` (up to the 16-level device
//! quantization).

use crate::config::CrossbarConfig;
use crate::error::CrossbarError;
use crate::kernel::{self, VectorLayout};
use nebula_device::fault::{CellFault, ConductanceEnvelope, FaultModel};
use nebula_device::synapse::DwMtjSynapse;
use nebula_device::units::{Amps, Joules, Seconds, Volts};
use rand::Rng;

/// One `M×M` atomic crossbar (AC) of DW-MTJ synapses.
///
/// # Examples
///
/// ```
/// use nebula_crossbar::array::AtomicCrossbar;
/// use nebula_crossbar::config::{CrossbarConfig, Mode};
///
/// let mut xbar = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann))?;
/// // Program a 2×2 block of signed weights.
/// xbar.program(&[vec![0.5, -0.5], vec![1.0, 0.25]], 1.0)?;
/// // The per-cell oracle; batches evaluate through a `SuperTile`.
/// let currents = xbar.dot_reference(&[1.0, 1.0])?;
/// assert!(currents[0].0 > 0.0); // 0.5 + 1.0 > 0
/// # Ok::<(), nebula_crossbar::CrossbarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AtomicCrossbar {
    config: CrossbarConfig,
    /// Programmed conductances (siemens), row-major `m × m`; unused cells
    /// stay at the mid conductance so they contribute zero differential
    /// current.
    conductance: Vec<f64>,
    rows_used: usize,
    cols_used: usize,
    weight_clip: f64,
    g_min: f64,
    g_max: f64,
    levels: usize,
    program_energy: Joules,
    read_energy: Joules,
    /// Per-cell hard faults (row-major, `m × m`); empty when the array
    /// is fault-free, so the clean hot path pays nothing.
    faults: Vec<Option<CellFault>>,
    /// Seconds since the last programming event (drives retention
    /// drift).
    age: Seconds,
    /// Power-gated whole-array kill switch: a dead array contributes
    /// zero differential current and draws no read energy.
    dead: bool,
    /// Lazily rebuilt differential layout of the fault/age-resolved
    /// effective conductances of the programmed block. `None` means
    /// dirty: every state mutation (program, reset, fault injection,
    /// aging, kill/revive) invalidates it, and the next
    /// [`prepare`](Self::prepare) rebuilds it once instead of
    /// re-resolving faults per cell per evaluation.
    eff_cache: Option<VectorLayout>,
}

/// Panic message of the prepared evaluators when the cache is dirty:
/// `prepare()` has not run since the last state mutation.
const PREPARE_MSG: &str = "prepare() must run before a *_prepared evaluation";

impl AtomicCrossbar {
    /// Creates an unprogrammed crossbar (all cells at mid conductance).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] for invalid
    /// configurations.
    pub fn new(config: CrossbarConfig) -> Result<Self, CrossbarError> {
        config.validate()?;
        let probe = DwMtjSynapse::new(&config.device);
        let g_min = probe.min_conductance().0;
        let g_max = probe.max_conductance().0;
        let levels = probe.levels();
        let g_mid = (g_min + g_max) / 2.0;
        Ok(Self {
            conductance: vec![g_mid; config.m * config.m],
            rows_used: 0,
            cols_used: 0,
            weight_clip: 1.0,
            g_min,
            g_max,
            levels,
            program_energy: Joules::ZERO,
            read_energy: Joules::ZERO,
            faults: Vec::new(),
            age: Seconds(0.0),
            dead: false,
            eff_cache: None,
            config,
        })
    }

    /// The configuration this crossbar was built with.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Crossbar side `M`.
    pub fn m(&self) -> usize {
        self.config.m
    }

    /// Rows currently carrying programmed weights.
    pub fn rows_used(&self) -> usize {
        self.rows_used
    }

    /// Columns currently carrying programmed weights.
    pub fn cols_used(&self) -> usize {
        self.cols_used
    }

    /// Fraction of the array carrying programmed weights (synapse
    /// utilization — the quantity NEBULA's morphable tiles optimize).
    pub fn utilization(&self) -> f64 {
        (self.rows_used * self.cols_used) as f64 / (self.m() * self.m()) as f64
    }

    fn g_mid(&self) -> f64 {
        (self.g_min + self.g_max) / 2.0
    }

    /// The device envelope faults act within.
    fn envelope(&self) -> ConductanceEnvelope {
        ConductanceEnvelope {
            g_min: self.g_min,
            g_max: self.g_max,
            levels: self.levels,
        }
    }

    fn ensure_fault_map(&mut self) {
        if self.faults.is_empty() {
            self.faults = vec![None; self.m() * self.m()];
        }
    }

    /// Samples a hard-fault state for every cell of the array (row-major
    /// order, so the draw sequence is reproducible for a fixed seed).
    /// Cells that draw a fault overwrite any existing one; cells that
    /// draw none keep theirs. Returns the number of faulty cells after
    /// injection.
    pub fn inject_faults<R: Rng + ?Sized>(&mut self, model: &FaultModel, rng: &mut R) -> usize {
        if model.is_none() {
            return self.faulty_cells();
        }
        self.eff_cache = None;
        self.ensure_fault_map();
        for slot in self.faults.iter_mut() {
            if let Some(fault) = model.sample_cell(rng) {
                *slot = Some(fault);
            }
        }
        self.faulty_cells()
    }

    /// Pins one cell to a specific fault.
    ///
    /// # Panics
    ///
    /// Panics when `(row, col)` lies outside the `M×M` array.
    pub fn set_cell_fault(&mut self, row: usize, col: usize, fault: CellFault) {
        let m = self.m();
        assert!(
            row < m && col < m,
            "cell ({row},{col}) outside {m}x{m} array"
        );
        self.eff_cache = None;
        self.ensure_fault_map();
        self.faults[row * m + col] = Some(fault);
    }

    /// Fails an entire word line: every cell of `row` gets `fault`
    /// (e.g. a broken row driver leaving all its cells stuck).
    ///
    /// # Panics
    ///
    /// Panics when `row` is outside the array.
    pub fn fail_row(&mut self, row: usize, fault: CellFault) {
        let m = self.m();
        assert!(row < m, "row {row} outside {m}x{m} array");
        self.eff_cache = None;
        self.ensure_fault_map();
        for slot in &mut self.faults[row * m..(row + 1) * m] {
            *slot = Some(fault);
        }
    }

    /// The fault at `(row, col)`, if any.
    ///
    /// # Panics
    ///
    /// Panics when `(row, col)` lies outside the array.
    pub fn cell_fault(&self, row: usize, col: usize) -> Option<CellFault> {
        let m = self.m();
        assert!(
            row < m && col < m,
            "cell ({row},{col}) outside {m}x{m} array"
        );
        if self.faults.is_empty() {
            None
        } else {
            self.faults[row * m + col]
        }
    }

    /// Clears every cell fault (but not the kill switch).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
        self.eff_cache = None;
    }

    /// Number of cells carrying a hard fault.
    pub fn faulty_cells(&self) -> usize {
        self.faults.iter().filter(|f| f.is_some()).count()
    }

    /// Fraction of the full `M×M` array carrying hard faults.
    pub fn faulty_fraction(&self) -> f64 {
        self.faulty_cells() as f64 / (self.m() * self.m()) as f64
    }

    /// Power-gates the whole array: evaluations return zero differential
    /// current and draw no read energy until [`revive`](Self::revive).
    pub fn kill(&mut self) {
        self.dead = true;
        self.eff_cache = None;
    }

    /// Lifts the kill switch (cell faults, if any, remain).
    pub fn revive(&mut self) {
        self.dead = false;
        self.eff_cache = None;
    }

    /// True when the array is power-gated dead.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Advances the array's age by `dt` (drives retention-drift faults;
    /// reprogramming resets the age to zero).
    pub fn advance_age(&mut self, dt: Seconds) {
        self.age += dt;
        self.eff_cache = None;
    }

    /// Seconds since the last programming event.
    pub fn age(&self) -> Seconds {
        self.age
    }

    /// Quantizes a signed weight to the nearest device conductance.
    fn weight_to_conductance(&self, w: f64) -> f64 {
        let clipped = w.clamp(-self.weight_clip, self.weight_clip);
        // Map [-clip, clip] → [0, levels-1].
        let frac = (clipped + self.weight_clip) / (2.0 * self.weight_clip);
        let state = (frac * (self.levels - 1) as f64).round();
        self.g_min + (self.g_max - self.g_min) * state / (self.levels - 1) as f64
    }

    /// The signed weight a conductance represents (inverse mapping).
    fn conductance_to_weight(&self, g: f64) -> f64 {
        let frac = (g - self.g_min) / (self.g_max - self.g_min);
        2.0 * self.weight_clip * frac - self.weight_clip
    }

    /// Programs a block of signed weights (`weights[row][col]`), clipping
    /// to `[-weight_clip, weight_clip]` and quantizing to the device's 16
    /// conductance levels. Cells outside the block are reset to mid
    /// conductance. Programming energy (~100 fJ/cell) is accrued.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::DimensionMismatch`] when the block
    /// exceeds `M×M`, or [`CrossbarError::InvalidConfig`] for a
    /// non-positive clip.
    pub fn program(&mut self, weights: &[Vec<f64>], weight_clip: f64) -> Result<(), CrossbarError> {
        if weight_clip <= 0.0 || !weight_clip.is_finite() {
            return Err(CrossbarError::InvalidConfig {
                reason: format!("weight clip must be positive, got {weight_clip}"),
            });
        }
        let rows = weights.len();
        let cols = weights.first().map_or(0, Vec::len);
        let m = self.m();
        if rows > m || cols > m {
            return Err(CrossbarError::DimensionMismatch {
                rows,
                cols,
                max_rows: m,
                max_cols: m,
            });
        }
        if weights.iter().any(|r| r.len() != cols) {
            return Err(CrossbarError::InvalidConfig {
                reason: "weight rows have unequal lengths".to_string(),
            });
        }
        self.weight_clip = weight_clip;
        self.eff_cache = None;
        let g_mid = self.g_mid();
        self.conductance.fill(g_mid);
        // One calibrated programming event per cell: the device crate's
        // ~100 fJ spin-Hall write.
        let per_cell = {
            let i = self.config.device.full_scale_current();
            (i * self.config.device.heavy_metal_resistance() * i)
                * self.config.device.switching_time()
        };
        for (r, row) in weights.iter().enumerate() {
            for (c, &w) in row.iter().enumerate() {
                self.conductance[r * m + c] = self.weight_to_conductance(w);
                self.program_energy += per_cell;
            }
        }
        self.rows_used = rows;
        self.cols_used = cols;
        // A fresh programming event re-seats every domain wall, so
        // retention drift restarts from zero elapsed time. Stuck and
        // pinned cells stay faulty: the fault map survives programming.
        self.age = Seconds(0.0);
        Ok(())
    }

    /// Returns the array to its unprogrammed state (all cells at mid
    /// conductance, nothing in use) while preserving the accrued energy
    /// counters and the *physical* fault state — cell faults and the
    /// kill switch describe broken hardware, which a reprogram cannot
    /// repair.
    pub fn reset(&mut self) {
        let g_mid = self.g_mid();
        self.conductance.fill(g_mid);
        self.rows_used = 0;
        self.cols_used = 0;
        self.weight_clip = 1.0;
        self.age = Seconds(0.0);
        self.eff_cache = None;
    }

    /// The effective (quantized) weight stored at `(row, col)` — what the
    /// analog array will actually multiply by, including any hard fault
    /// at the cell (a dead array reads as all-zero weights).
    pub fn effective_weight(&self, row: usize, col: usize) -> f64 {
        if self.dead {
            return 0.0;
        }
        let g = self.conductance[row * self.m() + col];
        let g = match self.cell_fault(row, col) {
            Some(fault) => fault.apply(g, &self.envelope(), self.age),
            None => g,
        };
        self.conductance_to_weight(g)
    }

    /// The per-cell oracle: evaluates one analog dot-product cycle by
    /// re-resolving every visited cell's fault and age, with no cache.
    /// Drives `inputs` (per-row activations normalized to `[0, 1]` of the
    /// mode's read voltage, binary for SNN) and returns the
    /// *differential* column currents `I_j − I_ref`, proportional to
    /// `Σ_i v_i·w_ij`.
    ///
    /// Read energy is accrued from the total (non-differential) current
    /// actually flowing through the array for one pipeline cycle: each
    /// driven word line at voltage `v` draws `v · ΣG` over its cells, so
    /// the loop sums a row's conductances column-ascending and adds
    /// `v · row_sum` to the total, row-ascending. The prepared evaluators
    /// a [`SuperTile`](crate::tile::SuperTile) drives return the same
    /// outputs and the same energy bit for bit; this loop is what they
    /// are checked against.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] when
    /// `inputs.len() != rows_used`.
    pub fn dot_reference(&mut self, inputs: &[f64]) -> Result<Vec<Amps>, CrossbarError> {
        if inputs.len() != self.rows_used {
            return Err(CrossbarError::InputLengthMismatch {
                len: inputs.len(),
                expected: self.rows_used,
            });
        }
        let mut diff = vec![0.0f64; self.cols_used];
        let mut total_current = 0.0f64;
        // A power-gated (dead) array drives nothing and draws nothing.
        if !self.dead {
            let v_read = self.config.mode.read_voltage().0;
            let g_mid = self.g_mid();
            for (r, &x) in inputs.iter().enumerate() {
                if x == 0.0 {
                    continue; // event-driven: silent rows draw no read current
                }
                let v = v_read * x;
                let mut row_sum = 0.0f64;
                for (j, d) in diff.iter_mut().enumerate() {
                    let g_eff = self.resolved_g(r, j);
                    *d += v * (g_eff - g_mid);
                    row_sum += g_eff;
                }
                total_current += v * row_sum; // the row's current
            }
        }
        self.accrue_read(total_current);
        Ok(diff.into_iter().map(Amps).collect())
    }

    /// The fault/age-resolved effective conductance of cell `(r, j)`:
    /// the programmed value transformed by the cell's fault, if any.
    fn resolved_g(&self, r: usize, j: usize) -> f64 {
        let idx = r * self.m() + j;
        let g = self.conductance[idx];
        match self.faults.get(idx) {
            Some(Some(fault)) => fault.apply(g, &self.envelope(), self.age),
            _ => g,
        }
    }

    /// Builds the differential cache layout if a state mutation marked
    /// the cache dirty, so that the `&self` evaluators
    /// ([`eval_dense_prepared`](Self::eval_dense_prepared),
    /// [`spike_rows`](Self::spike_rows)) can run from parallel workers
    /// that share the array immutably. Each cached `g_eff − g_mid` is
    /// what the oracle computes per visit, pre-subtracted once per cell
    /// here, and each row sum is the oracle's column-ascending sum of the
    /// row's `g_eff`, so cached evaluations are bit-identical by
    /// construction.
    pub(crate) fn prepare(&mut self) {
        if self.eff_cache.is_none() {
            self.eff_cache = Some(self.build_vector());
        }
    }

    /// Differential layout: lane-padded `g_eff − g_mid` rows plus
    /// per-row sums.
    fn build_vector(&self) -> VectorLayout {
        let cols = self.cols_used;
        let padded_cols = kernel::padded_len(cols);
        let g_mid = self.g_mid();
        let mut dg = vec![0.0f64; self.rows_used * padded_cols];
        let mut row_sum = Vec::with_capacity(self.rows_used);
        for r in 0..self.rows_used {
            let mut sum = 0.0f64;
            for j in 0..cols {
                let g = self.resolved_g(r, j);
                dg[r * padded_cols + j] = g - g_mid;
                sum += g;
            }
            row_sum.push(sum);
        }
        VectorLayout {
            dg,
            row_sum,
            padded_cols,
        }
    }

    /// Bytes the prepared cache occupies (0 while it is dirty or
    /// unbuilt): the padded differential rows plus per-row sums.
    pub(crate) fn kernel_cache_bytes(&self) -> usize {
        self.eff_cache.as_ref().map_or(0, |v| {
            (v.dg.len() + v.row_sum.len()) * std::mem::size_of::<f64>()
        })
    }

    /// The prepared cache's rows as a binary spike drive at the mode's
    /// read voltage sees them (see [`kernel::SpikeRows`]); `None` for a
    /// dead array, which drives and draws nothing.
    ///
    /// # Panics
    ///
    /// Panics when the cache is dirty (no [`prepare`](Self::prepare)
    /// since the last state mutation).
    pub(crate) fn spike_rows(&self) -> Option<kernel::SpikeRows<'_>> {
        if self.dead {
            return None;
        }
        let cache = self.eff_cache.as_ref().expect(PREPARE_MSG);
        Some(kernel::SpikeRows::new(
            self.config.mode.read_voltage().0,
            cache,
        ))
    }

    /// Dense evaluation over the prepared cache, through `&self` so
    /// parallel batch workers can evaluate without mutating the array:
    /// accumulates the differential column currents into `diff` and
    /// returns the total (non-differential) current drawn, which the
    /// owner later feeds to [`accrue_read`](Self::accrue_read). `diff`
    /// must hold at least `cols_used` rounded up to a lane multiple, zeroed
    /// (the differential kernel writes zeros into the padding tail);
    /// only `diff[..cols_used]` is meaningful. Each column adds its
    /// driven rows in the oracle's order (row-ascending, silent rows
    /// skipped) and the total current is the oracle's chain of row
    /// currents, so every output and the energy are the oracle's bits.
    ///
    /// # Panics
    ///
    /// Panics when the cache is dirty (no `prepare` since the last state
    /// mutation); the array being dead is fine (draws nothing).
    pub(crate) fn eval_dense_prepared(&self, inputs: &[f64], diff: &mut [f64]) -> f64 {
        if self.dead {
            return 0.0;
        }
        let cache = self.eff_cache.as_ref().expect(PREPARE_MSG);
        kernel::gemv(inputs, self.config.mode.read_voltage().0, cache, diff)
    }

    /// Accrues the read energy of one evaluation that drew
    /// `total_current`: all active current flows for one pipeline cycle.
    pub(crate) fn accrue_read(&mut self, total_current: f64) {
        let v_read = self.config.mode.read_voltage().0;
        let cycle = self.config.device.switching_time();
        self.read_energy += (Volts(v_read) * Amps(total_current)) * cycle;
    }

    /// The differential current a full-scale single-row, full-weight
    /// product produces — the natural scale for interpreting
    /// [`dot_reference`](Self::dot_reference) outputs as numbers:
    /// `value = I / unit_current()` recovers `Σ v_i·w_i` in weight units.
    pub fn unit_current(&self) -> Amps {
        let v = self.config.mode.read_voltage().0;
        Amps(v * (self.g_max - self.g_min) / 2.0 / self.weight_clip)
    }

    /// Total programming energy accrued.
    pub fn accumulated_program_energy(&self) -> Joules {
        self.program_energy
    }

    /// Total read (evaluation) energy accrued.
    pub fn accumulated_read_energy(&self) -> Joules {
        self.read_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use rand::SeedableRng;

    fn xbar(mode: Mode) -> AtomicCrossbar {
        AtomicCrossbar::new(CrossbarConfig::paper_default(mode)).unwrap()
    }

    /// Interprets differential currents back into weight-space numbers.
    fn as_values(x: &AtomicCrossbar, currents: &[Amps]) -> Vec<f64> {
        let unit = x.unit_current().0;
        currents.iter().map(|i| i.0 / unit).collect()
    }

    /// One dense drive through the prepared path a super-tile runs:
    /// prepare, evaluate through `&self`, accrue.
    fn prepared_dot(x: &mut AtomicCrossbar, inputs: &[f64]) -> Vec<Amps> {
        x.prepare();
        let mut diff = vec![0.0f64; kernel::padded_len(x.cols_used())];
        let current = x.eval_dense_prepared(inputs, &mut diff);
        x.accrue_read(current);
        diff[..x.cols_used()].iter().copied().map(Amps).collect()
    }

    /// The oracle on a clone, so repeated checks leave `x` untouched.
    fn oracle(x: &AtomicCrossbar, inputs: &[f64]) -> Vec<Amps> {
        x.clone().dot_reference(inputs).unwrap()
    }

    #[test]
    fn dot_product_matches_math_within_quantization() {
        let mut x = xbar(Mode::Ann);
        let w = vec![
            vec![0.5, -0.25, 1.0],
            vec![-1.0, 0.75, 0.0],
            vec![0.25, 0.5, -0.5],
        ];
        x.program(&w, 1.0).unwrap();
        let inputs = [1.0, 0.5, 0.25];
        let out = as_values(&x, &oracle(&x, &inputs));
        for j in 0..3 {
            let exact: f64 = (0..3).map(|i| inputs[i] * w[i][j]).sum();
            assert!(
                (out[j] - exact).abs() < 0.15,
                "col {j}: analog {} vs exact {exact}",
                out[j]
            );
        }
    }

    #[test]
    fn effective_weights_are_quantized_to_16_levels() {
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![0.07]], 1.0).unwrap();
        let w = x.effective_weight(0, 0);
        // Step size = 2/15; the programmed weight sits on the grid.
        let step = 2.0 / 15.0;
        let k = (w + 1.0) / step;
        assert!((k - k.round()).abs() < 1e-9, "weight {w} off-grid");
    }

    #[test]
    fn zero_inputs_draw_no_read_energy() {
        let mut x = xbar(Mode::Snn);
        x.program(&[vec![1.0, 1.0], vec![1.0, 1.0]], 1.0).unwrap();
        let before = x.accumulated_read_energy();
        x.dot_reference(&[0.0, 0.0]).unwrap();
        prepared_dot(&mut x, &[0.0, 0.0]);
        assert_eq!(
            x.accumulated_read_energy(),
            before,
            "silent rows must not burn read energy (event-driven operation)"
        );
    }

    #[test]
    fn active_rows_accrue_read_energy() {
        let mut x = xbar(Mode::Snn);
        x.program(&[vec![1.0], vec![1.0]], 1.0).unwrap();
        x.dot_reference(&[1.0, 1.0]).unwrap();
        assert!(x.accumulated_read_energy().0 > 0.0);
    }

    #[test]
    fn snn_mode_uses_lower_voltage_hence_lower_energy() {
        let w = vec![vec![1.0; 8]; 8];
        let inputs = [1.0; 8];
        let mut ann = xbar(Mode::Ann);
        ann.program(&w, 1.0).unwrap();
        ann.dot_reference(&inputs).unwrap();
        let mut snn = xbar(Mode::Snn);
        snn.program(&w, 1.0).unwrap();
        snn.dot_reference(&inputs).unwrap();
        // Energy ∝ V²: (0.75/0.25)² = 9×.
        let ratio = ann.accumulated_read_energy().0 / snn.accumulated_read_energy().0;
        assert!((ratio - 9.0).abs() < 0.5, "V² energy ratio wrong: {ratio}");
    }

    #[test]
    fn programming_energy_scales_with_cells() {
        let mut x = xbar(Mode::Ann);
        x.program(&vec![vec![0.0; 4]; 4], 1.0).unwrap();
        let e16 = x.accumulated_program_energy().0;
        let mut y = xbar(Mode::Ann);
        y.program(&vec![vec![0.0; 8]; 8], 1.0).unwrap();
        let e64 = y.accumulated_program_energy().0;
        assert!((e64 / e16 - 4.0).abs() < 1e-6);
        // Per-cell energy in the ~100 fJ regime.
        let per_cell_fj = e16 / 16.0 * 1e15;
        assert!(
            (10.0..500.0).contains(&per_cell_fj),
            "{per_cell_fj} fJ/cell"
        );
    }

    #[test]
    fn oversized_blocks_are_rejected() {
        let mut x = xbar(Mode::Ann);
        let too_many_rows = vec![vec![0.0]; 129];
        assert!(matches!(
            x.program(&too_many_rows, 1.0),
            Err(CrossbarError::DimensionMismatch { .. })
        ));
        let ragged = vec![vec![0.0, 0.0], vec![0.0]];
        assert!(x.program(&ragged, 1.0).is_err());
        assert!(x.program(&[vec![0.0]], 0.0).is_err());
    }

    #[test]
    fn wrong_input_length_is_rejected() {
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0], vec![1.0]], 1.0).unwrap();
        assert!(matches!(
            x.dot_reference(&[1.0]),
            Err(CrossbarError::InputLengthMismatch {
                len: 1,
                expected: 2
            })
        ));
        assert_eq!(
            x.accumulated_read_energy(),
            Joules::ZERO,
            "a rejected drive evaluates nothing"
        );
    }

    #[test]
    fn utilization_reflects_programmed_block() {
        let mut x = xbar(Mode::Ann);
        // VGG layer 1 on a 128×128 crossbar: 27×64 (paper's example of
        // poor utilization).
        x.program(&vec![vec![0.1; 64]; 27], 1.0).unwrap();
        let u = x.utilization();
        assert!((u - (27.0 * 64.0) / (128.0 * 128.0)).abs() < 1e-12);
        assert!(u < 0.11);
    }

    #[test]
    fn cached_dot_matches_reference_under_faults_and_aging() {
        use nebula_device::fault::FaultClass;
        let model = FaultModel::none()
            .with_class_rate(FaultClass::StuckAtGmin, 0.03)
            .with_class_rate(FaultClass::DwPinning, 0.03)
            .with_class_rate(FaultClass::RetentionDrift, 0.03);
        let mut x = xbar(Mode::Ann);
        x.program(&vec![vec![0.4; 16]; 16], 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        x.inject_faults(&model, &mut rng);
        x.set_cell_fault(3, 5, CellFault::StuckAtGmax);
        x.advance_age(Seconds(30.0));
        let inputs: Vec<f64> = (0..16)
            .map(|i| if i % 3 == 0 { 0.0 } else { 0.1 * i as f64 })
            .collect();
        let mut reference = x.clone();
        let fast = prepared_dot(&mut x, &inputs);
        let expect = reference.dot_reference(&inputs).unwrap();
        assert_eq!(fast, expect, "cached outputs must be bit-identical");
        // Both sum each driven row's conductances, then its current.
        assert_eq!(
            x.accumulated_read_energy().0.to_bits(),
            reference.accumulated_read_energy().0.to_bits(),
            "cached energy must be bit-identical"
        );
    }

    type Mutator = fn(&mut AtomicCrossbar);

    #[test]
    fn cache_is_invalidated_by_every_state_mutation() {
        let inputs = [1.0, 1.0];
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0, -1.0], vec![0.5, 0.5]], 1.0).unwrap();
        // Prime the cache before each mutation, then check that the
        // next `prepare()` re-resolves instead of serving stale
        // conductances.
        let mutations: [(&str, Mutator); 9] = [
            ("set_cell_fault", |x| {
                x.set_cell_fault(0, 0, CellFault::StuckAtGmin)
            }),
            ("set_cell_fault drift", |x| {
                x.set_cell_fault(1, 1, CellFault::RetentionDrift { rate_per_s: 0.05 })
            }),
            ("advance_age", |x| x.advance_age(Seconds(10.0))),
            ("fail_row", |x| x.fail_row(1, CellFault::StuckAtGmax)),
            ("kill", AtomicCrossbar::kill),
            ("revive", AtomicCrossbar::revive),
            ("clear_faults", AtomicCrossbar::clear_faults),
            ("reprogram", |x| {
                x.program(&[vec![0.25, 0.25], vec![0.25, 0.25]], 1.0)
                    .unwrap()
            }),
            ("inject_faults", |x| {
                let model = nebula_device::fault::FaultModel::single(
                    nebula_device::fault::FaultClass::StuckAtGmax,
                    0.5,
                );
                x.inject_faults(&model, &mut rand::rngs::StdRng::seed_from_u64(3));
            }),
        ];
        for (name, mutate) in mutations {
            prepared_dot(&mut x, &inputs);
            mutate(&mut x);
            assert_eq!(
                prepared_dot(&mut x.clone(), &inputs),
                oracle(&x, &inputs),
                "stale cache after {name}"
            );
        }
        prepared_dot(&mut x, &inputs);
        x.kill();
        assert!(prepared_dot(&mut x, &inputs).iter().all(|i| i.0 == 0.0));
        x.reset();
        assert_eq!(x.rows_used(), 0);
        assert_eq!(prepared_dot(&mut x, &[]), Vec::<Amps>::new());
        assert_eq!(oracle(&x, &[]), Vec::<Amps>::new());
    }

    #[test]
    fn spike_rows_match_dense_binary_oracle_exactly() {
        let mut x = xbar(Mode::Snn);
        x.program(&vec![vec![0.7, -0.3, 0.1]; 8], 1.0).unwrap();
        x.set_cell_fault(4, 1, CellFault::DwPinning { offset_states: 3 });
        let active = [1usize, 4, 5, 7];
        let mut dense_drive = vec![0.0f64; 8];
        for &r in &active {
            dense_drive[r] = 1.0;
        }
        let mut reference = x.clone();
        let expect = reference.dot_reference(&dense_drive).unwrap();
        let e_ref = reference.accumulated_read_energy().0;
        let mut y = x.clone();
        y.prepare();
        let mut acc = vec![0.0f64; kernel::padded_len(3)];
        let current = y.spike_rows().unwrap().add_rows(&active, 0, &mut acc, 0.0);
        y.accrue_read(current);
        let got: Vec<Amps> = acc[..3].iter().copied().map(Amps).collect();
        assert_eq!(got, expect, "spike rows must match the oracle bitwise");
        let e = y.accumulated_read_energy().0;
        assert_eq!(e.to_bits(), e_ref.to_bits(), "{e} vs {e_ref}");
        // A dead array has no spike rows: it drives and draws nothing.
        y.kill();
        y.prepare();
        assert!(y.spike_rows().is_none());
    }

    #[test]
    fn stuck_cells_override_programming() {
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0, 1.0], vec![1.0, 1.0]], 1.0).unwrap();
        x.set_cell_fault(0, 0, CellFault::StuckAtGmin);
        x.set_cell_fault(1, 1, CellFault::StuckAtGmax);
        // Stuck-at-Gmin reads as -clip, stuck-at-Gmax as +clip.
        assert!((x.effective_weight(0, 0) + 1.0).abs() < 1e-9);
        assert!((x.effective_weight(1, 1) - 1.0).abs() < 1e-9);
        assert!(
            (x.effective_weight(0, 1) - 1.0).abs() < 1e-9,
            "healthy cell untouched"
        );
        let out = as_values(&x, &oracle(&x, &[1.0, 1.0]));
        // Column 0: -1 + 1 = 0; column 1: 1 + 1 = 2.
        assert!(out[0].abs() < 0.01, "col0 {out:?}");
        assert!((out[1] - 2.0).abs() < 0.01, "col1 {out:?}");
        // Reprogramming does not clear hard faults.
        x.program(&[vec![0.5, 0.5], vec![0.5, 0.5]], 1.0).unwrap();
        assert!((x.effective_weight(0, 0) + 1.0).abs() < 1e-9);
        assert_eq!(x.faulty_cells(), 2);
    }

    #[test]
    fn failed_row_faults_every_cell_in_the_row() {
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0, 1.0], vec![1.0, 1.0]], 1.0).unwrap();
        x.fail_row(0, CellFault::StuckAtGmin);
        assert_eq!(x.faulty_cells(), x.m());
        let out = as_values(&x, &oracle(&x, &[1.0, 1.0]));
        // Row 0 contributes -1 per column; row 1 contributes +1.
        assert!(out[0].abs() < 0.01 && out[1].abs() < 0.01, "{out:?}");
    }

    #[test]
    fn retention_drift_relaxes_with_age_and_resets_on_program() {
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0]], 1.0).unwrap();
        x.set_cell_fault(0, 0, CellFault::RetentionDrift { rate_per_s: 0.1 });
        let fresh = x.effective_weight(0, 0);
        assert!((fresh - 1.0).abs() < 1e-9, "no age, no drift: {fresh}");
        x.advance_age(Seconds(20.0));
        let aged = x.effective_weight(0, 0);
        assert!(aged < fresh && aged > 0.0, "drift toward zero: {aged}");
        // Reprogramming re-seats the wall: age (and drift) restart.
        x.program(&[vec![1.0]], 1.0).unwrap();
        assert_eq!(x.age(), Seconds(0.0));
        assert!((x.effective_weight(0, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_fault_injection_is_deterministic() {
        let model = nebula_device::fault::FaultModel::none()
            .with_class_rate(nebula_device::fault::FaultClass::StuckAtGmin, 0.05)
            .with_class_rate(nebula_device::fault::FaultClass::DwPinning, 0.05);
        let run = |seed: u64| {
            let mut x = xbar(Mode::Ann);
            x.program(&vec![vec![0.5; 8]; 8], 1.0).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = x.inject_faults(&model, &mut rng);
            let out = x.dot_reference(&[1.0; 8]).unwrap();
            (n, out)
        };
        assert_eq!(run(42), run(42));
        let (n, _) = run(42);
        // 10% of 128×128 cells ≈ 1638; allow generous MC slack.
        assert!((1300..2000).contains(&n), "faulty cells: {n}");
    }

    #[test]
    fn killed_array_outputs_zero_and_draws_no_energy() {
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0, -1.0], vec![0.5, 0.5]], 1.0).unwrap();
        x.kill();
        assert!(x.is_dead());
        let out = x.dot_reference(&[1.0, 1.0]).unwrap();
        assert!(out.iter().all(|i| i.0 == 0.0), "dead array must be silent");
        assert_eq!(x.accumulated_read_energy(), Joules::ZERO);
        assert_eq!(x.effective_weight(0, 0), 0.0);
        // Revival restores the programmed weights.
        x.revive();
        let out = as_values(&x, &oracle(&x, &[1.0, 1.0]));
        assert!((out[0] - 1.5).abs() < 0.05, "{out:?}");
    }

    #[test]
    fn fault_free_injection_is_a_noop() {
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0]], 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let clean = x.clone();
        let n = x.inject_faults(&nebula_device::fault::FaultModel::none(), &mut rng);
        assert_eq!(n, 0);
        assert_eq!(x.faulty_cells(), 0);
        assert_eq!(oracle(&x, &[1.0]), oracle(&clean, &[1.0]));
    }

    #[test]
    fn snn_binary_inputs_compute_popcount_style_sums() {
        let mut x = xbar(Mode::Snn);
        x.program(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]], 1.0)
            .unwrap();
        let spikes = [1.0, 0.0, 1.0, 1.0];
        let currents = x.dot_reference(&spikes).unwrap();
        let out = as_values(&x, &currents);
        assert!((out[0] - 3.0).abs() < 0.01, "expected ≈3 got {}", out[0]);
    }
}
