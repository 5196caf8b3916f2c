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
use crate::kernel::{self, KernelPath, VectorLayout};
use nebula_device::fault::{CellFault, ConductanceEnvelope, FaultModel};
use nebula_device::synapse::DwMtjSynapse;
use nebula_device::units::{Amps, Joules, Seconds, Volts};
use nebula_device::variation::VariationModel;
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
/// let currents = xbar.dot(&[1.0, 1.0])?;
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
    evaluations: u64,
    /// Per-cell hard faults (row-major, `m × m`); empty when the array
    /// is fault-free, so the clean hot path pays nothing.
    faults: Vec<Option<CellFault>>,
    /// Seconds since the last programming event (drives retention
    /// drift).
    age: Seconds,
    /// Power-gated whole-array kill switch: a dead array contributes
    /// zero differential current and draws no read energy.
    dead: bool,
    /// Lazily rebuilt fault/age-resolved effective conductances for the
    /// programmed block. `None` means dirty: every state mutation
    /// (program, reset, fault injection, aging, kill/revive) invalidates
    /// it, and the next noise-free evaluation rebuilds it once instead
    /// of re-resolving faults per cell per evaluation.
    eff_cache: Option<EffCache>,
    /// Which inner-loop kernel the prepared evaluators dispatch to.
    /// Switching paths does not invalidate the cache: the next
    /// `prepare()`/`ensure_cache` materializes the missing layout
    /// alongside the ones already built.
    kernel: KernelPath,
}

/// The prepared evaluation cache: one lazily built layout per
/// [`KernelPath`]. State mutations drop the whole cache (`eff_cache =
/// None`); within a clean cache, each layout is built the first time its
/// kernel path needs it and kept thereafter, so path switches re-prepare
/// at most once per layout instead of discarding the others.
#[derive(Debug, Clone, Default)]
struct EffCache {
    /// Fault/age-resolved effective conductances, row-major
    /// `rows_used × cols_used` — exactly what the legacy per-cell loop
    /// would compute, consumed by [`KernelPath::Scalar`].
    scalar: Option<Vec<f64>>,
    /// The column-lane layout consumed by [`KernelPath::Vectorized`]
    /// (and by a spilled [`KernelPath::Quantized`]).
    vector: Option<VectorLayout>,
    /// The bit-packed palette layout consumed by
    /// [`KernelPath::Quantized`].
    quant: Option<QuantLayout>,
}

impl EffCache {
    /// Evaluates a dense drive through the differential layout
    /// ([`kernel::gemv`]) — the Vectorized path and the evaluation of a
    /// spilled quantized layout.
    fn gemv(&self, inputs: &[f64], v_read: f64, diff: &mut [f64]) -> f64 {
        kernel::gemv(
            inputs,
            v_read,
            self.vector.as_ref().expect(PREPARE_MSG),
            diff,
        )
    }
}

/// Bit-packed 4-bit layout ([`KernelPath::Quantized`]): either the
/// nibble-packed palette form, or a marker that the array's
/// fault-resolved conductances would not fit a [`kernel::PALETTE`]-entry
/// palette and evaluation goes through the vectorized layout instead.
#[derive(Debug, Clone)]
enum QuantLayout {
    /// Boxed so the un-prepared / spilled states don't carry the full
    /// inline struct around in the per-array cache slot.
    Packed(Box<QuantPacked>),
    /// More than [`kernel::PALETTE`] distinct fault-resolved
    /// conductances (per-cell TMR factors, drift mixing on/off-grid
    /// values): evaluate through [`VectorLayout`]. Outputs are bitwise
    /// identical either way; energy is per-row-sum on both.
    Spill,
}

/// Panic message of every `*_prepared` evaluator whose layout is
/// missing: either `prepare()` never ran, or the kernel path was
/// switched after it (a `&mut` operation, so it cannot race the
/// `&self` evaluators) without re-preparing.
const PREPARE_MSG: &str = "prepare() must run before a *_prepared evaluation";

/// Pair table of a packed layout without cells (an unprogrammed AC never
/// builds its 4 KiB table); no row of such a layout is ever driven.
static EMPTY_PAIRS: [[f64; 2]; 256] = [[0.0; 2]; 256];

#[derive(Debug, Clone)]
struct QuantPacked {
    /// Palette indices packed two per byte (`kernel::pack_nibbles`
    /// layout), row-major with stride [`QuantPacked::stride`].
    packed: Vec<u8>,
    /// Bytes per packed row: `kernel::packed_row_len(cols_used)`.
    stride: usize,
    /// Distinct fault/age-resolved conductances, in first-seen
    /// (row-major cell) order; ≤ [`kernel::PALETTE`] entries.
    pal_g: Vec<f64>,
    /// `pal_g[s] − g_mid`, the same subtraction the scalar loop performs
    /// per cell visit, done once per palette entry here.
    pal_dg: Vec<f64>,
    /// `v_read · pal_dg[s]` for the binary spike drive (`x = 1`), padded
    /// with zeros to [`kernel::PALETTE`]; the constant-voltage sparse
    /// path gathers from this without any per-row multiply.
    vdg_spike: [f64; kernel::PALETTE],
    /// Byte-pair expansion of `vdg_spike`: entry `b` holds
    /// `[vdg_spike[b & 15], vdg_spike[b >> 4]]`, so the spike gather
    /// loads one aligned 16-byte pair per packed byte with no nibble
    /// arithmetic. 4 KiB per AC, built once per prepare.
    pair_spike: Vec<[f64; 2]>,
    /// Per-row conductance sums, identical bits to
    /// [`VectorLayout::row_sum`] (same values, same column-ascending
    /// order) — the per-row-sum energy formulation.
    row_sum: Vec<f64>,
}

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
            evaluations: 0,
            faults: Vec::new(),
            age: Seconds(0.0),
            dead: false,
            eff_cache: None,
            kernel: KernelPath::from_env(),
            config,
        })
    }

    /// Selects the inner-loop kernel the noise-free evaluators run
    /// through (default [`KernelPath::Vectorized`], overridable
    /// process-wide via `NEBULA_KERNEL_PATH` — see
    /// [`KernelPath::from_env`]). Differential outputs are bit-identical
    /// on every path; only the energy term's association differs (see
    /// [`KernelPath`]). Does not invalidate the prepared cache — the
    /// next `prepare()` builds the newly selected layout if it is not
    /// materialized yet and keeps the others.
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        self.kernel = path;
    }

    /// The currently selected inner-loop kernel.
    pub fn kernel_path(&self) -> KernelPath {
        self.kernel
    }

    /// Scratch width the `*_prepared` evaluators require: `cols_used`
    /// rounded up to a lane multiple (the vectorized kernel writes the
    /// zero-padded tail lanes).
    pub(crate) fn padded_cols(&self) -> usize {
        kernel::padded_len(self.cols_used)
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
        let probe = DwMtjSynapse::new(&self.config.device);
        let per_cell = {
            let i = self.config.device.full_scale_current();
            (i * self.config.device.heavy_metal_resistance() * i)
                * self.config.device.switching_time()
        };
        let _ = probe;
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

    /// Evaluates one analog dot-product cycle: drives `inputs` (per-row
    /// activations normalized to `[0, 1]` of the mode's read voltage,
    /// binary for SNN) and returns the *differential* column currents
    /// `I_j − I_ref`, proportional to `Σ_i v_i·w_ij`.
    ///
    /// Read energy is accrued from the total (non-differential) current
    /// actually flowing through the array for one pipeline cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] when
    /// `inputs.len() != rows_used`.
    pub fn dot(&mut self, inputs: &[f64]) -> Result<Vec<Amps>, CrossbarError> {
        if inputs.len() != self.rows_used {
            return Err(CrossbarError::InputLengthMismatch {
                len: inputs.len(),
                expected: self.rows_used,
            });
        }
        Ok(self.dot_unchecked(inputs))
    }

    /// [`dot`](Self::dot) without the input-length check, for callers
    /// (e.g. [`SuperTile`](crate::tile::SuperTile)) that already proved
    /// the whole drive vector valid up front.
    pub(crate) fn dot_unchecked(&mut self, inputs: &[f64]) -> Vec<Amps> {
        let mut diff = vec![0.0f64; self.padded_cols()];
        self.dot_unchecked_into(inputs, &mut diff);
        diff.truncate(self.cols_used);
        diff.into_iter().map(Amps).collect()
    }

    /// Allocation-free [`dot_unchecked`](Self::dot_unchecked): evaluates
    /// into the caller's scratch slice (length ≥
    /// [`padded_cols`](Self::padded_cols); zeroed here, so it can be
    /// reused dirty across calls) and accrues read energy. The
    /// differential currents land in `diff[..cols_used]` in amps. This is
    /// the per-timestep entry [`SuperTile`](crate::tile::SuperTile) drives
    /// with one block-reused buffer instead of a fresh `Vec` per call.
    pub(crate) fn dot_unchecked_into(&mut self, inputs: &[f64], diff: &mut [f64]) {
        debug_assert_eq!(inputs.len(), self.rows_used);
        let scratch = &mut diff[..self.padded_cols()];
        scratch.fill(0.0);
        let total_current = self.eval_cached(inputs, scratch);
        self.accrue_read(total_current, 1);
    }

    /// Like [`dot`](Self::dot) but evaluated through the legacy per-cell
    /// loop that re-resolves faults on every access instead of the
    /// effective-conductance cache. Bit-identical to `dot` by
    /// construction; kept public as the reference implementation for
    /// equivalence tests and the `bench_hotpath` sequential leg.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] when
    /// `inputs.len() != rows_used`.
    pub fn dot_reference(&mut self, inputs: &[f64]) -> Result<Vec<Amps>, CrossbarError> {
        // The noise source is passed as a trait object on purpose: the
        // pre-cache implementation dispatched `sample` through `&mut dyn
        // NoiseSource` on every cell, and this leg reproduces that
        // baseline faithfully (the values are identical either way).
        self.dot_noisy(inputs, &mut NoNoise as &mut dyn NoiseSource)
    }

    /// Like [`dot`](Self::dot) but sampling multiplicative read noise
    /// (`config.read_noise_sigma`) from `rng` per cell access.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] when
    /// `inputs.len() != rows_used`.
    pub fn dot_with_noise<R: Rng + ?Sized>(
        &mut self,
        inputs: &[f64],
        rng: &mut R,
    ) -> Result<Vec<Amps>, CrossbarError> {
        let model = VariationModel::new(self.config.read_noise_sigma);
        let mut sampler = RngNoise { model, rng };
        self.dot_noisy(inputs, &mut sampler)
    }

    fn dot_noisy<N: NoiseSource + ?Sized>(
        &mut self,
        inputs: &[f64],
        noise: &mut N,
    ) -> Result<Vec<Amps>, CrossbarError> {
        if inputs.len() != self.rows_used {
            return Err(CrossbarError::InputLengthMismatch {
                len: inputs.len(),
                expected: self.rows_used,
            });
        }
        let mut diff = vec![0.0f64; self.cols_used];
        let total_current = self.eval_currents(inputs, noise, &mut diff);
        self.accrue_read(total_current, 1);
        Ok(diff.into_iter().map(Amps).collect())
    }

    /// Per-cell effective conductance under faults: the programmed (and
    /// possibly noise-perturbed) value transformed by the cell's fault.
    fn fault_adjust(&self, idx: usize, g: f64) -> f64 {
        match self.faults[idx] {
            Some(fault) => fault.apply(g, &self.envelope(), self.age),
            None => g,
        }
    }

    /// The fault/age-resolved effective conductance of cell `(r, j)` —
    /// exactly the value the legacy per-cell loop computes per visit.
    fn resolved_g(&self, r: usize, j: usize, faulty: bool) -> f64 {
        let idx = r * self.m() + j;
        let g = self.conductance[idx];
        if faulty {
            self.fault_adjust(idx, g)
        } else {
            g
        }
    }

    /// Rebuilds the effective-conductance cache layout(s) the current
    /// kernel path needs, if a state mutation marked the cache dirty or
    /// the path was switched to one whose layout is not materialized
    /// yet. Each cached value is exactly what the legacy loop would
    /// compute (fault- and age-resolved programmed conductance), so
    /// cached evaluations are bit-identical by construction; the
    /// differential layouts store the same `g_eff − g_mid` the scalar
    /// loop computes per visit, pre-subtracted once here (per cell for
    /// the vectorized layout, per palette entry for the quantized one).
    fn ensure_cache(&mut self) {
        if self.eff_cache.is_none() {
            self.eff_cache = Some(EffCache::default());
        }
        let have = |c: &EffCache| match self.kernel {
            KernelPath::Scalar => c.scalar.is_some(),
            // Auto evaluates every drive through the differential layout.
            KernelPath::Vectorized | KernelPath::Auto => c.vector.is_some(),
            KernelPath::Quantized => c.quant.is_some(),
        };
        if !have(self.eff_cache.as_ref().unwrap()) {
            match self.kernel {
                KernelPath::Scalar => {
                    let eff = self.build_scalar();
                    self.eff_cache.as_mut().unwrap().scalar = Some(eff);
                }
                KernelPath::Vectorized | KernelPath::Auto => {
                    let vector = self.build_vector();
                    self.eff_cache.as_mut().unwrap().vector = Some(vector);
                }
                KernelPath::Quantized => {
                    let quant = self.build_quant();
                    self.eff_cache.as_mut().unwrap().quant = Some(quant);
                }
            }
        }
        // A spilled quantized layout evaluates through the vectorized
        // one, which must then exist too.
        let cache = self.eff_cache.as_ref().unwrap();
        if self.kernel == KernelPath::Quantized
            && matches!(cache.quant, Some(QuantLayout::Spill))
            && cache.vector.is_none()
        {
            let vector = self.build_vector();
            self.eff_cache.as_mut().unwrap().vector = Some(vector);
        }
    }

    /// Scalar layout: the resolved conductances, row-major over the
    /// programmed block.
    fn build_scalar(&self) -> Vec<f64> {
        let faulty = !self.faults.is_empty();
        let cols = self.cols_used;
        let mut eff = Vec::with_capacity(self.rows_used * cols);
        for r in 0..self.rows_used {
            for j in 0..cols {
                eff.push(self.resolved_g(r, j, faulty));
            }
        }
        eff
    }

    /// Vectorized layout: lane-padded differential conductances plus
    /// per-row sums.
    fn build_vector(&self) -> VectorLayout {
        let faulty = !self.faults.is_empty();
        let cols = self.cols_used;
        let padded_cols = kernel::padded_len(cols);
        let g_mid = self.g_mid();
        let mut dg = vec![0.0f64; self.rows_used * padded_cols];
        let mut row_sum = Vec::with_capacity(self.rows_used);
        for r in 0..self.rows_used {
            let mut sum = 0.0f64;
            for j in 0..cols {
                let g = self.resolved_g(r, j, faulty);
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

    /// Quantized layout: deduplicates the resolved conductances into a
    /// first-seen palette and packs per-cell indices two per byte.
    /// Returns [`QuantLayout::Spill`] when the block holds more than
    /// [`kernel::PALETTE`] distinct values (only possible under faults
    /// whose resolved values leave the 16-state device grid, e.g.
    /// per-cell TMR factors).
    fn build_quant(&self) -> QuantLayout {
        let faulty = !self.faults.is_empty();
        let cols = self.cols_used;
        let stride = kernel::packed_row_len(cols);
        let g_mid = self.g_mid();
        let mut pal_g: Vec<f64> = Vec::with_capacity(kernel::PALETTE);
        let mut packed = vec![0u8; self.rows_used * stride];
        let mut row_sum = Vec::with_capacity(self.rows_used);
        for r in 0..self.rows_used {
            let mut sum = 0.0f64;
            for j in 0..cols {
                let g = self.resolved_g(r, j, faulty);
                // Bit-level matching: equal inputs through identical ops
                // yield identical bits, and conductances are never NaN.
                let idx = match pal_g.iter().position(|p| p.to_bits() == g.to_bits()) {
                    Some(idx) => idx,
                    None => {
                        if pal_g.len() == kernel::PALETTE {
                            return QuantLayout::Spill;
                        }
                        pal_g.push(g);
                        pal_g.len() - 1
                    }
                };
                packed[r * stride + j / 2] |= (idx as u8) << ((j % 2) * 4);
                sum += g;
            }
            row_sum.push(sum);
        }
        let pal_dg: Vec<f64> = pal_g.iter().map(|&g| g - g_mid).collect();
        let v_read = self.config.mode.read_voltage().0;
        let mut vdg_spike = [0.0f64; kernel::PALETTE];
        for (slot, &dg) in vdg_spike.iter_mut().zip(pal_dg.iter()) {
            *slot = v_read * dg;
        }
        // Only arrays that actually hold cells pay for the 4 KiB pair
        // table (a super-tile's unprogrammed ACs would otherwise dwarf
        // the packed footprint).
        let pair_spike = if packed.is_empty() {
            Vec::new()
        } else {
            (0..256)
                .map(|b| [vdg_spike[b & 0x0F], vdg_spike[b >> 4]])
                .collect()
        };
        QuantLayout::Packed(Box::new(QuantPacked {
            packed,
            stride,
            pal_g,
            pal_dg,
            vdg_spike,
            pair_spike,
            row_sum,
        }))
    }

    /// Bytes the cache layout backing the *current* kernel path occupies
    /// (0 while the cache is dirty or unbuilt): the quantity
    /// `bench_hotpath` reports as the conductance-cache footprint. A
    /// spilled quantized layout is charged the vectorized bytes it
    /// actually evaluates through; [`KernelPath::Auto`] holds only the
    /// vectorized layout, so it is charged exactly those bytes.
    pub fn kernel_cache_bytes(&self) -> usize {
        let Some(cache) = &self.eff_cache else {
            return 0;
        };
        let f64s = std::mem::size_of::<f64>();
        let vector_bytes = |v: &Option<VectorLayout>| {
            v.as_ref()
                .map_or(0, |v| (v.dg.len() + v.row_sum.len()) * f64s)
        };
        let quant_bytes = |c: &EffCache| match &c.quant {
            Some(QuantLayout::Packed(q)) => {
                q.packed.len()
                    + (q.pal_g.len()
                        + q.pal_dg.len()
                        + q.vdg_spike.len()
                        + 2 * q.pair_spike.len()
                        + q.row_sum.len())
                        * f64s
            }
            Some(QuantLayout::Spill) => vector_bytes(&c.vector),
            None => 0,
        };
        match self.kernel {
            KernelPath::Scalar => cache.scalar.as_ref().map_or(0, |eff| eff.len() * f64s),
            KernelPath::Vectorized | KernelPath::Auto => vector_bytes(&cache.vector),
            KernelPath::Quantized => quant_bytes(cache),
        }
    }

    /// Whether the prepared quantized layout packed into nibbles
    /// (`Some(true)`), spilled to the vectorized layout (`Some(false)`),
    /// or has not been built (`None`). Test/bench introspection.
    pub fn quantized_is_packed(&self) -> Option<bool> {
        match &self.eff_cache.as_ref()?.quant {
            Some(QuantLayout::Packed(_)) => Some(true),
            Some(QuantLayout::Spill) => Some(false),
            None => None,
        }
    }

    /// Rebuilds the conductance cache if dirty, so that the `&self`
    /// `*_prepared` evaluators can run (e.g. from parallel workers that
    /// share the array immutably).
    pub(crate) fn prepare(&mut self) {
        self.ensure_cache();
    }

    /// Noise-free evaluation over the effective-conductance cache:
    /// accumulates differential column currents into `diff` (len
    /// `cols_used`) and returns the total (non-differential) current
    /// drawn. Cell visit order matches the legacy loop exactly
    /// (row-ascending, column-ascending, silent rows skipped), so every
    /// floating-point operation happens in the same sequence.
    fn eval_cached(&mut self, inputs: &[f64], diff: &mut [f64]) -> f64 {
        // A power-gated (dead) array drives nothing and draws nothing.
        if self.dead {
            return 0.0;
        }
        self.ensure_cache();
        self.eval_dense_prepared(inputs, diff)
    }

    /// The concrete layout every evaluation dispatches to:
    /// [`KernelPath::Auto`] resolves to the vectorized layout; explicit
    /// paths resolve to themselves.
    fn effective_path(&self) -> KernelPath {
        match self.kernel {
            KernelPath::Auto => KernelPath::Vectorized,
            p => p,
        }
    }

    /// The prepared cache's rows as a binary spike drive at the mode's
    /// read voltage sees them (see [`kernel::SpikeRows`]), in the layout
    /// the current kernel path evaluates through; `None` for a dead
    /// array, which drives and draws nothing.
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
        let v = self.config.mode.read_voltage().0;
        let vector =
            || kernel::SpikeRows::differential(v, cache.vector.as_ref().expect(PREPARE_MSG));
        Some(match self.effective_path() {
            KernelPath::Scalar => kernel::SpikeRows::scalar(
                v,
                cache.scalar.as_ref().expect(PREPARE_MSG),
                self.cols_used,
                self.g_mid(),
            ),
            KernelPath::Quantized => match cache.quant.as_ref().expect(PREPARE_MSG) {
                QuantLayout::Packed(q) => kernel::SpikeRows::quantized(
                    v,
                    &q.packed,
                    q.stride,
                    self.cols_used,
                    q.pair_spike.as_slice().try_into().unwrap_or(&EMPTY_PAIRS),
                    &q.row_sum,
                ),
                QuantLayout::Spill => vector(),
            },
            _ => vector(),
        })
    }

    /// `&self` core of [`eval_cached`](Self::eval_cached), for callers
    /// that already ran [`prepare`](Self::prepare) — parallel batch
    /// workers evaluate through this without mutating the array; energy
    /// is accrued afterwards by the owner via
    /// [`accrue_read`](Self::accrue_read). `diff` must be at least
    /// [`padded_cols`](Self::padded_cols) long; the vectorized kernel
    /// writes (zero) into the padding tail, and only `diff[..cols_used]`
    /// is meaningful.
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
        let v_read = self.config.mode.read_voltage().0;
        match self.effective_path() {
            KernelPath::Scalar => {
                let eff = cache.scalar.as_ref().expect(PREPARE_MSG);
                let g_mid = self.g_mid();
                let cols = self.cols_used;
                let mut total_current = 0.0f64;
                for (r, &x) in inputs.iter().enumerate() {
                    if x == 0.0 {
                        continue; // event-driven: silent rows draw no read current
                    }
                    let v = v_read * x;
                    let row = &eff[r * cols..(r + 1) * cols];
                    for (j, &g) in row.iter().enumerate() {
                        diff[j] += v * (g - g_mid);
                        total_current += v * g;
                    }
                }
                total_current
            }
            KernelPath::Vectorized => cache.gemv(inputs, v_read, diff),
            KernelPath::Quantized => match cache.quant.as_ref().expect(PREPARE_MSG) {
                QuantLayout::Packed(q) => {
                    let cols = self.cols_used;
                    let mut vdg = [0.0f64; kernel::PALETTE];
                    let mut total_current = 0.0f64;
                    for (r, &x) in inputs.iter().enumerate() {
                        if x == 0.0 {
                            continue;
                        }
                        let v = v_read * x;
                        total_current += v * q.row_sum[r];
                        // Per-drive LUT: v · (g_s − g_mid) — the same
                        // multiply, on the same operands, the scalar
                        // loop performs per cell visit.
                        for (slot, &dg) in vdg.iter_mut().zip(q.pal_dg.iter()) {
                            *slot = v * dg;
                        }
                        kernel::gather_add(&vdg, &q.packed[r * q.stride..], cols, diff);
                    }
                    total_current
                }
                QuantLayout::Spill => cache.gemv(inputs, v_read, diff),
            },
            KernelPath::Auto => unreachable!("Auto resolves to the vectorized layout"),
        }
    }

    /// Spike-sparse twin of [`eval_cached`](Self::eval_cached): every row
    /// in `active_rows` is driven at full read voltage (binary spike
    /// input `x = 1.0`, so `v_read * x == v_read` bitwise), rows not
    /// listed are silent. The rows are added one by one, ascending,
    /// through the same [`kernel::SpikeRows`] view the batched SNN
    /// scatter uses, which reproduces the dense loop's skip order
    /// exactly. `base` is subtracted from every index, so a super-tile
    /// can pass sub-slices of a whole-receptive-field row list without
    /// rebasing (and re-allocating) them first.
    fn eval_cached_sparse(&mut self, active_rows: &[usize], base: usize, diff: &mut [f64]) -> f64 {
        // A power-gated (dead) array drives nothing and draws nothing.
        if self.dead {
            return 0.0;
        }
        self.ensure_cache();
        let rows = self.spike_rows().expect("a live array has spike rows");
        active_rows
            .iter()
            .fold(0.0, |current, &r| rows.add_row(r - base, diff, current))
    }

    fn validate_active_rows(&self, active_rows: &[usize]) -> Result<(), CrossbarError> {
        let mut prev: Option<usize> = None;
        for &r in active_rows {
            if r >= self.rows_used || prev.is_some_and(|p| p >= r) {
                return Err(CrossbarError::InvalidActiveRows {
                    row: r,
                    rows: self.rows_used,
                });
            }
            prev = Some(r);
        }
        Ok(())
    }

    /// Spike-sparse evaluation: equivalent to [`dot`](Self::dot) driven
    /// with a binary vector whose ones sit at `active_rows` — identical
    /// outputs and identical energy accrual — without scanning silent
    /// rows. `active_rows` must be strictly ascending indices into the
    /// programmed rows.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidActiveRows`] when an index is out
    /// of range or the list is not strictly ascending.
    pub fn dot_sparse(&mut self, active_rows: &[usize]) -> Result<Vec<Amps>, CrossbarError> {
        self.validate_active_rows(active_rows)?;
        Ok(self.dot_sparse_unchecked(active_rows))
    }

    /// [`dot_sparse`](Self::dot_sparse) without validation, for callers
    /// that already proved the row list valid.
    pub(crate) fn dot_sparse_unchecked(&mut self, active_rows: &[usize]) -> Vec<Amps> {
        let mut diff = vec![0.0f64; self.padded_cols()];
        self.dot_sparse_unchecked_into(active_rows, 0, &mut diff);
        diff.truncate(self.cols_used);
        diff.into_iter().map(Amps).collect()
    }

    /// Spike-sparse twin of
    /// [`dot_unchecked_into`](Self::dot_unchecked_into): evaluates the
    /// active-row list (indices relative to `base`) into the caller's
    /// scratch slice and accrues read energy.
    pub(crate) fn dot_sparse_unchecked_into(
        &mut self,
        active_rows: &[usize],
        base: usize,
        diff: &mut [f64],
    ) {
        let scratch = &mut diff[..self.padded_cols()];
        scratch.fill(0.0);
        let total_current = self.eval_cached_sparse(active_rows, base, scratch);
        self.accrue_read(total_current, 1);
    }

    /// Evaluates a whole batch of input vectors in one call, amortizing
    /// the per-call bookkeeping: outputs and energy counters are
    /// **bit-identical** to calling [`dot`](Self::dot) on each item in
    /// turn — read energy is accrued per item in batch order, exactly as
    /// a sequence of `dot` calls would.
    ///
    /// Validation is all-or-nothing: if any item has the wrong length the
    /// call fails before any evaluation, and no energy is accrued.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] when any item's
    /// length differs from `rows_used`.
    pub fn dot_batch<S: AsRef<[f64]>>(
        &mut self,
        batch: &[S],
    ) -> Result<Vec<Vec<Amps>>, CrossbarError> {
        for item in batch {
            if item.as_ref().len() != self.rows_used {
                return Err(CrossbarError::InputLengthMismatch {
                    len: item.as_ref().len(),
                    expected: self.rows_used,
                });
            }
        }
        Ok(self.dot_batch_unchecked(batch))
    }

    /// [`dot_batch`](Self::dot_batch) without per-item validation.
    pub(crate) fn dot_batch_unchecked<S: AsRef<[f64]>>(&mut self, batch: &[S]) -> Vec<Vec<Amps>> {
        let mut out = Vec::with_capacity(batch.len());
        let mut diff = vec![0.0f64; self.padded_cols()];
        for item in batch {
            diff.fill(0.0);
            let total_current = self.eval_cached(item.as_ref(), &mut diff);
            self.accrue_read(total_current, 1);
            out.push(diff[..self.cols_used].iter().copied().map(Amps).collect());
        }
        out
    }

    /// Batched spike-sparse evaluation: one item per active-row list,
    /// bit-identical (outputs and energy) to calling
    /// [`dot_sparse`](Self::dot_sparse) on each item in turn.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidActiveRows`] when any item's list
    /// is out of range or not strictly ascending; validation is
    /// all-or-nothing.
    pub fn dot_batch_sparse<S: AsRef<[usize]>>(
        &mut self,
        batch: &[S],
    ) -> Result<Vec<Vec<Amps>>, CrossbarError> {
        for item in batch {
            self.validate_active_rows(item.as_ref())?;
        }
        Ok(self.dot_batch_sparse_unchecked(batch))
    }

    /// [`dot_batch_sparse`](Self::dot_batch_sparse) without validation.
    pub(crate) fn dot_batch_sparse_unchecked<S: AsRef<[usize]>>(
        &mut self,
        batch: &[S],
    ) -> Vec<Vec<Amps>> {
        let mut out = Vec::with_capacity(batch.len());
        let mut diff = vec![0.0f64; self.padded_cols()];
        for item in batch {
            diff.fill(0.0);
            let total_current = self.eval_cached_sparse(item.as_ref(), 0, &mut diff);
            self.accrue_read(total_current, 1);
            out.push(diff[..self.cols_used].iter().copied().map(Amps).collect());
        }
        out
    }

    /// Batched spike-sparse evaluation that accumulates straight into the
    /// caller's per-item running totals (Kirchhoff summation) instead of
    /// materializing a `Vec<Amps>` per item. Row indices are interpreted
    /// relative to `base`. Accumulation happens per item in batch order,
    /// column-ascending — the same floating-point sequence as summing the
    /// [`dot_batch_sparse`](Self::dot_batch_sparse) return values would
    /// produce, so results stay bit-identical.
    pub(crate) fn dot_batch_sparse_accumulate(
        &mut self,
        batch: &[&[usize]],
        base: usize,
        totals: &mut [Vec<Amps>],
    ) {
        let mut diff = vec![0.0f64; self.padded_cols()];
        for (item, rows) in batch.iter().enumerate() {
            diff.fill(0.0);
            let total_current = self.eval_cached_sparse(rows, base, &mut diff);
            self.accrue_read(total_current, 1);
            for (t, &d) in totals[item].iter_mut().zip(diff[..self.cols_used].iter()) {
                *t += Amps(d);
            }
        }
    }

    /// Dense twin of
    /// [`dot_batch_sparse_accumulate`](Self::dot_batch_sparse_accumulate):
    /// evaluates each item over the conductance cache and adds the
    /// differential currents into `totals[item]` in place.
    pub(crate) fn dot_batch_accumulate(&mut self, batch: &[&[f64]], totals: &mut [Vec<Amps>]) {
        let mut diff = vec![0.0f64; self.padded_cols()];
        for (item, inputs) in batch.iter().enumerate() {
            diff.fill(0.0);
            let total_current = self.eval_cached(inputs, &mut diff);
            self.accrue_read(total_current, 1);
            for (t, &d) in totals[item].iter_mut().zip(diff[..self.cols_used].iter()) {
                *t += Amps(d);
            }
        }
    }

    /// Legacy per-cell evaluation core, monomorphized over the noise
    /// source: accumulates differential column currents into `diff` (len
    /// `cols_used`) and returns the total (non-differential) current
    /// drawn. Does not touch the energy counters — callers accrue via
    /// [`accrue_read`](Self::accrue_read). The noisy path must stay on
    /// this loop (noise is sampled per cell access, so there is nothing
    /// to cache); the noise-free path uses it only as the reference
    /// implementation ([`dot_reference`](Self::dot_reference)).
    fn eval_currents<N: NoiseSource + ?Sized>(
        &self,
        inputs: &[f64],
        noise: &mut N,
        diff: &mut [f64],
    ) -> f64 {
        let m = self.m();
        let v_read = self.config.mode.read_voltage().0;
        let g_mid = self.g_mid();
        let cols = self.cols_used;
        let mut total_current = 0.0f64;
        // A power-gated (dead) array drives nothing and draws nothing;
        // still consume the noise stream? No — the array is off, so no
        // read events occur at all.
        if self.dead {
            return 0.0;
        }
        let faulty = !self.faults.is_empty();
        for (r, &x) in inputs.iter().enumerate() {
            if x == 0.0 {
                continue; // event-driven: silent rows draw no read current
            }
            let v = v_read * x;
            let row = &self.conductance[r * m..r * m + cols];
            for (j, &g) in row.iter().enumerate() {
                let mut g_eff = noise.sample(g);
                if faulty {
                    g_eff = self.fault_adjust(r * m + j, g_eff);
                }
                diff[j] += v * (g_eff - g_mid);
                total_current += v * g_eff;
            }
        }
        total_current
    }

    /// Accrues read energy for `evals` evaluations that together drew
    /// `total_current`: all active current flows for one pipeline cycle.
    pub(crate) fn accrue_read(&mut self, total_current: f64, evals: u64) {
        let v_read = self.config.mode.read_voltage().0;
        let cycle = self.config.device.switching_time();
        self.read_energy += (Volts(v_read) * Amps(total_current)) * cycle;
        self.evaluations += evals;
    }

    /// The differential current a full-scale single-row, full-weight
    /// product produces — the natural scale for interpreting
    /// [`dot`](Self::dot) outputs as numbers:
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

    /// Number of dot-product evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Duration of one evaluation cycle (the DW switching time).
    pub fn cycle_time(&self) -> Seconds {
        self.config.device.switching_time()
    }
}

/// Internal abstraction over "no noise" and "rng-sampled noise".
trait NoiseSource {
    fn sample(&mut self, g: f64) -> f64;
}

struct NoNoise;

impl NoiseSource for NoNoise {
    fn sample(&mut self, g: f64) -> f64 {
        g
    }
}

struct RngNoise<'a, R: Rng + ?Sized> {
    model: VariationModel,
    rng: &'a mut R,
}

impl<R: Rng + ?Sized> NoiseSource for RngNoise<'_, R> {
    fn sample(&mut self, g: f64) -> f64 {
        self.model.perturb(g, self.rng)
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
        let out = as_values(&x, &x.clone().dot(&inputs).unwrap());
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
        x.dot(&[0.0, 0.0]).unwrap();
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
        x.dot(&[1.0, 1.0]).unwrap();
        assert!(x.accumulated_read_energy().0 > 0.0);
        assert_eq!(x.evaluations(), 1);
    }

    #[test]
    fn snn_mode_uses_lower_voltage_hence_lower_energy() {
        let w = vec![vec![1.0; 8]; 8];
        let inputs = [1.0; 8];
        let mut ann = xbar(Mode::Ann);
        ann.program(&w, 1.0).unwrap();
        ann.dot(&inputs).unwrap();
        let mut snn = xbar(Mode::Snn);
        snn.program(&w, 1.0).unwrap();
        snn.dot(&inputs).unwrap();
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
            x.dot(&[1.0]),
            Err(CrossbarError::InputLengthMismatch {
                len: 1,
                expected: 2
            })
        ));
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
    fn read_noise_perturbs_but_tracks_ideal() {
        let mut cfg = CrossbarConfig::paper_default(Mode::Ann);
        cfg.read_noise_sigma = 0.10;
        let mut x = AtomicCrossbar::new(cfg).unwrap();
        let w = vec![vec![0.8; 4]; 4];
        x.program(&w, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ideal = as_values(&x, &x.clone().dot(&[1.0; 4]).unwrap());
        let noisy_currents = x.dot_with_noise(&[1.0; 4], &mut rng).unwrap();
        let noisy = as_values(&x, &noisy_currents);
        for (a, b) in ideal.iter().zip(&noisy) {
            assert!((a - b).abs() < 1.5, "noise blew up: {a} vs {b}");
            // Not all values should survive exactly (sigma=10%).
        }
        assert!(ideal.iter().zip(&noisy).any(|(a, b)| a != b));
    }

    #[test]
    fn dot_batch_matches_individual_dots_exactly() {
        let mut x = xbar(Mode::Ann);
        let w = vec![
            vec![0.5, -0.25, 1.0],
            vec![-1.0, 0.75, 0.0],
            vec![0.25, 0.5, -0.5],
        ];
        x.program(&w, 1.0).unwrap();
        let batch = vec![
            vec![1.0, 0.5, 0.25],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0], // all-silent item still counts as an evaluation
            vec![0.7, 0.0, 0.9],
        ];
        let mut seq = x.clone();
        let expected: Vec<Vec<Amps>> = batch.iter().map(|b| seq.dot(b).unwrap()).collect();
        let got = x.dot_batch(&batch).unwrap();
        assert_eq!(got, expected, "batch outputs must be bit-identical");
        assert_eq!(x.evaluations(), seq.evaluations());
        // Energy is accrued per item in batch order, so the counters
        // match the sequential path bit for bit.
        assert_eq!(x.accumulated_read_energy(), seq.accumulated_read_energy());
    }

    #[test]
    fn cached_dot_matches_reference_under_faults_and_aging() {
        use nebula_device::fault::{CellFault, FaultClass, FaultModel};
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
        let mut scalar = x.clone();
        scalar.set_kernel_path(KernelPath::Scalar);
        let fast = x.dot(&inputs).unwrap();
        let legacy = reference.dot_reference(&inputs).unwrap();
        let pinned = scalar.dot(&inputs).unwrap();
        assert_eq!(fast, legacy, "vectorized path must be bit-identical");
        assert_eq!(pinned, legacy, "scalar path must be bit-identical");
        // The scalar path reproduces the reference energy bitwise; the
        // vectorized path re-associates the total-current sum per row and
        // is held to the documented ≤ 1e-12 relative tolerance.
        assert_eq!(
            scalar.accumulated_read_energy(),
            reference.accumulated_read_energy()
        );
        let e_ref = reference.accumulated_read_energy().0;
        let e_vec = x.accumulated_read_energy().0;
        assert!(
            (e_vec - e_ref).abs() <= 1e-12 * e_ref.abs(),
            "vectorized energy {e_vec} vs reference {e_ref}"
        );
        assert_eq!(x.evaluations(), reference.evaluations());
    }

    #[test]
    fn cache_is_invalidated_by_every_state_mutation() {
        use nebula_device::fault::CellFault;
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0, -1.0], vec![0.5, 0.5]], 1.0).unwrap();
        let inputs = [1.0, 1.0];
        // Prime the cache, then mutate state and check the next eval
        // re-resolves instead of serving stale conductances.
        x.dot(&inputs).unwrap();
        x.set_cell_fault(0, 0, CellFault::StuckAtGmin);
        assert_eq!(
            x.clone().dot(&inputs).unwrap(),
            x.clone().dot_reference(&inputs).unwrap(),
            "stale cache after set_cell_fault"
        );
        x.dot(&inputs).unwrap();
        x.set_cell_fault(1, 1, CellFault::RetentionDrift { rate_per_s: 0.05 });
        x.dot(&inputs).unwrap();
        x.advance_age(Seconds(10.0));
        assert_eq!(
            x.clone().dot(&inputs).unwrap(),
            x.clone().dot_reference(&inputs).unwrap(),
            "stale cache after advance_age"
        );
        x.dot(&inputs).unwrap();
        x.kill();
        assert!(x.clone().dot(&inputs).unwrap().iter().all(|i| i.0 == 0.0));
        x.revive();
        assert_eq!(
            x.clone().dot(&inputs).unwrap(),
            x.clone().dot_reference(&inputs).unwrap(),
            "stale cache after kill/revive"
        );
        x.dot(&inputs).unwrap();
        x.clear_faults();
        assert_eq!(
            x.clone().dot(&inputs).unwrap(),
            x.clone().dot_reference(&inputs).unwrap(),
            "stale cache after clear_faults"
        );
        x.dot(&inputs).unwrap();
        x.program(&[vec![0.25, 0.25], vec![0.25, 0.25]], 1.0)
            .unwrap();
        assert_eq!(
            x.clone().dot(&inputs).unwrap(),
            x.clone().dot_reference(&inputs).unwrap(),
            "stale cache after reprogram"
        );
        x.dot(&inputs).unwrap();
        x.reset();
        assert_eq!(x.rows_used(), 0);
        assert_eq!(x.dot(&[]).unwrap(), Vec::<Amps>::new());
    }

    #[test]
    fn sparse_dot_matches_dense_binary_drive_exactly() {
        let mut x = xbar(Mode::Snn);
        x.program(&vec![vec![0.7, -0.3, 0.1]; 8], 1.0).unwrap();
        let active = [1usize, 4, 5, 7];
        let mut dense_drive = vec![0.0f64; 8];
        for &r in &active {
            dense_drive[r] = 1.0;
        }
        let mut dense = x.clone();
        let sparse_out = x.dot_sparse(&active).unwrap();
        let dense_out = dense.dot(&dense_drive).unwrap();
        assert_eq!(sparse_out, dense_out, "sparse must match dense bitwise");
        assert_eq!(x.accumulated_read_energy(), dense.accumulated_read_energy());
        assert_eq!(x.evaluations(), dense.evaluations());
        // Batched sparse matches a sequence of sparse dots.
        let batch = vec![vec![0usize, 2], vec![], vec![1, 4, 5, 7]];
        let mut seq = x.clone();
        let got = x.dot_batch_sparse(&batch).unwrap();
        let expected: Vec<Vec<Amps>> = batch.iter().map(|b| seq.dot_sparse(b).unwrap()).collect();
        assert_eq!(got, expected);
        assert_eq!(x.accumulated_read_energy(), seq.accumulated_read_energy());
    }

    #[test]
    fn sparse_row_lists_are_validated() {
        let mut x = xbar(Mode::Snn);
        x.program(&vec![vec![1.0]; 4], 1.0).unwrap();
        assert!(matches!(
            x.dot_sparse(&[0, 4]),
            Err(CrossbarError::InvalidActiveRows { row: 4, rows: 4 })
        ));
        assert!(matches!(
            x.dot_sparse(&[2, 1]),
            Err(CrossbarError::InvalidActiveRows { row: 1, .. })
        ));
        assert!(matches!(
            x.dot_sparse(&[1, 1]),
            Err(CrossbarError::InvalidActiveRows { .. })
        ));
        assert_eq!(x.evaluations(), 0, "failed sparse call evaluates nothing");
        assert!(matches!(
            x.dot_batch_sparse(&[vec![0], vec![3, 0]]),
            Err(CrossbarError::InvalidActiveRows { .. })
        ));
        assert_eq!(x.accumulated_read_energy(), Joules::ZERO);
    }

    #[test]
    fn dot_batch_validates_every_item_before_evaluating() {
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0], vec![1.0]], 1.0).unwrap();
        let bad = vec![vec![1.0, 1.0], vec![1.0]]; // second item too short
        assert!(matches!(
            x.dot_batch(&bad),
            Err(CrossbarError::InputLengthMismatch {
                len: 1,
                expected: 2
            })
        ));
        assert_eq!(x.evaluations(), 0, "failed batch must evaluate nothing");
        assert_eq!(x.accumulated_read_energy(), Joules::ZERO);
    }

    #[test]
    fn stuck_cells_override_programming() {
        use nebula_device::fault::CellFault;
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
        let out = as_values(&x, &x.clone().dot(&[1.0, 1.0]).unwrap());
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
        use nebula_device::fault::CellFault;
        let mut x = xbar(Mode::Ann);
        x.program(&[vec![1.0, 1.0], vec![1.0, 1.0]], 1.0).unwrap();
        x.fail_row(0, CellFault::StuckAtGmin);
        assert_eq!(x.faulty_cells(), x.m());
        let out = as_values(&x, &x.clone().dot(&[1.0, 1.0]).unwrap());
        // Row 0 contributes -1 per column; row 1 contributes +1.
        assert!(out[0].abs() < 0.01 && out[1].abs() < 0.01, "{out:?}");
    }

    #[test]
    fn retention_drift_relaxes_with_age_and_resets_on_program() {
        use nebula_device::fault::CellFault;
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
            let out = x.dot(&[1.0; 8]).unwrap();
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
        let out = x.dot(&[1.0, 1.0]).unwrap();
        assert!(out.iter().all(|i| i.0 == 0.0), "dead array must be silent");
        assert_eq!(x.accumulated_read_energy(), Joules::ZERO);
        assert_eq!(x.evaluations(), 1, "the cycle still happened");
        assert_eq!(x.effective_weight(0, 0), 0.0);
        // Revival restores the programmed weights.
        x.revive();
        let out = as_values(&x, &x.clone().dot(&[1.0, 1.0]).unwrap());
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
        assert_eq!(
            x.clone().dot(&[1.0]).unwrap(),
            clean.clone().dot(&[1.0]).unwrap()
        );
    }

    #[test]
    fn snn_binary_inputs_compute_popcount_style_sums() {
        let mut x = xbar(Mode::Snn);
        x.program(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]], 1.0)
            .unwrap();
        let spikes = [1.0, 0.0, 1.0, 1.0];
        let currents = x.dot(&spikes).unwrap();
        let out = as_values(&x, &currents);
        assert!((out[0] - 3.0).abs() < 0.01, "expected ≈3 got {}", out[0]);
    }
}
