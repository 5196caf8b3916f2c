//! Column-lane vectorized GEMV kernels for the analog crossbar.
//!
//! The crossbar dot product is a GEMV over cached conductances (the
//! current-summing spin-neuron evaluation of the DW-magnet designs the
//! paper builds on). This module holds the lane-level primitives the
//! [`AtomicCrossbar`](crate::array::AtomicCrossbar) evaluators dispatch
//! to, plus the [`KernelPath`] selector that switches between the pinned
//! scalar reference loop and the vectorized layout.
//!
//! # Layout and bit-identity contract
//!
//! The prepared cache stores, per programmed row, the *differential*
//! conductances `g_eff − g_mid` pre-subtracted per cell and zero-padded
//! to a multiple of [`LANES`], alongside a per-row total-conductance sum
//! for the energy term. Because `g_eff − g_mid` is computed once at
//! prepare time with the exact same operands the scalar loop uses per
//! visit, and because each output column `diff[j]` is still accumulated
//! in row-ascending order, the vectorized differential outputs are
//! **bit-identical** to the scalar fast path and to `dot_reference`.
//! Only the total-current (energy) accumulation is re-associated — per
//! row instead of per cell — so read energy under [`KernelPath::Vectorized`]
//! agrees with the reference to a relative error ≤ 1e-12 rather than
//! bitwise (the scalar path remains bitwise-exact on energy too).
//!
//! # The GEMV kernel: column blocks and runtime dispatch
//!
//! One kernel, `gemv`, evaluates every dense differential-layout drive
//! (spike drives instead add whole rows one by one through
//! [`SpikeRows`], on every layout). It first compacts the driven rows
//! into stack arrays (branch-free: every row is written, the cursor only
//! advances past non-zero inputs), then walks them once per column block
//! of 32, 16 or 8 lanes (strides are multiples of [`LANES`] = 8, so the
//! widths tile every row exactly). A block's accumulators live in a
//! local `[f64; W]` — registers, not `diff` — for the whole row walk,
//! and each column still adds its rows in ascending order.
//!
//! The same source is compiled twice: once for the target's baseline
//! ISA, once under `#[target_feature(enable = "avx2")]`. The first call
//! probes the host with `is_x86_feature_detected!` (on x86-64 only) and
//! every later call takes the chosen build. Multiversioning rather than
//! `core::arch` intrinsics keeps one readable source whose operations
//! and order are plain Rust, and lets LLVM pick the instructions. The
//! builds cannot disagree: rustc never contracts `a*b + c` into FMA
//! (only `avx2` is enabled anyway, not `fma`) and never re-associates
//! floating point, so wider registers change instruction selection,
//! never a bit. The same holds for `-C target-cpu=native` builds (a CI
//! job re-runs the equivalence suites under it). AVX-512 measured no
//! faster than AVX2 on this kernel, so there is no third build.

/// Column-lane width of the vectorized kernels. Cached differential rows
/// are zero-padded to a multiple of this.
pub const LANES: usize = 8;

/// Palette capacity of the quantized layout: one nibble indexes at most
/// 16 distinct effective conductances — exactly the device's 4-bit state
/// count, so every fault-free array packs. Arrays whose *fault-resolved*
/// conductances exceed 16 distinct values (per-cell TMR factors,
/// retention drift mixing on- and off-grid values) spill to the
/// vectorized layout instead (see `AtomicCrossbar::quantized_is_packed`).
pub const PALETTE: usize = 16;

/// Smallest multiple of [`LANES`] that holds `cols` values (the stride of
/// one padded differential-conductance row, and the minimum scratch width
/// callers of the `*_prepared` evaluators must provide).
pub fn padded_len(cols: usize) -> usize {
    cols.div_ceil(LANES) * LANES
}

/// Bytes one packed nibble row occupies: two palette indices per byte,
/// rounded up (an odd column count leaves the last byte's high nibble as
/// padding that the kernels never read).
pub fn packed_row_len(cols: usize) -> usize {
    cols.div_ceil(2)
}

/// Packs palette indices (each `< PALETTE`) two per byte: even positions
/// in the low nibble, odd positions in the high nibble. The inverse is
/// [`unpack_nibbles`].
///
/// # Panics
///
/// Panics when an index does not fit a nibble.
pub fn pack_nibbles(indices: &[u8]) -> Vec<u8> {
    assert!(
        indices.iter().all(|&i| (i as usize) < PALETTE),
        "palette index out of nibble range"
    );
    let mut packed = vec![0u8; packed_row_len(indices.len())];
    for (pos, &idx) in indices.iter().enumerate() {
        packed[pos / 2] |= idx << ((pos % 2) * 4);
    }
    packed
}

/// Unpacks `len` palette indices from a nibble-packed row (inverse of
/// [`pack_nibbles`]).
///
/// # Panics
///
/// Panics when `packed` is shorter than [`packed_row_len`]`(len)`.
pub fn unpack_nibbles(packed: &[u8], len: usize) -> Vec<u8> {
    assert!(packed.len() >= packed_row_len(len), "packed row too short");
    (0..len)
        .map(|pos| (packed[pos / 2] >> ((pos % 2) * 4)) & 0x0F)
        .collect()
}

/// Which inner-loop implementation an [`AtomicCrossbar`](crate::array::AtomicCrossbar)
/// evaluates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// The PR 3 scalar loop over effective conductances: per-cell
    /// `g − g_mid` subtraction and a single serial total-current chain.
    /// Pinned as the bitwise-exact reference (outputs *and* energy).
    Scalar,
    /// Column-lane vectorized GEMV over the padded differential layout,
    /// with the energy term folded into a per-row conductance sum.
    /// Differential outputs stay bit-identical to [`KernelPath::Scalar`];
    /// energy agrees to relative error ≤ 1e-12.
    #[default]
    Vectorized,
    /// Bit-packed 4-bit tier, kept as a pinned path (the golden
    /// harness re-runs recorded experiments under it): per-cell palette
    /// indices packed two per byte plus a ≤[`PALETTE`]-entry
    /// fault/age-resolved conductance LUT. The inner loop is a gathered
    /// LUT add — `diff[j] += vdg[nibble]`, where `vdg[s] = v · (g_s −
    /// g_mid)` is precomputed per drive (once per prepare on the
    /// constant-voltage spike path, as a byte-pair table) — performing
    /// the *same* multiply-then-add on the *same* operands as the scalar
    /// loop, per column in row-ascending order. Differential outputs are
    /// therefore bit-identical to [`KernelPath::Scalar`] on dense *and*
    /// spike inputs; energy uses the per-row-sum formulation and is
    /// bit-identical to [`KernelPath::Vectorized`] (≤ 1e-12 relative per
    /// dot vs the reference). Arrays whose fault-resolved conductances
    /// exceed [`PALETTE`] distinct values evaluate through the
    /// vectorized layout instead (same output bits; see DESIGN.md
    /// "Kernel layer"). No default path builds this layout.
    Quantized,
    /// The production path: every drive, dense GEMV and binary spike
    /// alike, evaluates through the [`KernelPath::Vectorized`]
    /// differential layout, and only that layout is materialized. The
    /// quantized byte-pair gather used to serve spike drives here, but
    /// inside the scatter-form spike evaluator (one row add per driven
    /// row and output patch) the differential rows measured faster, so
    /// Auto no longer builds the packed layout. Outputs and energy are
    /// bit-identical to [`KernelPath::Vectorized`].
    Auto,
}

impl KernelPath {
    /// The kernel path new crossbars start on: `NEBULA_KERNEL_PATH`
    /// (`scalar` | `vectorized` | `quantized` | `auto`, read once per
    /// process) or the default when unset. Lets subprocess harnesses — the golden
    /// regression tests re-running recorded experiment binaries under
    /// `quantized` — pin the path without threading a parameter through
    /// every binary. Explicit `set_kernel_path` calls still override it.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value: a typo silently falling back to
    /// the default would make an equivalence harness vacuous.
    pub fn from_env() -> Self {
        static PATH: std::sync::OnceLock<KernelPath> = std::sync::OnceLock::new();
        *PATH.get_or_init(|| match std::env::var("NEBULA_KERNEL_PATH") {
            Ok(v) if v == "scalar" => KernelPath::Scalar,
            Ok(v) if v == "vectorized" => KernelPath::Vectorized,
            Ok(v) if v == "quantized" => KernelPath::Quantized,
            Ok(v) if v == "auto" => KernelPath::Auto,
            Ok(v) => {
                panic!("NEBULA_KERNEL_PATH must be scalar|vectorized|quantized|auto, got {v:?}")
            }
            Err(_) => KernelPath::default(),
        })
    }
}

/// Most drive rows one compacted pass holds: the paper's atomic-crossbar
/// side `M = 128`, so an AC's non-zero rows fit stack arrays. Taller
/// crossbars are walked in row chunks of this size, which keeps every
/// column's row-ascending accumulation order.
const MAX_ROWS: usize = 128;

/// Differential column-lane layout ([`KernelPath::Vectorized`]), the
/// one [`gemv`] walks.
#[derive(Debug, Clone)]
pub(crate) struct VectorLayout {
    /// Differential conductances `g_eff − g_mid`, row-major with each row
    /// zero-padded to `padded_cols`.
    pub(crate) dg: Vec<f64>,
    /// Per-row sum of effective conductances (column-ascending), folding
    /// the energy term into one multiply per active row.
    pub(crate) row_sum: Vec<f64>,
    /// Stride of one `dg` row: [`padded_len`]`(cols_used)`.
    pub(crate) padded_cols: usize,
}

/// Differential crossbar GEMV: `diff[j] += v_r · dg[r][j]` over every
/// driven row `r` (ascending; row `r` sees `v_r = v_read · inputs[r]`,
/// rows whose input is zero are silent) and every column `j < padded_cols`,
/// returning the total current `Σ_r v_r · row_sum[r]` (row-ascending
/// chain). `diff` must be at least `padded_cols` long.
///
/// Each column receives exactly one `+= v · dg` per driven row, in
/// row-ascending order — the scalar loop's operation on the same
/// operands — so the outputs are bitwise identical to it; the total is
/// the per-row-sum chain of the vectorized layout. Runs the AVX2 build
/// when the host has it, else the portable one; both compile the same
/// source and produce the same bits. `is_x86_feature_detected!` probes
/// the CPU on its first call and caches the answer for the process.
pub(crate) fn gemv(inputs: &[f64], v_read: f64, m: &VectorLayout, diff: &mut [f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host reports AVX2.
        return unsafe { gemv_avx2(inputs, v_read, m, diff) };
    }
    gemv_portable(inputs, v_read, m, diff)
}

/// [`gemv`] compiled for the build target's baseline ISA.
fn gemv_portable(inputs: &[f64], v_read: f64, m: &VectorLayout, diff: &mut [f64]) -> f64 {
    gemv_body(inputs, v_read, m, diff)
}

/// [`gemv`] compiled with AVX2 enabled: the same source, wider registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemv_avx2(inputs: &[f64], v_read: f64, m: &VectorLayout, diff: &mut [f64]) -> f64 {
    gemv_body(inputs, v_read, m, diff)
}

/// The one GEMV source both builds inline: compacts the driven rows into
/// stack arrays (at most [`MAX_ROWS`] per pass), then accumulates them
/// per column block.
#[inline(always)]
fn gemv_body(inputs: &[f64], v_read: f64, m: &VectorLayout, diff: &mut [f64]) -> f64 {
    let mut rows = [0usize; MAX_ROWS];
    let mut volts = [0.0f64; MAX_ROWS];
    let mut total = 0.0f64;
    for (c, part) in inputs.chunks(MAX_ROWS).enumerate() {
        // Branch-free compaction: every row is written, but the cursor
        // only advances past non-zero drives.
        let mut n = 0;
        for (r, &x) in part.iter().enumerate() {
            rows[n] = c * MAX_ROWS + r;
            volts[n] = v_read * x;
            n += usize::from(x != 0.0);
        }
        total = accumulate(&rows[..n], &volts[..n], m, diff, total);
    }
    total
}

/// Adds the compacted rows into `diff[..m.padded_cols]` one column block at a
/// time (widths 32, then 16, then 8 — strides are multiples of
/// [`LANES`], so the blocks tile them exactly) and continues the
/// total-current chain from `total`.
#[inline(always)]
fn accumulate(
    rows: &[usize],
    volts: &[f64],
    m: &VectorLayout,
    diff: &mut [f64],
    mut total: f64,
) -> f64 {
    if rows.is_empty() {
        return total;
    }
    for (&r, &v) in rows.iter().zip(volts) {
        total += v * m.row_sum[r];
    }
    let width = m.padded_cols;
    let mut col = 0;
    while col + 32 <= width {
        column_block::<32>(rows, volts, m, col, diff);
        col += 32;
    }
    if col + 16 <= width {
        column_block::<16>(rows, volts, m, col, diff);
        col += 16;
    }
    if col + LANES <= width {
        column_block::<LANES>(rows, volts, m, col, diff);
        col += LANES;
    }
    debug_assert_eq!(col, width, "stride must be a multiple of LANES");
    total
}

/// `diff[col..col + W] += v_r · dg[r][col..col + W]` for every compacted
/// row, ascending, with the `W` accumulators held in a local array (in
/// registers) instead of reloading `diff` per row.
#[inline(always)]
fn column_block<const W: usize>(
    rows: &[usize],
    volts: &[f64],
    m: &VectorLayout,
    col: usize,
    diff: &mut [f64],
) {
    let out: &mut [f64; W] = (&mut diff[col..col + W]).try_into().unwrap();
    let mut acc = *out;
    for (&r, &v) in rows.iter().zip(volts) {
        let g: &[f64; W] = m.dg[r * m.padded_cols + col..][..W].try_into().unwrap();
        for l in 0..W {
            acc[l] += v * g[l];
        }
    }
    *out = acc;
}

/// Read-only view of one prepared atomic crossbar's rows as a binary
/// spike drive sees them: every driven row contributes its whole row of
/// `v · (g − g_mid)` to the columns and `v · g` to the total current.
/// Obtained from [`SuperTile::spike_rows`](crate::tile::SuperTile::spike_rows)
/// (`None` for a dead AC, which drives and draws nothing).
///
/// A scatter-form evaluator walks the spiking inputs once and calls
/// [`add_row`](Self::add_row) per (output patch, driven row), so a
/// crossbar wave no longer needs its own active-row list. Each column
/// still gets exactly one add per driven row, of the value the per-AC
/// evaluators add; as long as the caller adds a patch's rows in
/// ascending order from a `+0.0` accumulator, the outputs are
/// bit-identical to [`KernelPath::Scalar`] and the current chain matches
/// the layout's own energy formulation.
#[derive(Debug, Clone, Copy)]
pub struct SpikeRows<'a> {
    v: f64,
    layout: RowLayout<'a>,
}

/// The cache layout behind a [`SpikeRows`] view.
#[derive(Debug, Clone, Copy)]
enum RowLayout<'a> {
    /// The padded differential layout ([`KernelPath::Vectorized`],
    /// [`KernelPath::Auto`], a spilled [`KernelPath::Quantized`]).
    Differential {
        dg: &'a [f64],
        stride: usize,
        row_sum: &'a [f64],
    },
    /// The nibble-packed palette layout (a packed, pinned
    /// [`KernelPath::Quantized`]): one byte-pair LUT load per two cells.
    Quantized {
        packed: &'a [u8],
        stride: usize,
        cols: usize,
        pair: &'a [[f64; 2]; 256],
        row_sum: &'a [f64],
    },
    /// Resolved conductances ([`KernelPath::Scalar`]): per-cell
    /// `g − g_mid` and the per-cell total-current chain.
    Scalar {
        eff: &'a [f64],
        cols: usize,
        g_mid: f64,
    },
}

impl<'a> SpikeRows<'a> {
    pub(crate) fn differential(v: f64, m: &'a VectorLayout) -> Self {
        Self {
            v,
            layout: RowLayout::Differential {
                dg: &m.dg,
                stride: m.padded_cols,
                row_sum: &m.row_sum,
            },
        }
    }

    pub(crate) fn quantized(
        v: f64,
        packed: &'a [u8],
        stride: usize,
        cols: usize,
        pair: &'a [[f64; 2]; 256],
        row_sum: &'a [f64],
    ) -> Self {
        Self {
            v,
            layout: RowLayout::Quantized {
                packed,
                stride,
                cols,
                pair,
                row_sum,
            },
        }
    }

    pub(crate) fn scalar(v: f64, eff: &'a [f64], cols: usize, g_mid: f64) -> Self {
        Self {
            v,
            layout: RowLayout::Scalar { eff, cols, g_mid },
        }
    }

    /// Adds row `r`'s spike contribution into `acc` (which must hold at
    /// least [`padded_len`]`(cols)` values; padding lanes only ever gain
    /// `v · 0.0`) and returns `current` continued by the row's share of
    /// the total current — `v · row_sum[r]` on the per-row-sum layouts,
    /// the per-cell `v · g` chain on the scalar one.
    #[inline(always)]
    pub fn add_row(&self, r: usize, acc: &mut [f64], mut current: f64) -> f64 {
        let v = self.v;
        match self.layout {
            RowLayout::Differential {
                dg,
                stride,
                row_sum,
            } => {
                for (a, &g) in acc[..stride]
                    .iter_mut()
                    .zip(&dg[r * stride..(r + 1) * stride])
                {
                    *a += v * g;
                }
                current + v * row_sum[r]
            }
            RowLayout::Quantized {
                packed,
                stride,
                cols,
                pair,
                row_sum,
            } => {
                gather_add_pairs(pair, &packed[r * stride..], cols, acc);
                current + v * row_sum[r]
            }
            RowLayout::Scalar { eff, cols, g_mid } => {
                for (a, &g) in acc[..cols].iter_mut().zip(&eff[r * cols..(r + 1) * cols]) {
                    *a += v * (g - g_mid);
                    current += v * g;
                }
                current
            }
        }
    }
}

/// Gathered LUT accumulate over one packed nibble row:
/// `acc[j] += vdg[index_of(j)]` for `j in 0..cols`, ascending. `vdg` must
/// hold `v · dg_s` for every palette entry (unused slots are never
/// indexed, since packed nibbles only ever name live palette entries and
/// odd-`cols` padding nibbles are skipped). Column order matches the
/// scalar loop's, and each `acc[j]` receives exactly one add of exactly
/// the value the scalar loop would compute — bitwise identity by
/// construction.
#[inline]
pub(crate) fn gather_add(vdg: &[f64; PALETTE], row: &[u8], cols: usize, acc: &mut [f64]) {
    let full = cols / 2;
    let (pairs, tail) = acc[..cols].split_at_mut(full * 2);
    for (accp, &b) in pairs.chunks_exact_mut(2).zip(row) {
        accp[0] += vdg[(b & 0x0F) as usize];
        accp[1] += vdg[(b >> 4) as usize];
    }
    if let [t] = tail {
        *t += vdg[(row[full] & 0x0F) as usize];
    }
}

/// Byte-pair variant of [`gather_add`] for the constant-voltage spike
/// path: `pair[b]` pre-expands both nibbles of byte value `b`
/// (`[vdg[b & 15], vdg[b >> 4]]`), so each packed byte costs one aligned
/// 16-byte load and two adds — no nibble arithmetic in the loop. The
/// adds land on exactly the values [`gather_add`] would produce
/// (`pair` is built from the same `vdg` table), in the same ascending
/// column order, so results are bitwise identical.
#[inline]
pub(crate) fn gather_add_pairs(pair: &[[f64; 2]; 256], row: &[u8], cols: usize, acc: &mut [f64]) {
    let full = cols / 2;
    let (pairs, tail) = acc[..cols].split_at_mut(full * 2);
    for (accp, &b) in pairs.chunks_exact_mut(2).zip(row) {
        let p = &pair[b as usize];
        accp[0] += p[0];
        accp[1] += p[1];
    }
    if let [t] = tail {
        *t += pair[(row[full] & 0x0F) as usize][0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_len_rounds_up_to_lane_multiples() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(1), LANES);
        assert_eq!(padded_len(LANES), LANES);
        assert_eq!(padded_len(LANES + 1), 2 * LANES);
        assert_eq!(padded_len(128), 128);
    }

    type GemvBuild = fn(&[f64], f64, &VectorLayout, &mut [f64]) -> f64;

    /// One differential-layout case: a random `rows × cols` layout, a
    /// dense or spike drive with about `zero_pct`% silent rows, and a
    /// random starting `diff`. Every build of [`gemv`] (dense) or the
    /// [`SpikeRows`] row adds (spikes) must reproduce the per-cell scalar
    /// loop bit for bit — the differential outputs, the untouched tail
    /// past the stride, and the total current.
    fn check_gemv(cols: usize, rows: usize, zero_pct: usize, spikes: bool, seed: u64) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let stride = padded_len(cols);
        let g_mid = 5.0e-5;
        let g: Vec<f64> = (0..rows * cols)
            .map(|_| rng.gen_range(1.0e-6..1.0e-4))
            .collect();
        let mut dg = vec![0.0f64; rows * stride];
        let mut row_sum = Vec::with_capacity(rows);
        for r in 0..rows {
            let mut sum = 0.0f64;
            for j in 0..cols {
                dg[r * stride + j] = g[r * cols + j] - g_mid;
                sum += g[r * cols + j];
            }
            row_sum.push(sum);
        }
        let v_read = 0.317;
        let silent: Vec<bool> = (0..rows)
            .map(|_| rng.gen_range(0usize..100) < zero_pct)
            .collect();
        let inputs: Vec<f64> = silent
            .iter()
            .map(|&z| if z { 0.0 } else { rng.gen_range(0.01..1.0) })
            .collect();
        // Padding lanes only ever gain `v · 0.0`, and the tail past the
        // stride is never touched: both must keep their sentinel.
        let start: Vec<f64> = (0..stride + 5)
            .map(|j| {
                if j < cols {
                    rng.gen_range(-1e-5..1e-5)
                } else {
                    7.0
                }
            })
            .collect();
        // Per-cell scalar loop over the same operands.
        let mut expect = start.clone();
        let mut expect_total = 0.0f64;
        for r in (0..rows).filter(|&r| !silent[r]) {
            let v = if spikes { v_read } else { v_read * inputs[r] };
            expect_total += v * row_sum[r];
            for j in 0..cols {
                expect[j] += v * (g[r * cols + j] - g_mid);
            }
        }
        let m = VectorLayout {
            dg,
            row_sum,
            padded_cols: stride,
        };
        let mut builds: Vec<(&str, GemvBuild)> = if spikes {
            // Spike drives add every non-silent row once, ascending.
            vec![("spike rows", |inputs, v, m, out| {
                let rows = SpikeRows::differential(v, m);
                (0..inputs.len())
                    .filter(|&r| inputs[r] != 0.0)
                    .fold(0.0, |c, r| rows.add_row(r, out, c))
            })]
        } else {
            vec![("dispatch", gemv), ("portable", gemv_portable)]
        };
        #[cfg(target_arch = "x86_64")]
        if !spikes && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host reports AVX2.
            builds.push(("avx2", |x, v, m, out| unsafe { gemv_avx2(x, v, m, out) }));
        }
        for (name, build) in builds {
            let mut diff = start.clone();
            let total = build(&inputs, v_read, &m, &mut diff);
            let case = format!("{name} cols {cols} rows {rows} zero {zero_pct}% spikes {spikes}");
            assert_eq!(total.to_bits(), expect_total.to_bits(), "total: {case}");
            for (j, (a, e)) in diff.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), e.to_bits(), "column {j}: {case}");
            }
        }
    }

    #[test]
    fn gemv_matches_scalar_loop_at_every_width() {
        for cols in 1..=128 {
            for (zero_pct, spikes) in [(0, false), (50, false), (100, false), (50, true)] {
                check_gemv(cols, 9, zero_pct, spikes, cols as u64);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn gemv_matches_scalar_loop_bitwise(
            cols in 1usize..129,
            rows in 1usize..2 * MAX_ROWS + 7,
            zero_pct in 0usize..101,
            spikes in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            check_gemv(cols, rows, zero_pct, spikes == 1, seed);
        }
    }

    #[test]
    fn default_path_is_vectorized() {
        assert_eq!(KernelPath::default(), KernelPath::Vectorized);
    }

    #[test]
    fn nibble_roundtrip_even_and_odd_lengths() {
        for len in [0usize, 1, 2, 7, 8, 15, 16, 33] {
            let indices: Vec<u8> = (0..len).map(|i| (i * 7 % PALETTE) as u8).collect();
            let packed = pack_nibbles(&indices);
            assert_eq!(packed.len(), packed_row_len(len));
            assert_eq!(unpack_nibbles(&packed, len), indices, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "nibble range")]
    fn packing_rejects_out_of_range_indices() {
        pack_nibbles(&[0, PALETTE as u8]);
    }

    #[test]
    fn gather_add_pairs_matches_gather_add_bitwise() {
        let mut vdg = [0.0f64; PALETTE];
        for (s, v) in vdg.iter_mut().enumerate() {
            *v = (s as f64 - 4.1) * 3.3e-8;
        }
        let pair: Vec<[f64; 2]> = (0..256).map(|b| [vdg[b & 0x0F], vdg[b >> 4]]).collect();
        let pair: &[[f64; 2]; 256] = pair.as_slice().try_into().unwrap();
        for cols in [1usize, 2, 5, 8, 15, 16, 31] {
            let indices: Vec<u8> = (0..cols).map(|i| (i * 11 % PALETTE) as u8).collect();
            let packed = pack_nibbles(&indices);
            let mut a = vec![0.25f64; cols + 2];
            let mut b = a.clone();
            gather_add(&vdg, &packed, cols, &mut a);
            gather_add_pairs(pair, &packed, cols, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "cols {cols}");
            }
        }
    }

    #[test]
    fn gather_add_matches_scalar_lut_walk_bitwise() {
        let mut vdg = [0.0f64; PALETTE];
        for (s, v) in vdg.iter_mut().enumerate() {
            *v = (s as f64 - 7.3) * 1.7e-7;
        }
        for cols in [1usize, 2, 5, 8, 15, 16] {
            let indices: Vec<u8> = (0..cols).map(|i| (i * 5 % PALETTE) as u8).collect();
            let packed = pack_nibbles(&indices);
            let mut acc = vec![0.125f64; cols + 3]; // longer: tail untouched
            let mut expect = acc.clone();
            for (e, &s) in expect.iter_mut().zip(indices.iter()) {
                *e += vdg[s as usize];
            }
            gather_add(&vdg, &packed, cols, &mut acc);
            for (a, e) in acc.iter().zip(expect.iter()) {
                assert_eq!(a.to_bits(), e.to_bits(), "cols {cols}");
            }
        }
    }
}
