//! Column-lane vectorized GEMV kernels for the analog crossbar.
//!
//! The crossbar dot product is a GEMV over cached conductances (the
//! current-summing spin-neuron evaluation of the DW-magnet designs the
//! paper builds on). This module holds the lane-level primitives the
//! [`AtomicCrossbar`](crate::array::AtomicCrossbar) evaluators dispatch
//! to, plus the [`KernelPath`] selector that switches between the pinned
//! scalar reference loop and the differential layout.
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
//! row instead of per cell — so read energy under [`KernelPath::Auto`]
//! agrees with the reference to a relative error ≤ 1e-12 rather than
//! bitwise (the scalar path remains bitwise-exact on energy too).
//!
//! # The GEMV kernel: column blocks and runtime dispatch
//!
//! One kernel, `gemv`, evaluates every dense differential-layout drive
//! (spike drives instead add a patch's rows through
//! [`SpikeRows::add_rows`], on every layout, with the same column
//! blocks). It first compacts the driven rows into stack arrays
//! (branch-free: every row is written, the cursor only advances past
//! non-zero inputs), then walks them once per column block
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

/// Smallest multiple of [`LANES`] that holds `cols` values (the stride of
/// one padded differential-conductance row, and the minimum scratch width
/// callers of the `*_prepared` evaluators must provide).
pub fn padded_len(cols: usize) -> usize {
    cols.div_ceil(LANES) * LANES
}

/// Which inner-loop implementation an [`AtomicCrossbar`](crate::array::AtomicCrossbar)
/// evaluates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// The production path: every drive, dense and binary spike alike,
    /// evaluates through the differential column-lane layout (the
    /// column-blocked GEMV for dense drives, [`SpikeRows::add_rows`] for
    /// spikes), with the energy term folded into a per-row conductance
    /// sum. Differential outputs are bit-identical to
    /// [`KernelPath::Scalar`]; energy agrees to relative error ≤ 1e-12.
    /// No environment variable overrides it: callers pick a path with
    /// `set_kernel_path`.
    #[default]
    Auto,
    /// The scalar loop over effective conductances: per-cell
    /// `g − g_mid` subtraction and a single serial total-current chain.
    /// Pinned as the bitwise-exact reference (outputs *and* energy).
    Scalar,
}

/// Most drive rows one compacted pass holds: the paper's atomic-crossbar
/// side `M = 128`, so an AC's non-zero rows fit stack arrays. Taller
/// crossbars are walked in row chunks of this size, which keeps every
/// column's row-ascending accumulation order.
const MAX_ROWS: usize = 128;

/// Differential column-lane layout ([`KernelPath::Auto`]), the one
/// [`gemv`] walks.
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
/// the per-row-sum chain of the differential layout. Runs the AVX2 build
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
/// A scatter-form evaluator bins its spike drives by output patch and
/// calls [`add_rows`](Self::add_rows) once per (patch, AC) with that
/// patch's driven rows, so a crossbar wave needs no active-row list of
/// its own. Each column still gets exactly one add per driven row, of
/// the value the per-AC evaluators add, in the order given; as long as
/// the caller passes a patch's rows in ascending order into a `+0.0`
/// accumulator, the outputs are bit-identical to [`KernelPath::Scalar`]
/// and the current chain matches the layout's own energy formulation.
#[derive(Debug, Clone, Copy)]
pub struct SpikeRows<'a> {
    v: f64,
    layout: RowLayout<'a>,
}

/// The cache layout behind a [`SpikeRows`] view.
#[derive(Debug, Clone, Copy)]
enum RowLayout<'a> {
    /// The padded differential layout ([`KernelPath::Auto`]).
    Differential {
        dg: &'a [f64],
        stride: usize,
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

    pub(crate) fn scalar(v: f64, eff: &'a [f64], cols: usize, g_mid: f64) -> Self {
        Self {
            v,
            layout: RowLayout::Scalar { eff, cols, g_mid },
        }
    }

    /// Adds the spike contribution of rows `rows[i] − base`, in the
    /// order given, into `acc` (which must hold at least
    /// [`padded_len`]`(cols)` values; padding lanes only ever gain
    /// `v · 0.0`) and returns `current` continued by the rows' shares of
    /// the total current — `v · row_sum[r]` per row on the differential
    /// layout, the per-cell `v · g` chain on the scalar one.
    ///
    /// On the differential layout the columns are walked in blocks of
    /// 32, 16 and 8 lanes, as the dense GEMV walks them: a block's sums
    /// stay in a local `[f64; W]` (registers) across all the rows, and
    /// the first block also carries the current chain. Every column
    /// still receives one `+= v · dg` per row, in row order, so the
    /// result is the same bits as adding the rows one at a time.
    #[inline(always)]
    pub fn add_rows(&self, rows: &[usize], base: usize, acc: &mut [f64], mut current: f64) -> f64 {
        let v = self.v;
        match self.layout {
            RowLayout::Differential {
                dg,
                stride,
                row_sum,
            } => {
                if rows.is_empty() {
                    return current;
                }
                let rows = DriveRows {
                    rows,
                    base,
                    v,
                    dg,
                    stride,
                };
                // The first block, at least 8 lanes wide, carries the
                // current chain; the rest tile the stride as in `gemv`.
                let mut col = if stride >= 32 {
                    current = rows.block::<32, true>(0, acc, row_sum, current);
                    32
                } else if stride >= 16 {
                    current = rows.block::<16, true>(0, acc, row_sum, current);
                    16
                } else {
                    current = rows.block::<LANES, true>(0, acc, row_sum, current);
                    LANES
                };
                while col + 32 <= stride {
                    rows.block::<32, false>(col, acc, row_sum, current);
                    col += 32;
                }
                if col + 16 <= stride {
                    rows.block::<16, false>(col, acc, row_sum, current);
                    col += 16;
                }
                if col + LANES <= stride {
                    rows.block::<LANES, false>(col, acc, row_sum, current);
                    col += LANES;
                }
                debug_assert_eq!(col, stride, "stride must be a multiple of LANES");
                current
            }
            RowLayout::Scalar { eff, cols, g_mid } => {
                for &r in rows {
                    let r = r - base;
                    for (a, &g) in acc[..cols].iter_mut().zip(&eff[r * cols..(r + 1) * cols]) {
                        *a += v * (g - g_mid);
                        current += v * g;
                    }
                }
                current
            }
        }
    }
}

/// The rows one [`SpikeRows::add_rows`] call drives on the differential
/// layout, all at the spike voltage `v`.
struct DriveRows<'r> {
    rows: &'r [usize],
    base: usize,
    v: f64,
    dg: &'r [f64],
    stride: usize,
}

impl DriveRows<'_> {
    /// `acc[col..col + W] += v · dg[r][col..col + W]` for every row, in
    /// order, with the `W` sums held in a local array; with `CHAIN` the
    /// same walk also continues `current` by `v · row_sum[r]` per row.
    #[inline(always)]
    fn block<const W: usize, const CHAIN: bool>(
        &self,
        col: usize,
        acc: &mut [f64],
        row_sum: &[f64],
        mut current: f64,
    ) -> f64 {
        let out: &mut [f64; W] = (&mut acc[col..col + W]).try_into().unwrap();
        let mut sum = *out;
        for &r in self.rows {
            let r = r - self.base;
            let g: &[f64; W] = self.dg[r * self.stride + col..][..W].try_into().unwrap();
            for l in 0..W {
                sum[l] += self.v * g[l];
            }
            if CHAIN {
                current += self.v * row_sum[r];
            }
        }
        *out = sum;
        current
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
            // Spike drives add every non-silent row once, ascending,
            // named with an offset the `base` argument removes.
            vec![("spike rows", |inputs, v, m, out| {
                let driven: Vec<usize> = (0..inputs.len())
                    .filter(|&r| inputs[r] != 0.0)
                    .map(|r| r + 7)
                    .collect();
                SpikeRows::differential(v, m).add_rows(&driven, 7, out, 0.0)
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
            for (zero_pct, spikes) in [
                (0, false),
                (50, false),
                (100, false),
                (0, true),
                (50, true),
                (100, true),
            ] {
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
    fn default_path_is_auto() {
        assert_eq!(KernelPath::default(), KernelPath::Auto);
    }
}
