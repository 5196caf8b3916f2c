//! Register-tiled f32 GEMM — the one dense kernel behind
//! [`Tensor::matmul`](crate::Tensor::matmul),
//! [`par::matmul`](crate::par::matmul) and
//! [`par::matmul_tn`](crate::par::matmul_tn).
//!
//! Each A row is classified once by zero fraction:
//!
//! * **sparse rows** (zero fraction ≥ [`SPARSE_ROW_THRESHOLD`], e.g.
//!   spike-train patches) take a zero-skipping walk over B, which is
//!   cheaper than touching `n` columns per silent element;
//! * **dense rows** are grouped `MR` at a time and evaluated by one
//!   register-tiled micro-kernel: an `MR × NR` block of accumulators lives
//!   in locals across a `KC`-long run of `k`, so each output element is
//!   loaded and stored once per `KC` block rather than once per `k`.
//!   Column remainders take narrower tiles (8, 4, 2, 1 columns) of the
//!   same source; row remainders take one-row tiles.
//!
//! A is read through a row stride and a `k` stride, so the same kernel
//! computes `A·B` from a row-major `[m, k]` A and `Aᵀ·B` from a `[k, m]`
//! A (the weight-gradient products of training) without materializing a
//! transpose.
//!
//! # Two builds of one source
//!
//! As in the crossbar GEMV (`nebula-crossbar`'s `kernel` module), the
//! kernel body is `#[inline(always)]` and compiled twice: for the target's
//! baseline ISA and under `#[target_feature(enable = "avx2")]`. The first
//! call probes the host with `is_x86_feature_detected!` (x86-64 only) and
//! later calls take the chosen build. The builds cannot disagree: rustc
//! never contracts `a*b + c` into an FMA and never re-associates floating
//! point, so wider registers change instruction selection, not bits.
//!
//! # Determinism contract
//!
//! Every output element is one running `f32` accumulator, starting from
//! the caller's `+0.0` and updated `acc = acc + a·b` in ascending-`k`
//! order, on both paths and for any tiling: each `KC` block loads the
//! current output values, continues the chain and stores them back. Dense
//! results are therefore **bit-identical** to the naive no-skip reference
//! ([`matmul_reference`]) for any row partition — which keeps the
//! row-partitioned [`par::matmul`](crate::par::matmul) bit-identical to
//! the sequential product for any worker count. The sparse walk skips
//! `a == 0.0` terms; with finite B each skipped term is a signed zero, and
//! a chain that starts at `+0.0` is never changed by adding one (`+0.0 +
//! −0.0 == +0.0` in round-to-nearest), so both paths give the same bits.
//! Only an infinite or NaN B entry meeting a zero A entry on a sparse row
//! can differ (the skip drops the `0·∞ = NaN` term).

use std::ops::Range;

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Zero fraction of an A row at or above which the zero-skipping sparse
/// walk beats the register-tiled dense kernel: nearly-silent spike rows
/// (≥ 98% zeros) run the walk several times faster, while on mixed rows
/// the skip branch mispredicts.
pub const SPARSE_ROW_THRESHOLD: f64 = 0.9;

/// Depth of one `k` block: the accumulators stay in registers across it,
/// and the `KC × n` slice of B it reads stays cache-resident while every
/// row tile walks it.
const KC: usize = 256;
/// Rows of one register tile.
const MR: usize = 4;
/// Columns of one register tile (two 8-lane AVX2 registers per row).
const NR: usize = 16;

/// Naive no-skip reference product `a · b`, pinned as the bit-identity
/// anchor for the tiled kernel: every output element is accumulated in
/// ascending-`k` order with a single running `f32` accumulator and no
/// zero skipping. Slow by construction — use it in tests and benches
/// only.
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul`]: both operands must be rank-2
/// with agreeing inner dimensions.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = check_nn(a, b)?;
    let mut out = vec![0.0f32; m * n];
    for (i, out_row) in out.chunks_mut(n.max(1)).enumerate().take(m) {
        let a_row = &a.data()[i * k..(i + 1) * k];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b.data()[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Validates an `a · b` product and returns `(m, k, n)`.
pub(crate) fn check_nn(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    check_rank2(a, b, "matmul")?;
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "matmul",
        });
    }
    Ok((m, k, n))
}

/// Validates an `aᵀ · b` product (`a` stored `[k, m]`) and returns
/// `(m, k, n)`.
pub(crate) fn check_tn(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    check_rank2(a, b, "matmul_tn")?;
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "matmul_tn",
        });
    }
    Ok((m, k, n))
}

fn check_rank2(a: &Tensor, b: &Tensor, op: &'static str) -> Result<(), TensorError> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.rank() != 2 { a.rank() } else { b.rank() },
            op,
        });
    }
    Ok(())
}

/// How the kernel reads A: logical element `(i, kk)` is
/// `a[i * row + kk * depth]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Strides {
    row: usize,
    depth: usize,
}

impl Strides {
    /// A stored row-major `[m, k]`: the `A·B` product.
    pub(crate) fn nn(k: usize) -> Self {
        Self { row: k, depth: 1 }
    }

    /// A stored `[k, m]`: the `Aᵀ·B` product.
    pub(crate) fn tn(m: usize) -> Self {
        Self { row: 1, depth: m }
    }
}

/// The production GEMM: computes output rows
/// `row0..row0 + out_rows.len()/n` of `A · b` into `out_rows`
/// (zero-initialized by the caller), where A is `a` read through
/// `strides`. Shared by the sequential [`Tensor::matmul`] and the
/// row-partitioned [`par`](crate::par) products, so any partition produces
/// identical results (row classification and per-row accumulation depend
/// only on the row itself). Runs the AVX2 build when the host has it, else
/// the portable one; both compile the same source and give the same bits.
pub(crate) fn gemm(
    a: &[f32],
    strides: Strides,
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host reports AVX2.
        return unsafe { gemm_avx2(a, strides, b, k, n, row0, out_rows) };
    }
    gemm_portable(a, strides, b, k, n, row0, out_rows)
}

/// [`gemm`] compiled for the build target's baseline ISA.
pub(crate) fn gemm_portable(
    a: &[f32],
    strides: Strides,
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    gemm_body(a, strides, b, k, n, row0, out_rows)
}

/// [`gemm`] compiled with AVX2 enabled: the same source, wider registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(
    a: &[f32],
    strides: Strides,
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    gemm_body(a, strides, b, k, n, row0, out_rows)
}

/// The one GEMM source both builds inline: classifies the rows, finishes
/// sparse rows with the skip walk, then runs the dense rows through the
/// register tiles one `KC` block of `k` at a time.
#[inline(always)]
fn gemm_body(
    a: &[f32],
    strides: Strides,
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    if n == 0 || k == 0 || out_rows.is_empty() {
        return;
    }
    debug_assert_eq!(out_rows.len() % n, 0);
    let rows = out_rows.len() / n;
    // One classification pass: sparse rows are finished immediately with
    // the skip walk; dense rows are queued for the tiles. The nonzero
    // count short-circuits per 32-long block (each block counted
    // branch-free), so a dense row is classified as soon as its count
    // passes the limit. The decision depends only on the row itself,
    // keeping any row partition's results identical.
    let limit = (k as f64 * (1.0 - SPARSE_ROW_THRESHOLD)) as usize;
    let mut dense: Vec<usize> = Vec::with_capacity(rows);
    for local in 0..rows {
        let base = (row0 + local) * strides.row;
        let mut nonzeros = 0usize;
        let mut kk = 0;
        while kk < k && nonzeros <= limit {
            let end = (kk + 32).min(k);
            nonzeros += (kk..end)
                .filter(|&t| a[base + t * strides.depth] != 0.0)
                .count();
            kk = end;
        }
        if nonzeros <= limit {
            sparse_row(
                a,
                base,
                strides.depth,
                b,
                k,
                n,
                &mut out_rows[local * n..][..n],
            );
        } else {
            dense.push(local);
        }
    }
    // Whichever operand block is smaller stays in L1 while the other
    // streams past it: with fewer dense rows than columns, every row tile
    // walks one `NR`-column panel of B before the next; otherwise each row
    // tile walks every column. Tiles are independent, so the order
    // changes no bits.
    let panel = if dense.len() < n { NR } else { n };
    for kc0 in (0..k).step_by(KC) {
        let depth = kc0..(kc0 + KC).min(k);
        for col0 in (0..n).step_by(panel) {
            let cols = col0..(col0 + panel).min(n);
            let mut tiles = dense.chunks_exact(MR);
            for tile in tiles.by_ref() {
                let rows: [usize; MR] = std::array::from_fn(|r| tile[r]);
                let tile = Tile::new(a, strides, row0, b, n, rows);
                tile.columns(cols.clone(), depth.clone(), out_rows);
            }
            for &local in tiles.remainder() {
                let tile = Tile::new(a, strides, row0, b, n, [local]);
                tile.columns(cols.clone(), depth.clone(), out_rows);
            }
        }
    }
}

/// Zero-skipping walk for one mostly-silent A row whose elements sit at
/// `a[base + kk * depth]`.
#[inline(always)]
fn sparse_row(
    a: &[f32],
    base: usize,
    depth: usize,
    b: &[f32],
    k: usize,
    n: usize,
    out_row: &mut [f32],
) {
    for kk in 0..k {
        let av = a[base + kk * depth];
        if av == 0.0 {
            continue;
        }
        for (o, &bv) in out_row.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
            *o += av * bv;
        }
    }
}

/// One row tile's operands: `R` A rows starting at `a_base[r]` (stepping
/// `a_depth` per `k`), row-major B with `n` columns, and the tile's output
/// rows starting at `out_base[r]`.
struct Tile<'a, const R: usize> {
    a: &'a [f32],
    a_base: [usize; R],
    a_depth: usize,
    b: &'a [f32],
    n: usize,
    out_base: [usize; R],
}

impl<'a, const R: usize> Tile<'a, R> {
    /// The tile of the `R` dense rows `rows` (local indices of the output
    /// window that starts at A row `row0`).
    #[inline(always)]
    fn new(
        a: &'a [f32],
        strides: Strides,
        row0: usize,
        b: &'a [f32],
        n: usize,
        rows: [usize; R],
    ) -> Self {
        Self {
            a,
            a_base: rows.map(|local| (row0 + local) * strides.row),
            a_depth: strides.depth,
            b,
            n,
            out_base: rows.map(|local| local * n),
        }
    }

    /// Runs the tile over the `k` range `depth` for the columns `cols`:
    /// full `NR`-wide tiles, then one tile of each narrower power-of-two
    /// width the remainder needs.
    #[inline(always)]
    fn columns(&self, cols: Range<usize>, depth: Range<usize>, out: &mut [f32]) {
        let mut col = cols.start;
        while col + NR <= cols.end {
            self.run::<NR>(col, depth.clone(), out);
            col += NR;
        }
        if col + 8 <= cols.end {
            self.run::<8>(col, depth.clone(), out);
            col += 8;
        }
        if col + 4 <= cols.end {
            self.run::<4>(col, depth.clone(), out);
            col += 4;
        }
        if col + 2 <= cols.end {
            self.run::<2>(col, depth.clone(), out);
            col += 2;
        }
        if col < cols.end {
            self.run::<1>(col, depth, out);
        }
    }

    /// `out[r][col..col + W] += Σ_{kk ∈ depth} a[r][kk] · b[kk][col..col + W]`
    /// with the `R × W` accumulators held in a local array (registers)
    /// across the whole `depth` run, each element's chain in ascending
    /// `kk`.
    #[inline(always)]
    fn run<const W: usize>(&self, col: usize, depth: Range<usize>, out: &mut [f32]) {
        let mut acc = [[0.0f32; W]; R];
        for (acc_row, &base) in acc.iter_mut().zip(&self.out_base) {
            acc_row.copy_from_slice(&out[base + col..][..W]);
        }
        for kk in depth {
            let b_row: &[f32; W] = self.b[kk * self.n + col..][..W]
                .try_into()
                .expect("W columns");
            let a_at = kk * self.a_depth;
            for (acc_row, &base) in acc.iter_mut().zip(&self.a_base) {
                let av = self.a[base + a_at];
                for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        for (acc_row, &base) in acc.iter().zip(&self.out_base) {
            out[base + col..][..W].copy_from_slice(acc_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A GEMM build under test: `(a, strides, b, k, n, row0, out)`.
    type Build = fn(&[f32], Strides, &[f32], usize, usize, usize, &mut [f32]);

    /// The dispatched entry, the portable build and (on an AVX2 host) the
    /// AVX2 build by name — the suite must reach the portable build even
    /// where dispatch always picks AVX2.
    fn builds() -> Vec<(&'static str, Build)> {
        #[allow(unused_mut)]
        let mut builds: Vec<(&'static str, Build)> =
            vec![("dispatch", gemm), ("portable", gemm_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            builds.push(("avx2", |a, s, b, k, n, r, o| {
                // SAFETY: the host reports AVX2.
                unsafe { gemm_avx2(a, s, b, k, n, r, o) }
            }));
        }
        builds
    }

    /// xorshift64* stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// `len` values in `[-1, 1)`, each exactly zero with probability
    /// `zero_pct` %, and (when `specials`) one in eight replaced by
    /// `±∞` or NaN.
    fn values(len: usize, seed: u64, zero_pct: u64, specials: bool) -> Vec<f32> {
        let mut next = stream(seed);
        (0..len)
            .map(|_| {
                let bits = next();
                if bits % 100 < zero_pct {
                    0.0
                } else if specials && (bits >> 8).is_multiple_of(8) {
                    [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(bits >> 16) as usize % 3]
                } else {
                    ((bits >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                }
            })
            .collect()
    }

    /// Bitwise equality, except that any two NaNs match (the payload of a
    /// NaN sum depends on operand order inside one instruction, which the
    /// contract does not pin).
    fn same_bits(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Runs every build on `a` (logical `[m, k]`, stored per `tn`) and
    /// checks each output row against the reference, bitwise.
    fn check(m: usize, k: usize, n: usize, zero_pct: u64, specials: bool, seed: u64) {
        let a_logical = values(m * k, seed, zero_pct, false);
        let b = values(k * n, seed ^ 0xB, 0, specials);
        let at = Tensor::from_vec(a_logical.clone(), &[m, k]).unwrap();
        let bt = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
        let expect = matmul_reference(&at, &bt).unwrap();
        let a_stored_tn = at.transpose().unwrap();
        for (name, build) in builds() {
            for tn in [false, true] {
                let (a, strides) = if tn {
                    (a_stored_tn.data(), Strides::tn(m))
                } else {
                    (at.data(), Strides::nn(k))
                };
                // Two row windows, as a two-worker partition would call.
                let mut out = vec![0.0f32; m * n];
                let split = m / 2;
                let (lo, hi) = out.split_at_mut(split * n);
                build(a, strides, &b, k, n, 0, lo);
                build(a, strides, &b, k, n, split, hi);
                for (i, (x, y)) in out.iter().zip(expect.data()).enumerate() {
                    let row = &a_logical[i / n.max(1) * k..][..k];
                    // A sparse row skips `0 · ∞`; only dense rows and
                    // finite B are held to the no-skip reference.
                    let nonzeros = row.iter().filter(|&&v| v != 0.0).count();
                    let sparse = nonzeros <= (k as f64 * (1.0 - SPARSE_ROW_THRESHOLD)) as usize;
                    if specials && sparse {
                        continue;
                    }
                    assert!(
                        same_bits(*x, *y),
                        "{name} tn={tn} m={m} k={k} n={n} zero={zero_pct}% at {i}: \
                         {x} ({:08x}) vs {y} ({:08x})",
                        x.to_bits(),
                        y.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn every_build_matches_the_reference_across_tile_edges() {
        // Rows around MR, columns around NR and its narrower widths,
        // depths across one and two KC blocks.
        for m in [1, MR - 1, MR, MR + 1, 2 * MR + 3] {
            for n in [1, 2, 3, 7, 8, NR - 1, NR, NR + 1, 2 * NR + 11] {
                for k in [1, 5, KC, KC + 3] {
                    check(m, k, n, 0, false, (m * 1000 + n * 10 + k) as u64);
                }
            }
        }
    }

    #[test]
    fn zero_heavy_rows_match_the_reference_bitwise() {
        for zero_pct in [50, 85, 90, 95, 100] {
            for (m, k, n) in [(6, 200, 40), (9, KC + 40, NR + 5), (5, 31, 3)] {
                check(m, k, n, zero_pct, false, zero_pct + m as u64);
            }
        }
    }

    #[test]
    fn non_finite_b_propagates_like_the_reference_on_dense_rows() {
        for (m, k, n) in [(5, 9, NR + 3), (MR, KC + 2, 2 * NR), (3, 40, 7)] {
            for zero_pct in [0, 20] {
                check(m, k, n, zero_pct, true, (m + k + n) as u64);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn every_build_matches_the_reference_bitwise(
            m in 1usize..3 * MR + 2,
            k in 1usize..KC + 40,
            n in 1usize..3 * NR + 2,
            zero_pct in 0u64..101,
            specials in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            check(m, k, n, zero_pct, specials == 1, seed);
        }
    }

    #[test]
    fn all_zero_rows_stay_exactly_zero() {
        let a = Tensor::zeros(&[4, 64]);
        let b = Tensor::from_vec(values(64 * 32, 5, 0, false), &[64, 32]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.data().iter().all(|v| v.to_bits() == 0), "exact +0.0 out");
    }

    #[test]
    fn degenerate_shapes_do_not_panic() {
        for (m, k, n) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let a = Tensor::zeros(&[m, k]);
            let b = Tensor::zeros(&[k, n]);
            let c = a.matmul(&b).unwrap();
            assert_eq!(c.shape(), &[m, n]);
            let r = matmul_reference(&a, &b).unwrap();
            assert_eq!(r.shape(), &[m, n]);
        }
    }
}
