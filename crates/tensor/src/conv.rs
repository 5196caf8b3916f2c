//! Convolution, pooling and the im2col/col2im lowering.
//!
//! NEBULA maps a convolution kernel of receptive field
//! `R_f = K_H × K_W × C` onto crossbar columns by flattening it (paper
//! Fig. 5); `im2col` is the software twin of that mapping, turning
//! convolution into the matrix product the crossbars physically compute.
//!
//! All image tensors are `[N, C, H, W]` (batch, channels, height, width),
//! weights are `[OC, IC, K_H, K_W]`, row-major.

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Spatial geometry of a convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeometry {
    /// A square kernel with stride 1 and "same"-preserving padding
    /// `k / 2`.
    pub fn same(k: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride: 1,
            pad: k / 2,
        }
    }

    /// A square kernel with explicit stride and padding.
    pub fn new(k: usize, stride: usize, pad: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// Output spatial size for an input of extent `dim` under this
    /// geometry, or an error when the window does not fit.
    pub fn out_dim(&self, dim: usize, k: usize) -> Result<usize, TensorError> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "stride must be nonzero".to_string(),
            });
        }
        let padded = dim + 2 * self.pad;
        if padded < k {
            return Err(TensorError::InvalidGeometry {
                reason: format!("kernel {k} larger than padded input {padded}"),
            });
        }
        Ok((padded - k) / self.stride + 1)
    }

    /// Output `(height, width)` for an input `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize), TensorError> {
        Ok((self.out_dim(h, self.kh)?, self.out_dim(w, self.kw)?))
    }
}

fn expect_rank(t: &Tensor, rank: usize, op: &'static str) -> Result<(), TensorError> {
    if t.rank() != rank {
        return Err(TensorError::RankMismatch {
            expected: rank,
            actual: t.rank(),
            op,
        });
    }
    Ok(())
}

/// Lowers image patches to rows: output is
/// `[N·OH·OW, C·KH·KW]`, one flattened receptive field per row —
/// the exact vector a NEBULA crossbar column receives. A patch whose
/// window lies inside the image horizontally copies each kernel row as
/// `kw` contiguous values; only border patches test every tap.
///
/// # Errors
///
/// Returns an error when `input` is not rank 4 or the geometry does not
/// fit.
pub fn im2col(input: &Tensor, geom: ConvGeometry) -> Result<Tensor, TensorError> {
    expect_rank(input, 4, "im2col")?;
    let [n, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let (oh, ow) = geom.out_hw(h, w)?;
    let (kh, kw) = (geom.kh, geom.kw);
    let cols_per_row = c * kh * kw;
    let mut out = vec![0.0f32; n * oh * ow * cols_per_row];
    let plane = h * w;
    if cols_per_row == 0 || plane == 0 {
        // No taps, or every tap is padding.
        return Tensor::from_vec(out, &[n * oh * ow, cols_per_row]);
    }
    let data = input.data();
    for (row, out_row) in out.chunks_exact_mut(cols_per_row).enumerate() {
        // Decompose the flat patch-row index back into (img, oy, ox).
        let (img, rem) = (row / (oh * ow), row % (oh * ow));
        let image = &data[img * c * plane..][..c * plane];
        let y0 = (rem / ow * geom.stride) as isize - geom.pad as isize;
        let x0 = (rem % ow * geom.stride) as isize - geom.pad as isize;
        let interior = x0 >= 0 && x0 as usize + kw <= w;
        for (ch_taps, channel) in out_row
            .chunks_exact_mut(kh * kw)
            .zip(image.chunks_exact(plane))
        {
            for (ky, taps) in ch_taps.chunks_exact_mut(kw).enumerate() {
                let iy = y0 + ky as isize;
                if iy < 0 || iy as usize >= h {
                    continue;
                }
                let src = &channel[iy as usize * w..][..w];
                if interior {
                    taps.copy_from_slice(&src[x0 as usize..][..kw]);
                } else {
                    for (kx, t) in taps.iter_mut().enumerate() {
                        let ix = x0 + kx as isize;
                        if ix >= 0 && (ix as usize) < w {
                            *t = src[ix as usize];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n * oh * ow, cols_per_row])
}

/// Lowers one `[C, H, W]` image to rows `taps` of its *transposed* patch
/// matrix `[C·KH·KW, OH·OW]` (row `(ch·KH + ky)·KW + kx` holds tap
/// `(ch, ky, kx)` of every patch, in output order), writing every element
/// of `out` (padded taps are `0.0`). Row `t` of this matrix is column `t`
/// of the image's [`im2col`] rows, value for value. Each tap row is built
/// from contiguous input row segments clipped to the image once.
pub(crate) fn im2col_image_t(
    image: &[f32],
    [h, w]: [usize; 2],
    [oh, ow]: [usize; 2],
    geom: ConvGeometry,
    taps: std::ops::Range<usize>,
    out: &mut [f32],
) {
    let (kh, kw, stride, pad) = (geom.kh, geom.kw, geom.stride, geom.pad);
    let spatial = oh * ow;
    if spatial == 0 {
        return;
    }
    for (t, row) in taps.zip(out.chunks_exact_mut(spatial)) {
        let (ch, ky, kx) = (t / (kh * kw), t / kw % kh, t % kw);
        let channel = &image[ch * h * w..][..h * w];
        let cols = tap_columns(geom, w, ow, kx);
        for (oy, dst) in row.chunks_exact_mut(ow).enumerate() {
            let iy = (oy * stride + ky) as isize - pad as isize;
            if iy < 0 || iy as usize >= h || cols.is_empty() {
                dst.fill(0.0);
                continue;
            }
            let src = &channel[iy as usize * w..][..w];
            let x_first = cols.start * stride + kx - pad;
            dst[..cols.start].fill(0.0);
            if stride == 1 {
                dst[cols.clone()].copy_from_slice(&src[x_first..][..cols.len()]);
            } else {
                for (d, &v) in dst[cols.clone()]
                    .iter_mut()
                    .zip(src[x_first..].iter().step_by(stride))
                {
                    *d = v;
                }
            }
            dst[cols.end..].fill(0.0);
        }
    }
}

/// Output columns `ox` whose tap `kx` lands inside an image of width `w`:
/// `0 ≤ ox·stride + kx − pad < w`.
fn tap_columns(geom: ConvGeometry, w: usize, ow: usize, kx: usize) -> std::ops::Range<usize> {
    let first = geom.pad.saturating_sub(kx).div_ceil(geom.stride).min(ow);
    let end = (w + geom.pad)
        .saturating_sub(kx)
        .div_ceil(geom.stride)
        .min(ow);
    first..end.max(first)
}

/// Scatter-adds one image's patch gradients into its input gradient:
/// `patch_grads` is the image's `[C·KH·KW, OH·OW]` patch-gradient matrix
/// (the transpose of its rows of `col2im`'s input) and `image` its
/// `[C, H, W]` gradient. Gives [`col2im`]'s bits: `col2im` adds patch rows
/// in ascending order, so each input element receives its terms in
/// ascending output position; here every tap adds its whole
/// `[OH, OW]` plane at once, and the taps of a channel run from the last
/// `(ky, kx)` to the first — for one input element, a later tap means an
/// earlier output position, so the terms arrive in the same order. Each
/// tap's plane adds row segments clipped to the image once, with no
/// per-element bounds test.
pub(crate) fn col2im_image(
    patch_grads: &[f32],
    [c, h, w]: [usize; 3],
    [oh, ow]: [usize; 2],
    geom: ConvGeometry,
    image: &mut [f32],
) {
    let (kh, kw, stride, pad) = (geom.kh, geom.kw, geom.stride, geom.pad);
    let spatial = oh * ow;
    if spatial == 0 || h * w == 0 {
        return;
    }
    for (ch_grads, channel) in patch_grads
        .chunks_exact(kh * kw * spatial)
        .zip(image.chunks_exact_mut(h * w))
        .take(c)
    {
        for ky in (0..kh).rev() {
            for kx in (0..kw).rev() {
                let tap = &ch_grads[(ky * kw + kx) * spatial..][..spatial];
                let cols = tap_columns(geom, w, ow, kx);
                if cols.is_empty() {
                    continue;
                }
                let x_first = cols.start * stride + kx - pad;
                for (oy, grads) in tap.chunks_exact(ow).enumerate() {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let dst = &mut channel[iy as usize * w..][..w];
                    let src = &grads[cols.clone()];
                    if stride == 1 {
                        for (d, &g) in dst[x_first..][..src.len()].iter_mut().zip(src) {
                            *d += g;
                        }
                    } else {
                        for (d, &g) in dst[x_first..].iter_mut().step_by(stride).zip(src) {
                            *d += g;
                        }
                    }
                }
            }
        }
    }
}

/// Inverse of [`im2col`] for gradients: scatters (accumulating) patch rows
/// back into an image of shape `[n, c, h, w]`.
///
/// # Errors
///
/// Returns an error when `cols` does not have the shape `im2col` would
/// have produced for this geometry.
pub fn col2im(cols: &Tensor, shape: [usize; 4], geom: ConvGeometry) -> Result<Tensor, TensorError> {
    expect_rank(cols, 2, "col2im")?;
    let [n, c, h, w] = shape;
    let (oh, ow) = geom.out_hw(h, w)?;
    let cols_per_row = c * geom.kh * geom.kw;
    if cols.shape() != [n * oh * ow, cols_per_row] {
        return Err(TensorError::ShapeMismatch {
            left: cols.shape().to_vec(),
            right: vec![n * oh * ow, cols_per_row],
            op: "col2im",
        });
    }
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let data = cols.data();
    let (ih_stride, ic_stride, in_stride) = (w, h * w, c * h * w);
    let out_data = out.data_mut();
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((img * oh + oy) * ow + ox) * cols_per_row;
                let mut col = 0;
                for ch in 0..c {
                    for ky in 0..geom.kh {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        for kx in 0..geom.kw {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                out_data[img * in_stride
                                    + ch * ic_stride
                                    + iy as usize * ih_stride
                                    + ix as usize] += data[row + col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Dense 2-D convolution: input `[N, C, H, W]`, weight `[OC, C, KH, KW]`,
/// optional bias `[OC]`, output `[N, OC, OH, OW]`.
///
/// # Errors
///
/// Returns an error on rank/shape disagreements or impossible geometry.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor, TensorError> {
    let dims = conv2d_check(input, weight, bias, geom)?;
    let cols = im2col(input, geom)?; // [N*OH*OW, C*KH*KW]
    let wmat = conv2d_weight_matrix(weight, dims)?; // [CKK, OC]
    let prod = cols.matmul(&wmat)?; // [N*OH*OW, OC]
    Ok(conv2d_assemble(&prod, bias, dims))
}

/// Validated dimensions of a dense conv2d, shared by the sequential and
/// parallel front ends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Conv2dDims {
    pub n: usize,
    pub oc: usize,
    pub oh: usize,
    pub ow: usize,
}

/// Rank/shape/geometry validation for [`conv2d`]; returns the resolved
/// dimensions without touching any data.
pub(crate) fn conv2d_check(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Conv2dDims, TensorError> {
    expect_rank(input, 4, "conv2d")?;
    expect_rank(weight, 4, "conv2d weight")?;
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (oc, wc, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    if wc != c || kh != geom.kh || kw != geom.kw {
        return Err(TensorError::ShapeMismatch {
            left: weight.shape().to_vec(),
            right: vec![oc, c, geom.kh, geom.kw],
            op: "conv2d",
        });
    }
    if let Some(b) = bias {
        if b.shape() != [oc] {
            return Err(TensorError::ShapeMismatch {
                left: b.shape().to_vec(),
                right: vec![oc],
                op: "conv2d bias",
            });
        }
    }
    let (oh, ow) = geom.out_hw(h, w)?;
    Ok(Conv2dDims { n, oc, oh, ow })
}

/// Flattens `[OC, C, KH, KW]` weights to the `[C·KH·KW, OC]` matrix the
/// im2col product multiplies against.
pub(crate) fn conv2d_weight_matrix(
    weight: &Tensor,
    dims: Conv2dDims,
) -> Result<Tensor, TensorError> {
    let ckk = weight.shape()[1] * weight.shape()[2] * weight.shape()[3];
    weight.reshape(&[dims.oc, ckk])?.transpose()
}

/// Permutes the `[N·OH·OW, OC]` im2col product to `[N, OC, OH, OW]`,
/// adding bias on the way — the common tail of the sequential and
/// parallel conv2d paths.
pub(crate) fn conv2d_assemble(prod: &Tensor, bias: Option<&Tensor>, dims: Conv2dDims) -> Tensor {
    let Conv2dDims { n, oc, oh, ow, .. } = dims;
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let src = prod.data();
    let dst = out.data_mut();
    let spatial = oh * ow;
    for img in 0..n {
        for s in 0..spatial {
            let src_row = (img * spatial + s) * oc;
            for o in 0..oc {
                let b = bias.map_or(0.0, |bb| bb.data()[o]);
                dst[img * oc * spatial + o * spatial + s] = src[src_row + o] + b;
            }
        }
    }
    out
}

/// Depthwise 2-D convolution (MobileNet's separable-conv building block):
/// input `[N, C, H, W]`, weight `[C, 1, KH, KW]`, output `[N, C, OH, OW]`.
///
/// # Errors
///
/// Returns an error on rank/shape disagreements or impossible geometry.
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor, TensorError> {
    expect_rank(input, 4, "depthwise_conv2d")?;
    expect_rank(weight, 4, "depthwise_conv2d weight")?;
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    if weight.shape() != [c, 1, geom.kh, geom.kw] {
        return Err(TensorError::ShapeMismatch {
            left: weight.shape().to_vec(),
            right: vec![c, 1, geom.kh, geom.kw],
            op: "depthwise_conv2d",
        });
    }
    if let Some(b) = bias {
        if b.shape() != [c] {
            return Err(TensorError::ShapeMismatch {
                left: b.shape().to_vec(),
                right: vec![c],
                op: "depthwise_conv2d bias",
            });
        }
    }
    let (oh, ow) = geom.out_hw(h, w)?;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let src = input.data();
    let wdat = weight.data();
    let dst = out.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let in_base = (img * c + ch) * h * w;
            let w_base = ch * geom.kh * geom.kw;
            let out_base = (img * c + ch) * oh * ow;
            let b = bias.map_or(0.0, |bb| bb.data()[ch]);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ky in 0..geom.kh {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..geom.kw {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            acc += src[in_base + iy as usize * w + ix as usize]
                                * wdat[w_base + ky * geom.kw + kx];
                        }
                    }
                    dst[out_base + oy * ow + ox] = acc;
                }
            }
        }
    }
    Ok(out)
}

/// Average pooling with a `k×k` window and stride `k` (the
/// non-overlapping pooling the ANN→SNN conversion requires):
/// `[N, C, H, W] → [N, C, H/k, W/k]`.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or a window that does not fit.
pub fn avg_pool2d(input: &Tensor, k: usize) -> Result<Tensor, TensorError> {
    pool2d(input, k, PoolKind::Average)
}

/// Max pooling with a `k×k` window and stride `k`. Provided for
/// completeness (the paper trains with *average* pooling because max
/// pooling loses information under binary spike encoding).
///
/// # Errors
///
/// Returns an error for non-rank-4 input or a window that does not fit.
pub fn max_pool2d(input: &Tensor, k: usize) -> Result<Tensor, TensorError> {
    pool2d(input, k, PoolKind::Max)
}

#[derive(Clone, Copy)]
enum PoolKind {
    Average,
    Max,
}

fn pool2d(input: &Tensor, k: usize, kind: PoolKind) -> Result<Tensor, TensorError> {
    expect_rank(input, 4, "pool2d")?;
    if k == 0 {
        return Err(TensorError::InvalidGeometry {
            reason: "pool window must be nonzero".to_string(),
        });
    }
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    if h % k != 0 || w % k != 0 {
        return Err(TensorError::InvalidGeometry {
            reason: format!("pool window {k} does not divide input {h}×{w}"),
        });
    }
    let mut out = Tensor::zeros(&[n, c, h / k, w / k]);
    if out.is_empty() {
        return Ok(out);
    }
    let (src, dst) = (input.data(), out.data_mut());
    let inv = 1.0 / (k * k) as f32;
    match kind {
        PoolKind::Average if k == 2 => avg_pool_2x2(src, w, inv, dst),
        PoolKind::Average => pool_windows(src, [h, w], k, dst, 0.0, |a, v| a + v, |a| a * inv),
        PoolKind::Max => pool_windows(src, [h, w], k, dst, f32::NEG_INFINITY, f32::max, |a| a),
    }
    Ok(out)
}

/// Pools every `k×k` window of the `[h, w]` planes in `src` into `dst`:
/// `finish(fold(…fold(init, v₀₀)…, v_{k−1,k−1}))`, the window read
/// row by row.
#[inline(always)]
fn pool_windows(
    src: &[f32],
    [h, w]: [usize; 2],
    k: usize,
    dst: &mut [f32],
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) {
    let ow = w / k;
    for (plane, out) in src
        .chunks_exact(h * w)
        .zip(dst.chunks_exact_mut(h / k * ow))
    {
        for (rows, out_row) in plane.chunks_exact(k * w).zip(out.chunks_exact_mut(ow)) {
            for (ox, o) in out_row.iter_mut().enumerate() {
                let mut acc = init;
                for row in rows.chunks_exact(w) {
                    for &v in &row[ox * k..(ox + 1) * k] {
                        acc = fold(acc, v);
                    }
                }
                *o = finish(acc);
            }
        }
    }
}

/// The 2×2 average pool as straight adds over each pair of input rows:
/// `(0.0 + v00 + v01 + v10 + v11) · inv`, the order [`pool_windows`]
/// adds a window in (the leading `0.0 +` turns a `−0.0` sum into
/// `+0.0`, as there).
fn avg_pool_2x2(src: &[f32], w: usize, inv: f32, dst: &mut [f32]) {
    for (rows, out) in src.chunks_exact(2 * w).zip(dst.chunks_exact_mut(w / 2)) {
        let (top, bottom) = rows.split_at(w);
        for ((o, t), b) in out
            .iter_mut()
            .zip(top.chunks_exact(2))
            .zip(bottom.chunks_exact(2))
        {
            *o = (0.0 + t[0] + t[1] + b[0] + b[1]) * inv;
        }
    }
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient equally
/// over its `k×k` input window.
///
/// # Errors
///
/// Returns an error when `grad_out`'s shape is not the pooled shape of
/// `input_shape`.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    input_shape: [usize; 4],
    k: usize,
) -> Result<Tensor, TensorError> {
    expect_rank(grad_out, 4, "avg_pool2d_backward")?;
    if k == 0 {
        return Err(TensorError::InvalidGeometry {
            reason: "pool window must be nonzero".to_string(),
        });
    }
    let [n, c, h, w] = input_shape;
    if grad_out.shape() != [n, c, h / k, w / k] {
        return Err(TensorError::ShapeMismatch {
            left: grad_out.shape().to_vec(),
            right: vec![n, c, h / k, w / k],
            op: "avg_pool2d_backward",
        });
    }
    let (oh, ow) = (h / k, w / k);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    if oh * ow == 0 {
        return Ok(out);
    }
    let inv = 1.0 / (k * k) as f32;
    // Each gradient row fills the first of its k input rows, k values
    // per gradient, and the other k − 1 rows copy it.
    let planes = grad_out.data().chunks_exact(oh * ow);
    for (g_plane, d_plane) in planes.zip(out.data_mut().chunks_exact_mut(h * w)) {
        for (g_row, d_rows) in g_plane
            .chunks_exact(ow)
            .zip(d_plane.chunks_exact_mut(k * w))
        {
            let (first, rest) = d_rows.split_at_mut(w);
            for (&g, window) in g_row.iter().zip(first.chunks_exact_mut(k)) {
                window.fill(g * inv);
            }
            for row in rest.chunks_exact_mut(w) {
                row.copy_from_slice(first);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), shape).unwrap()
    }

    #[test]
    fn out_dim_formula() {
        let g = ConvGeometry::new(3, 1, 1);
        assert_eq!(g.out_hw(8, 8).unwrap(), (8, 8)); // "same" padding
        let g2 = ConvGeometry::new(3, 2, 0);
        assert_eq!(g2.out_hw(7, 7).unwrap(), (3, 3));
        assert!(ConvGeometry::new(5, 1, 0).out_hw(3, 3).is_err());
        assert!(ConvGeometry {
            kh: 3,
            kw: 3,
            stride: 0,
            pad: 0
        }
        .out_hw(8, 8)
        .is_err());
    }

    #[test]
    fn im2col_extracts_expected_patch() {
        // 1 image, 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad.
        let x = seq_tensor(&[1, 1, 3, 3]);
        let g = ConvGeometry::new(2, 1, 0);
        let cols = im2col(&x, g).unwrap();
        assert_eq!(cols.shape(), &[4, 4]);
        // First patch is the top-left 2x2 block: 0 1 / 3 4.
        assert_eq!(&cols.data()[0..4], &[0.0, 1.0, 3.0, 4.0]);
        // Last patch is the bottom-right block: 4 5 / 7 8.
        assert_eq!(&cols.data()[12..16], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_matches_the_per_tap_loop_on_every_geometry() {
        for (n, c, h, w) in [(2, 3, 7, 5), (1, 2, 1, 1), (1, 1, 4, 9)] {
            let x = seq_tensor(&[n, c, h, w]).map(|v| v - 20.0);
            for k in 1..=4 {
                for stride in 1..=3 {
                    for pad in 0..=2 {
                        let g = ConvGeometry::new(k, stride, pad);
                        let Ok((oh, ow)) = g.out_hw(h, w) else {
                            continue;
                        };
                        let cols = im2col(&x, g).unwrap();
                        let mut expect = Vec::new();
                        for img in 0..n {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    for ch in 0..c {
                                        for ky in 0..k {
                                            for kx in 0..k {
                                                let iy = (oy * stride + ky) as isize - pad as isize;
                                                let ix = (ox * stride + kx) as isize - pad as isize;
                                                let inside = iy >= 0
                                                    && (iy as usize) < h
                                                    && ix >= 0
                                                    && (ix as usize) < w;
                                                expect.push(if inside {
                                                    x.at(&[img, ch, iy as usize, ix as usize])
                                                } else {
                                                    0.0
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        assert_eq!(cols.data(), &expect[..], "{g:?} on {h}×{w}");
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_zero_pads_the_border() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = ConvGeometry::new(3, 1, 1);
        let cols = im2col(&x, g).unwrap();
        assert_eq!(cols.shape(), &[4, 9]);
        // Top-left output: the 3x3 window centered at (0,0) has 5 padded
        // zeros and 4 ones.
        let first: f32 = cols.data()[0..9].iter().sum();
        assert_eq!(first, 4.0);
    }

    #[test]
    fn conv2d_identity_kernel_preserves_input() {
        let x = seq_tensor(&[1, 1, 4, 4]);
        // 1x1 kernel of weight 1.0 = identity.
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let g = ConvGeometry::new(1, 1, 0);
        let y = conv2d(&x, &w, None, g).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_matches_hand_computation() {
        // 2x2 input, 2x2 kernel, valid conv = dot product.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let w = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[1, 1, 2, 2]).unwrap();
        let g = ConvGeometry::new(2, 1, 0);
        let y = conv2d(&x, &w, None, g).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 10.0 + 40.0 + 90.0 + 160.0);
    }

    #[test]
    fn conv2d_bias_is_added_per_channel() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![5.0, -1.0], &[2]).unwrap();
        let g = ConvGeometry::new(1, 1, 0);
        let y = conv2d(&x, &w, Some(&b), g).unwrap();
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        assert!(y.data()[0..4].iter().all(|&v| v == 5.0));
        assert!(y.data()[4..8].iter().all(|&v| v == -1.0));
    }

    #[test]
    fn conv2d_multichannel_sums_over_channels() {
        let x = Tensor::ones(&[1, 3, 2, 2]);
        let w = Tensor::ones(&[1, 3, 1, 1]);
        let g = ConvGeometry::new(1, 1, 0);
        let y = conv2d(&x, &w, None, g).unwrap();
        assert!(y.data().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn conv2d_batched_is_per_image() {
        let mut x = Tensor::zeros(&[2, 1, 2, 2]);
        for i in 0..4 {
            x.data_mut()[i] = 1.0; // image 0 = ones, image 1 = zeros
        }
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let g = ConvGeometry::new(2, 1, 0);
        let y = conv2d(&x, &w, None, g).unwrap();
        assert_eq!(y.shape(), &[2, 1, 1, 1]);
        assert_eq!(y.data(), &[4.0, 0.0]);
    }

    #[test]
    fn conv2d_rejects_mismatched_weight() {
        let x = Tensor::ones(&[1, 3, 4, 4]);
        let w = Tensor::ones(&[1, 2, 3, 3]); // wrong in-channels
        assert!(conv2d(&x, &w, None, ConvGeometry::same(3)).is_err());
    }

    #[test]
    fn depthwise_conv_keeps_channels_independent() {
        let mut x = Tensor::zeros(&[1, 2, 2, 2]);
        for i in 0..4 {
            x.data_mut()[i] = 1.0; // channel 0 ones, channel 1 zeros
        }
        let w = Tensor::ones(&[2, 1, 2, 2]);
        let g = ConvGeometry::new(2, 1, 0);
        let y = depthwise_conv2d(&x, &w, None, g).unwrap();
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[4.0, 0.0]);
    }

    #[test]
    fn depthwise_matches_dense_with_diagonal_weight() {
        // A depthwise conv equals a dense conv whose cross-channel taps
        // are zero.
        let x = seq_tensor(&[1, 2, 4, 4]);
        let dw_w = seq_tensor(&[2, 1, 3, 3]);
        let mut dense_w = Tensor::zeros(&[2, 2, 3, 3]);
        for ch in 0..2 {
            for t in 0..9 {
                let v = dw_w.data()[ch * 9 + t];
                dense_w.data_mut()[ch * 18 + ch * 9 + t] = v;
            }
        }
        let g = ConvGeometry::same(3);
        let a = depthwise_conv2d(&x, &dw_w, None, g).unwrap();
        let b = conv2d(&x, &dense_w, None, g).unwrap();
        for (u, v) in a.data().iter().zip(b.data()) {
            assert!((u - v).abs() < 1e-4);
        }
    }

    #[test]
    fn avg_pool_averages_blocks() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = avg_pool2d(&x, 2).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn max_pool_takes_block_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = max_pool2d(&x, 2).unwrap();
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    /// The pooling loop with the window kind matched per element, as it
    /// was before the kind moved out of the loops: the reference the
    /// specialized paths must reproduce bit for bit.
    fn pool_reference(input: &Tensor, k: usize, average: bool) -> Tensor {
        let s = input.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let inv = 1.0 / (k * k) as f32;
        for img in 0..n {
            for ch in 0..c {
                let in_base = (img * c + ch) * h * w;
                let out_base = (img * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = if average { 0.0 } else { f32::NEG_INFINITY };
                        for ky in 0..k {
                            for kx in 0..k {
                                let v = input.data()[in_base + (oy * k + ky) * w + (ox * k + kx)];
                                acc = if average { acc + v } else { acc.max(v) };
                            }
                        }
                        out.data_mut()[out_base + oy * ow + ox] =
                            if average { acc * inv } else { acc };
                    }
                }
            }
        }
        out
    }

    #[test]
    fn pooling_matches_the_per_element_loop_bitwise() {
        // Every window size, the 2×2 average's row-pair path included,
        // on inputs mixing both signed zeros (an all-`−0.0` window
        // averages to `+0.0`), negatives and ordinary values.
        use rand::{Rng, SeedableRng};
        let mut r = rand::rngs::StdRng::seed_from_u64(5);
        for k in 1..=4 {
            for (n, c, side) in [(1, 1, k), (2, 3, 2 * k), (3, 2, 4 * k), (1, 1, 0)] {
                let data = (0..n * c * side * side)
                    .map(|_| match r.gen_range(0..6) {
                        0 => -0.0,
                        1 => 0.0,
                        2 => 1.0,
                        3 => r.gen_range(-3.0f32..0.0),
                        _ => r.gen_range(0.0f32..3.0),
                    })
                    .collect();
                let x = Tensor::from_vec(data, &[n, c, side, side]).unwrap();
                for (average, got) in [(true, avg_pool2d(&x, k)), (false, max_pool2d(&x, k))] {
                    let got = got.unwrap();
                    let expect = pool_reference(&x, k, average);
                    assert_eq!(got.shape(), expect.shape());
                    for (i, (a, e)) in got.data().iter().zip(expect.data()).enumerate() {
                        assert_eq!(a.to_bits(), e.to_bits(), "k {k} average {average} at {i}");
                    }
                }
            }
        }
        let zeros = Tensor::from_vec(vec![-0.0; 16], &[1, 1, 4, 4]).unwrap();
        let pooled = avg_pool2d(&zeros, 2).unwrap();
        assert!(
            pooled.data().iter().all(|v| v.to_bits() == 0),
            "−0.0 windows pool to +0.0"
        );
    }

    #[test]
    fn pool_rejects_nondividing_window() {
        let x = Tensor::ones(&[1, 1, 5, 5]);
        assert!(avg_pool2d(&x, 2).is_err());
        assert!(avg_pool2d(&x, 0).is_err());
    }

    #[test]
    fn avg_pool_backward_distributes_gradient() {
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let dx = avg_pool2d_backward(&g, [1, 1, 4, 4], 2).unwrap();
        assert_eq!(dx.shape(), &[1, 1, 4, 4]);
        assert!(dx.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
        // Sum is preserved.
        assert!((dx.sum() - g.sum()).abs() < 1e-5);
    }

    #[test]
    fn avg_pool_backward_matches_the_per_element_loop_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut r = rand::rngs::StdRng::seed_from_u64(9);
        for k in 1..=4 {
            // Sides that k divides and sides it does not (the trailing
            // rows and columns get no gradient).
            for (n, c, h, w) in [(1, 1, k, k), (2, 3, 2 * k, 3 * k), (1, 2, 2 * k + 1, k + 1)] {
                let (oh, ow) = (h / k, w / k);
                let g = Tensor::from_vec(
                    (0..n * c * oh * ow)
                        .map(|_| r.gen_range(-3.0f32..3.0))
                        .collect(),
                    &[n, c, oh, ow],
                )
                .unwrap();
                let got = avg_pool2d_backward(&g, [n, c, h, w], k).unwrap();
                let mut expect = Tensor::zeros(&[n, c, h, w]);
                let inv = 1.0 / (k * k) as f32;
                for plane in 0..n * c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let v = g.data()[(plane * oh + oy) * ow + ox] * inv;
                            for ky in 0..k {
                                for kx in 0..k {
                                    let i = (plane * h + oy * k + ky) * w + ox * k + kx;
                                    expect.data_mut()[i] = v;
                                }
                            }
                        }
                    }
                }
                for (a, e) in got.data().iter().zip(expect.data()) {
                    assert_eq!(a.to_bits(), e.to_bits(), "k {k} shape {n}×{c}×{h}×{w}");
                }
            }
        }
        assert!(avg_pool2d_backward(&Tensor::ones(&[1, 1, 2, 2]), [1, 1, 4, 4], 0).is_err());
        let empty = avg_pool2d_backward(&Tensor::zeros(&[1, 1, 0, 0]), [1, 1, 1, 1], 2).unwrap();
        assert_eq!(empty.data(), &[0.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let x = seq_tensor(&[1, 2, 4, 4]);
        let g = ConvGeometry::same(3);
        let cols = im2col(&x, g).unwrap();
        let y = seq_tensor(&[cols.shape()[0], cols.shape()[1]]).map(|v| (v * 0.37).sin());
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, [1, 2, 4, 4], g).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < lhs.abs().max(1.0) * 1e-4,
            "adjoint check failed: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn col2im_validates_shape() {
        let bad = Tensor::zeros(&[3, 3]);
        assert!(col2im(&bad, [1, 1, 4, 4], ConvGeometry::same(3)).is_err());
    }

    // ----- edge geometry: non-tiling strides, even kernels, error paths --

    /// Direct 7-loop convolution — the obviously-correct reference the
    /// im2col-lowered path is checked against.
    fn naive_conv2d(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        geom: ConvGeometry,
    ) -> Tensor {
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let oc = weight.shape()[0];
        let (oh, ow) = geom.out_hw(h, w).unwrap();
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        let (src, wdat) = (input.data(), weight.data());
        let dst = out.data_mut();
        for img in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map_or(0.0, |b| b.data()[o]);
                        for ch in 0..c {
                            for ky in 0..geom.kh {
                                let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                                if iy < 0 || iy as usize >= h {
                                    continue;
                                }
                                for kx in 0..geom.kw {
                                    let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                                    if ix < 0 || ix as usize >= w {
                                        continue;
                                    }
                                    acc += src
                                        [((img * c + ch) * h + iy as usize) * w + ix as usize]
                                        * wdat[((o * c + ch) * geom.kh + ky) * geom.kw + kx];
                                }
                            }
                        }
                        dst[((img * oc + o) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}: shapes differ");
        for (i, (u, v)) in a.data().iter().zip(b.data()).enumerate() {
            assert!((u - v).abs() < 1e-4, "{ctx}: element {i}: {u} vs {v}");
        }
    }

    #[test]
    fn stride_that_does_not_tile_drops_the_remainder() {
        // 7-wide input, k=3, stride=3: windows at 0 and 3; column 6 can't
        // host a full window and is dropped, per the floor in out_dim.
        let g = ConvGeometry::new(3, 3, 0);
        assert_eq!(g.out_hw(7, 7).unwrap(), (2, 2));
        let x = seq_tensor(&[1, 1, 7, 7]);
        let cols = im2col(&x, g).unwrap();
        assert_eq!(cols.shape(), &[4, 9]);
        // Second patch starts at column 3 of row 0: values 3,4,5 / 10,11,12 / 17,18,19.
        assert_eq!(
            &cols.data()[9..18],
            &[3.0, 4.0, 5.0, 10.0, 11.0, 12.0, 17.0, 18.0, 19.0]
        );
    }

    #[test]
    fn conv2d_matches_naive_for_non_tiling_strides() {
        let x = seq_tensor(&[2, 3, 7, 5]).map(|v| (v * 0.11).sin());
        let w = seq_tensor(&[4, 3, 3, 3]).map(|v| (v * 0.07).cos());
        let b = Tensor::from_vec(vec![0.1, -0.2, 0.3, -0.4], &[4]).unwrap();
        for geom in [
            ConvGeometry::new(3, 2, 0), // 7→3, 5→2: remainder dropped on both axes
            ConvGeometry::new(3, 3, 1),
            ConvGeometry::new(3, 2, 2),
        ] {
            let fast = conv2d(&x, &w, Some(&b), geom).unwrap();
            let slow = naive_conv2d(&x, &w, Some(&b), geom);
            assert_close(&fast, &slow, &format!("{geom:?}"));
        }
    }

    #[test]
    fn even_kernel_with_pad_is_asymmetric_and_matches_naive() {
        // k=2 with pad=1 pads both sides but the window anchors top-left,
        // so the "extra" padded row/column lands asymmetrically: out_dim
        // = (h + 2 - 2) / s + 1 covers one more position than "same".
        let g = ConvGeometry::new(2, 1, 1);
        assert_eq!(g.out_hw(4, 4).unwrap(), (5, 5));
        let x = seq_tensor(&[1, 2, 4, 4]).map(|v| (v * 0.13).sin());
        let w = seq_tensor(&[3, 2, 2, 2]).map(|v| (v * 0.05).cos());
        for geom in [ConvGeometry::new(2, 1, 1), ConvGeometry::new(2, 2, 1)] {
            let fast = conv2d(&x, &w, None, geom).unwrap();
            let slow = naive_conv2d(&x, &w, None, geom);
            assert_close(&fast, &slow, &format!("{geom:?}"));
        }
        // The first patch of the padded even kernel is entirely in the
        // top-left padding except for the input's corner element.
        let ones = Tensor::ones(&[1, 1, 4, 4]);
        let cols = im2col(&ones, g).unwrap();
        let first: f32 = cols.data()[0..4].iter().sum();
        assert_eq!(first, 1.0, "only the (0,0) tap lands inside the image");
    }

    #[test]
    fn out_dim_error_paths_cover_stride_and_fit() {
        let g = ConvGeometry {
            kh: 3,
            kw: 3,
            stride: 0,
            pad: 1,
        };
        assert!(matches!(
            g.out_dim(8, 3),
            Err(TensorError::InvalidGeometry { .. })
        ));
        // Kernel larger than padded input, including the pad > 0 case.
        assert!(ConvGeometry::new(5, 1, 0).out_dim(4, 5).is_err());
        assert!(ConvGeometry::new(7, 1, 1).out_dim(4, 7).is_err());
        // Exactly-fitting window is the boundary: padded == k → one output.
        assert_eq!(ConvGeometry::new(6, 4, 1).out_dim(4, 6).unwrap(), 1);
        // im2col and conv2d both surface the geometry error.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        assert!(im2col(&x, ConvGeometry::new(5, 1, 0)).is_err());
        let w = Tensor::ones(&[1, 1, 5, 5]);
        assert!(conv2d(&x, &w, None, ConvGeometry::new(5, 1, 0)).is_err());
    }
}
