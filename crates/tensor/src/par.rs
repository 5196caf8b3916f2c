//! Scoped-thread parallel kernels, bit-identical to their sequential
//! counterparts.
//!
//! The hot paths are the matrix products and the convolutions of
//! training (the software twin of the crossbar evaluation). This module
//! splits an *output* space — `[M, N]` product rows, images, kernel
//! taps — across the persistent worker pool ([`pool`](crate::pool)) and
//! hands each task a disjoint `&mut` window of the output buffer. The
//! pool is created once, on first use; calls here no longer pay a
//! `thread::spawn`/`join` round trip each.
//!
//! # Determinism
//!
//! Every function here produces results **bit-identical** to the
//! sequential version, for any worker count:
//!
//! * each output element is computed by exactly one worker, using the
//!   *same* shared inner kernel the sequential path calls
//!   ([`crate::gemm`]'s kernel), with accumulation in the same fixed
//!   index order;
//! * no reduction ever crosses a chunk boundary, so chunking cannot
//!   reassociate floating-point sums.
//!
//! The pool size is fixed at creation from [`worker_count`]
//! (`std::thread::available_parallelism`, overridable with the
//! `NEBULA_THREADS` environment variable) and snapshotted as
//! [`pool::size`](crate::pool::size); the implicit entry points here
//! split by that snapshot, and `*_with_workers` variants take the
//! worker count explicitly.

use std::ops::Range;

use crate::conv::{self, ConvGeometry};
use crate::error::TensorError;
use crate::gemm::Strides;
use crate::tensor::Tensor;

/// Products with fewer multiply-adds than this run on one worker: the
/// pool dispatch round trip costs more than the whole product. The split
/// cannot change results (row partitions are bit-identical), only skip
/// overhead.
const PAR_MIN_MACS: usize = 64 * 1024;

/// The *configured* worker count: the `NEBULA_THREADS` environment
/// variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`], and at least 1.
///
/// This re-reads the environment on every call. The persistent pool is
/// sized from it exactly once, at creation; chunking paths must split by
/// that snapshot — [`pool::size`](crate::pool::size) — not by a fresh
/// read, or splits and threads can disagree when the environment
/// changes after pool init.
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("NEBULA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `workers`, or 1 for work of fewer than [`PAR_MIN_MACS`]
/// multiply-adds.
fn workers_for(macs: usize, workers: usize) -> usize {
    if macs < PAR_MIN_MACS {
        1
    } else {
        workers
    }
}

/// Splits `0..total` into at most `workers` contiguous, non-empty,
/// ascending ranges whose lengths differ by at most one.
pub(crate) fn chunk_ranges(total: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1).min(total.max(1));
    let base = total / workers;
    let rem = total % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let len = base + usize::from(i < rem);
        if len == 0 {
            break;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Runs `kernel` over each row range as one pool task, handing every
/// range the matching disjoint window of `out` (`width` values per
/// row). A single range short-circuits to a plain call.
fn run_row_chunks<F>(out: &mut [f32], width: usize, ranges: &[Range<usize>], kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if ranges.len() <= 1 {
        if let Some(r) = ranges.first() {
            kernel(r.start, &mut out[r.start * width..r.end * width]);
        }
        return;
    }
    let kernel = &kernel;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for r in ranges {
        let (window, tail) = rest.split_at_mut((r.end - r.start) * width);
        rest = tail;
        let row0 = r.start;
        tasks.push(Box::new(move || kernel(row0, window)));
    }
    crate::pool::run_scoped(tasks);
}

/// Parallel rank-2 matrix product `a · b` over the pool's
/// [`pool::size`](crate::pool::size) workers;
/// bit-identical to [`Tensor::matmul`].
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul`].
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_with_workers(a, b, crate::pool::size())
}

/// [`matmul`] with an explicit worker count.
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul`].
pub fn matmul_with_workers(a: &Tensor, b: &Tensor, workers: usize) -> Result<Tensor, TensorError> {
    let (m, k, n) = crate::gemm::check_nn(a, b)?;
    Ok(product(a, b, (m, k, n), Strides::nn(k), workers))
}

/// Parallel `aᵀ · b` over the pool's [`pool::size`](crate::pool::size)
/// workers, reading `a` stored `[k, m]` in place: bit-identical to
/// `a.transpose()?.matmul(b)` without building the transpose. This is the
/// weight-gradient product of training (`xᵀ · grad`).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless both operands are
/// matrices, or [`TensorError::ShapeMismatch`] when their first
/// dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_tn_with_workers(a, b, crate::pool::size())
}

/// [`matmul_tn`] with an explicit worker count.
///
/// # Errors
///
/// Same conditions as [`matmul_tn`].
pub fn matmul_tn_with_workers(
    a: &Tensor,
    b: &Tensor,
    workers: usize,
) -> Result<Tensor, TensorError> {
    let (m, k, n) = crate::gemm::check_tn(a, b)?;
    Ok(product(a, b, (m, k, n), Strides::tn(m), workers))
}

/// The `[m, n]` product of A (`a` read through `strides`) and `b`, its
/// output rows split across `workers`.
fn product(
    a: &Tensor,
    b: &Tensor,
    (m, k, n): (usize, usize, usize),
    strides: Strides,
    workers: usize,
) -> Tensor {
    let workers = workers_for(m * k * n, workers);
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    run_row_chunks(&mut out, n, &chunk_ranges(m, workers), |row0, window| {
        crate::gemm::gemm(ad, strides, bd, k, n, row0, window)
    });
    Tensor::from_vec(out, &[m, n]).expect("m·n values")
}

/// Parallel dense 2-D convolution over the pool's
/// [`pool::size`](crate::pool::size) workers; bit-identical to
/// [`conv::conv2d`]: [`conv2d_patches`] followed by
/// [`conv2d_from_patches`].
///
/// # Errors
///
/// Same conditions as [`conv::conv2d`].
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor, TensorError> {
    conv2d_with_workers(input, weight, bias, geom, crate::pool::size())
}

/// [`conv2d`] with an explicit worker count.
///
/// # Errors
///
/// Same conditions as [`conv::conv2d`].
pub fn conv2d_with_workers(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
    workers: usize,
) -> Result<Tensor, TensorError> {
    conv::conv2d_check(input, weight, bias, geom)?;
    let patches = conv2d_patches_with_workers(input, geom, Vec::new(), workers)?;
    conv2d_from_patches_with_workers(&patches, weight, bias, workers)
}

/// Lowers a batch `[N, C, H, W]` to its *transposed* patches
/// `[N, C·KH·KW, OH, OW]`: for each image, row `(ch·KH + ky)·KW + kx`
/// holds tap `(ch, ky, kx)` of every patch in output order, so image
/// `i`'s `[C·KH·KW, OH·OW]` block is the transpose of its rows of
/// [`conv::im2col`], value for value. Each tap row is copied from input
/// row segments clipped to the image once. The result reuses `buf`'s
/// allocation (its contents are overwritten), so a caller can keep one
/// buffer across batches. Workers split the images.
///
/// # Errors
///
/// Same conditions as [`conv::im2col`].
pub fn conv2d_patches(
    input: &Tensor,
    geom: ConvGeometry,
    buf: Vec<f32>,
) -> Result<Tensor, TensorError> {
    conv2d_patches_with_workers(input, geom, buf, crate::pool::size())
}

/// [`conv2d_patches`] with an explicit worker count.
///
/// # Errors
///
/// Same conditions as [`conv::im2col`].
pub fn conv2d_patches_with_workers(
    input: &Tensor,
    geom: ConvGeometry,
    mut buf: Vec<f32>,
    workers: usize,
) -> Result<Tensor, TensorError> {
    let &[n, c, h, w] = input.shape() else {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
            op: "conv2d_patches",
        });
    };
    let (oh, ow) = geom.out_hw(h, w)?;
    let ckk = c * geom.kh * geom.kw;
    let block = ckk * oh * ow;
    buf.resize(n * block, 0.0);
    let x = input.data();
    let workers = workers_for(n * block, workers);
    run_row_chunks(
        &mut buf,
        block,
        &chunk_ranges(n, workers),
        |img0, images| {
            for (img, patches) in (img0..).zip(images.chunks_exact_mut(block.max(1))) {
                let src = &x[img * c * h * w..][..c * h * w];
                conv::im2col_image_t(src, [h, w], [oh, ow], geom, 0..ckk, patches);
            }
        },
    );
    Tensor::from_vec(buf, &[n, ckk, oh, ow])
}

/// The convolution of a batch from its [`conv2d_patches`]
/// `[N, C·KH·KW, OH, OW]` and `weight` `[OC, C, KH, KW]`, plus the
/// optional `bias` `[OC]`: output `[N, OC, OH, OW]`, bit-identical to
/// [`conv::conv2d`]. Each image's `W · patches` product is already its
/// `[OC, OH·OW]` output planes (each element one chain over the taps in
/// ascending order, as in the `im2col` product), and the bias is added
/// after it. Workers split the images.
///
/// # Errors
///
/// Returns an error on rank/shape disagreements.
pub fn conv2d_from_patches(
    patches: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<Tensor, TensorError> {
    conv2d_from_patches_with_workers(patches, weight, bias, crate::pool::size())
}

/// [`conv2d_from_patches`] with an explicit worker count.
///
/// # Errors
///
/// Same conditions as [`conv2d_from_patches`].
pub fn conv2d_from_patches_with_workers(
    patches: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    workers: usize,
) -> Result<Tensor, TensorError> {
    let ([n, ckk, oh, ow], oc) = patch_dims(patches, weight)?;
    if weight.len() != oc * ckk {
        return Err(TensorError::ShapeMismatch {
            left: weight.shape().to_vec(),
            right: vec![oc, ckk],
            op: "conv2d weight",
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
    let spatial = oh * ow;
    let workers = workers_for(n * spatial * ckk * oc, workers);
    let mut out = vec![0.0f32; n * oc * spatial];
    let (p, wd) = (patches.data(), weight.data());
    run_row_chunks(
        &mut out,
        oc * spatial,
        &chunk_ranges(n, workers),
        |img0, images| {
            for (img, image) in (img0..).zip(images.chunks_exact_mut((oc * spatial).max(1))) {
                let block = &p[img * ckk * spatial..][..ckk * spatial];
                crate::gemm::gemm(wd, Strides::nn(ckk), block, ckk, spatial, 0, image);
                if let Some(bias) = bias {
                    for (plane, &b) in image.chunks_exact_mut(spatial.max(1)).zip(bias.data()) {
                        for v in plane {
                            *v += b;
                        }
                    }
                }
            }
        },
    );
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// Weight gradient of a dense convolution over the pool's
/// [`pool::size`](crate::pool::size) workers, from the input's
/// [`conv2d_patches`] `[N, C·KH·KW, OH, OW]` and the output gradient
/// `grad` `[N, OC, OH, OW]`: returns `grad_rowsᵀ · im2col(input)` as
/// `[OC, C·KH·KW]`, where `grad_rows` is `grad` permuted to
/// `[N·OH·OW, OC]` — bit for bit, without either matrix. It accumulates
/// `dWᵀ = patches · grad_rows` image by image, each element's chain
/// continuing in ascending patch order. Workers split the kernel taps,
/// so the result is the same at any worker count.
///
/// # Errors
///
/// Returns an error on rank/shape disagreements.
pub fn conv2d_weight_grad(patches: &Tensor, grad: &Tensor) -> Result<Tensor, TensorError> {
    conv2d_weight_grad_with_workers(patches, grad, crate::pool::size())
}

/// [`conv2d_weight_grad`] with an explicit worker count.
///
/// # Errors
///
/// Same conditions as [`conv2d_weight_grad`].
pub fn conv2d_weight_grad_with_workers(
    patches: &Tensor,
    grad: &Tensor,
    workers: usize,
) -> Result<Tensor, TensorError> {
    let ([n, ckk, oh, ow], _) = patch_dims(patches, grad)?;
    let oc = grad.shape()[1];
    if grad.shape() != [n, oc, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: grad.shape().to_vec(),
            right: vec![n, oc, oh, ow],
            op: "conv2d_weight_grad",
        });
    }
    let spatial = oh * ow;
    let workers = workers_for(n * spatial * ckk * oc, workers);
    // dWᵀ [C·KH·KW, OC], one row per kernel tap.
    let mut dwt = vec![0.0f32; ckk * oc];
    let (p, g) = (patches.data(), grad.data());
    run_row_chunks(&mut dwt, oc, &chunk_ranges(ckk, workers), |t0, rows| {
        let mut grad_rows = vec![0.0f32; spatial * oc];
        for img in 0..n {
            // The image's gradient as [OH·OW, OC] rows.
            let g_img = &g[img * oc * spatial..][..oc * spatial];
            for (o, plane) in g_img.chunks_exact(spatial.max(1)).enumerate() {
                for (s, &v) in plane.iter().enumerate() {
                    grad_rows[s * oc + o] = v;
                }
            }
            let block = &p[img * ckk * spatial..];
            let k = spatial;
            crate::gemm::gemm(block, Strides::nn(k), &grad_rows, k, oc, t0, rows);
        }
    });
    // Transpose dWᵀ to [OC, C·KH·KW].
    let mut out = vec![0.0f32; oc * ckk];
    for (t, row) in dwt.chunks_exact(oc.max(1)).enumerate() {
        for (o, &v) in row.iter().enumerate() {
            out[o * ckk + t] = v;
        }
    }
    Tensor::from_vec(out, &[oc, ckk])
}

/// The `[N, C·KH·KW, OH, OW]` dimensions of [`conv2d_patches`], and the
/// leading dimension of `other` — `OC` of a weight `[OC, C, KH, KW]`,
/// whose taps must agree, or `N` of an output gradient — after checking
/// both are rank 4.
fn patch_dims(patches: &Tensor, other: &Tensor) -> Result<([usize; 4], usize), TensorError> {
    match (patches.shape(), other.shape()) {
        (&[n, ckk, oh, ow], &[lead, ..]) if other.rank() == 4 => Ok(([n, ckk, oh, ow], lead)),
        (p, o) => Err(TensorError::RankMismatch {
            expected: 4,
            actual: if p.len() != 4 { p.len() } else { o.len() },
            op: "conv2d patches",
        }),
    }
}

/// Input gradient of a dense convolution over the pool's
/// [`pool::size`](crate::pool::size) workers: for output gradient `grad`
/// `[N, OC, OH, OW]` and `weight` `[OC, C, KH, KW]`, returns
/// [`conv::col2im`]`(grad_rows · wmat)` of shape `input_shape` (with
/// `grad_rows` the `[N·OH·OW, OC]` permute of `grad` and `wmat` the
/// `[OC, C·KH·KW]` weights), bit for bit, without the
/// `[N·OH·OW, C·KH·KW]` patch gradient. Each image's patch gradients are
/// computed as one cache-resident `[C·KH·KW, OH·OW]` block
/// (`wmatᵀ · grad[img]`, each element's chain still ascending over `OC`)
/// and scattered straight into that image's gradient in the order
/// `col2im` adds them. Images are split between workers, so the scatter
/// is race-free and gives the same bits at any worker count.
///
/// # Errors
///
/// Returns an error on rank/shape disagreements or impossible geometry.
pub fn conv2d_input_grad(
    grad: &Tensor,
    weight: &Tensor,
    input_shape: [usize; 4],
    geom: ConvGeometry,
) -> Result<Tensor, TensorError> {
    conv2d_input_grad_with_workers(grad, weight, input_shape, geom, crate::pool::size())
}

/// [`conv2d_input_grad`] with an explicit worker count.
///
/// # Errors
///
/// Same conditions as [`conv2d_input_grad`].
pub fn conv2d_input_grad_with_workers(
    grad: &Tensor,
    weight: &Tensor,
    input_shape: [usize; 4],
    geom: ConvGeometry,
    workers: usize,
) -> Result<Tensor, TensorError> {
    let ([n, c, h, w], oc, [oh, ow]) = conv_grad_dims(&input_shape, grad, geom)?;
    let ckk = c * geom.kh * geom.kw;
    if weight.shape() != [oc, c, geom.kh, geom.kw] {
        return Err(TensorError::ShapeMismatch {
            left: weight.shape().to_vec(),
            right: vec![oc, c, geom.kh, geom.kw],
            op: "conv2d_input_grad",
        });
    }
    let spatial = oh * ow;
    let plane = c * h * w;
    let workers = workers_for(n * spatial * ckk * oc, workers);
    let mut out = vec![0.0f32; n * plane];
    let (g, wd) = (grad.data(), weight.data());
    run_row_chunks(
        &mut out,
        plane,
        &chunk_ranges(n, workers),
        |img0, images| {
            let mut patch_grads = vec![0.0f32; ckk * spatial];
            for (img, image) in (img0..).zip(images.chunks_exact_mut(plane.max(1))) {
                patch_grads.fill(0.0);
                let g_img = &g[img * oc * spatial..][..oc * spatial];
                crate::gemm::gemm(
                    wd,
                    Strides::tn(ckk),
                    g_img,
                    oc,
                    spatial,
                    0,
                    &mut patch_grads,
                );
                conv::col2im_image(&patch_grads, [c, h, w], [oh, ow], geom, image);
            }
        },
    );
    Tensor::from_vec(out, &input_shape)
}

/// Validates a convolution gradient: `input_shape` must be rank 4 and
/// `grad` `[N, OC, OH, OW]` for this geometry. Returns the input shape,
/// `OC` and `[OH, OW]`.
fn conv_grad_dims(
    input_shape: &[usize],
    grad: &Tensor,
    geom: ConvGeometry,
) -> Result<([usize; 4], usize, [usize; 2]), TensorError> {
    let &[n, c, h, w] = input_shape else {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_shape.len(),
            op: "conv2d gradient input",
        });
    };
    let (oh, ow) = geom.out_hw(h, w)?;
    let oc = grad.shape().get(1).copied().unwrap_or(0);
    if grad.shape() != [n, oc, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: grad.shape().to_vec(),
            right: vec![n, oc, oh, ow],
            op: "conv2d gradient",
        });
    }
    Ok(([n, c, h, w], oc, [oh, ow]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random tensor with a sprinkling of exact
    /// zeros, so the matmul sparsity skip is exercised on both paths.
    fn noise_tensor(shape: &[usize], seed: u64) -> Tensor {
        let len: usize = shape.iter().product();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let data: Vec<f32> = (0..len)
            .map(|_| {
                // xorshift64*
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                if bits.is_multiple_of(5) {
                    0.0
                } else {
                    ((bits >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                }
            })
            .collect();
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for total in [0usize, 1, 2, 7, 64, 101] {
            for workers in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(total, workers);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "ranges must be contiguous and ascending");
                    assert!(r.end > r.start, "ranges must be non-empty");
                    next = r.end;
                }
                assert_eq!(next, total, "ranges must cover 0..{total}");
                assert!(ranges.len() <= workers.max(1));
            }
        }
    }

    #[test]
    fn par_matmul_is_bit_identical_for_any_worker_count() {
        // Past PAR_MIN_MACS, so the rows really are split.
        let a = noise_tensor(&[97, 29], 1);
        let b = noise_tensor(&[29, 37], 2);
        const { assert!(97 * 29 * 37 >= PAR_MIN_MACS) };
        let seq = a.matmul(&b).unwrap();
        for workers in [1, 2, 3, 7, 64] {
            let par = matmul_with_workers(&a, &b, workers).unwrap();
            assert_eq!(par.shape(), seq.shape());
            assert_eq!(par.data(), seq.data(), "workers={workers}");
        }
    }

    #[test]
    fn par_matmul_rejects_bad_shapes_like_sequential() {
        let a = noise_tensor(&[4, 5], 3);
        let b = noise_tensor(&[6, 4], 4);
        assert!(matmul_with_workers(&a, &b, 4).is_err());
        let v = noise_tensor(&[5], 5);
        assert!(matmul_with_workers(&a, &v, 4).is_err());
    }

    #[test]
    fn par_conv2d_is_bit_identical_for_any_worker_count() {
        // Past PAR_MIN_MACS, so the images really are split.
        let x = noise_tensor(&[5, 3, 12, 12], 7);
        let w = noise_tensor(&[5, 3, 3, 3], 8);
        let b = noise_tensor(&[5], 9);
        let geom = ConvGeometry::same(3);
        const { assert!(5 * 144 * 27 * 5 >= PAR_MIN_MACS) };
        let seq = conv::conv2d(&x, &w, Some(&b), geom).unwrap();
        for workers in [1, 2, 6, 17] {
            let par = conv2d_with_workers(&x, &w, Some(&b), geom, workers).unwrap();
            assert_eq!(par.shape(), seq.shape());
            assert_eq!(par.data(), seq.data(), "workers={workers}");
        }
    }

    #[test]
    fn par_conv2d_propagates_geometry_errors() {
        let x = noise_tensor(&[1, 1, 3, 3], 10);
        let w = noise_tensor(&[1, 1, 5, 5], 11);
        assert!(conv2d_with_workers(&x, &w, None, ConvGeometry::new(5, 1, 0), 4).is_err());
    }

    /// Shapes past [`PAR_MIN_MACS`], so the worker split really happens:
    /// the blocked convolutions and `matmul_tn` give the sequential
    /// composition's bits at every worker count.
    #[test]
    fn blocked_kernels_split_across_workers_bitwise() {
        let x = noise_tensor(&[5, 6, 12, 11], 12).map(|v| v.max(0.0));
        let weight = noise_tensor(&[9, 6, 3, 3], 13);
        let bias = noise_tensor(&[9], 14);
        for geom in [ConvGeometry::same(3), ConvGeometry::new(3, 2, 2)] {
            let (oh, ow) = geom.out_hw(12, 11).unwrap();
            let grad = noise_tensor(&[5, 9, oh, ow], 15);
            let mut rows = Tensor::zeros(&[5 * oh * ow, 9]);
            for img in 0..5 {
                for o in 0..9 {
                    for s in 0..oh * ow {
                        rows.data_mut()[(img * oh * ow + s) * 9 + o] =
                            grad.data()[(img * 9 + o) * oh * ow + s];
                    }
                }
            }
            let cols = conv::im2col(&x, geom).unwrap();
            let wmat = weight.reshape(&[9, 54]).unwrap();
            let forward = conv::conv2d(&x, &weight, Some(&bias), geom).unwrap();
            let dw = rows.transpose().unwrap().matmul(&cols).unwrap();
            let dx = conv::col2im(&rows.matmul(&wmat).unwrap(), [5, 6, 12, 11], geom).unwrap();
            assert!(rows.len() * 54 >= PAR_MIN_MACS);
            for workers in [1, 2, 3, 4, 7] {
                let got = conv2d_with_workers(&x, &weight, Some(&bias), geom, workers).unwrap();
                assert_bits(&got, &forward, &format!("forward, {workers} workers"));
                let patches = conv2d_patches_with_workers(&x, geom, Vec::new(), workers).unwrap();
                // A recycled buffer's old contents never leak through.
                let reused = conv2d_patches_with_workers(&x, geom, vec![f32::NAN; 99_999], workers);
                assert_bits(&reused.unwrap(), &patches, "recycled patch buffer");
                let got = conv2d_weight_grad_with_workers(&patches, &grad, workers).unwrap();
                assert_bits(&got, &dw, &format!("dW, {workers} workers"));
                let got =
                    conv2d_input_grad_with_workers(&grad, &weight, [5, 6, 12, 11], geom, workers)
                        .unwrap();
                assert_bits(&got, &dx, &format!("dX, {workers} workers"));
                let got = matmul_tn_with_workers(&rows, &cols, workers).unwrap();
                assert_bits(&got, &dw, &format!("matmul_tn, {workers} workers"));
            }
        }
    }

    fn assert_bits(got: &Tensor, expect: &Tensor, what: &str) {
        assert_eq!(got.shape(), expect.shape(), "{what}");
        for (x, y) in got.data().iter().zip(expect.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
    }

    #[test]
    fn conv_gradients_reject_bad_shapes() {
        let x = noise_tensor(&[2, 3, 6, 6], 16);
        let w = noise_tensor(&[4, 3, 3, 3], 17);
        let g = ConvGeometry::same(3);
        let grad = noise_tensor(&[2, 4, 6, 6], 18);
        let patches = conv2d_patches(&x, g, Vec::new()).unwrap();
        assert_eq!(patches.shape(), &[2, 27, 6, 6]);
        assert!(conv2d_weight_grad(&patches, &noise_tensor(&[2, 4, 5, 6], 19)).is_err());
        assert!(conv2d_weight_grad(&noise_tensor(&[27, 6, 6], 20), &grad).is_err());
        assert!(conv2d_from_patches(&patches, &noise_tensor(&[4, 2, 3, 3], 24), None).is_err());
        assert!(conv2d_from_patches(&patches, &w, Some(&noise_tensor(&[3], 25))).is_err());
        assert!(conv2d_patches(&noise_tensor(&[3, 6, 6], 26), g, Vec::new()).is_err());
        // Empty output planes are empty products, not a panic.
        let empty = Tensor::zeros(&[2, 27, 0, 6]);
        let bias = noise_tensor(&[4], 27);
        assert_eq!(
            conv2d_from_patches(&empty, &w, Some(&bias)).unwrap().len(),
            0
        );
        let dw = conv2d_weight_grad(&empty, &Tensor::zeros(&[2, 4, 0, 6])).unwrap();
        assert!(dw.data().iter().all(|&v| v == 0.0));
        assert!(
            conv2d_input_grad(&grad, &noise_tensor(&[4, 2, 3, 3], 21), [2, 3, 6, 6], g).is_err()
        );
        assert!(conv2d_input_grad(&grad, &w, [2, 3, 7, 6], g).is_err());
        assert!(matmul_tn(&noise_tensor(&[4, 5], 22), &noise_tensor(&[5, 4], 23)).is_err());
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }
}
