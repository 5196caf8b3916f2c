//! Property-based tests of the tensor substrate.

use nebula_tensor::{
    col2im, conv2d, depthwise_conv2d, im2col, max_pool2d, par, ConvGeometry, Tensor,
};
use proptest::prelude::*;

fn matrix(r: usize, c: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-5.0f32..5.0, r * c)
        .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
}

proptest! {
    #[test]
    fn matmul_transpose_identity(a in matrix(4, 6), b in matrix(6, 3)) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn scale_is_linear(a in matrix(3, 5), k in -4.0f32..4.0) {
        let lhs = a.scale(k).sum();
        let rhs = a.sum() * k;
        prop_assert!((lhs - rhs).abs() < 1e-2 * rhs.abs().max(1.0));
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative(a in matrix(4, 4)) {
        let r1 = a.relu();
        let r2 = r1.relu();
        prop_assert_eq!(&r1, &r2);
        prop_assert!(r1.min() >= 0.0);
    }

    #[test]
    fn clamp_bounds_hold(a in matrix(4, 4), lo in -2.0f32..0.0, hi in 0.0f32..2.0) {
        let c = a.clamp(lo, hi);
        prop_assert!(c.min() >= lo - 1e-6);
        prop_assert!(c.max() <= hi + 1e-6);
    }

    #[test]
    fn conv_with_delta_kernel_is_identity(data in proptest::collection::vec(-3.0f32..3.0, 36)) {
        let x = Tensor::from_vec(data, &[1, 1, 6, 6]).unwrap();
        // 3x3 kernel with a single center 1 = identity under same-padding.
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.set(&[0, 0, 1, 1], 1.0);
        let y = conv2d(&x, &w, None, ConvGeometry::same(3)).unwrap();
        for (a, b) in x.data().iter().zip(y.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_is_linear_in_input(
        d1 in proptest::collection::vec(-2.0f32..2.0, 32),
        d2 in proptest::collection::vec(-2.0f32..2.0, 32),
        w in proptest::collection::vec(-1.0f32..1.0, 18),
    ) {
        let x1 = Tensor::from_vec(d1, &[1, 2, 4, 4]).unwrap();
        let x2 = Tensor::from_vec(d2, &[1, 2, 4, 4]).unwrap();
        let k = Tensor::from_vec(w, &[1, 2, 3, 3]).unwrap();
        let g = ConvGeometry::same(3);
        let sum = x1.add(&x2).unwrap();
        let lhs = conv2d(&sum, &k, None, g).unwrap();
        let rhs = conv2d(&x1, &k, None, g).unwrap().add(&conv2d(&x2, &k, None, g).unwrap()).unwrap();
        for (a, b) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn depthwise_respects_channel_isolation(
        d in proptest::collection::vec(0.0f32..1.0, 32),
        w in proptest::collection::vec(-1.0f32..1.0, 18),
    ) {
        // Zeroing channel 1's input zeroes channel 1's output only.
        let mut x = Tensor::from_vec(d, &[1, 2, 4, 4]).unwrap();
        for i in 16..32 {
            x.data_mut()[i] = 0.0;
        }
        let k = Tensor::from_vec(w, &[2, 1, 3, 3]).unwrap();
        let y = depthwise_conv2d(&x, &k, None, ConvGeometry::same(3)).unwrap();
        for &v in &y.data()[16..32] {
            prop_assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn max_pool_dominates_avg_pool(data in proptest::collection::vec(0.0f32..4.0, 16)) {
        let x = Tensor::from_vec(data, &[1, 1, 4, 4]).unwrap();
        let mx = max_pool2d(&x, 2).unwrap();
        let av = nebula_tensor::avg_pool2d(&x, 2).unwrap();
        for (m, a) in mx.data().iter().zip(av.data()) {
            prop_assert!(m >= a);
        }
    }

    #[test]
    fn quantile_is_monotone(data in proptest::collection::vec(-10.0f32..10.0, 2..60), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]).unwrap();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(t.quantile(lo) <= t.quantile(hi) + 1e-6);
        prop_assert!(t.quantile(0.0) <= t.min() + 1e-6);
        prop_assert!(t.quantile(1.0) >= t.max() - 1e-6);
    }

    /// The register-tiled GEMM behind `Tensor::matmul` is bit-identical
    /// to the naive pinned reference on dense inputs, for shapes spanning
    /// the tile remainders, single rows/columns and generic rectangles.
    #[test]
    fn blocked_gemm_matches_reference_bitwise(
        pick in 0usize..5,
        dims in (1usize..9, 1usize..40, 1usize..16),
        seed in 0u64..u64::MAX,
    ) {
        let (m, k, n) = match pick {
            0 => (1, 1, 1),
            1 => (1, 19, 7),
            2 => (5, 3, 1),
            3 => (7, 33, 12),
            _ => dims,
        };
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        // Nonzero magnitudes so no element takes the sparse-row branch.
        let a = Tensor::rand_uniform(&[m, k], 0.5, 1.5, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.5, -0.5, &mut rng);
        let fast = a.matmul(&b).unwrap();
        let reference = nebula_tensor::gemm::matmul_reference(&a, &b).unwrap();
        for (x, y) in fast.data().iter().zip(reference.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// With zeros injected (sparse-row branch eligible), outputs still
    /// match the reference; the zero checks hold the skipped terms to
    /// leaving exact zeros exact.
    #[test]
    fn sparse_gemm_matches_reference_up_to_zero_signs(
        m in 1usize..8,
        k in 1usize..40,
        n in 1usize..14,
        density in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        use rand::Rng as _;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        for v in a.data_mut() {
            if rng.gen_bool(1.0 - density) {
                *v = 0.0;
            }
        }
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let fast = a.matmul(&b).unwrap();
        let reference = nebula_tensor::gemm::matmul_reference(&a, &b).unwrap();
        for (x, y) in fast.data().iter().zip(reference.data()) {
            if *y == 0.0 {
                prop_assert!(*x == 0.0, "zero drifted: {x} vs {y}");
            } else {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// `par::matmul_tn(a, b)` is `a.transpose()?.matmul(b)` bit for bit,
    /// at one worker and four, across the tile edges (`m mod 4`,
    /// `n mod 16`, depths past one 256-long `k` block) and on zero-heavy
    /// operands.
    #[test]
    fn matmul_tn_is_the_transposed_product_bitwise(
        m in 1usize..40,
        k in 1usize..300,
        n in 1usize..40,
        zero_pct in 0u32..101,
        seed in 0u64..u64::MAX,
    ) {
        let a = sparse_tensor(&[k, m], zero_pct, seed);
        let b = sparse_tensor(&[k, n], 0, seed ^ 1);
        let expect = a.transpose().unwrap().matmul(&b).unwrap();
        for workers in [1, 4] {
            let got = par::matmul_tn_with_workers(&a, &b, workers).unwrap();
            prop_assert_eq!(got.shape(), expect.shape());
            for (x, y) in got.data().iter().zip(expect.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// The blocked convolutions equal the `im2col` → `matmul` → `col2im`
    /// composition they replace, bit for bit, at one worker and four:
    /// the forward against `conv::conv2d`, the weight gradient against
    /// `grad_rowsᵀ · im2col(x)` and the input gradient against
    /// `col2im(grad_rows · wmat)`, where `grad_rows` is the output
    /// gradient permuted to `[N·OH·OW, OC]`. Inputs and gradients carry
    /// exact zeros, as ReLU leaves them.
    #[test]
    fn blocked_convolutions_match_the_im2col_composition_bitwise(
        (n, c, oc) in (1usize..4, 1usize..5, 1usize..7),
        (h, w) in (1usize..11, 1usize..11),
        (k, stride, pad) in (1usize..4, 1usize..3, 0usize..3),
        zero_pct in 0u32..101,
        seed in 0u64..u64::MAX,
    ) {
        let geom = ConvGeometry::new(k, stride, pad);
        let Ok((oh, ow)) = geom.out_hw(h, w) else {
            // The window does not fit: nothing to compare.
            continue;
        };
        let x = sparse_tensor(&[n, c, h, w], zero_pct, seed);
        let weight = sparse_tensor(&[oc, c, k, k], 0, seed ^ 1);
        let bias = sparse_tensor(&[oc], 0, seed ^ 2);
        let grad = sparse_tensor(&[n, oc, oh, ow], zero_pct, seed ^ 3);
        let spatial = oh * ow;
        let mut grad_rows = Tensor::zeros(&[n * spatial, oc]);
        for img in 0..n {
            for o in 0..oc {
                for s in 0..spatial {
                    grad_rows.data_mut()[(img * spatial + s) * oc + o] =
                        grad.data()[(img * oc + o) * spatial + s];
                }
            }
        }
        let cols = im2col(&x, geom).unwrap();
        let wmat = weight.reshape(&[oc, c * k * k]).unwrap();
        let forward = conv2d(&x, &weight, Some(&bias), geom).unwrap();
        let dw = grad_rows.transpose().unwrap().matmul(&cols).unwrap();
        let dx = col2im(&grad_rows.matmul(&wmat).unwrap(), [n, c, h, w], geom).unwrap();
        for workers in [1, 4] {
            let got = par::conv2d_with_workers(&x, &weight, Some(&bias), geom, workers).unwrap();
            assert_bits(&got, &forward, "forward");
            let patches = par::conv2d_patches_with_workers(&x, geom, Vec::new(), workers).unwrap();
            let got = par::conv2d_weight_grad_with_workers(&patches, &grad, workers).unwrap();
            assert_bits(&got, &dw, "weight gradient");
            let got = par::conv2d_input_grad_with_workers(&grad, &weight, [n, c, h, w], geom, workers)
                .unwrap();
            assert_bits(&got, &dx, "input gradient");
        }
    }
}

/// Values in `[-1, 1)`, each exactly zero with probability `zero_pct` %.
fn sparse_tensor(shape: &[usize], zero_pct: u32, seed: u64) -> Tensor {
    use rand::Rng as _;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let len = shape.iter().product();
    let data = (0..len)
        .map(|_| {
            if rng.gen_range(0u32..100) < zero_pct {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

fn assert_bits(got: &Tensor, expect: &Tensor, what: &str) {
    assert_eq!(got.shape(), expect.shape(), "{what}");
    for (i, (x, y)) in got.data().iter().zip(expect.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} at {i}: {x} vs {y}");
    }
}
