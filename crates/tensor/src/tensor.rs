//! The dense `f32` tensor type used throughout the NEBULA stack.

use crate::error::TensorError;
use rand::Rng;

/// A dense, row-major, CPU-resident `f32` tensor of arbitrary rank.
///
/// This deliberately small substrate provides exactly the operations the
/// NEBULA neural-network layers need: element-wise arithmetic, 2-D matrix
/// multiplication, reductions, and shape manipulation. Convolution lives
/// in [`crate::conv`].
///
/// # Examples
///
/// ```
/// use nebula_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c.data(), a.data());
/// # Ok::<(), nebula_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    // ----- constructors -------------------------------------------------

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a rank-2 identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps a data vector in a tensor of the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                shape: shape.to_vec(),
            });
        }
        Ok(Self {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        Self {
            data: (0..n).map(|_| rng.gen_range(lo..hi)).collect(),
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor with elements drawn from `N(0, sigma²)`
    /// (Box–Muller; no external distribution crate needed).
    pub fn rand_normal<R: Rng + ?Sized>(shape: &[usize], sigma: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| {
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32 * sigma
            })
            .collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    // ----- accessors ----------------------------------------------------

    /// The tensor's shape (dimension sizes, outermost first).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row-major strides for the current shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.shape[i + 1];
        }
        strides
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when `idx` has the wrong rank or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when `idx` has the wrong rank or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = self.flat_index(idx);
        self.data[flat] = value;
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let strides = self.strides();
        idx.iter()
            .zip(&self.shape)
            .zip(&strides)
            .map(|((&i, &dim), &s)| {
                assert!(
                    i < dim,
                    "index {i} out of bounds for dimension of size {dim}"
                );
                i * s
            })
            .sum()
    }

    // ----- shape manipulation -------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the element counts
    /// differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        Self::from_vec(self.data.clone(), shape)
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn transpose(&self) -> Result<Self, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Self::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    // ----- element-wise operations ---------------------------------------

    fn zip_check(&self, other: &Self, op: &'static str) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op,
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_check(other, "add")?;
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// In-place element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Self) -> Result<(), TensorError> {
        self.zip_check(other, "add_assign")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_check(other, "sub")?;
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_check(other, "mul")?;
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, k: f32) -> Self {
        Self {
            data: self.data.iter().map(|a| a * k).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Self {
        Self {
            data: self.data.iter().map(|&a| f(a)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Rectified linear: `max(0, x)` element-wise.
    pub fn relu(&self) -> Self {
        self.map(|x| x.max(0.0))
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|x| x.clamp(lo, hi))
    }

    // ----- matrix multiplication ------------------------------------------

    /// Rank-2 matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are
    /// matrices, or [`TensorError::ShapeMismatch`] when the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        let (m, k, n) = crate::gemm::check_nn(self, other)?;
        let mut out = vec![0.0f32; m * n];
        let strides = crate::gemm::Strides::nn(k);
        crate::gemm::gemm(&self.data, strides, &other.data, k, n, 0, &mut out);
        Ok(Self {
            data: out,
            shape: vec![m, n],
        })
    }

    // ----- reductions -----------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Flat index of the maximum element (first occurrence), or `None`
    /// for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Per-row argmax for a rank-2 tensor (one winner per row) — the usual
    /// "predicted class per sample" reduction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "argmax_rows",
            });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        Ok((0..r)
            .map(|i| {
                let row = &self.data[i * c..(i + 1) * c];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect())
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the element values, by sorting a
    /// copy. Used for percentile-based activation clipping.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f32 {
        assert!(!self.data.is_empty(), "quantile of an empty tensor");
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile fraction {q} not in [0, 1]"
        );
        let mut sorted = self.data.clone();
        // total_cmp keeps the sort well-defined even if NaNs sneak in
        // (they sort to the top and are excluded by finite quantiles).
        sorted.sort_by(f32::total_cmp);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = (pos - lo as f64) as f32;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constructors_produce_expected_contents() {
        assert!(Tensor::zeros(&[2, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2], 7.5).data().iter().all(|&x| x == 7.5));
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert_eq!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::LengthMismatch {
                len: 5,
                shape: vec![2, 3]
            })
        );
    }

    #[test]
    fn strides_are_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 42.0);
        assert_eq!(t.at(&[1, 2]), 42.0);
        assert_eq!(t.data()[5], 42.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        Tensor::zeros(&[2, 3]).at(&[2, 0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            a.matmul(&v),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matmul_skips_zero_rows_correctly() {
        // Sparse input path: zeros in A must not corrupt the result.
        let a = Tensor::from_vec(vec![0.0, 2.0, 0.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[6.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn transpose_swaps_axes() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn elementwise_ops_respect_shapes() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::full(&[2, 2], 3.0);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0; 4]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0; 4]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0; 4]);
        assert!(a.add(&Tensor::ones(&[4])).is_err());
        let mut c = a.clone();
        c.add_assign(&b).unwrap();
        assert_eq!(c.data(), &[4.0; 4]);
    }

    #[test]
    fn relu_and_clamp() {
        let t = Tensor::from_vec(vec![-2.0, -0.5, 0.5, 2.0], &[4]).unwrap();
        assert_eq!(t.relu().data(), &[0.0, 0.0, 0.5, 2.0]);
        assert_eq!(t.clamp(-1.0, 1.0).data(), &[-1.0, -0.5, 0.5, 1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -3.0, 2.0, 0.0], &[4]).unwrap();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.argmax(), Some(2));
    }

    #[test]
    fn argmax_rows_picks_per_row_winner() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.7, 0.3, 0.1], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn quantile_interpolates() {
        let t = Tensor::from_vec((0..=100).map(|i| i as f32).collect(), &[101]).unwrap();
        assert_eq!(t.quantile(0.0), 0.0);
        assert_eq!(t.quantile(1.0), 100.0);
        assert!((t.quantile(0.995) - 99.5).abs() < 1e-4);
    }

    #[test]
    fn random_tensors_are_seed_deterministic() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let a = Tensor::rand_uniform(&[32], -1.0, 1.0, &mut r1);
        let b = Tensor::rand_uniform(&[32], -1.0, 1.0, &mut r2);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn rand_normal_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let t = Tensor::rand_normal(&[50_000], 2.0, &mut rng);
        assert!(t.mean().abs() < 0.05);
        let var = t.map(|x| x * x).mean() - t.mean().powi(2);
        assert!((var.sqrt() - 2.0).abs() < 0.05);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]).unwrap();
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[2, 2]);
        let s = format!("{t}");
        assert!(s.contains("Tensor[2, 2]"));
    }
}
