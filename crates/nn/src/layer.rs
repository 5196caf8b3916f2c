//! Network layers with forward and backward passes.
//!
//! Layers are plain structs grouped under the [`Layer`] enum so networks
//! can be cloned, inspected and rewritten (the ANN→SNN conversion rewrites
//! topologies structurally). Each layer caches what its backward pass
//! needs during `forward(train=true)`.

// Index-based loops are kept where they mirror the per-channel math.
#![allow(clippy::needless_range_loop)]

use crate::error::NnError;
use crate::param::Param;
// Matmuls and convolutions go through `par` — bit-identical to the
// sequential ops for any worker count, and backed by the tiled GEMM.
use nebula_tensor::{avg_pool2d, avg_pool2d_backward, par, ConvGeometry, Tensor};
use rand::Rng;

/// A network layer.
///
/// # Examples
///
/// ```
/// use nebula_nn::layer::Layer;
/// use nebula_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut dense = Layer::dense(4, 2, &mut rng);
/// let x = Tensor::ones(&[1, 4]);
/// let y = dense.forward(&x, false)?;
/// assert_eq!(y.shape(), &[1, 2]);
/// # Ok::<(), nebula_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Fully connected layer: `[N, F] → [N, O]`.
    Dense(DenseLayer),
    /// Dense 2-D convolution: `[N, C, H, W] → [N, OC, OH, OW]`.
    Conv2d(Conv2dLayer),
    /// Depthwise 2-D convolution: `[N, C, H, W] → [N, C, OH, OW]`.
    DepthwiseConv2d(DepthwiseConv2dLayer),
    /// Batch normalization over the channel axis of `[N, C, H, W]`.
    BatchNorm2d(BatchNorm2dLayer),
    /// Rectified linear activation.
    Relu(ReluLayer),
    /// Non-overlapping average pooling.
    AvgPool(AvgPoolLayer),
    /// Collapses `[N, ...] → [N, prod(...)]`.
    Flatten(FlattenLayer),
    /// Clips activations to `[0, amax]` and rounds them onto a uniform
    /// grid of `levels` values — the range-based linear activation
    /// quantizer of the paper's §IV-C.
    ActivationQuant(ActivationQuantLayer),
}

impl Layer {
    /// Creates a dense layer with Kaiming-normal weights.
    pub fn dense<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        let sigma = (2.0 / in_features as f32).sqrt();
        Layer::Dense(DenseLayer {
            weight: Param::new(Tensor::rand_normal(
                &[in_features, out_features],
                sigma,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cache_input: None,
        })
    }

    /// Creates a dense 2-D convolution with Kaiming-normal weights.
    pub fn conv2d<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = (in_channels * kernel * kernel) as f32;
        let sigma = (2.0 / fan_in).sqrt();
        Layer::Conv2d(Conv2dLayer {
            weight: Param::new(Tensor::rand_normal(
                &[out_channels, in_channels, kernel, kernel],
                sigma,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            geom: ConvGeometry::new(kernel, stride, pad),
            cache: None,
        })
    }

    /// Creates a depthwise 2-D convolution with Kaiming-normal weights.
    pub fn depthwise_conv2d<R: Rng + ?Sized>(
        channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let sigma = (2.0 / (kernel * kernel) as f32).sqrt();
        Layer::DepthwiseConv2d(DepthwiseConv2dLayer {
            weight: Param::new(Tensor::rand_normal(
                &[channels, 1, kernel, kernel],
                sigma,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[channels])),
            geom: ConvGeometry::new(kernel, stride, pad),
            cache_input: None,
        })
    }

    /// Creates a batch-normalization layer over `channels`.
    pub fn batch_norm2d(channels: usize) -> Self {
        Layer::BatchNorm2d(BatchNorm2dLayer {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        })
    }

    /// Creates a ReLU activation.
    pub fn relu() -> Self {
        Layer::Relu(ReluLayer { cache_mask: None })
    }

    /// Creates a `k×k`, stride-`k` average-pool layer.
    pub fn avg_pool(k: usize) -> Self {
        Layer::AvgPool(AvgPoolLayer {
            k,
            cache_shape: None,
        })
    }

    /// Creates a flatten layer.
    pub fn flatten() -> Self {
        Layer::Flatten(FlattenLayer { cache_shape: None })
    }

    /// Creates an activation quantizer clipping at `amax` with `levels`
    /// uniform steps.
    pub fn activation_quant(amax: f32, levels: usize) -> Self {
        Layer::ActivationQuant(ActivationQuantLayer { amax, levels })
    }

    /// Short human-readable layer name.
    pub fn name(&self) -> &'static str {
        match self {
            Layer::Dense(_) => "dense",
            Layer::Conv2d(_) => "conv2d",
            Layer::DepthwiseConv2d(_) => "depthwise_conv2d",
            Layer::BatchNorm2d(_) => "batch_norm2d",
            Layer::Relu(_) => "relu",
            Layer::AvgPool(_) => "avg_pool",
            Layer::Flatten(_) => "flatten",
            Layer::ActivationQuant(_) => "activation_quant",
        }
    }

    /// Runs the layer forward. With `train = true` the layer caches
    /// whatever its backward pass needs and batch-norm uses batch
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the tensor substrate.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        self.forward_with(x, train, &mut Scratch::default())
    }

    /// [`forward`](Self::forward) drawing the buffers it caches for the
    /// backward pass from `scratch`.
    pub(crate) fn forward_with(
        &mut self,
        x: &Tensor,
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor, NnError> {
        match self {
            Layer::Dense(l) => l.forward(x, train),
            Layer::Conv2d(l) => l.forward(x, train, scratch),
            Layer::DepthwiseConv2d(l) => l.forward(x, train),
            Layer::BatchNorm2d(l) => l.forward(x, train),
            Layer::Relu(l) => l.forward(x, train),
            Layer::AvgPool(l) => l.forward(x, train),
            Layer::Flatten(l) => l.forward(x, train),
            Layer::ActivationQuant(l) => l.forward(x, train),
        }
    }

    /// Runs the layer backward, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] when no forward pass has
    /// been cached.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        Ok(self
            .backward_with(grad, true, &mut Scratch::default())?
            .expect("the input gradient was requested"))
    }

    /// [`backward`](Self::backward) that returns the buffers the forward
    /// pass cached to `scratch`, and skips the input gradient of a dense
    /// or convolution layer when `input_grad` is false (the first layer
    /// in training), returning `None` then.
    pub(crate) fn backward_with(
        &mut self,
        grad: &Tensor,
        input_grad: bool,
        scratch: &mut Scratch,
    ) -> Result<Option<Tensor>, NnError> {
        match self {
            Layer::Dense(l) => l.backward(grad, input_grad),
            Layer::Conv2d(l) => l.backward(grad, input_grad, scratch),
            Layer::DepthwiseConv2d(l) => l.backward(grad).map(Some),
            Layer::BatchNorm2d(l) => l.backward(grad).map(Some),
            Layer::Relu(l) => l.backward(grad).map(Some),
            Layer::AvgPool(l) => l.backward(grad).map(Some),
            Layer::Flatten(l) => l.backward(grad).map(Some),
            // Straight-through estimator: the quantizer is identity in the
            // backward pass.
            Layer::ActivationQuant(_) => Ok(Some(grad.clone())),
        }
    }

    /// Mutable access to this layer's trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Layer::Dense(l) => vec![&mut l.weight, &mut l.bias],
            Layer::Conv2d(l) => vec![&mut l.weight, &mut l.bias],
            Layer::DepthwiseConv2d(l) => vec![&mut l.weight, &mut l.bias],
            Layer::BatchNorm2d(l) => vec![&mut l.gamma, &mut l.beta],
            _ => Vec::new(),
        }
    }

    /// Clears accumulated gradients on all parameters.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// True for layers that hold synaptic weights (and therefore map onto
    /// crossbars).
    pub fn is_weight_layer(&self) -> bool {
        matches!(
            self,
            Layer::Dense(_) | Layer::Conv2d(_) | Layer::DepthwiseConv2d(_)
        )
    }

    /// Output shape for a given input shape, without running data through
    /// the layer.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible.
    pub fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>, NnError> {
        match self {
            Layer::Dense(l) => {
                if input.len() != 2 || input[1] != l.weight.value.shape()[0] {
                    return Err(NnError::InvalidConfig {
                        reason: format!(
                            "dense layer with {} inputs fed shape {input:?}",
                            l.weight.value.shape()[0]
                        ),
                    });
                }
                Ok(vec![input[0], l.weight.value.shape()[1]])
            }
            Layer::Conv2d(l) => {
                let [n, _, h, w] = image_shape("conv2d", input)?;
                let (oh, ow) = l.geom.out_hw(h, w)?;
                Ok(vec![n, l.weight.value.shape()[0], oh, ow])
            }
            Layer::DepthwiseConv2d(l) => {
                let [n, c, h, w] = image_shape("depthwise_conv2d", input)?;
                let (oh, ow) = l.geom.out_hw(h, w)?;
                Ok(vec![n, c, oh, ow])
            }
            Layer::BatchNorm2d(_) | Layer::Relu(_) | Layer::ActivationQuant(_) => {
                Ok(input.to_vec())
            }
            Layer::AvgPool(l) => {
                let [n, c, h, w] = image_shape("avg_pool", input)?;
                let k = l.window()?;
                Ok(vec![n, c, h / k, w / k])
            }
            Layer::Flatten(_) => Ok(vec![input[0], input[1..].iter().product()]),
        }
    }
}

/// Buffers that one training run recycles between batches: the
/// convolution layers' patch matrices, which a forward pass caches and
/// its backward pass hands back. `optim::train` owns one and drops it when
/// it returns; no layer or network keeps one between calls.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    buffers: Vec<Vec<f32>>,
}

impl Scratch {
    /// The most recently returned buffer (the layers of a network take
    /// and return theirs in mirrored order, so each gets its own back),
    /// or a new, empty one.
    fn take(&mut self) -> Vec<f32> {
        self.buffers.pop().unwrap_or_default()
    }

    fn give(&mut self, buffer: Vec<f32>) {
        self.buffers.push(buffer);
    }
}

/// The `[N, C, H, W]` dimensions of an image-layer input shape, or
/// [`NnError::InvalidConfig`] when it is not rank 4.
fn image_shape(layer: &str, shape: &[usize]) -> Result<[usize; 4], NnError> {
    match *shape {
        [n, c, h, w] => Ok([n, c, h, w]),
        _ => Err(NnError::InvalidConfig {
            reason: format!("{layer} expects rank-4 input, got {shape:?}"),
        }),
    }
}

// ---------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------

/// Fully connected layer: `y = x·W + b` with `W: [F, O]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    /// Weight matrix `[in_features, out_features]`.
    pub weight: Param,
    /// Bias vector `[out_features]`.
    pub bias: Param,
    cache_input: Option<Tensor>,
}

impl DenseLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let mut y = par::matmul(x, &self.weight.value)?;
        let o = self.bias.value.len();
        let b = self.bias.value.data();
        for row in y.data_mut().chunks_mut(o) {
            for (v, &bb) in row.iter_mut().zip(b) {
                *v += bb;
            }
        }
        if train {
            self.cache_input = Some(x.clone());
        }
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor, input_grad: bool) -> Result<Option<Tensor>, NnError> {
        let x = self
            .cache_input
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "dense".to_string(),
            })?;
        let dw = par::matmul_tn(&x, grad)?;
        self.weight.grad.add_assign(&dw)?;
        let o = self.bias.value.len();
        {
            let db = self.bias.grad.data_mut();
            for row in grad.data().chunks(o) {
                for (d, &g) in db.iter_mut().zip(row) {
                    *d += g;
                }
            }
        }
        if !input_grad {
            return Ok(None);
        }
        Ok(Some(par::matmul(grad, &self.weight.value.transpose()?)?))
    }
}

// ---------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct ConvCache {
    /// The input's transposed patches, [`par::conv2d_patches`].
    patches: Tensor,
    input_shape: [usize; 4],
}

/// Dense 2-D convolution: `im2col` patches times the flattened kernel,
/// mirroring how NEBULA physically maps kernels onto crossbar columns.
/// The patches are lowered transposed, one `[C·KH·KW, OH·OW]` block per
/// image, which makes each product an `A·B` whose output is already the
/// image's planes.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2dLayer {
    /// Kernel tensor `[OC, IC, KH, KW]`.
    pub weight: Param,
    /// Bias vector `[OC]`.
    pub bias: Param,
    /// Spatial geometry (kernel, stride, padding).
    pub geom: ConvGeometry,
    cache: Option<ConvCache>,
}

impl Conv2dLayer {
    fn forward(
        &mut self,
        x: &Tensor,
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor, NnError> {
        let input_shape = image_shape("conv2d", x.shape())?;
        let (weight, bias) = (&self.weight.value, Some(&self.bias.value));
        if !train {
            return Ok(par::conv2d(x, weight, bias, self.geom)?);
        }
        let patches = par::conv2d_patches(x, self.geom, scratch.take())?;
        let out = par::conv2d_from_patches(&patches, weight, bias)?;
        self.cache = Some(ConvCache {
            patches,
            input_shape,
        });
        Ok(out)
    }

    fn backward(
        &mut self,
        grad: &Tensor,
        input_grad: bool,
        scratch: &mut Scratch,
    ) -> Result<Option<Tensor>, NnError> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "conv2d".to_string(),
            })?;
        // dW = grad_rowsᵀ · im2col(x), over patch rows in ascending order.
        let dw = par::conv2d_weight_grad(&cache.patches, grad)?;
        self.weight
            .grad
            .add_assign(&dw.reshape(self.weight.value.shape())?)?;
        scratch.give(cache.patches.into_vec());
        // db = per-channel sums, in the same patch order.
        {
            let db = self.bias.grad.data_mut();
            let oc = db.len();
            let spatial = grad.len() / (grad.shape()[0] * oc).max(1);
            for image in grad.data().chunks_exact((oc * spatial).max(1)) {
                for (d, plane) in db.iter_mut().zip(image.chunks_exact(spatial.max(1))) {
                    for &g in plane {
                        *d += g;
                    }
                }
            }
        }
        if !input_grad {
            return Ok(None);
        }
        // dx = col2im(grad_rows · Wmat), one image at a time.
        let dx = par::conv2d_input_grad(grad, &self.weight.value, cache.input_shape, self.geom)?;
        Ok(Some(dx))
    }
}

// ---------------------------------------------------------------------
// DepthwiseConv2d
// ---------------------------------------------------------------------

/// Depthwise 2-D convolution (each channel convolved independently).
#[derive(Debug, Clone, PartialEq)]
pub struct DepthwiseConv2dLayer {
    /// Kernel tensor `[C, 1, KH, KW]`.
    pub weight: Param,
    /// Bias vector `[C]`.
    pub bias: Param,
    /// Spatial geometry (kernel, stride, padding).
    pub geom: ConvGeometry,
    cache_input: Option<Tensor>,
}

impl DepthwiseConv2dLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let y = nebula_tensor::depthwise_conv2d(
            x,
            &self.weight.value,
            Some(&self.bias.value),
            self.geom,
        )?;
        if train {
            self.cache_input = Some(x.clone());
        }
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cache_input
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "depthwise_conv2d".to_string(),
            })?;
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (grad.shape()[2], grad.shape()[3]);
        let g = self.geom;
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let (xs, gs, ws) = (x.data(), grad.data(), self.weight.value.data());
        {
            let dxd = dx.data_mut();
            let dwd = self.weight.grad.data_mut();
            let dbd = self.bias.grad.data_mut();
            for img in 0..n {
                for ch in 0..c {
                    let in_base = (img * c + ch) * h * w;
                    let out_base = (img * c + ch) * oh * ow;
                    let w_base = ch * g.kh * g.kw;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let go = gs[out_base + oy * ow + ox];
                            if go == 0.0 {
                                continue;
                            }
                            dbd[ch] += go;
                            for ky in 0..g.kh {
                                let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                                if iy < 0 || iy as usize >= h {
                                    continue;
                                }
                                for kx in 0..g.kw {
                                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                    if ix < 0 || ix as usize >= w {
                                        continue;
                                    }
                                    let xi = in_base + iy as usize * w + ix as usize;
                                    dwd[w_base + ky * g.kw + kx] += go * xs[xi];
                                    dxd[xi] += go * ws[w_base + ky * g.kw + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(dx)
    }
}

// ---------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
}

/// Batch normalization over the channel axis of `[N, C, H, W]`.
///
/// At inference the running statistics are used; the ANN→SNN conversion
/// folds this layer into the preceding convolution
/// ([`crate::convert::fold_batch_norm`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm2dLayer {
    /// Learnable scale `[C]`.
    pub gamma: Param,
    /// Learnable shift `[C]`.
    pub beta: Param,
    /// Running mean per channel.
    pub running_mean: Vec<f32>,
    /// Running variance per channel.
    pub running_var: Vec<f32>,
    /// Running-statistics update rate.
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    cache: Option<BnCache>,
}

impl BatchNorm2dLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if x.rank() != 4 {
            return Err(NnError::InvalidConfig {
                reason: format!("batch_norm2d expects rank-4 input, got {:?}", x.shape()),
            });
        }
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let m = (n * h * w) as f32;
        let spatial = h * w;
        let mut out = Tensor::zeros(x.shape());
        let mut xhat = Tensor::zeros(x.shape());
        let mut inv_std = vec![0.0f32; c];
        for ch in 0..c {
            let (mean, var) = if train {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for img in 0..n {
                    let base = (img * c + ch) * spatial;
                    for s in 0..spatial {
                        let v = x.data()[base + s] as f64;
                        sum += v;
                        sq += v * v;
                    }
                }
                let mean = (sum / m as f64) as f32;
                let var = ((sq / m as f64) as f32 - mean * mean).max(0.0);
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ch], self.running_var[ch])
            };
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std[ch] = istd;
            let (gm, bt) = (self.gamma.value.data()[ch], self.beta.value.data()[ch]);
            for img in 0..n {
                let base = (img * c + ch) * spatial;
                for s in 0..spatial {
                    let xh = (x.data()[base + s] - mean) * istd;
                    xhat.data_mut()[base + s] = xh;
                    out.data_mut()[base + s] = gm * xh + bt;
                }
            }
        }
        if train {
            self.cache = Some(BnCache { xhat, inv_std });
        }
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "batch_norm2d".to_string(),
            })?;
        let (n, c, h, w) = (
            grad.shape()[0],
            grad.shape()[1],
            grad.shape()[2],
            grad.shape()[3],
        );
        let m = (n * h * w) as f32;
        let spatial = h * w;
        let mut dx = Tensor::zeros(grad.shape());
        for ch in 0..c {
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for img in 0..n {
                let base = (img * c + ch) * spatial;
                for s in 0..spatial {
                    let g = grad.data()[base + s];
                    sum_g += g;
                    sum_gx += g * cache.xhat.data()[base + s];
                }
            }
            self.gamma.grad.data_mut()[ch] += sum_gx;
            self.beta.grad.data_mut()[ch] += sum_g;
            let k = self.gamma.value.data()[ch] * cache.inv_std[ch] / m;
            for img in 0..n {
                let base = (img * c + ch) * spatial;
                for s in 0..spatial {
                    let g = grad.data()[base + s];
                    let xh = cache.xhat.data()[base + s];
                    dx.data_mut()[base + s] = k * (m * g - sum_g - xh * sum_gx);
                }
            }
        }
        Ok(dx)
    }
}

// ---------------------------------------------------------------------
// Relu / AvgPool / Flatten
// ---------------------------------------------------------------------

/// Rectified linear activation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReluLayer {
    cache_mask: Option<Vec<bool>>,
}

impl ReluLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if train {
            self.cache_mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        }
        Ok(x.relu())
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .cache_mask
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "relu".to_string(),
            })?;
        let mut dx = grad.clone();
        for (v, keep) in dx.data_mut().iter_mut().zip(mask) {
            // A select rather than a branch, so the loop vectorizes.
            *v = if keep { *v } else { 0.0 };
        }
        Ok(dx)
    }
}

/// Non-overlapping `k×k` average pooling.
#[derive(Debug, Clone, PartialEq)]
pub struct AvgPoolLayer {
    /// Pool window and stride.
    pub k: usize,
    cache_shape: Option<[usize; 4]>,
}

impl AvgPoolLayer {
    /// The pool window, or [`NnError::InvalidConfig`] when it is zero.
    fn window(&self) -> Result<usize, NnError> {
        if self.k == 0 {
            return Err(NnError::InvalidConfig {
                reason: "avg_pool window must be nonzero".to_string(),
            });
        }
        Ok(self.k)
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let shape = image_shape("avg_pool", x.shape())?;
        let out = avg_pool2d(x, self.window()?)?;
        if train {
            self.cache_shape = Some(shape);
        }
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .cache_shape
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "avg_pool".to_string(),
            })?;
        Ok(avg_pool2d_backward(grad, shape, self.k)?)
    }
}

/// Collapses all non-batch dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct FlattenLayer {
    cache_shape: Option<Vec<usize>>,
}

impl FlattenLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if train {
            self.cache_shape = Some(x.shape().to_vec());
        }
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        Ok(x.reshape(&[n, rest])?)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .cache_shape
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "flatten".to_string(),
            })?;
        Ok(grad.reshape(&shape)?)
    }
}

/// Range-based linear activation quantizer (§IV-C): clips to `[0, amax]`
/// and rounds onto `levels` uniform steps. Backward is straight-through.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationQuantLayer {
    /// Clipping ceiling, fixed from calibration data.
    pub amax: f32,
    /// Number of quantization levels (16 at 4-bit precision).
    pub levels: usize,
}

impl ActivationQuantLayer {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        if self.levels < 2 || self.amax <= 0.0 {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "activation quantizer needs levels ≥ 2 and amax > 0, got {} / {}",
                    self.levels, self.amax
                ),
            });
        }
        let step = self.amax / (self.levels - 1) as f32;
        Ok(x.map(|v| {
            let clipped = v.clamp(0.0, self.amax);
            (clipped / step).round() * step
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    /// Numerically checks dL/dx for a layer where L = sum(forward(x) * c).
    fn check_input_gradient(layer: &mut Layer, x: &Tensor, tol: f32) {
        let mut r = rng();
        let y = layer.forward(x, true).unwrap();
        let c = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut r);
        let dx = layer.backward(&c).unwrap();
        // Finite differences on a few elements.
        let eps = 1e-2f32;
        let probes = [0usize, x.len() / 2, x.len() - 1];
        for &i in &probes {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            // train=true so batch-norm's finite difference uses the same
            // batch statistics its analytic backward assumes.
            let yp = layer.forward(&xp, true).unwrap();
            let ym = layer.forward(&xm, true).unwrap();
            let lp: f32 = yp.data().iter().zip(c.data()).map(|(a, b)| a * b).sum();
            let lm: f32 = ym.data().iter().zip(c.data()).map(|(a, b)| a * b).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.data()[i];
            assert!(
                (numeric - analytic).abs() < tol * numeric.abs().max(1.0),
                "grad mismatch at {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut r = rng();
        let mut l = Layer::dense(3, 2, &mut r);
        if let Layer::Dense(d) = &mut l {
            d.bias.value.data_mut()[0] = 1.0;
        }
        let y = l.forward(&Tensor::zeros(&[4, 3]), false).unwrap();
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.at(&[0, 0]), 1.0);
        assert_eq!(y.at(&[0, 1]), 0.0);
    }

    #[test]
    fn dense_input_gradient_is_correct() {
        let mut r = rng();
        let mut l = Layer::dense(5, 4, &mut r);
        let x = Tensor::rand_uniform(&[3, 5], -1.0, 1.0, &mut r);
        check_input_gradient(&mut l, &x, 1e-2);
    }

    #[test]
    fn dense_weight_gradient_is_correct() {
        let mut r = rng();
        let mut l = Layer::dense(3, 2, &mut r);
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut r);
        let y = l.forward(&x, true).unwrap();
        let c = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut r);
        l.backward(&c).unwrap();
        let analytic = if let Layer::Dense(d) = &l {
            d.weight.grad.clone()
        } else {
            unreachable!()
        };
        // Finite difference on w[0,0].
        let eps = 1e-2f32;
        let loss = |l: &mut Layer, x: &Tensor| -> f32 {
            let y = l.forward(x, false).unwrap();
            y.data().iter().zip(c.data()).map(|(a, b)| a * b).sum()
        };
        if let Layer::Dense(d) = &mut l {
            d.weight.value.data_mut()[0] += eps;
        }
        let lp = loss(&mut l, &x);
        if let Layer::Dense(d) = &mut l {
            d.weight.value.data_mut()[0] -= 2.0 * eps;
        }
        let lm = loss(&mut l, &x);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - analytic.data()[0]).abs() < 1e-2 * numeric.abs().max(1.0));
    }

    #[test]
    fn conv2d_input_gradient_is_correct() {
        let mut r = rng();
        let mut l = Layer::conv2d(2, 3, 3, 1, 1, &mut r);
        let x = Tensor::rand_uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut r);
        check_input_gradient(&mut l, &x, 2e-2);
    }

    #[test]
    fn conv2d_strided_shapes() {
        let mut r = rng();
        let mut l = Layer::conv2d(3, 8, 3, 2, 1, &mut r);
        let y = l.forward(&Tensor::zeros(&[2, 3, 8, 8]), false).unwrap();
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
        assert_eq!(l.output_shape(&[2, 3, 8, 8]).unwrap(), vec![2, 8, 4, 4]);
    }

    #[test]
    fn depthwise_input_gradient_is_correct() {
        let mut r = rng();
        let mut l = Layer::depthwise_conv2d(3, 3, 1, 1, &mut r);
        let x = Tensor::rand_uniform(&[1, 3, 4, 4], -1.0, 1.0, &mut r);
        check_input_gradient(&mut l, &x, 2e-2);
    }

    #[test]
    fn batch_norm_normalizes_in_train_mode() {
        let mut r = rng();
        let mut l = Layer::batch_norm2d(2);
        let x = Tensor::rand_uniform(&[8, 2, 4, 4], 5.0, 9.0, &mut r);
        let y = l.forward(&x, true).unwrap();
        // Per-channel mean ≈ 0, var ≈ 1 after normalization.
        let spatial = 16;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for img in 0..8 {
                let base = (img * 2 + ch) * spatial;
                vals.extend_from_slice(&y.data()[base..base + spatial]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batch_norm_eval_uses_running_stats() {
        let mut r = rng();
        let mut l = Layer::batch_norm2d(1);
        // Train on data with mean 10 to move the running stats.
        for _ in 0..50 {
            let x = Tensor::rand_uniform(&[8, 1, 2, 2], 9.0, 11.0, &mut r);
            l.forward(&x, true).unwrap();
        }
        // Eval on the same distribution: output should be ~N(0,1).
        let x = Tensor::full(&[1, 1, 2, 2], 10.0);
        let y = l.forward(&x, false).unwrap();
        assert!(
            y.data()[0].abs() < 0.5,
            "running stats not learned: {}",
            y.data()[0]
        );
    }

    #[test]
    fn batch_norm_input_gradient_is_correct() {
        let mut r = rng();
        let mut l = Layer::batch_norm2d(2);
        let x = Tensor::rand_uniform(&[4, 2, 3, 3], -2.0, 2.0, &mut r);
        check_input_gradient(&mut l, &x, 5e-2);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut l = Layer::relu();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        l.forward(&x, true).unwrap();
        let dx = l.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0]);
    }

    #[test]
    fn avg_pool_gradient_round_trip() {
        let mut l = Layer::avg_pool(2);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = l.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        let dx = l.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert!((dx.sum() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn flatten_round_trips() {
        let mut l = Layer::flatten();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = l.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 48]);
        let dx = l.backward(&Tensor::zeros(&[2, 48])).unwrap();
        assert_eq!(dx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = Layer::relu();
        assert!(matches!(
            l.backward(&Tensor::zeros(&[1])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn weight_layers_are_flagged() {
        let mut r = rng();
        assert!(Layer::dense(1, 1, &mut r).is_weight_layer());
        assert!(Layer::conv2d(1, 1, 3, 1, 1, &mut r).is_weight_layer());
        assert!(!Layer::relu().is_weight_layer());
        assert!(!Layer::batch_norm2d(4).is_weight_layer());
    }

    #[test]
    fn activation_quant_clips_and_snaps() {
        let mut l = Layer::activation_quant(1.5, 16);
        let x = Tensor::from_vec(vec![-0.3, 0.04, 0.75, 2.0], &[1, 4]).unwrap();
        let y = l.forward(&x, false).unwrap();
        let step = 1.5 / 15.0;
        assert_eq!(y.data()[0], 0.0); // rectified
        assert!((y.data()[1] - step * (0.04f32 / step).round()).abs() < 1e-6);
        assert_eq!(y.data()[3], 1.5); // clipped at amax
                                      // All outputs land exactly on the grid.
        for &v in y.data() {
            let k = v / step;
            assert!((k - k.round()).abs() < 1e-5);
        }
        // Straight-through backward.
        let g = l.backward(&Tensor::ones(&[1, 4])).unwrap();
        assert_eq!(g.data(), &[1.0; 4]);
    }

    #[test]
    fn activation_quant_rejects_bad_config() {
        let mut l = Layer::activation_quant(0.0, 16);
        assert!(l.forward(&Tensor::ones(&[1]), false).is_err());
        let mut l2 = Layer::activation_quant(1.0, 1);
        assert!(l2.forward(&Tensor::ones(&[1]), false).is_err());
    }

    #[test]
    fn conv2d_forward_rejects_a_rank_below_four() {
        let mut l = Layer::conv2d(1, 2, 3, 1, 1, &mut rng());
        for shape in [&[4, 4][..], &[1, 4, 4]] {
            assert!(matches!(
                l.forward(&Tensor::zeros(shape), true),
                Err(NnError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn output_shape_rejects_a_rank_below_four() {
        let mut r = rng();
        for layer in [
            Layer::conv2d(1, 2, 3, 1, 1, &mut r),
            Layer::depthwise_conv2d(1, 3, 1, 1, &mut r),
            Layer::avg_pool(2),
        ] {
            for shape in [&[][..], &[4], &[2, 4], &[1, 4, 4]] {
                assert!(
                    matches!(
                        layer.output_shape(shape),
                        Err(NnError::InvalidConfig { .. })
                    ),
                    "{} on {shape:?}",
                    layer.name()
                );
            }
        }
    }

    #[test]
    fn avg_pool_rejects_a_zero_window() {
        let mut l = Layer::avg_pool(0);
        assert!(matches!(
            l.output_shape(&[1, 1, 4, 4]),
            Err(NnError::InvalidConfig { .. })
        ));
        assert!(matches!(
            l.forward(&Tensor::ones(&[1, 1, 4, 4]), true),
            Err(NnError::InvalidConfig { .. })
        ));
        let mut l = Layer::avg_pool(2);
        assert!(matches!(
            l.forward(&Tensor::ones(&[4, 4]), true),
            Err(NnError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn output_shape_matches_forward_shapes() {
        let mut r = rng();
        let shapes: Vec<(Layer, Vec<usize>)> = vec![
            (Layer::dense(6, 4, &mut r), vec![2, 6]),
            (Layer::conv2d(2, 5, 3, 1, 1, &mut r), vec![2, 2, 6, 6]),
            (
                Layer::depthwise_conv2d(3, 3, 2, 1, &mut r),
                vec![1, 3, 6, 6],
            ),
            (Layer::batch_norm2d(3), vec![2, 3, 4, 4]),
            (Layer::relu(), vec![2, 3, 4, 4]),
            (Layer::avg_pool(2), vec![2, 3, 4, 4]),
            (Layer::flatten(), vec![2, 3, 4, 4]),
        ];
        for (mut layer, in_shape) in shapes {
            let x = Tensor::zeros(&in_shape);
            let y = layer.forward(&x, false).unwrap();
            assert_eq!(
                layer.output_shape(&in_shape).unwrap(),
                y.shape().to_vec(),
                "{} output_shape mismatch",
                layer.name()
            );
        }
    }
}
