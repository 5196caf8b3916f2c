//! # nebula-tensor
//!
//! Dense-tensor substrate for the NEBULA simulation stack: a small,
//! dependency-light `f32` tensor with exactly the linear-algebra,
//! convolution and pooling operations the neural-network layers need.
//!
//! * [`Tensor`] — row-major dense tensor: arithmetic, matmul, reductions.
//! * [`gemm`] — the register-tiled f32 GEMM kernel behind every matmul
//!   and blocked convolution, with a row-sparsity branch for spike
//!   matrices and the pinned naive reference
//!   ([`gemm::matmul_reference`]) it is bit-identical to.
//! * [`conv`] — `im2col`/`col2im` lowering (the software twin of NEBULA's
//!   kernel-to-crossbar mapping), dense & depthwise convolution, pooling.
//! * [`par`] — parallel matmul, `aᵀ·b` and blocked conv2d with its
//!   weight and input gradients, bit-identical to their sequential
//!   compositions, running on [`pool`].
//! * [`pool`] — the lazily-initialized persistent worker pool behind
//!   every parallel kernel (honors `NEBULA_THREADS`).
//!
//! # Examples
//!
//! ```
//! use nebula_tensor::{conv, Tensor};
//!
//! // A 3×3 image of ones convolved with a 2×2 box kernel.
//! let x = Tensor::ones(&[1, 1, 3, 3]);
//! let w = Tensor::ones(&[1, 1, 2, 2]);
//! let y = conv::conv2d(&x, &w, None, conv::ConvGeometry::new(2, 1, 0))?;
//! assert_eq!(y.shape(), &[1, 1, 2, 2]);
//! assert!(y.data().iter().all(|&v| v == 4.0));
//! # Ok::<(), nebula_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod conv;
pub mod error;
pub mod gemm;
pub mod par;
pub mod pool;
mod tensor;

pub use conv::{
    avg_pool2d, avg_pool2d_backward, col2im, conv2d, depthwise_conv2d, im2col, max_pool2d,
    ConvGeometry,
};
pub use error::TensorError;
pub use tensor::Tensor;
