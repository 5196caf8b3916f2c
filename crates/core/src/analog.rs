//! Analog execution: compile a trained (quantized) network onto actual
//! super-tile circuit structures and run inference *through the
//! device-level crossbar models* — the functional twin of programming a
//! real NEBULA chip.
//!
//! Where the [`engine`](crate::engine) module prices a workload
//! analytically, this module computes with it: every dense/conv MAC goes
//! through [`SuperTile::dot`] (DW-MTJ conductances, reference-column
//! signed weights, 16-level quantization, optional read noise), im2col
//! streaming plays the role of the input buffers and drivers, and one
//! crossbar evaluation corresponds to one 110 ns wave of the Fig. 8
//! pipeline.
//!
//! Supported layers: `Dense`, `Conv2d`, `Relu`, `ActivationQuant`,
//! `AvgPool`, `Flatten`. Biases are applied digitally (a real chip would
//! dedicate a bias row; the paper does not detail it). Depthwise
//! convolutions and batch-norm must be lowered/folded before
//! compilation.

use crate::components::{M, MAX_RF_IN_CORE};
use nebula_crossbar::{kernel, CrossbarConfig, CrossbarError, KernelPath, Mode, SuperTile};
use nebula_device::units::{Amps, Joules};
use nebula_nn::layer::Layer;
use nebula_nn::{Network, NnError};
use nebula_tensor::{avg_pool2d, im2col, ConvGeometry, Tensor, TensorError};
use rand::Rng;

/// Errors produced while compiling or executing analog networks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalogError {
    /// A layer kind the analog compiler does not support.
    Unsupported {
        /// Name of the offending layer.
        layer: String,
    },
    /// The kernel is too large even for the multi-core path this
    /// executor models (receptive field beyond `16M` per column group is
    /// split; zero-sized layers are rejected).
    BadGeometry {
        /// Explanation.
        reason: String,
    },
    /// An input value is NaN or infinite. Inference entry points check
    /// their whole input once, before any crossbar is driven, so a bad
    /// value cannot turn into silent NaN outputs or all-zero potentials.
    NonFiniteInput {
        /// Flat (row-major) index of the first non-finite value.
        index: usize,
    },
    /// Circuit-level failure.
    Crossbar(CrossbarError),
    /// Inter-chip fabric failure (multi-chip sharded execution).
    Noc(nebula_noc::NocError),
    /// Tensor failure.
    Tensor(TensorError),
}

impl std::fmt::Display for AnalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalogError::Unsupported { layer } => {
                write!(f, "analog compiler does not support `{layer}` layers")
            }
            AnalogError::BadGeometry { reason } => write!(f, "bad analog geometry: {reason}"),
            AnalogError::NonFiniteInput { index } => {
                write!(f, "non-finite input value at flat index {index}")
            }
            AnalogError::Crossbar(e) => write!(f, "crossbar failure: {e}"),
            AnalogError::Noc(e) => write!(f, "inter-chip fabric failure: {e}"),
            AnalogError::Tensor(e) => write!(f, "tensor failure: {e}"),
        }
    }
}

impl std::error::Error for AnalogError {}

/// Rejects an input holding a NaN or an infinity with
/// [`AnalogError::NonFiniteInput`] naming the first one.
pub(crate) fn check_finite(inputs: &Tensor) -> Result<(), AnalogError> {
    // A branch-free pass (it vectorizes) for the common all-finite case.
    if inputs.data().iter().fold(true, |ok, v| ok & v.is_finite()) {
        return Ok(());
    }
    let index = inputs.data().iter().position(|v| !v.is_finite());
    Err(AnalogError::NonFiniteInput {
        index: index.expect("a non-finite value was found"),
    })
}

impl From<nebula_noc::NocError> for AnalogError {
    fn from(e: nebula_noc::NocError) -> Self {
        AnalogError::Noc(e)
    }
}

impl From<CrossbarError> for AnalogError {
    fn from(e: CrossbarError) -> Self {
        AnalogError::Crossbar(e)
    }
}

impl From<TensorError> for AnalogError {
    fn from(e: TensorError) -> Self {
        AnalogError::Tensor(e)
    }
}

impl From<NnError> for AnalogError {
    fn from(e: NnError) -> Self {
        match e {
            NnError::Tensor(t) => AnalogError::Tensor(t),
            other => AnalogError::BadGeometry {
                reason: other.to_string(),
            },
        }
    }
}

/// One weight matrix programmed across super-tiles: rows are split into
/// `R_f ≤ 16M` segments (multi-core spill), columns into groups of `M`.
#[derive(Debug, Clone)]
pub(crate) struct ProgrammedMatrix {
    /// `tiles[segment][group]`.
    pub(crate) tiles: Vec<Vec<SuperTile>>,
    pub(crate) segment_rows: Vec<usize>,
    pub(crate) cols: usize,
    pub(crate) rf: usize,
    /// Input normalization: activations are divided by this before
    /// driving the bit-lines (so drives stay in `[0, 1]`).
    pub(crate) x_scale: f32,
}

impl ProgrammedMatrix {
    /// Programs `weight[rf][cols]` (row-major `Tensor` `[rf, cols]`).
    pub(crate) fn program(
        weight: &Tensor,
        x_scale: f32,
        config: &CrossbarConfig,
    ) -> Result<Self, AnalogError> {
        let (rf, cols) = (weight.shape()[0], weight.shape()[1]);
        if rf == 0 || cols == 0 {
            return Err(AnalogError::BadGeometry {
                reason: format!("degenerate weight matrix {rf}×{cols}"),
            });
        }
        let clip = weight
            .data()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()))
            .max(1e-6) as f64;
        let mut tiles = Vec::new();
        let mut segment_rows = Vec::new();
        for seg_start in (0..rf).step_by(MAX_RF_IN_CORE) {
            let seg_rows = (rf - seg_start).min(MAX_RF_IN_CORE);
            segment_rows.push(seg_rows);
            let mut groups = Vec::new();
            for col_start in (0..cols).step_by(M) {
                let group_cols = (cols - col_start).min(M);
                let mut block = vec![vec![0.0f64; group_cols]; seg_rows];
                for (r, row) in block.iter_mut().enumerate() {
                    for (c, cell) in row.iter_mut().enumerate() {
                        *cell = weight.at(&[seg_start + r, col_start + c]) as f64;
                    }
                }
                let mut st = SuperTile::new(config.clone())?;
                st.program(&block, clip)?;
                groups.push(st);
            }
            tiles.push(groups);
        }
        Ok(Self {
            tiles,
            segment_rows,
            cols,
            rf,
            x_scale,
        })
    }

    /// Evaluates one input vector (length `rf`, real units) through the
    /// legacy per-cell crossbar loop ([`SuperTile::dot_reference`]):
    /// drives the crossbars with `x / x_scale` and returns the
    /// real-valued products `Wᵀx` per column. Bit-identical to one item
    /// of [`dot_batch_with`](Self::dot_batch_with); kept as the
    /// reference for equivalence tests and the `bench_hotpath`
    /// sequential leg.
    pub(crate) fn dot_reference(&mut self, x: &[f32]) -> Result<Vec<f32>, AnalogError> {
        debug_assert_eq!(x.len(), self.rf);
        let mut out = vec![0.0f32; self.cols];
        let mut offset = 0usize;
        for (seg, seg_rows) in self.segment_rows.clone().into_iter().enumerate() {
            let drive: Vec<f64> = x[offset..offset + seg_rows]
                .iter()
                .map(|&v| (v / self.x_scale).clamp(0.0, 1.0) as f64)
                .collect();
            for (g, tile) in self.tiles[seg].iter_mut().enumerate() {
                let currents = tile.dot_reference(&drive)?;
                let unit = tile.unit_current().0;
                for (c, i) in currents.iter().enumerate() {
                    // value (weight units) → real: × x_scale (drive
                    // normalization) — clip is already the weight unit.
                    out[g * M + c] += (i.0 / unit) as f32 * self.x_scale;
                }
            }
            offset += seg_rows;
        }
        Ok(out)
    }

    /// Evaluates a whole batch of input rows through the split-phase
    /// fast path: every tile's conductance caches are prepared once, the
    /// persistent worker pool evaluates items concurrently against the
    /// shared tiles (`&self` — [`SuperTile::eval_dense_prepared`]), and
    /// read energy is then accrued sequentially in ascending item order
    /// per atomic crossbar. Returns the products flat, `cols` values per
    /// item in item order. Outputs are **bit-identical** to calling
    /// [`dot_reference`](Self::dot_reference) on each row in turn — for
    /// any worker count — because each item's floating-point work is
    /// per-item pure and the accrual order matches the sequential path.
    /// Energy counters are bit-identical too under
    /// [`KernelPath::Scalar`]; the default vectorized kernel re-associates
    /// the total-current sum per row and tracks the reference to a
    /// relative error ≤ 1e-12.
    ///
    /// Input rows are supplied by an index accessor instead of a
    /// materialized `&[&[f32]]`, and the worker count is explicit. The
    /// accessor form lets callers that window a flat activation buffer
    /// (the multi-chip sharded executors slice `[lo, hi)` out of every
    /// row) feed the crossbars without building a fresh slice vector
    /// per call; the explicit worker count lets the pipeline executor
    /// force single-threaded evaluation inside a pipeline stage
    /// (`workers == 1` never touches the pool).
    pub(crate) fn dot_batch_with<'d>(
        &mut self,
        n: usize,
        workers: usize,
        row: impl Fn(usize) -> &'d [f32] + Sync,
    ) -> Result<Vec<f32>, AnalogError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        for tile in self.tiles.iter_mut().flatten() {
            tile.prepare();
        }
        let x_scale = self.x_scale;
        let cols = self.cols;
        let rf = self.rf;
        let segment_rows = &self.segment_rows;
        let tiles = &self.tiles;
        // Per-AC total currents for one item live in a single flat
        // buffer, sliced per tile in (segment, group) order.
        let total_chunks: usize = tiles.iter().flatten().map(SuperTile::chunk_count).sum();
        let units: Vec<Vec<f64>> = tiles
            .iter()
            .map(|seg| seg.iter().map(|t| t.unit_current().0).collect())
            .collect();
        // Workers take contiguous item blocks so scratch buffers are
        // reused across a block's items; the per-item values don't depend
        // on the partition, so results are identical for any worker
        // count. Each block yields one flat output buffer (`cols` values
        // per item) and one flat current buffer (`total_chunks` values
        // per item, in (segment, group, chunk) order).
        let blocks = workers.clamp(1, n);
        type BlockResult = (Vec<f32>, Vec<f64>);
        let per_block: Vec<BlockResult> =
            nebula_tensor::pool::par_map_indexed(blocks, workers, |b| {
                let lo = b * n / blocks;
                let hi = (b + 1) * n / blocks;
                let mut totals = vec![Amps::ZERO; M];
                // Lane-padded so the vectorized kernel can write its
                // tail lanes (every tile's scratch_cols() is ≤ this).
                let mut diff = vec![0.0f64; kernel::padded_len(M)];
                let mut drive: Vec<f64> = Vec::new();
                let mut out = vec![0.0f32; (hi - lo) * cols];
                let mut flat = vec![0.0f64; (hi - lo) * total_chunks];
                for (i, item) in (lo..hi).enumerate() {
                    let x = row(item);
                    debug_assert_eq!(x.len(), rf);
                    let out_row = &mut out[i * cols..(i + 1) * cols];
                    let flat_row = &mut flat[i * total_chunks..(i + 1) * total_chunks];
                    let mut offset = 0usize;
                    let mut chunk_off = 0usize;
                    for (seg, &seg_rows) in segment_rows.iter().enumerate() {
                        drive.clear();
                        drive.extend(
                            x[offset..offset + seg_rows]
                                .iter()
                                .map(|&v| (v / x_scale).clamp(0.0, 1.0) as f64),
                        );
                        for (g, (tile, &unit)) in tiles[seg].iter().zip(&units[seg]).enumerate() {
                            let chunks = tile.chunk_count();
                            tile.eval_dense_prepared(
                                &drive,
                                &mut totals,
                                &mut flat_row[chunk_off..chunk_off + chunks],
                                &mut diff,
                            );
                            for (c, i) in totals[..tile.kernels()].iter().enumerate() {
                                out_row[g * M + c] += (i.0 / unit) as f32 * x_scale;
                            }
                            chunk_off += chunks;
                        }
                        offset += seg_rows;
                    }
                }
                (out, flat)
            });
        // Sequential accrual in ascending item order per atomic crossbar
        // (blocks are in ascending item order, items ascend within one).
        let mut item_currents: Vec<&[f64]> = Vec::with_capacity(n);
        let mut chunk_off = 0usize;
        for tile in self.tiles.iter_mut().flatten() {
            let chunks = tile.chunk_count();
            item_currents.clear();
            item_currents.extend(per_block.iter().flat_map(|(_, flat)| {
                flat.chunks(total_chunks)
                    .map(|row| &row[chunk_off..chunk_off + chunks])
            }));
            tile.accrue_batch(&item_currents);
            chunk_off += chunks;
        }
        let mut out = Vec::with_capacity(n * cols);
        for (block_out, _) in per_block {
            out.extend_from_slice(&block_out);
        }
        Ok(out)
    }

    pub(crate) fn read_energy(&self) -> Joules {
        self.tiles
            .iter()
            .flatten()
            .map(SuperTile::accumulated_read_energy)
            .sum()
    }

    pub(crate) fn program_energy(&self) -> Joules {
        self.tiles
            .iter()
            .flatten()
            .map(SuperTile::accumulated_program_energy)
            .sum()
    }

    pub(crate) fn supertile_count(&self) -> usize {
        self.tiles.iter().map(Vec::len).sum()
    }

    pub(crate) fn set_kernel_path(&mut self, path: KernelPath) {
        for tile in self.tiles.iter_mut().flatten() {
            tile.set_kernel_path(path);
        }
    }

    /// Builds any missing cache layouts and returns the total bytes the
    /// current kernel path's conductance caches occupy across all tiles
    /// (see [`SuperTile::kernel_cache_bytes`]).
    pub(crate) fn kernel_cache_bytes(&mut self) -> usize {
        for tile in self.tiles.iter_mut().flatten() {
            tile.prepare();
        }
        self.tiles
            .iter()
            .flatten()
            .map(SuperTile::kernel_cache_bytes)
            .sum()
    }

    /// Splits an already-programmed matrix into one single-segment
    /// matrix per `16M`-row segment, **moving** the programmed tiles
    /// (never re-programming): the weight clip is computed from the
    /// whole matrix, so a shard evaluated in isolation produces exactly
    /// the per-segment partial sums the unified matrix accumulates
    /// internally. This is how tensor sharding distributes one wide
    /// layer across chips while keeping every bit and every accrued
    /// joule attributable to the same physical tile.
    pub(crate) fn split_segments(self) -> Vec<ProgrammedMatrix> {
        let Self {
            tiles,
            segment_rows,
            cols,
            x_scale,
            ..
        } = self;
        tiles
            .into_iter()
            .zip(segment_rows)
            .map(|(groups, rows)| ProgrammedMatrix {
                tiles: vec![groups],
                segment_rows: vec![rows],
                cols,
                rf: rows,
                x_scale,
            })
            .collect()
    }
}

/// One compiled stage of an analog network.
#[derive(Debug, Clone)]
pub(crate) enum AnalogStage {
    Dense {
        matrix: ProgrammedMatrix,
        bias: Vec<f32>,
    },
    Conv {
        matrix: ProgrammedMatrix,
        bias: Vec<f32>,
        geom: ConvGeometry,
        out_channels: usize,
    },
    Relu,
    Quant {
        amax: f32,
        levels: usize,
    },
    AvgPool {
        k: usize,
    },
    Flatten,
}

/// A network compiled onto crossbar hardware models.
///
/// Build with [`compile`]; run with [`AnalogNetwork::forward`].
#[derive(Debug, Clone)]
pub struct AnalogNetwork {
    pub(crate) stages: Vec<AnalogStage>,
    pub(crate) waves: u64,
}

/// Compiles a (preferably 4-bit-quantized, BN-folded) network for analog
/// execution in the given mode.
///
/// Per-layer input scales are taken from the preceding
/// [`Layer::ActivationQuant`] ceiling when present (quantized networks),
/// else 1.0 (suitable for inputs already in `[0, 1]`).
///
/// # Errors
///
/// Returns [`AnalogError::Unsupported`] for depthwise convolutions and
/// live batch-norm layers.
pub fn compile(net: &Network, config: &CrossbarConfig) -> Result<AnalogNetwork, AnalogError> {
    let mut stages = Vec::with_capacity(net.len());
    // The scale of the *current* activations flowing between stages.
    let mut x_scale = 1.0f32;
    for layer in net.layers() {
        match layer {
            Layer::Dense(d) => {
                let matrix = ProgrammedMatrix::program(&d.weight.value, x_scale, config)?;
                stages.push(AnalogStage::Dense {
                    matrix,
                    bias: d.bias.value.data().to_vec(),
                });
            }
            Layer::Conv2d(c) => {
                let s = c.weight.value.shape();
                let (oc, ckk) = (s[0], s[1] * s[2] * s[3]);
                // Kernel matrix [R_f, OC] = flattened kernels as columns.
                let wmat = c.weight.value.reshape(&[oc, ckk])?.transpose()?;
                let matrix = ProgrammedMatrix::program(&wmat, x_scale, config)?;
                stages.push(AnalogStage::Conv {
                    matrix,
                    bias: c.bias.value.data().to_vec(),
                    geom: c.geom,
                    out_channels: oc,
                });
            }
            Layer::Relu(_) => stages.push(AnalogStage::Relu),
            Layer::ActivationQuant(q) => {
                stages.push(AnalogStage::Quant {
                    amax: q.amax,
                    levels: q.levels,
                });
                x_scale = q.amax;
            }
            Layer::AvgPool(p) => stages.push(AnalogStage::AvgPool { k: p.k }),
            Layer::Flatten(_) => stages.push(AnalogStage::Flatten),
            other => {
                return Err(AnalogError::Unsupported {
                    layer: other.name().to_string(),
                })
            }
        }
    }
    Ok(AnalogNetwork { stages, waves: 0 })
}

impl AnalogNetwork {
    /// Runs a batch through the crossbar models and returns the logits.
    ///
    /// All samples advance through each stage together: every weight
    /// stage prepares its tiles once and evaluates the whole batch
    /// through the split-phase [`SuperTile::eval_dense_prepared`], then
    /// accrues read energy in item order. Results and energy counters
    /// are bit-identical to [`forward_sequential`](Self::forward_sequential).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the input shape does not
    /// fit the network (see [`output_shape`](Self::output_shape)),
    /// [`AnalogError::NonFiniteInput`] for a NaN or infinite input, and
    /// propagates circuit and tensor failures.
    pub fn forward(&mut self, inputs: &Tensor) -> Result<Tensor, AnalogError> {
        self.forward_impl(inputs, false, nebula_tensor::pool::size())
    }

    /// [`forward`](Self::forward) with an explicit evaluation worker
    /// count. `workers == 1` keeps the whole pass on the calling thread
    /// (no pool dispatch at all) — the multi-chip pipeline executor runs
    /// each stage this way so stage-level concurrency comes from the
    /// pipeline, not from nested pool fan-out. Bit-identical to
    /// [`forward`](Self::forward) for any worker count.
    pub(crate) fn forward_with_workers(
        &mut self,
        inputs: &Tensor,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        self.forward_impl(inputs, false, workers)
    }

    /// [`forward`](Self::forward) through the legacy path: one
    /// uncached per-cell crossbar evaluation per sample — the pre-cache
    /// baseline. Kept for equivalence tests and the `bench_hotpath`
    /// sequential leg.
    ///
    /// # Errors
    ///
    /// As [`forward`](Self::forward).
    pub fn forward_sequential(&mut self, inputs: &Tensor) -> Result<Tensor, AnalogError> {
        self.forward_impl(inputs, true, 1)
    }

    /// The output shape a batch of `input_shape` produces, checking
    /// every stage's geometry on the way: weight stages need exactly
    /// their receptive field per row (`[n, rf]` for dense,
    /// `[n, c, h, w]` with `c·kh·kw = rf` for convolutions), and pooling
    /// needs rank-4 input.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] for the first stage the shape
    /// does not fit.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        let mut shape = input_shape.to_vec();
        if shape.is_empty() {
            return Err(AnalogError::BadGeometry {
                reason: "rank-0 input".into(),
            });
        }
        for stage in &self.stages {
            shape = match stage {
                AnalogStage::Dense { matrix, .. } => {
                    if shape.len() != 2 || shape[1] != matrix.rf {
                        return Err(AnalogError::BadGeometry {
                            reason: format!(
                                "dense stage expects [n, {}], got {shape:?}",
                                matrix.rf
                            ),
                        });
                    }
                    vec![shape[0], matrix.cols]
                }
                AnalogStage::Conv {
                    matrix,
                    geom,
                    out_channels,
                    ..
                } => {
                    if shape.len() != 4 || shape[1] * geom.kh * geom.kw != matrix.rf {
                        return Err(AnalogError::BadGeometry {
                            reason: format!(
                                "conv stage expects [n, {}, h, w], got {shape:?}",
                                matrix.rf / (geom.kh * geom.kw)
                            ),
                        });
                    }
                    let (oh, ow) = geom.out_hw(shape[2], shape[3])?;
                    vec![shape[0], *out_channels, oh, ow]
                }
                AnalogStage::Relu | AnalogStage::Quant { .. } => shape,
                AnalogStage::AvgPool { k } => {
                    if shape.len() != 4 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("avg-pool stage expects rank-4 input, got {shape:?}"),
                        });
                    }
                    vec![shape[0], shape[1], shape[2] / k, shape[3] / k]
                }
                AnalogStage::Flatten => vec![shape[0], shape[1..].iter().product()],
            };
        }
        Ok(shape)
    }

    fn forward_impl(
        &mut self,
        inputs: &Tensor,
        reference: bool,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        self.output_shape(inputs.shape())?;
        check_finite(inputs)?;
        let mut h = inputs.clone();
        // Take stages out to satisfy the borrow checker during mutation.
        let mut stages = std::mem::take(&mut self.stages);
        let result = (|| -> Result<Tensor, AnalogError> {
            for stage in stages.iter_mut() {
                h = match stage {
                    AnalogStage::Dense { matrix, bias } => {
                        let n = h.shape()[0];
                        let ys = if reference {
                            let mut ys = Vec::with_capacity(n * matrix.cols);
                            for i in 0..n {
                                let row = &h.data()[i * matrix.rf..(i + 1) * matrix.rf];
                                ys.extend(matrix.dot_reference(row)?);
                            }
                            ys
                        } else {
                            let rf = matrix.rf;
                            let data = h.data();
                            matrix.dot_batch_with(n, workers, |i| &data[i * rf..(i + 1) * rf])?
                        };
                        self.waves += n as u64;
                        let mut out = Tensor::zeros(&[n, matrix.cols]);
                        for (dst, y) in out
                            .data_mut()
                            .chunks_mut(bias.len())
                            .zip(ys.chunks(matrix.cols))
                        {
                            for (d, (v, b)) in dst.iter_mut().zip(y.iter().zip(bias.iter())) {
                                *d = v + b;
                            }
                        }
                        out
                    }
                    AnalogStage::Conv {
                        matrix,
                        bias,
                        geom,
                        out_channels,
                    } => {
                        let (n, hh, ww) = (h.shape()[0], h.shape()[2], h.shape()[3]);
                        let (oh, ow) = geom.out_hw(hh, ww)?;
                        // [N·OH·OW, R_f]; the parallel lowering is
                        // bit-identical to `im2col` (same index order),
                        // so single-worker passes take the serial one.
                        let cols = if reference || workers <= 1 {
                            im2col(&h, *geom)?
                        } else {
                            nebula_tensor::par::im2col(&h, *geom)?
                        };
                        let spatial = oh * ow;
                        let total_rows = n * spatial;
                        let ys = if reference {
                            let mut ys = Vec::with_capacity(total_rows * matrix.cols);
                            for ri in 0..total_rows {
                                let row = &cols.data()[ri * matrix.rf..(ri + 1) * matrix.rf];
                                ys.extend(matrix.dot_reference(row)?);
                            }
                            ys
                        } else {
                            let rf = matrix.rf;
                            let data = cols.data();
                            matrix.dot_batch_with(total_rows, workers, |ri| {
                                &data[ri * rf..(ri + 1) * rf]
                            })?
                        };
                        self.waves += total_rows as u64;
                        let mut out = Tensor::zeros(&[n, *out_channels, oh, ow]);
                        for img in 0..n {
                            for s in 0..spatial {
                                let y = &ys[(img * spatial + s) * matrix.cols..][..matrix.cols];
                                for (o, (&v, &b)) in y.iter().zip(bias.iter()).enumerate() {
                                    out.data_mut()
                                        [img * *out_channels * spatial + o * spatial + s] = v + b;
                                }
                            }
                        }
                        out
                    }
                    AnalogStage::Relu => h.relu(),
                    AnalogStage::Quant { amax, levels } => {
                        let step = *amax / (*levels - 1) as f32;
                        h.map(|v| (v.clamp(0.0, *amax) / step).round() * step)
                    }
                    AnalogStage::AvgPool { k } => avg_pool2d(&h, *k)?,
                    AnalogStage::Flatten => {
                        let n = h.shape()[0];
                        let rest: usize = h.shape()[1..].iter().product();
                        h.reshape(&[n, rest])?
                    }
                };
            }
            Ok(h)
        })();
        self.stages = stages;
        result
    }

    /// Predicted class per input row.
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures.
    pub fn predict(&mut self, inputs: &Tensor) -> Result<Vec<usize>, AnalogError> {
        Ok(self.forward(inputs)?.argmax_rows()?)
    }

    /// Classification accuracy over a labelled batch.
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures.
    ///
    /// # Panics
    ///
    /// Panics when the label count differs from the batch size.
    pub fn accuracy(&mut self, inputs: &Tensor, labels: &[usize]) -> Result<f64, AnalogError> {
        let preds = self.predict(inputs)?;
        assert_eq!(preds.len(), labels.len());
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }

    /// Selects the crossbar inner-loop kernel every programmed tile
    /// evaluates through (default [`KernelPath::Vectorized`]). Outputs
    /// are bit-identical on every path; under the vectorized and
    /// quantized paths read energy uses the per-row-sum formulation and
    /// agrees with the scalar/reference path to a relative error ≤ 1e-12
    /// per dot instead of bitwise (see [`nebula_crossbar::kernel`]).
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        for stage in &mut self.stages {
            if let AnalogStage::Dense { matrix, .. } | AnalogStage::Conv { matrix, .. } = stage {
                matrix.set_kernel_path(path);
            }
        }
    }

    /// Bytes the conductance caches backing the current kernel path
    /// occupy across all programmed tiles (building any missing layouts
    /// first) — the footprint `bench_hotpath` reports per path. The
    /// quantized layout packs state indices two per byte, so it lands at
    /// a fraction of the f64 differential cache.
    pub fn conductance_cache_bytes(&mut self) -> usize {
        self.stages
            .iter_mut()
            .map(|s| match s {
                AnalogStage::Dense { matrix, .. } | AnalogStage::Conv { matrix, .. } => {
                    matrix.kernel_cache_bytes()
                }
                _ => 0,
            })
            .sum()
    }

    /// Crossbar evaluation waves executed so far (each is one 110 ns
    /// pipeline wave on hardware).
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Super-tiles this network's weights occupy.
    pub fn supertile_count(&self) -> usize {
        self.stages
            .iter()
            .map(|s| match s {
                AnalogStage::Dense { matrix, .. } | AnalogStage::Conv { matrix, .. } => {
                    matrix.supertile_count()
                }
                _ => 0,
            })
            .sum()
    }

    /// Total analog read energy accrued across all crossbars.
    pub fn read_energy(&self) -> Joules {
        self.stages
            .iter()
            .map(|s| match s {
                AnalogStage::Dense { matrix, .. } | AnalogStage::Conv { matrix, .. } => {
                    matrix.read_energy()
                }
                _ => Joules::ZERO,
            })
            .sum()
    }

    /// Total programming energy spent writing the weights.
    pub fn program_energy(&self) -> Joules {
        self.stages
            .iter()
            .map(|s| match s {
                AnalogStage::Dense { matrix, .. } | AnalogStage::Conv { matrix, .. } => {
                    matrix.program_energy()
                }
                _ => Joules::ZERO,
            })
            .sum()
    }
}

/// Compiles with the paper's default ANN-mode crossbars.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_ann(net: &Network) -> Result<AnalogNetwork, AnalogError> {
    compile(net, &CrossbarConfig::paper_default(Mode::Ann))
}

/// Compiles with read noise of the given sigma (Monte-Carlo studies).
/// Note: noise sampling requires driving evaluation through
/// [`AnalogNetwork::forward`] after constructing the config explicitly —
/// this helper only sets the config's sigma so programmed conductances
/// carry it.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_ann_noisy(net: &Network, sigma: f64) -> Result<AnalogNetwork, AnalogError> {
    let mut cfg = CrossbarConfig::paper_default(Mode::Ann);
    cfg.read_noise_sigma = sigma;
    compile(net, &cfg)
}

/// Perturbs every programmed conductance once (device-mismatch style)
/// by re-programming the network's weights with multiplicative Gaussian
/// noise — the §IV-D Monte-Carlo experiment, executed at circuit level.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_ann_with_mismatch<R: Rng + ?Sized>(
    net: &Network,
    sigma: f64,
    rng: &mut R,
) -> Result<AnalogNetwork, AnalogError> {
    let model = nebula_device::variation::VariationModel::new(sigma);
    let mut noisy = net.clone();
    for layer in noisy.layers_mut() {
        if layer.is_weight_layer() {
            for p in layer.params_mut() {
                model.perturb_slice_f32(p.value.data_mut(), rng);
            }
        }
    }
    compile_ann(&noisy)
}

/// Number of `ACS_PER_SUPERTILE`-AC super-tiles a dense `rf×cols`
/// matrix occupies under this executor's splitting (for capacity
/// sanity-checks in tests).
pub fn expected_supertiles(rf: usize, cols: usize) -> usize {
    rf.div_ceil(MAX_RF_IN_CORE) * cols.div_ceil(M)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_nn::Layer as L;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn analog_dense_matches_digital_within_quantization() {
        let mut r = rng();
        let mut net = Network::new(vec![L::dense(12, 6, &mut r)]);
        // Quantize weights onto the 16-level grid so analog == digital.
        for layer in net.layers_mut() {
            for p in layer.params_mut() {
                nebula_nn::quant::quantize_weights_inplace(&mut p.value, 16, 1.0);
            }
        }
        let x = Tensor::rand_uniform(&[4, 12], 0.0, 1.0, &mut r);
        let digital = net.forward(&x).unwrap();
        let mut analog = compile_ann(&net).unwrap();
        let a = analog.forward(&x).unwrap();
        for (d, v) in digital.data().iter().zip(a.data()) {
            assert!(
                (d - v).abs() < 1e-3 * d.abs().max(1.0),
                "analog {v} vs digital {d}"
            );
        }
        assert_eq!(analog.waves(), 4);
        assert_eq!(analog.supertile_count(), 1);
    }

    #[test]
    fn analog_conv_matches_digital_within_quantization() {
        let mut r = rng();
        let mut net = Network::new(vec![L::conv2d(2, 3, 3, 1, 1, &mut r)]);
        for layer in net.layers_mut() {
            for p in layer.params_mut() {
                nebula_nn::quant::quantize_weights_inplace(&mut p.value, 16, 1.0);
            }
        }
        let x = Tensor::rand_uniform(&[1, 2, 5, 5], 0.0, 1.0, &mut r);
        let digital = net.forward(&x).unwrap();
        let mut analog = compile_ann(&net).unwrap();
        let a = analog.forward(&x).unwrap();
        assert_eq!(a.shape(), digital.shape());
        for (d, v) in digital.data().iter().zip(a.data()) {
            assert!(
                (d - v).abs() < 2e-3 * d.abs().max(1.0),
                "analog {v} vs digital {d}"
            );
        }
        assert_eq!(analog.waves(), 25); // 5×5 output positions
    }

    #[test]
    fn non_finite_inputs_are_rejected_before_evaluation() {
        let mut r = rng();
        let net = Network::new(vec![L::dense(2, 3, &mut r)]);
        let mut analog = compile_ann(&net).unwrap();
        for (bad, index) in [(f32::NAN, 3usize), (f32::NEG_INFINITY, 0)] {
            let mut x = Tensor::full(&[2, 2], 0.5);
            x.data_mut()[index] = bad;
            for result in [analog.forward(&x), analog.forward_sequential(&x)] {
                assert!(
                    matches!(result, Err(AnalogError::NonFiniteInput { index: i }) if i == index),
                    "{bad} at {index}: {result:?}"
                );
            }
        }
        assert_eq!(analog.waves(), 0, "nothing was evaluated");
        assert_eq!(analog.read_energy(), Joules::ZERO);
    }

    #[test]
    fn misshaped_inputs_are_rejected_before_evaluation() {
        let mut r = rng();
        let net = Network::new(vec![L::dense(2, 3, &mut r)]);
        let mut analog = compile_ann(&net).unwrap();
        // Too wide would read misaligned rows; too narrow would panic in
        // a worker. Both are geometry errors on every entry point.
        for shape in [[3usize, 4], [3, 1]] {
            let x = Tensor::zeros(&shape);
            for result in [analog.forward(&x), analog.forward_sequential(&x)] {
                assert!(
                    matches!(result, Err(AnalogError::BadGeometry { .. })),
                    "{shape:?}: {result:?}"
                );
            }
        }
        assert_eq!(analog.waves(), 0, "nothing was evaluated");
        assert_eq!(analog.output_shape(&[3, 2]).unwrap(), vec![3, 3]);

        let conv = Network::new(vec![L::conv2d(2, 3, 3, 1, 1, &mut r)]);
        let mut analog = compile_ann(&conv).unwrap();
        let x = Tensor::zeros(&[1, 3, 5, 5]);
        assert!(matches!(
            analog.forward(&x),
            Err(AnalogError::BadGeometry { .. })
        ));
        assert_eq!(
            analog.output_shape(&[1, 2, 5, 5]).unwrap(),
            vec![1, 3, 5, 5]
        );
    }

    #[test]
    fn large_matrices_split_across_supertiles() {
        let mut r = rng();
        // R_f = 3000 > 2048 → 2 segments; 200 cols → 2 groups.
        let net = Network::new(vec![L::dense(3000, 200, &mut r)]);
        let analog = compile_ann(&net).unwrap();
        assert_eq!(analog.supertile_count(), expected_supertiles(3000, 200));
        assert_eq!(analog.supertile_count(), 4);
    }

    #[test]
    fn unsupported_layers_are_rejected() {
        let mut r = rng();
        let net = Network::new(vec![L::depthwise_conv2d(4, 3, 1, 1, &mut r)]);
        assert!(matches!(
            compile_ann(&net),
            Err(AnalogError::Unsupported { .. })
        ));
        let bn = Network::new(vec![L::batch_norm2d(4)]);
        assert!(compile_ann(&bn).is_err());
    }

    #[test]
    fn energy_accrues_with_execution() {
        let mut r = rng();
        let net = Network::new(vec![L::dense(8, 4, &mut r)]);
        let mut analog = compile_ann(&net).unwrap();
        assert!(analog.program_energy().0 > 0.0, "programming costs energy");
        let before = analog.read_energy();
        analog
            .forward(&Tensor::rand_uniform(&[2, 8], 0.1, 1.0, &mut r))
            .unwrap();
        assert!(analog.read_energy() > before, "reads cost energy");
    }

    #[test]
    fn batched_forward_matches_sequential_reference_exactly() {
        let mut r = rng();
        // Conv → pool → dense exercises every batched stage kind.
        let net = Network::new(vec![
            L::conv2d(2, 4, 3, 1, 1, &mut r),
            L::relu(),
            L::avg_pool(2),
            L::flatten(),
            L::dense(4 * 4 * 4, 5, &mut r),
        ]);
        let x = Tensor::rand_uniform(&[6, 2, 8, 8], 0.0, 1.0, &mut r);
        let mut fast = compile_ann(&net).unwrap();
        let mut slow = fast.clone();
        let mut scalar = fast.clone();
        scalar.set_kernel_path(KernelPath::Scalar);
        let yf = fast.forward(&x).unwrap();
        let ys = slow.forward_sequential(&x).unwrap();
        let yk = scalar.forward(&x).unwrap();
        assert_eq!(yf.shape(), ys.shape());
        for ((a, b), c) in yf.data().iter().zip(ys.data()).zip(yk.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "fast {a} vs reference {b}");
            assert_eq!(c.to_bits(), b.to_bits(), "scalar {c} vs reference {b}");
        }
        // Scalar kernel: energy bitwise-identical to the reference leg;
        // vectorized kernel: per-row energy re-association within 1e-12.
        assert_eq!(scalar.read_energy(), slow.read_energy());
        let (e_vec, e_ref) = (fast.read_energy().0, slow.read_energy().0);
        assert!(
            (e_vec - e_ref).abs() <= 1e-12 * e_ref.abs(),
            "vectorized energy {e_vec} vs reference {e_ref}"
        );
        assert_eq!(fast.waves(), slow.waves());
    }

    #[test]
    fn batched_forward_matches_reference_under_device_mismatch() {
        let mut r = rng();
        let net = Network::new(vec![L::dense(3000, 20, &mut r)]);
        let x = Tensor::rand_uniform(&[3, 3000], 0.0, 1.0, &mut r);
        let mut fast = compile_ann_with_mismatch(&net, 0.10, &mut r).unwrap();
        let mut slow = fast.clone();
        let yf = fast.forward(&x).unwrap();
        let ys = slow.forward_sequential(&x).unwrap();
        for (a, b) in yf.data().iter().zip(ys.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "fast {a} vs reference {b}");
        }
        let (e_vec, e_ref) = (fast.read_energy().0, slow.read_energy().0);
        assert!(
            (e_vec - e_ref).abs() <= 1e-12 * e_ref.abs(),
            "vectorized energy {e_vec} vs reference {e_ref}"
        );
    }

    #[test]
    fn mismatch_compilation_perturbs_but_preserves_function() {
        let mut r = rng();
        let mut net = Network::new(vec![L::dense(10, 4, &mut r)]);
        for layer in net.layers_mut() {
            for p in layer.params_mut() {
                nebula_nn::quant::quantize_weights_inplace(&mut p.value, 16, 1.0);
            }
        }
        let x = Tensor::rand_uniform(&[8, 10], 0.0, 1.0, &mut r);
        let mut clean = compile_ann(&net).unwrap();
        let mut noisy = compile_ann_with_mismatch(&net, 0.10, &mut r).unwrap();
        let yc = clean.forward(&x).unwrap();
        let yn = noisy.forward(&x).unwrap();
        let mut diff = 0.0f32;
        let mut scale = 0.0f32;
        for (a, b) in yc.data().iter().zip(yn.data()) {
            diff += (a - b).abs();
            scale += a.abs();
        }
        assert!(diff > 0.0, "mismatch must perturb outputs");
        assert!(
            diff / scale.max(1e-6) < 0.5,
            "10% mismatch should not destroy outputs: rel {diff}/{scale}"
        );
    }
}
