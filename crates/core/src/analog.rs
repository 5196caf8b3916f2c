//! Analog execution: compile a trained network onto super-tile circuit
//! structures and run inference *through the device-level crossbar
//! models* — the functional twin of programming a real NEBULA chip.
//!
//! Where the [`engine`](crate::engine) module prices a workload
//! analytically, this module computes with it. Both execution modes run
//! on one engine, as the paper's chip runs both on the same DW-MTJ
//! crossbars: a compiled network is one list of stages over programmed
//! matrices (weights split into `16M`-row segments and `M`-column
//! groups of [`SuperTile`]s), and one stage interpreter advances a batch
//! through it. The modes differ only in their drivers and column
//! neurons:
//!
//! * **ANN** ([`AnalogNetwork`], built by [`compile`]): 4-bit drivers
//!   carry `x / x_scale` clamped to `[0, 1]`. A synaptic stage normalizes
//!   its input once into a drive plane, gathers each wave's drive from it
//!   (a dense row, or a convolution patch through a tap-offset table) and
//!   evaluates it through the split-phase GEMV
//!   ([`SuperTile::eval_dense_prepared`]); ReLU and the activation
//!   quantizer are digital stages applied in place.
//! * **SNN** ([`AnalogSpikingNetwork`], built by
//!   [`compile_snn`](crate::analog_snn::compile_snn)): binary 0.25 V
//!   spike drivers. A synaptic stage scatters each timestep's spikes
//!   into the conductance rows they drive (see [`crate::analog_snn`]);
//!   integrate-and-fire populations sit on the columns.
//!
//! The sequential entry points (`forward_sequential`, `run_sequential`)
//! run the same interpreter with the per-cell oracle
//! ([`SuperTile::dot_reference`]) at every synaptic stage, and every
//! multi-chip unit ([`crate::multichip`]) runs it over its slice of the
//! stages. One crossbar evaluation is one 110 ns wave of the Fig. 8
//! pipeline.
//!
//! Supported layers: `Dense`, `Conv2d`, `AvgPool` and `Flatten` in both
//! modes, `Relu` and `ActivationQuant` in ANN mode, IF populations in
//! SNN mode. Biases are applied digitally (a real chip would dedicate a
//! bias row; the paper does not detail it). Depthwise convolutions and
//! batch-norm must be lowered/folded before compilation.
//!
//! [`AnalogSpikingNetwork`]: crate::analog_snn::AnalogSpikingNetwork

use crate::analog_snn::{EventScratch, StageGeometry};
use crate::components::{M, MAX_RF_IN_CORE};
use nebula_crossbar::{kernel, CrossbarConfig, CrossbarError, KernelPath, Mode, SuperTile};
use nebula_device::units::{Amps, Joules};
use nebula_nn::layer::Layer;
use nebula_nn::snn::IfPopulation;
use nebula_nn::{Network, NnError};
use nebula_tensor::{avg_pool2d, im2col, ConvGeometry, Tensor, TensorError};
use rand::Rng;
use std::borrow::Cow;

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
/// Both modes program it alike and differ in how they drive it:
/// [`dot_batch_with`](Self::dot_batch_with) drives analog levels,
/// `scatter_spikes` binary spikes, and [`dot_reference`](Self::dot_reference)
/// either, one cell at a time.
#[derive(Debug, Clone)]
pub(crate) struct ProgrammedMatrix {
    /// `tiles[segment][group]`.
    pub(crate) tiles: Vec<Vec<SuperTile>>,
    pub(crate) segment_rows: Vec<usize>,
    pub(crate) cols: usize,
    pub(crate) rf: usize,
    /// Input normalization: ANN activations are divided by this before
    /// driving the bit-lines (so drives stay in `[0, 1]`); 1 in SNN mode.
    pub(crate) x_scale: f32,
    /// `(segment AC, row within that AC)` of every receptive-field row,
    /// the segments' ACs numbered consecutively — the scatter's row
    /// lookup, so the spike walk never divides. Empty in ANN mode, whose
    /// GEMV never reads it.
    pub(crate) row_ac: Vec<(u32, u32)>,
}

/// The ANN driver level of activation `v`: `v / x_scale` clamped to
/// `[0, 1]`. Every ANN evaluator converts through here, so the GEMV's
/// drive plane and the oracle's per-row drive hold the same bits.
#[inline]
fn ann_drive(v: f32, x_scale: f32) -> f64 {
    (v / x_scale).clamp(0.0, 1.0) as f64
}

impl ProgrammedMatrix {
    /// Programs `weight[rf][cols]` (row-major `Tensor` `[rf, cols]`) for
    /// `mode`'s drivers.
    pub(crate) fn program(
        weight: &Tensor,
        x_scale: f32,
        config: &CrossbarConfig,
        mode: Mode,
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
        let mut row_ac = Vec::new();
        let mut seg_chunk_base = 0usize;
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
            if mode == Mode::Snn {
                let m = groups[0].m();
                row_ac.extend(
                    (0..seg_rows).map(|q| ((seg_chunk_base + q / m) as u32, (q % m) as u32)),
                );
            }
            seg_chunk_base += groups[0].chunk_count();
            tiles.push(groups);
        }
        Ok(Self {
            tiles,
            segment_rows,
            cols,
            rf,
            x_scale,
            row_ac,
        })
    }

    /// Evaluates one input vector (length `rf`) through the per-cell
    /// crossbar loop ([`SuperTile::dot_reference`]) under `mode`'s
    /// drivers — ANN: `x / x_scale` clamped to `[0, 1]`; SNN: a spike
    /// where `x > 0.5` — and returns the real-valued products `Wᵀx` per
    /// column. Bit-identical to one item of
    /// [`dot_batch_with`](Self::dot_batch_with) (ANN) or one patch of
    /// `scatter_spikes` (SNN): the oracle of the sequential entry points
    /// and the `bench_hotpath` sequential leg.
    pub(crate) fn dot_reference(&mut self, x: &[f32], mode: Mode) -> Result<Vec<f32>, AnalogError> {
        debug_assert_eq!(x.len(), self.rf);
        let x_scale = self.x_scale;
        let mut out = vec![0.0f32; self.cols];
        let mut offset = 0usize;
        for (seg, &seg_rows) in self.segment_rows.iter().enumerate() {
            let drive: Vec<f64> = x[offset..offset + seg_rows]
                .iter()
                .map(|&v| match mode {
                    Mode::Ann => ann_drive(v, x_scale),
                    Mode::Snn => f64::from(v > 0.5),
                })
                .collect();
            for (g, tile) in self.tiles[seg].iter_mut().enumerate() {
                let currents = tile.dot_reference(&drive)?;
                let unit = tile.unit_current().0;
                for (c, i) in currents.iter().enumerate() {
                    // value (weight units) → real: × x_scale (drive
                    // normalization) — clip is already the weight unit.
                    out[g * M + c] += (i.0 / unit) as f32 * x_scale;
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
    /// [`KernelPath::Scalar`]; the default [`KernelPath::Auto`] kernel re-associates
    /// the total-current sum per row and tracks the reference to a
    /// relative error ≤ 1e-12.
    ///
    /// Each item's drive is written by a fill accessor, `fill(item,
    /// drive)`, into a reused `rf`-long buffer of driver levels (already
    /// normalized, see [`ann_drive`]) — no patch matrix or row slice is
    /// materialized: a dense stage converts its contiguous input row, a
    /// convolution gathers its patch from the stage's drive plane. The
    /// worker count is explicit, so the pipeline executor can force
    /// single-threaded evaluation inside a pipeline stage (`workers ==
    /// 1` never touches the pool).
    pub(crate) fn dot_batch_with(
        &mut self,
        n: usize,
        workers: usize,
        fill: impl Fn(usize, &mut [f64]) + Sync,
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
                // Lane-padded so the differential kernel can write its
                // tail lanes (every tile's scratch_cols() is ≤ this).
                let mut diff = vec![0.0f64; kernel::padded_len(M)];
                let mut drive = vec![0.0f64; rf];
                let mut out = vec![0.0f32; (hi - lo) * cols];
                let mut flat = vec![0.0f64; (hi - lo) * total_chunks];
                for (i, item) in (lo..hi).enumerate() {
                    fill(item, &mut drive);
                    let out_row = &mut out[i * cols..(i + 1) * cols];
                    let flat_row = &mut flat[i * total_chunks..(i + 1) * total_chunks];
                    let mut offset = 0usize;
                    let mut chunk_off = 0usize;
                    for (seg, &seg_rows) in segment_rows.iter().enumerate() {
                        let drive = &drive[offset..offset + seg_rows];
                        for (g, (tile, &unit)) in tiles[seg].iter().zip(&units[seg]).enumerate() {
                            let chunks = tile.chunk_count();
                            tile.eval_dense_prepared(
                                drive,
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

    /// Evaluates one synaptic stage of geometry `sg` on `h` under
    /// `drive` and writes the crossbar products to the zeroed `out`,
    /// laid out `[images, cols, patches]`. The scatter walks the spikes
    /// ([`scatter_spikes`](Self::scatter_spikes)). The GEMV
    /// ([`dot_batch_with`](Self::dot_batch_with)) fills each patch's
    /// drive through its accessor: a dense stage converts its input row,
    /// a convolution normalizes `h` once into a drive plane and gathers
    /// each patch from it ([`PatchGather`]). Only the oracle lowers a
    /// convolution with `im2col`, one row per patch, so the gather is
    /// checked against the lowering it replaces. Returns whether any
    /// crossbar was driven: the scatter reports whether a spike reached
    /// a patch, the GEMV and the oracle always drive.
    fn evaluate(
        &mut self,
        h: &Tensor,
        sg: &StageGeometry,
        drive: Drive,
        workers: usize,
        scratch: &mut EventScratch,
        out: &mut [f32],
    ) -> Result<bool, AnalogError> {
        let (rf, cols, spatial) = (self.rf, self.cols, sg.patches());
        let dense = h.shape().len() == 2;
        let ys = match drive {
            Drive::Scatter => return Ok(self.scatter_spikes(h.data(), sg, workers, scratch, out)),
            Drive::Gemv if dense => {
                let (x, x_scale) = (h.data(), self.x_scale);
                self.dot_batch_with(sg.images, workers, |i, drive| {
                    for (d, &v) in drive.iter_mut().zip(&x[i * rf..(i + 1) * rf]) {
                        *d = ann_drive(v, x_scale);
                    }
                })?
            }
            Drive::Gemv => {
                let x_scale = self.x_scale;
                let plane: Vec<f64> = h.data().iter().map(|&v| ann_drive(v, x_scale)).collect();
                let gather = PatchGather::new(sg);
                self.dot_batch_with(sg.images * spatial, workers, |i, drive| {
                    gather.fill(&plane, i, drive)
                })?
            }
            Drive::Oracle(mode) => {
                let lowered;
                let rows = if dense {
                    h.data()
                } else {
                    lowered = im2col(h, sg.conv)?;
                    lowered.data()
                };
                let mut ys = Vec::with_capacity(rows.len() / rf * cols);
                for row in rows.chunks_exact(rf) {
                    ys.extend(self.dot_reference(row, mode)?);
                }
                ys
            }
        };
        // Row `r` is patch `r % spatial` of image `r / spatial`.
        for (r, y) in ys.chunks_exact(cols).enumerate() {
            let (img, pos) = (r / spatial, r % spatial);
            for (o, &v) in y.iter().enumerate() {
                out[(img * cols + o) * spatial + pos] = v;
            }
        }
        Ok(true)
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

    pub(crate) fn set_kernel_path(&mut self, path: KernelPath) {
        for tile in self.tiles.iter_mut().flatten() {
            tile.set_kernel_path(path);
        }
    }
}

/// Gathers convolution patches from a drive plane laid out like the
/// stage input, `[images, channels, h, w]`, instead of from `im2col`
/// rows: receptive-field tap `t = (ch·kh + ky)·kw + kx` of a patch whose
/// top-left input pixel is `(y0, x0)` reads the plane at that corner
/// plus `offsets[t] = ch·h·w + ky·w + kx`. The tap order is `im2col`'s
/// column order, so a patch's drive equals the normalized `im2col` row
/// tap for tap. A padding tap drives `0.0`: `im2col` writes `0.0` there,
/// and `compile` keeps every `x_scale` positive, so it normalizes to
/// `0.0`.
struct PatchGather {
    sg: StageGeometry,
    offsets: Vec<usize>,
}

impl PatchGather {
    fn new(sg: &StageGeometry) -> Self {
        let (c, [h, w]) = (&sg.conv, sg.in_hw);
        let offsets = (0..sg.channels)
            .flat_map(|ch| {
                (0..c.kh).flat_map(move |ky| (0..c.kw).map(move |kx| ch * h * w + ky * w + kx))
            })
            .collect();
        Self { sg: *sg, offsets }
    }

    /// Writes the drive of patch `item` (patch `item % patches` of image
    /// `item / patches`) into `drive`. A patch inside the input takes one
    /// offset add per tap; a border patch checks each tap.
    fn fill(&self, plane: &[f64], item: usize, drive: &mut [f64]) {
        let (sg, c, [h, w]) = (&self.sg, &self.sg.conv, self.sg.in_hw);
        let (img, pos) = (item / sg.patches(), item % sg.patches());
        let y0 = (pos / sg.out_hw[1] * c.stride) as isize - c.pad as isize;
        let x0 = (pos % sg.out_hw[1] * c.stride) as isize - c.pad as isize;
        debug_assert_eq!(drive.len(), self.offsets.len());
        let image = &plane[img * sg.channels * h * w..(img + 1) * sg.channels * h * w];
        if y0 >= 0 && x0 >= 0 && y0 as usize + c.kh <= h && x0 as usize + c.kw <= w {
            let corner = &image[y0 as usize * w + x0 as usize..];
            for (d, &o) in drive.iter_mut().zip(&self.offsets) {
                *d = corner[o];
            }
            return;
        }
        let mut t = 0;
        for ch in 0..sg.channels {
            for iy in y0..y0 + c.kh as isize {
                for ix in x0..x0 + c.kw as isize {
                    let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                    drive[t] = if inside {
                        image[(ch * h + iy as usize) * w + ix as usize]
                    } else {
                        0.0
                    };
                    t += 1;
                }
            }
        }
    }
}

/// How a synaptic stage drives its crossbars, picked by the interpreter
/// from the network's mode.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// ANN analog levels through the split-phase row GEMV.
    Gemv,
    /// SNN binary spikes scattered into the rows they drive.
    Scatter,
    /// The mode's drivers through the per-cell oracle.
    Oracle(Mode),
}

/// One compiled stage of an analog network, in either mode.
#[derive(Debug, Clone)]
pub(crate) enum Stage {
    /// Crossbar-backed dense synapses plus digital bias injection.
    Dense {
        matrix: ProgrammedMatrix,
        bias: Vec<f32>,
        scratch: EventScratch,
    },
    /// Crossbar-backed convolution with `matrix.cols` output channels,
    /// plus bias.
    Conv {
        matrix: ProgrammedMatrix,
        bias: Vec<f32>,
        geom: ConvGeometry,
        scratch: EventScratch,
    },
    /// ANN rectifier.
    Relu,
    /// ANN activation quantizer: `levels` steps over `[0, amax]`.
    Quant {
        amax: f32,
        levels: usize,
    },
    /// SNN integrate-and-fire population on the column outputs.
    IntegrateFire(IfPopulation),
    /// Average pooling (a fixed-weight circuit on hardware).
    AvgPool {
        k: usize,
    },
    Flatten,
}

impl Stage {
    /// Programs a synaptic layer onto crossbars driven by `mode`'s
    /// drivers at input scale `x_scale`, or compiles a pooling or flatten
    /// layer.
    pub(crate) fn program(
        layer: &Layer,
        x_scale: f32,
        config: &CrossbarConfig,
        mode: Mode,
    ) -> Result<Self, AnalogError> {
        Ok(match layer {
            Layer::Dense(d) => Stage::Dense {
                matrix: ProgrammedMatrix::program(&d.weight.value, x_scale, config, mode)?,
                bias: d.bias.value.data().to_vec(),
                scratch: EventScratch::default(),
            },
            Layer::Conv2d(c) => {
                let s = c.weight.value.shape();
                // Kernel matrix [R_f, OC] = flattened kernels as columns.
                let wmat = c
                    .weight
                    .value
                    .reshape(&[s[0], s[1] * s[2] * s[3]])?
                    .transpose()?;
                Stage::Conv {
                    matrix: ProgrammedMatrix::program(&wmat, x_scale, config, mode)?,
                    bias: c.bias.value.data().to_vec(),
                    geom: c.geom,
                    scratch: EventScratch::default(),
                }
            }
            Layer::AvgPool(p) => Stage::AvgPool { k: p.k },
            Layer::Flatten(_) => Stage::Flatten,
            other => {
                return Err(AnalogError::Unsupported {
                    layer: other.name().to_string(),
                })
            }
        })
    }

    /// The programmed matrix of a synaptic stage.
    pub(crate) fn matrix(&self) -> Option<&ProgrammedMatrix> {
        match self {
            Stage::Dense { matrix, .. } | Stage::Conv { matrix, .. } => Some(matrix),
            _ => None,
        }
    }

    fn matrix_mut(&mut self) -> Option<&mut ProgrammedMatrix> {
        match self {
            Stage::Dense { matrix, .. } | Stage::Conv { matrix, .. } => Some(matrix),
            _ => None,
        }
    }

    /// The shape this stage produces when fed `shape`, checking that it
    /// fits: a dense stage needs exactly `[n, rf]`, a convolution rank 4
    /// with `c·kh·kw = rf`, and a pooling window must be nonzero and
    /// divide a rank-4 input's height and width.
    pub(crate) fn output_shape(&self, shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        let bad = |expects: String| {
            Err(AnalogError::BadGeometry {
                reason: format!("{expects}, got {shape:?}"),
            })
        };
        Ok(match (self, shape) {
            (Stage::Dense { matrix, .. }, &[n, f]) if f == matrix.rf => vec![n, matrix.cols],
            (Stage::Dense { matrix, .. }, _) => {
                return bad(format!("dense stage expects [n, {}]", matrix.rf))
            }
            (Stage::Conv { matrix, geom, .. }, &[n, c, h, w])
                if c * geom.kh * geom.kw == matrix.rf =>
            {
                let (oh, ow) = geom.out_hw(h, w)?;
                vec![n, matrix.cols, oh, ow]
            }
            (Stage::Conv { matrix, geom, .. }, _) => {
                let c = matrix.rf / (geom.kh * geom.kw);
                return bad(format!("conv stage expects [n, {c}, h, w]"));
            }
            (&Stage::AvgPool { k }, &[n, c, h, w]) if k > 0 && h % k == 0 && w % k == 0 => {
                vec![n, c, h / k, w / k]
            }
            (Stage::AvgPool { k }, _) => {
                return bad(format!(
                    "avg-pool window {k} expects a rank-4 input whose height and width it divides"
                ))
            }
            (Stage::Flatten, [n, rest @ ..]) => vec![*n, rest.iter().product()],
            (Stage::Flatten, []) => return bad("flatten expects rank ≥ 1".into()),
            (Stage::Relu | Stage::Quant { .. } | Stage::IntegrateFire(_), _) => shape.to_vec(),
        })
    }

    /// Read energy this stage's crossbars accrued (zero without any).
    pub(crate) fn read_energy(&self) -> Joules {
        self.matrix()
            .map_or(Joules::ZERO, ProgrammedMatrix::read_energy)
    }

    /// Energy spent programming this stage's crossbars.
    pub(crate) fn program_energy(&self) -> Joules {
        self.matrix()
            .map_or(Joules::ZERO, ProgrammedMatrix::program_energy)
    }
}

/// The analog engine both modes share: a compiled stage list, the wave
/// counter, and the mode whose drivers the synaptic stages use (fixed by
/// the compiler that built it). [`AnalogNetwork`] and
/// `AnalogSpikingNetwork` wrap one; every multi-chip unit holds one over
/// a slice of its donor's stages.
#[derive(Debug, Clone)]
pub(crate) struct AnalogEngine {
    pub(crate) stages: Vec<Stage>,
    pub(crate) waves: u64,
    pub(crate) mode: Mode,
}

impl AnalogEngine {
    /// The output shape a batch of `input_shape` produces, checking
    /// every stage's geometry on the way ([`Stage::output_shape`]).
    pub(crate) fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        if input_shape.is_empty() {
            return Err(AnalogError::BadGeometry {
                reason: "rank-0 input".into(),
            });
        }
        self.stages
            .iter()
            .try_fold(input_shape.to_vec(), |shape, stage| {
                stage.output_shape(&shape)
            })
    }

    /// The checks every single-chip entry point makes once, before any
    /// crossbar is driven: the shape must flow through every stage and
    /// every value must be finite.
    pub(crate) fn check_input(&self, inputs: &Tensor) -> Result<(), AnalogError> {
        self.output_shape(inputs.shape())?;
        check_finite(inputs)
    }

    /// The stage interpreter: advances `h` (one ANN batch, or one
    /// encoded SNN wave) through every stage with at most `workers`
    /// crossbar workers (`workers == 1` keeps it on the calling thread —
    /// the pipeline executor's per-stage mode). A synaptic stage drives
    /// its crossbars by the mode — the row GEMV in ANN mode, the spike
    /// scatter in SNN mode — or through the per-cell oracle when
    /// `oracle` is set; IF populations advance their membranes, and
    /// waves and read energy accrue as they would on the chip. Returns
    /// the output and whether any synaptic stage drove a crossbar.
    ///
    /// The caller has checked `h` ([`check_input`](Self::check_input)).
    /// A borrowed `h` is only read: the first stage builds a new tensor
    /// (a copy, if that stage is ReLU, the quantizer or a flatten); those
    /// three work in place on the interpreter's own tensor.
    /// For a fixed input the stage loop is a left-to-right fold, so
    /// running the stages in slices (one multi-chip unit each) changes
    /// nothing, and the result does not depend on `workers`.
    pub(crate) fn step(
        &mut self,
        mut h: Cow<'_, Tensor>,
        workers: usize,
        oracle: bool,
    ) -> Result<(Tensor, bool), AnalogError> {
        let drive = match (oracle, self.mode) {
            (true, mode) => Drive::Oracle(mode),
            (false, Mode::Ann) => Drive::Gemv,
            (false, Mode::Snn) => Drive::Scatter,
        };
        let mut hit = false;
        for stage in &mut self.stages {
            h = Cow::Owned(match stage {
                Stage::Dense {
                    matrix,
                    bias,
                    scratch,
                } => {
                    let n = h.shape()[0];
                    let sg = StageGeometry::dense(n, matrix.rf);
                    let mut out = Tensor::zeros(&[n, matrix.cols]);
                    hit |= matrix.evaluate(&h, &sg, drive, workers, scratch, out.data_mut())?;
                    self.waves += n as u64;
                    add_bias(&mut out, bias, 1);
                    out
                }
                Stage::Conv {
                    matrix,
                    bias,
                    geom,
                    scratch,
                } => {
                    let sg = StageGeometry::conv(h.shape(), *geom)?;
                    let [oh, ow] = sg.out_hw;
                    let mut out = Tensor::zeros(&[sg.images, matrix.cols, oh, ow]);
                    hit |= matrix.evaluate(&h, &sg, drive, workers, scratch, out.data_mut())?;
                    self.waves += (sg.images * sg.patches()) as u64;
                    add_bias(&mut out, bias, sg.patches());
                    out
                }
                Stage::Relu => {
                    let mut h = h.into_owned();
                    h.map_inplace(|v| v.max(0.0));
                    h
                }
                Stage::Quant { amax, levels } => {
                    let mut h = h.into_owned();
                    quantize_activations(h.data_mut(), *amax, *levels, oracle);
                    h
                }
                Stage::IntegrateFire(pop) => pop.step(&h)?,
                Stage::AvgPool { k } => avg_pool2d(&h, *k)?,
                Stage::Flatten => {
                    let n = h.shape()[0];
                    let rest: usize = h.shape()[1..].iter().product();
                    Tensor::from_vec(h.into_owned().into_vec(), &[n, rest])?
                }
            });
        }
        Ok((h.into_owned(), hit))
    }

    /// Returns every IF population to rest.
    pub(crate) fn reset_state(&mut self) {
        for stage in &mut self.stages {
            if let Stage::IntegrateFire(p) = stage {
                p.reset_state();
            }
        }
    }

    /// Every programmed super-tile, in stage then tile order.
    pub(crate) fn tiles_mut(&mut self) -> impl Iterator<Item = &mut SuperTile> {
        self.stages
            .iter_mut()
            .filter_map(Stage::matrix_mut)
            .flat_map(|m| m.tiles.iter_mut().flatten())
    }

    pub(crate) fn supertile_count(&self) -> usize {
        self.stages
            .iter()
            .filter_map(Stage::matrix)
            .map(|m| m.tiles.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    pub(crate) fn set_kernel_path(&mut self, path: KernelPath) {
        for matrix in self.stages.iter_mut().filter_map(Stage::matrix_mut) {
            matrix.set_kernel_path(path);
        }
    }

    /// Builds any missing cache layouts and returns the total bytes the
    /// current kernel path's conductance caches occupy across all tiles
    /// (see [`SuperTile::kernel_cache_bytes`]).
    pub(crate) fn conductance_cache_bytes(&mut self) -> usize {
        self.tiles_mut()
            .map(|tile| {
                tile.prepare();
                tile.kernel_cache_bytes()
            })
            .sum()
    }

    /// Read energy folded stage by stage in order (each stage's tiles
    /// summed first) — the fold a sharded network repeats over its units.
    pub(crate) fn read_energy(&self) -> Joules {
        self.stages.iter().map(Stage::read_energy).sum()
    }
}

/// The activation quantizer, in place: every `v` becomes
/// `(v.clamp(0, amax) / step).round() * step` with `step = amax /
/// (levels − 1)`, bit for bit. The oracle rounds through [`f32::round`],
/// as does any quantizer with `levels − 1 ≥ 2²²`; otherwise the rounding
/// runs in a form the compiler vectorizes ([`round_half_away`]).
fn quantize_activations(data: &mut [f32], amax: f32, levels: usize, oracle: bool) {
    let step = amax / (levels - 1) as f32;
    if oracle || levels > 1 << 22 {
        for v in data {
            *v = (v.clamp(0.0, amax) / step).round() * step;
        }
        return;
    }
    for v in data {
        *v = round_half_away(v.clamp(0.0, amax) / step) * step;
    }
}

/// [`f32::round`] (half away from zero) for `|q| < 2³¹`, without a libm
/// call. With `a = |q|`, `t = a as i32 as f32` is `a` truncated, exactly;
/// `a − t` is `a`'s fractional part, exact because it is representable
/// (its bits are the low bits of `a`); and `t + 1` is taken only when
/// `a` has a fractional part, so `a < 2²³` and the add is exact too.
/// So `r` is `a` rounded half up, and restoring the sign (`−0.0` stays
/// `−0.0`) gives `round(q)`. NaN passes through unchanged.
#[inline]
fn round_half_away(q: f32) -> f32 {
    let a = q.abs();
    let t = a as i32 as f32;
    let r = if a - t >= 0.5 { t + 1.0 } else { t };
    if q.is_nan() {
        q
    } else {
        r.copysign(q)
    }
}

/// Adds the digital bias injection to a stage's crossbar outputs, laid
/// out `[n, channels, spatial]`: every value becomes `v + b`. A patch or
/// a whole layer the spikes never reached holds exactly `0.0`, so it
/// becomes `0.0 + b` — not a bare `b`, which would differ for
/// `b == −0.0`.
fn add_bias(out: &mut Tensor, bias: &[f32], spatial: usize) {
    for plane in out.data_mut().chunks_mut(bias.len() * spatial) {
        for (dst, &b) in plane.chunks_mut(spatial).zip(bias) {
            for d in dst {
                *d += b;
            }
        }
    }
}

/// Classification accuracy of the logits `run` produces for `inputs`.
/// The label count is checked against the batch before `run` evaluates
/// anything (or, in SNN mode, draws from an RNG).
pub(crate) fn accuracy(
    inputs: &Tensor,
    labels: &[usize],
    run: impl FnOnce() -> Result<Tensor, AnalogError>,
) -> Result<f64, AnalogError> {
    let rows = inputs.shape().first().copied().unwrap_or(0);
    if rows != labels.len() {
        return Err(AnalogError::BadGeometry {
            reason: format!("{} labels for a batch of {rows}", labels.len()),
        });
    }
    let preds = run()?.argmax_rows()?;
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    Ok(correct as f64 / labels.len().max(1) as f64)
}

/// A network compiled onto ANN-mode crossbar hardware models.
///
/// Build with [`compile`]; run with [`AnalogNetwork::forward`].
#[derive(Debug, Clone)]
pub struct AnalogNetwork {
    pub(crate) core: AnalogEngine,
}

/// Compiles a (preferably 4-bit-quantized, BN-folded) network for analog
/// execution in ANN mode on crossbars built from `config`.
///
/// Per-layer input scales are taken from the preceding
/// [`Layer::ActivationQuant`] ceiling when present (quantized networks),
/// else 1.0 (suitable for inputs already in `[0, 1]`).
///
/// # Errors
///
/// Returns [`AnalogError::Unsupported`] for depthwise convolutions and
/// live batch-norm layers, and [`AnalogError::BadGeometry`] for an
/// activation quantizer with fewer than 2 levels or a ceiling that is
/// not positive.
pub fn compile(net: &Network, config: &CrossbarConfig) -> Result<AnalogNetwork, AnalogError> {
    let mut stages = Vec::with_capacity(net.len());
    // The scale of the *current* activations flowing between stages.
    let mut x_scale = 1.0f32;
    for layer in net.layers() {
        stages.push(match layer {
            Layer::Relu(_) => Stage::Relu,
            Layer::ActivationQuant(q) => {
                // The digital layer's own check; it also keeps every
                // drive scale positive.
                if q.levels < 2 || q.amax.is_nan() || q.amax <= 0.0 {
                    return Err(AnalogError::BadGeometry {
                        reason: format!(
                            "activation quantizer needs levels ≥ 2 and amax > 0, got {} / {}",
                            q.levels, q.amax
                        ),
                    });
                }
                x_scale = q.amax;
                Stage::Quant {
                    amax: q.amax,
                    levels: q.levels,
                }
            }
            other => Stage::program(other, x_scale, config, Mode::Ann)?,
        });
    }
    Ok(AnalogNetwork {
        core: AnalogEngine {
            stages,
            waves: 0,
            mode: Mode::Ann,
        },
    })
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
        self.pass(inputs, nebula_tensor::pool::size(), false)
    }

    /// [`forward`](Self::forward) through the per-cell oracle: one
    /// uncached crossbar evaluation per sample and output position — the
    /// pre-cache baseline. Kept for equivalence tests and the
    /// `bench_hotpath` sequential leg.
    ///
    /// # Errors
    ///
    /// As [`forward`](Self::forward).
    pub fn forward_sequential(&mut self, inputs: &Tensor) -> Result<Tensor, AnalogError> {
        self.pass(inputs, 1, true)
    }

    fn pass(
        &mut self,
        inputs: &Tensor,
        workers: usize,
        oracle: bool,
    ) -> Result<Tensor, AnalogError> {
        self.core.check_input(inputs)?;
        Ok(self.core.step(Cow::Borrowed(inputs), workers, oracle)?.0)
    }

    /// The output shape a batch of `input_shape` produces, checking
    /// every stage's geometry on the way: weight stages need exactly
    /// their receptive field per row (`[n, rf]` for dense,
    /// `[n, c, h, w]` with `c·kh·kw = rf` for convolutions), and a
    /// pooling window must be nonzero and divide its rank-4 input's
    /// height and width.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] for the first stage the shape
    /// does not fit.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        self.core.output_shape(input_shape)
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
    /// Returns [`AnalogError::BadGeometry`] when the label count differs
    /// from the batch size, before any evaluation; otherwise as
    /// [`forward`](Self::forward).
    pub fn accuracy(&mut self, inputs: &Tensor, labels: &[usize]) -> Result<f64, AnalogError> {
        accuracy(inputs, labels, || self.forward(inputs))
    }

    /// Selects the crossbar inner-loop kernel every programmed tile
    /// evaluates through: [`KernelPath::Auto`] (the default) or the
    /// [`KernelPath::Scalar`] reference. Outputs are bit-identical on
    /// both; under Auto read energy uses the per-row-sum formulation and
    /// agrees with the scalar/reference path to a relative error ≤ 1e-12
    /// per dot instead of bitwise (see [`nebula_crossbar::kernel`]).
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        self.core.set_kernel_path(path);
    }

    /// Bytes the conductance caches backing the current kernel path
    /// occupy across all programmed tiles (building any missing layouts
    /// first) — the footprint `bench_hotpath` and perfbench report.
    pub fn conductance_cache_bytes(&mut self) -> usize {
        self.core.conductance_cache_bytes()
    }

    /// Crossbar evaluation waves executed so far (each is one 110 ns
    /// pipeline wave on hardware).
    pub fn waves(&self) -> u64 {
        self.core.waves
    }

    /// Super-tiles this network's weights occupy.
    pub fn supertile_count(&self) -> usize {
        self.core.supertile_count()
    }

    /// Total analog read energy accrued across all crossbars.
    pub fn read_energy(&self) -> Joules {
        self.core.read_energy()
    }

    /// Total programming energy spent writing the weights.
    pub fn program_energy(&self) -> Joules {
        self.core.stages.iter().map(Stage::program_energy).sum()
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
    use proptest::prelude::*;
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

    /// conv(1→2, 3×3, pad 1) → ReLU → avg-pool(`k`) → flatten → dense:
    /// 4×4 frames pool to 2×2 at `k = 2`.
    fn pooled(k: usize, r: &mut rand::rngs::StdRng) -> Network {
        Network::new(vec![
            L::conv2d(1, 2, 3, 1, 1, r),
            L::relu(),
            L::avg_pool(k),
            L::flatten(),
            L::dense(8, 3, r),
        ])
    }

    #[test]
    fn misshaped_inputs_are_rejected_before_evaluation() {
        let mut r = rng();
        // Too wide would read misaligned rows; too narrow would panic in
        // a worker; a pool window that does not divide the map (or is
        // zero) would fail after the crossbars before it ran. All are
        // geometry errors on every entry point, before any wave.
        let cases = [
            (
                Network::new(vec![L::dense(2, 3, &mut r)]),
                Some(([3, 2].to_vec(), vec![3, 3])),
                vec![vec![3, 4], vec![3, 1]],
            ),
            (
                Network::new(vec![L::conv2d(2, 3, 3, 1, 1, &mut r)]),
                Some((vec![1, 2, 5, 5], vec![1, 3, 5, 5])),
                vec![vec![1, 3, 5, 5]],
            ),
            (
                pooled(2, &mut r),
                Some((vec![1, 1, 4, 4], vec![1, 3])),
                vec![vec![1, 1, 5, 5], vec![1, 1, 4, 5]],
            ),
            (pooled(0, &mut r), None, vec![vec![1, 1, 4, 4]]),
        ];
        for (net, good, bad) in cases {
            let mut analog = compile_ann(&net).unwrap();
            for shape in &bad {
                let x = Tensor::zeros(shape);
                for result in [analog.forward(&x), analog.forward_sequential(&x)] {
                    assert!(
                        matches!(result, Err(AnalogError::BadGeometry { .. })),
                        "{shape:?}: {result:?}"
                    );
                }
                assert!(analog.output_shape(shape).is_err(), "{shape:?}");
            }
            assert_eq!(analog.waves(), 0, "nothing was evaluated");
            assert_eq!(analog.read_energy(), Joules::ZERO);
            if let Some((input, output)) = good {
                assert_eq!(analog.output_shape(&input).unwrap(), output);
            }
        }
    }

    #[test]
    fn accuracy_checks_the_label_count_before_evaluating() {
        let mut r = rng();
        let x = Tensor::full(&[3, 2], 0.5);
        let mut ann = compile_ann(&Network::new(vec![L::dense(2, 3, &mut r)])).unwrap();
        let snn = nebula_nn::snn::SpikingNetwork::new(
            vec![nebula_nn::snn::SnnStage::Synaptic(L::dense(2, 3, &mut r))],
            nebula_nn::snn::InputEncoding::Poisson,
        );
        let mut snn = crate::analog_snn::compile_snn_default(&snn).unwrap();
        for labels in [&[0usize, 1][..], &[0, 1, 2, 0]] {
            let ann_acc = ann.accuracy(&x, labels);
            assert!(matches!(ann_acc, Err(AnalogError::BadGeometry { .. })));
            let mut drawn = rand::rngs::StdRng::seed_from_u64(5);
            let snn_acc = snn.accuracy(&x, labels, 4, &mut drawn);
            assert!(matches!(snn_acc, Err(AnalogError::BadGeometry { .. })));
            // The RNG was not touched: its next draw is a fresh stream's.
            let fresh = rand::rngs::StdRng::seed_from_u64(5).gen::<u64>();
            assert_eq!(drawn.gen::<u64>(), fresh);
        }
        assert_eq!((ann.waves(), snn.waves()), (0, 0), "nothing was evaluated");
        assert_eq!(ann.read_energy() + snn.read_energy(), Joules::ZERO);
        assert!(ann.accuracy(&x, &[0, 1, 2]).is_ok());
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
        // Quantizers the digital layer rejects would panic or feed NaN
        // drives at the first forward.
        for (amax, levels) in [(0.0, 16), (-1.0, 16), (f32::NAN, 16), (1.0, 1), (1.0, 0)] {
            let net = Network::new(vec![L::activation_quant(amax, levels)]);
            assert!(
                matches!(compile_ann(&net), Err(AnalogError::BadGeometry { .. })),
                "({amax}, {levels})"
            );
        }
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
        // Auto kernel: per-row energy re-association within 1e-12.
        assert_eq!(scalar.read_energy(), slow.read_energy());
        let (e_vec, e_ref) = (fast.read_energy().0, slow.read_energy().0);
        assert!(
            (e_vec - e_ref).abs() <= 1e-12 * e_ref.abs(),
            "Auto energy {e_vec} vs reference {e_ref}"
        );
        assert_eq!(fast.waves(), slow.waves());
    }

    /// An input value from the drive's edge cases: exact zeros of both
    /// signs, negatives (a zero drive) and values above the drive scale
    /// (a full drive), or anything in between.
    fn edge_value(kind: u8, v: f32) -> f32 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => -v,
            3 => 2.0 + v,
            _ => v,
        }
    }

    proptest! {
        /// The GEMV gathers each patch's drive from the normalized plane;
        /// the oracle drives the `im2col` rows. Over random geometries —
        /// kernels 1–5 (even ones too), strides 1–3 (some not tiling the
        /// input), padding 0–2 (some ≥ k/2), 1–5 channels, 1–4 images —
        /// `forward` must equal `forward_sequential` bit for bit at 1 and
        /// 4 workers on both kernel paths, with equal waves and, on the
        /// Scalar path, equal energy bits. The first convolution sees the
        /// raw edge values at `x_scale = 1`; after a quantizer the second
        /// sees quantized values and the third (and the dense stage) raw
        /// products, both at `x_scale = amax`.
        #[test]
        fn gathered_forward_matches_im2col_oracle_bitwise(
            geoms in prop::collection::vec((1usize..6, 1usize..4, 0usize..3), 3),
            (images, channels, mid) in (1usize..5, 1usize..6, 1usize..4),
            (extra_h, extra_w) in (0usize..7, 0usize..7),
            amax in 0.3f32..3.0,
            values in prop::collection::vec((0u8..6, 0.0f32..1.5), 4 * 5 * 11 * 11),
            seed in 0u64..1_000,
        ) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let (k1, p1) = (geoms[0].0, geoms[0].2);
            let side = |extra: usize| k1.saturating_sub(2 * p1).max(1) + extra;
            let (h, w) = (side(extra_h), side(extra_w));
            let mut layers = Vec::new();
            let (mut c, mut hw) = (channels, (h, w));
            for (i, &(k, stride, pad)) in geoms.iter().enumerate() {
                // Later kernels shrink to fit the map they get.
                let k = k.min(hw.0 + 2 * pad).min(hw.1 + 2 * pad);
                let oc = if i == 0 { mid } else { 2 };
                layers.push(L::conv2d(c, oc, k, stride, pad, &mut r));
                hw = ConvGeometry::new(k, stride, pad).out_hw(hw.0, hw.1).unwrap();
                c = oc;
                if i == 0 {
                    layers.push(L::activation_quant(amax, 16));
                }
            }
            layers.push(L::flatten());
            layers.push(L::dense(c * hw.0 * hw.1, 3, &mut r));
            let data = values[..images * channels * h * w]
                .iter()
                .map(|&(kind, v)| edge_value(kind, v))
                .collect();
            let x = Tensor::from_vec(data, &[images, channels, h, w]).unwrap();
            let master = compile_ann(&Network::new(layers)).unwrap();
            let mut oracle = master.clone();
            let expect = oracle.forward_sequential(&x).unwrap();
            for path in [KernelPath::Scalar, KernelPath::Auto] {
                for workers in [1, 4] {
                    let mut fast = master.clone();
                    fast.set_kernel_path(path);
                    let y = fast.pass(&x, workers, false).unwrap();
                    prop_assert_eq!(y.shape(), expect.shape());
                    for (i, (a, b)) in y.data().iter().zip(expect.data()).enumerate() {
                        let at = format!("{path:?}, {workers} workers, [{i}]: {a} vs {b}");
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "{at}");
                    }
                    prop_assert_eq!(fast.waves(), oracle.waves());
                    if path == KernelPath::Scalar {
                        let energy = |net: &AnalogNetwork| net.read_energy().0.to_bits();
                        prop_assert_eq!(energy(&fast), energy(&oracle));
                    }
                }
            }
        }
    }

    #[test]
    fn in_place_stages_leave_the_callers_input_alone() {
        let mut r = rng();
        let net = Network::new(vec![
            L::relu(),
            L::activation_quant(0.5, 4),
            L::relu(),
            L::dense(4, 2, &mut r),
        ]);
        let x = Tensor::from_vec(vec![-1.0, -0.0, 0.3, 0.9, 0.2, -0.4, 2.0, 0.0], &[2, 4]).unwrap();
        let bits: Vec<u32> = x.data().iter().map(|v| v.to_bits()).collect();
        let mut analog = compile_ann(&net).unwrap();
        let fast = analog.forward(&x).unwrap();
        let slow = analog.forward_sequential(&x).unwrap();
        assert_eq!(
            x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            bits
        );
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The map the quantizer stage applied before it ran in place.
    fn quantize_reference(v: f32, amax: f32, levels: usize) -> f32 {
        let step = amax / (levels - 1) as f32;
        (v.clamp(0.0, amax) / step).round() * step
    }

    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `(amax, levels)` of the quantizer checks; the last takes the
    /// `levels − 1 ≥ 2²²` fallback through `f32::round`.
    const QUANT_CASES: [(f32, usize); 5] = [
        (1.0, 16),
        (3.7, 16),
        (0.123, 256),
        (6.0, 2),
        (1.0, (1 << 22) + 1),
    ];

    #[test]
    fn in_place_quantizer_matches_the_rounding_map_on_every_edge() {
        for (amax, levels) in QUANT_CASES {
            let step = amax / (levels - 1) as f32;
            let tiny = f32::from_bits(1);
            let mut values = vec![
                0.0,
                -0.0,
                tiny,
                -tiny,
                f32::from_bits(0x007f_ffff),
                f32::MIN_POSITIVE,
                amax,
                amax.next_down(),
                amax.next_up(),
                2.0 * amax,
                f32::MAX,
                f32::INFINITY,
                -1.0,
                -amax,
                f32::MIN,
                f32::NEG_INFINITY,
                f32::NAN,
            ];
            // Every `k + 0.5` midpoint (every 4096th in the fallback
            // case) and the values up to 2 ulps either side of it.
            let stride = if levels > 1 << 12 { 4096 } else { 1 };
            for k in (0..levels - 1).step_by(stride) {
                let mid = (k as f32 + 0.5) * step;
                values.extend([
                    mid.next_down().next_down(),
                    mid.next_down(),
                    mid,
                    mid.next_up(),
                    mid.next_up().next_up(),
                ]);
            }
            let mut data = values.clone();
            quantize_activations(&mut data, amax, levels, false);
            for (&v, q) in values.iter().zip(data) {
                let expect = quantize_reference(v, amax, levels);
                assert!(
                    same_bits(q, expect),
                    "({amax}, {levels}) at {v:e}: {q:e} vs {expect:e}"
                );
            }
        }
        // The rounding itself at exact midpoints and their neighbours.
        for k in (0..1 << 22).step_by(997).chain([1 << 22]) {
            let mid = k as f32 + 0.5;
            for q in [mid.next_down(), mid, mid.next_up(), k as f32] {
                for q in [q, -q] {
                    assert!(same_bits(round_half_away(q), q.round()), "{q:e}");
                }
            }
        }
    }

    /// Every f32 bit pattern through the quantizer for every
    /// [`QUANT_CASES`] configuration, one thread each; about 150 CPU
    /// seconds in a release build on a 2-vCPU Xeon VM:
    /// `cargo test --release -p nebula-core --lib exhaustive -- --ignored`.
    #[test]
    #[ignore]
    fn in_place_quantizer_matches_the_rounding_map_exhaustively() {
        std::thread::scope(|scope| {
            for (amax, levels) in QUANT_CASES {
                scope.spawn(move || {
                    let mut data = vec![0.0f32; 1 << 16];
                    for hi in 0u32..1 << 16 {
                        for (lo, v) in data.iter_mut().enumerate() {
                            *v = f32::from_bits(hi << 16 | lo as u32);
                        }
                        quantize_activations(&mut data, amax, levels, false);
                        for (lo, &q) in data.iter().enumerate() {
                            let v = f32::from_bits(hi << 16 | lo as u32);
                            let expect = quantize_reference(v, amax, levels);
                            assert!(same_bits(q, expect), "({amax}, {levels}) at {v:e}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn batched_forward_matches_reference_under_device_mismatch() {
        let mut r = rng();
        let net = Network::new(vec![L::dense(3000, 20, &mut r)]);
        let x = Tensor::rand_uniform(&[3, 3000], 0.0, 1.0, &mut r);
        let mut fast = compile_ann_with_mismatch(&net, 0.10, &mut r).unwrap();
        let mut slow = fast.clone();
        let mut scalar = fast.clone();
        scalar.set_kernel_path(KernelPath::Scalar);
        let yf = fast.forward(&x).unwrap();
        let ys = slow.forward_sequential(&x).unwrap();
        let yk = scalar.forward(&x).unwrap();
        for ((a, b), c) in yf.data().iter().zip(ys.data()).zip(yk.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "fast {a} vs reference {b}");
            assert_eq!(c.to_bits(), b.to_bits(), "scalar {c} vs reference {b}");
        }
        // Per-cell 10% mismatch puts every conductance off the device
        // grid; the scalar kernel still reproduces the reference energy
        // bitwise, Auto within 1e-12.
        assert_eq!(scalar.read_energy(), slow.read_energy());
        let (e_vec, e_ref) = (fast.read_energy().0, slow.read_energy().0);
        assert!(
            (e_vec - e_ref).abs() <= 1e-12 * e_ref.abs(),
            "Auto energy {e_vec} vs reference {e_ref}"
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
