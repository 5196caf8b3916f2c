//! Analog *spiking* execution: run a converted SNN with every synaptic
//! MAC computed by the DW-MTJ crossbar models in SNN mode (0.25 V binary
//! spike drivers), integrate-and-fire thresholding on the column
//! outputs, and event-driven energy accounting straight from the
//! circuit layer.
//!
//! This closes the loop on the paper's multi-modal claim at circuit
//! level: the *same* crossbar structures execute both the ANN
//! ([`crate::analog`]) and the SNN path, differing only in drivers,
//! read voltage and the neuron circuit at the columns.

use crate::analog::AnalogError;
use crate::components::{M, MAX_RF_IN_CORE};
use nebula_crossbar::{kernel, CrossbarConfig, KernelPath, Mode, SuperTile};
use nebula_device::units::{Amps, Joules, Seconds};
use nebula_device::FaultModel;
use nebula_nn::layer::Layer;
use nebula_nn::snn::{IfPopulation, InputEncoding, SnnStage, SpikingNetwork};
use nebula_tensor::{avg_pool2d, im2col, ConvGeometry, Tensor};
use rand::Rng;

/// A programmed spiking synaptic stage: crossbars in SNN mode.
#[derive(Debug, Clone)]
pub(crate) struct SnnMatrix {
    pub(crate) tiles: Vec<Vec<SuperTile>>,
    pub(crate) segment_rows: Vec<usize>,
    pub(crate) cols: usize,
    pub(crate) rf: usize,
}

impl SnnMatrix {
    pub(crate) fn program(weight: &Tensor, config: &CrossbarConfig) -> Result<Self, AnalogError> {
        let (rf, cols) = (weight.shape()[0], weight.shape()[1]);
        if rf == 0 || cols == 0 {
            return Err(AnalogError::BadGeometry {
                reason: format!("degenerate spiking weight matrix {rf}×{cols}"),
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
        })
    }

    /// One timestep for one sample through the legacy per-cell crossbar
    /// loop ([`SuperTile::dot_reference`]): binary spike vector in,
    /// real-valued membrane increments (`Wᵀs + b` handled by caller)
    /// out. Bit-identical to one item of
    /// [`dot_spikes_batch_active`](Self::dot_spikes_batch_active); kept
    /// as the reference for equivalence tests and the `bench_hotpath`
    /// sequential leg.
    pub(crate) fn dot_spikes_reference(&mut self, spikes: &[f32]) -> Result<Vec<f32>, AnalogError> {
        debug_assert_eq!(spikes.len(), self.rf);
        let mut out = vec![0.0f32; self.cols];
        let mut offset = 0usize;
        for (seg, seg_rows) in self.segment_rows.clone().into_iter().enumerate() {
            let drive: Vec<f64> = spikes[offset..offset + seg_rows]
                .iter()
                .map(|&v| f64::from(v > 0.5))
                .collect();
            for (g, tile) in self.tiles[seg].iter_mut().enumerate() {
                let currents = tile.dot_reference(&drive)?;
                let unit = tile.unit_current().0;
                for (c, i) in currents.iter().enumerate() {
                    out[g * M + c] += (i.0 / unit) as f32;
                }
            }
            offset += seg_rows;
        }
        Ok(out)
    }

    /// One timestep for a whole batch through the split-phase,
    /// spike-sparse fast path, taking each item's active (spiking)
    /// receptive-field indices as a [`SpikeBatch`] — the dense path
    /// builds these with [`SpikeBatch::gather_dense`], the convolution
    /// path straight from the sparse feature map without ever
    /// materializing `im2col` patches ([`gather_conv_patches`]). Every
    /// tile's conductance caches are prepared once, then the persistent
    /// worker pool evaluates items concurrently against the shared
    /// tiles — each item's active rows are evaluated with
    /// [`SuperTile::eval_sparse_prepared`], so silent rows are never
    /// scanned inside the crossbar loop — and read energy is accrued
    /// sequentially in ascending item order per atomic crossbar.
    /// Indices must be strictly ascending per item. Outputs are
    /// **bit-identical** to calling
    /// [`dot_spikes_reference`](Self::dot_spikes_reference) on the
    /// matching dense spike vectors in turn, for any worker count: a
    /// spiking row drives exactly full read voltage in both paths, each
    /// item's floating-point work is per-item pure, and the accrual
    /// order matches the sequential path. Energy counters are
    /// bit-identical too under [`KernelPath::Scalar`]; the default
    /// vectorized kernel re-associates the total-current sum per row
    /// and tracks the reference to a relative error ≤ 1e-12.
    ///
    /// A fully silent batch returns its all-zero outputs immediately —
    /// no tile preparation, no pool dispatch, no accrual walk. The
    /// short-circuit cannot change a bit: silent items produce exactly
    /// the pre-zeroed `out` buffer on the long path too, and accruing a
    /// zero current adds `+0.0 J` (see [`SuperTile::accrue_batch`]).
    /// The worker count is explicit: `workers == 1` evaluates the whole
    /// batch on the calling thread without touching the pool — how the
    /// multi-chip pipeline executor keeps stage evaluation flat while
    /// the pipeline itself provides the concurrency.
    pub(crate) fn dot_spikes_batch_active_with(
        &mut self,
        batch: &SpikeBatch,
        workers: usize,
    ) -> Result<Vec<f32>, AnalogError> {
        let n = batch.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        if batch.is_silent() {
            return Ok(vec![0.0f32; n * self.cols]);
        }
        for tile in self.tiles.iter_mut().flatten() {
            tile.prepare();
        }
        let cols = self.cols;
        let segment_rows = &self.segment_rows;
        let tiles = &self.tiles;
        // Per-AC total currents for one item live in a single flat
        // buffer, sliced per tile in (segment, group) order.
        let total_chunks: usize = tiles.iter().flatten().map(SuperTile::chunk_count).sum();
        // Workers take contiguous item blocks so scratch buffers are
        // reused across a block's items; the per-item values don't depend
        // on the partition, so results are identical for any worker
        // count. Each block yields one flat output buffer (`cols` values
        // per item) and one flat current buffer (`total_chunks` values
        // per item, in (segment, group, chunk) order) — two allocations
        // per block instead of two per item, which dominates the
        // fixed cost when convolutions stream thousands of patch rows.
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
                let mut active: Vec<usize> = Vec::new();
                let mut out = vec![0.0f32; (hi - lo) * cols];
                let mut flat = vec![0.0f64; (hi - lo) * total_chunks];
                for (i, item) in (lo..hi).enumerate() {
                    let acts = batch.item(item);
                    if acts.is_empty() {
                        // Fully silent item: zero output, zero current.
                        continue;
                    }
                    let out_row = &mut out[i * cols..(i + 1) * cols];
                    let flat_row = &mut flat[i * total_chunks..(i + 1) * total_chunks];
                    let mut offset = 0usize;
                    let mut chunk_off = 0usize;
                    for (seg, &seg_rows) in segment_rows.iter().enumerate() {
                        let end = offset + seg_rows;
                        let s_lo = acts.partition_point(|&g| (g as usize) < offset);
                        let s_hi = acts.partition_point(|&g| (g as usize) < end);
                        if s_lo == s_hi {
                            // A fully silent segment contributes exactly
                            // zero to every column and draws no current
                            // (`flat_row` is pre-zeroed); adding `+0.0`
                            // into `out_row` cannot change any bit
                            // because partial outputs are never `-0.0`.
                            chunk_off += tiles[seg].iter().map(|t| t.chunk_count()).sum::<usize>();
                            offset = end;
                            continue;
                        }
                        active.clear();
                        active.extend(acts[s_lo..s_hi].iter().map(|&g| g as usize - offset));
                        for (g, tile) in tiles[seg].iter().enumerate() {
                            let chunks = tile.chunk_count();
                            tile.eval_sparse_prepared(
                                &active,
                                &mut totals,
                                &mut flat_row[chunk_off..chunk_off + chunks],
                                &mut diff,
                            );
                            let unit = tile.unit_current().0;
                            for (c, i) in totals[..tile.kernels()].iter().enumerate() {
                                out_row[g * M + c] += (i.0 / unit) as f32;
                            }
                            chunk_off += chunks;
                        }
                        offset = end;
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

    pub(crate) fn set_kernel_path(&mut self, path: KernelPath) {
        for tile in self.tiles.iter_mut().flatten() {
            tile.set_kernel_path(path);
        }
    }

    /// Bytes of the current kernel path's conductance caches across this
    /// matrix's tiles, building any missing layouts first (see
    /// [`SuperTile::kernel_cache_bytes`]).
    fn kernel_cache_bytes(&mut self) -> usize {
        for tile in self.tiles.iter_mut().flatten() {
            tile.prepare();
        }
        self.tiles
            .iter()
            .flatten()
            .map(SuperTile::kernel_cache_bytes)
            .sum()
    }

    /// Splits a programmed matrix into one single-segment matrix per
    /// R_f segment, *moving* the already-programmed [`SuperTile`]s — no
    /// reprogramming, so every cell keeps the exact conductances (the
    /// clip was computed over the whole weight matrix before the split).
    /// Shard `s` computes exactly the per-segment partial the unsplit
    /// matrix adds for segment `s`, which is what makes the multi-chip
    /// tensor-sharded reduction bit-identical (see
    /// [`crate::multichip`]).
    pub(crate) fn split_segments(self) -> Vec<SnnMatrix> {
        let SnnMatrix {
            tiles,
            segment_rows,
            cols,
            ..
        } = self;
        tiles
            .into_iter()
            .zip(segment_rows)
            .map(|(groups, rows)| SnnMatrix {
                tiles: vec![groups],
                segment_rows: vec![rows],
                cols,
                rf: rows,
            })
            .collect()
    }
}

/// Active-row (spiking) index lists for a batch of crossbar waves, in
/// CSR form: `starts` has `len() + 1` entries and item `i`'s strictly
/// ascending receptive-field indices are `idx[starts[i]..starts[i+1]]`.
///
/// Batches live inside their stage's [`EventScratch`] and are rebuilt
/// in place every timestep ([`clear`](Self::clear) +
/// [`gather_dense`](Self::gather_dense) / [`gather_conv_patches`]), so the
/// index vectors amortize to zero allocations per step once warm.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpikeBatch {
    idx: Vec<u32>,
    starts: Vec<usize>,
}

impl SpikeBatch {
    #[cfg(test)]
    fn with_items(n: usize) -> Self {
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        Self {
            idx: Vec::new(),
            starts,
        }
    }

    /// Empties the batch, retaining both vectors' capacity for reuse.
    fn clear(&mut self) {
        self.idx.clear();
        self.starts.clear();
        self.starts.push(0);
    }

    /// Seals the current item: everything appended to `idx` since the
    /// previous seal belongs to it.
    fn push_item(&mut self) {
        self.starts.push(self.idx.len());
    }

    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` when no item has any active row — the whole wave is
    /// silent and every downstream crossbar evaluation can be skipped.
    pub(crate) fn is_silent(&self) -> bool {
        self.idx.is_empty()
    }

    fn item(&self, i: usize) -> &[u32] {
        &self.idx[self.starts[i]..self.starts[i + 1]]
    }

    /// Rebuilds `out` as the restriction of this batch to receptive-field
    /// window `[lo, hi)`, rebasing every surviving index by `-lo` — the
    /// gather a tensor-sharded chip performs on the full spike wave
    /// before driving its own R_f segment. Because indices are strictly
    /// ascending per item, the window is located with two binary
    /// searches per item, exactly like the per-segment slicing inside
    /// [`SnnMatrix::dot_spikes_batch_active`] — so a shard sees exactly
    /// the active set the unsplit matrix's segment would.
    pub(crate) fn slice_window(&self, lo: usize, hi: usize, out: &mut SpikeBatch) {
        out.clear();
        for i in 0..self.len() {
            let acts = self.item(i);
            let s_lo = acts.partition_point(|&g| (g as usize) < lo);
            let s_hi = acts.partition_point(|&g| (g as usize) < hi);
            out.idx
                .extend(acts[s_lo..s_hi].iter().map(|&g| g - lo as u32));
            out.push_item();
        }
    }

    /// Rebuilds the batch in place from dense spike vectors — `data` is
    /// `n` rows of `row_len` values and row `i`'s active (`v > 0.5`)
    /// indices are gathered in ascending order. A branch-free counting
    /// pass over 64-wide blocks (which the compiler vectorizes) decides
    /// whether the index-building scan runs at all; spike trains after
    /// the first IF layer are mostly silent, so most blocks are
    /// dismissed with ~1 op/element. Retained capacity makes this
    /// allocation-free once the batch has seen its peak activity.
    pub(crate) fn gather_dense(&mut self, data: &[f32], row_len: usize) {
        self.clear();
        for spikes in data.chunks(row_len.max(1)) {
            let mut base = 0u32;
            for blk in spikes.chunks(64) {
                let hits: u32 = blk.iter().map(|&v| u32::from(v > 0.5)).sum();
                if hits > 0 {
                    self.idx.extend(
                        blk.iter()
                            .enumerate()
                            .filter(|(_, &v)| v > 0.5)
                            .map(|(r, _)| base + r as u32),
                    );
                }
                base += blk.len() as u32;
            }
            self.push_item();
        }
    }
}

/// Per-stage gather scratch, owned by each synaptic stage and reused
/// across timesteps: the active-index [`SpikeBatch`] handed to the
/// crossbars plus the convolution gather's feature-map CSR and write
/// cursors. All vectors are rebuilt in place each step, so steady-state
/// timesteps perform no gather-side allocations (asserted by
/// `event_gather_scratch_does_not_grow_across_timesteps`).
#[derive(Debug, Clone, Default)]
pub(crate) struct EventScratch {
    pub(crate) batch: SpikeBatch,
    fm_idx: Vec<u32>,
    fm_starts: Vec<usize>,
    cursor: Vec<usize>,
}

/// Builds the per-patch active-index lists for a convolution directly
/// from the sparse spiking feature map — the fused twin of
/// [`im2col`] + [`SpikeBatch::gather_dense`] that never materializes the
/// `[N·OH·OW, C·KH·KW]` patch matrix. Produces exactly the indices the
/// unfused pipeline would: for patch `(img, oy, ox)`, column
/// `ch·kh·kw + ky·kw + kx` is active iff input pixel
/// `(img, ch, oy·stride + ky − pad, ox·stride + kx − pad)` is in bounds
/// and spiking (`> 0.5`) — the identical test (padded taps stay `0.0`
/// in `im2col`, hence inactive) emitted in the identical ascending
/// `(ch, ky, kx)` order, so the downstream crossbar evaluation is
/// bit-identical.
pub(crate) fn gather_conv_patches(
    scratch: &mut EventScratch,
    data: &[f32],
    [n, c, h, w]: [usize; 4],
    [oh, ow]: [usize; 2],
    geom: ConvGeometry,
) {
    // Feature-map CSR over the n·c·h input scanlines: ascending spiking
    // x positions per scanline, found with the same blocked counting
    // pass as `SpikeBatch::gather_dense`. All scratch vectors are rebuilt
    // in place so steady-state timesteps allocate nothing here.
    let fm_idx = &mut scratch.fm_idx;
    let fm_starts = &mut scratch.fm_starts;
    fm_idx.clear();
    fm_starts.clear();
    fm_starts.reserve(n * c * h + 1);
    fm_starts.push(0);
    for line in data.chunks(w.max(1)) {
        let mut base = 0u32;
        for blk in line.chunks(64) {
            let hits: u32 = blk.iter().map(|&v| u32::from(v > 0.5)).sum();
            if hits > 0 {
                fm_idx.extend(
                    blk.iter()
                        .enumerate()
                        .filter(|(_, &v)| v > 0.5)
                        .map(|(x, _)| base + x as u32),
                );
            }
            base += blk.len() as u32;
        }
        fm_starts.push(fm_idx.len());
    }
    let (kh, kw, stride, pad) = (geom.kh, geom.kw, geom.stride, geom.pad);
    let patches = n * oh * ow;
    let batch = &mut scratch.batch;
    if data.is_empty() {
        batch.idx.clear();
        batch.starts.clear();
        batch.starts.resize(patches + 1, 0);
        return;
    }
    // Scatter, not gather: each spiking pixel `(img, ch, y, x)` lands in
    // at most `kh·kw` patches — those `(oy, ox)` with
    // `y = oy·stride + ky − pad` and `x = ox·stride + kx − pad` for some
    // in-kernel `(ky, kx)` — so the work scales with *spikes*, not with
    // `patches × C·KH` probes of mostly-silent scanlines. `for_each`
    // walks every (patch, column) contribution once; it runs twice —
    // first to size each patch's slot (prefix-summed into `starts`),
    // then to fill through per-patch write cursors. Pixels are visited
    // in ascending `(ch, y, x)` order and a fixed patch maps
    // `ky = y − (oy·stride − pad)` monotonically in `y` (and `kx`
    // likewise in `x`), so each patch receives its columns already in
    // strictly ascending order.
    let for_each = |emit: &mut dyn FnMut(usize, u32)| {
        for img in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    let line_r = (img * c + ch) * h + y;
                    let line = &fm_idx[fm_starts[line_r]..fm_starts[line_r + 1]];
                    if line.is_empty() {
                        continue;
                    }
                    for ky in 0..kh {
                        let Some(t) = (y + pad).checked_sub(ky) else {
                            continue;
                        };
                        if t % stride != 0 {
                            continue;
                        }
                        let oy = t / stride;
                        if oy >= oh {
                            continue;
                        }
                        let col0 = ((ch * kh + ky) * kw) as u32;
                        let patch0 = (img * oh + oy) * ow;
                        for &x in line {
                            for kx in 0..kw {
                                let Some(u) = (x as usize + pad).checked_sub(kx) else {
                                    continue;
                                };
                                if u % stride != 0 {
                                    continue;
                                }
                                let ox = u / stride;
                                if ox >= ow {
                                    continue;
                                }
                                emit(patch0 + ox, col0 + kx as u32);
                            }
                        }
                    }
                }
            }
        }
    };
    let starts = &mut batch.starts;
    starts.clear();
    starts.resize(patches + 1, 0);
    for_each(&mut |p, _| starts[p + 1] += 1);
    for p in 0..patches {
        starts[p + 1] += starts[p];
    }
    let cursor = &mut scratch.cursor;
    cursor.clear();
    cursor.extend_from_slice(&starts[..patches]);
    let idx = &mut batch.idx;
    idx.clear();
    idx.resize(starts[patches], 0);
    for_each(&mut |p, col| {
        idx[cursor[p]] = col;
        cursor[p] += 1;
    });
}

#[derive(Debug, Clone)]
pub(crate) enum SpikingAnalogStage {
    /// Crossbar-backed dense synapses + digital bias injection.
    Dense {
        matrix: SnnMatrix,
        bias: Vec<f32>,
        scratch: EventScratch,
    },
    /// Crossbar-backed convolution (im2col streaming) + bias.
    Conv {
        matrix: SnnMatrix,
        bias: Vec<f32>,
        geom: ConvGeometry,
        out_channels: usize,
        scratch: EventScratch,
    },
    /// IF population on the column outputs.
    IntegrateFire(IfPopulation),
    /// Software average pooling (fixed-weight circuit on hardware).
    AvgPool {
        k: usize,
    },
    Flatten,
}

/// A spiking network executing its synaptic arithmetic on SNN-mode
/// crossbar models.
///
/// Build from a *converted* [`SpikingNetwork`] with
/// [`compile_snn`]; the conversion's threshold balancing (v_th = 1)
/// carries over unchanged.
#[derive(Debug, Clone)]
pub struct AnalogSpikingNetwork {
    pub(crate) stages: Vec<SpikingAnalogStage>,
    pub(crate) encoding: InputEncoding,
    pub(crate) timestep_waves: u64,
}

/// Compiles a converted spiking network onto SNN-mode crossbars.
///
/// # Errors
///
/// Returns [`AnalogError::Unsupported`] for stages the analog executor
/// cannot realize (depthwise convolutions, quantizer stages — quantize
/// *before* conversion instead).
pub fn compile_snn(
    snn: &SpikingNetwork,
    config: &CrossbarConfig,
) -> Result<AnalogSpikingNetwork, AnalogError> {
    let mut stages = Vec::with_capacity(snn.stages().len());
    for stage in snn.stages() {
        match stage {
            SnnStage::Synaptic(Layer::Dense(d)) => stages.push(SpikingAnalogStage::Dense {
                matrix: SnnMatrix::program(&d.weight.value, config)?,
                bias: d.bias.value.data().to_vec(),
                scratch: EventScratch::default(),
            }),
            SnnStage::Synaptic(Layer::Conv2d(c)) => {
                let s = c.weight.value.shape();
                let (oc, ckk) = (s[0], s[1] * s[2] * s[3]);
                let wmat = c.weight.value.reshape(&[oc, ckk])?.transpose()?;
                stages.push(SpikingAnalogStage::Conv {
                    matrix: SnnMatrix::program(&wmat, config)?,
                    bias: c.bias.value.data().to_vec(),
                    geom: c.geom,
                    out_channels: oc,
                    scratch: EventScratch::default(),
                });
            }
            SnnStage::Synaptic(Layer::AvgPool(p)) => {
                stages.push(SpikingAnalogStage::AvgPool { k: p.k })
            }
            SnnStage::Synaptic(Layer::Flatten(_)) => stages.push(SpikingAnalogStage::Flatten),
            SnnStage::IntegrateFire(pop) => stages.push(SpikingAnalogStage::IntegrateFire(
                IfPopulation::with_dynamics(pop.threshold, pop.reset, pop.leak, pop.refractory),
            )),
            SnnStage::Synaptic(other) => {
                return Err(AnalogError::Unsupported {
                    layer: other.name().to_string(),
                })
            }
        }
    }
    Ok(AnalogSpikingNetwork {
        stages,
        encoding: InputEncoding::Poisson,
        timestep_waves: 0,
    })
}

impl AnalogSpikingNetwork {
    /// Sets the input encoding (defaults to Poisson rate coding).
    pub fn set_encoding(&mut self, encoding: InputEncoding) {
        self.encoding = encoding;
    }

    /// Selects the crossbar inner-loop kernel every programmed tile
    /// evaluates through (default [`KernelPath::Vectorized`]). Outputs
    /// are bit-identical on every path; under the vectorized and
    /// quantized paths read energy uses the per-row-sum formulation and
    /// agrees with the scalar/reference path to a relative error ≤ 1e-12
    /// per dot instead of bitwise (see [`nebula_crossbar::kernel`]).
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        for stage in &mut self.stages {
            if let SpikingAnalogStage::Dense { matrix, .. }
            | SpikingAnalogStage::Conv { matrix, .. } = stage
            {
                matrix.set_kernel_path(path);
            }
        }
    }

    /// Number of programmed super-tiles across all synaptic stages —
    /// the address space [`kill_ac`](Self::kill_ac) indexes.
    pub fn supertile_count(&self) -> usize {
        self.stages
            .iter()
            .map(|s| match s {
                SpikingAnalogStage::Dense { matrix, .. }
                | SpikingAnalogStage::Conv { matrix, .. } => {
                    matrix.tiles.iter().map(Vec::len).sum()
                }
                _ => 0,
            })
            .sum()
    }

    /// Samples hard faults into every programmed super-tile, in stage
    /// then tile order (the draw sequence is reproducible for a fixed
    /// seed). Returns the total number of faulty cells. The event-driven
    /// engine must stay bit-identical to the sequential reference under
    /// any fault map — faults perturb conductances, not the active-set
    /// bookkeeping.
    pub fn inject_faults<R: Rng + ?Sized>(&mut self, model: &FaultModel, rng: &mut R) -> usize {
        let mut faulty = 0;
        for stage in &mut self.stages {
            if let SpikingAnalogStage::Dense { matrix, .. }
            | SpikingAnalogStage::Conv { matrix, .. } = stage
            {
                for tile in matrix.tiles.iter_mut().flatten() {
                    faulty += tile.inject_faults(model, rng);
                }
            }
        }
        faulty
    }

    /// Advances every programmed crossbar's age by `dt`, driving
    /// retention-drift faults (see [`SuperTile::advance_age`]).
    pub fn advance_age(&mut self, dt: Seconds) {
        for stage in &mut self.stages {
            if let SpikingAnalogStage::Dense { matrix, .. }
            | SpikingAnalogStage::Conv { matrix, .. } = stage
            {
                for tile in matrix.tiles.iter_mut().flatten() {
                    tile.advance_age(dt);
                }
            }
        }
    }

    /// Power-gates one atomic crossbar: `tile` counts super-tiles in
    /// stage-then-tile compile order (see
    /// [`supertile_count`](Self::supertile_count)), `ac` is the AC index
    /// within it.
    ///
    /// # Panics
    ///
    /// Panics when `tile` or `ac` is out of range.
    pub fn kill_ac(&mut self, tile: usize, ac: usize) {
        let mut idx = 0;
        for stage in &mut self.stages {
            if let SpikingAnalogStage::Dense { matrix, .. }
            | SpikingAnalogStage::Conv { matrix, .. } = stage
            {
                for t in matrix.tiles.iter_mut().flatten() {
                    if idx == tile {
                        t.kill_ac(ac);
                        return;
                    }
                    idx += 1;
                }
            }
        }
        panic!("super-tile {tile} outside the {idx} programmed tiles");
    }

    /// Bytes the conductance caches backing the current kernel path
    /// occupy across all programmed tiles (building any missing layouts
    /// first) — the footprint `bench_hotpath` reports per path.
    pub fn conductance_cache_bytes(&mut self) -> usize {
        self.stages
            .iter_mut()
            .map(|s| match s {
                SpikingAnalogStage::Dense { matrix, .. }
                | SpikingAnalogStage::Conv { matrix, .. } => matrix.kernel_cache_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Output-potential shape this network produces for `input_shape`
    /// — the shape [`run`](Self::run) returns (before accumulation the
    /// per-timestep tensors have the same shape). Used by the zero
    /// timestep corner and by the serving layer to size empty results
    /// without executing a wave.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the compiled stages.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        let mut shape = input_shape.to_vec();
        if shape.is_empty() {
            return Err(AnalogError::BadGeometry {
                reason: "rank-0 input".into(),
            });
        }
        for stage in &self.stages {
            shape = match stage {
                SpikingAnalogStage::Dense { matrix, .. } => {
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
                SpikingAnalogStage::Conv {
                    geom, out_channels, ..
                } => {
                    if shape.len() != 4 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("conv stage expects rank-4 input, got {shape:?}"),
                        });
                    }
                    let (oh, ow) = geom.out_hw(shape[2], shape[3])?;
                    vec![shape[0], *out_channels, oh, ow]
                }
                SpikingAnalogStage::IntegrateFire(_) => shape,
                SpikingAnalogStage::AvgPool { k } => {
                    if shape.len() != 4 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("avg-pool stage expects rank-4 input, got {shape:?}"),
                        });
                    }
                    vec![shape[0], shape[1], shape[2] / k, shape[3] / k]
                }
                SpikingAnalogStage::Flatten => {
                    vec![shape[0], shape[1..].iter().product()]
                }
            };
        }
        Ok(shape)
    }

    pub(crate) fn reset_state(&mut self) {
        for stage in &mut self.stages {
            if let SpikingAnalogStage::IntegrateFire(p) = stage {
                p.reset_state();
            }
        }
    }

    /// Runs `timesteps` of circuit-backed spiking inference and returns
    /// the accumulated output potentials `[N, classes]`.
    ///
    /// All samples advance through each timestep together: every
    /// synaptic stage prepares its tiles once and evaluates each item's
    /// spiking rows through the split-phase
    /// [`SuperTile::eval_sparse_prepared`] instead of one dense `dot` per
    /// sample, then accrues read energy in item order. Outputs, RNG
    /// consumption and energy counters are bit-identical to
    /// [`run_sequential`](Self::run_sequential).
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<Tensor, AnalogError> {
        self.run_impl(inputs, timesteps, rng, false)
    }

    /// [`run`](Self::run) through the legacy path: one uncached
    /// per-cell crossbar evaluation per sample per timestep — the
    /// pre-cache baseline. The encoder consumes the RNG identically
    /// (whole batch per timestep), so outputs match [`run`](Self::run)
    /// bit for bit. Kept for equivalence tests and the `bench_hotpath`
    /// sequential leg.
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures.
    pub fn run_sequential<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<Tensor, AnalogError> {
        self.run_impl(inputs, timesteps, rng, true)
    }

    /// Runs `timesteps` of circuit-backed spiking inference for a batch
    /// of independently seeded request groups — the serving layer's
    /// entry point for dynamically batched SNN jobs.
    ///
    /// `groups` partitions the batch rows: `(rows, seed)` covers the
    /// next `rows` samples and encodes them, every timestep, from its
    /// own [`rand::rngs::StdRng`] stream seeded with `seed`. Because a
    /// solo run over one group's rows consumes its RNG in exactly the
    /// same order (row-major per timestep), the output potentials are
    /// **bit-identical** to concatenating
    /// `run(group_rows, timesteps, StdRng::seed_from_u64(seed))` per
    /// group — and hence, by the batched-evaluator contract, to
    /// [`run_sequential`](Self::run_sequential) per group. Coalescing
    /// requests into one wave therefore cannot change any tenant's
    /// answer.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the group row counts
    /// don't sum to the batch size; propagates circuit and tensor
    /// failures.
    pub fn run_seeded_groups(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        groups: &[(usize, u64)],
    ) -> Result<Tensor, AnalogError> {
        let n = *inputs
            .shape()
            .first()
            .ok_or_else(|| AnalogError::BadGeometry {
                reason: "rank-0 input".into(),
            })?;
        let total: usize = groups.iter().map(|&(rows, _)| rows).sum();
        if total != n {
            return Err(AnalogError::BadGeometry {
                reason: format!("seeded groups cover {total} rows, batch has {n}"),
            });
        }
        let row_elems = inputs.len().checked_div(n).unwrap_or(0);
        let encoding = self.encoding;
        let mut rngs: Vec<rand::rngs::StdRng> = groups
            .iter()
            .map(|&(_, seed)| rand::SeedableRng::seed_from_u64(seed))
            .collect();
        self.run_with_encoder(inputs, timesteps, false, &mut |x: &Tensor| {
            encode_groups(encoding, x, row_elems, groups, &mut rngs)
        })
    }

    fn run_impl<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
        reference: bool,
    ) -> Result<Tensor, AnalogError> {
        let encoding = self.encoding;
        self.run_with_encoder(inputs, timesteps, reference, &mut |x: &Tensor| {
            encode_with(encoding, x, rng)
        })
    }

    fn run_with_encoder(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        reference: bool,
        encode: &mut dyn FnMut(&Tensor) -> Tensor,
    ) -> Result<Tensor, AnalogError> {
        self.reset_state();
        let mut acc: Option<Tensor> = None;
        let stage_count = self.stages.len();
        for _ in 0..timesteps {
            let h = self.step_range(encode(inputs), 0..stage_count, reference)?;
            match &mut acc {
                Some(a) => a.add_assign(&h)?,
                none => *none = Some(h),
            }
        }
        match acc {
            Some(a) => Ok(a),
            // Zero timesteps: no wave ran and no energy accrued, but the
            // result must still have the shape a one-or-more-timestep
            // run would produce (all-zero potentials), so callers —
            // the serving layer in particular — can split it per
            // request. (This used to return a `[0, 0]` placeholder.)
            None => Ok(Tensor::zeros(&self.output_shape(inputs.shape())?)),
        }
    }

    /// Advances one already-encoded spike wave `h` through stages
    /// `range`, mutating IF state and accruing crossbar energy exactly
    /// as the matching slice of a full timestep would. Extracted from
    /// the timestep loop so the multi-chip pipelined executor
    /// ([`crate::multichip`]) can advance each chip's contiguous stage
    /// span independently while staying bit-identical to
    /// [`run_sequential`](Self::run_sequential): for a fixed wave the
    /// stage loop is a left-to-right fold, so splitting it at any
    /// boundary changes nothing.
    pub(crate) fn step_range(
        &mut self,
        h: Tensor,
        range: std::ops::Range<usize>,
        reference: bool,
    ) -> Result<Tensor, AnalogError> {
        self.step_range_with(h, range, reference, nebula_tensor::pool::size())
    }

    /// [`step_range`](Self::step_range) with the crossbar worker count
    /// explicit (`workers == 1` keeps the slice entirely on the calling
    /// thread — the pipelined executor's per-stage mode). Bit-identical
    /// for any worker count.
    pub(crate) fn step_range_with(
        &mut self,
        mut h: Tensor,
        range: std::ops::Range<usize>,
        reference: bool,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        let mut stages = std::mem::take(&mut self.stages);
        let step: Result<(), AnalogError> = (|| {
            for stage in stages[range].iter_mut() {
                h = match stage {
                    SpikingAnalogStage::Dense {
                        matrix,
                        bias,
                        scratch,
                    } => {
                        let n = h.shape()[0];
                        let ys: Option<Vec<f32>> = if reference {
                            let mut ys = Vec::with_capacity(n * matrix.cols);
                            for i in 0..n {
                                let row = &h.data()[i * matrix.rf..(i + 1) * matrix.rf];
                                ys.extend_from_slice(&matrix.dot_spikes_reference(row)?);
                            }
                            Some(ys)
                        } else {
                            scratch.batch.gather_dense(h.data(), matrix.rf);
                            if scratch.batch.is_silent() {
                                // Whole-layer skip: a silent wave never
                                // reaches the crossbars (no prepare, no
                                // pool dispatch, no accrual).
                                None
                            } else {
                                Some(matrix.dot_spikes_batch_active_with(&scratch.batch, workers)?)
                            }
                        };
                        self.timestep_waves += n as u64;
                        let mut out = Tensor::zeros(&[n, matrix.cols]);
                        match ys {
                            Some(ys) => {
                                for (dst, y) in out
                                    .data_mut()
                                    .chunks_mut(bias.len())
                                    .zip(ys.chunks(matrix.cols))
                                {
                                    for (d, (v, b)) in dst.iter_mut().zip(y.iter().zip(bias.iter()))
                                    {
                                        *d = v + b;
                                    }
                                }
                            }
                            // Bias-only output: the crossbar term is
                            // exactly `0.0`, and `0.0 + b` (not a bare
                            // `b`) keeps the bits identical to the long
                            // path even for `b == -0.0`.
                            None => {
                                for dst in out.data_mut().chunks_mut(bias.len()) {
                                    for (d, &b) in dst.iter_mut().zip(bias.iter()) {
                                        *d = 0.0 + b;
                                    }
                                }
                            }
                        }
                        out
                    }
                    SpikingAnalogStage::Conv {
                        matrix,
                        bias,
                        geom,
                        out_channels,
                        scratch,
                    } => {
                        let (n, cc, hh, ww) =
                            (h.shape()[0], h.shape()[1], h.shape()[2], h.shape()[3]);
                        let (oh, ow) = geom.out_hw(hh, ww)?;
                        let spatial = oh * ow;
                        let total_rows = n * spatial;
                        let ys: Option<Vec<f32>> = if reference {
                            let cols = im2col(&h, *geom)?;
                            let mut ys = Vec::with_capacity(total_rows * matrix.cols);
                            for ri in 0..total_rows {
                                let row = &cols.data()[ri * matrix.rf..(ri + 1) * matrix.rf];
                                ys.extend_from_slice(&matrix.dot_spikes_reference(row)?);
                            }
                            Some(ys)
                        } else {
                            // Fused sparse lowering: build each patch's
                            // active-index list straight from the
                            // spiking feature map — no im2col matrix,
                            // no dense patch rows. Bit-identical to the
                            // unfused path (see `gather_conv_patches`).
                            gather_conv_patches(
                                scratch,
                                h.data(),
                                [n, cc, hh, ww],
                                [oh, ow],
                                *geom,
                            );
                            if scratch.batch.is_silent() {
                                // Whole-layer skip, as in the dense arm.
                                None
                            } else {
                                Some(matrix.dot_spikes_batch_active_with(&scratch.batch, workers)?)
                            }
                        };
                        self.timestep_waves += total_rows as u64;
                        let mc = matrix.cols;
                        let mut out = Tensor::zeros(&[n, *out_channels, oh, ow]);
                        match ys {
                            Some(ys) => {
                                for img in 0..n {
                                    for s in 0..spatial {
                                        let y = &ys[(img * spatial + s) * mc..][..mc];
                                        for (o, (&v, &b)) in y.iter().zip(bias.iter()).enumerate() {
                                            out.data_mut()
                                                [img * *out_channels * spatial + o * spatial + s] =
                                                v + b;
                                        }
                                    }
                                }
                            }
                            // Bias-only planes; `0.0 + b` for the same
                            // `-0.0` reason as the dense arm.
                            None => {
                                for img in 0..n {
                                    for (o, &b) in bias.iter().enumerate() {
                                        let base = img * *out_channels * spatial + o * spatial;
                                        for d in &mut out.data_mut()[base..base + spatial] {
                                            *d = 0.0 + b;
                                        }
                                    }
                                }
                            }
                        }
                        out
                    }
                    SpikingAnalogStage::IntegrateFire(pop) => pop.step(&h)?,
                    SpikingAnalogStage::AvgPool { k } => avg_pool2d(&h, *k)?,
                    SpikingAnalogStage::Flatten => {
                        let n = h.shape()[0];
                        let rest: usize = h.shape()[1..].iter().product();
                        h.reshape(&[n, rest])?
                    }
                };
            }
            Ok(())
        })();
        self.stages = stages;
        step?;
        Ok(h)
    }

    /// Classification accuracy of the circuit-backed SNN.
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures.
    ///
    /// # Panics
    ///
    /// Panics when the label count differs from the batch size.
    pub fn accuracy<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        timesteps: usize,
        rng: &mut R,
    ) -> Result<f64, AnalogError> {
        let potentials = self.run(inputs, timesteps, rng)?;
        let preds = potentials.argmax_rows()?;
        assert_eq!(preds.len(), labels.len());
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }

    /// Total analog read energy the crossbars dissipated — the
    /// event-driven energy figure (silent rows are free).
    pub fn read_energy(&self) -> Joules {
        self.stages
            .iter()
            .map(|s| match s {
                SpikingAnalogStage::Dense { matrix, .. }
                | SpikingAnalogStage::Conv { matrix, .. } => matrix.read_energy(),
                _ => Joules::ZERO,
            })
            .sum()
    }

    /// Crossbar waves executed (one per sample per output position per
    /// timestep).
    pub fn waves(&self) -> u64 {
        self.timestep_waves
    }
}

/// Encodes one timestep for independently seeded request groups:
/// group `(rows, _)` covers the next `rows` batch rows and draws from
/// its own RNG stream, elementwise in row-major order — exactly the
/// draws (Poisson) or values (Constant) a solo [`encode_with`] over
/// that group's rows would produce. Shared by
/// [`AnalogSpikingNetwork::run_seeded_groups`] and the multi-chip
/// executor's seeded-group entry point, which is what keeps the two
/// serving paths bit-identical.
pub(crate) fn encode_groups(
    encoding: InputEncoding,
    x: &Tensor,
    row_elems: usize,
    groups: &[(usize, u64)],
    rngs: &mut [rand::rngs::StdRng],
) -> Tensor {
    let mut t = Tensor::zeros(x.shape());
    let mut offset = 0usize;
    for (&(rows, _), rng) in groups.iter().zip(rngs.iter_mut()) {
        let lo = offset * row_elems;
        let hi = (offset + rows) * row_elems;
        match encoding {
            InputEncoding::Poisson => {
                for (d, &p) in t.data_mut()[lo..hi].iter_mut().zip(&x.data()[lo..hi]) {
                    if rng.gen::<f32>() < p.clamp(0.0, 1.0) {
                        *d = 1.0;
                    }
                }
            }
            InputEncoding::Constant => {
                for (d, &p) in t.data_mut()[lo..hi].iter_mut().zip(&x.data()[lo..hi]) {
                    *d = p.clamp(0.0, 1.0);
                }
            }
        }
        offset += rows;
    }
    t
}

/// Encodes one timestep of input under `encoding`, drawing from `rng`
/// elementwise in row-major order (Poisson consumes exactly one draw
/// per element; Constant consumes none).
pub(crate) fn encode_with<R: Rng + ?Sized>(
    encoding: InputEncoding,
    inputs: &Tensor,
    rng: &mut R,
) -> Tensor {
    match encoding {
        InputEncoding::Poisson => {
            let mut t = Tensor::zeros(inputs.shape());
            for (d, &p) in t.data_mut().iter_mut().zip(inputs.data()) {
                if rng.gen::<f32>() < p.clamp(0.0, 1.0) {
                    *d = 1.0;
                }
            }
            t
        }
        InputEncoding::Constant => inputs.clamp(0.0, 1.0),
    }
}

/// Compiles with the paper's default SNN-mode crossbars (0.25 V binary
/// drivers).
///
/// # Errors
///
/// See [`compile_snn`].
pub fn compile_snn_default(snn: &SpikingNetwork) -> Result<AnalogSpikingNetwork, AnalogError> {
    compile_snn(snn, &CrossbarConfig::paper_default(Mode::Snn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_nn::convert::{ann_to_snn, ConversionConfig};
    use nebula_nn::optim::{train, Dataset, TrainConfig};
    use nebula_nn::snn::ResetMode;
    use nebula_nn::{Layer as L, Network};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(404)
    }

    /// Trains a small two-feature classifier with inputs in [0, 1].
    fn trained_net(r: &mut rand::rngs::StdRng) -> (Network, Dataset) {
        let inputs = Tensor::rand_uniform(&[120, 2], 0.0, 1.0, r);
        let labels: Vec<usize> = (0..120)
            .map(|i| usize::from(inputs.data()[2 * i] < inputs.data()[2 * i + 1]))
            .collect();
        let data = Dataset::new(inputs, labels).unwrap();
        let mut net = Network::new(vec![L::dense(2, 12, r), L::relu(), L::dense(12, 2, r)]);
        let cfg = TrainConfig::builder().epochs(30).batch_size(20).build();
        train(&mut net, &data, &cfg, r).unwrap();
        (net, data)
    }

    #[test]
    fn spike_batch_slicing_handles_empty_and_single_active_items() {
        // CSR edge cases the fast path relies on implicitly: items with
        // zero activity produce empty slices, a single active row
        // produces a one-element slice, and `partition_point` over a
        // one-element item resolves segment membership exactly.
        let mut batch = SpikeBatch::with_items(4);
        batch.push_item(); // item 0: silent
        batch.idx.push(7);
        batch.push_item(); // item 1: single active row
        batch.push_item(); // item 2: silent
        batch.idx.extend([1u32, 5, 9]);
        batch.push_item(); // item 3: several rows
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.item(0), &[] as &[u32]);
        assert_eq!(batch.item(1), &[7]);
        assert_eq!(batch.item(2), &[] as &[u32]);
        assert_eq!(batch.item(3), &[1, 5, 9]);

        // partition_point slicing of a single-active-row item: the row
        // lands in exactly one segment window, empty slices elsewhere.
        let acts = batch.item(1);
        for (lo_bound, hi_bound, expect) in [(0usize, 4usize, 0..0), (4, 8, 0..1), (8, 12, 1..1)] {
            let s_lo = acts.partition_point(|&g| (g as usize) < lo_bound);
            let s_hi = acts.partition_point(|&g| (g as usize) < hi_bound);
            assert_eq!(s_lo..s_hi, expect, "window {lo_bound}..{hi_bound}");
        }

        // The dense gather produces the same CSR structure, and reusing
        // the batch keeps its capacity while replacing its contents.
        let mut data = vec![0.0f32; 30];
        data[10 + 7] = 1.0;
        let mut gathered = SpikeBatch::default();
        gathered.gather_dense(&data, 10);
        assert_eq!(gathered.len(), 3);
        assert_eq!(gathered.item(0), &[] as &[u32]);
        assert_eq!(gathered.item(1), &[7]);
        assert_eq!(gathered.item(2), &[] as &[u32]);
        assert!(!gathered.is_silent());
        let (idx_cap, starts_cap) = (gathered.idx.capacity(), gathered.starts.capacity());
        gathered.gather_dense(&[0.0f32; 20], 10);
        assert_eq!(gathered.len(), 2);
        assert!(gathered.is_silent());
        assert_eq!(gathered.idx.capacity(), idx_cap);
        assert_eq!(gathered.starts.capacity(), starts_cap);
    }

    #[test]
    fn quantized_spike_gather_dismisses_silent_items_without_energy() {
        let weight = Tensor::from_vec(
            (0..10 * 3).map(|i| (i % 5) as f32 / 4.0 - 0.4).collect(),
            &[10, 3],
        )
        .unwrap();
        let config = CrossbarConfig::paper_default(Mode::Snn);
        let mut quant = SnnMatrix::program(&weight, &config).unwrap();
        quant.set_kernel_path(KernelPath::Quantized);

        // A batch of only silent items must produce zero outputs and
        // touch neither the LUT nor the energy counters.
        let silent = SpikeBatch::with_items(3);
        let mut silent = silent;
        for _ in 0..3 {
            silent.push_item();
        }
        let out = quant
            .dot_spikes_batch_active_with(&silent, nebula_tensor::pool::size())
            .unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
        assert_eq!(
            quant.read_energy(),
            Joules::ZERO,
            "silent items must not accrue read energy"
        );

        // Mixed batch (silent / single-row / multi-row): bitwise equal to
        // the per-item scalar reference; silent item contributes nothing.
        let mut scalar = SnnMatrix::program(&weight, &config).unwrap();
        scalar.set_kernel_path(KernelPath::Scalar);
        let mut batch = SpikeBatch::with_items(3);
        batch.push_item(); // silent
        batch.idx.push(4);
        batch.push_item(); // single active row
        batch.idx.extend([0u32, 3, 9]);
        batch.push_item();
        let out = quant
            .dot_spikes_batch_active_with(&batch, nebula_tensor::pool::size())
            .unwrap();
        let mut spikes = vec![vec![0.0f32; 10]; 3];
        spikes[1][4] = 1.0;
        for r in [0usize, 3, 9] {
            spikes[2][r] = 1.0;
        }
        for (i, item) in spikes.iter().enumerate() {
            let reference = scalar.dot_spikes_reference(item).unwrap();
            for (c, (&q, &s)) in out[i * 3..(i + 1) * 3].iter().zip(&reference).enumerate() {
                assert_eq!(q.to_bits(), s.to_bits(), "item {i} col {c}");
            }
        }
        // Energy: quantized accrues via per-row sums, bitwise equal to
        // the vectorized formulation on the same activity.
        let mut vector = SnnMatrix::program(&weight, &config).unwrap();
        vector
            .dot_spikes_batch_active_with(&batch, nebula_tensor::pool::size())
            .unwrap();
        assert_eq!(quant.read_energy(), vector.read_energy());
    }

    #[test]
    fn circuit_backed_snn_classifies_like_functional_snn() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let mut functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let func_acc = functional
            .accuracy(&data.inputs, &data.labels, 150, &mut r)
            .unwrap();
        let mut analog = compile_snn_default(&functional).unwrap();
        let analog_acc = analog
            .accuracy(&data.inputs, &data.labels, 150, &mut r)
            .unwrap();
        assert!(
            (func_acc - analog_acc).abs() < 0.12,
            "functional {func_acc} vs circuit {analog_acc}"
        );
        assert!(analog_acc > 0.8, "circuit SNN failed: {analog_acc}");
    }

    #[test]
    fn silent_timesteps_cost_no_crossbar_energy() {
        let mut r = rng();
        let (mut net, data) = trained_net(&mut r);
        // Zero the biases: a bias is a constant current injection that
        // legitimately fires neurons even with silent inputs, so the
        // zero-energy property only holds for bias-free networks.
        for layer in net.layers_mut() {
            if let nebula_nn::layer::Layer::Dense(d) = layer {
                for b in d.bias.value.data_mut() {
                    *b = 0.0;
                }
            }
        }
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut analog = compile_snn_default(&functional).unwrap();
        let zeros = Tensor::zeros(&[4, 2]);
        analog.run(&zeros, 20, &mut r).unwrap();
        assert_eq!(
            analog.read_energy(),
            Joules::ZERO,
            "all-silent input must dissipate nothing in the arrays"
        );
    }

    /// A small conv + dense spiking stack exercising both gather paths.
    fn conv_snn(r: &mut rand::rngs::StdRng) -> AnalogSpikingNetwork {
        let snn = SpikingNetwork::new(
            vec![
                SnnStage::Synaptic(L::conv2d(1, 2, 3, 1, 1, r)),
                SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
                SnnStage::Synaptic(L::flatten()),
                SnnStage::Synaptic(L::dense(2 * 8 * 8, 3, r)),
                SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
            ],
            InputEncoding::Poisson,
        );
        compile_snn_default(&snn).unwrap()
    }

    /// Capacities of every gather-scratch vector, per synaptic stage.
    fn scratch_caps(net: &AnalogSpikingNetwork) -> Vec<[usize; 5]> {
        net.stages
            .iter()
            .filter_map(|s| match s {
                SpikingAnalogStage::Dense { scratch, .. }
                | SpikingAnalogStage::Conv { scratch, .. } => Some([
                    scratch.batch.idx.capacity(),
                    scratch.batch.starts.capacity(),
                    scratch.fm_idx.capacity(),
                    scratch.fm_starts.capacity(),
                    scratch.cursor.capacity(),
                ]),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn event_gather_scratch_does_not_grow_across_timesteps() {
        // The per-stage gather scratch must amortize to zero allocations
        // per timestep: a second identically seeded run replays exactly
        // the same activity, so if the vectors are truly rebuilt in
        // place their capacities cannot move.
        let mut r = rng();
        let mut analog = conv_snn(&mut r);
        let x = Tensor::rand_uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut r);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(41);
        analog.run(&x, 25, &mut r1).unwrap();
        let caps = scratch_caps(&analog);
        assert_eq!(caps.len(), 2, "one scratch per synaptic stage");
        assert!(
            caps.iter().flatten().any(|&c| c > 0),
            "warm scratch should hold capacity"
        );
        let mut r2 = rand::rngs::StdRng::seed_from_u64(41);
        analog.run(&x, 25, &mut r2).unwrap();
        assert_eq!(
            scratch_caps(&analog),
            caps,
            "steady-state timesteps must not grow the gather scratch"
        );
    }

    #[test]
    fn all_silent_timesteps_skip_crossbars_and_match_sequential() {
        // Constant-encoded zeros never spike, so every timestep takes the
        // whole-layer skip in every synaptic stage: no crossbar energy,
        // and outputs bitwise identical to the sequential reference
        // (which walks the full dense machinery).
        let mut r = rng();
        let (mut net, data) = trained_net(&mut r);
        for layer in net.layers_mut() {
            if let nebula_nn::layer::Layer::Dense(d) = layer {
                for b in d.bias.value.data_mut() {
                    *b = 0.0;
                }
            }
        }
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut fast = compile_snn_default(&functional).unwrap();
        let mut slow = compile_snn_default(&functional).unwrap();
        fast.set_encoding(InputEncoding::Constant);
        slow.set_encoding(InputEncoding::Constant);
        let zeros = Tensor::zeros(&[4, 2]);
        let yf = fast.run(&zeros, 12, &mut r).unwrap();
        let ys = slow.run_sequential(&zeros, 12, &mut r).unwrap();
        for (a, b) in yf.data().iter().zip(ys.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fast.read_energy(), Joules::ZERO);
        assert_eq!(slow.read_energy(), Joules::ZERO);
        assert_eq!(fast.waves(), slow.waves(), "waves still tick when silent");
    }

    #[test]
    fn silent_first_layer_with_bias_matches_sequential_bitwise() {
        // All-silent input into a *biased* first layer: the skip path
        // must still inject the bias (as `0.0 + b`, so even a `-0.0`
        // bias keeps identical bits), which can fire downstream neurons
        // whose spikes then drive the later crossbars for real. Scalar
        // kernels make even the energy comparison bitwise.
        let mut r = rng();
        let (mut net, data) = trained_net(&mut r);
        let mut biased = false;
        for layer in net.layers_mut() {
            if let nebula_nn::layer::Layer::Dense(d) = layer {
                if !biased {
                    for (i, b) in d.bias.value.data_mut().iter_mut().enumerate() {
                        *b = 0.3 + 0.05 * i as f32;
                    }
                    biased = true;
                }
            }
        }
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut fast = compile_snn_default(&functional).unwrap();
        fast.set_kernel_path(KernelPath::Scalar);
        let mut slow = fast.clone();
        fast.set_encoding(InputEncoding::Constant);
        slow.set_encoding(InputEncoding::Constant);
        let zeros = Tensor::zeros(&[3, 2]);
        let yf = fast.run(&zeros, 30, &mut r).unwrap();
        let ys = slow.run_sequential(&zeros, 30, &mut r).unwrap();
        for (a, b) in yf.data().iter().zip(ys.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fast.read_energy(), slow.read_energy());
        assert!(
            fast.read_energy() > Joules::ZERO,
            "bias-driven downstream spikes should reach the crossbars"
        );
    }

    #[test]
    fn conv_event_path_matches_sequential_bitwise() {
        let mut r = rng();
        let mut fast = conv_snn(&mut r);
        let mut slow = fast.clone();
        let x = Tensor::rand_uniform(&[2, 1, 8, 8], 0.0, 0.6, &mut r);
        let mut rf = rand::rngs::StdRng::seed_from_u64(77);
        let mut rs = rand::rngs::StdRng::seed_from_u64(77);
        let yf = fast.run(&x, 20, &mut rf).unwrap();
        let ys = slow.run_sequential(&x, 20, &mut rs).unwrap();
        assert_eq!(yf.shape(), ys.shape());
        for (a, b) in yf.data().iter().zip(ys.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fast.waves(), slow.waves());
    }

    #[test]
    fn busier_inputs_cost_more_energy() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut quiet = compile_snn_default(&functional).unwrap();
        let mut busy = compile_snn_default(&functional).unwrap();
        quiet.run(&Tensor::full(&[4, 2], 0.05), 30, &mut r).unwrap();
        busy.run(&Tensor::full(&[4, 2], 0.9), 30, &mut r).unwrap();
        assert!(
            busy.read_energy() > quiet.read_energy() * 2.0,
            "event-driven scaling broken: {} vs {}",
            busy.read_energy(),
            quiet.read_energy()
        );
    }

    #[test]
    fn batched_run_matches_sequential_reference_exactly() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut fast = compile_snn_default(&functional).unwrap();
        let mut slow = fast.clone();
        let cols = data.inputs.shape()[1];
        let x = Tensor::from_vec(data.inputs.data()[..16 * cols].to_vec(), &[16, cols]).unwrap();
        // Same seed for both legs: the Poisson encoder draws per
        // timestep for the whole batch, so RNG consumption is identical.
        let mut scalar = fast.clone();
        scalar.set_kernel_path(KernelPath::Scalar);
        let mut r_fast = rand::rngs::StdRng::seed_from_u64(9);
        let mut r_slow = rand::rngs::StdRng::seed_from_u64(9);
        let mut r_scalar = rand::rngs::StdRng::seed_from_u64(9);
        let yf = fast.run(&x, 40, &mut r_fast).unwrap();
        let ys = slow.run_sequential(&x, 40, &mut r_slow).unwrap();
        let yk = scalar.run(&x, 40, &mut r_scalar).unwrap();
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
    fn seeded_groups_match_solo_runs_bitwise() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let compiled = compile_snn_default(&functional).unwrap();
        let cols = data.inputs.shape()[1];
        // Three requests of 2, 1 and 3 samples with distinct seeds.
        let groups = [(2usize, 11u64), (1, 22), (3, 33)];
        let n: usize = groups.iter().map(|g| g.0).sum();
        let x = Tensor::from_vec(data.inputs.data()[..n * cols].to_vec(), &[n, cols]).unwrap();
        let mut batched = compiled.clone();
        let y = batched.run_seeded_groups(&x, 60, &groups).unwrap();
        assert_eq!(y.shape(), [n, 2]);
        let out_cols = y.shape()[1];
        let mut offset = 0usize;
        for &(rows, seed) in &groups {
            let xg = Tensor::from_vec(
                x.data()[offset * cols..(offset + rows) * cols].to_vec(),
                &[rows, cols],
            )
            .unwrap();
            // The per-group reference is the *sequential* evaluator with
            // that group's own RNG stream — the serving bit-identity
            // contract.
            let mut solo = compiled.clone();
            let mut rg: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
            let yg = solo.run_sequential(&xg, 60, &mut rg).unwrap();
            for (i, (a, b)) in y.data()[offset * out_cols..(offset + rows) * out_cols]
                .iter()
                .zip(yg.data())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "group seed {seed}, element {i}: batched {a} vs solo {b}"
                );
            }
            offset += rows;
        }
    }

    #[test]
    fn zero_timesteps_yield_shaped_zeros_and_no_energy() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut analog = compile_snn_default(&functional).unwrap();
        let x = Tensor::from_vec(data.inputs.data()[..5 * 2].to_vec(), &[5, 2]).unwrap();
        let y = analog.run(&x, 0, &mut r).unwrap();
        assert_eq!(
            y.shape(),
            [5, 2],
            "zero-timestep output keeps the batch shape"
        );
        assert!(y.data().iter().all(|&v| v == 0.0));
        assert_eq!(analog.read_energy(), Joules::ZERO);
        assert_eq!(analog.waves(), 0);
        let mut seq = compile_snn_default(&functional).unwrap();
        let ys = seq.run_sequential(&x, 0, &mut r).unwrap();
        assert_eq!(ys.shape(), y.shape());
        assert_eq!(seq.read_energy(), Joules::ZERO);
    }

    #[test]
    fn output_shape_walks_every_stage_kind() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let analog = compile_snn_default(&functional).unwrap();
        assert_eq!(analog.output_shape(&[7, 2]).unwrap(), vec![7, 2]);
        assert!(analog.output_shape(&[7, 3]).is_err(), "wrong feature width");
        assert!(analog.output_shape(&[]).is_err(), "rank-0 input");
    }

    #[test]
    fn unsupported_stage_is_rejected() {
        let mut r = rng();
        let snn = SpikingNetwork::new(
            vec![SnnStage::Synaptic(L::depthwise_conv2d(2, 3, 1, 1, &mut r))],
            InputEncoding::Poisson,
        );
        assert!(matches!(
            compile_snn_default(&snn),
            Err(AnalogError::Unsupported { .. })
        ));
    }
}
