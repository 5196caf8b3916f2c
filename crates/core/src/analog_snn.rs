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

use crate::analog::{check_finite, AnalogError};
use crate::components::{M, MAX_RF_IN_CORE};
use nebula_crossbar::kernel::{self, SpikeRows};
use nebula_crossbar::{CrossbarConfig, KernelPath, Mode, SuperTile};
use nebula_device::units::{Joules, Seconds};
use nebula_device::FaultModel;
use nebula_nn::layer::Layer;
use nebula_nn::snn::{IfPopulation, InputEncoding, SnnStage, SpikingNetwork};
use nebula_tensor::{avg_pool2d, im2col, ConvGeometry, Tensor};
use rand::Rng;
use std::ops::Range;

/// A programmed spiking synaptic stage: crossbars in SNN mode.
#[derive(Debug, Clone)]
pub(crate) struct SnnMatrix {
    pub(crate) tiles: Vec<Vec<SuperTile>>,
    pub(crate) segment_rows: Vec<usize>,
    pub(crate) cols: usize,
    pub(crate) rf: usize,
    /// `(segment AC, row within that AC)` of every receptive-field row,
    /// the segments' ACs numbered consecutively — the scatter's row
    /// lookup, so the spike walk never divides.
    row_ac: Vec<(u32, u32)>,
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
        Ok(Self::assemble(tiles, segment_rows, cols))
    }

    /// A matrix over programmed `tiles` (segments × column groups).
    fn assemble(tiles: Vec<Vec<SuperTile>>, segment_rows: Vec<usize>, cols: usize) -> Self {
        let mut row_ac = Vec::new();
        let mut seg_chunk_base = 0usize;
        for (seg, &rows) in tiles.iter().zip(&segment_rows) {
            let m = seg[0].m();
            row_ac.extend((0..rows).map(|q| ((seg_chunk_base + q / m) as u32, (q % m) as u32)));
            seg_chunk_base += seg[0].chunk_count();
        }
        Self {
            rf: segment_rows.iter().sum(),
            tiles,
            segment_rows,
            cols,
            row_ac,
        }
    }

    /// One timestep for one sample through the legacy per-cell crossbar
    /// loop ([`SuperTile::dot_reference`]): binary spike vector in,
    /// real-valued membrane increments (`Wᵀs + b` handled by caller)
    /// out. Bit-identical to one patch of
    /// [`scatter_spikes`](Self::scatter_spikes); kept as the reference
    /// for equivalence tests and the `bench_hotpath` sequential leg.
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

    /// One timestep of spikes through this matrix in **scatter form**:
    /// every spiking input pixel adds its conductance rows once into the
    /// column accumulators of the output patches it reaches, so the work
    /// scales with spikes, not with crossbar waves — there is no
    /// per-patch active-row list and no per-wave tile/AC dispatch.
    ///
    /// `spikes` holds `geom.images` maps of `channels × in_hw` (row-major,
    /// a value `> 0.5` spikes); a dense stage is the 1×1 convolution over
    /// its features ([`StageGeometry::dense`]). Only receptive-field rows
    /// in `window` are driven, rebased by `−window.start` onto this
    /// matrix's rows (`window.len()` must equal the matrix's R_f): the
    /// whole field on a single chip, one shard's rows when the matrix is
    /// one R_f segment of a tensor-sharded layer. Each patch's crossbar
    /// output is **added** (per segment, in ascending segment order) to
    /// `out`, laid out `[images, cols, out_h·out_w]` — so a zeroed `out`
    /// ends up with exactly what
    /// [`dot_spikes_reference`](Self::dot_spikes_reference) returns per
    /// patch, and the shards of one layer can accumulate into one buffer.
    /// Read energy is accrued per AC in ascending patch order. Returns
    /// whether any spike reached a patch through `window`; when none
    /// did, neither `out` nor any energy counter changed.
    ///
    /// Bit-identity with the per-patch reference follows from the visit
    /// order. Pixels are visited in ascending `(ch, y, x)`, and for a
    /// fixed patch the receptive-field row `(ch·kh + ky)·kw + kx`, with
    /// `ky = y − (oy·stride − pad)` and `kx = x − (ox·stride − pad)`, is
    /// increasing in that order. So each (patch, AC) accumulator, started
    /// at `+0.0`, adds its driven rows in ascending row order — the
    /// per-AC evaluators' sequence — and its current chain links
    /// `v·row_sum[r]` (or the scalar per-cell chain) in the same order.
    /// The reduction then merges a patch's ACs in ascending order into a
    /// `+0.0` total and adds `(total / unit) as f32` per segment and
    /// column group. Untouched ACs and patches are skipped: their
    /// contribution is exactly `+0.0`, and no partial sum here is ever
    /// `−0.0`, so an add of zero could not change a bit. Workers split
    /// the images; accrual then runs sequentially, so the result does
    /// not depend on `workers`.
    pub(crate) fn scatter_spikes(
        &mut self,
        spikes: &[f32],
        geom: &StageGeometry,
        window: Range<usize>,
        workers: usize,
        scratch: &mut EventScratch,
        out: &mut [f32],
    ) -> bool {
        assert_eq!(window.len(), self.rf, "row window must span the matrix");
        let (n, spatial) = (geom.images, geom.patches());
        debug_assert_eq!(
            spikes.len(),
            n * geom.channels * geom.in_hw[0] * geom.in_hw[1]
        );
        debug_assert_eq!(out.len(), n * self.cols * spatial);
        if n == 0 {
            return false;
        }
        for tile in self.tiles.iter_mut().flatten() {
            tile.prepare();
        }
        let blocks = workers.clamp(1, n);
        if scratch.blocks.len() < blocks {
            scratch.blocks.resize_with(blocks, BlockScratch::default);
        }
        let plan = ScatterPlan::new(self, geom, window);
        let hit = {
            let plan = &plan;
            let in_len = spikes.len() / n;
            let out_len = out.len() / n;
            if blocks == 1 {
                scatter_block(plan, spikes, n, out, &mut scratch.blocks[0])
            } else {
                let mut hits = vec![false; blocks];
                let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(blocks);
                let (mut rest_in, mut rest_out) = (spikes, &mut *out);
                for (b, (bs, hit)) in scratch.blocks.iter_mut().zip(&mut hits).enumerate() {
                    let images = (b + 1) * n / blocks - b * n / blocks;
                    let (x, tail_in) = rest_in.split_at(images * in_len);
                    let (y, tail_out) =
                        std::mem::take(&mut rest_out).split_at_mut(images * out_len);
                    (rest_in, rest_out) = (tail_in, tail_out);
                    tasks.push(Box::new(move || {
                        *hit = scatter_block(plan, x, images, y, bs)
                    }));
                }
                nebula_tensor::pool::run_scoped(tasks);
                hits.contains(&true)
            }
        };
        if !hit {
            return false;
        }
        // Sequential accrual in ascending patch order per atomic crossbar:
        // blocks hold ascending image ranges and each block lists its
        // touched patches in ascending order.
        let total_chunks = plan.total_chunks;
        let mut item_currents: Vec<&[f64]> = Vec::new();
        let mut chunk_off = 0usize;
        for tile in self.tiles.iter_mut().flatten() {
            let chunks = tile.chunk_count();
            item_currents.clear();
            item_currents.extend(scratch.blocks[..blocks].iter().flat_map(|bs| {
                bs.currents
                    .chunks(total_chunks)
                    .map(|row| &row[chunk_off..chunk_off + chunks])
            }));
            tile.accrue_batch(&item_currents);
            chunk_off += chunks;
        }
        true
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
            .map(|(groups, rows)| SnnMatrix::assemble(vec![groups], vec![rows], cols))
            .collect()
    }
}

/// Shape of one spiking synaptic stage in scatter form: `images` spike
/// maps of `channels × in_hw` feeding a `conv` kernel that yields
/// `out_hw` output patches (crossbar waves) per image. A dense stage is
/// the 1×1 convolution over its features.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageGeometry {
    pub(crate) images: usize,
    pub(crate) channels: usize,
    pub(crate) in_hw: [usize; 2],
    pub(crate) out_hw: [usize; 2],
    pub(crate) conv: ConvGeometry,
}

impl StageGeometry {
    /// A dense stage over `[images, features]` spikes: one patch per
    /// image whose receptive-field row `i` is feature `i`.
    pub(crate) fn dense(images: usize, features: usize) -> Self {
        Self {
            images,
            channels: features,
            in_hw: [1, 1],
            out_hw: [1, 1],
            conv: ConvGeometry {
                kh: 1,
                kw: 1,
                stride: 1,
                pad: 0,
            },
        }
    }

    /// A convolution stage over a `[n, c, h, w]` spike map.
    pub(crate) fn conv(shape: &[usize], conv: ConvGeometry) -> Result<Self, AnalogError> {
        let &[images, channels, h, w] = shape else {
            return Err(AnalogError::BadGeometry {
                reason: format!("conv stage expects rank-4 input, got {shape:?}"),
            });
        };
        let (oh, ow) = conv.out_hw(h, w)?;
        Ok(Self {
            images,
            channels,
            in_hw: [h, w],
            out_hw: [oh, ow],
            conv,
        })
    }

    /// Output patches (crossbar waves) per image.
    pub(crate) fn patches(&self) -> usize {
        self.out_hw[0] * self.out_hw[1]
    }
}

/// Per-stage scatter scratch, owned by each synaptic stage and reused
/// across timesteps: one [`BlockScratch`] per worker block. Every vector
/// is rebuilt in place each step, so steady-state timesteps allocate
/// nothing here (asserted by
/// `event_scratch_does_not_grow_across_timesteps`).
#[derive(Debug, Clone, Default)]
pub(crate) struct EventScratch {
    blocks: Vec<BlockScratch>,
}

/// One worker block's scatter state: sparse (patch, AC-row-range)
/// accumulator slots, allocated on first touch, plus the per-patch AC
/// currents the sequential accrual reads afterwards.
#[derive(Debug, Clone, Default)]
struct BlockScratch {
    /// `slot_of[patch · seg_chunks + seg_chunk]` is the slot index + 1
    /// of that (block-local patch, segment AC) pair, `0` when untouched.
    /// All-zero between calls: the reduction resets every slot it reads.
    slot_of: Vec<u32>,
    /// Column accumulators, `width` per slot (column group `g` at
    /// `g·M`); all `+0.0` between calls, like `cur`.
    acc: Vec<f64>,
    /// Current chains, one per slot and column group.
    cur: Vec<f64>,
    /// Per touched patch, ascending, its AC currents in (segment, group,
    /// AC) order — `total_chunks` values, zero where an AC saw no spike.
    currents: Vec<f64>,
    /// One image's `(patch, window row)` drives, in spike order.
    drives: Vec<(u32, u32)>,
}

/// What the scatter body reads from a prepared [`SnnMatrix`].
struct ScatterPlan<'a> {
    geom: StageGeometry,
    window: Range<usize>,
    /// `views[seg_chunk · groups + g]`: the spike rows of AC `seg_chunk`
    /// (segments' ACs numbered consecutively) in column group `g`;
    /// `None` for a dead AC.
    views: Vec<Option<SpikeRows<'a>>>,
    /// First segment-AC index of each segment.
    seg_chunk_base: Vec<usize>,
    /// ACs per segment.
    seg_chunk_count: Vec<usize>,
    seg_chunks: usize,
    total_chunks: usize,
    groups: usize,
    /// `(segment AC, row within it)` of every matrix row.
    row_ac: &'a [(u32, u32)],
    /// Accumulator slot width: `padded_len(cols)`.
    width: usize,
    cols: usize,
    /// Kernel count and unit current of each column group, per segment.
    kernels: Vec<usize>,
    units: Vec<Vec<f64>>,
    y_taps: AxisTaps,
    x_taps: AxisTaps,
    /// `(y, x)` of every in-plane pixel index.
    pixel_yx: Vec<(u32, u32)>,
}

impl<'a> ScatterPlan<'a> {
    /// Reads the views of prepared tiles.
    fn new(matrix: &'a SnnMatrix, geom: &StageGeometry, window: Range<usize>) -> Self {
        let groups = matrix.tiles[0].len();
        let mut views = Vec::new();
        let mut seg_chunk_base = Vec::with_capacity(matrix.tiles.len());
        let mut seg_chunk_count = Vec::with_capacity(matrix.tiles.len());
        let mut seg_chunks = 0usize;
        for seg in &matrix.tiles {
            let chunks = seg[0].chunk_count();
            seg_chunk_base.push(seg_chunks);
            seg_chunk_count.push(chunks);
            seg_chunks += chunks;
            for k in 0..chunks {
                views.extend(seg.iter().map(|t| t.spike_rows(k)));
            }
        }
        let c = &geom.conv;
        let [h, w] = geom.in_hw;
        Self {
            pixel_yx: (0..h as u32)
                .flat_map(|y| (0..w as u32).map(move |x| (y, x)))
                .collect(),
            y_taps: AxisTaps::new(geom.in_hw[0], c.kh, c.stride, c.pad, geom.out_hw[0]),
            x_taps: AxisTaps::new(geom.in_hw[1], c.kw, c.stride, c.pad, geom.out_hw[1]),
            geom: *geom,
            window,
            views,
            seg_chunks,
            // Every tile of a segment spans the same ACs.
            total_chunks: seg_chunks * groups,
            seg_chunk_base,
            seg_chunk_count,
            groups,
            row_ac: &matrix.row_ac,
            width: kernel::padded_len(matrix.cols),
            cols: matrix.cols,
            kernels: matrix.tiles[0].iter().map(SuperTile::kernels).collect(),
            units: matrix
                .tiles
                .iter()
                .map(|seg| seg.iter().map(|t| t.unit_current().0).collect())
                .collect(),
        }
    }
}

/// Scatters and reduces one block of `images` images: `spikes` and `out`
/// are the block's slices. Returns whether any spike reached a patch.
/// Runs the AVX2 build when the host has it, else the portable one;
/// both compile the same source (no intrinsics, no FMA contraction) and
/// produce the same bits, as [`kernel`]'s GEMV does.
fn scatter_block(
    plan: &ScatterPlan<'_>,
    spikes: &[f32],
    images: usize,
    out: &mut [f32],
    bs: &mut BlockScratch,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host reports AVX2.
        return unsafe { scatter_block_avx2(plan, spikes, images, out, bs) };
    }
    scatter_block_portable(plan, spikes, images, out, bs)
}

/// [`scatter_block`] compiled for the build target's baseline ISA.
fn scatter_block_portable(
    plan: &ScatterPlan<'_>,
    spikes: &[f32],
    images: usize,
    out: &mut [f32],
    bs: &mut BlockScratch,
) -> bool {
    scatter_block_body(plan, spikes, images, out, bs)
}

/// [`scatter_block`] compiled with AVX2 enabled: the same source, wider
/// registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scatter_block_avx2(
    plan: &ScatterPlan<'_>,
    spikes: &[f32],
    images: usize,
    out: &mut [f32],
    bs: &mut BlockScratch,
) -> bool {
    scatter_block_body(plan, spikes, images, out, bs)
}

/// The one scatter source both builds inline: the spike walk into the
/// block's slots, then the per-patch reduction into `out` and the
/// per-patch AC currents for accrual.
#[inline(always)]
fn scatter_block_body(
    plan: &ScatterPlan<'_>,
    spikes: &[f32],
    images: usize,
    out: &mut [f32],
    bs: &mut BlockScratch,
) -> bool {
    let g = &plan.geom;
    let hw = g.in_hw[0] * g.in_hw[1];
    let spatial = g.patches();
    let (kh, kw, ow) = (g.conv.kh, g.conv.kw, g.out_hw[1]);
    let kk = kh * kw;
    let map_len = g.channels * hw;
    if map_len == 0 {
        return false; // an empty map holds no spike
    }
    let slots_needed = spatial * plan.seg_chunks;
    assert!(u32::try_from(slots_needed).is_ok(), "slot map exceeds u32");
    if bs.slot_of.len() < slots_needed {
        bs.slot_of.resize(slots_needed, 0);
    }
    bs.currents.clear();
    // Only channels whose receptive-field rows meet the window can drive
    // anything (rows of channel `ch` are `ch·kk .. (ch+1)·kk`).
    let ch_lo = plan.window.start / kk;
    let ch_hi = g.channels.min(plan.window.end.div_ceil(kk));
    let mut hit = false;
    // One image at a time, so the live slots stay cache-resident.
    for (map, out_img) in spikes
        .chunks_exact(map_len)
        .zip(out.chunks_exact_mut(plan.cols * spatial))
        .take(images)
    {
        let drives = &mut bs.drives;
        drives.clear();
        let mut base = ch_lo * hw;
        // Channel of the current spike and the end of its plane, advanced
        // as the ascending spikes cross planes — no division per spike.
        let (mut ch, mut plane_end) = (ch_lo, (ch_lo + 1) * hw);
        // First pass: list the image's (patch, row) drives. One spike
        // bitmask per 64-pixel block: most blocks hold no spike and are
        // dismissed with ~1 op per pixel, and the set bits are walked
        // without a branch per pixel.
        let (blocks, tail) = map[ch_lo * hw..ch_hi * hw].as_chunks::<64>();
        for blk in blocks.iter().map(|b| &b[..]).chain([tail]) {
            // Full blocks have a length known at compile time, so their
            // mask compiles to vector compares.
            let mut hits = match <&[f32; 64]>::try_from(blk) {
                Ok(full) => spike_mask(full),
                Err(_) => spike_mask(blk),
            };
            while hits != 0 {
                let i = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let pix = base + i;
                while pix >= plane_end {
                    ch += 1;
                    plane_end += hw;
                }
                let (y, x) = plan.pixel_yx[pix + hw - plane_end];
                for &(ky, oy) in plan.y_taps.of(y as usize) {
                    let row0 = (ch * kh + ky as usize) * kw;
                    let prow = oy as usize * ow;
                    for &(kx, ox) in plan.x_taps.of(x as usize) {
                        let row = row0 + kx as usize;
                        if plan.window.contains(&row) {
                            let p = prow + ox as usize;
                            drives.push((p as u32, (row - plan.window.start) as u32));
                        }
                    }
                }
            }
            base += blk.len();
        }
        // Second pass: the adds, in the same (ascending pixel) order. An
        // image takes at most one slot per drive; slots past the warm
        // high-water mark are grown zeroed, and the reduction re-zeroes
        // every slot it reads, so reused slots are `+0.0`.
        let most = bs.drives.len().min(slots_needed);
        if bs.acc.len() < most * plan.width {
            bs.acc.resize(most * plan.width, 0.0);
            bs.cur.resize(most * plan.groups, 0.0);
        }
        let mut slots = 0usize;
        for i in 0..bs.drives.len() {
            let (p, r) = bs.drives[i];
            drive_row(plan, bs, &mut slots, p as usize, r as usize);
        }
        if slots > 0 {
            hit = true;
            reduce_image(plan, bs, out_img);
        }
    }
    hit
}

/// Bit `i` set iff `blk[i]` spikes (`> 0.5`); `blk` holds ≤ 64 values.
#[inline(always)]
fn spike_mask(blk: &[f32]) -> u64 {
    blk.iter()
        .enumerate()
        .fold(0u64, |m, (i, &v)| m | (u64::from(v > 0.5) << i))
}

/// Reduces one image's touched slots, patch by patch in ascending
/// order: merges each patch's ACs into its column outputs in `out_img`
/// (`[cols, spatial]`), appends its AC currents to `bs.currents`, and
/// takes every slot it reads back to untouched and `+0.0` (in the same
/// loops that read them).
#[inline(always)]
fn reduce_image(plan: &ScatterPlan<'_>, bs: &mut BlockScratch, out_img: &mut [f32]) {
    let spatial = plan.geom.patches();
    let (groups, width) = (plan.groups, plan.width);
    let mut tot = [0.0f64; M];
    let mut vals = [0.0f32; M];
    for pos in 0..spatial {
        let keys = &mut bs.slot_of[pos * plan.seg_chunks..(pos + 1) * plan.seg_chunks];
        if keys.iter().all(|&s| s == 0) {
            continue;
        }
        for (seg, (&sc0, &chunks)) in plan
            .seg_chunk_base
            .iter()
            .zip(&plan.seg_chunk_count)
            .enumerate()
        {
            let seg_keys = &keys[sc0..sc0 + chunks];
            let silent = seg_keys.iter().all(|&s| s == 0);
            for (gi, &kernels) in plan.kernels.iter().enumerate() {
                let tot = &mut tot[..kernels];
                let mut first = true;
                for &slot in seg_keys {
                    if slot == 0 {
                        bs.currents.push(0.0);
                        continue;
                    }
                    let s = slot as usize - 1;
                    let cur = &mut bs.cur[s * groups + gi];
                    bs.currents.push(std::mem::take(cur));
                    let a = &mut bs.acc[s * width + gi * M..][..kernels];
                    if first {
                        // `0.0 + a == a`: an accumulator is never `−0.0`.
                        for (t, a) in tot.iter_mut().zip(a) {
                            *t = std::mem::take(a);
                        }
                        first = false;
                    } else {
                        for (t, a) in tot.iter_mut().zip(a) {
                            // Kirchhoff current summation, AC-ascending.
                            *t += std::mem::take(a);
                        }
                    }
                }
                if silent {
                    continue;
                }
                let unit = plan.units[seg][gi];
                for (v, &t) in vals.iter_mut().zip(tot.iter()) {
                    *v = (t / unit) as f32;
                }
                let out_cols = out_img[gi * M * spatial + pos..]
                    .iter_mut()
                    .step_by(spatial);
                for (o, &v) in out_cols.zip(&vals[..kernels]) {
                    *o += v;
                }
            }
        }
        for k in keys {
            *k = 0;
        }
    }
}

/// Adds receptive-field row `r` (window-relative) of patch `p` (within
/// the current image) into its (patch, AC) slot, allocating the slot zeroed on first
/// touch, for every column group whose AC is alive.
#[inline(always)]
fn drive_row(plan: &ScatterPlan<'_>, bs: &mut BlockScratch, slots: &mut usize, p: usize, r: usize) {
    let (groups, width) = (plan.groups, plan.width);
    let (sc, row) = plan.row_ac[r];
    let (sc, row) = (sc as usize, row as usize);
    let key = &mut bs.slot_of[p * plan.seg_chunks + sc];
    // First touch takes the next slot. Branch-free: whether a slot is
    // fresh is as random as the spikes.
    let fresh = *key == 0;
    *slots += usize::from(fresh);
    *key = if fresh { *slots as u32 } else { *key };
    let s = *key as usize - 1;
    let acc = &mut bs.acc[s * width..(s + 1) * width];
    if groups == 1 {
        // The common single-group layer, without the group walk.
        if let Some(view) = &plan.views[sc] {
            bs.cur[s] = view.add_row(row, acc, bs.cur[s]);
        }
        return;
    }
    let cur = &mut bs.cur[s * groups..(s + 1) * groups];
    for (gi, (view, c)) in plan.views[sc * groups..(sc + 1) * groups]
        .iter()
        .zip(cur)
        .enumerate()
    {
        if let Some(view) = view {
            *c = view.add_row(row, &mut acc[gi * M..], *c);
        }
    }
}

/// For every input coordinate along one axis, the `(tap, output)` pairs
/// it feeds: input `y` is tap `ky` of output `oy` when
/// `y + pad = oy·stride + ky`. Precomputed per call so the spike walk
/// never divides by the stride.
struct AxisTaps {
    starts: Vec<usize>,
    taps: Vec<(u32, u32)>,
}

impl AxisTaps {
    fn new(input: usize, k: usize, stride: usize, pad: usize, output: usize) -> Self {
        let mut starts = Vec::with_capacity(input + 1);
        let mut taps = Vec::new();
        starts.push(0);
        for y in 0..input {
            for ky in 0..k {
                let Some(t) = (y + pad).checked_sub(ky) else {
                    continue;
                };
                if t % stride == 0 && t / stride < output {
                    taps.push((ky as u32, (t / stride) as u32));
                }
            }
            starts.push(taps.len());
        }
        Self { starts, taps }
    }

    fn of(&self, y: usize) -> &[(u32, u32)] {
        &self.taps[self.starts[y]..self.starts[y + 1]]
    }
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
                    matrix,
                    geom,
                    out_channels,
                    ..
                } => conv_output_shape(&shape, matrix.rf, *geom, *out_channels)?,
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

    /// The checks every entry point makes once, before the first
    /// timestep: the shape must flow through every stage
    /// ([`output_shape`](Self::output_shape)) and every value must be
    /// finite.
    pub(crate) fn check_input(&self, inputs: &Tensor) -> Result<(), AnalogError> {
        self.output_shape(inputs.shape())?;
        check_finite(inputs)
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
    /// synaptic stage scatters the wave's spikes straight into the
    /// crossbar rows they drive (see `SnnMatrix::scatter_spikes` and
    /// DESIGN.md "Event-driven evaluation") instead of one dense `dot`
    /// per sample and output position, then accrues read energy in
    /// patch order. Outputs, RNG consumption and waves are bit-identical
    /// to [`run_sequential`](Self::run_sequential), and so is energy on
    /// [`KernelPath::Scalar`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the input shape does not
    /// fit the network (see [`output_shape`](Self::output_shape)) and
    /// [`AnalogError::NonFiniteInput`] for a NaN or infinite input, both
    /// before any timestep runs; propagates circuit and tensor failures.
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
    /// As [`run`](Self::run).
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
    /// don't sum to the batch size; otherwise as [`run`](Self::run).
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
        self.check_input(inputs)?;
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
                        let mut out = Tensor::zeros(&[n, matrix.cols]);
                        if reference {
                            for (i, dst) in out.data_mut().chunks_mut(matrix.cols).enumerate() {
                                let row = &h.data()[i * matrix.rf..(i + 1) * matrix.rf];
                                dst.copy_from_slice(&matrix.dot_spikes_reference(row)?);
                            }
                        } else {
                            let geom = StageGeometry::dense(n, matrix.rf);
                            let rows = 0..matrix.rf;
                            matrix.scatter_spikes(
                                h.data(),
                                &geom,
                                rows,
                                workers,
                                scratch,
                                out.data_mut(),
                            );
                        }
                        self.timestep_waves += n as u64;
                        add_bias(&mut out, bias, 1);
                        out
                    }
                    SpikingAnalogStage::Conv {
                        matrix,
                        bias,
                        geom,
                        scratch,
                        ..
                    } => {
                        let sg = StageGeometry::conv(h.shape(), *geom)?;
                        let (n, spatial) = (sg.images, sg.patches());
                        let [oh, ow] = sg.out_hw;
                        let mut out = Tensor::zeros(&[n, matrix.cols, oh, ow]);
                        if reference {
                            let cols = im2col(&h, *geom)?;
                            for ri in 0..n * spatial {
                                let row = &cols.data()[ri * matrix.rf..(ri + 1) * matrix.rf];
                                let y = matrix.dot_spikes_reference(row)?;
                                let (img, pos) = (ri / spatial, ri % spatial);
                                for (o, v) in y.into_iter().enumerate() {
                                    out.data_mut()[(img * matrix.cols + o) * spatial + pos] = v;
                                }
                            }
                        } else {
                            let rows = 0..matrix.rf;
                            matrix.scatter_spikes(
                                h.data(),
                                &sg,
                                rows,
                                workers,
                                scratch,
                                out.data_mut(),
                            );
                        }
                        self.timestep_waves += (n * spatial) as u64;
                        add_bias(&mut out, bias, spatial);
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

/// Output shape of a convolution stage of receptive field `rf` fed
/// `shape`: rank 4 with exactly `rf / (kh·kw)` channels.
pub(crate) fn conv_output_shape(
    shape: &[usize],
    rf: usize,
    geom: ConvGeometry,
    out_channels: usize,
) -> Result<Vec<usize>, AnalogError> {
    if shape.len() != 4 || shape[1] * geom.kh * geom.kw != rf {
        return Err(AnalogError::BadGeometry {
            reason: format!(
                "conv stage expects [n, {}, h, w], got {shape:?}",
                rf / (geom.kh * geom.kw)
            ),
        });
    }
    let (oh, ow) = geom.out_hw(shape[2], shape[3])?;
    Ok(vec![shape[0], out_channels, oh, ow])
}

/// Adds the digital bias injection to a stage's crossbar outputs, laid
/// out `[n, channels, spatial]`: every value becomes `v + b`. A patch or
/// a whole layer the spikes never reached holds exactly `0.0`, so it
/// becomes `0.0 + b` — not a bare `b`, which would differ for
/// `b == −0.0`.
pub(crate) fn add_bias(out: &mut Tensor, bias: &[f32], spatial: usize) {
    for plane in out.data_mut().chunks_mut(bias.len() * spatial) {
        for (dst, &b) in plane.chunks_mut(spatial).zip(bias) {
            for d in dst {
                *d += b;
            }
        }
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

    /// Runs a dense-stage scatter of `items` (each a list of spiking
    /// rows out of `rf`) and returns the `[items, cols]` outputs.
    fn scatter_dense(matrix: &mut SnnMatrix, items: &[&[usize]], workers: usize) -> Vec<f32> {
        let rf = matrix.rf;
        let mut spikes = vec![0.0f32; items.len() * rf];
        for (i, rows) in items.iter().enumerate() {
            for &r in *rows {
                spikes[i * rf + r] = 1.0;
            }
        }
        let mut out = vec![0.0f32; items.len() * matrix.cols];
        let geom = StageGeometry::dense(items.len(), rf);
        let mut scratch = EventScratch::default();
        matrix.scatter_spikes(&spikes, &geom, 0..rf, workers, &mut scratch, &mut out);
        out
    }

    #[test]
    fn quantized_scatter_dismisses_silent_items_without_energy() {
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
        let out = scatter_dense(&mut quant, &[&[], &[], &[]], nebula_tensor::pool::size());
        assert!(out.iter().all(|&v| v.to_bits() == 0));
        assert_eq!(
            quant.read_energy(),
            Joules::ZERO,
            "silent items must not accrue read energy"
        );

        // Mixed batch (silent / single-row / multi-row): bitwise equal to
        // the per-item scalar reference; silent item contributes nothing.
        let mut scalar = SnnMatrix::program(&weight, &config).unwrap();
        scalar.set_kernel_path(KernelPath::Scalar);
        let items: [&[usize]; 3] = [&[], &[4], &[0, 3, 9]];
        for workers in [1, 3] {
            let mut q = SnnMatrix::program(&weight, &config).unwrap();
            q.set_kernel_path(KernelPath::Quantized);
            let out = scatter_dense(&mut q, &items, workers);
            for (i, rows) in items.iter().enumerate() {
                let mut spikes = vec![0.0f32; 10];
                for &r in *rows {
                    spikes[r] = 1.0;
                }
                let reference = scalar.dot_spikes_reference(&spikes).unwrap();
                for (c, (&q, &s)) in out[i * 3..(i + 1) * 3].iter().zip(&reference).enumerate() {
                    assert_eq!(q.to_bits(), s.to_bits(), "item {i} col {c}");
                }
            }
            quant = q;
        }
        // Energy: quantized accrues via per-row sums, bitwise equal to
        // the vectorized formulation on the same activity.
        let mut vector = SnnMatrix::program(&weight, &config).unwrap();
        vector.set_kernel_path(KernelPath::Vectorized);
        scatter_dense(&mut vector, &items, 1);
        assert_eq!(quant.read_energy(), vector.read_energy());
    }

    #[test]
    fn scatter_window_drives_only_its_rows() {
        // A window over rows 4..10 of a 10-feature spike map drives a
        // 6-row matrix with the rebased rows 0..6: spikes below the
        // window are ignored, and a wave with spikes only outside it
        // reports no hit and accrues nothing.
        let weight =
            Tensor::from_vec((0..6 * 2).map(|i| i as f32 / 6.0 - 1.0).collect(), &[6, 2]).unwrap();
        let config = CrossbarConfig::paper_default(Mode::Snn);
        let mut matrix = SnnMatrix::program(&weight, &config).unwrap();
        let geom = StageGeometry::dense(1, 10);
        let mut scratch = EventScratch::default();
        let mut out = vec![0.0f32; 2];
        let mut spikes = vec![0.0f32; 10];
        spikes[1] = 1.0;
        assert!(!matrix.scatter_spikes(&spikes, &geom, 4..10, 1, &mut scratch, &mut out));
        assert!(out.iter().all(|&v| v.to_bits() == 0));
        assert_eq!(matrix.read_energy(), Joules::ZERO);
        spikes[5] = 1.0;
        spikes[9] = 1.0;
        assert!(matrix.scatter_spikes(&spikes, &geom, 4..10, 1, &mut scratch, &mut out));
        let mut rebased = vec![0.0f32; 6];
        rebased[1] = 1.0;
        rebased[5] = 1.0;
        let expect = matrix.clone().dot_spikes_reference(&rebased).unwrap();
        for (a, b) in out.iter().zip(&expect) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scatter_is_bitwise_per_patch_reference_for_any_worker_count() {
        // Every patch of a scatter equals the per-patch reference on its
        // im2col row, and the accrued energy is the same bits for one
        // worker or several (workers split by image; accrual is
        // sequential), across strides, paddings, kernels and ACs.
        let config = CrossbarConfig::paper_default(Mode::Snn);
        let mut r = rng();
        for (c, k, stride, pad, side) in [
            (2, 3, 1, 1, 5),
            (3, 5, 2, 2, 6),
            (20, 3, 2, 0, 5),
            (200, 1, 1, 0, 3),
        ] {
            let oc = 3;
            let weight = Tensor::rand_uniform(&[c * k * k, oc], -1.0, 1.0, &mut r);
            let geom = ConvGeometry {
                kh: k,
                kw: k,
                stride,
                pad,
            };
            let x = Tensor::rand_uniform(&[5, c, side, side], 0.0, 1.0, &mut r).map(|v| {
                if v > 0.7 {
                    1.0
                } else {
                    0.0
                }
            });
            let sg = StageGeometry::conv(x.shape(), geom).unwrap();
            let spatial = sg.patches();
            let patches = im2col(&x, geom).unwrap();
            let mut reference = SnnMatrix::program(&weight, &config).unwrap();
            let mut energies = Vec::new();
            for workers in [1, 4] {
                let mut matrix = SnnMatrix::program(&weight, &config).unwrap();
                let mut scratch = EventScratch::default();
                let mut out = vec![0.0f32; 5 * oc * spatial];
                let rf = matrix.rf;
                assert!(matrix.scatter_spikes(
                    x.data(),
                    &sg,
                    0..rf,
                    workers,
                    &mut scratch,
                    &mut out
                ));
                for p in 0..5 * spatial {
                    let row = &patches.data()[p * rf..(p + 1) * rf];
                    let expect = reference.dot_spikes_reference(row).unwrap();
                    let (img, pos) = (p / spatial, p % spatial);
                    for (o, e) in expect.iter().enumerate() {
                        let got = out[(img * oc + o) * spatial + pos];
                        assert_eq!(
                            got.to_bits(),
                            e.to_bits(),
                            "c {c} k {k} workers {workers} patch {p}"
                        );
                    }
                }
                energies.push(matrix.read_energy().0.to_bits());
            }
            assert_eq!(
                energies[0], energies[1],
                "c {c} k {k}: energy depends on workers"
            );
        }
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

    /// A small conv + dense spiking stack exercising both stage kinds.
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

    /// Capacities of every scatter-scratch vector, per synaptic stage
    /// and, within it, per worker block.
    fn scratch_caps(net: &AnalogSpikingNetwork) -> Vec<Vec<[usize; 5]>> {
        net.stages
            .iter()
            .filter_map(|s| match s {
                SpikingAnalogStage::Dense { scratch, .. }
                | SpikingAnalogStage::Conv { scratch, .. } => Some(&scratch.blocks),
                _ => None,
            })
            .map(|blocks| {
                blocks
                    .iter()
                    .map(|b| {
                        [
                            b.slot_of.capacity(),
                            b.acc.capacity(),
                            b.cur.capacity(),
                            b.currents.capacity(),
                            b.drives.capacity(),
                        ]
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn event_scratch_does_not_grow_across_timesteps() {
        // The per-stage scatter scratch must amortize to zero allocations
        // per timestep: a second identically seeded run replays exactly
        // the same activity, so if the vectors are truly rebuilt in
        // place their capacities cannot move.
        let mut r = rng();
        let mut analog = conv_snn(&mut r);
        let x = Tensor::rand_uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut r);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(41);
        analog.run(&x, 25, &mut r1).unwrap();
        let caps = scratch_caps(&analog);
        // One scratch per synaptic stage (the conv and the dense), each
        // with one block per worker the 3-image batch can use.
        let blocks = nebula_tensor::pool::size().clamp(1, 3);
        assert_eq!(caps.len(), 2, "one scratch per synaptic stage");
        for stage in &caps {
            assert_eq!(stage.len(), blocks, "one block per worker");
        }
        assert!(
            caps.iter().flatten().flatten().any(|&c| c > 0),
            "warm scratch should hold capacity"
        );
        let mut r2 = rand::rngs::StdRng::seed_from_u64(41);
        analog.run(&x, 25, &mut r2).unwrap();
        assert_eq!(
            scratch_caps(&analog),
            caps,
            "steady-state timesteps must not grow the scatter scratch"
        );
        // Between calls every slot map is back to all-untouched.
        for stage in &analog.stages {
            if let SpikingAnalogStage::Dense { scratch, .. }
            | SpikingAnalogStage::Conv { scratch, .. } = stage
            {
                for b in &scratch.blocks {
                    assert!(b.slot_of.iter().all(|&s| s == 0));
                }
            }
        }
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
