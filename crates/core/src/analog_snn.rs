//! Analog *spiking* execution: run a converted SNN with every synaptic
//! MAC computed by the DW-MTJ crossbar models in SNN mode (0.25 V binary
//! spike drivers), integrate-and-fire thresholding on the column
//! outputs, and event-driven energy accounting straight from the
//! circuit layer.
//!
//! This closes the loop on the paper's multi-modal claim at circuit
//! level: an [`AnalogSpikingNetwork`] is the same engine as an ANN-mode
//! [`AnalogNetwork`](crate::analog::AnalogNetwork) — the same programmed
//! matrices, stage list and stage interpreter ([`crate::analog`]), and
//! the same placement on a chip cluster ([`crate::multichip`]: one chip
//! until `shard` re-cuts it, `run` through the one pipeline executor,
//! one timestep per item) — compiled with SNN drivers and IF
//! populations on the columns. This module holds what only spikes need:
//! the scatter-form evaluation of a synaptic stage (each spike adds the
//! conductance rows it drives, so the work scales with spikes, not with
//! crossbar waves), the input encoding and its [`Draws`], and `run`.

use crate::analog::{accuracy, AnalogError, ProgrammedMatrix, Stage};
use crate::components::{ACS_PER_SUPERTILE, M};
use crate::multichip::Deployment;
use nebula_crossbar::kernel::{self, SpikeRows};
use nebula_crossbar::{CrossbarConfig, Mode, SuperTile};
use nebula_device::units::Seconds;
use nebula_device::FaultModel;
use nebula_nn::snn::{IfPopulation, InputEncoding, SnnStage, SpikingNetwork};
use nebula_tensor::{ConvGeometry, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::Range;

impl ProgrammedMatrix {
    /// One timestep of spikes through this matrix in **scatter form**:
    /// the spiking input pixels are walked once, each listing the
    /// `(output patch, conductance row)` pairs it drives; the pairs are
    /// binned by patch, and every touched patch adds its rows per AC in
    /// registers — the work scales with spikes, not with crossbar waves,
    /// and there is no per-wave tile/AC dispatch.
    ///
    /// `spikes` holds `geom.images` maps of `channels × in_hw` (row-major,
    /// a value `> 0.5` spikes); a dense stage is the 1×1 convolution over
    /// its features ([`StageGeometry::dense`]) — and its channels times
    /// the kernel area must be the matrix's R_f. Each patch's crossbar
    /// output is **added** (per segment, in ascending segment order) to
    /// `out`, laid out `[images, cols, out_h·out_w]` — so a zeroed `out`
    /// ends up with exactly what
    /// [`dot_reference`](Self::dot_reference) returns per patch under
    /// SNN drivers. Read energy is accrued per AC in ascending patch order.
    /// Returns whether any spike reached a patch; when none did, neither
    /// `out` nor any energy counter changed. A tensor-sharded layer runs
    /// through here unchanged: its segments are this matrix's segments.
    ///
    /// Bit-identity with the per-patch reference follows from the visit
    /// order. Pixels are visited in ascending `(ch, y, x)`, and for a
    /// fixed patch the receptive-field row `(ch·kh + ky)·kw + kx`, with
    /// `ky = y − (oy·stride − pad)` and `kx = x − (ox·stride − pad)`, is
    /// increasing in that order. The counting sort that bins the drives
    /// by patch is stable, so each patch's rows stay ascending; the ACs
    /// number the rows in order, so they split into one ascending run per
    /// AC. Each (patch, AC) run is summed from `+0.0` in row order — the
    /// per-AC evaluators' sequence — and its current chain links
    /// `v·row_sum[r]` in the same order, as the oracle does.
    /// A patch's ACs then merge in ascending order into a `+0.0` total,
    /// and `(total / unit) as f32` is added per segment and column group.
    /// Untouched ACs and patches are skipped: their contribution is
    /// exactly `+0.0`, and no partial sum here is ever `−0.0`, so an add
    /// of zero could not change a bit. Workers split the images; accrual
    /// then runs sequentially, so the result does not depend on
    /// `workers`.
    pub(crate) fn scatter_spikes(
        &mut self,
        spikes: &[f32],
        geom: &StageGeometry,
        workers: usize,
        scratch: &mut EventScratch,
        out: &mut [f32],
    ) -> bool {
        debug_assert_eq!(
            geom.channels * geom.conv.kh * geom.conv.kw,
            self.rf,
            "the stage geometry must span the receptive field"
        );
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
        let plan = ScatterPlan::new(self, geom);
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
/// across timesteps: one [`BlockScratch`] per worker block. The first
/// call sizes every buffer for its batch of the stage's densest possible
/// images, so later timesteps at that batch size allocate nothing here
/// (asserted by `event_scratch_does_not_grow_across_timesteps`).
#[derive(Debug, Clone, Default)]
pub(crate) struct EventScratch {
    blocks: Vec<BlockScratch>,
}

/// One worker block's scatter state: one image's spike drives, binned by
/// output patch, plus the per-patch AC currents the sequential accrual
/// reads afterwards.
#[derive(Debug, Clone, Default)]
struct BlockScratch {
    /// One image's `(patch, row)` drives, in spike order.
    drives: Vec<(u32, u32)>,
    /// Per patch of one image: its drive count, then its bin start, then
    /// its bin end while the counting sort runs. All zero between images:
    /// the patch walk resets every entry it reads.
    bins: Vec<u32>,
    /// One image's drive rows, binned by patch in ascending patch order;
    /// the sort is stable, so each patch's rows ascend.
    binned: Vec<usize>,
    /// The runs of one patch's bin that fall in one segment AC:
    /// `(segment AC, first row of that AC, bin range)`, AC-ascending.
    runs: Vec<(usize, usize, Range<usize>)>,
    /// Per touched patch, ascending, its AC currents in (segment, group,
    /// AC) order — `total_chunks` values, zero where an AC saw no spike.
    currents: Vec<f64>,
}

/// What the scatter body reads from a prepared [`ProgrammedMatrix`].
struct ScatterPlan<'a> {
    geom: StageGeometry,
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
    cols: usize,
    /// Kernel count of each column group.
    kernels: Vec<usize>,
    /// `units[seg · groups + g]`: unit current of column group `g` in
    /// segment `seg`.
    units: Vec<f64>,
    y_taps: AxisTaps,
    x_taps: AxisTaps,
    /// `(y, x)` of every in-plane pixel index.
    pixel_yx: Vec<(u32, u32)>,
}

impl<'a> ScatterPlan<'a> {
    /// Reads the views of prepared tiles.
    fn new(matrix: &'a ProgrammedMatrix, geom: &StageGeometry) -> Self {
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
            views,
            seg_chunks,
            // Every tile of a segment spans the same ACs.
            total_chunks: seg_chunks * groups,
            seg_chunk_base,
            seg_chunk_count,
            groups,
            row_ac: &matrix.row_ac,
            cols: matrix.cols,
            kernels: matrix.tiles[0].iter().map(SuperTile::kernels).collect(),
            units: matrix
                .tiles
                .iter()
                .flatten()
                .map(|t| t.unit_current().0)
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

/// The one scatter source both builds inline. Per image: the spike walk
/// lists the `(patch, row)` drives, a stable counting sort bins them by
/// patch, and each touched patch is evaluated on its own
/// ([`scatter_patch`]) into `out` and the per-patch AC currents.
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
    let map_len = g.channels * hw;
    if map_len == 0 {
        return false; // an empty map holds no spike
    }
    // The densest image drives every (tap, patch) pair of every channel
    // once: size the buffers for it up front, so no later image or
    // timestep grows them.
    let most = g.channels * plan.y_taps.taps.len() * plan.x_taps.taps.len();
    assert!(
        u32::try_from(most.max(spatial)).is_ok(),
        "patch bins exceed u32"
    );
    bs.drives.clear();
    bs.drives.reserve(most);
    bs.binned.reserve(most.saturating_sub(bs.binned.len()));
    if bs.bins.len() < spatial {
        bs.bins.resize(spatial, 0);
    }
    bs.runs.reserve(plan.seg_chunks);
    bs.currents.clear();
    bs.currents.reserve(images * spatial * plan.total_chunks);
    let mut hit = false;
    let mut sums = PatchSums {
        tot: [0.0; M],
        ac: [0.0; M],
        vals: [0.0; M],
    };
    // One image at a time, so its bins stay cache-resident.
    for (map, out_img) in spikes
        .chunks_exact(map_len)
        .zip(out.chunks_exact_mut(plan.cols * spatial))
        .take(images)
    {
        let (drives, bins) = (&mut bs.drives, &mut bs.bins[..spatial]);
        drives.clear();
        let mut base = 0;
        // Channel of the current spike and the end of its plane, advanced
        // as the ascending spikes cross planes — no division per spike.
        let (mut ch, mut plane_end) = (0, hw);
        // The spike walk: list the image's (patch, row) drives and count
        // them per patch. One spike bitmask per 64-pixel block: most
        // blocks hold no spike and are dismissed with ~1 op per pixel,
        // and the set bits are walked without a branch per pixel.
        let (blocks, tail) = map.as_chunks::<64>();
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
                        let p = prow + ox as usize;
                        drives.push((p as u32, (row0 + kx as usize) as u32));
                        bins[p] += 1;
                    }
                }
            }
            base += blk.len();
        }
        if bs.drives.is_empty() {
            continue;
        }
        hit = true;
        // Stable counting sort of the drives by patch. The spike walk
        // visits a patch's rows in ascending order (see `scatter_spikes`),
        // so every bin ascends.
        let bins = &mut bs.bins[..spatial];
        let mut start = 0u32;
        for b in bins.iter_mut() {
            (*b, start) = (start, start + *b);
        }
        if bs.binned.len() < bs.drives.len() {
            bs.binned.resize(bs.drives.len(), 0);
        }
        for &(p, r) in &bs.drives {
            let b = &mut bins[p as usize];
            bs.binned[*b as usize] = r as usize;
            *b += 1;
        }
        // Each bin now ends where the next begins: walk the touched
        // patches in ascending order, resetting every bin for the next
        // image as it is read.
        let mut lo = 0usize;
        for pos in 0..spatial {
            let hi = std::mem::take(&mut bs.bins[pos]) as usize;
            if hi > lo {
                scatter_patch(plan, bs, lo..hi, pos, out_img, &mut sums);
                lo = hi;
            }
        }
    }
    hit
}

/// One patch's working sums, reused by every patch of a block: the
/// per-group total, one AC's sum, and the total in output units.
struct PatchSums {
    tot: [f64; M],
    ac: [f64; M],
    vals: [f32; M],
}

/// Bit `i` set iff `blk[i]` spikes (`> 0.5`); `blk` holds ≤ 64 values.
#[inline(always)]
fn spike_mask(blk: &[f32]) -> u64 {
    blk.iter()
        .enumerate()
        .fold(0u64, |m, (i, &v)| m | (u64::from(v > 0.5) << i))
}

/// Evaluates patch `pos` of the current image, whose ascending drive rows
/// are `bs.binned[bin]`: per segment and column group, each touched AC
/// adds its rows from `+0.0` ([`SpikeRows::add_rows`]), the ACs merge in
/// ascending order, and `(total / unit) as f32` is added to the patch's
/// column outputs in `out_img` (`[cols, spatial]`). The patch's AC
/// currents are appended to `bs.currents`.
#[inline(always)]
fn scatter_patch(
    plan: &ScatterPlan<'_>,
    bs: &mut BlockScratch,
    bin: Range<usize>,
    pos: usize,
    out_img: &mut [f32],
    sums: &mut PatchSums,
) {
    let spatial = plan.geom.patches();
    let groups = plan.groups;
    let rows = &bs.binned[bin];
    // Split the rows into runs of one segment AC each; ACs number the
    // rows in order, so the runs come out AC-ascending.
    bs.runs.clear();
    let mut j = 0;
    while j < rows.len() {
        let (sc, local) = plan.row_ac[rows[j]];
        let mut k = j + 1;
        while k < rows.len() && plan.row_ac[rows[k]].0 == sc {
            k += 1;
        }
        bs.runs.push((sc as usize, rows[j] - local as usize, j..k));
        j = k;
    }
    let cur0 = bs.currents.len();
    bs.currents.resize(cur0 + plan.total_chunks, 0.0);
    let currents = &mut bs.currents[cur0..];
    let PatchSums { tot, ac, vals } = sums;
    let mut runs = &bs.runs[..];
    for (seg, (&sc0, &chunks)) in plan
        .seg_chunk_base
        .iter()
        .zip(&plan.seg_chunk_count)
        .enumerate()
    {
        let split = runs.partition_point(|run| run.0 < sc0 + chunks);
        let (seg_runs, rest) = runs.split_at(split);
        runs = rest;
        if seg_runs.is_empty() {
            continue; // a silent segment adds exactly `+0.0`
        }
        for (gi, &kernels) in plan.kernels.iter().enumerate() {
            let width = kernel::padded_len(kernels);
            tot[..width].fill(0.0);
            let mut first = true;
            for (sc, base, run) in seg_runs {
                let Some(view) = &plan.views[sc * groups + gi] else {
                    continue; // a dead AC drives and draws nothing
                };
                let run = &rows[run.clone()];
                let current = if first {
                    // `+0.0 + a == a`: a sum from `+0.0` is never `−0.0`,
                    // so the first AC may land in the total directly.
                    first = false;
                    view.add_rows(run, *base, tot, 0.0)
                } else {
                    ac[..width].fill(0.0);
                    let current = view.add_rows(run, *base, ac, 0.0);
                    for (t, a) in tot[..kernels].iter_mut().zip(ac.iter()) {
                        // Kirchhoff current summation, AC-ascending.
                        *t += a;
                    }
                    current
                };
                currents[sc0 * groups + gi * chunks + (sc - sc0)] = current;
            }
            let unit = plan.units[seg * groups + gi];
            for (v, &t) in vals[..kernels].iter_mut().zip(&tot[..kernels]) {
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

/// A spiking network executing its synaptic arithmetic on SNN-mode
/// crossbar models, placed on a chip cluster — one chip until
/// [`shard`](Self::shard) re-cuts it.
///
/// Build from a *converted* [`SpikingNetwork`] with
/// [`compile_snn`]; the conversion's threshold balancing (v_th = 1)
/// carries over unchanged.
#[derive(Debug, Clone)]
pub struct AnalogSpikingNetwork {
    pub(crate) place: Deployment,
    pub(crate) encoding: InputEncoding,
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
    let stages =
        snn.stages()
            .iter()
            .map(|stage| match stage {
                // A fresh population: the compiled network starts at rest.
                SnnStage::IntegrateFire(p) => Ok(Stage::IntegrateFire(
                    IfPopulation::with_dynamics(p.threshold, p.reset, p.leak, p.refractory),
                )),
                // Spike drivers are binary: inputs need no scaling.
                SnnStage::Synaptic(layer) => Stage::program(layer, 1.0, config, Mode::Snn),
            })
            .collect::<Result<_, _>>()?;
    Ok(AnalogSpikingNetwork {
        place: Deployment::one_chip(stages, Mode::Snn)?,
        encoding: InputEncoding::Poisson,
    })
}

impl AnalogSpikingNetwork {
    /// Sets the input encoding (defaults to Poisson rate coding).
    pub fn set_encoding(&mut self, encoding: InputEncoding) {
        self.encoding = encoding;
    }

    /// Samples hard faults into every programmed super-tile, in stage
    /// then tile order (the draw sequence is reproducible for a fixed
    /// seed). Returns the total number of faulty cells. The event-driven
    /// engine must stay bit-identical to the sequential reference under
    /// any fault map — faults perturb conductances, not the active-set
    /// bookkeeping.
    pub fn inject_faults<R: Rng + ?Sized>(&mut self, model: &FaultModel, rng: &mut R) -> usize {
        self.place
            .tiles_mut()
            .map(|tile| tile.inject_faults(model, rng))
            .sum()
    }

    /// Advances every programmed crossbar's age by `dt`, driving
    /// retention-drift faults (see [`SuperTile::advance_age`]).
    pub fn advance_age(&mut self, dt: Seconds) {
        for tile in self.place.tiles_mut() {
            tile.advance_age(dt);
        }
    }

    /// Power-gates one atomic crossbar: `tile` counts super-tiles in
    /// stage-then-tile compile order (see
    /// [`supertile_count`](Self::supertile_count)), `ac` is the AC index
    /// within it.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] naming the index and its
    /// limit when `tile ≥ supertile_count()` or `ac ≥ 16`, before any
    /// crossbar changes.
    pub fn kill_ac(&mut self, tile: usize, ac: usize) -> Result<(), AnalogError> {
        let count = self.supertile_count();
        let reason = if tile >= count {
            format!("super-tile {tile} outside the {count} programmed tiles")
        } else if ac >= ACS_PER_SUPERTILE {
            format!("AC {ac} outside the {ACS_PER_SUPERTILE} ACs of a super-tile")
        } else {
            if let Some(t) = self.place.tiles_mut().nth(tile) {
                t.kill_ac(ac);
            }
            return Ok(());
        };
        Err(AnalogError::BadGeometry { reason })
    }

    /// Runs `timesteps` of circuit-backed spiking inference and returns
    /// the accumulated output potentials `[N, classes]`, encoding the
    /// input from `draws`.
    ///
    /// The call runs through the pipeline executor
    /// ([`crate::multichip`]), one timestep per item: the whole batch is
    /// encoded exactly once per timestep, at the pipeline head and in
    /// ascending timestep order, so the draws never depend on the
    /// placement. Every synaptic stage scatters the wave's spikes straight
    /// into the crossbar rows they drive (see DESIGN.md "Event-driven
    /// evaluation") instead of one dense `dot` per sample and output
    /// position, then accrues read energy in patch order. On one chip the
    /// scatter spans the worker pool; on a sharded network chip stage *k*
    /// advances timestep *t+1* while stage *k+1* advances timestep *t*.
    /// Outputs, draws, waves and read energy are bit-identical to
    /// [`oracle::run`](crate::oracle::run).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the input shape does not
    /// fit the network (see [`output_shape`](Self::output_shape)) or
    /// [`Draws::Groups`] does not partition its rows, and
    /// [`AnalogError::NonFiniteInput`] for a NaN or infinite input, all
    /// before any timestep runs; propagates circuit and tensor failures;
    /// inter-chip routing failures surface from the journal replay as
    /// [`AnalogError::Noc`].
    pub fn run(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        draws: Draws<'_>,
    ) -> Result<Tensor, AnalogError> {
        let mut draws = draws.bind(self.encoding, inputs)?;
        self.place
            .run(inputs, timesteps, move |x: &Tensor| draws.encode(x))
    }

    /// [`oracle::run`](crate::oracle::run) from one caller stream.
    #[deprecated(note = "use `oracle::run` with `Draws::Stream`; ROADMAP.md item 11 deletes this")]
    pub fn run_sequential<R: RngCore + Send>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<Tensor, AnalogError> {
        crate::oracle::run(self, inputs, timesteps, Draws::Stream(rng))
    }

    /// [`run`](Self::run) from per-group seeds.
    #[deprecated(note = "use `run` with `Draws::Groups`; ROADMAP.md item 11 deletes this")]
    pub fn run_seeded_groups(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        groups: &[(usize, u64)],
    ) -> Result<Tensor, AnalogError> {
        self.run(inputs, timesteps, Draws::Groups(groups))
    }

    /// Classification accuracy of the circuit-backed SNN, drawing from
    /// one caller stream.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the label count differs
    /// from the batch size, before any timestep runs or `rng` is drawn
    /// from; otherwise as [`run`](Self::run).
    pub fn accuracy<R: RngCore + Send>(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        timesteps: usize,
        rng: &mut R,
    ) -> Result<f64, AnalogError> {
        accuracy(inputs, labels, || {
            self.run(inputs, timesteps, Draws::Stream(rng))
        })
    }
}

/// Where an SNN run's random draws come from. Every timestep encodes
/// the whole batch elementwise in row-major order (Poisson draws once
/// per element; Constant draws nothing).
pub enum Draws<'a> {
    /// One caller stream for the whole batch.
    Stream(&'a mut (dyn RngCore + Send)),
    /// Seeded request groups partitioning the batch: `(rows, seed)`
    /// covers the next `rows` rows with the draws a solo run over them
    /// makes from `Stream(&mut StdRng::seed_from_u64(seed))`, so
    /// coalescing requests cannot change any tenant's answer.
    Groups(&'a [(usize, u64)]),
}

/// [`Draws`] checked against one batch: the per-timestep encoder.
pub(crate) enum BoundDraws<'a> {
    Stream(InputEncoding, &'a mut (dyn RngCore + Send)),
    Groups(InputEncoding, Vec<(usize, StdRng)>, usize),
}

impl<'a> Draws<'a> {
    /// Binds these draws to a batch of `inputs` under `encoding`, or
    /// returns [`AnalogError::BadGeometry`] when groups meet a rank-0
    /// input or do not cover exactly its rows.
    pub(crate) fn bind(
        self,
        encoding: InputEncoding,
        inputs: &Tensor,
    ) -> Result<BoundDraws<'a>, AnalogError> {
        let groups = match self {
            Draws::Stream(rng) => return Ok(BoundDraws::Stream(encoding, rng)),
            Draws::Groups(groups) => groups,
        };
        let bad = |reason: String| Err(AnalogError::BadGeometry { reason });
        let Some(&n) = inputs.shape().first() else {
            return bad("rank-0 input".into());
        };
        let total: usize = groups.iter().map(|&(rows, _)| rows).sum();
        if total != n {
            return bad(format!("seeded groups cover {total} rows, batch has {n}"));
        }
        let rngs = groups
            .iter()
            .map(|&(rows, seed)| (rows, StdRng::seed_from_u64(seed)));
        let row_elems = inputs.len().checked_div(n).unwrap_or(0);
        Ok(BoundDraws::Groups(encoding, rngs.collect(), row_elems))
    }
}

impl BoundDraws<'_> {
    /// Encodes one timestep of the bound batch `x`.
    pub(crate) fn encode(&mut self, x: &Tensor) -> Tensor {
        let mut t = Tensor::zeros(x.shape());
        match self {
            BoundDraws::Stream(encoding, rng) => {
                encode_into(*encoding, x.data(), t.data_mut(), &mut **rng)
            }
            BoundDraws::Groups(encoding, rngs, row_elems) => {
                let mut offset = 0usize;
                for (rows, rng) in rngs {
                    let span = offset * *row_elems..(offset + *rows) * *row_elems;
                    encode_into(
                        *encoding,
                        &x.data()[span.clone()],
                        &mut t.data_mut()[span],
                        rng,
                    );
                    offset += *rows;
                }
            }
        }
        t
    }
}

/// Encodes `src` into `dst` under `encoding`, drawing from `rng`
/// elementwise in order.
fn encode_into<R: Rng + ?Sized>(
    encoding: InputEncoding,
    src: &[f32],
    dst: &mut [f32],
    rng: &mut R,
) {
    for (d, &p) in dst.iter_mut().zip(src) {
        let p = p.clamp(0.0, 1.0);
        *d = match encoding {
            InputEncoding::Poisson => f32::from(u8::from(rng.gen::<f32>() < p)),
            InputEncoding::Constant => p,
        };
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
    use nebula_device::units::Joules;
    use nebula_nn::convert::{ann_to_snn, ConversionConfig};
    use nebula_nn::optim::{train, Dataset, TrainConfig};
    use nebula_nn::snn::ResetMode;
    use nebula_nn::{Layer as L, Network};
    use nebula_tensor::im2col;
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
    fn scatter_dense(
        matrix: &mut ProgrammedMatrix,
        items: &[&[usize]],
        workers: usize,
    ) -> Vec<f32> {
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
        matrix.scatter_spikes(&spikes, &geom, workers, &mut scratch, &mut out);
        out
    }

    #[test]
    fn scatter_dismisses_silent_items_without_energy() {
        let weight = Tensor::from_vec(
            (0..10 * 3).map(|i| (i % 5) as f32 / 4.0 - 0.4).collect(),
            &[10, 3],
        )
        .unwrap();
        let config = CrossbarConfig::paper_default(Mode::Snn);
        let mut auto = ProgrammedMatrix::program(&weight, 1.0, &config, Mode::Snn).unwrap();

        // A batch of only silent items must produce zero outputs and
        // touch no energy counter.
        let out = scatter_dense(&mut auto, &[&[], &[], &[]], nebula_tensor::pool::size());
        assert!(out.iter().all(|&v| v.to_bits() == 0));
        assert_eq!(
            auto.read_energy(),
            Joules::ZERO,
            "silent items must not accrue read energy"
        );

        // Mixed batch (silent / single-row / multi-row): bitwise equal to
        // the per-item reference at 1 and 3 workers, outputs and energy;
        // the silent item contributes nothing.
        let mut reference = ProgrammedMatrix::program(&weight, 1.0, &config, Mode::Snn).unwrap();
        let items: [&[usize]; 3] = [&[], &[4], &[0, 3, 9]];
        let expect: Vec<Vec<f32>> = items
            .iter()
            .map(|rows| {
                let mut spikes = vec![0.0f32; 10];
                for &r in *rows {
                    spikes[r] = 1.0;
                }
                reference.dot_reference(&spikes, Mode::Snn).unwrap()
            })
            .collect();
        let e_ref = reference.read_energy().0;
        assert!(e_ref > 0.0);
        for workers in [1, 3] {
            let mut a = ProgrammedMatrix::program(&weight, 1.0, &config, Mode::Snn).unwrap();
            let out = scatter_dense(&mut a, &items, workers);
            for (i, expect) in expect.iter().enumerate() {
                for (c, (&a, &s)) in out[i * 3..(i + 1) * 3].iter().zip(expect).enumerate() {
                    assert_eq!(a.to_bits(), s.to_bits(), "item {i} col {c}");
                }
            }
            // Energy accrues via per-row sums: the oracle's bits.
            let e = a.read_energy().0;
            assert_eq!(
                e.to_bits(),
                e_ref.to_bits(),
                "{workers} workers: {e} vs {e_ref}"
            );
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
            let mut reference =
                ProgrammedMatrix::program(&weight, 1.0, &config, Mode::Snn).unwrap();
            let mut energies = Vec::new();
            for workers in [1, 4] {
                let mut matrix =
                    ProgrammedMatrix::program(&weight, 1.0, &config, Mode::Snn).unwrap();
                let mut scratch = EventScratch::default();
                let mut out = vec![0.0f32; 5 * oc * spatial];
                let rf = matrix.rf;
                assert!(matrix.scatter_spikes(x.data(), &sg, workers, &mut scratch, &mut out));
                for p in 0..5 * spatial {
                    let row = &patches.data()[p * rf..(p + 1) * rf];
                    let expect = reference.dot_reference(row, Mode::Snn).unwrap();
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
        analog.run(&zeros, 20, Draws::Stream(&mut r)).unwrap();
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
        net.place
            .stages()
            .filter_map(|s| match s {
                Stage::Dense { scratch, .. } | Stage::Conv { scratch, .. } => Some(&scratch.blocks),
                _ => None,
            })
            .map(|blocks| {
                blocks
                    .iter()
                    .map(|b| {
                        [
                            b.drives.capacity(),
                            b.bins.capacity(),
                            b.binned.capacity(),
                            b.runs.capacity(),
                            b.currents.capacity(),
                        ]
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn kill_ac_rejects_out_of_range_indices_before_changing_anything() {
        let mut r = rng();
        let mut wounded = conv_snn(&mut r);
        let mut untouched = wounded.clone();
        let tiles = wounded.supertile_count();
        for (tile, ac, limit) in [
            (tiles, 0, tiles),
            (tiles + 7, 3, tiles),
            (0, ACS_PER_SUPERTILE, ACS_PER_SUPERTILE),
            (tiles - 1, usize::MAX, ACS_PER_SUPERTILE),
        ] {
            let bad = if tile >= tiles { tile } else { ac };
            match wounded.kill_ac(tile, ac) {
                Err(AnalogError::BadGeometry { reason }) => assert!(
                    reason.contains(&bad.to_string()) && reason.contains(&limit.to_string()),
                    "({tile}, {ac}): {reason}"
                ),
                other => panic!("({tile}, {ac}): {other:?}"),
            }
        }
        // Nothing changed: the same run on both gives the same bits.
        let x = Tensor::rand_uniform(&[2, 1, 8, 8], 0.0, 1.0, &mut r);
        let seeded = || rand::rngs::StdRng::seed_from_u64(3);
        let got = wounded.run(&x, 6, Draws::Stream(&mut seeded())).unwrap();
        let want = untouched.run(&x, 6, Draws::Stream(&mut seeded())).unwrap();
        for (a, b) in got.data().iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(wounded.waves(), untouched.waves());
        assert_eq!(
            wounded.read_energy().0.to_bits(),
            untouched.read_energy().0.to_bits()
        );
        assert!(wounded.kill_ac(tiles - 1, ACS_PER_SUPERTILE - 1).is_ok());
    }

    #[test]
    fn event_scratch_does_not_grow_across_timesteps() {
        // The per-stage scatter scratch is sized for the densest image on
        // its first call, so no later timestep allocates: after a single
        // timestep the capacities are final, and 25 more timesteps of
        // different activity leave them where they were.
        let mut r = rng();
        let mut analog = conv_snn(&mut r);
        let x = Tensor::rand_uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut r);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(41);
        analog.run(&x, 1, Draws::Stream(&mut r1)).unwrap();
        let caps = scratch_caps(&analog);
        // One scratch per synaptic stage (the conv and the dense), each
        // with one block per worker the 3-image batch can use.
        let blocks = nebula_tensor::pool::size().clamp(1, 3);
        assert_eq!(caps.len(), 2, "one scratch per synaptic stage");
        for stage in &caps {
            assert_eq!(stage.len(), blocks, "one block per worker");
            for block in stage {
                assert!(
                    block.iter().all(|&c| c > 0),
                    "the first timestep sizes every bin buffer: {block:?}"
                );
            }
        }
        let mut r2 = rand::rngs::StdRng::seed_from_u64(42);
        analog.run(&x, 25, Draws::Stream(&mut r2)).unwrap();
        let dense = Tensor::full(&[3, 1, 8, 8], 1.0);
        analog.run(&dense, 3, Draws::Stream(&mut r2)).unwrap();
        assert_eq!(
            scratch_caps(&analog),
            caps,
            "timesteps after the first must not grow the scatter scratch"
        );
        // Between calls every patch bin is back to empty.
        for stage in analog.place.stages() {
            if let Stage::Dense { scratch, .. } | Stage::Conv { scratch, .. } = stage {
                for b in &scratch.blocks {
                    assert!(b.bins.iter().all(|&n| n == 0));
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
        let yf = fast.run(&zeros, 12, Draws::Stream(&mut r)).unwrap();
        let ys = crate::oracle::run(&mut slow, &zeros, 12, Draws::Stream(&mut r)).unwrap();
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
        // whose spikes then drive the later crossbars for real. The
        // energy comparison is bitwise too.
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
        let mut slow = fast.clone();
        fast.set_encoding(InputEncoding::Constant);
        slow.set_encoding(InputEncoding::Constant);
        let zeros = Tensor::zeros(&[3, 2]);
        let yf = fast.run(&zeros, 30, Draws::Stream(&mut r)).unwrap();
        let ys = crate::oracle::run(&mut slow, &zeros, 30, Draws::Stream(&mut r)).unwrap();
        for (a, b) in yf.data().iter().zip(ys.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            fast.read_energy().0.to_bits(),
            slow.read_energy().0.to_bits()
        );
        assert!(
            fast.read_energy() > Joules::ZERO,
            "bias-driven downstream spikes should reach the crossbars"
        );
    }

    #[test]
    fn busier_inputs_cost_more_energy() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut quiet = compile_snn_default(&functional).unwrap();
        let mut busy = compile_snn_default(&functional).unwrap();
        quiet
            .run(&Tensor::full(&[4, 2], 0.05), 30, Draws::Stream(&mut r))
            .unwrap();
        busy.run(&Tensor::full(&[4, 2], 0.9), 30, Draws::Stream(&mut r))
            .unwrap();
        assert!(
            busy.read_energy() > quiet.read_energy() * 2.0,
            "event-driven scaling broken: {} vs {}",
            busy.read_energy(),
            quiet.read_energy()
        );
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
        let y = batched.run(&x, 60, Draws::Groups(&groups)).unwrap();
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
            let yg = crate::oracle::run(&mut solo, &xg, 60, Draws::Stream(&mut rg)).unwrap();
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
        let y = analog.run(&x, 0, Draws::Stream(&mut r)).unwrap();
        assert_eq!(
            y.shape(),
            [5, 2],
            "zero-timestep output keeps the batch shape"
        );
        assert!(y.data().iter().all(|&v| v == 0.0));
        assert_eq!(analog.read_energy(), Joules::ZERO);
        assert_eq!(analog.waves(), 0);
        let mut seq = compile_snn_default(&functional).unwrap();
        let ys = crate::oracle::run(&mut seq, &x, 0, Draws::Stream(&mut r)).unwrap();
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
