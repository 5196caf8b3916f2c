//! Set-up shared by the workloads: the trained, quantized scaled VGG/10,
//! its SNN conversion, compiled chips with warm conductance caches, and
//! the repeated, timed set-up loop that gives `setup_s`.
//!
//! The model is the same for every seed: its training data and
//! initialisation use fixed seeds. The workload seed only chooses the
//! inputs the timed phase evaluates.

use crate::trace::{SpanId, Tracer};
use nebula_core::analog::{compile_ann, AnalogNetwork};
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula_crossbar::KernelPath;
use nebula_nn::convert::{ann_to_snn, ConversionConfig};
use nebula_nn::optim::{train, Dataset, TrainConfig};
use nebula_nn::quant::{quantize_network, QuantConfig};
use nebula_nn::Network;
use nebula_workloads::scaled::scaled_vgg;
use nebula_workloads::synthetic::{generate, SyntheticConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Image side of the scaled VGG/10 inputs.
pub const SIDE: usize = 16;
/// Classes of the texture task.
pub const CLASSES: usize = 10;
/// Training images. Training is the noisiest part of set-up, so it is
/// kept small.
pub const TRAIN_SAMPLES: usize = 160;
/// Training epochs.
pub const TRAIN_EPOCHS: usize = 4;
/// Calibration images for quantization and conversion.
pub const CALIB_SAMPLES: usize = 64;
/// Times each run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// SNN integration window (the paper's VGG operating point).
pub const TIMESTEPS: usize = 150;
/// Seed of the training data and of the weight initialisation.
const MODEL_SEED: u64 = 0xBE9C;

/// The trained, 4-bit quantized network and its calibration data.
pub struct Model {
    /// Quantized VGG/10, ready to compile as an ANN or convert to an SNN.
    pub quantized: Network,
    /// Calibration images.
    pub calib: Dataset,
}

/// Generates the training data, trains and quantizes the model.
pub fn model(tr: &mut Tracer, parent: Option<SpanId>) -> Model {
    let (data, _) = tr.time("workloads.generate", parent, || {
        generate(&SyntheticConfig::textures(SIDE, CLASSES, TRAIN_SAMPLES).with_seed(MODEL_SEED))
            .expect("training data")
    });
    let mut rng = ChaCha8Rng::seed_from_u64(MODEL_SEED);
    let mut net = scaled_vgg(SIDE, CLASSES, &mut rng);
    let cfg = TrainConfig::builder()
        .epochs(TRAIN_EPOCHS)
        .batch_size(32)
        .learning_rate(0.02)
        .lr_decay(0.95)
        .build();
    tr.time("nn.train", parent, || {
        train(&mut net, &data, &cfg, &mut rng).expect("training")
    });
    let calib = data.take(CALIB_SAMPLES);
    let (quantized, _) = tr.time("nn.quantize", parent, || {
        quantize_network(&net, &calib, &QuantConfig::default()).expect("quantization")
    });
    Model { quantized, calib }
}

/// Seeded texture images `[n, 3, SIDE, SIDE]` for the timed phase.
pub fn texture_inputs(tr: &mut Tracer, parent: Option<SpanId>, n: usize, seed: u64) -> Dataset {
    tr.time("workloads.generate", parent, || {
        generate(&SyntheticConfig::textures(SIDE, CLASSES, n).with_seed(seed)).expect("inputs")
    })
    .0
}

/// A compiled chip with its conductance caches built.
pub struct Chip<N> {
    /// The programmed network.
    pub net: N,
    /// Bytes of conductance cache the Auto kernel path holds.
    pub cache_bytes: usize,
}

/// Compiles the ANN onto crossbars, selects the Auto kernel path and
/// builds its caches, as the first call would.
pub fn ann_chip(tr: &mut Tracer, parent: Option<SpanId>, model: &Model) -> Chip<AnalogNetwork> {
    let (mut net, _) = tr.time("analog.compile", parent, || {
        compile_ann(&model.quantized).expect("ANN compile")
    });
    net.set_kernel_path(KernelPath::Auto);
    let (cache_bytes, _) = tr.time("crossbar.cache_build", parent, || {
        net.conductance_cache_bytes()
    });
    Chip { net, cache_bytes }
}

/// Converts the quantized ANN to an SNN and compiles it like
/// [`ann_chip`].
pub fn snn_chip(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    model: &Model,
) -> Chip<AnalogSpikingNetwork> {
    let (snn, _) = tr.time("nn.convert", parent, || {
        ann_to_snn(&model.quantized, &model.calib, &ConversionConfig::default())
            .expect("conversion")
    });
    let (mut net, _) = tr.time("analog_snn.compile", parent, || {
        compile_snn_default(&snn).expect("SNN compile")
    });
    net.set_kernel_path(KernelPath::Auto);
    let (cache_bytes, _) = tr.time("crossbar.cache_build", parent, || {
        net.conductance_cache_bytes()
    });
    Chip { net, cache_bytes }
}

/// Runs `build` [`SETUP_REPEATS`] times, each under a `setup` span,
/// dropping the previous state before the next build. Returns the last
/// state and each repeat's seconds; the first repeat counts from
/// `process_start`.
pub fn repeated<S>(
    tr: &mut Tracer,
    process_start: Instant,
    mut build: impl FnMut(&mut Tracer, Option<SpanId>) -> S,
) -> (S, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        drop(state.take());
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let root = tr.open("setup", None);
        state = Some(build(tr, root));
        tr.close(root);
        seconds.push(start.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), seconds)
}

/// Exact fraction of non-zero input pixels.
pub fn density(inputs: &nebula_tensor::Tensor) -> f64 {
    let active = inputs.data().iter().filter(|&&v| v != 0.0).count();
    active as f64 / inputs.len().max(1) as f64
}

/// Rows `[start, start + n)` of a batch tensor as their own tensor.
pub fn rows(x: &nebula_tensor::Tensor, start: usize, n: usize) -> nebula_tensor::Tensor {
    let per: usize = x.shape()[1..].iter().product();
    let mut shape = x.shape().to_vec();
    shape[0] = n;
    nebula_tensor::Tensor::from_vec(x.data()[start * per..(start + n) * per].to_vec(), &shape)
        .expect("row slice")
}
