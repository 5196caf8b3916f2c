//! Bit pins for the single-chip analog engines.
//!
//! The equivalence suites compare a fast leg against the sequential
//! oracle inside one build, so a change that shifted both alike would
//! pass them. These pins hard-code what a small ANN (conv, ReLU,
//! activation quantizer, average pool, dense) and a small SNN (conv,
//! IF, average pool, dense, IF; Poisson and Constant encoding) produce
//! on both kernel paths through every single-chip entry point: a digest
//! of the output bits, the wave count, the read energy bits and (ANN)
//! the programming energy bits.

use nebula_core::analog::{compile_ann, AnalogNetwork};
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula_crossbar::KernelPath;
use nebula_nn::layer::Layer;
use nebula_nn::network::Network;
use nebula_nn::snn::{IfPopulation, InputEncoding, ResetMode, SnnStage, SpikingNetwork};
use nebula_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One pinned leg: `(leg, output digest, waves, read energy bits,
/// program energy bits)`; the SNN legs pin no programming energy (0).
type Pin = (&'static str, u64, u64, u64, u64);

/// FNV-1a over the output's shape and value bits.
fn digest(t: &Tensor) -> u64 {
    let words = t
        .shape()
        .iter()
        .map(|&d| d as u64)
        .chain(t.data().iter().map(|v| u64::from(v.to_bits())));
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn ann() -> AnalogNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(1901);
    compile_ann(&Network::new(vec![
        Layer::conv2d(2, 3, 3, 1, 1, &mut r),
        Layer::relu(),
        Layer::activation_quant(1.5, 16),
        Layer::avg_pool(2),
        Layer::flatten(),
        Layer::dense(3 * 4 * 4, 5, &mut r),
    ]))
    .unwrap()
}

fn snn() -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(1902);
    compile_snn_default(&SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::conv2d(2, 3, 3, 1, 1, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.4, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::avg_pool(2)),
            SnnStage::Synaptic(Layer::flatten()),
            SnnStage::Synaptic(Layer::dense(3 * 4 * 4, 4, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.3, ResetMode::Zero)),
        ],
        InputEncoding::Poisson,
    ))
    .unwrap()
}

fn input() -> Tensor {
    Tensor::rand_uniform(
        &[3, 2, 8, 8],
        0.0,
        1.0,
        &mut ChaCha8Rng::seed_from_u64(1903),
    )
}

fn path_name(path: KernelPath) -> &'static str {
    match path {
        KernelPath::Scalar => "scalar",
        _ => "auto",
    }
}

/// A measured leg, labelled as its pin is.
type Leg = (String, u64, u64, u64, u64);

/// Compares `got` with `want`, printing the whole measured table as
/// Rust source on a mismatch.
fn assert_pins(table: &str, want: &[Pin], got: &[Leg]) {
    let same = want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(w, (leg, d, n, e, p))| *w == (leg.as_str(), *d, *n, *e, *p));
    if !same {
        let rows: String = got
            .iter()
            .map(|(leg, d, w, e, p)| {
                format!("    (\"{leg}\", {d:#018x}, {w}, {e:#018x}, {p:#018x}),\n")
            })
            .collect();
        panic!("{table} pins moved; measured:\n{rows}");
    }
}

#[rustfmt::skip]
const ANN_PINS: [Pin; 4] = [
    ("auto forward", 0xb12b1983ca64a2b3, 195, 0x3de575aa60ccac90, 0x3dc1c7734bac0093),
    ("auto forward_sequential", 0xb12b1983ca64a2b3, 195, 0x3de575aa60ccac91, 0x3dc1c7734bac0093),
    ("scalar forward", 0xb12b1983ca64a2b3, 195, 0x3de575aa60ccac91, 0x3dc1c7734bac0093),
    ("scalar forward_sequential", 0xb12b1983ca64a2b3, 195, 0x3de575aa60ccac91, 0x3dc1c7734bac0093),
];

#[rustfmt::skip]
const SNN_PINS: [Pin; 12] = [
    ("poisson auto run", 0x372b973d7cd8313b, 1170, 0x3ddb884b02403219, 0),
    ("poisson auto run_sequential", 0x372b973d7cd8313b, 1170, 0x3ddb884b02403218, 0),
    ("poisson auto run_seeded_groups", 0xd0bf8c4e0923fb3b, 1170, 0x3ddc5f90454be709, 0),
    ("poisson scalar run", 0x372b973d7cd8313b, 1170, 0x3ddb884b02403218, 0),
    ("poisson scalar run_sequential", 0x372b973d7cd8313b, 1170, 0x3ddb884b02403218, 0),
    ("poisson scalar run_seeded_groups", 0xd0bf8c4e0923fb3b, 1170, 0x3ddc5f90454be708, 0),
    ("constant auto run", 0x4a58c4a67d39bd62, 1170, 0x3ddc2791a27fb5bf, 0),
    ("constant auto run_sequential", 0x4a58c4a67d39bd62, 1170, 0x3ddc2791a27fb5bf, 0),
    ("constant auto run_seeded_groups", 0x4a58c4a67d39bd62, 1170, 0x3ddc2791a27fb5bf, 0),
    ("constant scalar run", 0x4a58c4a67d39bd62, 1170, 0x3ddc2791a27fb5bf, 0),
    ("constant scalar run_sequential", 0x4a58c4a67d39bd62, 1170, 0x3ddc2791a27fb5bf, 0),
    ("constant scalar run_seeded_groups", 0x4a58c4a67d39bd62, 1170, 0x3ddc2791a27fb5bf, 0),
];

#[test]
fn ann_outputs_waves_and_energy_are_pinned() {
    let (master, x) = (ann(), input());
    let mut got = Vec::new();
    for path in [KernelPath::Auto, KernelPath::Scalar] {
        for entry in ["forward", "forward_sequential"] {
            let mut net = master.clone();
            net.set_kernel_path(path);
            let y = match entry {
                "forward" => net.forward(&x),
                _ => net.forward_sequential(&x),
            }
            .unwrap();
            got.push((
                format!("{} {entry}", path_name(path)),
                digest(&y),
                net.waves(),
                net.read_energy().0.to_bits(),
                net.program_energy().0.to_bits(),
            ));
        }
    }
    assert_pins("ANN", &ANN_PINS, &got);
}

#[test]
fn snn_outputs_waves_and_energy_are_pinned() {
    let (master, x) = (snn(), input());
    let mut got = Vec::new();
    for (encoding, enc) in [
        (InputEncoding::Poisson, "poisson"),
        (InputEncoding::Constant, "constant"),
    ] {
        for path in [KernelPath::Auto, KernelPath::Scalar] {
            for entry in ["run", "run_sequential", "run_seeded_groups"] {
                let mut net = master.clone();
                net.set_encoding(encoding);
                net.set_kernel_path(path);
                let mut rng = ChaCha8Rng::seed_from_u64(1904);
                let y = match entry {
                    "run" => net.run(&x, 6, &mut rng),
                    "run_sequential" => net.run_sequential(&x, 6, &mut rng),
                    _ => net.run_seeded_groups(&x, 6, &[(2, 7), (1, 9)]),
                }
                .unwrap();
                got.push((
                    format!("{enc} {} {entry}", path_name(path)),
                    digest(&y),
                    net.waves(),
                    net.read_energy().0.to_bits(),
                    0,
                ));
            }
        }
    }
    assert_pins("SNN", &SNN_PINS, &got);
}
