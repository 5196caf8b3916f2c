//! The bitwise contract, proven once against one oracle.
//!
//! The one call per mode — [`AnalogNetwork::forward`] and
//! [`AnalogSpikingNetwork::run`], from one caller stream or per-group
//! seeds — runs through the pipeline executor on whatever placement the
//! network has, and skips work the oracle does not: silent rows, items,
//! AC accruals, layers and timesteps. The oracles ([`oracle::forward`],
//! [`oracle::run`]) walk the same units in order on the calling thread
//! through the per-cell evaluator. One property draws a mode, a net
//! family, a placement, a pipeline schedule, an input and (for an SNN)
//! an encoding, its draws and a wound, and asserts against the oracle
//! *on the same placement*: output bits, waves and read energy bits
//! exactly, traffic equal to the one-claimant whole-batch schedule's,
//! and no ring traffic from the oracle, whose bits, waves and energy are
//! the one-chip oracle's (a placement changes where stages run, never
//! what they compute). Seeded groups also keep the serving promise: a
//! coalesced batch's outputs are each group's solo oracle run. A
//! deterministic sweep runs every (mode × strategy × chips) cell on
//! every run. The remaining tests are the edges and pins: zero-size
//! edges, capacity-1 backpressure, dead links, misshaped inputs, two
//! column groups, a two-segment conv on every split, the
//! layer-pipelined link-transfer closed form, the energy fold and the
//! tensor-sharded traffic pins.

use nebula_core::analog::{compile_ann, AnalogError, AnalogNetwork};
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork, Draws};
use nebula_core::components::{M, MAX_RF_IN_CORE};
use nebula_core::multichip::{PipelineConfig, ShardStrategy};
use nebula_core::oracle;
use nebula_device::units::Seconds;
use nebula_device::{FaultClass, FaultModel};
use nebula_nn::layer::Layer;
use nebula_nn::network::Network;
use nebula_nn::snn::{IfPopulation, InputEncoding, ResetMode, SnnStage, SpikingNetwork};
use nebula_noc::{ChipCluster, TrafficStats};
use nebula_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const STRATEGIES: [ShardStrategy; 2] =
    [ShardStrategy::LayerPipelined, ShardStrategy::TensorSharded];

const CHIP_COUNTS: [usize; 3] = [1, 2, 4];

/// Micro-batch depths: degenerate (1), tiny, odd (7, so the last
/// micro-batch is ragged) and larger than any test batch (64).
const DEPTHS: [usize; 4] = [1, 2, 7, 64];

/// Pipeline claimants: one (sequential), and more than one.
const CLAIMANTS: [usize; 3] = [1, 2, 4];

/// A compiled network of either mode.
#[derive(Debug, Clone)]
enum Net {
    Ann(AnalogNetwork),
    Snn(AnalogSpikingNetwork),
}

/// Evaluates `$body` with `$n` bound to the network inside `$net`.
macro_rules! each {
    ($net:expr, $n:ident => $body:expr) => {
        match $net {
            Net::Ann($n) => $body,
            Net::Snn($n) => $body,
        }
    };
}

/// The entry point a case calls, fast and oracle alike.
#[derive(Debug, Clone)]
enum Call {
    /// ANN `forward`.
    Forward,
    /// SNN `run` from one ChaCha8 stream seeded `seed`.
    Run { timesteps: usize, seed: u64 },
    /// SNN `run` from per-group seeds.
    Groups {
        timesteps: usize,
        groups: Vec<(usize, u64)>,
    },
}

/// Places a network on `chips` chips under `strategy`.
fn at(strategy: ShardStrategy, chips: usize) -> impl Fn(Net) -> Net {
    move |net| match net {
        Net::Ann(n) => Net::Ann(n.shard(chips, strategy).unwrap()),
        Net::Snn(n) => Net::Snn(n.shard(chips, strategy).unwrap()),
    }
}

fn run(timesteps: usize, seed: u64) -> Call {
    Call::Run { timesteps, seed }
}

fn seeded(timesteps: usize, groups: &[(usize, u64)]) -> Call {
    let groups = groups.to_vec();
    Call::Groups { timesteps, groups }
}

impl Net {
    /// `Strategy/chips` of the current placement.
    fn placement(&self) -> String {
        each!(self, n => format!("{:?}/{}", n.strategy(), n.chips()))
    }

    fn set_pipeline(&mut self, cfg: PipelineConfig) {
        each!(self, n => n.set_pipeline(cfg))
    }

    fn cluster_mut(&mut self) -> &mut ChipCluster {
        each!(self, n => n.cluster_mut())
    }

    fn output_shape(&self, shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        each!(self, n => n.output_shape(shape))
    }

    fn waves(&self) -> u64 {
        each!(self, n => n.waves())
    }

    fn energy(&self) -> f64 {
        each!(self, n => n.read_energy().0)
    }

    fn traffic(&self) -> TrafficStats {
        each!(self, n => n.traffic())
    }

    /// `call` on `x` through the oracle or through the fast path.
    fn call(&mut self, x: &Tensor, call: &Call, oracle: bool) -> Result<Tensor, AnalogError> {
        let mut stream;
        let (timesteps, draws) = match call {
            Call::Forward => {
                let Net::Ann(n) = self else {
                    unreachable!("{call:?} on {self:?}")
                };
                return if oracle {
                    oracle::forward(n, x)
                } else {
                    n.forward(x)
                };
            }
            &Call::Run { timesteps, seed } => {
                stream = ChaCha8Rng::seed_from_u64(seed);
                (timesteps, Draws::Stream(&mut stream))
            }
            Call::Groups { timesteps, groups } => (*timesteps, Draws::Groups(groups)),
        };
        let Net::Snn(n) = self else {
            unreachable!("{call:?} on {self:?}")
        };
        if oracle {
            oracle::run(n, x, timesteps, draws)
        } else {
            n.run(x, timesteps, draws)
        }
    }
}

/// A dense stack over `widths`: an ANN with ReLU between the layers, or
/// an SNN whose layers each feed an IF population (threshold 0.7;
/// subtractive reset, the last one reset to zero). A first width over
/// `MAX_RF_IN_CORE` spans several `16M`-row segments.
fn stack_net(snn: bool, widths: &[usize], seed: u64) -> Net {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let last = widths.len() - 2;
    let layers = widths.windows(2).map(|w| Layer::dense(w[0], w[1], &mut r));
    if snn {
        let mut stages = Vec::new();
        for (i, layer) in layers.enumerate() {
            let reset = if i == last {
                ResetMode::Zero
            } else {
                ResetMode::Subtract
            };
            stages.push(SnnStage::Synaptic(layer));
            stages.push(SnnStage::IntegrateFire(IfPopulation::new(0.7, reset)));
        }
        let snn = SpikingNetwork::new(stages, InputEncoding::Poisson);
        Net::Snn(compile_snn_default(&snn).unwrap())
    } else {
        let mut net = Vec::new();
        for (i, layer) in layers.enumerate() {
            if i > 0 {
                net.push(Layer::relu());
            }
            net.push(layer);
        }
        Net::Ann(compile_ann(&Network::new(net)).unwrap())
    }
}

/// One convolution's geometry over `side×side` frames of `c` channels.
#[derive(Debug, Clone, Copy)]
struct Conv {
    c: usize,
    oc: usize,
    k: usize,
    stride: usize,
    pad: usize,
    side: usize,
}

fn conv(c: usize, oc: usize, k: usize, stride: usize, pad: usize, side: usize) -> Conv {
    Conv {
        c,
        oc,
        k,
        stride,
        pad,
        side,
    }
}

impl Conv {
    fn out_side(&self) -> usize {
        (self.side + 2 * self.pad - self.k) / self.stride + 1
    }
}

/// Compiles `layers` in either mode: in an SNN every ReLU becomes an IF
/// population (threshold 0.6, subtractive reset) and a quantizer is
/// dropped; `fire` appends one more population after the last layer.
fn compile(snn: bool, layers: Vec<Layer>, fire: bool) -> Net {
    if !snn {
        return Net::Ann(compile_ann(&Network::new(layers)).unwrap());
    }
    let spiking = || SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract));
    let mut stages: Vec<SnnStage> = layers
        .into_iter()
        .filter(|l| !matches!(l, Layer::ActivationQuant(_)))
        .map(|l| match l {
            Layer::Relu(_) => spiking(),
            l => SnnStage::Synaptic(l),
        })
        .collect();
    if fire {
        stages.push(spiking());
    }
    let snn = SpikingNetwork::new(stages, InputEncoding::Poisson);
    Net::Snn(compile_snn_default(&snn).unwrap())
}

/// One convolution; with a `tail` of `out` classes it is followed by a
/// ReLU (IF), a flatten and a dense layer (then IF) — so a pipeline has
/// two synaptic stages to split. Without one, every bit of the
/// convolution's output reaches the comparison.
fn conv_net(snn: bool, g: Conv, tail: Option<usize>, seed: u64) -> Net {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let mut layers = vec![Layer::conv2d(g.c, g.oc, g.k, g.stride, g.pad, &mut r)];
    if let Some(out) = tail {
        let features = g.oc * g.out_side() * g.out_side();
        layers.extend([
            Layer::relu(),
            Layer::flatten(),
            Layer::dense(features, out, &mut r),
        ]);
    }
    compile(snn, layers, tail.is_some())
}

/// conv (3×3, pad 1) → ReLU (IF) → [quantizer to `amax` on 16 levels,
/// ANN only] → avg-pool(`pool`) → flatten → dense (→ IF).
fn pooled_net(snn: bool, g: Conv, pool: usize, amax: f32, out: usize, seed: u64) -> Net {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let pooled = g.side / pool.max(1);
    let layers = vec![
        Layer::conv2d(g.c, g.oc, 3, 1, 1, &mut r),
        Layer::relu(),
        Layer::activation_quant(amax, 16),
        Layer::avg_pool(pool),
        Layer::flatten(),
        Layer::dense(g.oc * pooled * pooled, out, &mut r),
    ];
    compile(snn, layers, true)
}

/// Tiles `pattern` over `shape`. A `(kind, v, keep)` entry is `0.0`
/// unless `keep` clears the density `density_step / 4` (0 fully silent,
/// 4 fully dense). With `edges`, the ANN drive's edge cases replace `v`
/// by `kind`: ±0, a negative (a zero drive) or a value above the drive
/// scale (a full drive).
fn input(shape: &[usize], pattern: &[(u8, f32, f64)], density_step: usize, edges: bool) -> Tensor {
    let density = density_step as f64 / 4.0;
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|i| match pattern[i % pattern.len()] {
            (_, _, keep) if keep >= density => 0.0,
            (0, ..) if edges => 0.0,
            (1, ..) if edges => -0.0,
            (2, v, _) if edges => -v,
            (3, v, _) if edges => 2.0 + v,
            (_, v, _) => v,
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

fn random(shape: &[usize], seed: u64) -> Tensor {
    Tensor::rand_uniform(shape, 0.0, 1.0, &mut ChaCha8Rng::seed_from_u64(seed))
}

/// Hard faults sampled from `model` (seeded by `seed`), `age_s` of
/// retention aging and AC `ac` of super-tile `tile` (modulo the tile
/// count, so any layer, segment or column group) power-gated:
/// conductances change, the active-set bookkeeping must not.
fn wound(
    net: &mut AnalogSpikingNetwork,
    model: &FaultModel,
    age_s: f64,
    (tile, ac): (usize, usize),
    seed: u64,
) {
    net.inject_faults(model, &mut ChaCha8Rng::seed_from_u64(seed ^ 0xFA17));
    net.advance_age(Seconds(age_s));
    net.kill_ac(tile % net.supertile_count(), ac).unwrap();
}

/// The fully sequential schedule: one claimant, the whole batch as one
/// item. Its traffic is the reference every other schedule must match.
fn whole_batch() -> PipelineConfig {
    config(usize::MAX, 1, 2)
}

fn config(micro_batch: usize, workers: usize, queue_capacity: usize) -> PipelineConfig {
    PipelineConfig {
        micro_batch,
        workers,
        queue_capacity,
    }
}

fn assert_bits(tag: &str, want: &Tensor, got: &Tensor) {
    assert_eq!(want.shape(), got.shape(), "{tag} shape");
    for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{tag} element {i}: {a} vs {b}");
    }
}

/// Each group's solo oracle run on its own rows, drawing from its own
/// seeded stream, concatenated in group order — what the serving layer
/// promises every tenant of a coalesced batch.
fn solo_groups(master: &Net, x: &Tensor, timesteps: usize, groups: &[(usize, u64)]) -> Tensor {
    let Net::Snn(net) = master else {
        unreachable!("groups on an ANN")
    };
    let row = x.len().checked_div(x.shape()[0]).unwrap_or(0);
    let (mut lo, mut out) = (0, Vec::new());
    for &(rows, seed) in groups {
        let mut shape = x.shape().to_vec();
        shape[0] = rows;
        let xg = Tensor::from_vec(x.data()[lo * row..(lo + rows) * row].to_vec(), &shape).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let y = oracle::run(&mut net.clone(), &xg, timesteps, Draws::Stream(&mut rng)).unwrap();
        out.extend_from_slice(y.data());
        lo += rows;
    }
    let shape = master.output_shape(x.shape()).unwrap();
    Tensor::from_vec(out, &shape).unwrap()
}

/// The one contract: `call` on the one-chip `master` placed by `place`,
/// first through the oracle, then through the executor under the
/// whole-batch schedule and under `cfg`. Both fast legs must give the
/// oracle's output bits, waves and read energy bits. The oracle moves no
/// ring traffic and does not see the placement: its bits, waves and
/// energy bits are the one-chip oracle's. Seeded groups' outputs are
/// also each group's solo oracle run. Both schedules move the same
/// traffic, which is returned.
fn check(
    master: &Net,
    place: &dyn Fn(Net) -> Net,
    cfg: &PipelineConfig,
    x: &Tensor,
    call: &Call,
) -> TrafficStats {
    let mut oracle = place(master.clone());
    let (placement, shape) = (oracle.placement(), x.shape());
    let tag = format!("{placement} input {shape:?} {cfg:?} {call:?}");
    let want = oracle.call(x, call, true).unwrap();
    assert_eq!(oracle.traffic(), TrafficStats::default(), "{tag}: oracle");
    let mut one_chip = master.clone();
    assert_bits(&tag, &one_chip.call(x, call, true).unwrap(), &want);
    assert_eq!(one_chip.waves(), oracle.waves(), "{tag}: one-chip waves");
    let energy_bits = one_chip.energy().to_bits();
    assert_eq!(
        energy_bits,
        oracle.energy().to_bits(),
        "{tag}: one-chip energy"
    );
    if let Call::Groups { timesteps, groups } = call {
        let solo = solo_groups(master, x, *timesteps, groups);
        assert_bits(&format!("{tag}: solo groups"), &solo, &want);
    }
    let mut traffic = Vec::new();
    for cfg in [whole_batch(), cfg.clone()] {
        let mut fast = place(master.clone());
        fast.set_pipeline(cfg);
        let got = fast.call(x, call, false).unwrap();
        assert_bits(&tag, &want, &got);
        assert_eq!(fast.waves(), oracle.waves(), "{tag} waves");
        let (e_want, e_got) = (oracle.energy(), fast.energy());
        assert_eq!(e_want.to_bits(), e_got.to_bits(), "{tag} energy");
        traffic.push(fast.traffic());
    }
    assert_eq!(traffic[0], traffic[1], "{tag} traffic");
    traffic[0]
}

proptest! {
    /// Plan against oracle. Each case draws a mode; a net family — a
    /// dense stack whose first layer spans one to three segments, a
    /// convolution (stride {1, 2}, pad {0, 1, 2}, kernel {1, 3, 5}, a
    /// receptive field over 1–3 ACs of the first or the second segment,
    /// or outputs over two column groups, with or without a dense
    /// tail), or a pooled conv net (quantized in ANN mode) whose dense
    /// layer may span two segments; a placement (1, 2 or 4 chips under
    /// either strategy, or compute-balanced for an SNN — a dense stack
    /// also runs on every other placement); a schedule (depth,
    /// claimants, queue capacity); and an input from
    /// fully silent to fully dense, with the drive's edge values for an
    /// ANN. An SNN also draws its encoding, its draws (one stream, or
    /// seeded groups over a drawn partition) and optionally
    /// faults, aging and a killed AC on any super-tile.
    #[test]
    fn plan_matches_oracle_bitwise(
        (snn, family, segments, tail) in (0u8..2, 0usize..3, 1usize..4, 0u8..2),
        (width, hidden, out, samples) in (2usize..40, 2usize..8, 2usize..5, 1usize..9),
        (stride, pad, k_step, acs, extra_ch) in
            (1usize..3, 0usize..3, 0usize..3, 1usize..4, 0usize..3),
        (oc, side, two_groups, amax) in (1usize..5, 1usize..8, 0u8..4, 0.3f32..3.0),
        (strategy, chips, balanced) in (0usize..2, 0usize..3, 0u8..2),
        (depth, claimants, queue_capacity) in (0usize..4, 0usize..3, 1usize..4),
        pattern in proptest::collection::vec((0u8..6, 0.0f32..1.0, 0.0f64..1.0), 16..64),
        (density_step, constant, grouped, cuts, timesteps) in
            (0usize..5, 0u8..2, 0u8..2, 0u8..8, 1usize..6),
        (wounded, fault_kind, fault_rate, age_s) in
            (0u8..2, 0usize..5, 0.0f64..0.2, 0.0f64..1e7),
        // Half the kills hit AC 0, which every programmed tile's rows
        // reach; the rest any of the 16.
        (killed_tile, killed_ac) in
            (0usize..64, (0usize..32).prop_map(|a| a.saturating_sub(16))),
        seed in 0u64..1_000,
    ) {
        let snn = snn == 1;
        let samples = if snn { 1 + (samples - 1) % 3 } else { samples };
        let (master, shape) = match family {
            0 => {
                let width = (segments - 1) * MAX_RF_IN_CORE + width;
                let net = stack_net(snn, &[width, hidden, out], seed);
                (net, vec![samples, width])
            }
            1 => {
                let k = [1, 3, 5][k_step];
                // 130 outputs over two column groups, or a receptive
                // field over 1–3 ACs — of the second segment when
                // `segments > 1`, so the convolution itself splits.
                let (acs, oc, side) = match two_groups {
                    0 => (1, M + 2, side.min(4)),
                    _ if segments > 1 => (MAX_RF_IN_CORE / M + acs, oc, side.min(4)),
                    _ => (acs, oc, side),
                };
                // The fewest channels whose receptive field needs `acs`
                // ACs, plus a few, and a frame that fits one patch.
                let c = ((acs - 1) * M / (k * k) + 1 + extra_ch).min(acs * M / (k * k));
                prop_assert_eq!((c * k * k).div_ceil(M), acs);
                let side = side.max(k.saturating_sub(2 * pad));
                let tail = (tail == 1).then_some(out);
                let net = conv_net(snn, conv(c, oc, k, stride, pad, side), tail, seed);
                (net, vec![samples.min(2), c, side, side])
            }
            _ => {
                // 60 channels pooled to 6×6 feed a 2160-row dense layer.
                let (oc, side) = if segments > 1 { (60, 12) } else { (oc, 2 * side.div_ceil(2)) };
                let g = conv(1 + extra_ch, oc, 3, 1, 1, side);
                let net = pooled_net(snn, g, 2, amax, out, seed);
                (net, vec![samples.min(4), g.c, side, side])
            }
        };
        let x = input(&shape, &pattern, density_step, !snn);
        let (master, call) = match master {
            Net::Ann(net) => (Net::Ann(net), Call::Forward),
            Net::Snn(mut net) => {
                if constant == 1 {
                    net.set_encoding(InputEncoding::Constant);
                }
                if wounded == 1 {
                    let model = FaultModel::single(FaultClass::ALL[fault_kind], fault_rate);
                    wound(&mut net, &model, age_s, (killed_tile, killed_ac), seed);
                }
                let call = if grouped == 1 {
                    // A new group starts at row `i` when bit `i − 1` of
                    // `cuts` is set.
                    let mut groups: Vec<(usize, u64)> = Vec::new();
                    for i in 0..shape[0] {
                        match groups.last_mut() {
                            Some(g) if (cuts >> (i - 1)) & 1 == 0 => g.0 += 1,
                            _ => groups.push((1, seed + i as u64)),
                        }
                    }
                    Call::Groups { timesteps, groups }
                } else {
                    run(timesteps, seed)
                };
                (Net::Snn(net), call)
            }
        };
        let (strategy, chips) = (STRATEGIES[strategy], CHIP_COUNTS[chips]);
        let placed = at(strategy, chips);
        // Or pipelined by per-timestep compute for this input.
        let balanced_for_input = |net: Net| match net {
            Net::Snn(n) => Net::Snn(n.layer_pipelined_for_input(chips, x.shape()).unwrap()),
            ann => placed(ann),
        };
        let place: &dyn Fn(Net) -> Net = if balanced == 1 && strategy == STRATEGIES[0] {
            &balanced_for_input
        } else {
            &placed
        };
        let cfg = config(DEPTHS[depth], CLAIMANTS[claimants], queue_capacity);
        check(&master, place, &cfg, &x, &call);
        if family == 0 {
            // The cheap dense family runs on every other placement too.
            for other in STRATEGIES {
                for n in CHIP_COUNTS {
                    if (other, n) != (strategy, chips) {
                        check(&master, &at(other, n), &cfg, &x, &call);
                    }
                }
            }
        }
    }
}

/// Every (mode × strategy × chips) cell, twelve in all, on every run: the
/// quantized conv ANN with a pool and a two-segment dense layer, on a
/// batch of five in micro-batches of two, and the two-segment dense SNN
/// from both kinds of draws.
#[test]
fn every_mode_strategy_and_chip_count_matches_the_oracle() {
    let ann = pooled_net(false, conv(1, 60, 3, 1, 1, 12), 2, 1.5, 3, 1);
    let pattern: Vec<(u8, f32, f64)> = (0..61u8)
        .map(|i| (i % 6, f32::from(i) / 61.0, f64::from(i % 5) / 5.0))
        .collect();
    let ann_x = input(&[5, 1, 12, 12], &pattern, 4, true);
    let width = MAX_RF_IN_CORE + 9;
    let snn = stack_net(true, &[width, 6, 3], 2);
    let snn_x = random(&[3, width], 3);
    let calls = [run(3, 4), seeded(3, &[(2, 5), (1, 6)])];
    let cfg = config(2, 2, 1);
    for strategy in STRATEGIES {
        for chips in CHIP_COUNTS {
            let place = at(strategy, chips);
            check(&ann, &place, &cfg, &ann_x, &Call::Forward);
            for call in &calls {
                check(&snn, &place, &cfg, &snn_x, call);
            }
        }
    }
}

/// More than `M` output channels: the convolution spans two column
/// groups, so each patch reduces two super-tiles per segment — in both
/// modes, and in an SNN again after faults, aging and a killed AC of
/// the second column group.
#[test]
fn two_column_groups_match_the_oracle() {
    let g = conv(3, M + 2, 3, 1, 1, 4);
    let x = random(&[2, 3, 4, 4], 8);
    let one_chip = at(ShardStrategy::LayerPipelined, 1);
    let ann = conv_net(false, g, None, 7);
    let mut snn = conv_net(true, g, None, 7);
    check(&ann, &one_chip, &whole_batch(), &x, &Call::Forward);
    check(&snn, &one_chip, &whole_batch(), &x, &run(2, 9));
    let model = FaultModel::single(FaultClass::TmrDegradation, 0.2)
        .with_class_rate(FaultClass::RetentionDrift, 0.2);
    if let Net::Snn(n) = &mut snn {
        wound(n, &model, 5e6, (1, 0), 7);
    }
    check(&snn, &one_chip, &whole_batch(), &x, &run(2, 9));
}

/// A receptive field over `MAX_RF_IN_CORE` rows: two segments, each
/// reduced into the output in segment order — on one chip, and split
/// across two and three chips under either strategy (and, for an SNN,
/// by per-timestep compute), at one claimant and at four, on a dense
/// and a half-silent input, and in an SNN under both encodings.
#[test]
fn a_two_segment_conv_matches_the_oracle_on_every_split() {
    let c = MAX_RF_IN_CORE / 9 + 2;
    let shape = [2, c, 3, 3];
    let pattern: Vec<(u8, f32, f64)> = (0..37u8)
        .map(|i| (0, f32::from(i) / 37.0, f64::from(i % 4) / 4.0))
        .collect();
    let inputs = [random(&shape, 12), input(&shape, &pattern, 2, false)];
    let mut placements: Vec<Box<dyn Fn(Net) -> Net>> = Vec::new();
    for strategy in STRATEGIES {
        for chips in [1, 2, 3] {
            placements.push(Box::new(at(strategy, chips)));
        }
    }
    placements.push(Box::new(move |net| match net {
        Net::Snn(n) => Net::Snn(n.layer_pipelined_for_input(3, &shape).unwrap()),
        ann => ann,
    }));
    let ann = conv_net(false, conv(c, 3, 3, 2, 1, 3), None, 11);
    let mut masters = vec![(ann, Call::Forward)];
    for encoding in [InputEncoding::Poisson, InputEncoding::Constant] {
        let Net::Snn(mut snn) = conv_net(true, conv(c, 3, 3, 2, 1, 3), None, 11) else {
            unreachable!()
        };
        snn.set_encoding(encoding);
        masters.push((Net::Snn(snn), run(2, 13)));
    }
    for (master, call) in &masters {
        for x in &inputs {
            for place in &placements {
                check(master, place, &config(1, 4, 2), x, call);
            }
        }
    }
}

/// Deterministic backpressure: capacity-1 queues with depth-1
/// micro-batches force maximum stalling on a 4-chip pipeline, at every
/// claimant count (including more claimants than stages). No deadlock,
/// and the bits don't move.
#[test]
fn capacity_one_backpressure_completes_with_identical_bits() {
    let width = MAX_RF_IN_CORE + 13;
    let master = stack_net(false, &[width, 6, 4], 77);
    let x = random(&[9, width], 5);
    let place = at(ShardStrategy::LayerPipelined, 4);
    for workers in [1, 2, 4, 9] {
        check(&master, &place, &config(1, workers, 1), &x, &Call::Forward);
    }
}

/// Dead ring links. Two chips share one link, so severing it fails the
/// tensor-sharded call loudly, as a typed NoC error from the journal
/// replay, on every schedule; a 4-chip ring detours the long way and
/// still matches the oracle, with partials crossing the ring.
#[test]
fn dead_links_fail_loudly_or_detour() {
    let width = MAX_RF_IN_CORE + 5;
    let x = Tensor::full(&[1, width], 1.0);
    let dead = |chips: usize| {
        move |n: Net| {
            let mut n = at(ShardStrategy::TensorSharded, chips)(n);
            n.cluster_mut().fail_link(0).unwrap();
            n
        }
    };
    for (snn, call) in [(false, Call::Forward), (true, run(2, 1))] {
        let master = stack_net(snn, &[width, 5, 3], 31);
        for cfg in [whole_batch(), PipelineConfig::default(), config(1, 4, 1)] {
            let mut severed = dead(2)(master.clone());
            severed.set_pipeline(cfg.clone());
            let err = severed.call(&x, &call, false).unwrap_err();
            assert!(matches!(err, AnalogError::Noc(_)), "{cfg:?}: got {err:?}");
            let traffic = check(&master, &dead(4), &cfg, &x, &call);
            assert!(traffic.link_flit_hops > 0, "{cfg:?}: partials crossed");
        }
    }
}

/// Every call of `net` on a batch of `rows`: ANN `forward`, or SNN `run`
/// from one stream (also at zero timesteps, which still validate) and
/// from seeded groups.
fn entry_points(net: &Net, rows: usize) -> Vec<Call> {
    match net {
        Net::Ann(_) => vec![Call::Forward],
        Net::Snn(_) => vec![run(3, 1), run(0, 1), seeded(3, &[(rows, 1)])],
    }
}

/// Misshaped and non-finite inputs fail before any wave or ring traffic,
/// in both modes, on every call and its oracle, on one chip and on two
/// under both strategies, at any schedule: a dense and a convolutional
/// first layer whose receptive field spans two segments (so tensor
/// sharding splits it), a pool window that does not divide its map, and
/// a zero pool window. So do seeded groups that under- or over-cover
/// the batch, and seeded groups on a rank-0 input.
#[test]
fn misshaped_and_non_finite_inputs_are_rejected_up_front() {
    let channels = MAX_RF_IN_CORE / 9 + 1;
    let width = MAX_RF_IN_CORE + 5;
    let wide_conv = conv(channels, 2, 3, 1, 1, 4);
    let pool = conv(1, 2, 3, 1, 1, 4);
    let rejects = |net: &mut Net, x: &Tensor, ok: &dyn Fn(&AnalogError) -> bool| {
        let rows = x.shape().first().copied().unwrap_or(0);
        for call in entry_points(net, rows) {
            for oracle in [false, true] {
                let y = net.call(x, &call, oracle);
                assert!(
                    y.as_ref().is_err_and(ok),
                    "{call:?}, {:?}: {y:?}",
                    x.shape()
                );
            }
        }
    };
    let bad_geometry = |e: &AnalogError| matches!(e, AnalogError::BadGeometry { .. });
    for snn in [false, true] {
        // A network, a shape it takes (if any) and shapes it rejects.
        #[rustfmt::skip]
        let cases = [
            (stack_net(snn, &[width, 6, 3], 9), Some(vec![2, width]),
                vec![vec![2, width - 1], vec![2, width + 1], vec![2, 1, width], vec![width],
                     vec![]]),
            (conv_net(snn, wide_conv, Some(3), 21), Some(vec![1, channels, 4, 4]),
                vec![vec![1, channels - 1, 4, 4], vec![1, channels, 5, 4], vec![1, channels * 16],
                     vec![channels, 4, 4]]),
            (pooled_net(snn, pool, 2, 1.0, 3, 4), Some(vec![1, 1, 4, 4]),
                vec![vec![1, 1, 5, 5], vec![1, 1, 4, 5]]),
            (pooled_net(snn, pool, 0, 1.0, 3, 4), None, vec![vec![1, 1, 4, 4]]),
        ];
        for (net, good, bad_shapes) in cases {
            for strategy in STRATEGIES {
                for chips in [1, 2] {
                    for cfg in [PipelineConfig::default(), config(1, 2, 1)] {
                        let mut placed = at(strategy, chips)(net.clone());
                        placed.set_pipeline(cfg.clone());
                        for shape in &bad_shapes {
                            rejects(&mut placed, &Tensor::zeros(shape), &bad_geometry);
                            assert!(placed.output_shape(shape).is_err(), "{shape:?}");
                        }
                        let Some(good) = &good else { continue };
                        let n: usize = good.iter().product();
                        for (bad, index) in [(f32::NAN, n / 2), (f32::INFINITY, 0)] {
                            let mut x = Tensor::full(good, 0.5);
                            x.data_mut()[index] = bad;
                            let non_finite = AnalogError::NonFiniteInput { index };
                            rejects(&mut placed, &x, &|e| *e == non_finite);
                        }
                        if snn {
                            let rows = good[0];
                            let partitions = [
                                (good.clone(), vec![(rows - 1, 1)]),
                                (good.clone(), vec![(rows, 1), (1, 2)]),
                                (vec![], vec![(1, 1)]),
                            ];
                            for (shape, groups) in partitions {
                                let call = seeded(3, &groups);
                                for oracle in [false, true] {
                                    let y = placed.call(&Tensor::full(&shape, 0.5), &call, oracle);
                                    assert!(y.as_ref().is_err_and(bad_geometry), "{call:?}: {y:?}");
                                }
                            }
                        }
                        let case = format!("SNN {snn}, {strategy:?}/{chips}, {cfg:?}");
                        assert_eq!(placed.waves(), 0, "{case}: no wave ran");
                        assert_eq!(placed.energy(), 0.0, "{case}: no crossbar read");
                        assert_eq!(placed.traffic().transfers, 0, "{case}: no ring traffic");
                        let call = entry_points(&placed, good[0]).remove(0);
                        let y = placed.call(&Tensor::full(good, 0.5), &call, false).unwrap();
                        assert_eq!(y.shape(), placed.output_shape(good).unwrap(), "{case}");
                    }
                }
            }
        }
    }
}

/// Closed form of layer-pipelined ring traffic: every ANN call moves
/// one transfer per chip boundary, however many micro-batches stream
/// through it, and every SNN timestep moves one transfer per chip
/// boundary — silent or not. Three single-tile layers on `chips` chips
/// split into `min(chips, 3)` spans, so `min(chips, 3) − 1` boundaries.
#[test]
fn link_transfers_count_one_per_boundary_per_call_or_timestep() {
    let x = random(&[5, 6], 3);
    let silent = Tensor::zeros(&[5, 6]);
    let transfers = |net: &Net| each!(net, n => n.cluster().link_stats().transfers);
    for chips in [1usize, 2, 3, 4] {
        let boundaries = chips.min(3) as u64 - 1;
        let place = at(ShardStrategy::LayerPipelined, chips);
        for cfg in [whole_batch(), config(1, 2, 1), config(2, 4, 2)] {
            let tag = format!("{chips} chips {cfg:?}");
            let mut ann = place(stack_net(false, &[6, 6, 6, 3], 1));
            ann.set_pipeline(cfg.clone());
            for calls in 1..=3 {
                ann.call(&x, &Call::Forward, false).unwrap();
                assert_eq!(transfers(&ann), calls * boundaries, "{tag}: {calls} calls");
            }
            let mut snn = place(stack_net(true, &[6, 6, 6, 3], 2));
            snn.set_pipeline(cfg);
            snn.call(&x, &run(4, 4), false).unwrap();
            assert_eq!(transfers(&snn), 4 * boundaries, "{tag}");
            let groups = seeded(3, &[(2, 1), (3, 2)]);
            snn.call(&silent, &groups, false).unwrap();
            assert_eq!(transfers(&snn), 7 * boundaries, "{tag}");
        }
    }
}

fn traffic(transfers: u64, flit_hops: u64, ru: u64, link_flit_hops: u64) -> TrafficStats {
    TrafficStats {
        transfers,
        flit_hops,
        ru_adds: ru,
        ru_activations: ru,
        link_flit_hops,
    }
}

/// Zero-size edges, pinned to the values the sequential sharded walk
/// produced before the pipeline executor ran every call: a zero-row ANN
/// batch runs as one empty micro-batch (its boundary and shard
/// transfers still round 0 bits up to one flit), zero timesteps return
/// shaped zeros with no traffic, and a stage-less network is the
/// identity (ANN) or the sum of its encoded inputs (SNN). A rank-0 input
/// fits no network, stage-less or not: `BadGeometry`, as on one chip.
#[test]
fn zero_size_edges_keep_their_shapes_waves_and_traffic() {
    let input = MAX_RF_IN_CORE + 5;
    let ann = stack_net(false, &[input, 6, 3], 9);
    let snn = stack_net(true, &[input, 5, 3], 10);
    let empty_ann = Net::Ann(compile_ann(&Network::new(vec![])).unwrap());
    let empty = SpikingNetwork::new(vec![], InputEncoding::Poisson);
    let empty_snn = Net::Snn(compile_snn_default(&empty).unwrap());
    let none = TrafficStats::default();
    // Name, network, input shape, timesteps, output shape (`None`:
    // `BadGeometry`) and traffic, layer-pipelined then tensor-sharded.
    #[rustfmt::skip]
    let cases = [
        ("ANN zero rows", &ann, vec![0, input], 0, Some(vec![0, 3]),
            [traffic(3, 27, 0, 1), traffic(6, 54, 1, 2)]),
        ("ANN stage-less", &empty_ann, vec![2, 4], 0, Some(vec![2, 4]), [none; 2]),
        ("ANN stage-less, zero rows", &empty_ann, vec![0, 4], 0, Some(vec![0, 4]), [none; 2]),
        ("ANN stage-less, rank 0", &empty_ann, vec![], 0, None, [none; 2]),
        ("SNN zero timesteps", &snn, vec![2, input], 0, Some(vec![2, 3]), [none; 2]),
        ("SNN zero rows", &snn, vec![0, input], 2, Some(vec![0, 3]), [traffic(6, 54, 0, 2), none]),
        ("SNN stage-less", &empty_snn, vec![2, 4], 3, Some(vec![2, 4]), [none; 2]),
    ];
    // The stage-less SNN's summed encodings: one ChaCha8 stream, then
    // one seeded group.
    let stage_less: [&[f32]; 2] = [
        &[1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 0.0, 1.0],
        &[2.0, 2.0, 2.0, 1.0, 3.0, 2.0, 2.0, 1.0],
    ];
    for cfg in [whole_batch(), PipelineConfig::default(), config(1, 4, 1)] {
        for (s, strategy) in STRATEGIES.into_iter().enumerate() {
            for (name, net, shape, timesteps, want_shape, want_traffic) in &cases {
                let x = Tensor::full(shape, 0.5);
                let calls = match net {
                    Net::Ann(_) => vec![Call::Forward],
                    Net::Snn(_) => {
                        let rows: Vec<_> =
                            [(shape[0], 4)].into_iter().filter(|g| g.0 > 0).collect();
                        vec![run(*timesteps, 4), seeded(*timesteps, &rows)]
                    }
                };
                for (leg, call) in calls.iter().enumerate() {
                    let case = format!("{strategy:?} {cfg:?} {name} {call:?}");
                    let mut placed = at(strategy, 2)((*net).clone());
                    placed.set_pipeline(cfg.clone());
                    let y = placed.call(&x, call, false);
                    match want_shape {
                        None => assert!(
                            matches!(y, Err(AnalogError::BadGeometry { .. })),
                            "{case}: {y:?}"
                        ),
                        Some(want_shape) => {
                            let y = y.unwrap();
                            assert_eq!(y.shape(), &want_shape[..], "{case}");
                            if matches!(net, Net::Snn(_)) && *timesteps == 0 {
                                assert!(y.data().iter().all(|&v| v == 0.0), "{case}");
                            }
                            if *name == "SNN stage-less" {
                                assert_eq!(y.data(), stage_less[leg], "{case}");
                            }
                        }
                    }
                    assert_eq!(placed.waves(), 0, "{case}");
                    assert_eq!(placed.traffic(), want_traffic[s], "{case}");
                }
            }
        }
    }
}

/// Energy is one fold over the donor's stages, in stage
/// order, whichever chips the stages sit on: read energy (and the ANN's
/// programming energy) must equal the single chip's bit for bit when a
/// tensor-sharded layer spans several column groups (129–300 outputs,
/// over M = 128) and when one pipeline span holds several synaptic
/// stages. Summing per-unit or per-segment subtotals first moves the
/// last bits in some of these cases.
#[test]
fn energy_folds_in_single_chip_order() {
    let width = MAX_RF_IN_CORE + 9;
    // SNN?, widths, seed, strategy and chip counts.
    let mut cases = Vec::new();
    for (hidden, seed) in [(129, 1), (200, 2), (300, 3)] {
        for snn in [false, true] {
            cases.push((
                snn,
                vec![width, hidden, 3],
                seed,
                ShardStrategy::TensorSharded,
                2..5,
            ));
        }
    }
    let six = [24, 40, 40, 40, 40, 40, 5];
    for seed in 0..6 {
        cases.push((
            false,
            six.to_vec(),
            seed,
            ShardStrategy::LayerPipelined,
            2..4,
        ));
    }
    for (snn, widths, seed, strategy, chip_counts) in cases {
        let (rows, x_seed) = match strategy {
            ShardStrategy::TensorSharded => (3, seed + 100),
            ShardStrategy::LayerPipelined => (4, seed + 200),
        };
        let x = random(&[rows, widths[0]], x_seed);
        let call = if snn { run(3, seed) } else { Call::Forward };
        let fold = |chips| {
            let mut net = at(strategy, chips)(stack_net(snn, &widths, seed));
            net.call(&x, &call, false).unwrap();
            let program = match &net {
                Net::Ann(n) => n.program_energy().0.to_bits(),
                Net::Snn(_) => 0,
            };
            (net.energy().to_bits(), program)
        };
        let single = fold(1);
        for chips in chip_counts {
            assert_eq!(
                fold(chips),
                single,
                "{widths:?} seed {seed}, {strategy:?}/{chips}"
            );
        }
    }
}

/// Tensor-sharded ring traffic and waves, pinned to the values the
/// per-segment shard evaluator produced: on every ANN call the home
/// chip multicasts the 4-bit input and gathers 32-bit partials from the
/// chips holding the layer's other segments; on an SNN timestep it does
/// so only when the spikes reach a patch, so an all-silent timestep
/// moves nothing (and still counts its waves). Three-segment layers, so
/// 2 chips hold segments {0, 2} and {1}, and 4 chips spread them over
/// chips 0–2.
#[test]
fn tensor_sharded_traffic_and_waves_are_pinned() {
    let input = 2 * MAX_RF_IN_CORE + 9;
    let channels = 460; // 460 · 9 = 4140 rows: three segments
    let mut r = ChaCha8Rng::seed_from_u64(12);
    let ann_x = Tensor::rand_uniform(&[3, input], 0.0, 1.0, &mut r);
    let snn_x = Tensor::rand_uniform(&[2, input], 0.0, 1.0, &mut r);
    let conv_x = Tensor::rand_uniform(&[1, channels, 4, 4], 0.0, 1.0, &mut r);
    let act = |ru_activations, t: TrafficStats| TrafficStats {
        ru_activations,
        ..t
    };
    // Chips, then the ANN, dense SNN and conv SNN traffic.
    #[rustfmt::skip]
    let pins = [
        (2, traffic(12, 84_132, 2, 3_116), traffic(18, 21_627, 3, 801),
            traffic(18, 21_222, 3, 786)),
        (4, act(2, traffic(28, 208_772, 4, 9_348)), act(3, traffic(42, 53_667, 6, 2_403)),
            act(3, traffic(42, 52_662, 6, 2_358))),
    ];
    let conv = conv(channels, 2, 3, 1, 1, 4);
    for (chips, ann_traffic, snn_traffic, conv_traffic) in pins {
        let place = at(ShardStrategy::TensorSharded, chips);
        let mut ann = place(stack_net(false, &[input, 6, 3], 5));
        for _ in 0..2 {
            ann.call(&ann_x, &Call::Forward, false).unwrap();
        }
        assert_eq!(ann.traffic(), ann_traffic, "ANN dense, {chips} chips");
        assert_eq!(ann.waves(), 12, "ANN dense, {chips} chips");
        let snn = stack_net(true, &[input, 5, 3], 6);
        let conv = conv_net(true, conv, Some(3), 8);
        for (name, net, x, seed, want, waves) in [
            ("SNN dense", snn, &snn_x, 7, snn_traffic, [12, 16]),
            ("SNN conv", conv, &conv_x, 9, conv_traffic, [51, 68]),
        ] {
            let tag = format!("{name}, {chips} chips");
            let mut net = place(net);
            net.call(x, &run(3, seed), false).unwrap();
            assert_eq!(net.traffic(), want, "{tag}");
            assert_eq!(net.waves(), waves[0], "{tag}");
            net.call(&Tensor::zeros(x.shape()), &run(1, seed), false)
                .unwrap();
            assert_eq!(net.traffic(), want, "{tag}: a silent timestep");
            assert_eq!(net.waves(), waves[1], "{tag}: a silent timestep");
        }
    }
}
