//! `snn_events`: the converted VGG/10 SNN on DVS event frames (95%
//! silent pixels) with constant input encoding, in fixed batches through
//! `AnalogSpikingNetwork::run_seeded_groups`. The silent-skip hierarchy
//! and the quantized LUT spike kernel do the work; the dense GEMV never
//! runs.

use crate::measure::{bits_equal, median, tail_percentile};
use crate::metrics::Outcome;
use crate::rounds::RoundLoop;
use crate::setup::{self, rows, SIDE, TIMESTEPS};
use crate::trace::Tracer;
use crate::Args;
use nebula_nn::snn::InputEncoding;
use nebula_tensor::Tensor;
use nebula_workloads::{generate_events, EventStreamConfig};
use rand::SeedableRng;
use std::time::Instant;

/// Frames per `run_seeded_groups` call.
pub const BATCH: usize = 8;
/// Calls per round; a round evaluates every frame once. Spiking work
/// depends on the frames, so a round holds enough of them (128) that
/// the per-seed mean activity varies little.
pub const CALLS_PER_ROUND: usize = 16;
/// Fraction of silent pixels in every frame.
pub const SPARSITY: f64 = 0.95;
/// Calls of the first round replayed through `run_sequential`.
pub const ORACLE_CALLS: usize = 2;

/// Runs the workload.
pub fn run(args: &Args, tr: &mut Tracer, process_start: Instant) -> Outcome {
    let samples = BATCH * CALLS_PER_ROUND;
    let ((chip, batches, density), setup_s) = setup::repeated(tr, process_start, |tr, root| {
        let model = setup::model(tr, root);
        let (frames, _) = tr.time("workloads.generate", root, || {
            let cfg = EventStreamConfig::dvs(SIDE, setup::CLASSES, samples, SPARSITY)
                .with_seed(args.seed);
            generate_events(&cfg).expect("event frames").inputs
        });
        let mut chip = setup::snn_chip(tr, root, &model);
        chip.net.set_encoding(InputEncoding::Constant);
        let batches: Vec<Tensor> = (0..CALLS_PER_ROUND)
            .map(|b| rows(&frames, b * BATCH, BATCH))
            .collect();
        (chip, batches, setup::density(&frames))
    });
    let mut net = chip.net;
    let mut oracle = net.clone();
    // Constant encoding draws nothing; the seeds keep the call shaped
    // as the serving layer issues it.
    let seed_of = |call: usize| args.seed.wrapping_mul(1_000).wrapping_add(call as u64);
    let mut out = Outcome::default();
    let host = crate::host::HostSnapshot::now();

    let mut rl = RoundLoop::new(tr, args.seconds);
    let mut first: Vec<Option<Tensor>> = Vec::new();
    let (mut energy_j, mut waves) = (0.0, 0);
    while let Some((round, span)) = rl.begin(tr) {
        let outputs: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let groups = [(BATCH, seed_of(i))];
                rl.call(tr, span, "analog_snn.run", || {
                    net.run_seeded_groups(x, TIMESTEPS, &groups)
                })
            })
            .collect();
        rl.end(tr);
        if round == 0 {
            energy_j = net.read_energy().value();
            waves = net.waves();
            first = outputs.into_iter().map(Result::ok).collect();
            continue;
        }
        for (y, reference) in outputs.iter().zip(&first) {
            out.count(matches!((y, reference), (Ok(y), Some(r)) if bits_equal(y, r)));
        }
    }
    let (cpu_s, steal_ms) = host.since();

    // Oracle: the first ORACLE_CALLS calls of round 0 replayed through
    // the sequential reference; its energy must agree with the fast
    // path's over the same calls.
    let mut fast = oracle.clone();
    for (i, (x, y)) in batches.iter().zip(&first).enumerate() {
        if i < ORACLE_CALLS {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed_of(i));
            let expect = oracle.run_sequential(x, TIMESTEPS, &mut rng);
            out.count(matches!((y, &expect), (Some(y), Ok(e)) if bits_equal(y, e)));
            let _ = fast.run_seeded_groups(x, TIMESTEPS, &[(BATCH, seed_of(i))]);
        } else {
            out.count(y.is_some());
        }
    }
    out.count(crate::energy_agrees(
        fast.read_energy().value(),
        oracle.read_energy().value(),
    ));

    let e2e = &mut out.end_to_end;
    e2e.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    e2e.insert("throughput_per_s", rl.throughput(samples));
    e2e.insert("latency_p50_ms", median(&rl.call_ms).unwrap_or(0.0));
    e2e.insert("sim_read_energy_nj", energy_j * 1e9 / samples as f64);
    e2e.insert("sim_waves", waves as f64 / samples as f64);

    let layer = &mut out.per_layer;
    crate::setup_layers(tr, layer);
    // Every call is timed the same way whether or not its round is
    // traced, so the per-call figures use all of them.
    let run_ms = &rl.all_call_ms;
    let run_p50 = median(run_ms).unwrap_or(0.0);
    layer.insert("analog_snn.run_ms_p50", run_p50);
    layer.insert(
        "analog_snn.run_ms_p90",
        tail_percentile(run_ms, 90.0).unwrap_or(0.0),
    );
    layer.insert(
        "analog_snn.timestep_us",
        run_p50 * 1e3 / (BATCH * TIMESTEPS) as f64,
    );
    layer.insert("crossbar.cache_bytes", chip.cache_bytes as f64);
    layer.insert("workloads.input_density", density);
    layer.insert("host.cpu_s", cpu_s);
    layer.insert("host.steal_ms", steal_ms);
    layer.insert("trace.overhead_pct", rl.overhead_pct());
    layer.insert("timed.samples", run_ms.len() as f64);
    layer.insert("oracle.checked", ORACLE_CALLS as f64);
    out
}
