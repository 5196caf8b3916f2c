//! `ann_dense`: the quantized VGG/10 ANN on texture images in fixed
//! batches through `AnalogNetwork::forward`. On the Auto kernel path
//! these are dense drives, so the vectorized GEMV does nearly all the
//! work.

use crate::measure::{bits_equal, median, tail_percentile};
use crate::metrics::Outcome;
use crate::rounds::RoundLoop;
use crate::setup::{self, rows};
use crate::trace::Tracer;
use crate::Args;
use nebula_tensor::Tensor;
use std::time::Instant;

/// Images per `forward` call.
pub const BATCH: usize = 32;
/// `forward` calls per round; a round evaluates every input once.
pub const CALLS_PER_ROUND: usize = 8;

/// Runs the workload.
pub fn run(args: &Args, tr: &mut Tracer, process_start: Instant) -> Outcome {
    let samples = BATCH * CALLS_PER_ROUND;
    let ((chip, batches, density), setup_s) = setup::repeated(tr, process_start, |tr, root| {
        let model = setup::model(tr, root);
        let inputs = setup::texture_inputs(tr, root, samples, args.seed).inputs;
        let chip = setup::ann_chip(tr, root, &model);
        let batches: Vec<Tensor> = (0..CALLS_PER_ROUND)
            .map(|b| rows(&inputs, b * BATCH, BATCH))
            .collect();
        (chip, batches, setup::density(&inputs))
    });
    let mut net = chip.net;
    let mut oracle = net.clone();
    let mut out = Outcome::default();
    let host = crate::host::HostSnapshot::now();

    let mut rl = RoundLoop::new(tr, args.seconds);
    let mut first: Vec<Option<Tensor>> = Vec::new();
    let (mut energy_j, mut waves) = (0.0, 0);
    while let Some((round, span)) = rl.begin(tr) {
        let outputs: Vec<_> = batches
            .iter()
            .map(|x| rl.call(tr, span, "analog.forward", || net.forward(x)))
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

    // Oracle: the first round's calls replayed through the sequential
    // reference, compared bit for bit; later rounds were compared with
    // the first above.
    for (x, y) in batches.iter().zip(&first) {
        let expect = oracle.forward_sequential(x);
        out.count(matches!((y, &expect), (Some(y), Ok(e)) if bits_equal(y, e)));
    }
    out.count(crate::energy_agrees(energy_j, oracle.read_energy().value()));

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
    let forward_ms = &rl.all_call_ms;
    layer.insert("analog.forward_ms_p50", median(forward_ms).unwrap_or(0.0));
    layer.insert(
        "analog.forward_ms_p90",
        tail_percentile(forward_ms, 90.0).unwrap_or(0.0),
    );
    layer.insert(
        "analog.program_energy_nj",
        net.program_energy().value() * 1e9,
    );
    layer.insert("crossbar.cache_bytes", chip.cache_bytes as f64);
    layer.insert("workloads.input_density", density);
    layer.insert("host.cpu_s", cpu_s);
    layer.insert("host.steal_ms", steal_ms);
    layer.insert("trace.overhead_pct", rl.overhead_pct());
    layer.insert("timed.samples", forward_ms.len() as f64);
    layer.insert("oracle.checked", CALLS_PER_ROUND as f64);
    out
}
