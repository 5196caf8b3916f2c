//! Multi-tenant serving benchmark: open-loop Poisson arrivals through
//! the dynamic batcher ([`nebula_core::serve`]) over the quantized
//! VGG/10 ANN and the circuit-level SNN at 150 timesteps.
//!
//! Two sweeps, both submitting a deterministic mixed ANN + SNN request
//! stream (alternating kinds, per-request SNN seeds, single-sample
//! inputs drawn round-robin from the test split):
//!
//! * **rate sweep** — several offered arrival rates at the default
//!   `max_batch`, reporting sustained requests/sec and p50/p99 latency
//!   (queueing + batching wait + service, as measured by the server);
//! * **batch sweep** — a fixed offered rate across `max_batch` ∈
//!   {1, 2, 4, 8}: the batch-size-vs-latency tradeoff curve (larger
//!   batches amortize the conductance-cache `prepare()` across
//!   coalesced requests at the cost of batching wait).
//!
//! After each leg the exact request stream is replayed one request at a
//! time through fresh `oracle::forward` / `oracle::run` reference
//! chips (same inputs, same per-request seeds) and every served output
//! is compared **bit for bit** — the binary aborts on any divergence,
//! so a recorded result file is also a bit-identity proof.
//!
//! Writes `results/BENCH_serving.json` (schema `nebula-bench-serving/1`,
//! documented in `EXPERIMENTS.md`). `NEBULA_SERVING_REQUESTS` overrides
//! the per-leg request count (CI smoke runs use a reduced set).

use std::time::{Duration, Instant};

use nebula_bench::setup::{trained, Workload};
use nebula_core::analog::{compile_ann, AnalogNetwork};
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork, Draws};
use nebula_core::oracle;
use nebula_core::serve::{InferenceRequest, ModelSpec, RequestKind, ServeConfig, Server};
use nebula_nn::convert::{ann_to_snn, ConversionConfig};
use nebula_nn::quant::{quantize_network, QuantConfig};
use nebula_tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// SNN integration window (the paper's VGG operating point).
const TIMESTEPS: usize = 150;

/// Offered arrival rates for the rate sweep, requests per second.
const RATES_HZ: [f64; 3] = [5.0, 20.0, 80.0];

/// Offered rate held while sweeping `max_batch`.
const BATCH_SWEEP_RATE_HZ: f64 = 40.0;

/// `max_batch` points for the batch-size-vs-latency curve.
const MAX_BATCHES: [usize; 4] = [1, 2, 4, 8];

fn requests_per_leg() -> usize {
    std::env::var("NEBULA_SERVING_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(40)
}

/// One request of the deterministic mixed stream.
struct Job {
    snn: bool,
    input: Tensor,
    seed: u64,
}

/// Builds the per-leg request stream: alternating ANN/SNN requests over
/// round-robin single-sample inputs, with per-request SNN seeds derived
/// from the leg seed.
fn jobs(samples: &Tensor, n: usize, leg_seed: u64) -> Vec<Job> {
    let rows = samples.shape()[0];
    let trailing: Vec<usize> = samples.shape()[1..].to_vec();
    let row_elems: usize = trailing.iter().product();
    let mut shape = vec![1usize];
    shape.extend_from_slice(&trailing);
    (0..n)
        .map(|i| {
            let s = i % rows;
            let input = Tensor::from_vec(
                samples.data()[s * row_elems..(s + 1) * row_elems].to_vec(),
                &shape,
            )
            .expect("sample slice");
            Job {
                snn: i % 2 == 1,
                input,
                seed: leg_seed * 1_000 + i as u64,
            }
        })
        .collect()
}

struct LegResult {
    name: String,
    offered_hz: f64,
    max_batch: usize,
    completed: usize,
    wall_s: f64,
    throughput_hz: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    largest_batch: usize,
    identical: bool,
}

/// Nearest-rank percentile over an unsorted latency sample.
fn percentile_ms(latencies: &mut [f64], pct: f64) -> f64 {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    if latencies.is_empty() {
        return 0.0;
    }
    let idx = ((pct / 100.0) * (latencies.len() - 1) as f64).round() as usize;
    latencies[idx]
}

/// Shared per-run state every leg starts from: the programmed chip
/// prototypes, the sample pool and the per-leg request count.
struct Setup {
    ann: AnalogNetwork,
    snn: AnalogSpikingNetwork,
    samples: Tensor,
    n: usize,
}

/// Drives one leg: open-loop Poisson arrivals at `offered_hz` into a
/// fresh server, then a sequential replay of the identical stream for
/// the bit-identity check.
fn run_leg(
    setup: &Setup,
    name: &str,
    offered_hz: f64,
    max_batch: usize,
    leg_seed: u64,
) -> LegResult {
    let (ann, snn, n) = (&setup.ann, &setup.snn, setup.n);
    let stream = jobs(&setup.samples, n, leg_seed);
    let cfg = ServeConfig {
        queue_capacity: 64,
        max_batch,
        max_wait: Duration::from_millis(5),
    };
    let mut server = Server::start(
        cfg,
        vec![
            ModelSpec::ann("vgg10-ann", ann.clone(), 1),
            ModelSpec::snn("vgg10-snn", snn.clone(), 1),
        ],
    )
    .expect("server start");

    // Open-loop arrivals: exponential interarrival gaps from a seeded
    // stream, submitted on schedule regardless of completions (blocking
    // submit only intervenes as backpressure when the queue fills).
    let mut arrivals = ChaCha8Rng::seed_from_u64(leg_seed ^ 0xA221_7A15);
    let t0 = Instant::now();
    let mut next_at = Duration::ZERO;
    let mut handles = Vec::with_capacity(n);
    for job in &stream {
        let gap = -(1.0 - arrivals.gen::<f64>()).ln() / offered_hz;
        next_at += Duration::from_secs_f64(gap);
        if let Some(sleep) = next_at.checked_sub(t0.elapsed()) {
            std::thread::sleep(sleep);
        }
        let handle = server
            .submit(InferenceRequest {
                model: if job.snn { "vgg10-snn" } else { "vgg10-ann" }.into(),
                tenant: job.seed % 4,
                input: job.input.clone(),
                kind: if job.snn {
                    RequestKind::Snn {
                        timesteps: TIMESTEPS,
                        seed: job.seed,
                    }
                } else {
                    RequestKind::Ann
                },
            })
            .expect("submit");
        handles.push(handle);
    }
    let responses: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait().expect("response"))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    server.shutdown();
    let stats = server.stats();
    let (reqs, batches, largest) = stats.models.iter().fold((0u64, 0u64, 0usize), |acc, m| {
        (
            acc.0 + m.requests,
            acc.1 + m.batches,
            acc.2.max(m.largest_batch),
        )
    });
    assert_eq!(reqs as usize, n, "every request dispatched exactly once");

    // Bit-identity replay: the same stream, one request at a time,
    // through fresh sequential reference chips.
    let mut ann_ref = ann.clone();
    let mut snn_ref = snn.clone();
    let mut identical = true;
    for (job, resp) in stream.iter().zip(&responses) {
        let expect = if job.snn {
            let mut r = rand::rngs::StdRng::seed_from_u64(job.seed);
            oracle::run(&mut snn_ref, &job.input, TIMESTEPS, Draws::Stream(&mut r))
                .expect("replay snn")
        } else {
            oracle::forward(&mut ann_ref, &job.input).expect("replay ann")
        };
        identical &= resp.output.shape() == expect.shape()
            && resp
                .output
                .data()
                .iter()
                .zip(expect.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
    }

    let mut latencies: Vec<f64> = responses
        .iter()
        .map(|r| (r.queued + r.service).as_secs_f64() * 1e3)
        .collect();
    let p50_ms = percentile_ms(&mut latencies, 50.0);
    let p99_ms = percentile_ms(&mut latencies, 99.0);
    LegResult {
        name: name.into(),
        offered_hz,
        max_batch,
        completed: responses.len(),
        wall_s,
        throughput_hz: responses.len() as f64 / wall_s.max(1e-9),
        p50_ms,
        p99_ms,
        mean_batch: if batches == 0 {
            0.0
        } else {
            reqs as f64 / batches as f64
        },
        largest_batch: largest,
        identical,
    }
}

fn leg_json(l: &LegResult) -> String {
    format!(
        "{{\"name\": \"{}\", \"offered_hz\": {:.1}, \"max_batch\": {}, \"completed\": {}, \"wall_s\": {:.3}, \"throughput_hz\": {:.2}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_batch\": {:.3}, \"largest_batch\": {}, \"identical\": {}}}",
        l.name,
        l.offered_hz,
        l.max_batch,
        l.completed,
        l.wall_s,
        l.throughput_hz,
        l.p50_ms,
        l.p99_ms,
        l.mean_batch,
        l.largest_batch,
        l.identical
    )
}

fn main() {
    let n = requests_per_leg();
    let workers = nebula_tensor::pool::size();
    let t = trained(Workload::Vgg10, 500, 20);
    let q = quantize_network(&t.net, &t.train.take(64), &QuantConfig::default()).unwrap();
    let snn_functional = ann_to_snn(&q, &t.train.take(64), &ConversionConfig::default()).unwrap();
    let setup = Setup {
        ann: compile_ann(&q).unwrap(),
        snn: compile_snn_default(&snn_functional).unwrap(),
        samples: t.test.take(8).inputs,
        n,
    };

    let default_batch = ServeConfig::default().max_batch;
    let mut rate_legs = Vec::new();
    for (i, &rate) in RATES_HZ.iter().enumerate() {
        let name = format!("rate@{rate:.0}");
        let leg = run_leg(&setup, &name, rate, default_batch, 100 + i as u64);
        println!(
            "  {:<10} offered {:>5.1}/s  sustained {:>6.2}/s  p50 {:>8.2} ms  p99 {:>8.2} ms  mean batch {:>5.2}  identical: {}",
            leg.name, leg.offered_hz, leg.throughput_hz, leg.p50_ms, leg.p99_ms, leg.mean_batch, leg.identical
        );
        rate_legs.push(leg);
    }
    let mut batch_legs = Vec::new();
    for (i, &mb) in MAX_BATCHES.iter().enumerate() {
        let name = format!("batch@{mb}");
        let leg = run_leg(&setup, &name, BATCH_SWEEP_RATE_HZ, mb, 200 + i as u64);
        println!(
            "  {:<10} offered {:>5.1}/s  sustained {:>6.2}/s  p50 {:>8.2} ms  p99 {:>8.2} ms  mean batch {:>5.2}  identical: {}",
            leg.name, leg.offered_hz, leg.throughput_hz, leg.p50_ms, leg.p99_ms, leg.mean_batch, leg.identical
        );
        batch_legs.push(leg);
    }

    let all_identical = rate_legs
        .iter()
        .chain(&batch_legs)
        .all(|l| l.identical && l.completed == n);

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"nebula-bench-serving/1\",\n");
    json.push_str("  \"workload\": \"VGG/10\",\n");
    json.push_str(&format!("  \"timesteps\": {TIMESTEPS},\n"));
    json.push_str(&format!("  \"requests_per_leg\": {n},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"identical\": {all_identical},\n"));
    json.push_str("  \"rate_sweep\": [\n");
    for (i, l) in rate_legs.iter().enumerate() {
        json.push_str("    ");
        json.push_str(&leg_json(l));
        json.push_str(if i + 1 < rate_legs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"batch_sweep\": [\n");
    for (i, l) in batch_legs.iter().enumerate() {
        json.push_str("    ");
        json.push_str(&leg_json(l));
        json.push_str(if i + 1 < batch_legs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    let path = if std::path::Path::new("results").is_dir() {
        "results/BENCH_serving.json"
    } else {
        "BENCH_serving.json"
    };
    std::fs::write(path, &json).expect("write BENCH_serving.json");
    println!("\nBENCH serving (VGG/10 ANN + SNN@{TIMESTEPS}, {n} requests/leg), written to {path}");
    assert!(
        all_identical,
        "served outputs diverged from the sequential reference"
    );
}
