//! `serve_mixed`: one `Server` hosting the VGG/10 ANN on a single chip
//! and the converted SNN layer-pipelined over two chips, fed an
//! alternating ANN/SNN stream of single-sample requests by one
//! generator thread.
//!
//! * Capacity phase: blocking `submit` as fast as backpressure allows, in
//!   blocks of a fixed number of requests (a closed loop bounded by the
//!   queue); each block's requests per second is one sample of
//!   `throughput_per_s`.
//! * Paced phase: an open loop at [`PACED_RATE_HZ`]; every request is
//!   timed from when it was due.
//!
//! The oracle replays every ANN request through `forward_sequential` and
//! the first [`ORACLE_SNN`] SNN requests of the paced phase through
//! `run_sequential` with their own seeds. The same paced prefix is also
//! replayed one request at a time through fresh copies of the served
//! chips, which gives the exact `sim_*` figures and the ring traffic.

use crate::measure::{bits_equal, median, tail_percentile};
use crate::metrics::Outcome;
use crate::rounds::RoundLoop;
use crate::setup::{self, rows, TIMESTEPS};
use crate::trace::Tracer;
use crate::Args;
use nebula_core::analog::AnalogNetwork;
use nebula_core::analog_snn::AnalogSpikingNetwork;
use nebula_core::multichip::ShardedSpikingNetwork;
use nebula_core::serve::{
    InferenceRequest, InferenceResponse, ModelSpec, RequestKind, ServeConfig, ServeError, Server,
};
use nebula_tensor::Tensor;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Chips the SNN is layer-pipelined over.
pub const CHIPS: usize = 2;
/// Per-model queue bound; a full queue blocks `submit`. Equal to
/// [`MAX_BATCH`], so the capacity phase's SNN requests wait in `submit`
/// while a full batch runs.
pub const QUEUE_CAPACITY: usize = 8;
/// Most requests one batch coalesces.
pub const MAX_BATCH: usize = 8;
/// Longest a request waits for batch companions.
pub const MAX_WAIT: Duration = Duration::from_millis(2);
/// Texture images the requests cycle through; enough that each run's
/// mean spiking activity varies little between seeds.
pub const IMAGES: usize = 256;
/// Share of the run's seconds spent in the capacity phase.
pub const CAPACITY_SHARE: f64 = 0.4;
/// Requests per capacity block: four full SNN batches and as many ANN
/// requests.
pub const CAPACITY_BLOCK: usize = 64;
/// Offered rate of the paced phase, requests per second: half the
/// capacity (24 requests/s) measured on a 2-vCPU host. Fixed; never
/// adapted at run time.
pub const PACED_RATE_HZ: f64 = 12.0;
/// SNN requests of the paced phase replayed through the oracle.
pub const ORACLE_SNN: usize = 12;
/// Stream index of the first paced request. Fixed (and even, so the
/// phase opens with an ANN request) so that the paced requests, and the
/// replayed prefix that gives the exact `sim_*` figures, do not depend
/// on how many capacity blocks ran.
const PACED_FIRST: usize = 1 << 20;

const ANN: &str = "vgg10-ann";
const SNN: &str = "vgg10-snn";

struct Ready {
    server: Server,
    ann: AnalogNetwork,
    snn: AnalogSpikingNetwork,
    sharded: ShardedSpikingNetwork,
    images: Vec<Tensor>,
    cache_bytes: usize,
    density: f64,
}

/// One request of the stream: even indices are ANN, odd are SNN.
struct Sent {
    index: usize,
    due: Instant,
    sent: Instant,
    response: Result<InferenceResponse, ServeError>,
}

impl Sent {
    fn snn(&self) -> bool {
        self.index % 2 == 1
    }
    fn ok(&self) -> Option<&InferenceResponse> {
        self.response.as_ref().ok()
    }
}

/// Runs the workload.
pub fn run(args: &Args, tr: &mut Tracer, process_start: Instant) -> Outcome {
    let (ready, setup_s) = setup::repeated(tr, process_start, |tr, root| {
        let model = setup::model(tr, root);
        let inputs = setup::texture_inputs(tr, root, IMAGES, args.seed).inputs;
        let ann = setup::ann_chip(tr, root, &model);
        let snn = setup::snn_chip(tr, root, &model);
        let (sharded, _) = tr.time("multichip.shard", root, || {
            ShardedSpikingNetwork::layer_pipelined(snn.net.clone(), CHIPS).expect("sharding")
        });
        let cfg = ServeConfig {
            queue_capacity: QUEUE_CAPACITY,
            max_batch: MAX_BATCH,
            max_wait: MAX_WAIT,
        };
        let specs = vec![
            ModelSpec::ann(ANN, ann.net.clone(), 1),
            ModelSpec::sharded_snn(SNN, sharded.clone(), 1),
        ];
        let (server, _) = tr.time("serve.start", root, || {
            Server::start(cfg, specs).expect("server start")
        });
        Ready {
            server,
            ann: ann.net,
            snn: snn.net,
            sharded,
            images: (0..IMAGES).map(|i| rows(&inputs, i, 1)).collect(),
            cache_bytes: ann.cache_bytes + snn.cache_bytes,
            density: setup::density(&inputs),
        }
    });
    let Ready {
        mut server,
        ann,
        snn,
        sharded,
        images,
        cache_bytes,
        density,
    } = ready;
    let program_energy_nj = ann.program_energy().value() * 1e9;
    let seed_of = |i: usize| args.seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
    let request = |i: usize| InferenceRequest {
        model: if i % 2 == 1 { SNN } else { ANN }.to_string(),
        tenant: (i % 2) as u64,
        input: images[i % IMAGES].clone(),
        kind: if i % 2 == 1 {
            RequestKind::Snn {
                timesteps: TIMESTEPS,
                seed: seed_of(i),
            }
        } else {
            RequestKind::Ann
        },
    };
    let mut out = Outcome::default();
    let host = crate::host::HostSnapshot::now();

    // Capacity phase.
    let mut next = 0usize;
    let mut capacity: Vec<Sent> = Vec::new();
    let mut blocked_ms = Vec::new();
    let mut rl = RoundLoop::new(tr, args.seconds * CAPACITY_SHARE);
    while let Some((_, span)) = rl.begin(tr) {
        let mut handles = Vec::with_capacity(CAPACITY_BLOCK);
        let mut blocked = Duration::ZERO;
        for _ in 0..CAPACITY_BLOCK {
            let (i, req) = (next, request(next));
            next += 1;
            let sent = Instant::now();
            let (handle, d) = tr.time("serve.submit", span, || server.submit(req));
            blocked += d;
            handles.push((i, sent, handle));
        }
        for (index, sent, handle) in handles {
            let response = handle.and_then(|h| h.wait());
            capacity.push(Sent {
                index,
                due: sent,
                sent,
                response,
            });
        }
        rl.end(tr);
        blocked_ms.push(crate::measure::ms(blocked));
    }

    // Paced phase: request k is due at t0 + k / rate.
    let paced_n = (PACED_RATE_HZ * args.seconds * (1.0 - CAPACITY_SHARE)).ceil() as usize;
    let mut handles = Vec::with_capacity(paced_n);
    let t0 = Instant::now();
    for k in 0..paced_n {
        let due = t0 + Duration::from_secs_f64(k as f64 / PACED_RATE_HZ);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let i = PACED_FIRST + k;
        let sent = Instant::now();
        handles.push((i, due, sent, server.submit(request(i))));
    }
    let paced: Vec<Sent> = handles
        .into_iter()
        .map(|(index, due, sent, handle)| Sent {
            index,
            due,
            sent,
            response: handle.and_then(|h| h.wait()),
        })
        .collect();
    let (cpu_s, steal_ms) = host.since();
    server.shutdown();
    let stats = server.stats();

    // Oracle and replay. The paced prefix goes through fresh copies of
    // the served chips one request at a time (exact sim figures) and
    // through the sequential references; every other ANN request
    // through `forward_sequential`.
    let mut ann_seq = ann.clone();
    let mut ann_fast = ann;
    let mut snn_seq = snn;
    let mut snn_fast = sharded;
    let replayed = &paced[..paced.len().min(2 * ORACLE_SNN)];
    let mut verdicts = Vec::with_capacity(replayed.len());
    for s in replayed {
        let x = &images[s.index % IMAGES];
        let (fast, seq) = if s.snn() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed_of(s.index));
            (
                snn_fast.run_seeded_groups(x, TIMESTEPS, &[(1, seed_of(s.index))]),
                snn_seq.run_sequential(x, TIMESTEPS, &mut rng),
            )
        } else {
            (ann_fast.forward(x), ann_seq.forward_sequential(x))
        };
        verdicts.push(matches!((s.ok(), &fast, &seq),
            (Some(r), Ok(f), Ok(e)) if bits_equal(&r.output, e) && bits_equal(f, e)));
    }
    let replay_energy_j = ann_fast.read_energy().value() + snn_fast.read_energy().value();
    let oracle_energy_j = ann_seq.read_energy().value() + snn_seq.read_energy().value();
    let replay_waves = ann_fast.waves() + snn_fast.waves();
    let replayed_snn = replayed.iter().filter(|s| s.snn()).count().max(1) as f64;
    let traffic = snn_fast.traffic();
    out.count(crate::energy_agrees(replay_energy_j, oracle_energy_j));
    // Requests outside the replayed prefix: ANN ones against the
    // sequential reference, SNN ones for an answer only.
    let mut checked = replayed.len();
    let mut check = |s: &Sent| match s.ok() {
        None => false,
        Some(_) if s.snn() => true,
        Some(r) => {
            checked += 1;
            ann_seq
                .forward_sequential(&images[s.index % IMAGES])
                .is_ok_and(|e| bits_equal(&r.output, &e))
        }
    };
    for s in &capacity {
        out.count(check(s));
    }
    for (k, s) in paced.iter().enumerate() {
        let ok = verdicts.get(k).copied().unwrap_or_else(|| check(s));
        out.count(ok);
    }

    // Paced latencies, from when each request was due.
    let latency = |snn_only: bool| -> Vec<f64> {
        paced
            .iter()
            .filter(|s| s.snn() || !snn_only)
            .filter_map(|s| {
                let r = s.ok()?;
                Some(crate::measure::ms(s.sent - s.due + r.queued + r.service))
            })
            .collect()
    };
    let (latency_ms, snn_latency_ms) = (latency(false), latency(true));
    let late_ms: Vec<f64> = paced
        .iter()
        .map(|s| crate::measure::ms(s.sent - s.due))
        .collect();
    record_request_spans(tr, &paced);

    let e2e = &mut out.end_to_end;
    e2e.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    e2e.insert("throughput_per_s", rl.throughput(CAPACITY_BLOCK));
    // The stream's latency is bimodal (ANN requests take a few ms, SNN
    // requests tens), so a pooled median would sit on the slowest ANN
    // request. The end-to-end median is the SNN requests'; the pooled
    // tail is a per-layer figure.
    e2e.insert("latency_p50_ms", median(&snn_latency_ms).unwrap_or(0.0));
    let per_request = replayed.len().max(1) as f64;
    e2e.insert("sim_read_energy_nj", replay_energy_j * 1e9 / per_request);
    e2e.insert("sim_waves", replay_waves as f64 / per_request);

    let layer = &mut out.per_layer;
    crate::setup_layers(tr, layer);
    for (metric, span, p) in [
        ("serve.ann.queued_ms_p50", "serve.ann.queued", 50.0),
        ("serve.ann.queued_ms_p90", "serve.ann.queued", 90.0),
        ("serve.snn.queued_ms_p50", "serve.snn.queued", 50.0),
        ("serve.snn.queued_ms_p90", "serve.snn.queued", 90.0),
        ("serve.ann.service_ms_p50", "serve.ann.service", 50.0),
        ("serve.snn.service_ms_p50", "serve.snn.service", 50.0),
        ("serve.snn.service_ms_p90", "serve.snn.service", 90.0),
    ] {
        let v = tr.self_ms(span);
        let value = if p == 50.0 {
            median(&v)
        } else {
            tail_percentile(&v, p)
        };
        layer.insert(metric, value.unwrap_or(0.0));
    }
    for m in &stats.models {
        if m.model == ANN {
            layer.insert("serve.ann.batch_mean", m.mean_batch());
        } else {
            layer.insert("serve.snn.batch_mean", m.mean_batch());
            layer.insert("serve.snn.largest_batch", m.largest_batch as f64);
        }
    }
    layer.insert("multichip.stages", stages_of(&snn_fast) as f64);
    layer.insert(
        "multichip.transfers_per_request",
        traffic.transfers as f64 / replayed_snn,
    );
    layer.insert(
        "noc.flit_hops_per_request",
        traffic.flit_hops as f64 / replayed_snn,
    );
    layer.insert(
        "noc.link_flit_hops_per_request",
        traffic.link_flit_hops as f64 / replayed_snn,
    );
    layer.insert(
        "serve.latency_p90_ms",
        tail_percentile(&latency_ms, 90.0).unwrap_or(0.0),
    );
    layer.insert(
        "serve.generator_late_ms_p90",
        tail_percentile(&late_ms, 90.0).unwrap_or(0.0),
    );
    layer.insert(
        "serve.submit_blocked_ms",
        median(&blocked_ms).unwrap_or(0.0),
    );
    let failed = capacity
        .iter()
        .chain(&paced)
        .filter(|s| s.ok().is_none())
        .count();
    layer.insert("serve.failed", failed as f64);
    layer.insert("crossbar.cache_bytes", cache_bytes as f64);
    layer.insert("analog.program_energy_nj", program_energy_nj);
    layer.insert("workloads.input_density", density);
    layer.insert("host.cpu_s", cpu_s);
    layer.insert("host.steal_ms", steal_ms);
    layer.insert("trace.overhead_pct", rl.overhead_pct());
    layer.insert("timed.samples", latency_ms.len() as f64);
    layer.insert("oracle.checked", checked as f64);
    out
}

/// Records each paced request as a `serve.request` span from due time
/// to completion, with its generator lateness, queueing and service as
/// children. Queueing and service come from the response's durations.
fn record_request_spans(tr: &mut Tracer, paced: &[Sent]) {
    for s in paced {
        let Some(r) = s.ok() else { continue };
        let id = Some(s.index as u64);
        let (queued_name, service_name) = if s.snn() {
            ("serve.snn.queued", "serve.snn.service")
        } else {
            ("serve.ann.queued", "serve.ann.service")
        };
        let dispatched = s.sent + r.queued;
        let done = dispatched + r.service;
        let root = tr.record("serve.request", s.due, done, None, id);
        tr.record("serve.late", s.due, s.sent, root, id);
        tr.record(queued_name, s.sent, dispatched, root, id);
        tr.record(service_name, dispatched, done, root, id);
    }
}

/// Chips that hold a pipeline stage: those whose mesh has carried
/// traffic in `replayed`.
fn stages_of(replayed: &ShardedSpikingNetwork) -> usize {
    (0..replayed.chips())
        .filter(|&c| replayed.cluster().chip(c).stats().transfers > 0)
        .count()
}
