//! Serving-layer correctness suite: dynamic batching must never change
//! a tenant's answer, every accepted request must be answered exactly
//! once, a full queue must apply backpressure without dropping or
//! deadlocking, and shutdown must drain requests already in flight.
//!
//! All tests are deterministic without loom: bitwise assertions compare
//! served responses against fresh sequential-reference chips, the
//! backpressure test constructs a provably-stuck queue (capacity <
//! `max_batch` with a long `max_wait`, so the batcher cannot dispatch
//! before shutdown), and exactly-once is enforced structurally by the
//! response slots plus response counting here.

use nebula_core::analog::{compile_ann, AnalogError};
use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork, Draws};
use nebula_core::oracle;
use nebula_core::serve::{
    InferenceRequest, ModelSpec, RequestKind, ServeConfig, ServeError, Server,
};
use nebula_nn::convert::{ann_to_snn, ConversionConfig};
use nebula_nn::optim::{train, Dataset, TrainConfig};
use nebula_nn::{Layer, Network};
use nebula_tensor::Tensor;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(2026)
}

/// Trains a small two-feature classifier with inputs in [0, 1].
fn trained_net(r: &mut rand::rngs::StdRng) -> (Network, Dataset) {
    let inputs = Tensor::rand_uniform(&[120, 2], 0.0, 1.0, r);
    let labels: Vec<usize> = (0..120)
        .map(|i| usize::from(inputs.data()[2 * i] < inputs.data()[2 * i + 1]))
        .collect();
    let data = Dataset::new(inputs, labels).unwrap();
    let mut net = Network::new(vec![
        Layer::dense(2, 12, r),
        Layer::relu(),
        Layer::dense(12, 2, r),
    ]);
    let cfg = TrainConfig::builder().epochs(20).batch_size(20).build();
    train(&mut net, &data, &cfg, r).unwrap();
    (net, data)
}

fn snn_chip(r: &mut rand::rngs::StdRng) -> AnalogSpikingNetwork {
    let (net, data) = trained_net(r);
    let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
    compile_snn_default(&functional).unwrap()
}

fn input(r: &mut rand::rngs::StdRng, rows: usize) -> Tensor {
    Tensor::rand_uniform(&[rows, 2], 0.0, 1.0, r)
}

#[test]
fn served_ann_batches_are_bitwise_identical_to_sequential() {
    let mut r = rng();
    let (net, _) = trained_net(&mut r);
    let chip = compile_ann(&net).unwrap();
    let mut reference = chip.clone();
    let inputs: Vec<Tensor> = (0..6).map(|i| input(&mut r, 1 + i % 3)).collect();

    // max_batch == request count and a generous max_wait, so the batcher
    // coalesces everything submitted before dispatch.
    let cfg = ServeConfig {
        queue_capacity: 16,
        max_batch: inputs.len(),
        max_wait: Duration::from_secs(5),
    };
    let server = Server::start(cfg, vec![ModelSpec::ann("mlp", chip, 1)]).unwrap();
    let handles: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            server
                .submit(InferenceRequest {
                    model: "mlp".into(),
                    tenant: i as u64,
                    input: x.clone(),
                    kind: RequestKind::Ann,
                })
                .unwrap()
        })
        .collect();
    for (x, h) in inputs.iter().zip(handles) {
        let resp = h.wait().unwrap();
        let expect = oracle::forward(&mut reference, x).unwrap();
        assert_eq!(resp.output.shape(), expect.shape());
        for (a, b) in resp.output.data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "served {a} vs sequential {b}");
        }
    }
}

#[test]
fn served_snn_seeds_stay_per_request_inside_a_batch() {
    let mut r = rng();
    let chip = snn_chip(&mut r);
    let inputs: Vec<(Tensor, u64)> = (0..4)
        .map(|i| (input(&mut r, 2), 1000 + i as u64))
        .collect();

    let cfg = ServeConfig {
        queue_capacity: 16,
        max_batch: inputs.len(),
        max_wait: Duration::from_secs(5),
    };
    let server = Server::start(cfg, vec![ModelSpec::snn("snn", chip.clone(), 1)]).unwrap();
    let handles: Vec<_> = inputs
        .iter()
        .map(|(x, seed)| {
            server
                .submit(InferenceRequest {
                    model: "snn".into(),
                    tenant: *seed,
                    input: x.clone(),
                    kind: RequestKind::Snn {
                        timesteps: 40,
                        seed: *seed,
                    },
                })
                .unwrap()
        })
        .collect();
    for ((x, seed), h) in inputs.iter().zip(handles) {
        let resp = h.wait().unwrap();
        // A solo sequential run with this request's seed must match the
        // coalesced answer bit for bit.
        let mut reference = chip.clone();
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(*seed);
        let expect = oracle::run(&mut reference, x, 40, Draws::Stream(&mut seed_rng)).unwrap();
        assert_eq!(resp.output.shape(), expect.shape());
        for (a, b) in resp.output.data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "served {a} vs sequential {b}");
        }
    }
}

#[test]
fn single_item_batch_accrues_exactly_sequential_energy() {
    let mut r = rng();
    let (net, _) = trained_net(&mut r);
    let chip = compile_ann(&net).unwrap();
    let mut reference = chip.clone();
    let x = input(&mut r, 3);

    // max_batch == 1 so the lone request is a one-item batch.
    let cfg = ServeConfig {
        queue_capacity: 4,
        max_batch: 1,
        max_wait: Duration::from_millis(1),
    };
    let mut server = Server::start(cfg, vec![ModelSpec::ann("mlp", chip, 1)]).unwrap();
    let resp = server
        .submit(InferenceRequest {
            model: "mlp".into(),
            tenant: 7,
            input: x.clone(),
            kind: RequestKind::Ann,
        })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(resp.batched_with, 1);
    server.shutdown();

    let expect = oracle::forward(&mut reference, &x).unwrap();
    for (a, b) in resp.output.data().iter().zip(expect.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let stats = server.stats();
    assert_eq!(stats.models.len(), 1);
    assert_eq!(stats.models[0].requests, 1);
    assert_eq!(stats.models[0].waves, reference.waves());
    assert_eq!(
        stats.models[0].read_energy.0.to_bits(),
        reference.read_energy().0.to_bits(),
        "served single-item energy must equal the sequential reference exactly"
    );
}

#[test]
fn empty_and_zero_timestep_requests_do_not_panic() {
    let mut r = rng();
    let (net, _) = trained_net(&mut r);
    let ann = compile_ann(&net).unwrap();
    let snn = snn_chip(&mut r);
    let snn_ref = snn.clone();
    let mut server = Server::start(
        ServeConfig::default(),
        vec![ModelSpec::ann("mlp", ann, 1), ModelSpec::snn("snn", snn, 1)],
    )
    .unwrap();

    // Zero-row ANN request: an empty batch through the evaluator.
    let empty = server
        .submit(InferenceRequest {
            model: "mlp".into(),
            tenant: 1,
            input: Tensor::zeros(&[0, 2]),
            kind: RequestKind::Ann,
        })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(empty.output.shape(), &[0, 2]);

    // Zero-timestep SNN request: shaped zeros, no energy.
    let zero_t = server
        .submit(InferenceRequest {
            model: "snn".into(),
            tenant: 2,
            input: Tensor::full(&[3, 2], 0.5),
            kind: RequestKind::Snn {
                timesteps: 0,
                seed: 9,
            },
        })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(zero_t.output.shape(), &[3, 2]);
    assert!(zero_t.output.data().iter().all(|&v| v == 0.0));

    // Zero-row SNN request alongside a real one: the empty group
    // consumes no RNG, so the non-empty request still matches its solo
    // run whether or not the two coalesced.
    let x = input(&mut r, 2);
    let h_empty = server
        .submit(InferenceRequest {
            model: "snn".into(),
            tenant: 3,
            input: Tensor::zeros(&[0, 2]),
            kind: RequestKind::Snn {
                timesteps: 15,
                seed: 4,
            },
        })
        .unwrap();
    let h_real = server
        .submit(InferenceRequest {
            model: "snn".into(),
            tenant: 4,
            input: x.clone(),
            kind: RequestKind::Snn {
                timesteps: 15,
                seed: 5,
            },
        })
        .unwrap();
    assert_eq!(h_empty.wait().unwrap().output.shape(), &[0, 2]);
    let real = h_real.wait().unwrap();
    let mut reference = snn_ref;
    let mut seed_rng = rand::rngs::StdRng::seed_from_u64(5);
    let expect = oracle::run(&mut reference, &x, 15, Draws::Stream(&mut seed_rng)).unwrap();
    for (a, b) in real.output.data().iter().zip(expect.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    server.shutdown();
    let stats = server.stats();
    assert_eq!(
        stats.models.iter().map(|m| m.requests).sum::<u64>(),
        4,
        "every accepted request must be dispatched"
    );
}

#[test]
fn invalid_requests_are_rejected_up_front() {
    let mut r = rng();
    let (net, _) = trained_net(&mut r);
    let chip = compile_ann(&net).unwrap();
    let server =
        Server::start(ServeConfig::default(), vec![ModelSpec::ann("mlp", chip, 1)]).unwrap();
    let err = server
        .submit(InferenceRequest {
            model: "nope".into(),
            tenant: 0,
            input: input(&mut r, 1),
            kind: RequestKind::Ann,
        })
        .unwrap_err();
    assert_eq!(err, ServeError::UnknownModel("nope".into()));
    let err = server
        .submit(InferenceRequest {
            model: "mlp".into(),
            tenant: 0,
            input: input(&mut r, 1),
            kind: RequestKind::Snn {
                timesteps: 10,
                seed: 0,
            },
        })
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::WrongKind {
            model: "mlp".into(),
            expected: "ann",
        }
    );

    // Config validation: zero replicas is refused at startup.
    let mut r2 = rng();
    let (net2, _) = trained_net(&mut r2);
    let chip2 = compile_ann(&net2).unwrap();
    assert!(matches!(
        Server::start(ServeConfig::default(), vec![ModelSpec::ann("m", chip2, 0)]),
        Err(ServeError::BadRequest(_))
    ));
}

/// A server without limits: an unbounded queue reserves nothing up
/// front, and a `max_wait` too long to add to an `Instant` is no
/// deadline. It starts; a batch dispatches once full, and a lone request
/// at shutdown — each bitwise like the sequential reference.
#[test]
fn a_server_without_limits_starts_and_serves_bitwise() {
    let mut r = rng();
    let (net, _) = trained_net(&mut r);
    let chip = compile_ann(&net).unwrap();
    let mut reference = chip.clone();
    let cfg = ServeConfig {
        queue_capacity: usize::MAX,
        max_batch: 2,
        max_wait: Duration::MAX,
    };
    let server = Server::start(cfg, vec![ModelSpec::ann("mlp", chip, 1)]).unwrap();
    let inputs: Vec<Tensor> = (0..3).map(|i| input(&mut r, 1 + i)).collect();
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| {
            server
                .submit(InferenceRequest {
                    model: "mlp".into(),
                    tenant: 0,
                    input: x.clone(),
                    kind: RequestKind::Ann,
                })
                .unwrap()
        })
        .collect();
    // The first two fill a batch; the third waits for shutdown.
    for (i, (x, h)) in inputs.iter().zip(&handles).enumerate() {
        if i == 2 {
            server.begin_shutdown();
        }
        let resp = h.wait_for(Duration::from_secs(60)).expect("dispatched");
        let got = resp.unwrap().output;
        let want = oracle::forward(&mut reference, x).unwrap();
        assert_eq!(got.shape(), want.shape());
        for (a, b) in got.data().iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "served {a} vs sequential {b}");
        }
    }
}

#[test]
fn a_non_finite_request_never_fails_another_tenants_batch() {
    // Between two valid requests another tenant submits a NaN and an
    // infinity. Both are refused at submit, with the index into their
    // own input, so the batch the valid requests share (max_batch 2,
    // long max_wait) answers both of them bit for bit.
    let mut r = rng();
    let (net, _) = trained_net(&mut r);
    let ann = compile_ann(&net).unwrap();
    let snn = snn_chip(&mut r);
    let cfg = ServeConfig {
        queue_capacity: 8,
        max_batch: 2,
        max_wait: Duration::from_secs(5),
    };
    let server = Server::start(
        cfg,
        vec![
            ModelSpec::ann("mlp", ann.clone(), 1),
            ModelSpec::snn("snn", snn.clone(), 1),
        ],
    )
    .unwrap();
    let kinds = [
        ("mlp", RequestKind::Ann),
        (
            "snn",
            RequestKind::Snn {
                timesteps: 30,
                seed: 77,
            },
        ),
    ];
    for (model, kind) in kinds {
        let request = |tenant: u64, input: Tensor| InferenceRequest {
            model: model.into(),
            tenant,
            input,
            kind,
        };
        let good: Vec<Tensor> = (0..2).map(|_| input(&mut r, 2)).collect();
        let first = server.submit(request(1, good[0].clone())).unwrap();
        for bad in [f32::NAN, f32::INFINITY] {
            let mut data = input(&mut r, 2).data().to_vec();
            data[3] = bad;
            let err = server
                .submit(request(2, Tensor::from_vec(data, &[2, 2]).unwrap()))
                .unwrap_err();
            assert_eq!(
                err,
                ServeError::Analog(AnalogError::NonFiniteInput { index: 3 }),
                "{model}"
            );
        }
        let second = server.submit(request(3, good[1].clone())).unwrap();
        for (x, h) in good.iter().zip([first, second]) {
            let resp = h.wait().unwrap();
            assert_eq!(
                resp.batched_with, 2,
                "{model}: the valid pair shares a batch"
            );
            let expect = match kind {
                RequestKind::Ann => oracle::forward(&mut ann.clone(), x).unwrap(),
                RequestKind::Snn { timesteps, seed } => {
                    let mut seed_rng = rand::rngs::StdRng::seed_from_u64(seed);
                    oracle::run(&mut snn.clone(), x, timesteps, Draws::Stream(&mut seed_rng))
                        .unwrap()
                }
            };
            assert_eq!(resp.output.shape(), expect.shape());
            for (a, b) in resp.output.data().iter().zip(expect.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{model}: served {a} vs {b}");
            }
        }
    }
}

#[test]
fn concurrent_submitters_are_each_answered_exactly_once_and_bitwise() {
    let mut r = rng();
    let (net, _) = trained_net(&mut r);
    let chip = compile_ann(&net).unwrap();
    let snn = snn_chip(&mut r);

    // A deliberately tight queue so submitters hit backpressure, and two
    // replicas per model so batches race for chips.
    let cfg = ServeConfig {
        queue_capacity: 3,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
    };
    let server = Arc::new(
        Server::start(
            cfg,
            vec![
                ModelSpec::ann("mlp", chip.clone(), 2),
                ModelSpec::snn("snn", snn.clone(), 2),
            ],
        )
        .unwrap(),
    );

    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 8;
    let mut threads = Vec::new();
    for t in 0..SUBMITTERS {
        let server = Arc::clone(&server);
        let chip = chip.clone();
        let snn = snn.clone();
        threads.push(std::thread::spawn(move || {
            let mut tr = rand::rngs::StdRng::seed_from_u64(5000 + t as u64);
            for i in 0..PER_SUBMITTER {
                let x = Tensor::rand_uniform(&[1 + i % 2, 2], 0.0, 1.0, &mut tr);
                let snn_job = i % 2 == 1;
                let seed = (t * 100 + i) as u64;
                let resp = server
                    .submit(InferenceRequest {
                        model: if snn_job { "snn".into() } else { "mlp".into() },
                        tenant: t as u64,
                        input: x.clone(),
                        kind: if snn_job {
                            RequestKind::Snn {
                                timesteps: 20,
                                seed,
                            }
                        } else {
                            RequestKind::Ann
                        },
                    })
                    .unwrap()
                    .wait()
                    .unwrap();
                // Bitwise check against a solo sequential reference run,
                // independent of how this request was coalesced.
                let expect = if snn_job {
                    let mut reference = snn.clone();
                    let mut seed_rng = rand::rngs::StdRng::seed_from_u64(seed);
                    oracle::run(&mut reference, &x, 20, Draws::Stream(&mut seed_rng)).unwrap()
                } else {
                    let mut reference = chip.clone();
                    oracle::forward(&mut reference, &x).unwrap()
                };
                assert_eq!(resp.output.shape(), expect.shape());
                for (a, b) in resp.output.data().iter().zip(expect.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "t={t} i={i}");
                }
            }
            PER_SUBMITTER
        }));
    }
    let total: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(total, SUBMITTERS * PER_SUBMITTER);

    // Tear down and audit the counters: every request dispatched exactly
    // once, and per-tenant accounting adds up.
    let mut server = Arc::try_unwrap(server).ok().expect("submitters done");
    server.shutdown();
    let stats = server.stats();
    let dispatched: u64 = stats.models.iter().map(|m| m.requests).sum();
    assert_eq!(dispatched, (SUBMITTERS * PER_SUBMITTER) as u64);
    for m in &stats.models {
        let per_tenant: u64 = m.per_tenant.iter().map(|&(_, n)| n).sum();
        assert_eq!(per_tenant, m.requests, "model {}", m.model);
        assert!(m.largest_batch >= 1 && m.largest_batch <= 4);
        assert!(m.batches >= 1 && m.batches <= m.requests);
    }
}

#[test]
fn full_queue_applies_backpressure_and_shutdown_drains_in_flight() {
    let mut r = rng();
    let (net, _) = trained_net(&mut r);
    let chip = compile_ann(&net).unwrap();
    let mut reference = chip.clone();

    // capacity < max_batch with a very long max_wait: the batcher can
    // never reach max_batch (the queue is too small) and never times out
    // within the test, so queued requests provably stay queued until
    // shutdown — making QueueFull and the shutdown drain deterministic.
    let cfg = ServeConfig {
        queue_capacity: 2,
        max_batch: 4,
        max_wait: Duration::from_secs(600),
    };
    let mut server = Server::start(cfg, vec![ModelSpec::ann("mlp", chip, 1)]).unwrap();
    let xs: Vec<Tensor> = (0..2).map(|_| input(&mut r, 1)).collect();
    let handles: Vec<_> = xs
        .iter()
        .map(|x| {
            server
                .try_submit(InferenceRequest {
                    model: "mlp".into(),
                    tenant: 0,
                    input: x.clone(),
                    kind: RequestKind::Ann,
                })
                .unwrap()
        })
        .collect();
    assert_eq!(server.queued("mlp"), Some(2));

    // Queue full: non-blocking submit must report it, not drop.
    let err = server
        .try_submit(InferenceRequest {
            model: "mlp".into(),
            tenant: 1,
            input: input(&mut r, 1),
            kind: RequestKind::Ann,
        })
        .unwrap_err();
    assert_eq!(err, ServeError::QueueFull);

    // A blocking submitter parks on the full queue; shutdown with
    // requests in flight refuses it (never silently drops it) and
    // drains everything queued.
    let x_blocked = input(&mut r, 1);
    let blocked = std::thread::scope(|scope| {
        let server_ref = &server;
        let handle = scope.spawn(move || {
            server_ref.submit(InferenceRequest {
                model: "mlp".into(),
                tenant: 2,
                input: x_blocked,
                kind: RequestKind::Ann,
            })
        });
        assert!(
            handles[0].wait_for(Duration::from_millis(50)).is_none(),
            "no dispatch may happen before shutdown"
        );
        server.begin_shutdown();
        handle.join().unwrap()
    });
    assert_eq!(blocked.unwrap_err(), ServeError::ShuttingDown);
    server.shutdown();

    for (x, h) in xs.iter().zip(handles) {
        let resp = h.wait().unwrap();
        let expect = oracle::forward(&mut reference, x).unwrap();
        for (a, b) in resp.output.data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Both drained requests went out in one wave.
        assert_eq!(resp.batched_with, 2);
    }
}

#[test]
fn sharded_models_serve_bitwise_identically_through_the_same_request_path() {
    use nebula_core::components::MAX_RF_IN_CORE;
    use nebula_core::multichip::ShardStrategy;
    use nebula_nn::snn::{IfPopulation, InputEncoding, ResetMode, SnnStage, SpikingNetwork};

    let mut r = rng();
    // Wide first layers (> one 2048-row segment) so tensor sharding has
    // real work: the layer splits across the 3-chip cluster and partial
    // sums cross the ring.
    let wide = MAX_RF_IN_CORE + 9;
    let ann = compile_ann(&Network::new(vec![
        Layer::dense(wide, 8, &mut r),
        Layer::relu(),
        Layer::dense(8, 3, &mut r),
    ]))
    .unwrap();
    let snn = compile_snn_default(&SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::dense(wide, 6, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::dense(6, 3, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Zero)),
        ],
        InputEncoding::Poisson,
    ))
    .unwrap();
    let sharded_ann = ann.clone().shard(3, ShardStrategy::TensorSharded).unwrap();
    let sharded_snn = snn.clone().shard(3, ShardStrategy::TensorSharded).unwrap();
    let cfg = ServeConfig {
        queue_capacity: 16,
        max_batch: 2,
        max_wait: Duration::from_millis(20),
    };
    let server = Server::start(
        cfg,
        vec![
            ModelSpec::ann("wide-ann", sharded_ann, 1),
            ModelSpec::snn("wide-snn", sharded_snn, 1),
        ],
    )
    .unwrap();
    let xa = Tensor::rand_uniform(&[2, wide], 0.0, 1.0, &mut r);
    let xs = Tensor::rand_uniform(&[2, wide], 0.0, 1.0, &mut r);
    let ha = server
        .submit(InferenceRequest {
            model: "wide-ann".into(),
            tenant: 1,
            input: xa.clone(),
            kind: RequestKind::Ann,
        })
        .unwrap();
    let hs = server
        .submit(InferenceRequest {
            model: "wide-snn".into(),
            tenant: 2,
            input: xs.clone(),
            kind: RequestKind::Snn {
                timesteps: 12,
                seed: 77,
            },
        })
        .unwrap();
    // Reference: the same compiled nets, unsharded, on one chip.
    let expect_a = oracle::forward(&mut ann.clone(), &xa).unwrap();
    let expect_s = oracle::run(&mut snn.clone(), &xs, 12, Draws::Groups(&[(2, 77)])).unwrap();
    for (resp, expect) in [
        (ha.wait().unwrap(), expect_a),
        (hs.wait().unwrap(), expect_s),
    ] {
        assert_eq!(resp.output.shape(), expect.shape());
        for (a, b) in resp.output.data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "served {a} vs single-chip {b}");
        }
    }
}
