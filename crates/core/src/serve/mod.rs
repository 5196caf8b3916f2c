//! Async multi-tenant inference serving with dynamic batching.
//!
//! This module turns the circuit-level simulator into a long-running
//! service: tenants submit ANN and SNN inference jobs for mixed models
//! concurrently, a dynamic batcher coalesces compatible requests (same
//! model, same per-sample shape, same SNN timestep count) into single
//! crossbar waves, and each model runs on a pool of programmed chip
//! replicas ([`ChipPool`]) so the long-lived "programmed chip state" is
//! decoupled from transient "in-flight request state".
//!
//! # Architecture
//!
//! ```text
//! tenants ──submit──▶ per-model RequestQueue (bounded, backpressure)
//!                          │ next_batch: ≤ max_batch compatible
//!                          │ requests, or max_wait deadline
//!                     batch workers (replicas per model)
//!                          │ checkout ──▶ ChipPool ◀── checkin
//!                          ▼
//!                 AnalogNetwork::forward /
//!                 AnalogSpikingNetwork::run_seeded_groups
//!                 (the placement's pipeline executor, one
//!                  chip or many, over the split-phase batched
//!                  evaluators on nebula_tensor::pool workers)
//!                          │ split outputs per request
//!                          ▼
//!                 ResponseHandle::wait (exactly one answer each)
//! ```
//!
//! # Bit-identity
//!
//! Dynamic batching never changes a tenant's answer. The batched
//! evaluators compute every item's floating-point work per-item pure
//! (`dot_batch_with` / `scatter_spikes` are bit-identical to the
//! sequential reference per item, for any worker count), concatenating
//! request rows into one wave is associativity-free (each output row
//! depends only on its input row), and each SNN request carries its own
//! seed whose RNG stream is consumed exactly as a solo run would
//! ([`AnalogSpikingNetwork::run_seeded_groups`]). So a served response
//! is bit-identical to running that request alone through
//! `forward_sequential` / `run_sequential` — asserted end-to-end by
//! `bench_serving` and the serving test suite.
//!
//! # Backpressure and shutdown
//!
//! Queues are bounded: [`Server::submit`] blocks while full (never
//! drops), [`Server::try_submit`] reports [`ServeError::QueueFull`].
//! [`Server::shutdown`] is graceful: queued requests are drained and
//! answered, blocked submitters fail with [`ServeError::ShuttingDown`],
//! and every accepted request is answered exactly once.

mod chip_pool;
mod oneshot;
mod queue;

pub use chip_pool::{ChipPool, ModelChip};

use crate::analog::{check_finite, AnalogError};
use crate::analog_snn::AnalogSpikingNetwork;
use nebula_device::units::Joules;
use nebula_tensor::Tensor;
use oneshot::OneShot;
use queue::{Pending, RequestQueue};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors the serving layer reports.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request named a model the server does not host.
    UnknownModel(String),
    /// The request kind does not match the model's chip mode.
    WrongKind {
        /// Model the request addressed.
        model: String,
        /// The kind that model serves (`"ann"` / `"snn"`).
        expected: &'static str,
    },
    /// Non-blocking submit found the model's queue at capacity.
    QueueFull,
    /// The server is shutting down and accepts no new requests.
    ShuttingDown,
    /// The request is malformed (e.g. missing the batch axis).
    BadRequest(String),
    /// The analog evaluator rejected the batch.
    Analog(AnalogError),
    /// A batch worker panicked while evaluating (a bug, surfaced as an
    /// answer so no tenant hangs).
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(m) => write!(f, "unknown model `{m}`"),
            ServeError::WrongKind { model, expected } => {
                write!(f, "model `{model}` serves {expected} requests")
            }
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadRequest(r) => write!(f, "bad request: {r}"),
            ServeError::Analog(e) => write!(f, "analog evaluation failed: {e}"),
            ServeError::Internal(r) => write!(f, "internal serving failure: {r}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AnalogError> for ServeError {
    fn from(e: AnalogError) -> Self {
        ServeError::Analog(e)
    }
}

/// How a request wants its model evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// One ANN forward pass.
    Ann,
    /// A spiking run. Only requests with equal `timesteps` share a
    /// batch; `seed` stays per-request — it seeds this request's own
    /// Poisson-encoder RNG stream inside the batched wave, which is
    /// what keeps coalesced answers bit-identical to solo runs.
    Snn {
        /// Timesteps to integrate.
        timesteps: usize,
        /// Seed for this request's input-encoding RNG stream.
        seed: u64,
    },
}

/// One inference job.
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    /// Registered model name.
    pub model: String,
    /// Tenant identifier (for per-tenant accounting).
    pub tenant: u64,
    /// Input batch `[n, per-sample dims…]`; `n ≥ 0` samples evaluated
    /// as one unit (a request is never split across waves).
    pub input: Tensor,
    /// ANN forward or seeded SNN run.
    pub kind: RequestKind,
}

/// The answer to one [`InferenceRequest`].
#[derive(Debug, Clone)]
pub struct InferenceResponse {
    /// Model output for exactly this request's rows (logits for ANN,
    /// accumulated output potentials for SNN).
    pub output: Tensor,
    /// Requests that shared the crossbar wave, this one included.
    pub batched_with: usize,
    /// Time from arrival to batch dispatch (queueing + batching wait).
    pub queued: Duration,
    /// Time from dispatch to completion (chip checkout + evaluation).
    pub service: Duration,
}

/// A claim on a future [`InferenceResponse`]; every accepted request is
/// answered exactly once.
pub struct ResponseHandle {
    slot: Arc<OneShot<Result<InferenceResponse, ServeError>>>,
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseHandle").finish_non_exhaustive()
    }
}

impl ResponseHandle {
    /// Blocks until the request is answered.
    ///
    /// # Errors
    ///
    /// Whatever the serving layer answered with (evaluation failure,
    /// worker panic).
    pub fn wait(self) -> Result<InferenceResponse, ServeError> {
        self.slot.wait()
    }

    /// Waits up to `timeout`; `None` if the answer has not arrived yet
    /// (it stays claimable by a later call).
    pub fn wait_for(&self, timeout: Duration) -> Option<Result<InferenceResponse, ServeError>> {
        self.slot.wait_for(timeout)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Per-model queue bound; a full queue blocks [`Server::submit`]
    /// (backpressure) and rejects [`Server::try_submit`].
    pub queue_capacity: usize,
    /// Most requests one crossbar wave coalesces.
    pub max_batch: usize,
    /// Longest a request waits for batch companions before its batch
    /// dispatches anyway.
    pub max_wait: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// A model to host: a programmed chip prototype plus how many replicas
/// to pool.
#[derive(Debug)]
pub struct ModelSpec {
    /// Name requests address.
    pub name: String,
    /// Programmed prototype; replicas are clones of it.
    pub chip: ModelChip,
    /// Pooled chip instances (= concurrent batches for this model).
    pub replicas: usize,
}

impl ModelSpec {
    /// An ANN model spec.
    pub fn ann(name: &str, chip: crate::analog::AnalogNetwork, replicas: usize) -> Self {
        Self {
            name: name.to_string(),
            chip: ModelChip::Ann(chip),
            replicas,
        }
    }

    /// An SNN model spec.
    pub fn snn(name: &str, chip: AnalogSpikingNetwork, replicas: usize) -> Self {
        Self {
            name: name.to_string(),
            chip: ModelChip::Snn(chip),
            replicas,
        }
    }

    /// [`snn`](Self::snn) under the name perfbench uses for a sharded
    /// network: a network on any placement is served the same way. It
    /// stays until perfbench is next changed (ROADMAP.md, item 10).
    pub fn sharded_snn(name: &str, chip: AnalogSpikingNetwork, replicas: usize) -> Self {
        Self::snn(name, chip, replicas)
    }
}

#[derive(Default)]
struct ModelCounters {
    requests: u64,
    batches: u64,
    largest_batch: usize,
    per_tenant: HashMap<u64, u64>,
}

struct ModelState {
    name: String,
    kind: &'static str,
    queue: RequestQueue,
    chips: ChipPool,
    counters: Mutex<ModelCounters>,
}

/// Serving statistics for one model.
#[derive(Debug, Clone)]
pub struct ModelStats {
    /// Model name.
    pub model: String,
    /// `"ann"` or `"snn"`.
    pub kind: &'static str,
    /// Chip replicas pooled.
    pub replicas: usize,
    /// Requests answered (dispatched into waves).
    pub requests: u64,
    /// Crossbar waves dispatched (batches).
    pub batches: u64,
    /// Largest batch observed.
    pub largest_batch: usize,
    /// Requests per tenant, ascending by tenant id.
    pub per_tenant: Vec<(u64, u64)>,
    /// Read energy summed over idle replicas (exact after shutdown).
    pub read_energy: Joules,
    /// Evaluation waves summed over idle replicas (exact after
    /// shutdown).
    pub waves: u64,
}

impl ModelStats {
    /// Mean requests per dispatched batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Whole-server statistics snapshot.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Per-model statistics, in registration order.
    pub models: Vec<ModelStats>,
}

/// The inference server: per-model queues, batch workers and chip
/// pools. See the [module docs](self) for the architecture.
pub struct Server {
    models: Vec<Arc<ModelState>>,
    by_name: HashMap<String, usize>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boots the server: programs nothing (chips arrive pre-programmed
    /// in `specs`), builds one queue + chip pool per model and spawns
    /// `replicas` batch workers each.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for zero replicas/capacity/batch or a
    /// duplicate model name.
    pub fn start(config: ServeConfig, specs: Vec<ModelSpec>) -> Result<Self, ServeError> {
        if config.queue_capacity == 0 || config.max_batch == 0 {
            return Err(ServeError::BadRequest(
                "queue_capacity and max_batch must be at least 1".into(),
            ));
        }
        let mut models = Vec::with_capacity(specs.len());
        let mut by_name = HashMap::with_capacity(specs.len());
        for spec in specs {
            if spec.replicas == 0 {
                return Err(ServeError::BadRequest(format!(
                    "model `{}` needs at least one replica",
                    spec.name
                )));
            }
            if by_name.contains_key(&spec.name) {
                return Err(ServeError::BadRequest(format!(
                    "duplicate model name `{}`",
                    spec.name
                )));
            }
            let state = Arc::new(ModelState {
                name: spec.name.clone(),
                kind: spec.chip.kind_name(),
                queue: RequestQueue::new(config.queue_capacity),
                chips: ChipPool::new(spec.chip, spec.replicas),
                counters: Mutex::new(ModelCounters::default()),
            });
            by_name.insert(spec.name, models.len());
            models.push(state);
        }
        let mut workers = Vec::new();
        for state in &models {
            for w in 0..state.chips.replicas() {
                let state = Arc::clone(state);
                let cfg = config;
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("nebula-serve-{}-{w}", state.name))
                        .spawn(move || worker_loop(&state, cfg))
                        .map_err(|e| ServeError::Internal(format!("spawn failed: {e}")))?,
                );
            }
        }
        Ok(Self {
            models,
            by_name,
            workers,
        })
    }

    fn make_pending(
        &self,
        req: InferenceRequest,
    ) -> Result<(&Arc<ModelState>, Pending, ResponseHandle), ServeError> {
        let state = self
            .by_name
            .get(&req.model)
            .map(|&i| &self.models[i])
            .ok_or_else(|| ServeError::UnknownModel(req.model.clone()))?;
        let kind = match req.kind {
            RequestKind::Ann => "ann",
            RequestKind::Snn { .. } => "snn",
        };
        if kind != state.kind {
            return Err(ServeError::WrongKind {
                model: req.model,
                expected: state.kind,
            });
        }
        if req.input.shape().is_empty() {
            return Err(ServeError::BadRequest(
                "input must have a leading batch axis".into(),
            ));
        }
        // Refused here, per request: inside a coalesced batch the
        // engines' own check would fail every tenant in the batch.
        check_finite(&req.input)?;
        let slot = Arc::new(OneShot::new());
        let pending = Pending {
            tenant: req.tenant,
            input: req.input,
            kind: req.kind,
            slot: Arc::clone(&slot),
            arrived: Instant::now(),
        };
        Ok((state, pending, ResponseHandle { slot }))
    }

    /// Submits a request, blocking while the model's queue is full
    /// (backpressure — the request is never dropped).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] / [`ServeError::WrongKind`] /
    /// [`ServeError::BadRequest`] for invalid requests,
    /// [`ServeError::Analog`] with [`AnalogError::NonFiniteInput`] (its
    /// index into this request's own input) for a NaN or infinite input,
    /// [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn submit(&self, req: InferenceRequest) -> Result<ResponseHandle, ServeError> {
        let (state, pending, handle) = self.make_pending(req)?;
        state.queue.push_blocking(pending)?;
        Ok(handle)
    }

    /// Submits without blocking.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit), plus [`ServeError::QueueFull`] when
    /// the model's queue is at capacity.
    pub fn try_submit(&self, req: InferenceRequest) -> Result<ResponseHandle, ServeError> {
        let (state, pending, handle) = self.make_pending(req)?;
        state.queue.try_push(pending)?;
        Ok(handle)
    }

    /// Requests currently queued (unclaimed) for `model`; `None` for an
    /// unknown model.
    pub fn queued(&self, model: &str) -> Option<usize> {
        self.by_name.get(model).map(|&i| self.models[i].queue.len())
    }

    /// Signals shutdown without waiting: queues stop accepting
    /// requests (blocked submitters fail with
    /// [`ServeError::ShuttingDown`]) and workers begin draining what is
    /// already queued. Use [`shutdown`](Self::shutdown) to also join
    /// the workers.
    pub fn begin_shutdown(&self) {
        for state in &self.models {
            state.queue.shutdown();
        }
    }

    /// Graceful shutdown: stops accepting requests, lets workers drain
    /// and answer everything already queued, and joins them. Idempotent;
    /// also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside the evaluation guard has
            // already answered its batch; nothing more to salvage.
            let _ = worker.join();
        }
    }

    /// Snapshot of the serving statistics. Chip energy/wave totals sum
    /// the *idle* replicas, so they are exact once the server has shut
    /// down (or is quiescent).
    pub fn stats(&self) -> ServerStats {
        let models = self
            .models
            .iter()
            .map(|state| {
                let c = state.counters.lock().expect("counters poisoned");
                let mut per_tenant: Vec<(u64, u64)> =
                    c.per_tenant.iter().map(|(&t, &n)| (t, n)).collect();
                per_tenant.sort_unstable();
                ModelStats {
                    model: state.name.clone(),
                    kind: state.kind,
                    replicas: state.chips.replicas(),
                    requests: c.requests,
                    batches: c.batches,
                    largest_batch: c.largest_batch,
                    per_tenant,
                    read_energy: state.chips.total_read_energy(),
                    waves: state.chips.total_waves(),
                }
            })
            .collect();
        ServerStats { models }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(state: &ModelState, cfg: ServeConfig) {
    while let Some(batch) = state.queue.next_batch(cfg.max_batch, cfg.max_wait) {
        let dispatched = Instant::now();
        let mut chip = state.chips.checkout();
        // A panicking evaluator must not strand the batch's tenants (or
        // poison the whole server): catch it and answer with an error.
        let result = catch_unwind(AssertUnwindSafe(|| evaluate_batch(&mut chip, &batch)))
            .unwrap_or_else(|panic| {
                let reason = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "evaluator panicked".into());
                Err(ServeError::Internal(reason))
            });
        state.chips.checkin(chip);
        let done = Instant::now();
        {
            let mut c = state.counters.lock().expect("counters poisoned");
            c.batches += 1;
            c.requests += batch.len() as u64;
            c.largest_batch = c.largest_batch.max(batch.len());
            for p in &batch {
                *c.per_tenant.entry(p.tenant).or_insert(0) += 1;
            }
        }
        let batched_with = batch.len();
        match result {
            Ok(outputs) => {
                debug_assert_eq!(outputs.len(), batched_with);
                for (p, output) in batch.into_iter().zip(outputs) {
                    let answered = p.slot.fulfill(Ok(InferenceResponse {
                        output,
                        batched_with,
                        queued: dispatched.saturating_duration_since(p.arrived),
                        service: done.saturating_duration_since(dispatched),
                    }));
                    debug_assert!(answered, "request answered twice");
                }
            }
            Err(e) => {
                for p in batch {
                    let answered = p.slot.fulfill(Err(e.clone()));
                    debug_assert!(answered, "request answered twice");
                }
            }
        }
    }
}

/// Runs one coalesced wave: concatenates the batch's request rows,
/// evaluates them through the model's batched evaluator, and splits the
/// output back per request. Requests in a batch share a [`BatchKey`],
/// so shapes and (for SNN) timesteps agree; SNN seeds stay per-request.
fn evaluate_batch(chip: &mut ModelChip, batch: &[Pending]) -> Result<Vec<Tensor>, ServeError> {
    let trailing = batch[0].input.shape()[1..].to_vec();
    let rows: Vec<usize> = batch.iter().map(|p| p.input.shape()[0]).collect();
    let total: usize = rows.iter().sum();
    let mut shape = Vec::with_capacity(trailing.len() + 1);
    shape.push(total);
    shape.extend_from_slice(&trailing);
    let mut data = Vec::with_capacity(total * trailing.iter().product::<usize>());
    for p in batch {
        data.extend_from_slice(p.input.data());
    }
    let x =
        Tensor::from_vec(data, &shape).map_err(|e| ServeError::Analog(AnalogError::Tensor(e)))?;
    let snn_groups = |batch: &[Pending]| -> Vec<(usize, u64)> {
        batch
            .iter()
            .zip(&rows)
            .map(|(p, &r)| match p.kind {
                RequestKind::Snn { seed, .. } => (r, seed),
                // Submit validates kind-vs-model and the batch key
                // pins the kind, so this cannot happen.
                RequestKind::Ann => (r, 0),
            })
            .collect()
    };
    let y = match (chip, &batch[0].kind) {
        // Every model streams through the pipeline executor on its own
        // placement (one chip or many) under the schedule that placement
        // derives; every schedule is bit-identical to the sequential
        // oracle, so the serving identity contract is untouched.
        (ModelChip::Ann(net), RequestKind::Ann) => net.forward(&x)?,
        (ModelChip::Snn(net), RequestKind::Snn { timesteps, .. }) => {
            net.run_seeded_groups(&x, *timesteps, &snn_groups(batch))?
        }
        _ => {
            return Err(ServeError::BadRequest(
                "request kind does not match chip mode".into(),
            ))
        }
    };
    let out_row: usize = y.shape()[1..].iter().product();
    let mut outputs = Vec::with_capacity(batch.len());
    let mut offset = 0usize;
    for &r in &rows {
        let mut s = Vec::with_capacity(y.shape().len());
        s.push(r);
        s.extend_from_slice(&y.shape()[1..]);
        outputs.push(
            Tensor::from_vec(
                y.data()[offset * out_row..(offset + r) * out_row].to_vec(),
                &s,
            )
            .map_err(|e| ServeError::Analog(AnalogError::Tensor(e)))?,
        );
        offset += r;
    }
    Ok(outputs)
}
