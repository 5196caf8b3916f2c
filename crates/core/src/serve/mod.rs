//! Async multi-tenant inference serving with dynamic batching.
//!
//! This module turns the circuit-level simulator into a long-running
//! service: tenants submit ANN and SNN inference jobs for mixed models
//! concurrently, a dynamic batcher coalesces compatible requests (same
//! model, same per-sample shape, same SNN timestep count) into single
//! crossbar waves, and each model runs on programmed chip replicas.
//! A replica is long-lived state (its weights are written into the
//! crossbar conductances); a request is transient. Each replica has one
//! owner, the batch worker that drives it, so the mutable chip state a
//! wave touches (energy counters, wave counts, membrane potentials) is
//! never shared between concurrent batches.
//!
//! # Architecture
//!
//! ```text
//! tenants ──submit──▶ per-model RequestQueue (bounded, backpressure)
//!                          │ next_batch: ≤ max_batch compatible
//!                          │ requests, or max_wait deadline
//!                     batch workers (one per replica, each
//!                          │ owning its programmed ModelChip clone)
//!                          ▼
//!                 AnalogNetwork::forward /
//!                 AnalogSpikingNetwork::run(.., Draws::Groups)
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
//! ([`Draws::Groups`]). So a served response is bit-identical to running
//! that request alone through its [oracle](crate::oracle) — asserted
//! end-to-end by `bench_serving` and the serving test suite.
//!
//! # Backpressure and shutdown
//!
//! Queues are bounded: [`Server::submit`] blocks while full (never
//! drops), [`Server::try_submit`] reports [`ServeError::QueueFull`].
//! [`Server::shutdown`] is graceful: queued requests are drained and
//! answered, blocked submitters fail with [`ServeError::ShuttingDown`],
//! and every accepted request is answered exactly once. A request
//! dropped unanswered (say its worker died outside the evaluation
//! guard) is answered [`ServeError::Internal`] rather than left hanging.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod queue;

use crate::analog::{check_finite, AnalogError, AnalogNetwork};
use crate::analog_snn::{AnalogSpikingNetwork, Draws};
use nebula_device::units::Joules;
use nebula_tensor::Tensor;
use queue::{Pending, RequestQueue};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, LockResult, Mutex, PoisonError};
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
    /// A batch worker panicked while evaluating, or the request was
    /// dropped unanswered (a bug, surfaced as an answer so no tenant
    /// hangs).
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
    /// Time from dispatch to completion (evaluation).
    pub service: Duration,
}

/// A claim on a future [`InferenceResponse`]; every accepted request is
/// answered exactly once.
pub struct ResponseHandle {
    answer: Receiver<Result<InferenceResponse, ServeError>>,
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
    /// worker panic), or [`ServeError::Internal`] if the request was
    /// dropped unanswered.
    pub fn wait(self) -> Result<InferenceResponse, ServeError> {
        self.answer.recv().unwrap_or_else(|_| Err(dropped()))
    }

    /// Waits up to `timeout`; `None` if the answer has not arrived yet
    /// (it stays claimable by a later call). The answer is delivered
    /// once: after it, and for a request dropped unanswered, this
    /// returns [`ServeError::Internal`].
    pub fn wait_for(&self, timeout: Duration) -> Option<Result<InferenceResponse, ServeError>> {
        match self.answer.recv_timeout(timeout) {
            Ok(answer) => Some(answer),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(dropped())),
        }
    }
}

fn dropped() -> ServeError {
    ServeError::Internal("request dropped unanswered".into())
}

/// Takes the guard out of a lock result whether or not a thread panicked
/// while holding the lock. Sound for the serving state because every
/// critical section it guards leaves that state consistent at each point
/// where it can panic: the request queue's `deque` and `shutdown` flag
/// and the per-model counters hold no invariant across fields that any
/// code relies on, so any mix of updates is a valid state, and a request
/// lost with an unwinding critical section drops its reply sender, which
/// answers its tenant [`ServeError::Internal`].
fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// One programmed chip instance: the ANN or SNN analog executor with
/// weights already written, on one chip or sharded over a cluster
/// ([`AnalogNetwork::shard`]). A model too wide for a single chip
/// serves exactly like any other.
#[derive(Debug, Clone)]
pub enum ModelChip {
    /// ANN-mode network ([`AnalogNetwork`]).
    Ann(AnalogNetwork),
    /// SNN-mode network ([`AnalogSpikingNetwork`]).
    Snn(AnalogSpikingNetwork),
}

impl ModelChip {
    /// Analog read energy this instance has dissipated so far.
    pub fn read_energy(&self) -> Joules {
        match self {
            ModelChip::Ann(n) => n.read_energy(),
            ModelChip::Snn(n) => n.read_energy(),
        }
    }

    /// Crossbar evaluation waves this instance has executed so far.
    pub fn waves(&self) -> u64 {
        match self {
            ModelChip::Ann(n) => n.waves(),
            ModelChip::Snn(n) => n.waves(),
        }
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
    /// dispatches anyway. A wait too long to add to an [`Instant`], such
    /// as `Duration::MAX`, never expires: batches then dispatch when
    /// full or at shutdown.
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
/// to serve it on.
#[derive(Debug)]
pub struct ModelSpec {
    /// Name requests address.
    pub name: String,
    /// Programmed prototype; replicas are clones of it.
    pub chip: ModelChip,
    /// Chip instances, each driven by its own batch worker (=
    /// concurrent batches for this model).
    pub replicas: usize,
}

impl ModelSpec {
    /// An ANN model spec.
    pub fn ann(name: &str, chip: AnalogNetwork, replicas: usize) -> Self {
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
    /// network: a network on any placement is served the same way.
    #[deprecated(note = "use `ModelSpec::snn`; ROADMAP.md item 11 deletes this")]
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
    /// Each replica's cumulative `(read_energy, waves)`, indexed by
    /// worker, as of its last finished batch.
    replicas: Vec<(Joules, u64)>,
}

struct ModelState {
    name: String,
    kind: &'static str,
    queue: RequestQueue,
    counters: Mutex<ModelCounters>,
}

/// Serving statistics for one model.
#[derive(Debug, Clone)]
pub struct ModelStats {
    /// Model name.
    pub model: String,
    /// `"ann"` or `"snn"`.
    pub kind: &'static str,
    /// Chip replicas served.
    pub replicas: usize,
    /// Requests answered (dispatched into waves).
    pub requests: u64,
    /// Crossbar waves dispatched (batches).
    pub batches: u64,
    /// Largest batch observed.
    pub largest_batch: usize,
    /// Requests per tenant, ascending by tenant id.
    pub per_tenant: Vec<(u64, u64)>,
    /// Read energy summed over the replicas in replica order, each as
    /// of its last finished batch (exact whenever no batch is in
    /// flight).
    pub read_energy: Joules,
    /// Evaluation waves summed over the replicas, each as of its last
    /// finished batch (exact whenever no batch is in flight).
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

/// The inference server: per-model queues and one batch worker per
/// chip replica. See the [module docs](self) for the architecture.
pub struct Server {
    models: Vec<Arc<ModelState>>,
    by_name: HashMap<String, usize>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boots the server: programs nothing (chips arrive pre-programmed
    /// in `specs`), builds one queue per model and spawns `replicas`
    /// batch workers each, every worker owning one clone of the
    /// prototype.
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
        let mut prototypes = Vec::with_capacity(specs.len());
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
            // Energy the prototype spent before serving still counts:
            // every replica is a clone that starts from these totals.
            let seed = (spec.chip.read_energy(), spec.chip.waves());
            let state = Arc::new(ModelState {
                name: spec.name.clone(),
                kind: match spec.chip {
                    ModelChip::Ann(_) => "ann",
                    ModelChip::Snn(_) => "snn",
                },
                queue: RequestQueue::new(config.queue_capacity),
                counters: Mutex::new(ModelCounters {
                    replicas: vec![seed; spec.replicas],
                    ..ModelCounters::default()
                }),
            });
            by_name.insert(spec.name, models.len());
            models.push(state);
            prototypes.push((spec.chip, spec.replicas));
        }
        // Built before any worker spawns: if a spawn fails, dropping the
        // server shuts down the queues and joins the workers already up.
        let mut server = Self {
            models,
            by_name,
            workers: Vec::new(),
        };
        for (m, (prototype, replicas)) in prototypes.into_iter().enumerate() {
            let mut chips: Vec<ModelChip> = (1..replicas).map(|_| prototype.clone()).collect();
            chips.push(prototype);
            for (w, chip) in chips.into_iter().enumerate() {
                let state = Arc::clone(&server.models[m]);
                server.workers.push(
                    std::thread::Builder::new()
                        .name(format!("nebula-serve-{}-{w}", state.name))
                        .spawn(move || worker_loop(&state, w, chip, config))
                        .map_err(|e| ServeError::Internal(format!("spawn failed: {e}")))?,
                );
            }
        }
        Ok(server)
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
        let (reply, answer) = mpsc::channel();
        let pending = Pending {
            tenant: req.tenant,
            input: req.input,
            kind: req.kind,
            reply,
            arrived: Instant::now(),
        };
        Ok((state, pending, ResponseHandle { answer }))
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
    /// each replica as of its last finished batch, so they are exact
    /// whenever no batch is in flight.
    pub fn stats(&self) -> ServerStats {
        let models = self
            .models
            .iter()
            .map(|state| {
                let c = unpoison(state.counters.lock());
                let mut per_tenant: Vec<(u64, u64)> =
                    c.per_tenant.iter().map(|(&t, &n)| (t, n)).collect();
                per_tenant.sort_unstable();
                ModelStats {
                    model: state.name.clone(),
                    kind: state.kind,
                    replicas: c.replicas.len(),
                    requests: c.requests,
                    batches: c.batches,
                    largest_batch: c.largest_batch,
                    per_tenant,
                    read_energy: c.replicas.iter().map(|r| r.0).sum(),
                    waves: c.replicas.iter().map(|r| r.1).sum(),
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

/// Batch worker `w`: evaluates every batch it claims on `chip`, the
/// replica it owns.
fn worker_loop(state: &ModelState, w: usize, mut chip: ModelChip, cfg: ServeConfig) {
    while let Some(batch) = state.queue.next_batch(cfg.max_batch, cfg.max_wait) {
        let dispatched = Instant::now();
        // A panicking evaluator must not take this replica's worker down
        // with it: catch the panic and answer the batch with its message.
        let result = catch_unwind(AssertUnwindSafe(|| evaluate_batch(&mut chip, &batch)))
            .unwrap_or_else(|panic| {
                let reason = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "evaluator panicked".into());
                Err(ServeError::Internal(reason))
            });
        let done = Instant::now();
        {
            let mut c = unpoison(state.counters.lock());
            c.replicas[w] = (chip.read_energy(), chip.waves());
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
                    let queued = dispatched.saturating_duration_since(p.arrived);
                    p.answer(Ok(InferenceResponse {
                        output,
                        batched_with,
                        queued,
                        service: done.saturating_duration_since(dispatched),
                    }));
                }
            }
            Err(e) => {
                for p in batch {
                    p.answer(Err(e.clone()));
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
            net.run(&x, *timesteps, Draws::Groups(&snn_groups(batch)))?
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_dropped_unanswered_is_answered_internal() {
        let (reply, answer) = mpsc::channel();
        let pending = Pending {
            tenant: 0,
            input: Tensor::zeros(&[1, 2]),
            kind: RequestKind::Ann,
            reply,
            arrived: Instant::now(),
        };
        let handle = ResponseHandle { answer };
        drop(pending);
        assert!(matches!(
            handle.wait_for(Duration::from_secs(1)),
            Some(Err(ServeError::Internal(_)))
        ));
        assert!(matches!(handle.wait(), Err(ServeError::Internal(_))));
    }
}
