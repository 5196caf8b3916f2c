//! Bounded per-model request queues with dynamic batch formation.
//!
//! The queue is where the dynamic batcher lives: workers call
//! [`RequestQueue::next_batch`], which blocks until the head of the
//! queue either has [`max_batch`] compatible companions or has waited
//! [`max_wait`], then removes the head's compatibility group (up to
//! `max_batch` requests with the same [`BatchKey`]) in arrival order.
//! Incompatible requests keep their positions and form later batches.
//!
//! A full queue applies **backpressure**: blocking submits wait on the
//! `not_full` condvar and non-blocking submits report
//! [`QueueFull`](crate::serve::ServeError::QueueFull) — requests are
//! never dropped. Shutdown wakes everyone: queued requests are still
//! drained and answered by the workers, while waiting submitters give
//! up with [`ShuttingDown`](crate::serve::ServeError::ShuttingDown).

use super::oneshot::OneShot;
use super::{InferenceResponse, RequestKind, ServeError};
use nebula_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a request must agree on to share a crossbar wave with another:
/// the evaluator call is one `forward` / `run_seeded_groups`, so every
/// member needs the same per-sample shape, and SNN members the same
/// timestep count (seeds stay per-request — each gets its own RNG
/// stream inside the wave).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BatchKey {
    /// `None` for ANN requests, `Some(timesteps)` for SNN requests.
    timesteps: Option<usize>,
    /// Per-sample (trailing) input dimensions.
    trailing: Vec<usize>,
}

/// A queued request: the tenant's job plus its response slot and
/// arrival time (the batching deadline is relative to arrival).
pub(crate) struct Pending {
    pub tenant: u64,
    pub input: Tensor,
    pub kind: RequestKind,
    pub slot: Arc<OneShot<Result<InferenceResponse, ServeError>>>,
    pub arrived: Instant,
}

impl Pending {
    pub(crate) fn key(&self) -> BatchKey {
        BatchKey {
            timesteps: match self.kind {
                RequestKind::Ann => None,
                RequestKind::Snn { timesteps, .. } => Some(timesteps),
            },
            trailing: self.input.shape()[1..].to_vec(),
        }
    }
}

struct Inner {
    deque: VecDeque<Pending>,
    shutdown: bool,
}

/// A bounded MPMC queue of pending requests for one model.
pub(crate) struct RequestQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl RequestQueue {
    /// An empty queue bounded at `capacity` requests. Nothing is
    /// reserved up front, so any bound (`usize::MAX` included) is cheap;
    /// [`push_blocking`](Self::push_blocking) and
    /// [`try_push`](Self::try_push) enforce it.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(Inner {
                deque: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues `p`, blocking while the queue is full (backpressure —
    /// the request is never dropped).
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] once shutdown has begun.
    pub(crate) fn push_blocking(&self, p: Pending) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().expect("request queue poisoned");
        loop {
            if inner.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if inner.deque.len() < self.capacity {
                inner.deque.push_back(p);
                drop(inner);
                self.not_empty.notify_all();
                return Ok(());
            }
            inner = self.not_full.wait(inner).expect("request queue poisoned");
        }
    }

    /// Enqueues `p` without blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when at capacity,
    /// [`ServeError::ShuttingDown`] once shutdown has begun.
    pub(crate) fn try_push(&self, p: Pending) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().expect("request queue poisoned");
        if inner.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if inner.deque.len() >= self.capacity {
            return Err(ServeError::QueueFull);
        }
        inner.deque.push_back(p);
        drop(inner);
        self.not_empty.notify_all();
        Ok(())
    }

    /// Blocks until a batch is ready and removes it: the head request
    /// plus up to `max_batch − 1` later requests sharing its
    /// [`BatchKey`], in arrival order. Dispatches early when the
    /// compatibility group reaches `max_batch`; otherwise waits out the
    /// head's `max_wait` deadline so a lone request is never stranded. A
    /// deadline past what an [`Instant`] can hold (`Duration::MAX`) is
    /// no deadline: the batch dispatches on `max_batch` or shutdown.
    /// During shutdown pending requests dispatch immediately (no
    /// deadline wait); returns `None` once shut down *and* drained,
    /// which is the worker exit signal.
    pub(crate) fn next_batch(&self, max_batch: usize, max_wait: Duration) -> Option<Vec<Pending>> {
        let max_batch = max_batch.max(1);
        let mut inner = self.inner.lock().expect("request queue poisoned");
        loop {
            if inner.deque.is_empty() {
                if inner.shutdown {
                    return None;
                }
                inner = self.not_empty.wait(inner).expect("request queue poisoned");
                continue;
            }
            let key = inner.deque[0].key();
            let compatible = inner.deque.iter().filter(|p| p.key() == key).count();
            let deadline = inner.deque[0].arrived.checked_add(max_wait);
            let now = Instant::now();
            let expired = deadline.is_some_and(|d| now >= d);
            if compatible >= max_batch || expired || inner.shutdown {
                let mut batch = Vec::with_capacity(compatible.min(max_batch));
                let mut rest = VecDeque::with_capacity(inner.deque.len());
                for p in inner.deque.drain(..) {
                    if batch.len() < max_batch && p.key() == key {
                        batch.push(p);
                    } else {
                        rest.push_back(p);
                    }
                }
                inner.deque = rest;
                let more_work = !inner.deque.is_empty();
                drop(inner);
                // Capacity freed; and if incompatible requests remain,
                // another worker can start forming their batch now.
                self.not_full.notify_all();
                if more_work {
                    self.not_empty.notify_all();
                }
                return Some(batch);
            }
            // No deadline waits for a push or shutdown to notify.
            let timeout = deadline.map_or(Duration::MAX, |d| d - now);
            let (guard, _) = self
                .not_empty
                .wait_timeout(inner, timeout)
                .expect("request queue poisoned");
            inner = guard;
        }
    }

    /// Begins shutdown: wakes blocked submitters (they fail with
    /// [`ServeError::ShuttingDown`]) and workers (they drain the queue,
    /// then exit).
    pub(crate) fn shutdown(&self) {
        let mut inner = self.inner.lock().expect("request queue poisoned");
        inner.shutdown = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Requests currently queued (not yet claimed by a batch).
    pub(crate) fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("request queue poisoned")
            .deque
            .len()
    }
}
