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

use super::{unpoison, InferenceResponse, RequestKind, ServeError};
use nebula_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a request must agree on to share a crossbar wave with another:
/// the evaluator call is one `forward` / `run`, so every
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

/// A queued request: the tenant's job plus the sender of its answer and
/// its arrival time (the batching deadline is relative to arrival).
pub(crate) struct Pending {
    pub tenant: u64,
    pub input: Tensor,
    pub kind: RequestKind,
    pub reply: Sender<Result<InferenceResponse, ServeError>>,
    pub arrived: Instant,
}

impl Pending {
    /// Answers the request. Answering consumes it, so no request is
    /// answered twice; one dropped unanswered disconnects its
    /// [`ResponseHandle`](super::ResponseHandle), which then reports
    /// [`ServeError::Internal`].
    pub(crate) fn answer(self, answer: Result<InferenceResponse, ServeError>) {
        // A tenant that dropped its handle no longer wants the answer.
        let _ = self.reply.send(answer);
    }

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
        let mut inner = unpoison(self.inner.lock());
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
            inner = unpoison(self.not_full.wait(inner));
        }
    }

    /// Enqueues `p` without blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when at capacity,
    /// [`ServeError::ShuttingDown`] once shutdown has begun.
    pub(crate) fn try_push(&self, p: Pending) -> Result<(), ServeError> {
        let mut inner = unpoison(self.inner.lock());
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
        let mut inner = unpoison(self.inner.lock());
        loop {
            if inner.deque.is_empty() {
                if inner.shutdown {
                    return None;
                }
                inner = unpoison(self.not_empty.wait(inner));
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
            inner = unpoison(self.not_empty.wait_timeout(inner, timeout)).0;
        }
    }

    /// Begins shutdown: wakes blocked submitters (they fail with
    /// [`ServeError::ShuttingDown`]) and workers (they drain the queue,
    /// then exit).
    pub(crate) fn shutdown(&self) {
        let mut inner = unpoison(self.inner.lock());
        inner.shutdown = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Requests currently queued (not yet claimed by a batch).
    pub(crate) fn len(&self) -> usize {
        unpoison(self.inner.lock()).deque.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn pending(tenant: u64) -> Pending {
        Pending {
            tenant,
            input: Tensor::zeros(&[1, 2]),
            kind: RequestKind::Ann,
            reply: channel().0,
            arrived: Instant::now(),
        }
    }

    #[test]
    fn a_panic_under_the_queue_lock_loses_no_request() {
        let q = Arc::new(RequestQueue::new(8));
        q.try_push(pending(0)).unwrap();
        q.push_blocking(pending(1)).unwrap();
        let holder = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.inner.lock();
                panic!("panic while holding the queue lock");
            })
        };
        assert!(holder.join().is_err());
        assert!(q.inner.lock().is_err(), "the lock must be marked");

        q.try_push(pending(2)).unwrap();
        q.push_blocking(pending(3)).unwrap();
        assert_eq!(q.len(), 4);
        let batch = q.next_batch(8, Duration::ZERO).unwrap();
        let tenants: Vec<u64> = batch.iter().map(|p| p.tenant).collect();
        assert_eq!(tenants, [0, 1, 2, 3]);
        assert_eq!(q.len(), 0);

        q.shutdown();
        assert!(q.next_batch(8, Duration::ZERO).is_none());
        assert_eq!(q.try_push(pending(4)), Err(ServeError::ShuttingDown));
        assert_eq!(q.push_blocking(pending(5)), Err(ServeError::ShuttingDown));
    }
}
