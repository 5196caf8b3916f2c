//! The pipeline executor: the one way every compiled network runs, on
//! one chip or many, and the runtime that turns
//! [`ClusterPlan`](super::ClusterPlan)'s *modeled* pipeline speedup into
//! measured wall-clock speedup.
//!
//! # Execution model
//!
//! A network's placement is a chain of units (one per chip span, each
//! the shared analog engine over a slice of the network's stages; a
//! freshly compiled network is one unit on one chip). Each unit
//! is a **pipeline stage** fed by a bounded FIFO queue, and the batch
//! is split into items that stream through the stages — stage `k`
//! computes item `i + 1` while stage `k + 1` computes item `i`, exactly
//! how batches stream through a ring of independently-clocked NEBULA
//! chips. For ANNs an item is a micro-batch of input rows
//! ([`PipelineConfig::micro_batch`]); for SNNs an item is one timestep
//! (membrane state advances strictly in time order inside each stage,
//! and the wave is still encoded exactly once per timestep at the
//! pipeline head, so the RNG stream is untouched). One claimant and one
//! whole-batch item is the degenerate, fully sequential schedule, and a
//! one-unit placement always runs under it ([`schedule`]): its one item
//! is the caller's batch itself, borrowed rather than copied (items
//! travel as [`Cow`]s).
//!
//! The bounded queues are the backpressure model: a stage may run only
//! when its input queue is non-empty *and* its downstream queue has
//! space ([`PipelineConfig::queue_capacity`] items), like a ring link
//! with finite buffering — a slow stage stalls its producers instead of
//! accumulating unbounded in-flight waves.
//!
//! # Scheduling (and why it cannot deadlock)
//!
//! Rather than parking one OS thread per stage — which deadlocks the
//! moment the pool has fewer threads than the pipeline has stages —
//! `run_pipeline` launches `workers` identical *claimants* on the
//! persistent [`nebula_tensor::pool`] (honoring `NEBULA_THREADS`).
//! Each claimant loops: lock the scheduler, claim any runnable stage
//! (deepest first, to drain the pipe) or the item source, run it
//! outside the lock, publish the result, repeat. The invariant that
//! makes this deadlock-free at any worker count: *whenever no stage is
//! claimed and the pipeline is not done, some stage or the source is
//! runnable* — the deepest stage with a non-empty queue always has
//! downstream space (the last stage's output is unbounded), and if
//! every queue is empty the source is runnable. So a lone claimant
//! drives the whole pipeline to completion by itself, and extra
//! claimants only add overlap.
//!
//! Stage bodies never touch the pool while more than one claimant is
//! active (they evaluate with `workers == 1`): a nested pool dispatch
//! could make the submitting thread help-drain the queue and execute
//! *another claimant* on top of a suspended stage — a lost-wakeup
//! deadlock. With a single claimant (the 1-worker / 1-CPU case) the
//! claimant runs inline and stages keep full intra-stage pool
//! parallelism, so the degenerate pipeline costs nothing over a plain
//! loop over the units.
//!
//! # Bitwise identity (journaled accrual replay)
//!
//! The repo's contract: execution on any placement, under any schedule,
//! is bit-identical to the sequential oracle. Concurrency must not bend
//! that, so the split-phase pattern is applied at pipeline scale —
//! stages perform pure evaluation against state only they own (their
//! tiles, their IF populations, their scatter scratch, their wave
//! counter), while every *shared* counter is journaled per stage and
//! replayed sequentially at the join:
//!
//! * **Outputs** — per-item work is pure, queues are FIFO and each
//!   stage processes items in ascending order (a stage is claimed by at
//!   most one worker at a time), so the concatenated / accumulated
//!   outputs are the same bits for any schedule.
//! * **Energy** — each tile is owned by exactly one stage and sees its
//!   items in ascending order, so the per-AC accrual fold runs in
//!   exactly the single-chip order; the read-out then folds every
//!   unit's stages in compile order, the single-chip sum.
//! * **NoC traffic** — ring ops mutate the shared [`ChipCluster`], so
//!   stages record [`TrafficOp`]s into a private [`TrafficJournal`]
//!   and the join replays them in canonical (stage-major,
//!   item-ascending) order against the live cluster. ANN journals
//!   coalesce each boundary/shard transfer into one whole-batch op —
//!   bit counts are linear in the rows carried, so replaying the summed
//!   bits issues one transfer per route per call whatever the
//!   micro-batch depth (`ceil(bits / FLIT_BITS)` does *not* distribute
//!   over micro-batch splits — per-micro-batch sends would inflate
//!   `link_flit_hops`). SNN journals keep one op per timestep (one
//!   boundary transfer per timestep, shard traffic silence-gated per
//!   timestep); all traffic counters are additive, so the stage-major
//!   replay lands on the same totals for any worker count.
//! * **Waves** — each unit's engine counts its own, exactly as one
//!   engine over all the stages would; `waves()` sums the units'
//!   counters, so nothing about waves is journaled.
//!
//! Routing failures (dead ring links) therefore surface at the join,
//! from the replay, as [`AnalogError::Noc`]; a failed call leaves the
//! traffic counters with whatever the replay applied before the
//! failing op.

use super::{AnalogError, Unit};
use nebula_noc::ChipCluster;
use nebula_tensor::Tensor;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Tuning for the pipeline executor a placement of two or more units
/// runs every call through (set per network with `set_pipeline`; a
/// one-unit placement derives its own from its unit count). `workers: 1`
/// with a `micro_batch` of at least the batch size is the fully
/// sequential schedule; every configuration gives the same bits.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Input rows per ANN pipeline item (micro-batch depth). SNN
    /// pipelines ignore this — their items are whole timesteps.
    pub micro_batch: usize,
    /// Pipeline claimants to launch; `0` launches one per pool worker
    /// ([`nebula_tensor::pool::size`], i.e. `NEBULA_THREADS`). Clamped
    /// to `stages + 1` (one per stage plus the encoder/splitter).
    pub workers: usize,
    /// Bounded capacity of each inter-stage queue, in items — the
    /// ring-link backpressure model. Minimum 1.
    pub queue_capacity: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            micro_batch: 8,
            workers: 0,
            queue_capacity: 2,
        }
    }
}

/// One ring transaction recorded by a pipeline stage for sequential
/// replay at the join point.
#[derive(Debug, Clone)]
pub(crate) enum TrafficOp {
    /// A stage-boundary activation transfer (`send` on the cluster).
    Send { src: usize, dst: usize, bits: u64 },
    /// A tensor-sharded unit's input fan-out to the chips holding its
    /// remote segments, and their partial fan-in
    /// ([`super::account_shard_traffic`]). Journaled after the unit's
    /// stages ran: on every ANN call, and on an SNN timestep only when
    /// the spikes reached a patch.
    Shard {
        home: usize,
        remote: Vec<usize>,
        in_bits: u64,
        out_bits: u64,
    },
}

/// A pipeline stage's private accounting log. With `coalesce` set (ANN
/// pipelines) repeated ops against the same route merge by summing
/// bits, so the replay issues exactly one whole-batch transfer per
/// route — flit rounding happens once, on the summed payload. Without
/// it (SNN pipelines) every op replays individually, one per timestep,
/// with per-timestep rounding.
pub(crate) struct TrafficJournal {
    ops: Vec<TrafficOp>,
    coalesce: bool,
}

impl TrafficJournal {
    pub(crate) fn new(coalesce: bool) -> Self {
        Self {
            ops: Vec::new(),
            coalesce,
        }
    }

    /// Records a stage-boundary activation transfer.
    pub(crate) fn send(&mut self, src: usize, dst: usize, bits: u64) {
        if self.coalesce {
            if let Some(TrafficOp::Send { bits: b, .. }) = self.ops.iter_mut().find(
                |op| matches!(op, TrafficOp::Send { src: s, dst: d, .. } if *s == src && *d == dst),
            ) {
                *b += bits;
                return;
            }
        }
        self.ops.push(TrafficOp::Send { src, dst, bits });
    }

    /// Records a tensor-sharded stage's fan-out and fan-in.
    pub(crate) fn shard(&mut self, home: usize, remote: &[usize], in_bits: u64, out_bits: u64) {
        if self.coalesce {
            if let Some(TrafficOp::Shard {
                in_bits: i,
                out_bits: o,
                ..
            }) = self.ops.iter_mut().find(
                |op| matches!(op, TrafficOp::Shard { home: h, remote: r, .. } if *h == home && r == remote),
            ) {
                *i += in_bits;
                *o += out_bits;
                return;
            }
        }
        self.ops.push(TrafficOp::Shard {
            home,
            remote: remote.to_vec(),
            in_bits,
            out_bits,
        });
    }

    /// Applies this journal to the live cluster, in recorded (item-
    /// ascending) order.
    pub(crate) fn replay(&self, cluster: &mut ChipCluster) -> Result<(), AnalogError> {
        for op in &self.ops {
            match op {
                TrafficOp::Send { src, dst, bits } => {
                    cluster.send(super::portal(*src), super::portal(*dst), *bits)?;
                }
                TrafficOp::Shard {
                    home,
                    remote,
                    in_bits,
                    out_bits,
                } => super::account_shard_traffic(cluster, *home, remote, *in_bits, *out_bits)?,
            }
        }
        Ok(())
    }
}

/// The schedule a placement of `units` units runs under. Two or more
/// units use the placement's configuration `cfg` unchanged. One unit
/// (or none) has nothing to overlap, so it runs the degenerate schedule:
/// the whole batch as one item, on one claimant, whose stage keeps the
/// whole pool ([`stage_workers`] of one claimant).
pub(crate) fn schedule(units: usize, cfg: &PipelineConfig) -> PipelineConfig {
    if units > 1 {
        return cfg.clone();
    }
    PipelineConfig {
        micro_batch: usize::MAX,
        workers: 1,
        ..cfg.clone()
    }
}

/// Streams `n_items` items from `source` through one pipeline stage per
/// unit under the [`schedule`] derived from `cfg`, then — at the join —
/// replays every stage's journal against `cluster` in stage-major
/// order. A stage first journals the ring transfer its input takes when
/// the previous unit sits on another chip. Returns every item's output
/// in index order; on an error nothing is replayed.
pub(crate) fn run_units(
    units: &mut [Unit],
    n_items: usize,
    source: SourceFn<'_>,
    cfg: &PipelineConfig,
    cluster: &mut ChipCluster,
) -> Result<Vec<Tensor>, AnalogError> {
    let cfg = schedule(units.len(), cfg);
    let workers = effective_workers(&cfg);
    let sw = stage_workers(workers);
    let chips: Vec<usize> = units.iter().map(|u| u.chip).collect();
    let mut journals: Vec<TrafficJournal> = units
        .iter()
        .map(|u| TrafficJournal::new(u.coalesces()))
        .collect();
    let stages: Vec<StageFn<'_>> = units
        .iter_mut()
        .zip(journals.iter_mut())
        .enumerate()
        .map(|(u, (unit, journal))| {
            let (prev, here) = (u.checked_sub(1).map(|p| chips[p]), chips[u]);
            Box::new(move |_idx: usize, h: Cow<'_, Tensor>| {
                if let Some(prev) = prev.filter(|&p| p != here) {
                    journal.send(prev, here, unit.boundary_bits(&h));
                }
                unit.exec(h, journal, sw)
            }) as StageFn<'_>
        })
        .collect();
    let outs = run_pipeline(n_items, source, stages, workers, cfg.queue_capacity)?;
    for journal in &journals {
        journal.replay(cluster)?;
    }
    Ok(outs)
}

/// A stage body: consumes item `idx`'s tensor, returns the next stage's
/// input (or the pipeline output, for the last stage).
pub(crate) type StageFn<'a> =
    Box<dyn FnMut(usize, Cow<'_, Tensor>) -> Result<Tensor, AnalogError> + Send + 'a>;
/// The item source: produces item `idx`, owned or borrowed from the
/// caller. Called strictly in ascending `idx` order, one call at a time
/// (the SNN encoder's RNG contract).
pub(crate) type SourceFn<'a> =
    Box<dyn FnMut(usize) -> Result<Cow<'a, Tensor>, AnalogError> + Send + 'a>;

/// What a claimant may run: generate the next item, or advance a stage.
enum Claim<'a> {
    Source(usize),
    Stage(usize, usize, Cow<'a, Tensor>),
}

struct SchedState<'a> {
    /// `queues[s]` feeds stage `s`; single producer (stage `s − 1` or
    /// the source), so items are always in ascending order.
    queues: Vec<VecDeque<(usize, Cow<'a, Tensor>)>>,
    /// Stage `s` is currently claimed by a worker.
    claimed: Vec<bool>,
    source_claimed: bool,
    next_item: usize,
    outputs: Vec<Option<Tensor>>,
    done: usize,
    error: Option<AnalogError>,
    panicked: bool,
}

/// Streams `n_items` items through `stages` with `workers` claimants on
/// the persistent pool (clamped to one per stage plus the source).
/// Returns every item's final tensor in index order; with no stages,
/// the source's items themselves. On a stage/source error the first
/// error is returned (the remaining in-flight work is abandoned); a
/// panic in a stage body propagates to the caller after all claimants
/// settle.
pub(crate) fn run_pipeline<'a>(
    n_items: usize,
    mut source: SourceFn<'a>,
    mut stages: Vec<StageFn<'_>>,
    workers: usize,
    capacity: usize,
) -> Result<Vec<Tensor>, AnalogError> {
    if stages.is_empty() {
        stages.push(Box::new(|_, h| Ok(h.into_owned())));
    }
    let n_stages = stages.len();
    if n_items == 0 {
        return Ok(Vec::new());
    }
    let capacity = capacity.max(1);
    let workers = workers.clamp(1, n_stages + 1);
    let state = Mutex::new(SchedState {
        queues: (0..n_stages).map(|_| VecDeque::new()).collect(),
        claimed: vec![false; n_stages],
        source_claimed: false,
        next_item: 0,
        outputs: (0..n_items).map(|_| None).collect(),
        done: 0,
        error: None,
        panicked: false,
    });
    let ready = Condvar::new();
    // Claim flags serialize access, so these mutexes are uncontended;
    // they exist to hand `&mut` closures to multiple claimants soundly.
    let source_cell = Mutex::new(&mut source);
    let stage_cells: Vec<Mutex<StageFn<'_>>> = stages.into_iter().map(Mutex::new).collect();
    nebula_tensor::pool::run_scoped_n(workers, |_| {
        let mut st = state.lock().expect("pipeline scheduler poisoned");
        loop {
            if st.panicked || st.error.is_some() || st.done == n_items {
                return;
            }
            // Deepest runnable stage first: draining the pipe frees
            // upstream queue space and retires items.
            let mut claim = None;
            for s in (0..n_stages).rev() {
                if !st.claimed[s]
                    && !st.queues[s].is_empty()
                    && (s + 1 == n_stages || st.queues[s + 1].len() < capacity)
                {
                    st.claimed[s] = true;
                    let (idx, h) = st.queues[s].pop_front().expect("checked non-empty");
                    claim = Some(Claim::Stage(s, idx, h));
                    break;
                }
            }
            if claim.is_none()
                && !st.source_claimed
                && st.next_item < n_items
                && st.queues[0].len() < capacity
            {
                st.source_claimed = true;
                claim = Some(Claim::Source(st.next_item));
                st.next_item += 1;
            }
            let Some(claim) = claim else {
                st = ready.wait(st).expect("pipeline scheduler poisoned");
                continue;
            };
            drop(st);
            // Run the claimed work outside the scheduler lock. The
            // claim flag reserves the downstream queue slot checked
            // above (only this claimant pushes there), so the push
            // below cannot exceed the capacity bound.
            let outcome = catch_unwind(AssertUnwindSafe(|| match claim {
                Claim::Source(idx) => {
                    let r = (source_cell.lock().expect("source poisoned"))(idx);
                    (None, idx, r)
                }
                Claim::Stage(s, idx, h) => {
                    let r = (stage_cells[s].lock().expect("stage poisoned"))(idx, h);
                    (Some(s), idx, r.map(Cow::Owned))
                }
            }));
            st = state.lock().expect("pipeline scheduler poisoned");
            match outcome {
                Ok((stage, idx, result)) => {
                    match stage {
                        None => st.source_claimed = false,
                        Some(s) => st.claimed[s] = false,
                    }
                    match result {
                        Ok(h) => match stage {
                            None => st.queues[0].push_back((idx, h)),
                            Some(s) if s + 1 == n_stages => {
                                st.outputs[idx] = Some(h.into_owned());
                                st.done += 1;
                            }
                            Some(s) => st.queues[s + 1].push_back((idx, h)),
                        },
                        Err(e) => {
                            st.error.get_or_insert(e);
                        }
                    }
                    ready.notify_all();
                }
                Err(payload) => {
                    // Wake every peer so they observe the flag and
                    // exit, then re-raise on this claimant: the pool
                    // re-raises it to the caller after the set settles.
                    st.panicked = true;
                    ready.notify_all();
                    drop(st);
                    resume_unwind(payload);
                }
            }
        }
    });
    let st = state.into_inner().expect("pipeline scheduler poisoned");
    if let Some(e) = st.error {
        return Err(e);
    }
    Ok(st
        .outputs
        .into_iter()
        .map(|o| o.expect("pipeline retired every item"))
        .collect())
}

/// The claimant count a config asks for: `0` resolves to one per pool
/// worker ([`run_pipeline`] clamps it to the stage count).
fn effective_workers(cfg: &PipelineConfig) -> usize {
    if cfg.workers == 0 {
        nebula_tensor::pool::size()
    } else {
        cfg.workers
    }
}

/// Worker count stage bodies may use: full pool parallelism when the
/// pipeline is degenerate (one claimant), strictly inline otherwise —
/// see the module docs for why nested pool dispatch is forbidden there.
fn stage_workers(pipeline_workers: usize) -> usize {
    if pipeline_workers > 1 {
        1
    } else {
        nebula_tensor::pool::size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn item(v: f32) -> Tensor {
        Tensor::from_vec(vec![v], &[1]).unwrap()
    }

    /// A source item: `v` as an owned one-element tensor.
    fn owned(v: f32) -> Result<Cow<'static, Tensor>, AnalogError> {
        Ok(Cow::Owned(item(v)))
    }

    #[test]
    fn pipeline_preserves_item_order_and_applies_stages() {
        for workers in [1usize, 2, 4, 9] {
            let source: SourceFn<'_> = Box::new(|i| owned(i as f32));
            let stages: Vec<StageFn<'_>> = vec![
                Box::new(|_, h: Cow<'_, Tensor>| Ok(item(h.data()[0] * 2.0))),
                Box::new(|_, h: Cow<'_, Tensor>| Ok(item(h.data()[0] + 1.0))),
            ];
            let outs = run_pipeline(7, source, stages, workers, 2).unwrap();
            let got: Vec<f32> = outs.iter().map(|t| t.data()[0]).collect();
            let want: Vec<f32> = (0..7).map(|i| i as f32 * 2.0 + 1.0).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn source_is_called_in_strictly_ascending_order() {
        let seen = Mutex::new(Vec::new());
        let source: SourceFn<'_> = Box::new(|i| {
            seen.lock().unwrap().push(i);
            owned(i as f32)
        });
        let stages: Vec<StageFn<'_>> = vec![Box::new(|_, h| Ok(h.into_owned()))];
        run_pipeline(16, source, stages, 4, 1).unwrap();
        assert_eq!(*seen.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_one_with_slow_middle_stage_completes() {
        // Deterministic backpressure: the middle stage burns time, the
        // queues are capacity 1, and every item must still come out in
        // order — at every worker count, including more workers than
        // stages.
        for workers in [1usize, 2, 4] {
            let source: SourceFn<'_> = Box::new(|i| owned(i as f32));
            let stages: Vec<StageFn<'_>> = vec![
                Box::new(|_, h: Cow<'_, Tensor>| Ok(item(h.data()[0] + 10.0))),
                Box::new(|_, h: Cow<'_, Tensor>| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    Ok(item(h.data()[0] * 3.0))
                }),
                Box::new(|_, h: Cow<'_, Tensor>| Ok(item(h.data()[0] - 1.0))),
            ];
            let outs = run_pipeline(9, source, stages, workers, 1).unwrap();
            let got: Vec<f32> = outs.iter().map(|t| t.data()[0]).collect();
            let want: Vec<f32> = (0..9).map(|i| (i as f32 + 10.0) * 3.0 - 1.0).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn each_stage_sees_items_in_ascending_order() {
        let order = [Mutex::new(Vec::new()), Mutex::new(Vec::new())];
        let source: SourceFn<'_> = Box::new(|i| owned(i as f32));
        let stages: Vec<StageFn<'_>> = order
            .iter()
            .map(|slot| {
                Box::new(move |idx: usize, h: Cow<'_, Tensor>| {
                    slot.lock().unwrap().push(idx);
                    Ok(h.into_owned())
                }) as StageFn<'_>
            })
            .collect();
        run_pipeline(12, source, stages, 3, 2).unwrap();
        for slot in &order {
            assert_eq!(*slot.lock().unwrap(), (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stage_error_surfaces_and_stops_the_pipeline() {
        let produced = AtomicUsize::new(0);
        let source: SourceFn<'_> = Box::new(|i| {
            produced.fetch_add(1, Ordering::SeqCst);
            owned(i as f32)
        });
        let stages: Vec<StageFn<'_>> = vec![Box::new(|idx, h| {
            if idx == 3 {
                Err(AnalogError::BadGeometry {
                    reason: "boom".into(),
                })
            } else {
                Ok(h.into_owned())
            }
        })];
        let err = run_pipeline(64, source, stages, 2, 2).unwrap_err();
        assert!(matches!(err, AnalogError::BadGeometry { .. }));
        assert!(produced.load(Ordering::SeqCst) < 64, "error stops intake");
    }

    #[test]
    fn ann_journal_coalesces_and_snn_journal_does_not() {
        let mut ann = TrafficJournal::new(true);
        ann.send(0, 1, 40);
        ann.send(0, 1, 24);
        ann.shard(0, &[1, 2], 100, 60);
        ann.shard(0, &[1, 2], 50, 30);
        assert_eq!(ann.ops.len(), 2);
        assert!(
            matches!(&ann.ops[0], TrafficOp::Send { bits: 64, .. }),
            "bits must sum"
        );
        assert!(matches!(
            &ann.ops[1],
            TrafficOp::Shard {
                in_bits: 150,
                out_bits: 90,
                ..
            }
        ));
        let mut snn = TrafficJournal::new(false);
        snn.send(0, 1, 40);
        snn.send(0, 1, 24);
        assert_eq!(snn.ops.len(), 2, "per-timestep ops stay separate");
    }

    /// The schedule is derived from the unit count, not set by a knob:
    /// a one-unit (or stage-less) placement runs the whole batch as one
    /// item on one claimant, and that claimant's stage keeps the whole
    /// pool, whatever the configuration says; two or more units run the
    /// configuration unchanged.
    #[test]
    fn schedule_is_derived_from_the_unit_count() {
        let configs = [
            PipelineConfig::default(),
            PipelineConfig {
                micro_batch: 1,
                workers: 4,
                queue_capacity: 1,
            },
            PipelineConfig {
                micro_batch: 7,
                workers: 1,
                queue_capacity: 3,
            },
        ];
        for cfg in &configs {
            for units in [0, 1] {
                let s = schedule(units, cfg);
                assert_eq!(s.micro_batch, usize::MAX, "{units} units, {cfg:?}");
                assert_eq!(s.workers, 1, "{units} units, {cfg:?}");
                assert_eq!(effective_workers(&s), 1);
                assert_eq!(
                    stage_workers(effective_workers(&s)),
                    nebula_tensor::pool::size()
                );
            }
            for units in [2, 3, 5] {
                let s = schedule(units, cfg);
                let fields = |c: &PipelineConfig| (c.micro_batch, c.workers, c.queue_capacity);
                assert_eq!(fields(&s), fields(cfg), "{units} units");
            }
        }
    }
}
