//! One engine shard: a bounded queue + condvar pair owned by a single
//! model (or by the control plane), with its own [`ShardCounters`] and a
//! fixed number of service slots.
//!
//! Sharding is the serve-side answer to the interference the paper
//! models on the GPU: with one shared queue, a slow or quarantined
//! model head-of-line-blocks every other model's requests. Giving each
//! registered model its own queue and worker set bounds the blast
//! radius — the slow model's queue fills and sheds, the fast models
//! never see it.
//!
//! A shard has `slots` service slots (the engine passes its worker
//! count). Every job in service holds one: a worker holds a slot for the
//! whole batch it drained, and a caller that runs a cheap job inline
//! ([`Shard::try_claim`]) holds one for that job. Workers pop only while
//! a slot is free, and an inline claim is refused while any job is
//! queued or any worker batch is in service, so a shard never has more
//! than `slots` batches in service, inline work can never overtake the
//! queue, and a shard under queued load serves exactly as it would
//! without the inline path.
//!
//! The type is deliberately dumb: push with backpressure, slot claims,
//! blocking batch pop, depth, counters. Worker spawning, routing, and
//! the atomic shard-map swap on `load`/`reload` live in the engine.

use crate::metrics::{ShardCounters, ShardSnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Name of the shard that serves non-predict commands and requests
/// whose model cannot be resolved at submit time (the name is invalid
/// for registry models, so it can never collide).
pub(crate) const CONTROL_SHARD: &str = "_control";

#[derive(Debug)]
struct State<J> {
    queue: VecDeque<J>,
    /// Slots held right now (worker batches plus inline jobs).
    busy: usize,
    /// Of those, slots held by worker batches.
    batches: usize,
}

/// A bounded MPMC job queue for one model's workers.
#[derive(Debug)]
pub(crate) struct Shard<J> {
    name: String,
    capacity: usize,
    slots: usize,
    state: Mutex<State<J>>,
    /// Signalled when a job arrives or a slot frees up.
    ready: Condvar,
    counters: ShardCounters,
}

/// One held service slot, released (waking a worker if jobs are queued)
/// when dropped — also when the work it covers unwinds.
#[derive(Debug)]
pub(crate) struct Slot<'a, J> {
    shard: &'a Shard<J>,
    /// Held by a worker batch rather than an inline job.
    batch: bool,
}

impl<J> Drop for Slot<'_, J> {
    fn drop(&mut self) {
        let mut state = self.shard.lock();
        state.busy -= 1;
        state.batches -= usize::from(self.batch);
        let wake = !state.queue.is_empty();
        drop(state);
        if wake {
            self.shard.ready.notify_one();
        }
    }
}

impl<J> Shard<J> {
    pub(crate) fn new(name: impl Into<String>, capacity: usize, slots: usize) -> Self {
        Self {
            name: name.into(),
            capacity,
            slots,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                busy: 0,
                batches: 0,
            }),
            ready: Condvar::new(),
            counters: ShardCounters::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<J>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn counters(&self) -> &ShardCounters {
        &self.counters
    }

    /// Enqueues a job, or hands it back if the shard is at capacity
    /// (counted as shed). `on_enqueued` runs under the queue lock, so
    /// anything it publishes is visible before any worker can drain the
    /// job — the engine counts `received` there.
    pub(crate) fn try_push(&self, job: J, on_enqueued: impl FnOnce()) -> Result<(), J> {
        let mut state = self.lock();
        if state.queue.len() >= self.capacity {
            drop(state);
            self.counters.on_shed();
            return Err(job);
        }
        state.queue.push_back(job);
        self.counters.on_enqueued();
        on_enqueued();
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Claims a slot for one job the caller runs on its own thread.
    /// Refused while the queue path is in use — a job queued or a worker
    /// batch in service — so inline work never overtakes or runs beside
    /// queued work, and a shard under queued load serves it exactly as
    /// if there were no inline path. Also refused while every slot is
    /// held. The claim counts the job as accepted (`enqueued`) and as
    /// `inline`.
    pub(crate) fn try_claim(&self) -> Option<Slot<'_, J>> {
        let mut state = self.lock();
        if !state.queue.is_empty() || state.batches > 0 || state.busy >= self.slots {
            return None;
        }
        state.busy += 1;
        drop(state);
        self.counters.on_enqueued();
        self.counters.on_inline();
        Some(Slot {
            shard: self,
            batch: false,
        })
    }

    /// Blocks until jobs are queued and a slot is free, or `shutdown` is
    /// set, then drains up to `max` jobs under one held slot. Returns
    /// `None` exactly when shutting down with an empty queue — the
    /// worker-exit condition (pending jobs are still drained and
    /// answered during shutdown).
    pub(crate) fn pop_batch(
        &self,
        max: usize,
        shutdown: &AtomicBool,
    ) -> Option<(Slot<'_, J>, Vec<J>)> {
        let mut state = self.lock();
        loop {
            if !state.queue.is_empty() && state.busy < self.slots {
                state.busy += 1;
                state.batches += 1;
                let take = state.queue.len().min(max);
                let batch = state.queue.drain(..take).collect();
                return Some((
                    Slot {
                        shard: self,
                        batch: true,
                    },
                    batch,
                ));
            }
            if state.queue.is_empty() && shutdown.load(Ordering::Acquire) {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes every waiting worker (shutdown broadcast).
    pub(crate) fn notify_all(&self) {
        self.ready.notify_all();
    }

    /// Jobs currently queued.
    pub(crate) fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Point-in-time view for `stats` and the exposition.
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        self.counters.snapshot(&self.name, self.depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_pop_respects_capacity_and_counts() {
        let shard = Shard::new("m", 2, 1);
        let shutdown = AtomicBool::new(false);
        assert!(shard.try_push(1, || {}).is_ok());
        assert!(shard.try_push(2, || {}).is_ok());
        assert_eq!(shard.try_push(3, || {}), Err(3));
        assert_eq!(shard.depth(), 2);
        let snap = shard.snapshot();
        assert_eq!((snap.enqueued, snap.shed, snap.queue_depth), (2, 1, 2));
        let (_slot, batch) = shard.pop_batch(8, &shutdown).expect("has jobs");
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(shard.depth(), 0);
    }

    #[test]
    fn on_enqueued_runs_under_the_lock_before_any_drain() {
        let shard = Arc::new(Shard::new("m", 8, 1));
        let flag = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        let consumer = {
            let (shard, flag, shutdown) = (shard.clone(), flag.clone(), shutdown.clone());
            std::thread::spawn(move || {
                let (_slot, batch) = shard.pop_batch(1, &shutdown).expect("job arrives");
                // The enqueue callback's store must be visible here.
                assert!(flag.load(Ordering::Acquire), "callback not ordered");
                batch[0]
            })
        };
        shard
            .try_push(7, || flag.store(true, Ordering::Release))
            .expect("capacity 8");
        assert_eq!(consumer.join().expect("consumer clean"), 7);
    }

    #[test]
    fn shutdown_drains_pending_then_returns_none() {
        let shard: Shard<u32> = Shard::new("m", 8, 1);
        let shutdown = AtomicBool::new(false);
        shard.try_push(5, || {}).expect("capacity");
        shutdown.store(true, Ordering::Release);
        shard.notify_all();
        let (slot, batch) = shard.pop_batch(4, &shutdown).expect("drains");
        assert_eq!(batch, vec![5]);
        drop(slot);
        assert!(shard.pop_batch(4, &shutdown).is_none());
    }

    #[test]
    fn inline_claims_and_worker_batches_share_one_slot_without_overlap() {
        // One slot (`workers: 1`): an inline claim and a worker batch
        // must never be in service at the same time, and a claim is
        // refused while anything is queued.
        let shard = Arc::new(Shard::new("m", 256, 1));
        let shutdown = Arc::new(AtomicBool::new(false));
        let in_service = Arc::new(std::sync::atomic::AtomicUsize::new(0));

        let claim = shard.try_claim().expect("idle shard grants a claim");
        assert!(shard.try_claim().is_none(), "the only slot is held");
        shard.try_push(1u32, || {}).expect("capacity");
        let worker = {
            let (shard, shutdown, in_service) = (
                Arc::clone(&shard),
                Arc::clone(&shutdown),
                Arc::clone(&in_service),
            );
            std::thread::spawn(move || {
                let mut served = 0;
                while let Some((_slot, batch)) = shard.pop_batch(1, &shutdown) {
                    assert_eq!(in_service.fetch_add(1, Ordering::SeqCst), 0, "overlap");
                    std::thread::sleep(Duration::from_millis(1));
                    in_service.fetch_sub(1, Ordering::SeqCst);
                    served += batch.len();
                }
                served
            })
        };
        // The worker is woken by the push but must wait for the slot.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(shard.depth(), 1, "a worker popped while the slot was held");
        assert!(shard.try_claim().is_none(), "a queued job refuses claims");
        drop(claim);

        let mut inline = 0;
        for job in 2..40u32 {
            shard.try_push(job, || {}).expect("capacity");
            // Claims are refused until the worker has drained the job and
            // finished it; then one succeeds.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            let slot = loop {
                if let Some(slot) = shard.try_claim() {
                    break slot;
                }
                assert!(std::time::Instant::now() < deadline, "claim never granted");
                std::thread::yield_now();
            };
            assert_eq!(in_service.fetch_add(1, Ordering::SeqCst), 0, "overlap");
            inline += 1;
            if job % 2 == 0 {
                // A job queued under a held claim waits for its release.
                shard.try_push(job + 1000, || {}).expect("capacity");
                std::thread::sleep(Duration::from_millis(2));
                assert_eq!(shard.depth(), 1, "a worker popped under a held claim");
            }
            in_service.fetch_sub(1, Ordering::SeqCst);
            drop(slot);
        }
        shutdown.store(true, Ordering::Release);
        shard.notify_all();
        let served = worker.join().expect("worker clean");
        let snap = shard.snapshot();
        assert_eq!(snap.inline, 1 + inline);
        assert_eq!(snap.enqueued, snap.inline + served as u64);
        assert_eq!(shard.depth(), 0);
    }

    #[test]
    fn inline_claims_wait_for_worker_batches_even_with_free_slots() {
        // A shard under queued load serves every job through its queue:
        // while a worker batch is in service, a claim is refused even
        // though a slot is free; a worker can still take that slot.
        let shard: Shard<u32> = Shard::new("m", 8, 2);
        let shutdown = AtomicBool::new(false);
        shard.try_push(1, || {}).expect("capacity");
        let (batch_slot, batch) = shard.pop_batch(8, &shutdown).expect("has a job");
        assert_eq!(batch, vec![1]);
        assert!(shard.try_claim().is_none(), "a worker batch is in service");
        shard.try_push(2, || {}).expect("capacity");
        let (second, batch) = shard.pop_batch(8, &shutdown).expect("second slot");
        assert_eq!(batch, vec![2]);
        drop((batch_slot, second));
        let claim = shard.try_claim().expect("idle shard grants a claim");
        assert!(
            shard.try_claim().is_some(),
            "inline runs share the free slots"
        );
        drop(claim);
    }
}
