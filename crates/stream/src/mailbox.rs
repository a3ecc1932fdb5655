//! Bounded actor mailboxes with an explicit overflow policy.
//!
//! Every edge in the streaming actor graph is a [`Mailbox`]: a FIFO with a
//! hard capacity and one of two overflow behaviours, both *counted* so the
//! observability layer can tell exactly what happened under load:
//!
//! * [`Overflow::Block`] — a push into a full mailbox is refused and the
//!   producer must hold the message and retry next tick. The refusal is a
//!   backpressure *stall* attributed to the producer.
//! * [`Overflow::Shed`] — a push into a full mailbox consumes the message
//!   and drops it, incrementing the shed counter. The producer keeps going.
//!
//! Mailboxes keep their own exact tallies (surfaced in the report's
//! `stream` section) and additionally fire the aggregate
//! `stream.mailbox.enqueued` / `dequeued` / `shed` counters on the registry
//! passed to each operation, so live streams and watch views see the same
//! numbers.

use std::collections::VecDeque;
use std::sync::Arc;

use fexiot_obs::Registry;

/// What a full mailbox does with the next message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overflow {
    /// Refuse the push; the producer stalls and retries.
    Block,
    /// Accept and drop the message, counting it as shed.
    Shed,
}

impl Overflow {
    /// Stable lowercase name used in CLI flags and report JSON.
    pub fn name(self) -> &'static str {
        match self {
            Overflow::Block => "block",
            Overflow::Shed => "shed",
        }
    }

    /// Parses a CLI-flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "block" => Some(Overflow::Block),
            "shed" => Some(Overflow::Shed),
            _ => None,
        }
    }
}

/// Result of a push attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome<T> {
    /// Message enqueued.
    Queued,
    /// Mailbox full under [`Overflow::Shed`]: message consumed and dropped.
    Shed,
    /// Mailbox full under [`Overflow::Block`]: message returned to the
    /// producer, which must stall.
    Blocked(T),
}

/// A bounded FIFO mailbox feeding one actor.
#[derive(Debug)]
pub struct Mailbox<T> {
    name: String,
    capacity: usize,
    policy: Overflow,
    queue: VecDeque<T>,
    /// Exact per-mailbox tallies (monotonic over the run).
    pub enqueued: u64,
    pub dequeued: u64,
    pub shed: u64,
    /// Highest depth ever observed right after a push.
    pub max_depth: usize,
}

impl<T> Mailbox<T> {
    pub fn new(name: impl Into<String>, capacity: usize, policy: Overflow) -> Self {
        assert!(capacity > 0, "mailbox capacity must be positive");
        Self {
            name: name.into(),
            capacity,
            policy,
            queue: VecDeque::with_capacity(capacity),
            enqueued: 0,
            dequeued: 0,
            shed: 0,
            max_depth: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn policy(&self) -> Overflow {
        self.policy
    }

    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Attempts to enqueue `msg`, applying the overflow policy at exactly
    /// `capacity` messages. Fires the aggregate mailbox counters on `reg`.
    pub fn push(&mut self, msg: T, reg: &Arc<Registry>) -> PushOutcome<T> {
        if self.queue.len() >= self.capacity {
            return match self.policy {
                Overflow::Block => PushOutcome::Blocked(msg),
                Overflow::Shed => {
                    self.shed += 1;
                    reg.counter_add("stream.mailbox.shed", 1);
                    PushOutcome::Shed
                }
            };
        }
        self.queue.push_back(msg);
        self.enqueued += 1;
        self.max_depth = self.max_depth.max(self.queue.len());
        reg.counter_add("stream.mailbox.enqueued", 1);
        PushOutcome::Queued
    }

    /// Dequeues the oldest message. Fires the dequeue counter on `reg`.
    pub fn pop(&mut self, reg: &Arc<Registry>) -> Option<T> {
        let msg = self.queue.pop_front()?;
        self.dequeued += 1;
        reg.counter_add("stream.mailbox.dequeued", 1);
        Some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Arc<Registry> {
        Arc::new(Registry::with_enabled(true))
    }

    #[test]
    fn block_policy_refuses_exactly_at_capacity() {
        let reg = reg();
        let mut mb = Mailbox::new("m", 2, Overflow::Block);
        assert_eq!(mb.push(1, &reg), PushOutcome::Queued);
        assert_eq!(mb.push(2, &reg), PushOutcome::Queued);
        // Boundary: the capacity-th message is the last accepted one.
        assert_eq!(mb.push(3, &reg), PushOutcome::Blocked(3));
        assert_eq!(mb.depth(), 2);
        assert_eq!(mb.shed, 0);
        // Draining one slot makes the next push succeed again.
        assert_eq!(mb.pop(&reg), Some(1));
        assert_eq!(mb.push(3, &reg), PushOutcome::Queued);
        assert_eq!(mb.enqueued, 3);
        assert_eq!(mb.dequeued, 1);
    }

    #[test]
    fn shed_policy_drops_and_counts_exactly() {
        let reg = reg();
        let mut mb = Mailbox::new("m", 2, Overflow::Shed);
        assert_eq!(mb.push(1, &reg), PushOutcome::Queued);
        assert_eq!(mb.push(2, &reg), PushOutcome::Queued);
        for i in 3..10 {
            assert_eq!(mb.push(i, &reg), PushOutcome::Shed);
        }
        // Exactness: every overflowed message counted once, none queued.
        assert_eq!(mb.shed, 7);
        assert_eq!(mb.depth(), 2);
        assert_eq!(mb.enqueued, 2);
        let snap = reg.metrics_snapshot();
        assert_eq!(snap.counters.get("stream.mailbox.shed"), Some(&7));
        assert_eq!(snap.counters.get("stream.mailbox.enqueued"), Some(&2));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let reg = reg();
        let mut mb = Mailbox::new("m", 8, Overflow::Block);
        for i in 0..5 {
            mb.push(i, &reg);
        }
        let drained: Vec<i32> = std::iter::from_fn(|| mb.pop(&reg)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn max_depth_tracks_high_water_mark() {
        let reg = reg();
        let mut mb = Mailbox::new("m", 8, Overflow::Block);
        mb.push(1, &reg);
        mb.push(2, &reg);
        mb.pop(&reg);
        mb.pop(&reg);
        mb.push(3, &reg);
        assert_eq!(mb.max_depth, 2);
    }
}
