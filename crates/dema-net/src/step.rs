//! Step-driven in-memory links for deterministic schedulers.
//!
//! The model-checking explorer in `dema-model` needs to *choose* when each
//! in-flight message is delivered, so the channel-backed [`crate::mem`]
//! links (whose receivers block and whose delivery order is fixed FIFO per
//! link at `recv` time) don't fit. A step link instead exposes its queue:
//! the sending side is an ordinary [`MsgSender`] with exactly the same
//! wire accounting as [`crate::mem::link`], while the receiving side is a
//! [`StepQueue`] handle the scheduler pops explicitly — one pop per
//! schedule action. Per-link FIFO order is preserved (messages within one
//! link never reorder, matching real stream transports); the scheduler's
//! freedom is in interleaving *across* links, and in dropping a queued
//! message to model a fault.

use std::collections::VecDeque;
use std::sync::Arc;

use dema_core::sync::{rank, Mutex};
use dema_wire::Message;

use crate::{MsgSender, NetError, SharedCounters};

/// Sending half of a step link. Accounting is identical to
/// [`crate::mem::MemSender`]: `encoded_len() + 4` bytes per message.
pub struct StepSender {
    queue: Arc<Mutex<VecDeque<Message>>>,
    counters: SharedCounters,
}

/// The scheduler-visible queue of a step link: in-flight messages in FIFO
/// order, popped (delivered) or discarded (dropped) one at a time.
#[derive(Clone)]
pub struct StepQueue {
    queue: Arc<Mutex<VecDeque<Message>>>,
}

/// Create a unidirectional step link whose traffic is recorded in
/// `counters`.
pub fn step_link(counters: SharedCounters) -> (StepSender, StepQueue) {
    let queue = Arc::new(Mutex::new(rank::NET_STEP_QUEUE, VecDeque::new()));
    (
        StepSender {
            queue: Arc::clone(&queue),
            counters,
        },
        StepQueue { queue },
    )
}

impl MsgSender for StepSender {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let bytes = msg.encoded_len() as u64 + 4;
        self.counters.record(bytes, msg.event_units());
        self.queue.lock().push_back(msg.clone());
        Ok(())
    }
}

impl StepQueue {
    /// Deliver (remove and return) the oldest in-flight message.
    pub fn pop(&self) -> Option<Message> {
        self.queue.lock().pop_front()
    }

    /// Number of in-flight messages.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// `true` when nothing is in flight on this link.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Clone of the oldest in-flight message without delivering it.
    pub fn peek(&self) -> Option<Message> {
        self.queue.lock().front().cloned()
    }

    /// Clone of the `idx`-th in-flight message (0 = oldest) without
    /// delivering it. Lets a scheduler fingerprint the full pending
    /// contents of a link.
    pub fn nth(&self, idx: usize) -> Option<Message> {
        self.queue.lock().get(idx).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dema_metrics::NetworkCounters;

    #[test]
    fn step_link_is_fifo_and_scheduler_driven() {
        let (mut tx, q) = step_link(NetworkCounters::new_shared());
        for gamma in 1..=3 {
            tx.send(&Message::GammaUpdate { gamma }).unwrap();
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek(), Some(Message::GammaUpdate { gamma: 1 }));
        assert_eq!(q.pop(), Some(Message::GammaUpdate { gamma: 1 }));
        assert_eq!(q.pop(), Some(Message::GammaUpdate { gamma: 2 }));
        assert_eq!(q.pop(), Some(Message::GammaUpdate { gamma: 3 }));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn accounting_matches_mem_link() {
        let counters = NetworkCounters::new_shared();
        let (mut tx, _q) = step_link(SharedCounters::clone(&counters));
        let m = Message::GammaUpdate { gamma: 4 };
        tx.send(&m).unwrap();
        let s = counters.snapshot();
        assert_eq!(s.bytes, m.encoded_len() as u64 + 4);
        assert_eq!(s.messages, 1);
    }

    #[test]
    fn pop_has_no_disconnect_signal() {
        let (mut tx, q) = step_link(NetworkCounters::new_shared());
        tx.send(&Message::GammaUpdate { gamma: 9 }).unwrap();
        drop(tx);
        // The queued message survives its sender; after it, the queue is
        // just empty — a step link never reports a disconnect.
        assert_eq!(q.pop(), Some(Message::GammaUpdate { gamma: 9 }));
        assert_eq!(q.pop(), None);
    }
}
