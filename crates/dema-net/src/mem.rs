//! In-memory links with exact wire accounting.
//!
//! Messages move through an unbounded `std::sync::mpsc` channel without being
//! serialized, but every send records the bytes the message *would* occupy
//! on the wire (`encoded_len() + 4` frame prefix) plus its event units, so
//! the network-cost figures are identical to a TCP run.
//!
//! Because nothing is encoded, this transport needs no frame buffers at
//! all: `send` clones the message into the channel, and for the hot
//! candidate-reply path that clone is a refcount bump on the reply's
//! `SharedRun` payloads — the events themselves are never copied between
//! the local store and the root's merger.

use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dema_core::sync::{rank, Mutex};
use dema_wire::Message;

use crate::{MsgReceiver, MsgSender, NetError, SharedCounters};

/// A simulated link-capacity limiter.
///
/// Models a serial link of fixed bandwidth: each frame occupies the link for
/// `bytes / bytes_per_sec`, and the sender blocks until its frame has
/// "finished transmitting". This reproduces the bandwidth-constrained edge
/// uplinks (Wi-Fi, LTE) the paper's motivation targets, without real
/// sockets.
#[derive(Debug)]
pub struct Throttle {
    bytes_per_sec: f64,
    available_at: Mutex<Instant>,
}

impl Throttle {
    /// A throttle for a link of `mbits_per_sec` megabits per second.
    pub fn new_shared(mbits_per_sec: u64) -> Arc<Throttle> {
        assert!(mbits_per_sec > 0, "bandwidth must be positive");
        Arc::new(Throttle {
            bytes_per_sec: mbits_per_sec as f64 * 1_000_000.0 / 8.0,
            available_at: Mutex::new(rank::NET_THROTTLE, Instant::now()),
        })
    }

    /// Block until a frame of `bytes` has cleared the link. Every frame
    /// costs at least its 4-byte length prefix, so zero-payload control
    /// frames are paced like any other traffic instead of passing free.
    fn transmit(&self, bytes: u64) {
        let bytes = bytes.max(4);
        let cost = Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        let deadline = {
            let mut at = self.available_at.lock();
            let now = Instant::now();
            let start = (*at).max(now);
            *at = start + cost;
            *at
        };
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
    }
}

/// Sending half of an in-memory link.
pub struct MemSender {
    tx: Sender<Message>,
    counters: SharedCounters,
    throttle: Option<Arc<Throttle>>,
}

/// Receiving half of an in-memory link.
pub struct MemReceiver {
    rx: Receiver<Message>,
}

/// Create a unidirectional in-memory link whose traffic is recorded in
/// `counters`.
pub fn link(counters: SharedCounters) -> (MemSender, MemReceiver) {
    // lint: allow(R12): in-flight traffic is bounded by the windows the protocol keeps open
    let (tx, rx) = mpsc::channel();
    (
        MemSender {
            tx,
            counters,
            throttle: None,
        },
        MemReceiver { rx },
    )
}

/// Create a bandwidth-limited in-memory link: sends block as if the frame
/// crossed a serial link of the throttle's capacity.
pub fn throttled_link(
    counters: SharedCounters,
    throttle: Arc<Throttle>,
) -> (MemSender, MemReceiver) {
    // lint: allow(R12): the throttle paces senders, so queue depth tracks link capacity
    let (tx, rx) = mpsc::channel();
    (
        MemSender {
            tx,
            counters,
            throttle: Some(throttle),
        },
        MemReceiver { rx },
    )
}

impl MsgSender for MemSender {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let bytes = msg.encoded_len() as u64 + 4;
        if let Some(t) = &self.throttle {
            t.transmit(bytes);
        }
        self.counters.record(bytes, msg.event_units());
        self.tx
            .send(msg.clone())
            .map_err(|_| NetError::Disconnected)
    }
}

impl MemReceiver {
    /// Block until a message arrives (or every sender is gone). For tests
    /// and single-threaded drivers; reactor-hosted code polls
    /// [`MsgReceiver::try_recv`] instead.
    pub fn recv(&mut self) -> Result<Message, NetError> {
        self.rx.recv().map_err(|_| NetError::Disconnected)
    }
}

impl MsgReceiver for MemReceiver {
    fn try_recv(&mut self) -> Result<Option<Message>, NetError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dema_core::event::{Event, NodeId, WindowId};
    use dema_metrics::NetworkCounters;

    fn msg(n: u64) -> Message {
        Message::EventBatch {
            node: NodeId(0),
            window: WindowId(0),
            sorted: false,
            events: (0..n).map(|i| Event::new(i as i64, i, i)).collect(),
        }
    }

    #[test]
    fn messages_arrive_in_order() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        for i in 0..10 {
            tx.send(&Message::GammaUpdate { gamma: i }).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), Message::GammaUpdate { gamma: i });
        }
    }

    #[test]
    fn accounting_matches_encoded_size() {
        let counters = NetworkCounters::new_shared();
        let (mut tx, _rx) = link(SharedCounters::clone(&counters));
        let m = msg(100);
        tx.send(&m).unwrap();
        let s = counters.snapshot();
        assert_eq!(s.bytes, m.encoded_len() as u64 + 4);
        assert_eq!(s.messages, 1);
        assert_eq!(s.events, 100);
    }

    #[test]
    fn try_recv_on_an_idle_link_is_none() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        assert!(rx.try_recv().unwrap().is_none());
        tx.send(&Message::GammaUpdate { gamma: 1 }).unwrap();
        assert_eq!(
            rx.try_recv().unwrap(),
            Some(Message::GammaUpdate { gamma: 1 })
        );
        assert!(rx.try_recv().unwrap().is_none());
    }

    #[test]
    fn dropped_sender_disconnects_receiver() {
        let (tx, mut rx) = link(NetworkCounters::new_shared());
        drop(tx);
        assert!(matches!(rx.recv(), Err(NetError::Disconnected)));
    }

    #[test]
    fn dropped_receiver_fails_sends() {
        let (mut tx, rx) = link(NetworkCounters::new_shared());
        drop(rx);
        assert!(matches!(
            tx.send(&Message::GammaUpdate { gamma: 1 }),
            Err(NetError::Disconnected)
        ));
    }

    #[test]
    fn works_across_threads() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        let h = std::thread::spawn(move || {
            for i in 0..1000 {
                tx.send(&Message::GammaUpdate { gamma: i }).unwrap();
            }
        });
        for i in 0..1000 {
            assert_eq!(rx.recv().unwrap(), Message::GammaUpdate { gamma: i });
        }
        h.join().unwrap();
    }

    #[test]
    fn throttled_link_paces_sends() {
        // 8 Mbit/s = 1 MB/s; 3 frames of ~24 KB ≈ 72 KB ≈ 70 ms.
        let throttle = Throttle::new_shared(8);
        let (mut tx, mut rx) = throttled_link(NetworkCounters::new_shared(), throttle);
        let start = std::time::Instant::now();
        for _ in 0..3 {
            tx.send(&msg(1000)).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(50),
            "sent too fast: {elapsed:?}"
        );
        for _ in 0..3 {
            assert!(rx.recv().is_ok());
        }
    }

    #[test]
    fn zero_byte_frames_still_pace() {
        // 1000 "free" frames at 1 Mbit/s (125 000 B/s): clamped to the
        // 4-byte header each, they occupy the link for 32 ms of budget
        // instead of zero.
        let throttle = Throttle::new_shared(1);
        let t = Arc::clone(&throttle);
        let start = Instant::now();
        for _ in 0..1000 {
            t.transmit(0);
        }
        // 1000 × 4 B at 125 000 B/s = 32 ms minimum.
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "zero-byte frames paced as free: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn throttle_serializes_concurrent_senders() {
        // Four links sharing one throttle, the way a node's data and
        // responder uplinks share its simulated link.
        let throttle = Throttle::new_shared(8); // 1 MB/s shared
        let counters = NetworkCounters::new_shared();
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (mut tx, rx) =
                    throttled_link(SharedCounters::clone(&counters), Arc::clone(&throttle));
                std::thread::spawn(move || {
                    tx.send(&msg(1000)).unwrap();
                    rx
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 × 24 KB ≈ 96 KB at 1 MB/s ≈ 96 ms serialized.
        assert!(start.elapsed() >= Duration::from_millis(60));
    }
}
