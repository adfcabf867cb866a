#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # dema-net
//!
//! Transports for the Dema cluster protocol. Two interchangeable
//! implementations behind the [`MsgSender`] / [`MsgReceiver`] traits:
//!
//! * [`mem`] — in-process links built on `std::sync::mpsc` channels. Every
//!   send is accounted with the message's exact encoded size (plus the
//!   4-byte frame prefix, for parity with TCP), so network-cost experiments
//!   measure real wire bytes even when nothing crosses a socket. This is the default
//!   substrate for the paper's cluster topology (see DESIGN.md §5 on the
//!   hardware substitution).
//! * [`tcp`] — real TCP over `std::net` with length-prefixed frames, for
//!   multi-process runs. Byte accounting matches `mem` exactly.
//!
//! Links are unidirectional; a topology wires two per node pair.
//!
//! The [`fault`] module wraps either transport's sender in a seeded
//! chaos layer (drops, delay, duplication, reordering, scripted
//! disconnects) for deterministic fault testing.

pub mod fault;
pub mod mem;
pub mod reactor;
pub mod step;
pub mod tcp;

pub use mem::link;

use dema_metrics::NetworkCounters;
use dema_wire::Message;
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced by transports.
#[derive(Debug)]
pub enum NetError {
    /// The peer is gone (channel closed / connection reset).
    Disconnected,
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// A frame failed to decode.
    Corrupt(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Sending half of a link.
pub trait MsgSender: Send {
    /// Send one message; accounting happens here.
    fn send(&mut self, msg: &Message) -> Result<(), NetError>;

    /// Retry any bytes a nonblocking sender buffered on `WouldBlock`.
    /// `Ok(true)` means nothing is pending (always, for blocking
    /// transports — the default); `Ok(false)` means the peer's socket is
    /// still full and the caller should retry when it becomes writable
    /// (the reactor's `Writable` event).
    fn flush_pending(&mut self) -> Result<bool, NetError> {
        Ok(true)
    }
}

/// Receiving half of a link.
pub trait MsgReceiver: Send {
    /// Block until a message arrives (or the peer disconnects).
    fn recv(&mut self) -> Result<Message, NetError>;

    /// Wait up to `timeout`; `Ok(None)` on timeout.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError>;

    /// Non-blocking poll; `Ok(None)` when no message is ready. The default
    /// falls back to a short timed wait for transports without a cheap
    /// non-blocking path (TCP).
    fn try_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.recv_timeout(Duration::from_micros(500))
    }
}

/// Per-link byte/message/event accounting shared with the harness.
pub type SharedCounters = Arc<NetworkCounters>;
