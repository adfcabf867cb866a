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
//! * [`tcp`] — real nonblocking TCP over `std::net` with length-prefixed
//!   frames, for multi-process runs. Byte accounting matches `mem` exactly.
//!
//! Links are unidirectional; a topology wires two per node pair. Every
//! receiver is polled, never waited on: [`MsgReceiver::try_recv`] is the
//! one receive operation, and the [`reactor`] sweeps it on each link it
//! hosts.
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
    /// `Ok(true)` means nothing is pending (always, for transports that
    /// never buffer — the default); `Ok(false)` means the peer's socket is
    /// still full and the caller should retry when it becomes writable
    /// (the reactor's `Writable` event).
    fn flush_pending(&mut self) -> Result<bool, NetError> {
        Ok(true)
    }
}

/// Receiving half of a link.
pub trait MsgReceiver: Send {
    /// Poll for one message without blocking. `Ok(None)` when none is
    /// ready yet; [`NetError::Disconnected`] once the peer is gone and
    /// every message it sent has been delivered.
    fn try_recv(&mut self) -> Result<Option<Message>, NetError>;
}

/// Per-link byte/message/event accounting shared with the harness.
pub type SharedCounters = Arc<NetworkCounters>;
