#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # dema-wire
//!
//! Hand-rolled binary wire format for every message of the Dema cluster
//! protocol, plus length-prefixed framing for stream transports.
//!
//! A custom codec instead of a serialization framework for two reasons:
//! the network-cost experiments (Figure 6) need *exact*, deterministic
//! on-wire byte counts, and the protocol is small enough that an explicit
//! format is simpler than a dependency. All integers are little-endian and
//! fixed-width; every message starts with a one-byte tag.
//!
//! * [`message::Message`] — the protocol: synopsis batches, candidate
//!   requests/replies, raw event batches (centralized & decentralized-sort
//!   baselines), t-digest batches (Tdigest baseline), γ updates, window
//!   results, and stream-end markers.
//! * [`frame`] — `u32` length-prefixed framing: [`encode_frame_into`]
//!   appends a frame to a caller-owned buffer and [`decode_frame`] parses
//!   one off the front of a byte buffer, reporting an incomplete frame as
//!   `Ok(None)`. The TCP transport in `dema-net` keeps one outbound and
//!   one inbound buffer per connection and runs every frame through these
//!   two functions.
//! * [`pool`] — a capped free-list of byte buffers.

pub mod frame;
pub mod message;
pub mod pool;

pub use frame::{decode_frame, encode_frame_into};
pub use message::{tag_by_name, tag_info, Message, TagInfo, WireError, TAGS};
pub use pool::BufferPool;
