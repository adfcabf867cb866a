//! Protocol messages and their binary encoding.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::shared::SharedRun;
use dema_core::slice::{SliceId, SliceSynopsis};
use dema_sketch::tdigest::Centroid;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the message did.
    Truncated,
    /// Unknown message tag byte.
    BadTag(u8),
    /// A length field exceeds sanity limits (corruption guard).
    BadLength(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadLength(l) => write!(f, "implausible length field {l}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Hard cap on any element count in a decoded message; frames larger than
/// this indicate corruption, not workload.
const MAX_ELEMS: u64 = 1 << 28;

const TAG_SYNOPSIS_BATCH: u8 = 1;
const TAG_CANDIDATE_REQUEST: u8 = 2;
const TAG_CANDIDATE_REPLY: u8 = 3;
const TAG_EVENT_BATCH: u8 = 4;
const TAG_DIGEST_BATCH: u8 = 5;
const TAG_GAMMA_UPDATE: u8 = 6;
const TAG_WINDOW_RESULT: u8 = 7;
const TAG_STREAM_END: u8 = 8;
const TAG_SKETCH_BATCH: u8 = 9;
const TAG_ROUTED: u8 = 10;
const TAG_RESEND_WINDOW: u8 = 11;
const TAG_CANDIDATE_RETRY: u8 = 12;
const TAG_JOIN_REQUEST: u8 = 13;
const TAG_JOIN_ACCEPT: u8 = 14;
const TAG_LEAVE_ANNOUNCE: u8 = 15;
const TAG_DRAIN_COMPLETE: u8 = 16;
const TAG_EPOCH_SWITCH: u8 = 17;

/// Every message of the Dema cluster protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Local → root (identification step): synopses of one closed local
    /// window.
    SynopsisBatch {
        /// Sender.
        node: NodeId,
        /// Window the synopses describe.
        window: WindowId,
        /// One synopsis per slice, ascending slice index.
        synopses: Vec<SliceSynopsis>,
    },
    /// Root → local (calculation step): request the events of these slices.
    CandidateRequest {
        /// Window being resolved.
        window: WindowId,
        /// Slice indices (within the receiver's slice sequence) to ship.
        slices: Vec<u32>,
    },
    /// Local → root (calculation step): the requested candidate events.
    ///
    /// The runs are [`SharedRun`] views: building a reply from the local
    /// store bumps refcounts, and cloning the message (e.g. into an
    /// in-memory transport) never copies events.
    CandidateReply {
        /// Sender.
        node: NodeId,
        /// Window being resolved.
        window: WindowId,
        /// `(slice index, sorted events)` per requested slice.
        slices: Vec<(u32, SharedRun)>,
    },
    /// Local → root: raw events of one window (the centralized and
    /// decentralized-sort baselines; `sorted` distinguishes them).
    EventBatch {
        /// Sender.
        node: NodeId,
        /// Window the events belong to.
        window: WindowId,
        /// `true` if the sender pre-sorted the batch (Desis-style).
        sorted: bool,
        /// The events.
        events: Vec<Event>,
    },
    /// Local → root: a t-digest of one window (distributed Tdigest mode).
    DigestBatch {
        /// Sender.
        node: NodeId,
        /// Window the digest summarizes.
        window: WindowId,
        /// Observations absorbed.
        count: u64,
        /// Digest compression δ.
        compression: f64,
        /// Digest centroids, ascending mean.
        centroids: Vec<Centroid>,
    },
    /// Root → local: γ for the next windows (adaptive slice factor).
    GammaUpdate {
        /// New slice factor.
        gamma: u64,
    },
    /// Root → observers: final aggregate of one global window.
    WindowResult {
        /// The window.
        window: WindowId,
        /// Quantile value.
        value: i64,
        /// Global window size `l_G`.
        total_events: u64,
    },
    /// Local → root: this node will send nothing further.
    StreamEnd {
        /// Sender.
        node: NodeId,
        /// Events this node dropped as late (behind its watermark).
        late_events: u64,
    },
    /// Local → root: a mergeable weighted-sample sketch of one window
    /// (distributed sketch engines, e.g. KLL). Items are `(value, weight)`
    /// pairs; weights sum to `count`.
    SketchBatch {
        /// Sender.
        node: NodeId,
        /// Window the sketch summarizes.
        window: WindowId,
        /// Observations absorbed.
        count: u64,
        /// Exact smallest observation (retained items may lose extremes).
        min: f64,
        /// Exact largest observation.
        max: f64,
        /// Weighted items, ascending value.
        items: Vec<(f64, u64)>,
    },
    /// Relay envelope (root → relay tiers): deliver `inner` to local
    /// `dest`. Relays whose children are leaves unwrap it; deeper relays
    /// forward it unchanged. Never nested.
    Routed {
        /// The local node the inner message is for.
        dest: NodeId,
        /// The wrapped control message.
        inner: Box<Message>,
    },
    /// Root → local (retry protocol): the root's deadline for this window's
    /// uplink message expired — resend it from the local's sent-cache.
    /// `attempt` is the retry epoch (sequence number), monotonically
    /// increasing per window so stale retransmissions are identifiable.
    ResendWindow {
        /// Window whose uplink message is missing at the root.
        window: WindowId,
        /// Retry epoch, starting at 1 for the first resend request.
        attempt: u32,
    },
    /// Root → local (retry protocol): re-request candidate slices after a
    /// lost [`Message::CandidateRequest`] or [`Message::CandidateReply`].
    /// Unlike the original request it carries an `attempt` epoch, and
    /// locals serve it idempotently from the retained store.
    CandidateRetry {
        /// Window being resolved.
        window: WindowId,
        /// Slice indices (within the receiver's slice sequence) to ship.
        slices: Vec<u32>,
        /// Retry epoch, starting at 1 for the first re-request.
        attempt: u32,
    },
    /// Local → root (membership protocol): this node wants to join the
    /// cluster effective at a window boundary — it will produce windows
    /// `>= window` and nothing earlier.
    JoinRequest {
        /// The joining node.
        node: NodeId,
        /// First window the joiner will report (the epoch boundary).
        window: WindowId,
    },
    /// Root → local (membership protocol): the join is staged; the root
    /// will expect the joiner's reports from `window` on and counts it as
    /// a member of `epoch`.
    JoinAccept {
        /// The accepted joiner.
        node: NodeId,
        /// Membership epoch the joiner becomes a member of.
        epoch: u64,
        /// First window the root expects from the joiner.
        window: WindowId,
        /// Slice factor the joiner must cut its first windows with.
        gamma: u64,
    },
    /// Local → root (membership protocol): this node is leaving — it has
    /// produced every window `< window` and will produce nothing later,
    /// but keeps its responder serving until the root confirms the drain.
    LeaveAnnounce {
        /// The leaving node.
        node: NodeId,
        /// First window the leaver will NOT report (the epoch boundary).
        window: WindowId,
    },
    /// Root → local (membership protocol): every window the leaver owed —
    /// including its `SentCache` replay obligations — is resolved; the
    /// node may shut down its responder and exit.
    DrainComplete {
        /// The drained node.
        node: NodeId,
        /// Membership epoch the node left at the start of.
        epoch: u64,
    },
    /// Root → locals (membership protocol): broadcast at a window
    /// boundary when staged joins/leaves take effect. Every window
    /// `>= window` is computed under `epoch`'s membership.
    EpochSwitch {
        /// The new membership epoch.
        epoch: u64,
        /// First window of the new epoch.
        window: WindowId,
        /// Nodes that became members at this boundary.
        joined: Vec<NodeId>,
        /// Nodes that ceased to be members at this boundary.
        left: Vec<NodeId>,
    },
}

/// Static metadata for one wire tag: the on-wire tag byte and the
/// [`Message`] variant name it decodes to. Consumed by the protocol
/// specification in `dema-model` and the spec-conformance lint rules, so
/// both always agree with the codec about which tags exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagInfo {
    /// The one-byte tag that starts every encoded message of this variant.
    pub tag: u8,
    /// The `Message` variant name, e.g. `"SynopsisBatch"`.
    pub name: &'static str,
}

/// Every wire tag, ascending by tag byte. One entry per [`Message`]
/// variant; `tags_cover_every_variant` in the test module pins the
/// correspondence.
pub const TAGS: [TagInfo; 17] = [
    TagInfo {
        tag: TAG_SYNOPSIS_BATCH,
        name: "SynopsisBatch",
    },
    TagInfo {
        tag: TAG_CANDIDATE_REQUEST,
        name: "CandidateRequest",
    },
    TagInfo {
        tag: TAG_CANDIDATE_REPLY,
        name: "CandidateReply",
    },
    TagInfo {
        tag: TAG_EVENT_BATCH,
        name: "EventBatch",
    },
    TagInfo {
        tag: TAG_DIGEST_BATCH,
        name: "DigestBatch",
    },
    TagInfo {
        tag: TAG_GAMMA_UPDATE,
        name: "GammaUpdate",
    },
    TagInfo {
        tag: TAG_WINDOW_RESULT,
        name: "WindowResult",
    },
    TagInfo {
        tag: TAG_STREAM_END,
        name: "StreamEnd",
    },
    TagInfo {
        tag: TAG_SKETCH_BATCH,
        name: "SketchBatch",
    },
    TagInfo {
        tag: TAG_ROUTED,
        name: "Routed",
    },
    TagInfo {
        tag: TAG_RESEND_WINDOW,
        name: "ResendWindow",
    },
    TagInfo {
        tag: TAG_CANDIDATE_RETRY,
        name: "CandidateRetry",
    },
    TagInfo {
        tag: TAG_JOIN_REQUEST,
        name: "JoinRequest",
    },
    TagInfo {
        tag: TAG_JOIN_ACCEPT,
        name: "JoinAccept",
    },
    TagInfo {
        tag: TAG_LEAVE_ANNOUNCE,
        name: "LeaveAnnounce",
    },
    TagInfo {
        tag: TAG_DRAIN_COMPLETE,
        name: "DrainComplete",
    },
    TagInfo {
        tag: TAG_EPOCH_SWITCH,
        name: "EpochSwitch",
    },
];

/// Look up the metadata for a wire tag byte, if one is defined.
pub fn tag_info(tag: u8) -> Option<TagInfo> {
    TAGS.iter().copied().find(|t| t.tag == tag)
}

/// Look up the metadata for a [`Message`] variant name, if one is defined.
pub fn tag_by_name(name: &str) -> Option<TagInfo> {
    TAGS.iter().copied().find(|t| t.name == name)
}

impl Message {
    /// The wire tag byte this message encodes with — always the first byte
    /// of [`Message::encode_into`] output.
    pub fn tag(&self) -> u8 {
        match self {
            Message::SynopsisBatch { .. } => TAG_SYNOPSIS_BATCH,
            Message::CandidateRequest { .. } => TAG_CANDIDATE_REQUEST,
            Message::CandidateReply { .. } => TAG_CANDIDATE_REPLY,
            Message::EventBatch { .. } => TAG_EVENT_BATCH,
            Message::DigestBatch { .. } => TAG_DIGEST_BATCH,
            Message::GammaUpdate { .. } => TAG_GAMMA_UPDATE,
            Message::WindowResult { .. } => TAG_WINDOW_RESULT,
            Message::StreamEnd { .. } => TAG_STREAM_END,
            Message::SketchBatch { .. } => TAG_SKETCH_BATCH,
            Message::Routed { .. } => TAG_ROUTED,
            Message::ResendWindow { .. } => TAG_RESEND_WINDOW,
            Message::CandidateRetry { .. } => TAG_CANDIDATE_RETRY,
            Message::JoinRequest { .. } => TAG_JOIN_REQUEST,
            Message::JoinAccept { .. } => TAG_JOIN_ACCEPT,
            Message::LeaveAnnounce { .. } => TAG_LEAVE_ANNOUNCE,
            Message::DrainComplete { .. } => TAG_DRAIN_COMPLETE,
            Message::EpochSwitch { .. } => TAG_EPOCH_SWITCH,
        }
    }

    /// The variant name as recorded in [`TAGS`], e.g. `"SynopsisBatch"`.
    pub fn variant_name(&self) -> &'static str {
        match tag_info(self.tag()) {
            Some(t) => t.name,
            None => "<unknown>",
        }
    }

    /// Encode into `buf` (appending), e.g. a buffer drawn from
    /// [`crate::pool::BufferPool`]. The encoding is deterministic;
    /// [`Message::encoded_len`] predicts the exact size.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.encoded_len());
        self.encode_impl(buf);
    }

    fn encode_impl(&self, buf: &mut Vec<u8>) {
        match self {
            Message::SynopsisBatch {
                node,
                window,
                synopses,
            } => {
                buf.put_u8(TAG_SYNOPSIS_BATCH);
                buf.put_u32_le(node.0);
                buf.put_u64_le(window.0);
                buf.put_u32_le(synopses.len() as u32);
                for s in synopses {
                    buf.put_u32_le(s.id.index);
                    buf.put_i64_le(s.first);
                    buf.put_i64_le(s.last);
                    buf.put_u64_le(s.count);
                    buf.put_u32_le(s.total_slices);
                }
            }
            Message::CandidateRequest { window, slices } => {
                buf.put_u8(TAG_CANDIDATE_REQUEST);
                buf.put_u64_le(window.0);
                buf.put_u32_le(slices.len() as u32);
                for &i in slices {
                    buf.put_u32_le(i);
                }
            }
            Message::CandidateReply {
                node,
                window,
                slices,
            } => {
                buf.put_u8(TAG_CANDIDATE_REPLY);
                buf.put_u32_le(node.0);
                buf.put_u64_le(window.0);
                buf.put_u32_le(slices.len() as u32);
                for (idx, events) in slices {
                    buf.put_u32_le(*idx);
                    buf.put_u32_le(events.len() as u32);
                    put_events(buf, events.as_ref());
                }
            }
            Message::EventBatch {
                node,
                window,
                sorted,
                events,
            } => {
                buf.put_u8(TAG_EVENT_BATCH);
                buf.put_u32_le(node.0);
                buf.put_u64_le(window.0);
                buf.put_u8(u8::from(*sorted));
                buf.put_u32_le(events.len() as u32);
                put_events(buf, events);
            }
            Message::DigestBatch {
                node,
                window,
                count,
                compression,
                centroids,
            } => {
                buf.put_u8(TAG_DIGEST_BATCH);
                buf.put_u32_le(node.0);
                buf.put_u64_le(window.0);
                buf.put_u64_le(*count);
                buf.put_f64_le(*compression);
                buf.put_u32_le(centroids.len() as u32);
                for c in centroids {
                    buf.put_f64_le(c.mean);
                    buf.put_u64_le(c.weight);
                }
            }
            Message::GammaUpdate { gamma } => {
                buf.put_u8(TAG_GAMMA_UPDATE);
                buf.put_u64_le(*gamma);
            }
            Message::WindowResult {
                window,
                value,
                total_events,
            } => {
                buf.put_u8(TAG_WINDOW_RESULT);
                buf.put_u64_le(window.0);
                buf.put_i64_le(*value);
                buf.put_u64_le(*total_events);
            }
            Message::StreamEnd { node, late_events } => {
                buf.put_u8(TAG_STREAM_END);
                buf.put_u32_le(node.0);
                buf.put_u64_le(*late_events);
            }
            Message::SketchBatch {
                node,
                window,
                count,
                min,
                max,
                items,
            } => {
                buf.put_u8(TAG_SKETCH_BATCH);
                buf.put_u32_le(node.0);
                buf.put_u64_le(window.0);
                buf.put_u64_le(*count);
                buf.put_f64_le(*min);
                buf.put_f64_le(*max);
                buf.put_u32_le(items.len() as u32);
                for (v, w) in items {
                    buf.put_f64_le(*v);
                    buf.put_u64_le(*w);
                }
            }
            Message::Routed { dest, inner } => {
                buf.put_u8(TAG_ROUTED);
                buf.put_u32_le(dest.0);
                inner.encode_impl(buf);
            }
            Message::ResendWindow { window, attempt } => {
                buf.put_u8(TAG_RESEND_WINDOW);
                buf.put_u64_le(window.0);
                buf.put_u32_le(*attempt);
            }
            Message::CandidateRetry {
                window,
                slices,
                attempt,
            } => {
                buf.put_u8(TAG_CANDIDATE_RETRY);
                buf.put_u64_le(window.0);
                buf.put_u32_le(*attempt);
                buf.put_u32_le(slices.len() as u32);
                for &i in slices {
                    buf.put_u32_le(i);
                }
            }
            Message::JoinRequest { node, window } => {
                buf.put_u8(TAG_JOIN_REQUEST);
                buf.put_u32_le(node.0);
                buf.put_u64_le(window.0);
            }
            Message::JoinAccept {
                node,
                epoch,
                window,
                gamma,
            } => {
                buf.put_u8(TAG_JOIN_ACCEPT);
                buf.put_u32_le(node.0);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(window.0);
                buf.put_u64_le(*gamma);
            }
            Message::LeaveAnnounce { node, window } => {
                buf.put_u8(TAG_LEAVE_ANNOUNCE);
                buf.put_u32_le(node.0);
                buf.put_u64_le(window.0);
            }
            Message::DrainComplete { node, epoch } => {
                buf.put_u8(TAG_DRAIN_COMPLETE);
                buf.put_u32_le(node.0);
                buf.put_u64_le(*epoch);
            }
            Message::EpochSwitch {
                epoch,
                window,
                joined,
                left,
            } => {
                buf.put_u8(TAG_EPOCH_SWITCH);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(window.0);
                buf.put_u32_le(joined.len() as u32);
                for n in joined {
                    buf.put_u32_le(n.0);
                }
                buf.put_u32_le(left.len() as u32);
                for n in left {
                    buf.put_u32_le(n.0);
                }
            }
        }
    }

    /// Exact size [`Message::encode_into`] will append, in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::SynopsisBatch { synopses, .. } => {
                1 + 4 + 8 + 4 + synopses.len() * (4 + 8 + 8 + 8 + 4)
            }
            Message::CandidateRequest { slices, .. } => 1 + 8 + 4 + slices.len() * 4,
            Message::CandidateReply { slices, .. } => {
                1 + 4
                    + 8
                    + 4
                    + slices
                        .iter()
                        .map(|(_, ev)| 4 + 4 + ev.len() * EVENT_LEN)
                        .sum::<usize>()
            }
            Message::EventBatch { events, .. } => 1 + 4 + 8 + 1 + 4 + events.len() * EVENT_LEN,
            Message::DigestBatch { centroids, .. } => 1 + 4 + 8 + 8 + 8 + 4 + centroids.len() * 16,
            Message::GammaUpdate { .. } => 1 + 8,
            Message::WindowResult { .. } => 1 + 8 + 8 + 8,
            Message::StreamEnd { .. } => 1 + 4 + 8,
            Message::SketchBatch { items, .. } => 1 + 4 + 8 + 8 + 8 + 8 + 4 + items.len() * 16,
            Message::Routed { inner, .. } => 1 + 4 + inner.encoded_len(),
            Message::ResendWindow { .. } => 1 + 8 + 4,
            Message::CandidateRetry { slices, .. } => 1 + 8 + 4 + 4 + slices.len() * 4,
            Message::JoinRequest { .. } | Message::LeaveAnnounce { .. } => 1 + 4 + 8,
            Message::JoinAccept { .. } => 1 + 4 + 8 + 8 + 8,
            Message::DrainComplete { .. } => 1 + 4 + 8,
            Message::EpochSwitch { joined, left, .. } => {
                1 + 8 + 8 + 4 + joined.len() * 4 + 4 + left.len() * 4
            }
        }
    }

    /// Encode into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decode one message from `buf`, which must contain exactly one
    /// encoded message (as produced by [`Message::encode_into`]).
    pub fn decode(mut buf: &[u8]) -> Result<Message, WireError> {
        let msg = decode_inner(&mut buf, true)?;
        if !buf.is_empty() {
            return Err(WireError::BadLength(buf.len() as u64));
        }
        Ok(msg)
    }

    /// The paper's events-on-the-wire cost of this message: raw events carry
    /// themselves; a synopsis carries its two endpoint events; control
    /// messages are free. (Byte counts are tracked separately.)
    pub fn event_units(&self) -> u64 {
        match self {
            Message::SynopsisBatch { synopses, .. } => 2 * synopses.len() as u64,
            Message::CandidateReply { slices, .. } => {
                slices.iter().map(|(_, ev)| ev.len() as u64).sum()
            }
            Message::EventBatch { events, .. } => events.len() as u64,
            // A centroid is a compressed pair, not an event; count them like
            // synopsis endpoints for comparability.
            Message::DigestBatch { centroids, .. } => centroids.len() as u64,
            // Same accounting for weighted sketch items.
            Message::SketchBatch { items, .. } => items.len() as u64,
            // The envelope adds no events of its own.
            Message::Routed { inner, .. } => inner.event_units(),
            _ => 0,
        }
    }

    /// The `(sender, window)` key of a window-keyed data-plane message —
    /// the unit of per-node traffic attribution. Control traffic (stream
    /// ends, membership handshakes, retries, γ updates) carries no key:
    /// it reflects the fault and reconfiguration layers, not a node's
    /// contribution to a window.
    pub fn data_source(&self) -> Option<(NodeId, WindowId)> {
        match self {
            Message::SynopsisBatch { node, window, .. }
            | Message::CandidateReply { node, window, .. }
            | Message::EventBatch { node, window, .. }
            | Message::DigestBatch { node, window, .. }
            | Message::SketchBatch { node, window, .. } => Some((*node, *window)),
            Message::Routed { inner, .. } => inner.data_source(),
            _ => None,
        }
    }
}

/// Little-endian field writers for the encoder.
trait PutLe {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_i64_le(&mut self, v: i64);
    fn put_f64_le(&mut self, v: f64);
}

impl PutLe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64_le(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Little-endian field readers for the decoder. Each consumes its field
/// from the front of the slice, or fails with [`WireError::Truncated`]
/// when the slice is too short.
trait GetLe {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError>;
    fn get_u8(&mut self) -> Result<u8, WireError> {
        self.take().map(u8::from_le_bytes)
    }
    fn get_u32_le(&mut self) -> Result<u32, WireError> {
        self.take().map(u32::from_le_bytes)
    }
    fn get_u64_le(&mut self) -> Result<u64, WireError> {
        self.take().map(u64::from_le_bytes)
    }
    fn get_i64_le(&mut self) -> Result<i64, WireError> {
        self.take().map(i64::from_le_bytes)
    }
    fn get_f64_le(&mut self) -> Result<f64, WireError> {
        self.take().map(f64::from_le_bytes)
    }
}

impl GetLe for &[u8] {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.split_first_chunk::<N>().ok_or(WireError::Truncated)?;
        *self = rest;
        Ok(*head)
    }
}

/// Bytes per encoded event.
pub const EVENT_LEN: usize = 8 + 8 + 8;

/// Events per block of the strided batch codec: 64 events fill a 1536-byte
/// stack buffer — small enough to stay cache-hot, large enough that the
/// fill loop autovectorizes and the buffer append is paid once per block
/// instead of three times per event.
const EVENT_BLOCK: usize = 64;

/// Encode a batch of events in fixed-stride blocks.
///
/// Byte-for-byte identical to encoding each event as
/// `put_i64_le(value), put_u64_le(ts), put_u64_le(id)` — the layout is the
/// same 24-byte little-endian record, only the write granularity changes
/// (one `put_slice` per block). The frame-level golden test below pins the
/// equivalence.
fn put_events(buf: &mut Vec<u8>, events: &[Event]) {
    let mut block = [0u8; EVENT_BLOCK * EVENT_LEN];
    for chunk in events.chunks(EVENT_BLOCK) {
        for (rec, e) in block.chunks_exact_mut(EVENT_LEN).zip(chunk) {
            rec[..8].copy_from_slice(&e.value.to_le_bytes());
            rec[8..16].copy_from_slice(&e.ts.to_le_bytes());
            rec[16..24].copy_from_slice(&e.id.to_le_bytes());
        }
        buf.extend_from_slice(&block[..chunk.len() * EVENT_LEN]);
    }
}

/// Decode `n` fixed-stride event records.
///
/// Verifies the full `n · EVENT_LEN` bytes are present up front (any
/// truncation inside the batch still fails, now before allocating), then
/// strides through the raw records — no per-field bounds checks.
fn take_events(buf: &mut &[u8], n: usize) -> Result<Vec<Event>, WireError> {
    let bytes = n
        .checked_mul(EVENT_LEN)
        .ok_or(WireError::BadLength(n as u64))?;
    need(buf, bytes)?;
    let (records, rest) = buf.split_at(bytes);
    let mut events = Vec::with_capacity(n);
    let mut word = [0u8; 8];
    for rec in records.chunks_exact(EVENT_LEN) {
        word.copy_from_slice(&rec[..8]);
        let value = i64::from_le_bytes(word);
        word.copy_from_slice(&rec[8..16]);
        let ts = u64::from_le_bytes(word);
        word.copy_from_slice(&rec[16..24]);
        let id = u64::from_le_bytes(word);
        events.push(Event { value, ts, id });
    }
    *buf = rest;
    Ok(events)
}

#[inline]
fn need(buf: &&[u8], n: usize) -> Result<(), WireError> {
    if buf.len() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn take_count(buf: &mut &[u8]) -> Result<usize, WireError> {
    let n = u64::from(buf.get_u32_le()?);
    if n > MAX_ELEMS {
        return Err(WireError::BadLength(n));
    }
    Ok(n as usize)
}

/// Validate that `n` records of at least `record_len` bytes each are
/// actually present in `buf`, then hand `n` back as a trustworthy
/// capacity. Replaces the old `n.min(1024)`-style capacity guesses: the
/// output vector is sized exactly once from the validated frame length,
/// so decode loops never grow mid-flight (lint rule R15, `codec` region)
/// and a lying count fails *before* allocating instead of after.
#[inline]
fn validated_count(buf: &&[u8], n: usize, record_len: usize) -> Result<usize, WireError> {
    let bytes = n
        .checked_mul(record_len)
        .ok_or(WireError::BadLength(n as u64))?;
    need(buf, bytes)?;
    Ok(n)
}

// hot-path: codec
fn decode_inner(buf: &mut &[u8], allow_routed: bool) -> Result<Message, WireError> {
    let tag = buf.get_u8()?;
    match tag {
        TAG_SYNOPSIS_BATCH => {
            let node = NodeId(buf.get_u32_le()?);
            let window = WindowId(buf.get_u64_le()?);
            let n = take_count(buf)?;
            let mut synopses = Vec::with_capacity(validated_count(buf, n, 4 + 8 + 8 + 8 + 4)?);
            for _ in 0..n {
                let index = buf.get_u32_le()?;
                let first = buf.get_i64_le()?;
                let last = buf.get_i64_le()?;
                let count = buf.get_u64_le()?;
                let total_slices = buf.get_u32_le()?;
                synopses.push(SliceSynopsis {
                    id: SliceId {
                        node,
                        window,
                        index,
                    },
                    first,
                    last,
                    count,
                    total_slices,
                });
            }
            Ok(Message::SynopsisBatch {
                node,
                window,
                synopses,
            })
        }
        TAG_CANDIDATE_REQUEST => {
            let window = WindowId(buf.get_u64_le()?);
            let n = take_count(buf)?;
            let mut slices = Vec::with_capacity(validated_count(buf, n, 4)?);
            for _ in 0..n {
                slices.push(buf.get_u32_le()?);
            }
            Ok(Message::CandidateRequest { window, slices })
        }
        TAG_CANDIDATE_REPLY => {
            let node = NodeId(buf.get_u32_le()?);
            let window = WindowId(buf.get_u64_le()?);
            let n = take_count(buf)?;
            // Variable-length records: validate against the 8-byte floor
            // (slice index + event count) every record must carry.
            let mut slices = Vec::with_capacity(validated_count(buf, n, 4 + 4)?);
            for _ in 0..n {
                let idx = buf.get_u32_le()?;
                let m = take_count(buf)?;
                slices.push((idx, SharedRun::from_vec(take_events(buf, m)?)));
            }
            Ok(Message::CandidateReply {
                node,
                window,
                slices,
            })
        }
        TAG_EVENT_BATCH => {
            let node = NodeId(buf.get_u32_le()?);
            let window = WindowId(buf.get_u64_le()?);
            let sorted = buf.get_u8()? != 0;
            let n = take_count(buf)?;
            let events = take_events(buf, n)?;
            Ok(Message::EventBatch {
                node,
                window,
                sorted,
                events,
            })
        }
        TAG_DIGEST_BATCH => {
            let node = NodeId(buf.get_u32_le()?);
            let window = WindowId(buf.get_u64_le()?);
            let count = buf.get_u64_le()?;
            let compression = buf.get_f64_le()?;
            let n = take_count(buf)?;
            let mut centroids = Vec::with_capacity(validated_count(buf, n, 16)?);
            for _ in 0..n {
                let mean = buf.get_f64_le()?;
                let weight = buf.get_u64_le()?;
                centroids.push(Centroid { mean, weight });
            }
            Ok(Message::DigestBatch {
                node,
                window,
                count,
                compression,
                centroids,
            })
        }
        TAG_GAMMA_UPDATE => Ok(Message::GammaUpdate {
            gamma: buf.get_u64_le()?,
        }),
        TAG_WINDOW_RESULT => Ok(Message::WindowResult {
            window: WindowId(buf.get_u64_le()?),
            value: buf.get_i64_le()?,
            total_events: buf.get_u64_le()?,
        }),
        TAG_STREAM_END => Ok(Message::StreamEnd {
            node: NodeId(buf.get_u32_le()?),
            late_events: buf.get_u64_le()?,
        }),
        TAG_SKETCH_BATCH => {
            let node = NodeId(buf.get_u32_le()?);
            let window = WindowId(buf.get_u64_le()?);
            let count = buf.get_u64_le()?;
            let min = buf.get_f64_le()?;
            let max = buf.get_f64_le()?;
            let n = take_count(buf)?;
            let mut items = Vec::with_capacity(validated_count(buf, n, 16)?);
            for _ in 0..n {
                let v = buf.get_f64_le()?;
                let w = buf.get_u64_le()?;
                items.push((v, w));
            }
            Ok(Message::SketchBatch {
                node,
                window,
                count,
                min,
                max,
                items,
            })
        }
        // An envelope inside an envelope is corruption, not topology: relays
        // forward a routed frame unchanged, they never re-wrap it.
        TAG_RESEND_WINDOW => Ok(Message::ResendWindow {
            window: WindowId(buf.get_u64_le()?),
            attempt: buf.get_u32_le()?,
        }),
        TAG_CANDIDATE_RETRY => {
            let window = WindowId(buf.get_u64_le()?);
            let attempt = buf.get_u32_le()?;
            let n = take_count(buf)?;
            let mut slices = Vec::with_capacity(validated_count(buf, n, 4)?);
            for _ in 0..n {
                slices.push(buf.get_u32_le()?);
            }
            Ok(Message::CandidateRetry {
                window,
                slices,
                attempt,
            })
        }
        TAG_JOIN_REQUEST => Ok(Message::JoinRequest {
            node: NodeId(buf.get_u32_le()?),
            window: WindowId(buf.get_u64_le()?),
        }),
        TAG_JOIN_ACCEPT => Ok(Message::JoinAccept {
            node: NodeId(buf.get_u32_le()?),
            epoch: buf.get_u64_le()?,
            window: WindowId(buf.get_u64_le()?),
            gamma: buf.get_u64_le()?,
        }),
        TAG_LEAVE_ANNOUNCE => Ok(Message::LeaveAnnounce {
            node: NodeId(buf.get_u32_le()?),
            window: WindowId(buf.get_u64_le()?),
        }),
        TAG_DRAIN_COMPLETE => Ok(Message::DrainComplete {
            node: NodeId(buf.get_u32_le()?),
            epoch: buf.get_u64_le()?,
        }),
        TAG_EPOCH_SWITCH => {
            let epoch = buf.get_u64_le()?;
            let window = WindowId(buf.get_u64_le()?);
            let n = take_count(buf)?;
            let mut joined = Vec::with_capacity(validated_count(buf, n, 4)?);
            for _ in 0..n {
                joined.push(NodeId(buf.get_u32_le()?));
            }
            let m = take_count(buf)?;
            let mut left = Vec::with_capacity(validated_count(buf, m, 4)?);
            for _ in 0..m {
                left.push(NodeId(buf.get_u32_le()?));
            }
            Ok(Message::EpochSwitch {
                epoch,
                window,
                joined,
                left,
            })
        }
        TAG_ROUTED if allow_routed => {
            let dest = NodeId(buf.get_u32_le()?);
            let inner = decode_inner(buf, false)?;
            Ok(Message::Routed {
                dest,
                inner: Box::new(inner), // lint: allow(R15): Box is the Routed variant's representation; relay control path
            })
        }
        other => Err(WireError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let bytes = msg.to_bytes();
        assert_eq!(
            bytes.len(),
            msg.encoded_len(),
            "encoded_len mismatch for {msg:?}"
        );
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    fn sample_events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| Event::new(i as i64 * 3 - 50, i * 7, i))
            .collect()
    }

    fn sample_run(n: u64) -> SharedRun {
        SharedRun::from_vec(sample_events(n))
    }

    /// Golden frame-level check: the strided block codec produces exactly
    /// the bytes the original per-field codec did. The reference encoder
    /// below is the retired implementation, kept verbatim.
    #[test]
    fn strided_event_codec_is_bit_identical_to_per_field_codec() {
        fn put_event_reference(buf: &mut Vec<u8>, e: &Event) {
            buf.put_i64_le(e.value);
            buf.put_u64_le(e.ts);
            buf.put_u64_le(e.id);
        }
        // 150 events: two full 64-event blocks plus a 22-event tail.
        let events = sample_events(150);
        let batch = Message::EventBatch {
            node: NodeId(3),
            window: WindowId(9),
            sorted: true,
            events: events.clone(),
        };
        let reply = Message::CandidateReply {
            node: NodeId(3),
            window: WindowId(9),
            slices: vec![
                (0, SharedRun::from_vec(events.clone())),
                (1, sample_run(1)),
                (2, sample_run(0)),
            ],
        };

        let mut expect = Vec::new();
        expect.put_u8(TAG_EVENT_BATCH);
        expect.put_u32_le(3);
        expect.put_u64_le(9);
        expect.put_u8(1);
        expect.put_u32_le(150);
        for e in &events {
            put_event_reference(&mut expect, e);
        }
        assert_eq!(batch.to_bytes(), expect);

        let mut expect = Vec::new();
        expect.put_u8(TAG_CANDIDATE_REPLY);
        expect.put_u32_le(3);
        expect.put_u64_le(9);
        expect.put_u32_le(3);
        for (idx, run) in [(0u32, &events[..]), (1, &sample_events(1)), (2, &[])] {
            expect.put_u32_le(idx);
            expect.put_u32_le(run.len() as u32);
            for e in run {
                put_event_reference(&mut expect, e);
            }
        }
        assert_eq!(reply.to_bytes(), expect);

        // And the strided decoder inverts it.
        roundtrip(batch);
        roundtrip(reply);
    }

    /// One instance of every `Message` variant, in `TAGS` order.
    fn sample_of_every_variant() -> Vec<Message> {
        vec![
            Message::SynopsisBatch {
                node: NodeId(1),
                window: WindowId(2),
                synopses: vec![],
            },
            Message::CandidateRequest {
                window: WindowId(2),
                slices: vec![0],
            },
            Message::CandidateReply {
                node: NodeId(1),
                window: WindowId(2),
                slices: vec![(0, sample_run(2))],
            },
            Message::EventBatch {
                node: NodeId(1),
                window: WindowId(2),
                sorted: false,
                events: sample_events(2),
            },
            Message::DigestBatch {
                node: NodeId(1),
                window: WindowId(2),
                count: 2,
                compression: 100.0,
                centroids: vec![],
            },
            Message::GammaUpdate { gamma: 8 },
            Message::WindowResult {
                window: WindowId(2),
                value: 7,
                total_events: 2,
            },
            Message::StreamEnd {
                node: NodeId(1),
                late_events: 0,
            },
            Message::SketchBatch {
                node: NodeId(1),
                window: WindowId(2),
                count: 2,
                min: 0.0,
                max: 1.0,
                items: vec![(0.5, 2)],
            },
            Message::Routed {
                dest: NodeId(1),
                inner: Box::new(Message::GammaUpdate { gamma: 8 }),
            },
            Message::ResendWindow {
                window: WindowId(2),
                attempt: 1,
            },
            Message::CandidateRetry {
                window: WindowId(2),
                slices: vec![0],
                attempt: 1,
            },
            Message::JoinRequest {
                node: NodeId(1),
                window: WindowId(2),
            },
            Message::JoinAccept {
                node: NodeId(1),
                epoch: 1,
                window: WindowId(2),
                gamma: 8,
            },
            Message::LeaveAnnounce {
                node: NodeId(1),
                window: WindowId(2),
            },
            Message::DrainComplete {
                node: NodeId(1),
                epoch: 1,
            },
            Message::EpochSwitch {
                epoch: 1,
                window: WindowId(2),
                joined: vec![NodeId(1)],
                left: vec![],
            },
        ]
    }

    #[test]
    fn tags_cover_every_variant() {
        let samples = sample_of_every_variant();
        assert_eq!(samples.len(), TAGS.len(), "one sample per TAGS entry");
        for (sample, info) in samples.iter().zip(TAGS.iter()) {
            assert_eq!(sample.tag(), info.tag, "TAGS order for {}", info.name);
            assert_eq!(sample.variant_name(), info.name);
            // The tag byte is the first byte on the wire.
            assert_eq!(sample.to_bytes()[0], info.tag, "{}", info.name);
            // The debug name of the variant matches the TAGS name.
            let debug = format!("{sample:?}");
            assert!(
                debug.starts_with(info.name),
                "{debug} should start with {}",
                info.name
            );
        }
    }

    #[test]
    fn tag_lookup_is_consistent() {
        for info in TAGS {
            assert_eq!(tag_info(info.tag), Some(info));
            assert_eq!(tag_by_name(info.name), Some(info));
        }
        assert_eq!(tag_info(0), None);
        assert_eq!(tag_info(200), None);
        assert_eq!(tag_by_name("NoSuchVariant"), None);
        // Tag bytes and names are unique.
        let mut tags: Vec<u8> = TAGS.iter().map(|t| t.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), TAGS.len());
    }

    #[test]
    fn roundtrip_synopsis_batch() {
        let node = NodeId(3);
        let window = WindowId(9);
        roundtrip(Message::SynopsisBatch {
            node,
            window,
            synopses: (0..5)
                .map(|i| SliceSynopsis {
                    id: SliceId {
                        node,
                        window,
                        index: i,
                    },
                    first: -100 + i as i64,
                    last: i as i64 * 10,
                    count: 150,
                    total_slices: 5,
                })
                .collect(),
        });
        roundtrip(Message::SynopsisBatch {
            node,
            window,
            synopses: vec![],
        });
    }

    #[test]
    fn roundtrip_candidate_request() {
        roundtrip(Message::CandidateRequest {
            window: WindowId(1),
            slices: vec![0, 7, 42],
        });
        roundtrip(Message::CandidateRequest {
            window: WindowId(u64::MAX),
            slices: vec![],
        });
    }

    #[test]
    fn roundtrip_candidate_reply() {
        roundtrip(Message::CandidateReply {
            node: NodeId(1),
            window: WindowId(2),
            slices: vec![
                (0, sample_run(10)),
                (3, SharedRun::empty()),
                (4, sample_run(1)),
            ],
        });
    }

    #[test]
    fn roundtrip_event_batch() {
        roundtrip(Message::EventBatch {
            node: NodeId(0),
            window: WindowId(0),
            sorted: true,
            events: sample_events(100),
        });
        roundtrip(Message::EventBatch {
            node: NodeId(0),
            window: WindowId(0),
            sorted: false,
            events: vec![],
        });
    }

    #[test]
    fn roundtrip_digest_batch() {
        roundtrip(Message::DigestBatch {
            node: NodeId(2),
            window: WindowId(5),
            count: 1000,
            compression: 100.0,
            centroids: vec![
                Centroid {
                    mean: -5.5,
                    weight: 10,
                },
                Centroid {
                    mean: 0.0,
                    weight: 980,
                },
                Centroid {
                    mean: 99.25,
                    weight: 10,
                },
            ],
        });
    }

    #[test]
    fn roundtrip_control_messages() {
        roundtrip(Message::GammaUpdate { gamma: 10_000 });
        roundtrip(Message::WindowResult {
            window: WindowId(7),
            value: -42,
            total_events: 1_000_000,
        });
        roundtrip(Message::StreamEnd {
            node: NodeId(99),
            late_events: 12345,
        });
    }

    #[test]
    fn roundtrip_sketch_batch() {
        roundtrip(Message::SketchBatch {
            node: NodeId(4),
            window: WindowId(11),
            count: 1000,
            min: -3.5,
            max: 999.0,
            items: vec![(-3.5, 1), (0.25, 16), (999.0, 4)],
        });
        roundtrip(Message::SketchBatch {
            node: NodeId(0),
            window: WindowId(0),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            items: vec![],
        });
    }

    #[test]
    fn roundtrip_retry_messages() {
        roundtrip(Message::ResendWindow {
            window: WindowId(12),
            attempt: 1,
        });
        roundtrip(Message::ResendWindow {
            window: WindowId(u64::MAX),
            attempt: u32::MAX,
        });
        roundtrip(Message::CandidateRetry {
            window: WindowId(3),
            slices: vec![0, 5, 9],
            attempt: 2,
        });
        roundtrip(Message::CandidateRetry {
            window: WindowId(0),
            slices: vec![],
            attempt: 1,
        });
    }

    #[test]
    fn roundtrip_membership_messages() {
        roundtrip(Message::JoinRequest {
            node: NodeId(7),
            window: WindowId(3),
        });
        roundtrip(Message::JoinAccept {
            node: NodeId(7),
            epoch: 2,
            window: WindowId(3),
            gamma: 16,
        });
        roundtrip(Message::LeaveAnnounce {
            node: NodeId(2),
            window: WindowId(5),
        });
        roundtrip(Message::DrainComplete {
            node: NodeId(2),
            epoch: 3,
        });
        roundtrip(Message::EpochSwitch {
            epoch: 3,
            window: WindowId(5),
            joined: vec![NodeId(4), NodeId(5)],
            left: vec![NodeId(2)],
        });
        roundtrip(Message::EpochSwitch {
            epoch: u64::MAX,
            window: WindowId(u64::MAX),
            joined: vec![],
            left: vec![],
        });
    }

    #[test]
    fn membership_messages_are_free_control_traffic() {
        // Reconfiguration traffic shows up in byte counters but never in
        // the paper's events-on-the-wire cost model — like the retry
        // messages above.
        let switch = Message::EpochSwitch {
            epoch: 1,
            window: WindowId(4),
            joined: vec![NodeId(4)],
            left: vec![NodeId(0)],
        };
        assert_eq!(switch.event_units(), 0);
        assert_eq!(switch.encoded_len(), 1 + 8 + 8 + 4 + 4 + 4 + 4);
        let join = Message::JoinRequest {
            node: NodeId(4),
            window: WindowId(4),
        };
        assert_eq!(join.event_units(), 0);
        assert_eq!(join.encoded_len(), 13);
        // Membership control routes through relay envelopes unchanged.
        roundtrip(Message::Routed {
            dest: NodeId(4),
            inner: Box::new(switch),
        });
        roundtrip(Message::Routed {
            dest: NodeId(4),
            inner: Box::new(Message::DrainComplete {
                node: NodeId(4),
                epoch: 2,
            }),
        });
    }

    #[test]
    fn retry_messages_are_free_control_traffic() {
        // Retry traffic must show up in byte counters but never in the
        // paper's events-on-the-wire cost model.
        let resend = Message::ResendWindow {
            window: WindowId(1),
            attempt: 1,
        };
        let retry = Message::CandidateRetry {
            window: WindowId(1),
            slices: vec![1, 2, 3],
            attempt: 1,
        };
        assert_eq!(resend.event_units(), 0);
        assert_eq!(retry.event_units(), 0);
        assert_eq!(resend.encoded_len(), 13);
        assert_eq!(retry.encoded_len(), 17 + 12);
    }

    #[test]
    fn retry_messages_route_through_envelopes() {
        roundtrip(Message::Routed {
            dest: NodeId(4),
            inner: Box::new(Message::ResendWindow {
                window: WindowId(2),
                attempt: 3,
            }),
        });
        roundtrip(Message::Routed {
            dest: NodeId(9),
            inner: Box::new(Message::CandidateRetry {
                window: WindowId(2),
                slices: vec![7],
                attempt: 1,
            }),
        });
    }

    #[test]
    fn roundtrip_routed_envelope() {
        roundtrip(Message::Routed {
            dest: NodeId(7),
            inner: Box::new(Message::CandidateRequest {
                window: WindowId(3),
                slices: vec![1, 4],
            }),
        });
        roundtrip(Message::Routed {
            dest: NodeId(0),
            inner: Box::new(Message::GammaUpdate { gamma: 128 }),
        });
    }

    #[test]
    fn routed_envelope_costs_five_bytes_and_no_events() {
        let inner = Message::GammaUpdate { gamma: 9 };
        let routed = Message::Routed {
            dest: NodeId(1),
            inner: Box::new(inner.clone()),
        };
        assert_eq!(routed.encoded_len(), inner.encoded_len() + 5);
        assert_eq!(routed.event_units(), inner.event_units());
    }

    #[test]
    fn nested_routed_envelope_is_rejected() {
        let nested = Message::Routed {
            dest: NodeId(1),
            inner: Box::new(Message::Routed {
                dest: NodeId(2),
                inner: Box::new(Message::GammaUpdate { gamma: 3 }),
            }),
        };
        let bytes = nested.to_bytes();
        assert!(matches!(Message::decode(&bytes), Err(WireError::BadTag(_))));
    }

    #[test]
    fn extreme_values_roundtrip() {
        roundtrip(Message::EventBatch {
            node: NodeId(u32::MAX),
            window: WindowId(u64::MAX),
            sorted: false,
            events: vec![
                Event::new(i64::MIN, u64::MAX, u64::MAX),
                Event::new(i64::MAX, 0, 0),
            ],
        });
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert_eq!(Message::decode(&[0xFF]), Err(WireError::BadTag(0xFF)));
    }

    #[test]
    fn decode_rejects_truncation_at_every_point() {
        let msg = Message::CandidateReply {
            node: NodeId(1),
            window: WindowId(2),
            slices: vec![(0, sample_run(3))],
        };
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            let err = Message::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::BadLength(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = Message::GammaUpdate { gamma: 5 }.to_bytes();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn decode_rejects_implausible_count() {
        let mut buf = Vec::new();
        buf.put_u8(4); // EventBatch
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        buf.put_u8(0);
        buf.put_u32_le(u32::MAX); // absurd event count
        assert!(matches!(
            Message::decode(&buf),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn lying_counts_fail_before_allocating() {
        // A count that passes the MAX_ELEMS sanity check but promises more
        // records than the frame carries must be rejected by the up-front
        // length validation — the old capped-capacity decode loops grew
        // until they hit the truncation mid-loop.
        let lying = 1_000_000u32; // < MAX_ELEMS, >> remaining bytes
        for (tag, prefix) in [
            (TAG_SYNOPSIS_BATCH, &[4, 8][..]),        // node, window
            (TAG_CANDIDATE_REQUEST, &[8][..]),        // window
            (TAG_CANDIDATE_REPLY, &[4, 8][..]),       // node, window
            (TAG_DIGEST_BATCH, &[4, 8, 8, 8][..]),    // node, window, count, δ
            (TAG_SKETCH_BATCH, &[4, 8, 8, 8, 8][..]), // node, window, count, min, max
        ] {
            let mut buf = Vec::new();
            buf.put_u8(tag);
            for width in prefix {
                match width {
                    4 => buf.put_u32_le(1),
                    _ => buf.put_u64_le(1),
                }
            }
            buf.put_u32_le(lying);
            assert_eq!(
                Message::decode(&buf),
                Err(WireError::Truncated),
                "tag {tag}"
            );
        }
        // EpochSwitch: both the joined and the left list count.
        for lie_in_left in [false, true] {
            let mut buf = Vec::new();
            buf.put_u8(TAG_EPOCH_SWITCH);
            buf.put_u64_le(1); // epoch
            buf.put_u64_le(1); // window
            if lie_in_left {
                buf.put_u32_le(1); // joined count
                buf.put_u32_le(7); // joined[0]
                buf.put_u32_le(lying);
            } else {
                buf.put_u32_le(lying);
            }
            assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
        }
        // CandidateRetry carries its count after the attempt epoch.
        let mut buf = Vec::new();
        buf.put_u8(TAG_CANDIDATE_RETRY);
        buf.put_u64_le(1); // window
        buf.put_u32_le(1); // attempt
        buf.put_u32_le(lying);
        assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn event_units_follow_paper_cost_model() {
        let node = NodeId(0);
        let window = WindowId(0);
        let syn = Message::SynopsisBatch {
            node,
            window,
            synopses: vec![
                SliceSynopsis {
                    id: SliceId {
                        node,
                        window,
                        index: 0
                    },
                    first: 0,
                    last: 1,
                    count: 10,
                    total_slices: 2,
                };
                4
            ],
        };
        assert_eq!(syn.event_units(), 8); // 2 per synopsis
        let batch = Message::EventBatch {
            node,
            window,
            sorted: false,
            events: sample_events(7),
        };
        assert_eq!(batch.event_units(), 7);
        let reply = Message::CandidateReply {
            node,
            window,
            slices: vec![(0, sample_run(4)), (1, sample_run(6))],
        };
        assert_eq!(reply.event_units(), 10);
        assert_eq!(Message::GammaUpdate { gamma: 2 }.event_units(), 0);
    }

    #[test]
    fn encode_into_appends_the_to_bytes_encoding() {
        let msgs = [
            Message::CandidateReply {
                node: NodeId(1),
                window: WindowId(2),
                slices: vec![(0, sample_run(10)), (3, SharedRun::empty())],
            },
            Message::EventBatch {
                node: NodeId(0),
                window: WindowId(9),
                sorted: true,
                events: sample_events(50),
            },
            Message::GammaUpdate { gamma: 77 },
        ];
        for msg in msgs {
            let reference = msg.to_bytes();
            let mut pooled = vec![0xAAu8; 3]; // pre-existing content is appended to
            msg.encode_into(&mut pooled);
            assert_eq!(&pooled[..3], &[0xAA; 3]);
            assert_eq!(
                &pooled[3..],
                &reference[..],
                "byte-for-byte identical encodings"
            );
        }
    }

    #[test]
    fn synopsis_batch_is_tiny_compared_to_event_batch() {
        // The point of Dema: 1000 events ≈ 24 KB raw, but one synopsis ≈ 32 B.
        let node = NodeId(0);
        let window = WindowId(0);
        let events = Message::EventBatch {
            node,
            window,
            sorted: false,
            events: sample_events(1000),
        };
        let synopses = Message::SynopsisBatch {
            node,
            window,
            synopses: vec![SliceSynopsis {
                id: SliceId {
                    node,
                    window,
                    index: 0,
                },
                first: 0,
                last: 999,
                count: 1000,
                total_slices: 1,
            }],
        };
        assert!(synopses.encoded_len() * 100 < events.encoded_len());
    }
}
