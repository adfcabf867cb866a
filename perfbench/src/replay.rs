//! Serial replay of a cluster run through the layers' public functions,
//! one window at a time on one thread, with a span around each call.
//!
//! Per window: every local sorts (`core.sort`) and slices (`core.slice`)
//! its events; the synopses, candidate requests, candidate replies and γ
//! updates of the Dema protocol each cross the wire as an encoded frame
//! (`wire.encode`), through the workload's transport (`net.transport`), and
//! are decoded on the far side (`wire.decode`); the root selects candidate
//! slices (`core.select`) and merges the fetched runs to the answer
//! (`core.merge`). The replay slices every window with the γ the cluster's
//! report names for it. Its answer must equal the cluster's; with fixed γ
//! its synopses and candidates must too (with adaptive γ a local may have
//! sliced with an older γ than the report names).

use std::collections::BTreeMap;
use std::error::Error;
use std::time::Duration;

use dema_core::merge::CandidateMerger;
use dema_core::par::sort_events_with;
use dema_core::selector::{select, SelectionStrategy};
use dema_core::slice::{cut_into_slices, Slice, SliceSynopsis};
use dema_core::{NodeId, WindowId};
use dema_net::mem::{link, MemReceiver, MemSender};
use dema_net::tcp::{accept, listen, NbTcpReceiver, NbTcpSender, TcpSender};
use dema_net::{MsgReceiver, MsgSender, SharedCounters};
use dema_wire::frame::encode_frame_into;
use dema_wire::Message;

use crate::trace::Recorder;
use crate::workload::{Inputs, QUANTILE};

/// Boxed error of a replay step.
pub type BoxError = Box<dyn Error + Send + Sync>;

/// What the replay computed for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayWindow {
    /// The quantile value.
    pub value: i64,
    /// Global window size `l_G`.
    pub total_events: u64,
    /// Synopses handed to the selector.
    pub synopses: u64,
    /// Candidate slices selected (the cost model's `m`).
    pub candidate_slices: u64,
    /// Candidate events fetched.
    pub candidate_events: u64,
}

/// One link of the workload's transport, both ends held by the replay.
pub enum Carrier {
    /// An in-memory `dema-net` link (the codec is skipped by the link).
    Mem(MemSender, MemReceiver, SharedCounters),
    /// A nonblocking loopback TCP pair from `dema-net`.
    Tcp(NbTcpSender, NbTcpReceiver, SharedCounters),
}

impl Carrier {
    /// A link of the cluster's transport kind.
    ///
    /// # Errors
    /// Socket set-up errors of the TCP pair.
    pub fn new(tcp: bool) -> Result<Carrier, BoxError> {
        let counters = SharedCounters::default();
        if !tcp {
            let (tx, rx) = link(SharedCounters::clone(&counters));
            return Ok(Carrier::Mem(tx, rx, counters));
        }
        let listener = listen("127.0.0.1:0".parse()?)?;
        let tx = TcpSender::connect_timeout(
            listener.local_addr()?,
            SharedCounters::clone(&counters),
            Duration::from_secs(10),
        )?;
        let rx = accept(&listener)?;
        Ok(Carrier::Tcp(
            tx.into_nonblocking()?,
            rx.into_nonblocking()?,
            counters,
        ))
    }

    /// Send `msg` and receive it on the far end.
    fn carry(&mut self, msg: &Message) -> Result<Message, BoxError> {
        match self {
            Carrier::Mem(tx, rx, _) => {
                tx.send(msg)?;
                Ok(rx.recv()?)
            }
            Carrier::Tcp(tx, rx, _) => {
                tx.send(msg)?;
                loop {
                    if let Some(got) = rx.try_recv()? {
                        return Ok(got);
                    }
                    tx.flush_pending()?;
                }
            }
        }
    }

    /// Bytes the link has charged so far.
    fn charged_bytes(&self) -> u64 {
        match self {
            Carrier::Mem(_, _, c) | Carrier::Tcp(_, _, c) => c.snapshot().bytes,
        }
    }
}

/// Per-replay state shared by every message crossing the wire.
struct Wire<'a> {
    carrier: &'a mut Carrier,
    frame: Vec<u8>,
    /// Frame bytes encoded by the replay.
    encoded_bytes: u64,
}

impl Wire<'_> {
    /// Encode `msg`, carry it over the transport, decode the frame on the
    /// far side, and return the decoded message. The transport must charge
    /// exactly the encoded frame's length and deliver a message of the same
    /// variant carrying the same number of events.
    fn cross(&mut self, rec: &mut Recorder, w: u64, msg: &Message) -> Result<Message, BoxError> {
        let frame = &mut self.frame;
        rec.span("wire.encode", w, |_| {
            frame.clear();
            encode_frame_into(msg, frame);
        });
        let charged_before = self.carrier.charged_bytes();
        let carrier = &mut *self.carrier;
        let delivered = rec.span("net.transport", w, |_| carrier.carry(msg))?;
        let frame = &self.frame;
        let decoded = rec.span("wire.decode", w, |_| Message::decode(&frame[4..]))?;
        let frame_len = frame.len() as u64;
        self.encoded_bytes += frame_len;
        if self.carrier.charged_bytes() - charged_before != frame_len
            || delivered.tag() != decoded.tag()
            || delivered.event_units() != decoded.event_units()
        {
            return Err(format!(
                "window {w}: {} frame of {frame_len} B did not cross the transport intact",
                msg.variant_name()
            )
            .into());
        }
        Ok(decoded)
    }
}

/// Result of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-window answers and counts, window order.
    pub windows: Vec<ReplayWindow>,
    /// Frame bytes the replay encoded.
    pub encoded_bytes: u64,
}

/// Replay `inputs` serially. `gammas[w]` is the γ the cluster sliced
/// window `w` with.
///
/// # Errors
/// Any error of a layer call, or a message that did not cross intact.
pub fn replay(
    mut inputs: Inputs,
    gammas: &[u64],
    carrier: &mut Carrier,
    rec: &mut Recorder,
) -> Result<Replay, BoxError> {
    let mut wire = Wire {
        carrier,
        frame: Vec::new(),
        encoded_bytes: 0,
    };
    let mut out = Replay::default();
    for (w, &gamma) in gammas.iter().enumerate() {
        let next_gamma = gammas.get(w + 1).copied();
        let window = rec.span("window", w as u64, |rec| {
            replay_window(&mut inputs, w, gamma, next_gamma, &mut wire, rec)
        })?;
        out.windows.push(window);
    }
    out.encoded_bytes = wire.encoded_bytes;
    Ok(out)
}

fn replay_window(
    inputs: &mut Inputs,
    w: usize,
    gamma: u64,
    next_gamma: Option<u64>,
    wire: &mut Wire<'_>,
    rec: &mut Recorder,
) -> Result<ReplayWindow, BoxError> {
    let wid = w as u64;
    let window = WindowId(wid);
    let mut stores: Vec<Vec<Slice>> = Vec::with_capacity(inputs.len());
    let mut synopses: Vec<SliceSynopsis> = Vec::new();
    for (n, node_windows) in inputs.iter_mut().enumerate() {
        let node = NodeId(n as u32);
        let mut events = std::mem::take(&mut node_windows[w]);
        rec.span("core.sort", wid, |_| sort_events_with(&mut events, 1));
        let (slices, batch) = rec.span("core.slice", wid, |_| {
            let slices = cut_into_slices(node, window, events, gamma)?;
            let total = slices.len() as u32;
            let batch = slices
                .iter()
                .map(|s| s.synopsis(total))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, BoxError>((slices, batch))
        })?;
        let msg = Message::SynopsisBatch {
            node,
            window,
            synopses: batch,
        };
        match wire.cross(rec, wid, &msg)? {
            Message::SynopsisBatch { synopses: got, .. } => synopses.extend(got),
            other => return Err(format!("expected synopses, got {}", other.variant_name()).into()),
        }
        stores.push(slices);
    }

    let total_events: u64 = synopses.iter().map(|s| s.count).sum();
    let k = QUANTILE.pos(total_events)?;
    let selection = rec.span("core.select", wid, |_| {
        select(&synopses, k, SelectionStrategy::WindowCut)
    })?;
    let mut per_node: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for id in &selection.candidates {
        per_node.entry(id.node.0).or_default().push(id.index);
    }
    let mut merger = CandidateMerger::new(selection.candidates.len());
    let mut fetched = 0u64;
    for (node, indices) in per_node {
        let request = Message::CandidateRequest {
            window,
            slices: indices,
        };
        let Message::CandidateRequest { slices, .. } = wire.cross(rec, wid, &request)? else {
            return Err("candidate request changed variant".into());
        };
        let store = &stores[node as usize];
        let reply = Message::CandidateReply {
            node: NodeId(node),
            window,
            slices: slices
                .iter()
                .map(|&i| (i, store[i as usize].events.clone()))
                .collect(),
        };
        let Message::CandidateReply { slices: runs, .. } = wire.cross(rec, wid, &reply)? else {
            return Err("candidate reply changed variant".into());
        };
        rec.span("core.merge", wid, |_| {
            for (_, run) in runs {
                fetched += run.len() as u64;
                merger.add_run(run);
            }
        });
    }
    let answer = rec.span("core.merge", wid, |_| {
        merger.select(selection.rank_within_candidates())
    })?;
    if let Some(next) = next_gamma.filter(|&g| g != gamma) {
        for _ in 0..stores.len() {
            wire.cross(rec, wid, &Message::GammaUpdate { gamma: next })?;
        }
    }
    Ok(ReplayWindow {
        value: answer.value,
        total_events,
        synopses: synopses.len() as u64,
        candidate_slices: selection.candidates.len() as u64,
        candidate_events: fetched,
    })
}
