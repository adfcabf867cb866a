//! The centralized t-digest baseline (approximate) — raw events to the
//! root, which feeds a single t-digest (Dunning & Ertl) and reports an
//! approximate quantile. Same wire cost as the centralized engine, less
//! root CPU, no exactness.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::numeric::{f64_to_i64, i64_to_f64, len_to_u64};
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_sketch::{QuantileSketch, TDigest};
use dema_wire::Message;

use super::retry::SingleStage;
use super::LocalEngine;
use crate::ClusterError;

/// Root half: insert every raw event into one digest per window.
pub(crate) struct TdigestCentralRoot {
    pub(crate) quantile: Quantile,
    pub(crate) compression: f64,
}

impl SingleStage for TdigestCentralRoot {
    type Part = Vec<Event>;

    fn unpack(&self, msg: Message) -> Result<(NodeId, WindowId, Vec<Event>), ClusterError> {
        match msg {
            Message::EventBatch {
                node,
                window,
                events,
                ..
            } => Ok((node, window, events)),
            msg => Err(ClusterError::Protocol(format!(
                "tdigest root: unexpected message {msg:?}"
            ))),
        }
    }

    fn answer(
        &self,
        _window: WindowId,
        parts: Vec<Vec<Event>>,
    ) -> Result<(Option<i64>, u64), ClusterError> {
        let mut digest = TDigest::new(self.compression);
        let mut total = 0;
        for events in &parts {
            for e in events {
                digest.insert(i64_to_f64(e.value));
            }
            total += len_to_u64(events.len());
        }
        let value = if total == 0 {
            None
        } else {
            digest.quantile(self.quantile.fraction()).map(f64_to_i64)
        };
        Ok((value, total))
    }
}

/// Local half: ship the window raw (the digest is built at the root).
pub struct TdigestCentralLocal;

impl LocalEngine for TdigestCentralLocal {
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError> {
        to_root.send(&Message::EventBatch {
            node,
            window,
            sorted: false,
            events,
        })?;
        Ok(())
    }
}
