//! The centralized baseline (exact) — Scotty/Flink-style: every raw event
//! is shipped to the root, which sorts the whole window and picks the
//! quantile. This is exactly the bottleneck the paper measures against.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::numeric::len_to_u64;
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_wire::Message;

use super::retry::SingleStage;
use super::LocalEngine;
use crate::ClusterError;

/// Root half: accumulate raw batches, sort, answer.
pub(crate) struct CentralizedRoot {
    pub(crate) quantile: Quantile,
}

impl SingleStage for CentralizedRoot {
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
                "centralized root: unexpected message {msg:?}"
            ))),
        }
    }

    fn answer(
        &self,
        window: WindowId,
        parts: Vec<Vec<Event>>,
    ) -> Result<(Option<i64>, u64), ClusterError> {
        let mut all: Vec<Event> = parts.into_iter().flatten().collect();
        let total = len_to_u64(all.len());
        if total == 0 {
            return Ok((None, 0));
        }
        // The centralized root does the full sort itself.
        all.sort_unstable();
        let k = self.quantile.pos(total)?;
        let value = all
            .get(dema_core::numeric::u64_to_usize(k - 1))
            .map(|e| e.value)
            .ok_or_else(|| {
                ClusterError::Protocol(format!("{window}: rank {k} beyond {total} events"))
            })?;
        Ok((Some(value), total))
    }
}

/// Local half: ship the window raw.
pub struct CentralizedLocal;

impl LocalEngine for CentralizedLocal {
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
