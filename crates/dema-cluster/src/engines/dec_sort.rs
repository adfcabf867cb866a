//! The decentralized-sort baseline (exact) — modified Desis: locals sort
//! their windows and ship sorted runs; the root k-way merges (it never
//! re-sorts) and selects the quantile rank.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::merge::select_kth;
use dema_core::numeric::len_to_u64;
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_wire::Message;

use super::retry::SingleStage;
use super::LocalEngine;
use crate::ClusterError;

/// Root half: collect sorted runs, merge-select the rank.
pub(crate) struct DecSortRoot {
    pub(crate) quantile: Quantile,
}

impl SingleStage for DecSortRoot {
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
                "dec-sort root: unexpected message {msg:?}"
            ))),
        }
    }

    fn answer(
        &self,
        _window: WindowId,
        runs: Vec<Vec<Event>>,
    ) -> Result<(Option<i64>, u64), ClusterError> {
        let total: u64 = runs.iter().map(|r| len_to_u64(r.len())).sum();
        if total == 0 {
            return Ok((None, 0));
        }
        // Locals pre-sorted; the root only merges.
        let k = self.quantile.pos(total)?;
        let value = select_kth(&runs, k).map_err(ClusterError::Core)?.value;
        Ok((Some(value), total))
    }
}

/// Local half: sort, then ship the sorted run.
pub struct DecSortLocal {
    /// Thread budget for the window sort (`dema_core::par`).
    threads: usize,
}

impl DecSortLocal {
    /// Build the local half with an explicit sort-thread budget.
    pub fn new(threads: usize) -> DecSortLocal {
        DecSortLocal { threads }
    }
}

impl LocalEngine for DecSortLocal {
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        mut events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError> {
        dema_core::par::sort_events_with(&mut events, self.threads);
        to_root.send(&Message::EventBatch {
            node,
            window,
            sorted: true,
            events,
        })?;
        Ok(())
    }
}
