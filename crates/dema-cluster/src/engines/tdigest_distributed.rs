//! The distributed t-digest extension (approximate) — the setup the paper
//! predicts ("we expect Tdigest to outperform Dema also with a
//! decentralized setup"): locals build digests, centroids are shipped, the
//! root merges.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::numeric::{f64_to_i64, i64_to_f64, len_to_u64};
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_sketch::{QuantileSketch, TDigest};
use dema_wire::Message;

use super::retry::SingleStage;
use super::LocalEngine;
use crate::ClusterError;

/// Root half: merge per-node digests (compression travels with each
/// batch).
pub(crate) struct TdigestDistributedRoot {
    pub(crate) quantile: Quantile,
}

impl SingleStage for TdigestDistributedRoot {
    /// The node's event count and its digest.
    type Part = (u64, TDigest);

    fn unpack(&self, msg: Message) -> Result<(NodeId, WindowId, (u64, TDigest)), ClusterError> {
        match msg {
            Message::DigestBatch {
                node,
                window,
                count,
                compression,
                centroids,
            } => Ok((
                node,
                window,
                (count, TDigest::from_centroids(compression, centroids)),
            )),
            msg => Err(ClusterError::Protocol(format!(
                "tdigest-dist root: unexpected message {msg:?}"
            ))),
        }
    }

    fn answer(
        &self,
        window: WindowId,
        parts: Vec<(u64, TDigest)>,
    ) -> Result<(Option<i64>, u64), ClusterError> {
        let mut digest: Option<TDigest> = None;
        let mut total = 0;
        for (count, incoming) in parts {
            match &mut digest {
                Some(d) => d.merge_from(&incoming),
                None => digest = Some(incoming),
            }
            total += count;
        }
        if total == 0 {
            return Ok((None, 0));
        }
        let digest = digest.ok_or_else(|| {
            ClusterError::Protocol(format!("{window}: digest count {total} without a digest"))
        })?;
        let value = digest.quantile(self.quantile.fraction()).map(f64_to_i64);
        Ok((value, total))
    }
}

/// Local half: build a digest per window, ship its centroids.
pub struct TdigestDistributedLocal {
    compression: f64,
}

impl TdigestDistributedLocal {
    /// Build the local half with digest compression δ.
    pub fn new(compression: f64) -> TdigestDistributedLocal {
        TdigestDistributedLocal { compression }
    }
}

impl LocalEngine for TdigestDistributedLocal {
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError> {
        let mut digest = TDigest::new(self.compression);
        for e in &events {
            digest.insert(i64_to_f64(e.value));
        }
        let centroids = digest.centroids().to_vec();
        to_root.send(&Message::DigestBatch {
            node,
            window,
            count: len_to_u64(events.len()),
            compression: self.compression,
            centroids,
        })?;
        Ok(())
    }
}
