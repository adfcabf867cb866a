//! The distributed KLL engine (approximate) — registered to prove the
//! plugin surface: locals feed each window into a
//! [`dema_sketch::KllSketch`] (Karnin–Lang–Liberty) and ship the sketch's
//! weighted items with the exact min/max; the root unions the items across
//! nodes and answers the quantile by cumulative-weight rank.
//!
//! KLL conserves weight exactly (the sum of shipped weights equals the
//! observation count), so the union of per-node summaries is itself a valid
//! mergeable summary — rank queries over it carry the same `O(n/k)` error
//! bound as a single sketch over the concatenated stream. The conservation
//! check holds for degraded windows too: both sides of it only count
//! summaries that actually arrived.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::numeric::{f64_to_i64, i64_to_f64, len_to_u64};
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_sketch::{KllSketch, QuantileSketch};
use dema_wire::Message;

use super::retry::SingleStage;
use super::LocalEngine;
use crate::ClusterError;

/// One node's shipped sketch summary.
pub(crate) struct KllPart {
    count: u64,
    min: f64,
    max: f64,
    items: Vec<(f64, u64)>,
}

/// Root half: union weighted items, answer by cumulative-weight rank (k
/// only matters on the local side).
pub(crate) struct KllRoot {
    pub(crate) quantile: Quantile,
}

impl SingleStage for KllRoot {
    type Part = KllPart;

    fn unpack(&self, msg: Message) -> Result<(NodeId, WindowId, KllPart), ClusterError> {
        match msg {
            Message::SketchBatch {
                node,
                window,
                count,
                min,
                max,
                items,
            } => Ok((
                node,
                window,
                KllPart {
                    count,
                    min,
                    max,
                    items,
                },
            )),
            msg => Err(ClusterError::Protocol(format!(
                "kll-dist root: unexpected message {msg:?}"
            ))),
        }
    }

    fn answer(
        &self,
        window: WindowId,
        parts: Vec<KllPart>,
    ) -> Result<(Option<i64>, u64), ClusterError> {
        let (mut count, mut min, mut max) = (0u64, 0.0, 0.0);
        let mut items = Vec::new();
        for part in parts {
            if count == 0 || part.min < min {
                min = part.min;
            }
            if count == 0 || part.max > max {
                max = part.max;
            }
            items.extend(part.items);
            count += part.count;
        }
        let total = count;
        if total == 0 {
            return Ok((None, 0));
        }
        // Weight conservation across the union: the sketches must
        // account for every observation exactly once.
        let weight: u64 = items.iter().map(|(_, w)| w).sum();
        if weight != total {
            return Err(ClusterError::Protocol(format!(
                "{window}: sketch weight {weight} != count {total}"
            )));
        }
        let target = self.quantile.pos(total)?;
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut acc = 0u64;
        let mut estimate = max;
        for (v, w) in &items {
            acc += w;
            if acc >= target {
                estimate = *v;
                break;
            }
        }
        let value = f64_to_i64(estimate.clamp(min, max));
        Ok((Some(value), total))
    }
}

/// Local half: sketch the window, ship the weighted summary.
pub struct KllLocal {
    k: usize,
}

impl KllLocal {
    /// Build the local half with sketch capacity parameter `k`.
    pub fn new(k: usize) -> KllLocal {
        KllLocal { k }
    }
}

impl LocalEngine for KllLocal {
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError> {
        // Deterministic per-node seed so runs are reproducible regardless of
        // message interleaving or topology.
        let seed =
            0x9E37_79B9_7F4A_7C15 ^ (u64::from(node.0) + 1).wrapping_mul(0xA24B_AED4_963E_E407);
        let mut sketch = KllSketch::with_seed(self.k, seed);
        for e in &events {
            sketch.insert(i64_to_f64(e.value));
        }
        // Non-finite values are rejected by the sketch; count what it kept.
        let count = sketch.count();
        debug_assert_eq!(count, len_to_u64(events.len()));
        to_root.send(&Message::SketchBatch {
            node,
            window,
            count,
            min: sketch.min().unwrap_or(0.0),
            max: sketch.max().unwrap_or(0.0),
            items: sketch.weighted_items(),
        })?;
        Ok(())
    }
}
