//! Relay nodes for multi-level aggregation trees.
//!
//! A relay is engine-agnostic plumbing: it forwards whatever its children
//! send *up* to its parent unchanged (synopses, event batches, sketches,
//! stream ends — re-encoded identically, so a tier's upward byte count
//! equals the tier below it), and it routes control messages *down*. The
//! root addresses a leaf by wrapping the control message in a
//! [`Message::Routed`] envelope; each relay looks at the destination, and
//! either unwraps the envelope (when the owning child *is* that leaf's
//! responder link) or forwards the envelope one tier further down.
//!
//! Each relay runs as a [`RelayRole`] on a reactor shard (`crate::host`).
//! Shutdown cascades exactly like the star: the root drops its control
//! senders, the top relay sees its parent's downlink disconnect and closes
//! its own child downlinks, and so on until the leaf responders exit.

use dema_core::sync::Mutex;
use dema_net::{MsgSender, NetError};
use dema_wire::Message;
use std::sync::Arc;

use crate::host::{Outbound, Stepper};
use crate::ClusterError;

/// A [`MsgSender`] that wraps every message in a [`Message::Routed`]
/// envelope addressed to one leaf, multiplexing many logical control links
/// over one physical downlink (shared via the mutex).
pub struct RoutedSender {
    dest: dema_core::event::NodeId,
    inner: Arc<Mutex<Box<dyn MsgSender>>>,
}

impl RoutedSender {
    /// Address `dest` over the shared physical downlink `inner`.
    pub fn new(
        dest: dema_core::event::NodeId,
        inner: Arc<Mutex<Box<dyn MsgSender>>>,
    ) -> RoutedSender {
        RoutedSender { dest, inner }
    }
}

impl MsgSender for RoutedSender {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let wrapped = Message::Routed {
            dest: self.dest,
            inner: Box::new(msg.clone()),
        };
        self.inner.lock().send(&wrapped)
    }

    fn flush_pending(&mut self) -> Result<bool, NetError> {
        self.inner.lock().flush_pending()
    }
}

/// The relay role's first sender: the uplink to its parent. Child
/// downlinks follow at `1..`.
pub const RELAY_PARENT_UP: usize = 0;

/// One downward route of a [`RelayRole`].
pub struct RelayChildRoute {
    /// Inclusive leaf-id range the child subtree covers.
    pub range: (u32, u32),
    /// The role's sender index for this child's downlink.
    pub via: usize,
    /// Leaf children receive the unwrapped control message; inner children
    /// receive the [`Message::Routed`] envelope unchanged.
    pub leaf: bool,
}

/// A relay node hosted on a reactor: sources `0..n_ups` are the child
/// uplinks, source `n_ups` (when wired) is the parent's downlink.
///
/// Upward: every child message is forwarded to the parent verbatim.
/// Downward: [`Message::Routed`] envelopes go to the child whose leaf
/// range covers the destination — unwrapped for leaf children, forwarded
/// as-is otherwise. A downward message without an envelope, or a
/// destination no child covers, is a protocol error that retires the
/// relay. The role is done once every child uplink has disconnected *and*
/// the parent downlink is gone (or was never wired).
pub struct RelayRole {
    ups_open: Vec<bool>,
    down_open: bool,
    children: Vec<RelayChildRoute>,
}

impl RelayRole {
    /// A relay with `n_ups` child uplinks and the given downward routes;
    /// `has_down` is false for engines without a control plane.
    pub fn new(n_ups: usize, children: Vec<RelayChildRoute>, has_down: bool) -> RelayRole {
        RelayRole {
            ups_open: vec![true; n_ups],
            down_open: has_down,
            children,
        }
    }
}

impl Stepper for RelayRole {
    fn on_message(
        &mut self,
        link: usize,
        msg: Message,
        out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError> {
        if link < self.ups_open.len() {
            // Upward traffic forwards verbatim — moved, never cloned.
            out.push(Outbound::Send {
                via: RELAY_PARENT_UP,
                msg,
            });
            return Ok(());
        }
        match msg {
            Message::Routed { dest, inner } => {
                let child = self
                    .children
                    .iter()
                    .find(|c| c.range.0 <= dest.0 && dest.0 <= c.range.1)
                    .ok_or_else(|| {
                        ClusterError::Protocol(format!(
                            "relay: no child covers destination node {}",
                            dest.0
                        ))
                    })?;
                let msg = if child.leaf {
                    *inner
                } else {
                    Message::Routed { dest, inner }
                };
                out.push(Outbound::Send {
                    via: child.via,
                    msg,
                });
                Ok(())
            }
            msg => Err(ClusterError::Protocol(format!(
                "relay: unrouted downward message {msg:?}"
            ))),
        }
    }

    fn on_timer(&mut self, _token: u64, _out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        Ok(())
    }

    fn on_disconnect(&mut self, link: usize, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        if link < self.ups_open.len() {
            self.ups_open[link] = false;
        } else {
            // The root (or the relay above) is done: cascade the shutdown
            // by closing our own downlinks so the tier below exits too.
            self.down_open = false;
            for c in &self.children {
                out.push(Outbound::Close { via: c.via });
            }
        }
        Ok(())
    }

    fn on_wake(&mut self, _out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        Ok(())
    }

    fn done(&self) -> bool {
        !self.down_open && self.ups_open.iter().all(|open| !open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dema_core::event::{NodeId, WindowId};
    use dema_core::sync::rank;
    use dema_metrics::NetworkCounters;
    use dema_net::mem::link;

    #[test]
    fn routed_sender_wraps_every_message() {
        let (tx, mut rx) = link(NetworkCounters::new_shared());
        let shared: Arc<Mutex<Box<dyn MsgSender>>> =
            Arc::new(Mutex::new(rank::ROUTED_DOWNLINK, Box::new(tx)));
        let mut a = RoutedSender::new(NodeId(3), Arc::clone(&shared));
        let mut b = RoutedSender::new(NodeId(7), shared);
        a.send(&Message::GammaUpdate { gamma: 64 }).unwrap();
        b.send(&Message::CandidateRequest {
            window: WindowId(1),
            slices: vec![0],
        })
        .unwrap();
        match rx.recv().unwrap() {
            Message::Routed { dest, inner } => {
                assert_eq!(dest, NodeId(3));
                assert!(matches!(*inner, Message::GammaUpdate { gamma: 64 }));
            }
            other => panic!("{other:?}"),
        }
        match rx.recv().unwrap() {
            Message::Routed { dest, .. } => assert_eq!(dest, NodeId(7)),
            other => panic!("{other:?}"),
        }
    }

    /// Two children: upward messages reach the parent verbatim, a leaf
    /// child gets the unwrapped control message while an inner child gets
    /// the envelope unchanged, and once every link has closed the relay
    /// has closed both downlinks and is done.
    #[test]
    fn relay_forwards_up_and_routes_down() {
        let mut relay = RelayRole::new(
            2,
            vec![
                RelayChildRoute {
                    range: (0, 0),
                    via: 0,
                    leaf: true,
                },
                RelayChildRoute {
                    range: (1, 3),
                    via: 1,
                    leaf: false,
                },
            ],
            true,
        );
        let parent_down = 2;
        let mut out = Vec::new();

        // Upward messages pass through verbatim.
        for (link, node, late_events) in [(0, 0, 0), (1, 2, 1)] {
            relay
                .on_message(
                    link,
                    Message::StreamEnd {
                        node: NodeId(node),
                        late_events,
                    },
                    &mut out,
                )
                .unwrap();
        }
        let mut ends: Vec<Message> = out
            .drain(..)
            .map(|o| match o {
                Outbound::Send {
                    via: RELAY_PARENT_UP,
                    msg,
                } => msg,
                other => panic!("upward traffic must go to the parent: {other:?}"),
            })
            .collect();
        ends.sort_by_key(|m| match m {
            Message::StreamEnd { node, .. } => node.0,
            _ => u32::MAX,
        });
        assert!(matches!(
            ends[..],
            [
                Message::StreamEnd {
                    node: NodeId(0),
                    late_events: 0
                },
                Message::StreamEnd {
                    node: NodeId(2),
                    late_events: 1
                }
            ]
        ));

        // Downward: the leaf child gets the unwrapped message…
        relay
            .on_message(
                parent_down,
                Message::Routed {
                    dest: NodeId(0),
                    inner: Box::new(Message::GammaUpdate { gamma: 9 }),
                },
                &mut out,
            )
            .unwrap();
        assert!(matches!(
            out.pop(),
            Some(Outbound::Send {
                via: 0,
                msg: Message::GammaUpdate { gamma: 9 }
            })
        ));
        // …while an inner child receives the envelope unchanged.
        relay
            .on_message(
                parent_down,
                Message::Routed {
                    dest: NodeId(2),
                    inner: Box::new(Message::GammaUpdate { gamma: 5 }),
                },
                &mut out,
            )
            .unwrap();
        match out.pop() {
            Some(Outbound::Send {
                via: 1,
                msg: Message::Routed { dest, inner },
            }) => {
                assert_eq!(dest, NodeId(2));
                assert!(matches!(*inner, Message::GammaUpdate { gamma: 5 }));
            }
            other => panic!("{other:?}"),
        }

        // Shutdown cascade: close both directions and the relay is done,
        // having closed both downlinks.
        relay.on_disconnect(0, &mut out).unwrap();
        relay.on_disconnect(1, &mut out).unwrap();
        assert!(!relay.done(), "parent downlink still open");
        relay.on_disconnect(parent_down, &mut out).unwrap();
        assert!(relay.done());
        let mut closed: Vec<usize> = out
            .iter()
            .filter_map(|o| match o {
                Outbound::Close { via } => Some(*via),
                _ => None,
            })
            .collect();
        closed.sort_unstable();
        assert_eq!(closed, [0, 1]);
    }

    /// The relay role forwards upward traffic by value, routes envelopes
    /// downward with the leaf/inner unwrap rule, rejects unrouted or
    /// unowned downward traffic, and cascades the parent-down close.
    #[test]
    fn relay_role_routes_and_rejects_strays() {
        let mut relay = RelayRole::new(
            1,
            vec![
                RelayChildRoute {
                    range: (0, 0),
                    via: 1,
                    leaf: true,
                },
                RelayChildRoute {
                    range: (1, 3),
                    via: 2,
                    leaf: false,
                },
            ],
            true,
        );
        let mut out = Vec::new();
        relay
            .on_message(
                0,
                Message::StreamEnd {
                    node: NodeId(0),
                    late_events: 0,
                },
                &mut out,
            )
            .unwrap();
        assert!(matches!(
            out.pop(),
            Some(Outbound::Send {
                via: RELAY_PARENT_UP,
                msg: Message::StreamEnd { .. }
            })
        ));
        // Leaf child: unwrapped. Inner child: envelope kept.
        relay
            .on_message(
                1,
                Message::Routed {
                    dest: NodeId(0),
                    inner: Box::new(Message::GammaUpdate { gamma: 9 }),
                },
                &mut out,
            )
            .unwrap();
        assert!(matches!(
            out.pop(),
            Some(Outbound::Send {
                via: 1,
                msg: Message::GammaUpdate { gamma: 9 }
            })
        ));
        relay
            .on_message(
                1,
                Message::Routed {
                    dest: NodeId(2),
                    inner: Box::new(Message::GammaUpdate { gamma: 5 }),
                },
                &mut out,
            )
            .unwrap();
        assert!(matches!(
            out.pop(),
            Some(Outbound::Send {
                via: 2,
                msg: Message::Routed { .. }
            })
        ));
        // Unrouted downward traffic is a protocol violation, and so is a
        // destination no child covers…
        assert!(relay
            .on_message(1, Message::GammaUpdate { gamma: 1 }, &mut out)
            .is_err());
        let stray = relay.on_message(
            1,
            Message::Routed {
                dest: NodeId(5),
                inner: Box::new(Message::GammaUpdate { gamma: 2 }),
            },
            &mut out,
        );
        assert!(matches!(stray, Err(ClusterError::Protocol(_))), "{stray:?}");
        // …and the parent-down close cascades Close to every child.
        relay.on_disconnect(1, &mut out).unwrap();
        assert!(!relay.done(), "child uplink still open");
        assert_eq!(
            out.iter()
                .filter(|o| matches!(o, Outbound::Close { .. }))
                .count(),
            2
        );
        relay.on_disconnect(0, &mut Vec::new()).unwrap();
        assert!(relay.done());
    }
}
