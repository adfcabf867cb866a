//! Cluster run configuration.

use dema_core::quantile::Quantile;
use dema_core::selector::SelectionStrategy;
use dema_net::fault::FaultPlan;

/// How γ evolves across windows (§3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GammaMode {
    /// Use the same slice factor for every window (the paper's throughput /
    /// network experiments fix γ = 10 000).
    Fixed(u64),
    /// Start at `initial`, then let the root re-optimize after every window
    /// using the observed `l_G` and candidate count (`γ* = √(2·l_G/m)`),
    /// broadcasting updates to the locals.
    Adaptive {
        /// γ for the first window.
        initial: u64,
    },
    /// The paper's §3.3 future-work variant: a *separate* γ per local node,
    /// each minimizing that node's own cost `2·l_i/γ_i + m_i·(γ_i − 2)`.
    /// Nodes whose value range never holds the quantile converge to one
    /// slice per window (two events on the wire); busy nodes near the
    /// quantile get fine slicing.
    AdaptivePerNode {
        /// γ for every node's first window.
        initial: u64,
    },
}

impl GammaMode {
    /// The γ the first window will use.
    pub fn initial(&self) -> u64 {
        match *self {
            GammaMode::Fixed(g)
            | GammaMode::Adaptive { initial: g }
            | GammaMode::AdaptivePerNode { initial: g } => g,
        }
    }
}

/// Which aggregation engine the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineKind {
    /// The paper's approach (exact).
    Dema {
        /// Slice-factor policy.
        gamma: GammaMode,
        /// Candidate selector.
        strategy: SelectionStrategy,
    },
    /// Scotty-like: ship everything, sort at the root (exact).
    Centralized,
    /// Desis-like: local sort, ship sorted runs, root merges (exact).
    DecSort,
    /// t-digest built at the root from raw events (approximate).
    TdigestCentral {
        /// Digest compression δ.
        compression: f64,
    },
    /// t-digest built locally, centroids shipped and merged (approximate).
    TdigestDistributed {
        /// Digest compression δ.
        compression: f64,
    },
    /// KLL sketch built locally, weighted items shipped and unioned at the
    /// root (approximate).
    KllDistributed {
        /// Sketch capacity parameter `k` (clamped to ≥ 8 by the sketch).
        k: usize,
    },
}

impl EngineKind {
    /// Short label for reports (from the engine registry).
    pub fn label(&self) -> &'static str {
        crate::engines::descriptor(*self).label
    }

    /// `true` if the engine computes exact quantiles (from the registry).
    pub fn is_exact(&self) -> bool {
        crate::engines::descriptor(*self).exact
    }
}

/// Which transport the runner wires the topology with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process channels with exact wire accounting (default).
    #[default]
    Mem,
    /// In-process channels with a simulated per-node link capacity, for the
    /// bandwidth-constrained edge settings the paper targets. Each local
    /// node gets a full-duplex link of this many megabits per second.
    Throttled {
        /// Uplink/downlink capacity per local node (Mbit/s).
        mbits_per_sec: u64,
    },
    /// Real TCP sockets over loopback.
    Tcp,
}

/// Shape of the aggregation overlay the runner wires between the local
/// nodes and the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Every local node links directly to the root (default; depth 1).
    #[default]
    Star,
    /// A balanced aggregation tree: relay nodes forward synopses/batches up
    /// and fan candidate requests and γ updates down. `depth` counts link
    /// tiers between a leaf and the root (`Star` ≡ depth 1, so `depth ≥ 2`
    /// here), and each inner node adopts up to `fanout` children.
    Tree {
        /// Maximum children per relay (≥ 2).
        fanout: usize,
        /// Link tiers between leaf and root (≥ 2).
        depth: usize,
    },
}

impl Topology {
    /// Number of link tiers between a leaf and the root.
    pub fn depth(&self) -> usize {
        match *self {
            Topology::Star => 1,
            Topology::Tree { depth, .. } => depth,
        }
    }
}

/// Retry / liveness parameters of the root's fault-tolerance layer.
///
/// When a [`ClusterConfig`] carries one of these, the root arms a deadline
/// per expected window stage, NACKs missing contributions with
/// [`dema_wire::Message::ResendWindow`] / `CandidateRetry` under exponential
/// backoff, and declares a local dead after `liveness_k` consecutive missed
/// deadlines. Windows then complete from the survivors' data as
/// [`crate::report::Degraded`] outcomes instead of hanging the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resilience {
    /// Base per-stage deadline before the first retry, in milliseconds.
    pub request_timeout_ms: u64,
    /// Retries per window stage before the missing nodes are given up on.
    pub max_retries: u32,
    /// Consecutive missed deadlines before a node is declared dead.
    pub liveness_k: u32,
    /// Seed for the retry jitter (deterministic chaos runs).
    pub seed: u64,
}

impl Default for Resilience {
    fn default() -> Resilience {
        Resilience {
            request_timeout_ms: 100,
            max_retries: 4,
            liveness_k: 8,
            seed: 0x00_D3_7A_FA_17,
        }
    }
}

/// Fault plans injected on one local node's links (chaos testing).
///
/// Absent plans leave the corresponding link untouched. Plans apply at
/// tier 0 only — the node's own uplinks/downlink — which is where the
/// paper's edge-network failures live.
#[derive(Debug, Clone, Default)]
pub struct NodeFaults {
    /// Which local node the plans apply to.
    pub node: u32,
    /// Fault plan for the node's data-plane uplink (synopses, batches).
    pub uplink: Option<FaultPlan>,
    /// Fault plan for the node's responder uplink (candidate replies).
    pub responder: Option<FaultPlan>,
    /// Fault plan for the root→node control downlink.
    pub control: Option<FaultPlan>,
}

/// One staged membership change, applied at a window boundary: the listed
/// joiners produce windows `≥ window`, the listed leavers produce windows
/// `< window`. Compiled (and validated) into an
/// [`crate::membership::EpochLedger`] before the run starts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipChange {
    /// The window boundary the change aligns to (first window of the new
    /// epoch; must be > 0 and strictly increasing across changes).
    pub window: u64,
    /// Node ids joining at this boundary.
    pub joins: Vec<u32>,
    /// Node ids leaving (draining) at this boundary.
    pub leaves: Vec<u32>,
}

/// The full membership schedule of a run. Empty (the default) means fixed
/// membership — the seed behavior. Only the Dema engine supports churn
/// (its control plane carries the join/drain handshake); the runner rejects
/// non-empty plans for other engines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipPlan {
    /// Staged changes in boundary order.
    pub changes: Vec<MembershipChange>,
}

impl MembershipPlan {
    /// `true` when the plan stages no changes (fixed membership).
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// Full configuration of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The quantile every window computes.
    pub quantile: Quantile,
    /// Additional quantiles answered per window from the *same*
    /// identification and calculation step (Dema engine only; the union of
    /// candidate slices is fetched once). Results land in
    /// [`crate::report::WindowOutcome::extra_values`].
    pub extra_quantiles: Vec<Quantile>,
    /// Engine under test.
    pub engine: EngineKind,
    /// Transport between nodes.
    pub transport: TransportKind,
    /// Shape of the aggregation overlay (star or multi-level tree).
    pub topology: Topology,
    /// Wall-clock pacing between consecutive window closes on each local
    /// node, in milliseconds. `None` replays as fast as possible (throughput
    /// measurements); `Some(ms)` emulates real-time tumbling windows (time-
    /// compressed), which is what lets adaptive-γ feedback land before the
    /// next window is sliced.
    pub pace_window_ms: Option<u64>,
    /// Retry / liveness parameters. `None` (the default) runs the seed
    /// protocol unchanged: no deadlines, no retries, a lost message hangs
    /// its window exactly as before.
    pub resilience: Option<Resilience>,
    /// Per-node fault injection plans (chaos testing). Empty for clean runs.
    pub faults: Vec<NodeFaults>,
    /// Thread budget for the per-window local sort (`dema_core::par`).
    /// `None` resolves [`dema_core::par::default_threads`] (the
    /// `DEMA_THREADS` override or a capped hardware default). The sorted
    /// output — and therefore every byte on the wire — is identical at
    /// every value; this only changes wall-clock.
    pub threads: Option<usize>,
    /// Staged membership changes (epoch-based join/leave/drain; DESIGN.md
    /// §14). Empty for fixed membership. Dema engine only.
    pub membership: MembershipPlan,
}

impl ClusterConfig {
    /// Dema with fixed γ and the exact window-cut selector — the paper's
    /// default configuration.
    pub fn dema_fixed(gamma: u64, quantile: Quantile) -> ClusterConfig {
        ClusterConfig {
            quantile,
            engine: EngineKind::Dema {
                gamma: GammaMode::Fixed(gamma),
                strategy: SelectionStrategy::WindowCut,
            },
            transport: TransportKind::Mem,
            topology: Topology::Star,
            pace_window_ms: None,
            extra_quantiles: Vec::new(),
            resilience: None,
            faults: Vec::new(),
            threads: None,
            membership: MembershipPlan::default(),
        }
    }

    /// A baseline configuration.
    pub fn baseline(engine: EngineKind, quantile: Quantile) -> ClusterConfig {
        ClusterConfig {
            quantile,
            engine,
            transport: TransportKind::Mem,
            topology: Topology::Star,
            pace_window_ms: None,
            extra_quantiles: Vec::new(),
            resilience: None,
            faults: Vec::new(),
            threads: None,
            membership: MembershipPlan::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_initial() {
        assert_eq!(GammaMode::Fixed(500).initial(), 500);
        assert_eq!(GammaMode::Adaptive { initial: 64 }.initial(), 64);
    }

    #[test]
    fn labels_and_exactness() {
        assert_eq!(
            ClusterConfig::dema_fixed(10, Quantile::MEDIAN)
                .engine
                .label(),
            "dema"
        );
        assert!(EngineKind::Centralized.is_exact());
        assert!(EngineKind::DecSort.is_exact());
        assert!(!EngineKind::TdigestCentral { compression: 100.0 }.is_exact());
        assert!(!EngineKind::TdigestDistributed { compression: 100.0 }.is_exact());
        assert!(!EngineKind::KllDistributed { k: 256 }.is_exact());
        assert_eq!(EngineKind::KllDistributed { k: 256 }.label(), "kll-dist");
    }

    #[test]
    fn topology_depth() {
        assert_eq!(Topology::Star.depth(), 1);
        assert_eq!(
            Topology::Tree {
                fanout: 4,
                depth: 3
            }
            .depth(),
            3
        );
        assert_eq!(Topology::default(), Topology::Star);
    }
}
