//! The benchmark's workloads: inputs generated from a seed, the cluster
//! configuration each one runs, and the sort-oracle answers that every
//! window is checked against. NOTES.md records why each workload exists.

use dema_cluster::{ClusterConfig, EngineKind, GammaMode, TransportKind};
use dema_core::coordinator::quantile_ground_truth;
use dema_core::selector::SelectionStrategy;
use dema_core::{DemaError, Event, Quantile};
use dema_gen::soccer::VALUE_RANGE;
use dema_gen::SoccerGenerator;

/// Per-node, per-window inputs: `inputs[node][window]`.
pub type Inputs = Vec<Vec<Vec<Event>>>;

/// One named set of inputs and the cluster configuration that runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Local (leaf) nodes.
    pub locals: usize,
    /// Tumbling windows per `run_cluster` call. Unpaced workloads close all
    /// windows at once, so window `i` waits behind `i` others; an odd count
    /// keeps the median latency inside one window's cluster instead of on
    /// the gap between two.
    pub windows: usize,
    /// Distinct input sets a run cycles through, one per call.
    pub batches: u64,
    /// Events per local per window.
    pub events_per_window: u64,
    /// Fixed γ, or the first γ of the adaptive controller.
    pub gamma: u64,
    /// `true` lets the root re-optimise γ after every window.
    pub adaptive: bool,
    /// Transport between nodes.
    pub tcp: bool,
    /// Open-loop window schedule in ms; `None` is a closed (unpaced) loop.
    pub pace_window_ms: Option<u64>,
    /// Shift leaf `n`'s values by `n * VALUE_RANGE`, so value ranges of
    /// different leaves do not overlap.
    pub shift_by_leaf: bool,
    /// Quantize values down to multiples of this step (ties).
    pub quantum: Option<i64>,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "bulk_spread",
        locals: 4,
        windows: 15,
        batches: 1,
        events_per_window: 16_384,
        gamma: 512,
        adaptive: false,
        tcp: false,
        pace_window_ms: None,
        shift_by_leaf: false,
        quantum: None,
    },
    Workload {
        name: "fanout_1000",
        locals: 1000,
        windows: 9,
        batches: 1,
        events_per_window: 100,
        gamma: 64,
        adaptive: false,
        tcp: false,
        pace_window_ms: None,
        shift_by_leaf: true,
        quantum: None,
    },
    Workload {
        name: "ties_tcp_paced",
        locals: 2,
        windows: 60,
        batches: 4,
        events_per_window: 8_000,
        gamma: 200,
        adaptive: true,
        tcp: true,
        pace_window_ms: Some(2),
        shift_by_leaf: false,
        quantum: Some(8_500),
    },
];

/// The quantile every window computes.
pub const QUANTILE: Quantile = Quantile::MEDIAN;

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Generate input set `batch` of this workload from `seed`. The same
    /// seed always gives the same inputs.
    ///
    /// Every (batch, node, window) replays the soccer stream from its own
    /// generator, so windows are independent draws: a per-window count
    /// averaged over a run then depends on the workload, not on the seed.
    pub fn generate(&self, seed: u64, batch: u64) -> Inputs {
        (0..self.locals)
            .map(|n| {
                (0..self.windows)
                    .map(|w| {
                        let stream_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ batch.wrapping_mul(0xD6E8_FEB8_6659_FD93)
                            ^ (n as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                            ^ (w as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
                        let start_ms = w as u64 * 1_000;
                        let mut events =
                            SoccerGenerator::new(stream_seed, 1, self.events_per_window, start_ms)
                                .take_windows(1, 1_000)
                                .pop()
                                .unwrap_or_default();
                        for event in &mut events {
                            if let Some(q) = self.quantum {
                                event.value = event.value / q * q;
                            }
                            if self.shift_by_leaf {
                                event.value += n as i64 * VALUE_RANGE;
                            }
                        }
                        events
                    })
                    .collect()
            })
            .collect()
    }

    /// The cluster configuration of this workload with `threads` reactor
    /// shards and sort workers.
    pub fn config(&self, threads: usize) -> ClusterConfig {
        let mut config = ClusterConfig::dema_fixed(self.gamma, QUANTILE);
        if self.adaptive {
            config.engine = EngineKind::Dema {
                gamma: GammaMode::Adaptive {
                    initial: self.gamma,
                },
                strategy: SelectionStrategy::WindowCut,
            };
        }
        config.transport = if self.tcp {
            TransportKind::Tcp
        } else {
            TransportKind::Mem
        };
        config.pace_window_ms = self.pace_window_ms;
        config.threads = Some(threads);
        config
    }
}

/// Input events of one run.
pub fn total_events(inputs: &Inputs) -> u64 {
    inputs.iter().flatten().map(|w| w.len() as u64).sum()
}

/// The sort oracle: each window's exact quantile over all nodes' events.
///
/// # Errors
/// [`DemaError::EmptyWindow`] if a window holds no events.
pub fn oracle(inputs: &Inputs) -> Result<Vec<i64>, DemaError> {
    let windows = inputs.first().map_or(0, Vec::len);
    (0..windows)
        .map(|w| {
            let per_node: Vec<Vec<Event>> = inputs.iter().map(|node| node[w].clone()).collect();
            quantile_ground_truth(&per_node, QUANTILE).map(|e| e.value)
        })
        .collect()
}

/// The number of threads the benchmark gives the cluster: one reactor
/// shard (and sort worker) per core, less the core the root's own reactor
/// loop spins on. On a two-core machine that is one shard, which measured
/// both faster and steadier than two shards competing with the root.
pub fn cluster_threads() -> usize {
    available_parallelism().saturating_sub(1).max(1)
}

/// `std::thread::available_parallelism`, or 1 when it is unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
