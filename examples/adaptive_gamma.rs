//! The adaptive slice factor in action (§3.3 of the paper).
//!
//! ```sh
//! cargo run --release --example adaptive_gamma
//! ```
//!
//! The run starts with a deliberately terrible γ = 2 (every slice holds two
//! events, so the identification step ships everything). The root observes
//! each window's size and candidate count, re-optimizes
//! `γ* = √(2·l_G / m)`, and broadcasts the new factor. Watch γ and the
//! per-window wire traffic converge.

use dema::cluster::config::{ClusterConfig, EngineKind, GammaMode, Topology, TransportKind};
use dema::cluster::run_cluster;
use dema::core::quantile::Quantile;
use dema::core::selector::SelectionStrategy;
use dema::gen::SoccerGenerator;

fn main() {
    let windows = 12;
    let rate = 5_000;
    let inputs: Vec<_> = (0..2u64)
        .map(|n| SoccerGenerator::new(100 + n, 1, rate, 0).take_windows(windows, 1_000))
        .collect();

    let config = ClusterConfig {
        quantile: Quantile::MEDIAN,
        engine: EngineKind::Dema {
            gamma: GammaMode::Adaptive { initial: 2 },
            strategy: SelectionStrategy::WindowCut,
        },
        transport: TransportKind::Mem,
        topology: Topology::Star,
        // Pace windows so γ updates land before the next window is sliced,
        // as they would with real one-second tumbling windows.
        pace_window_ms: Some(20),
        extra_quantiles: Vec::new(),
        resilience: None,
        faults: Vec::new(),
        threads: None,
        membership: dema::cluster::config::MembershipPlan::default(),
    };
    let report = run_cluster(&config, inputs).expect("cluster run failed");

    println!("window |     γ | synopses | candidate events | cost model (events on wire)");
    println!("-------+-------+----------+------------------+----------------------------");
    for o in &report.outcomes {
        let wire = 2 * o.synopses + o.candidate_events.saturating_sub(2 * o.candidate_slices);
        println!(
            "{:>6} | {:>5} | {:>8} | {:>16} | {:>10}",
            o.window.0, o.gamma, o.synopses, o.candidate_events, wire
        );
    }
    let first = &report.outcomes[0];
    let last = report.outcomes.last().unwrap();
    let wire = |o: &dema::cluster::WindowOutcome| {
        2 * o.synopses + o.candidate_events.saturating_sub(2 * o.candidate_slices)
    };
    println!();
    println!(
        "γ adapted from {} to {}; per-window traffic dropped {:.1}×",
        first.gamma,
        last.gamma,
        wire(first) as f64 / wire(last).max(1) as f64
    );
}
