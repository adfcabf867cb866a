//! Regenerate every figure of the Dema paper's evaluation.
//!
//! ```sh
//! cargo run --release -p dema-bench --bin experiments -- all
//! cargo run --release -p dema-bench --bin experiments -- fig6a --events 2000000
//! cargo run --release -p dema-bench --bin experiments -- fig8b --quick
//! ```
//!
//! Each subcommand prints the paper's series as a table and writes a CSV
//! under `results/`. Absolute numbers are host-dependent; EXPERIMENTS.md
//! records the expected *shapes* and the measured outcomes.

use std::path::Path;

use dema_bench::harness::{
    mean_percentage_error, measure, measure_paced, measure_with, paper_systems, print_table,
    CsvSink, Measurement,
};
use dema_bench::workload::{soccer_inputs, total_events, uniform_scales};
use dema_cluster::config::TransportKind;
use dema_cluster::config::{EngineKind, GammaMode};
use dema_core::coordinator::quantile_ground_truth;
use dema_core::event::Event;
use dema_core::quantile::Quantile;
use dema_core::selector::SelectionStrategy;

/// Tunable experiment scale.
#[derive(Debug, Clone, Copy)]
struct Scale {
    /// Events per second per local node for throughput-style figures.
    rate: u64,
    /// Windows per run.
    windows: usize,
    /// Fixed γ used by the paper's main experiments.
    gamma: u64,
    /// Total events per local node for the network-cost figure.
    volume: u64,
    /// Simulated per-node link capacity for the throughput/latency figures
    /// (Mbit/s); 0 = unlimited. The paper's motivation is bandwidth-
    /// constrained edge links, so the default models a fast edge uplink.
    bandwidth_mbps: u64,
}

impl Scale {
    fn default_scale() -> Scale {
        Scale {
            rate: 100_000,
            windows: 5,
            gamma: 10_000,
            volume: 2_000_000,
            bandwidth_mbps: 400,
        }
    }
    fn quick() -> Scale {
        Scale {
            rate: 10_000,
            windows: 3,
            gamma: 1_000,
            volume: 100_000,
            bandwidth_mbps: 100,
        }
    }

    fn transport(&self) -> TransportKind {
        if self.bandwidth_mbps == 0 {
            TransportKind::Mem
        } else {
            TransportKind::Throttled {
                mbits_per_sec: self.bandwidth_mbps,
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::default_scale();
    let mut out_dir = "results".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::quick(),
            "--rate" => {
                i += 1;
                scale.rate = args[i].parse().expect("--rate takes a number");
            }
            "--windows" => {
                i += 1;
                scale.windows = args[i].parse().expect("--windows takes a number");
            }
            "--gamma" => {
                i += 1;
                scale.gamma = args[i].parse().expect("--gamma takes a number");
            }
            "--events" => {
                i += 1;
                scale.volume = args[i].parse().expect("--events takes a number");
            }
            "--out" => {
                i += 1;
                out_dir = args[i].clone();
            }
            "--bandwidth" => {
                i += 1;
                scale.bandwidth_mbps = args[i]
                    .parse()
                    .expect("--bandwidth takes Mbit/s (0 = unlimited)");
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other if !other.starts_with("--") => which.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if which.is_empty() {
        usage();
        std::process::exit(2);
    }
    let sink = CsvSink::new(Path::new(&out_dir));
    let run = |name: &str, sink: &CsvSink| match name {
        "fig5a" => fig5a(scale, sink),
        "fig5b" => fig5b(scale, sink),
        "fig6a" => fig6a(scale, sink),
        "fig6b" => fig6b(scale, sink),
        "fig7a" => fig7a(scale, sink),
        "fig7b" => fig7b(scale, sink),
        "fig8a" => fig8a(scale, sink),
        "fig8b" => fig8b(scale, sink),
        "ablate-selector" => ablate_selector(scale, sink),
        "ablate-adaptive" => ablate_adaptive(scale, sink),
        "ext-sketches" => ext_sketches(scale, sink),
        "ext-multiq" => ext_multiq(scale, sink),
        "ext-sliding" => ext_sliding(scale, sink),
        "sustainable" => sustainable(scale, sink),
        other => {
            eprintln!("unknown experiment {other}");
            usage();
            std::process::exit(2);
        }
    };
    for name in &which {
        if name == "all" {
            for fig in [
                "fig5a",
                "fig5b",
                "fig6a",
                "fig6b",
                "fig7a",
                "fig7b",
                "fig8a",
                "fig8b",
                "ablate-selector",
                "ablate-adaptive",
                "ext-sketches",
                "ext-multiq",
                "ext-sliding",
            ] {
                run(fig, &sink);
            }
        } else {
            run(name, &sink);
        }
    }
}

fn usage() {
    eprintln!(
        "usage: experiments <fig5a|fig5b|fig6a|fig6b|fig7a|fig7b|fig8a|fig8b|
                    ablate-selector|ablate-adaptive|ext-sketches|ext-multiq|ext-sliding|
                    sustainable|all>...
       [--quick] [--rate N] [--windows N] [--gamma N] [--events N] [--bandwidth MBPS] [--out DIR]"
    );
}

/// Human-readable bandwidth setting.
fn bandwidth_label(scale: Scale) -> String {
    if scale.bandwidth_mbps == 0 {
        "unlimited links".to_string()
    } else {
        format!("{} Mbit/s per-node links", scale.bandwidth_mbps)
    }
}

/// Figures 5a/5b share their runs: 1 root + 2 locals, median, fixed γ.
fn run_systems(scale: Scale, n_locals: usize) -> Vec<Measurement> {
    let inputs = soccer_inputs(
        n_locals,
        scale.windows,
        scale.rate,
        &uniform_scales(n_locals),
        42,
    );
    let mut systems = paper_systems(scale.gamma.min(scale.rate / 2).max(2));
    // The paper predicts "Tdigest to outperform Dema also with a
    // decentralized setup" — include that extension as a fifth series.
    systems.push((
        "tdigest-dist",
        EngineKind::TdigestDistributed { compression: 100.0 },
    ));
    systems
        .into_iter()
        .map(|(label, engine)| {
            measure_with(label, engine, Quantile::MEDIAN, &inputs, scale.transport())
        })
        .collect()
}

fn fig5a(scale: Scale, sink: &CsvSink) {
    let measurements = run_systems(scale, 2);
    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| vec![m.system.clone(), format!("{:.0}", m.throughput)])
        .collect();
    print_table(
        &format!(
            "Figure 5a — throughput (events/s), 2 local nodes, median, {}",
            bandwidth_label(scale)
        ),
        &["system", "throughput"],
        &rows,
    );
    sink.write(
        "fig5a_throughput",
        "system,events_per_second",
        &measurements
            .iter()
            .map(|m| format!("{},{:.0}", m.system, m.throughput))
            .collect::<Vec<_>>(),
    );
}

fn fig5b(scale: Scale, sink: &CsvSink) {
    let measurements = run_systems(scale, 2);
    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.system.clone(),
                format!("{:.0}", m.latency_mean_us),
                m.latency_p50_us.to_string(),
                m.latency_p99_us.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Figure 5b — latency (µs), 2 local nodes, median, {}",
            bandwidth_label(scale)
        ),
        &["system", "mean", "p50", "p99"],
        &rows,
    );
    sink.write(
        "fig5b_latency",
        "system,mean_us,p50_us,p99_us",
        &measurements
            .iter()
            .map(|m| {
                format!(
                    "{},{:.0},{},{}",
                    m.system, m.latency_mean_us, m.latency_p50_us, m.latency_p99_us
                )
            })
            .collect::<Vec<_>>(),
    );
}

fn fig6a(scale: Scale, sink: &CsvSink) {
    // Fixed event volume per local node, 1 s windows, γ fixed.
    let windows = 5usize;
    let rate = scale.volume / windows as u64;
    let inputs = soccer_inputs(2, windows, rate, &uniform_scales(2), 42);
    let total = total_events(&inputs);
    let gamma = scale.gamma.min(rate / 2).max(2);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, engine) in paper_systems(gamma) {
        let m = measure(label, engine, Quantile::MEDIAN, &inputs);
        let reduction = 100.0 * (1.0 - m.traffic.events as f64 / total as f64);
        rows.push(vec![
            m.system.clone(),
            m.traffic.events.to_string(),
            format!("{:.1}", m.traffic.bytes as f64 / 1_048_576.0),
            format!("{reduction:.2}"),
        ]);
        csv.push(format!(
            "{},{},{},{reduction:.2}",
            m.system, m.traffic.events, m.traffic.bytes
        ));
    }
    print_table(
        &format!("Figure 6a — network utilization, {total} events total, γ={gamma}"),
        &["system", "events on wire", "MiB on wire", "reduction %"],
        &rows,
    );
    sink.write(
        "fig6a_network",
        "system,wire_events,wire_bytes,reduction_pct",
        &csv,
    );
}

fn fig6b(scale: Scale, sink: &CsvSink) {
    let windows = 3usize;
    let rate = (scale.volume / 4).max(1000) / windows as u64;
    let gamma = scale.gamma.min(rate / 2).max(2);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for n in [2usize, 4, 6, 8] {
        let inputs = soccer_inputs(n, windows, rate, &uniform_scales(n), 42);
        for (label, engine) in paper_systems(gamma) {
            let m = measure(label, engine, Quantile::MEDIAN, &inputs);
            rows.push(vec![
                n.to_string(),
                m.system.clone(),
                m.traffic.events.to_string(),
                format!("{:.1}", m.traffic.bytes as f64 / 1_048_576.0),
            ]);
            csv.push(format!(
                "{n},{},{},{}",
                m.system, m.traffic.events, m.traffic.bytes
            ));
        }
    }
    print_table(
        "Figure 6b — network cost vs number of local nodes",
        &["locals", "system", "events on wire", "MiB on wire"],
        &rows,
    );
    sink.write(
        "fig6b_network_nodes",
        "locals,system,wire_events,wire_bytes",
        &csv,
    );
}

fn fig7a(scale: Scale, sink: &CsvSink) {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for n in [2usize, 4, 6, 8] {
        let inputs = soccer_inputs(n, scale.windows, scale.rate, &uniform_scales(n), 42);
        for (label, engine) in paper_systems(scale.gamma.min(scale.rate / 2).max(2)) {
            if label.starts_with("tdigest") {
                continue; // the paper's Fig 7a compares Dema, Scotty, Desis
            }
            let m = measure_with(label, engine, Quantile::MEDIAN, &inputs, scale.transport());
            rows.push(vec![
                n.to_string(),
                m.system.clone(),
                format!("{:.0}", m.throughput),
            ]);
            csv.push(format!("{n},{},{:.0}", m.system, m.throughput));
        }
    }
    print_table(
        "Figure 7a — scalability: throughput vs number of local nodes",
        &["locals", "system", "events/s"],
        &rows,
    );
    sink.write("fig7a_scalability", "locals,system,events_per_second", &csv);
}

fn fig7b(scale: Scale, sink: &CsvSink) {
    let inputs = soccer_inputs(2, scale.windows, scale.rate, &uniform_scales(2), 42);
    // Ground truth: full global sort (what Scotty computes).
    let truth: Vec<Option<i64>> = (0..scale.windows)
        .map(|w| {
            let per_node: Vec<Vec<Event>> = inputs.iter().map(|n| n[w].clone()).collect();
            quantile_ground_truth(&per_node, Quantile::MEDIAN)
                .ok()
                .map(|e| e.value)
        })
        .collect();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, engine) in paper_systems(scale.gamma.min(scale.rate / 2).max(2)) {
        if label.contains("desis") {
            continue; // the paper's Fig 7b compares Dema, Scotty, Tdigest
        }
        let m = measure(label, engine, Quantile::MEDIAN, &inputs);
        let accuracy = 100.0 * (1.0 - mean_percentage_error(&m.values, &truth));
        rows.push(vec![m.system.clone(), format!("{accuracy:.4}")]);
        csv.push(format!("{},{accuracy:.6}", m.system));
    }
    print_table(
        "Figure 7b — accuracy (1 − MPE, %)",
        &["system", "accuracy %"],
        &rows,
    );
    sink.write("fig7b_accuracy", "system,accuracy_pct", &csv);
}

fn fig8a(scale: Scale, sink: &CsvSink) {
    let inputs = soccer_inputs(2, scale.windows, scale.rate, &uniform_scales(2), 42);
    let gamma = scale.gamma.min(scale.rate / 2).max(2);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, q) in [
        ("p25", Quantile::P25),
        ("p50", Quantile::MEDIAN),
        ("p75", Quantile::P75),
    ] {
        let m = measure(
            "dema",
            EngineKind::Dema {
                gamma: GammaMode::Fixed(gamma),
                strategy: SelectionStrategy::WindowCut,
            },
            q,
            &inputs,
        );
        rows.push(vec![label.to_string(), format!("{:.0}", m.throughput)]);
        csv.push(format!("{label},{:.0}", m.throughput));
    }
    print_table(
        "Figure 8a — Dema throughput per quantile function",
        &["quantile", "events/s"],
        &rows,
    );
    sink.write("fig8a_quantiles", "quantile,events_per_second", &csv);
}

fn fig8b(scale: Scale, sink: &CsvSink) {
    // Dema #1 / #2 / #10: scale-rate pairs (1,1), (1,2), (1,10); 30 % quantile.
    let q = Quantile::new(0.3).expect("valid quantile");
    let instances = [
        ("dema#1", [1i64, 1]),
        ("dema#2", [1, 2]),
        ("dema#10", [1, 10]),
    ];
    let gammas: Vec<u64> = [2u64, 10, 100, 1_000, 10_000, 100_000]
        .into_iter()
        .filter(|&g| g <= scale.rate)
        .collect();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, scales) in instances {
        let inputs = soccer_inputs(2, scale.windows, scale.rate, &scales, 42);
        for &gamma in &gammas {
            let m = measure(
                name,
                EngineKind::Dema {
                    gamma: GammaMode::Fixed(gamma),
                    strategy: SelectionStrategy::WindowCut,
                },
                q,
                &inputs,
            );
            rows.push(vec![
                name.to_string(),
                gamma.to_string(),
                format!("{:.0}", m.throughput),
            ]);
            csv.push(format!("{name},{gamma},{:.0}", m.throughput));
        }
    }
    print_table(
        "Figure 8b — Dema throughput vs γ under scale-rate skew (30% quantile)",
        &["instance", "γ", "events/s"],
        &rows,
    );
    sink.write("fig8b_adaptivity", "instance,gamma,events_per_second", &csv);
}

/// Ablation: candidate traffic per selection strategy (what the window-cut
/// algorithm saves on overlap-heavy inputs).
fn ablate_selector(scale: Scale, sink: &CsvSink) {
    let inputs = soccer_inputs(4, scale.windows, scale.rate / 2, &uniform_scales(4), 42);
    let gamma = (scale.rate / 100).max(16);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, strategy) in [
        ("window-cut", SelectionStrategy::WindowCut),
        ("classified-scan", SelectionStrategy::ClassifiedScan),
        ("no-cut", SelectionStrategy::NoCut),
    ] {
        let m = measure(
            label,
            EngineKind::Dema {
                gamma: GammaMode::Fixed(gamma),
                strategy,
            },
            Quantile::MEDIAN,
            &inputs,
        );
        rows.push(vec![
            label.to_string(),
            m.traffic.events.to_string(),
            format!("{:.0}", m.throughput),
        ]);
        csv.push(format!("{label},{},{:.0}", m.traffic.events, m.throughput));
    }
    print_table(
        &format!("Ablation — selection strategy (4 overlapping locals, γ={gamma})"),
        &["strategy", "events on wire", "events/s"],
        &rows,
    );
    sink.write(
        "ablate_selector",
        "strategy,wire_events,events_per_second",
        &csv,
    );
}

/// Ablation: adaptive γ vs fixed γ when the event rate drifts.
fn ablate_adaptive(scale: Scale, sink: &CsvSink) {
    // Rate ramps ×4 halfway through the run.
    let half = scale.windows.max(4);
    let mut inputs = soccer_inputs(2, half, scale.rate / 4, &uniform_scales(2), 42);
    let fast = soccer_inputs(2, half, scale.rate, &uniform_scales(2), 77);
    for (node, extra) in inputs.iter_mut().zip(fast) {
        node.extend(extra);
    }
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, mode) in [
        ("adaptive", GammaMode::Adaptive { initial: 64 }),
        (
            "adaptive-per-node",
            GammaMode::AdaptivePerNode { initial: 64 },
        ),
        ("fixed-64", GammaMode::Fixed(64)),
        (
            "fixed-optimal-late",
            GammaMode::Fixed((scale.rate / 10).max(2)),
        ),
    ] {
        let m = measure_paced(
            label,
            EngineKind::Dema {
                gamma: mode,
                strategy: SelectionStrategy::WindowCut,
            },
            Quantile::MEDIAN,
            &inputs,
            5,
        );
        rows.push(vec![
            label.to_string(),
            m.traffic.events.to_string(),
            format!("{:.0}", m.throughput),
        ]);
        csv.push(format!("{label},{},{:.0}", m.traffic.events, m.throughput));
    }
    print_table(
        "Ablation — adaptive vs fixed γ under a 4× rate ramp",
        &["γ policy", "events on wire", "events/s"],
        &rows,
    );
    sink.write(
        "ablate_adaptive",
        "policy,wire_events,events_per_second",
        &csv,
    );
}

/// Extension: accuracy / size / speed of the three from-scratch sketches on
/// identical data, with the exact quantile as ground truth.
fn ext_sketches(scale: Scale, sink: &CsvSink) {
    use dema_sketch::{KllSketch, QDigest, QuantileSketch, TDigest};
    let n = (scale.rate * scale.windows as u64).max(100_000);
    let values: Vec<i64> = dema_gen::SoccerGenerator::new(42, 1, 1_000_000, 0)
        .take(n as usize)
        .map(|e| e.value)
        .collect();
    let mut sorted = values.clone();
    sorted.sort_unstable();
    // Rank error is the canonical sketch metric: where does the estimate's
    // rank land relative to the requested q? (Value-relative error explodes
    // meaninglessly near small-valued quantiles.)
    let rank_of =
        |est: f64| sorted.partition_point(|&v| (v as f64) <= est) as f64 / sorted.len() as f64;
    fn measure_sketch<S: QuantileSketch>(
        name: &str,
        mut sketch: S,
        values: &[i64],
        rank_of: &dyn Fn(f64) -> f64,
        size_of: impl FnOnce(&mut S) -> usize,
        rows: &mut Vec<Vec<String>>,
        csv: &mut Vec<String>,
    ) {
        let start = std::time::Instant::now();
        for &v in values {
            sketch.insert(v as f64);
        }
        let insert_rate = values.len() as f64 / start.elapsed().as_secs_f64();
        let mut worst_rel = 0.0f64;
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let est = sketch.quantile(q).expect("non-empty");
            worst_rel = worst_rel.max((rank_of(est) - q).abs());
        }
        let size = size_of(&mut sketch);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", 100.0 * worst_rel),
            size.to_string(),
            format!("{:.1}M/s", insert_rate / 1e6),
        ]);
        csv.push(format!(
            "{name},{:.5},{size},{insert_rate:.0}",
            100.0 * worst_rel
        ));
    }
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    measure_sketch(
        "tdigest(δ=100)",
        TDigest::new(100.0),
        &values,
        &rank_of,
        |s| s.centroids().len() * 16,
        &mut rows,
        &mut csv,
    );
    measure_sketch(
        "qdigest(k=256)",
        QDigest::new(17, 256),
        &values,
        &rank_of,
        |s| s.node_count() * 16,
        &mut rows,
        &mut csv,
    );
    measure_sketch(
        "kll(k=256)",
        KllSketch::new(256),
        &values,
        &rank_of,
        |s| s.retained() * 8,
        &mut rows,
        &mut csv,
    );
    rows.push(vec![
        "exact(sort)".into(),
        "0.000".into(),
        format!("{}", n * 24),
        "—".into(),
    ]);
    csv.push(format!("exact,0,{},0", n * 24));
    print_table(
        &format!("Extension — sketch comparison over {n} events (worst rank error across q)"),
        &["sketch", "worst rank err %", "bytes", "insert rate"],
        &rows,
    );
    sink.write(
        "ext_sketches",
        "sketch,worst_rank_err_pct,bytes,inserts_per_sec",
        &csv,
    );
}

/// Extension: concurrent quantiles answered from one identification step vs
/// one cluster run per quantile.
fn ext_multiq(scale: Scale, sink: &CsvSink) {
    use dema_cluster::config::ClusterConfig;
    use dema_cluster::runner::{data_traffic, run_cluster};
    let inputs = soccer_inputs(2, scale.windows, scale.rate / 2, &uniform_scales(2), 42);
    let gamma = (scale.rate / 50).max(16);
    let quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

    let mut shared_cfg = ClusterConfig::dema_fixed(gamma, Quantile::MEDIAN);
    shared_cfg.extra_quantiles = quantiles[1..]
        .iter()
        .map(|&q| Quantile::new(q).expect("valid"))
        .collect();
    shared_cfg.quantile = Quantile::new(quantiles[0]).expect("valid");
    let shared = run_cluster(&shared_cfg, inputs.clone()).expect("shared run");
    let shared_traffic = data_traffic(&shared).plus(&shared.control_traffic);

    let mut separate_events = 0u64;
    for &q in &quantiles {
        let cfg = ClusterConfig::dema_fixed(gamma, Quantile::new(q).expect("valid"));
        let r = run_cluster(&cfg, inputs.clone()).expect("separate run");
        separate_events += data_traffic(&r).plus(&r.control_traffic).events;
    }
    let rows = vec![
        vec![
            "shared (1 step, 6 quantiles)".to_string(),
            shared_traffic.events.to_string(),
        ],
        vec!["separate (6 runs)".to_string(), separate_events.to_string()],
    ];
    print_table(
        &format!("Extension — concurrent quantile queries (γ={gamma})"),
        &["mode", "events on wire"],
        &rows,
    );
    sink.write(
        "ext_multiq",
        "mode,wire_events",
        &[
            format!("shared,{}", shared_traffic.events),
            format!("separate,{separate_events}"),
        ],
    );
}

/// Extension: sliding-window Dema — pane-synopsis sharing and the root's
/// candidate cache.
fn ext_sliding(scale: Scale, sink: &CsvSink) {
    use dema_core::sliding::{sliding_quantiles, SlidingConfig};
    let rate = scale.rate / 2;
    let nodes: Vec<Vec<Event>> = (0..2u64)
        .map(|n| {
            dema_gen::SoccerGenerator::new(42 + n, 1, rate, 0)
                .take((scale.windows.max(4) + 2) * rate as usize)
                .collect()
        })
        .collect();
    let gamma = (rate / 50).max(16);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, len, slide) in [
        ("tumbling 1s", 1000u64, 1000u64),
        ("sliding 2s/500ms", 2000, 500),
        ("sliding 4s/500ms", 4000, 500),
    ] {
        let config = SlidingConfig {
            window_len: len,
            slide,
            gamma,
            quantile: Quantile::MEDIAN,
            strategy: SelectionStrategy::WindowCut,
        };
        let (results, stats) = sliding_quantiles(&nodes, config).expect("sliding run");
        rows.push(vec![
            label.to_string(),
            results.len().to_string(),
            stats.synopses_sent.to_string(),
            stats.candidate_events_sent.to_string(),
            stats.candidate_events_saved.to_string(),
        ]);
        csv.push(format!(
            "{label},{},{},{},{}",
            results.len(),
            stats.synopses_sent,
            stats.candidate_events_sent,
            stats.candidate_events_saved
        ));
    }
    print_table(
        &format!("Extension — sliding windows (γ={gamma}): pane sharing + root cache"),
        &[
            "windows",
            "count",
            "synopses",
            "candidates shipped",
            "candidates cached",
        ],
        &rows,
    );
    sink.write(
        "ext_sliding",
        "config,windows,synopses,candidates_shipped,candidates_cached",
        &csv,
    );
}

/// Maximum sustainable throughput per system (Karimov et al.): binary search
/// over the offered per-node rate, where a probe is sustained iff the paced
/// run keeps up with its (compressed) real-time schedule.
fn sustainable(scale: Scale, sink: &CsvSink) {
    use dema_cluster::config::ClusterConfig;
    use dema_cluster::runner::run_cluster;
    use dema_metrics::sustainable_throughput;
    let windows = scale.windows.max(4);
    let pace_ms = 50u64; // each "1 s" window compressed to 50 ms wall time
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, engine) in paper_systems(scale.gamma.min(scale.rate / 2).max(2)) {
        let found = sustainable_throughput(10_000, 40_000_000, 0.1, |rate| {
            // Offered rate is per local node, scaled to the pace compression.
            let per_window = (rate * pace_ms / 1000).max(1);
            let inputs = soccer_inputs(2, windows, per_window, &uniform_scales(2), 42);
            let config = ClusterConfig {
                quantile: Quantile::MEDIAN,
                engine,
                transport: scale.transport(),
                topology: dema_cluster::Topology::Star,
                pace_window_ms: Some(pace_ms),
                extra_quantiles: Vec::new(),
                resilience: None,
                faults: Vec::new(),
                threads: None,
                membership: dema_cluster::config::MembershipPlan::default(),
            };
            let report = run_cluster(&config, inputs).expect("probe run");
            // Sustained iff the run kept up with the schedule (small slack
            // for thread startup).
            report.wall_time.as_millis() as u64 <= pace_ms * windows as u64 + pace_ms / 2
        });
        let rate = found.unwrap_or(0);
        rows.push(vec![label.to_string(), format!("{rate}")]);
        csv.push(format!("{label},{rate}"));
    }
    print_table(
        &format!(
            "Sustainable throughput per local node (events/s, {} windows, {})",
            windows,
            bandwidth_label(scale)
        ),
        &["system", "sustainable rate"],
        &rows,
    );
    sink.write("sustainable", "system,events_per_second", &csv);
}
