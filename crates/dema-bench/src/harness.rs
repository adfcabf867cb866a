//! Measurement and reporting helpers for the experiment binary.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use dema_cluster::config::{ClusterConfig, EngineKind, GammaMode, TransportKind};
use dema_cluster::runner::{data_traffic, run_cluster};
use dema_cluster::RunReport;
use dema_core::event::Event;
use dema_core::quantile::Quantile;
use dema_core::selector::SelectionStrategy;
use dema_metrics::NetworkSnapshot;

/// The four systems the paper compares (§4, "Baselines"), in plot order.
pub fn paper_systems(gamma: u64) -> Vec<(&'static str, EngineKind)> {
    vec![
        (
            "dema",
            EngineKind::Dema {
                gamma: GammaMode::Fixed(gamma),
                strategy: SelectionStrategy::WindowCut,
            },
        ),
        ("scotty(centralized)", EngineKind::Centralized),
        ("desis(dec-sort)", EngineKind::DecSort),
        ("tdigest", EngineKind::TdigestCentral { compression: 100.0 }),
    ]
}

/// One measured run of one system.
pub struct Measurement {
    /// System label.
    pub system: String,
    /// Events per wall-clock second.
    pub throughput: f64,
    /// Mean latency in µs.
    pub latency_mean_us: f64,
    /// Median (p50) latency in µs.
    pub latency_p50_us: u64,
    /// Tail (p99) latency in µs.
    pub latency_p99_us: u64,
    /// Total traffic (data + control planes).
    pub traffic: NetworkSnapshot,
    /// Total events ingested.
    pub total_events: u64,
    /// Per-window values, for accuracy computations.
    pub values: Vec<Option<i64>>,
}

/// Run one engine over the inputs and collect a [`Measurement`].
pub fn measure(
    label: &str,
    engine: EngineKind,
    quantile: Quantile,
    inputs: &[Vec<Vec<Event>>],
) -> Measurement {
    measure_with(label, engine, quantile, inputs, TransportKind::Mem)
}

/// [`measure`] with an explicit transport (e.g. a simulated bandwidth cap).
pub fn measure_with(
    label: &str,
    engine: EngineKind,
    quantile: Quantile,
    inputs: &[Vec<Vec<Event>>],
    transport: TransportKind,
) -> Measurement {
    let config = ClusterConfig {
        quantile,
        engine,
        transport,
        topology: dema_cluster::Topology::Star,
        pace_window_ms: None,
        extra_quantiles: Vec::new(),
        resilience: None,
        faults: Vec::new(),
        threads: None,
        membership: dema_cluster::config::MembershipPlan::default(),
    };
    let report = run_cluster(&config, inputs.to_vec()).expect("cluster run failed");
    summarize(label, &report)
}

/// [`measure`] with paced windows (compressed real time), so adaptive-γ
/// feedback takes effect between windows.
pub fn measure_paced(
    label: &str,
    engine: EngineKind,
    quantile: Quantile,
    inputs: &[Vec<Vec<Event>>],
    pace_window_ms: u64,
) -> Measurement {
    let config = ClusterConfig {
        quantile,
        engine,
        transport: TransportKind::Mem,
        topology: dema_cluster::Topology::Star,
        pace_window_ms: Some(pace_window_ms),
        extra_quantiles: Vec::new(),
        resilience: None,
        faults: Vec::new(),
        threads: None,
        membership: dema_cluster::config::MembershipPlan::default(),
    };
    let report = run_cluster(&config, inputs.to_vec()).expect("cluster run failed");
    summarize(label, &report)
}

/// Condense a [`RunReport`].
pub fn summarize(label: &str, report: &RunReport) -> Measurement {
    Measurement {
        system: label.to_string(),
        throughput: report.throughput_eps(),
        latency_mean_us: report.mean_latency_us().unwrap_or(0.0),
        latency_p50_us: report.latency.quantile(0.5).unwrap_or(0),
        latency_p99_us: report.latency.quantile(0.99).unwrap_or(0),
        traffic: data_traffic(report).plus(&report.control_traffic),
        total_events: report.total_events,
        values: report.values(),
    }
}

/// Mean percentage error of `got` vs `truth` (the paper's accuracy metric:
/// accuracy = 1 − MPE, Fig 7b).
pub fn mean_percentage_error(got: &[Option<i64>], truth: &[Option<i64>]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u32;
    for (g, t) in got.iter().zip(truth) {
        if let (Some(g), Some(t)) = (g, t) {
            sum += (*g as f64 - *t as f64).abs() / (*t as f64).abs().max(1.0);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// CSV writer: one file per experiment under the output directory.
pub struct CsvSink {
    dir: PathBuf,
}

impl CsvSink {
    /// Create (and mkdir) a sink rooted at `dir`.
    pub fn new(dir: &Path) -> CsvSink {
        fs::create_dir_all(dir).expect("create results dir");
        CsvSink {
            dir: dir.to_path_buf(),
        }
    }

    /// Write `rows` (already formatted) under `name.csv` with a header.
    pub fn write(&self, name: &str, header: &str, rows: &[String]) {
        let path = self.dir.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path).expect("create csv");
        writeln!(f, "{header}").expect("write header");
        for r in rows {
            writeln!(f, "{r}").expect("write row");
        }
        println!("  → wrote {}", path.display());
    }
}

/// Fixed-width table printer for terminal output.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpe_computes_mean_relative_error() {
        let truth = vec![Some(100), Some(200), None];
        let got = vec![Some(110), Some(200), Some(5)];
        let mpe = mean_percentage_error(&got, &truth);
        assert!((mpe - 0.05).abs() < 1e-12, "{mpe}");
    }

    #[test]
    fn mpe_empty_is_zero() {
        assert_eq!(mean_percentage_error(&[], &[]), 0.0);
        assert_eq!(mean_percentage_error(&[None], &[None]), 0.0);
    }

    #[test]
    fn csv_sink_writes_files() {
        let dir = std::env::temp_dir().join(format!("dema-bench-test-{}", std::process::id()));
        let sink = CsvSink::new(&dir);
        sink.write("t", "a,b", &["1,2".into(), "3,4".into()]);
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn paper_systems_has_four_entries() {
        let systems = paper_systems(10_000);
        assert_eq!(systems.len(), 4);
        assert_eq!(systems[0].0, "dema");
    }
}
