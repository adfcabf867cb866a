//! One benchmark run: set-up, the timed `run_cluster` calls (`--trace 0`)
//! or the traced call plus serial replays (`--trace 1`), the correctness
//! checks, and the metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dema_cluster::{run_cluster, RunReport};

use crate::replay::{replay, BoxError, Carrier, Replay};
use crate::trace::{self, Recorder};
use crate::workload::{cluster_threads, oracle, total_events, Inputs, Workload};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Windows checked (cluster windows, plus replayed windows when traced).
    pub attempted: u64,
    /// Checked windows that were missing or wrong.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// `run_cluster` calls measured, or untraced-and-traced replay pairs
    /// when traced.
    pub count: u64,
    /// Latency samples behind the latency percentiles.
    pub latency_samples: u64,
    /// Median close→result latency of all windows of all calls.
    pub window_latency_p50_ms: f64,
    /// p99 of window latency: the median of the p99s of blocks of at
    /// least 1000 windows.
    ///
    /// Both latencies are reported beside the metrics, not as metrics: on
    /// a shared two-core machine they moved between runs by more than a
    /// bound may allow (NOTES.md).
    pub window_latency_p99_ms: f64,
    /// Spans of the last traced replay (empty for `--trace 0`).
    pub spans: Option<Recorder>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, Metric { value, unit });
    }
}

/// Windows of `report` that are missing, degraded, or differ from the
/// oracle's `answers`.
pub fn failed_windows(report: &RunReport, answers: &[i64]) -> u64 {
    let wrong = answers
        .iter()
        .enumerate()
        .filter(|&(w, &answer)| {
            report.outcomes.get(w).is_none_or(|o| {
                o.window.0 != w as u64 || o.value != Some(answer) || o.degraded.is_some()
            })
        })
        .count() as u64;
    wrong + report.outcomes.len().saturating_sub(answers.len()) as u64
}

/// The count metrics of a report that must repeat exactly across runs and
/// thread counts: per window `(value, l_G, candidate events, candidate
/// slices, synopses, γ)`, then the data-plus-control traffic
/// `(bytes, messages, events)`.
pub type Counts = (Vec<(Option<i64>, u64, u64, u64, u64, u64)>, (u64, u64, u64));

/// Extract [`Counts`] from a report.
pub fn counts(report: &RunReport) -> Counts {
    let windows = report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.value,
                o.total_events,
                o.candidate_events,
                o.candidate_slices,
                o.synopses,
                o.gamma,
            )
        })
        .collect();
    let t = report.total_traffic();
    (windows, (t.bytes, t.messages, t.events))
}

/// One input set with the oracle's answer for each of its windows.
struct Batch {
    /// `inputs[node][window]`.
    inputs: Inputs,
    /// Exact quantile of each window.
    answers: Vec<i64>,
}

/// Generate every input set of the workload, compute the oracle's answers,
/// and run one cold warm-up call on the first set. Returns the sets, the
/// warm-up report, and the time all of it took.
///
/// # Errors
/// Any error of the oracle or the cluster.
fn setup(workload: &Workload, seed: u64) -> Result<(Vec<Batch>, RunReport, Duration), BoxError> {
    let started = Instant::now();
    let batches = (0..workload.batches)
        .map(|b| {
            let inputs = workload.generate(seed, b);
            let answers = oracle(&inputs)?;
            Ok(Batch { inputs, answers })
        })
        .collect::<Result<Vec<_>, BoxError>>()?;
    let first = batches.first().ok_or("workload has no input set")?;
    let report = run_cluster(&workload.config(cluster_threads()), first.inputs.clone())?;
    Ok((batches, report, started.elapsed()))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `values`.
fn percentile(values: &mut [u64], p: f64) -> u64 {
    values.sort_unstable();
    if values.is_empty() {
        return 0;
    }
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Windows per block of [`block_p99`]: enough that a block's p99 has ten
/// samples beyond it.
const P99_BLOCK: usize = 1_000;

/// p99 of window latency, robust to a short stall of the machine: the
/// calls are grouped in order into blocks of at least [`P99_BLOCK`]
/// windows (a short last block joins the one before), and the median of
/// the blocks' p99 is returned. With fewer windows than two blocks it is
/// the p99 of all windows.
fn block_p99(per_call: &[Vec<u64>]) -> u64 {
    let mut blocks: Vec<Vec<u64>> = vec![Vec::new()];
    for call in per_call {
        if blocks.last().is_some_and(|b| b.len() >= P99_BLOCK) {
            blocks.push(Vec::new());
        }
        if let Some(b) = blocks.last_mut() {
            b.extend(call);
        }
    }
    if blocks.len() > 1 && blocks.last().is_some_and(|b| b.len() < P99_BLOCK) {
        if let Some(short) = blocks.pop() {
            if let Some(b) = blocks.last_mut() {
                b.extend(short);
            }
        }
    }
    let mut p99s: Vec<u64> = blocks.iter_mut().map(|b| percentile(b, 0.99)).collect();
    p99s.sort_unstable();
    p99s[(p99s.len() - 1) / 2]
}

/// The process's peak resident set size in MiB, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `--trace 0`: set up three times, then time `run_cluster` calls on
/// copies of the input sets, in turn, for `seconds`, checking every window.
///
/// # Errors
/// Any error of the oracle or the cluster.
pub fn timed(workload: &Workload, seed: u64, seconds: u64) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    let mut peak_mib = 0.0;
    for rep in 0..SETUP_REPS {
        drop(prepared.take()); // free the previous set-up's inputs first
        let (batches, report, took) = setup(workload, seed)?;
        setup_s.push(took.as_secs_f64());
        if rep == 0 {
            // The cold process's peak: later calls add nothing the program
            // needs, only what the allocator happens to keep from earlier
            // calls' threads (which varied by a third between runs).
            peak_mib = peak_rss_mib();
        }
        out.attempted += report.outcomes.len() as u64;
        out.failed += failed_windows(&report, &batches[0].answers);
        prepared = Some(batches);
    }
    let batches = prepared.ok_or("no set-up ran")?;

    let config = workload.config(cluster_threads());
    let mut eps = Vec::new();
    let mut bytes = vec![Vec::new(); batches.len()];
    let mut wire_events = vec![Vec::new(); batches.len()];
    let mut latencies: Vec<Vec<u64>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while (out.count as usize) < batches.len() || Instant::now() < deadline {
        let b = out.count as usize % batches.len();
        let Batch { inputs, answers } = &batches[b];
        let copy = inputs.clone();
        let started = Instant::now();
        let report = run_cluster(&config, copy)?;
        let wall = started.elapsed().as_secs_f64();
        out.count += 1;
        out.attempted += answers.len() as u64;
        out.failed += failed_windows(&report, answers);
        eps.push(total_events(inputs) as f64 / wall);
        let traffic = report.total_traffic();
        let windows = answers.len().max(1) as f64;
        bytes[b].push(traffic.bytes as f64 / windows);
        wire_events[b].push(traffic.events as f64 / windows);
        latencies.push(report.outcomes.iter().map(|o| o.latency_us).collect());
    }
    out.latency_samples = latencies.iter().map(|l| l.len() as u64).sum();
    let mut pooled: Vec<u64> = latencies.iter().flatten().copied().collect();
    // Counts repeat across calls on one input set (exactly, unless a γ
    // update raced the slicing); the mean over the sets of each set's
    // median is the per-window figure of the whole run.
    let per_set = |v: &mut Vec<Vec<f64>>| {
        v.iter_mut().map(|s| median(s)).sum::<f64>() / v.len().max(1) as f64
    };

    out.put("events_per_s", median(&mut eps), "1/s");
    out.window_latency_p50_ms = percentile(&mut pooled, 0.50) as f64 / 1e3;
    out.window_latency_p99_ms = block_p99(&latencies) as f64 / 1e3;
    out.put("wire_bytes_per_window", per_set(&mut bytes), "B");
    out.put("wire_events_per_window", per_set(&mut wire_events), "count");
    out.put("setup_s", median(&mut setup_s), "s");
    out.put("peak_rss_mib", peak_mib, "MiB");
    Ok(out)
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = values.fold((0u64, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Windows where the replay disagrees with the oracle's `answers` or with
/// the cluster's report: on the value and window size always, and on the
/// synopses, candidate slices and candidate events when γ is fixed. With
/// adaptive γ a local slices with the γ it holds when the window closes,
/// and a γ update that lands after that leaves the local on the older γ,
/// while the report names the root's γ the replay uses.
fn replay_mismatches(rep: &Replay, report: &RunReport, answers: &[i64], same_slicing: bool) -> u64 {
    let differ = rep
        .windows
        .iter()
        .zip(&report.outcomes)
        .zip(answers)
        .filter(|((r, o), &answer)| {
            r.value != answer
                || Some(r.value) != o.value
                || r.total_events != o.total_events
                || (same_slicing
                    && (r.synopses != o.synopses
                        || r.candidate_slices != o.candidate_slices
                        || r.candidate_events != o.candidate_events))
        })
        .count();
    (differ + rep.windows.len().abs_diff(report.outcomes.len())) as u64
}

/// `--trace 1`: one set-up, one timed `run_cluster` call whose report
/// gives the cluster-side counters, then serial replays of the same
/// windows for `seconds`, alternating untraced and traced ones. The
/// replay's answers must equal the cluster's and the oracle's.
///
/// # Errors
/// Any error of the oracle, the cluster, or a replayed layer call.
pub fn traced(workload: &Workload, seed: u64, seconds: u64) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let (mut batches, warm, _) = setup(workload, seed)?;
    let Batch { inputs, answers } = batches.swap_remove(0);
    drop(batches);
    out.attempted += answers.len() as u64;
    out.failed += failed_windows(&warm, &answers);
    drop(warm);

    let report = run_cluster(&workload.config(cluster_threads()), inputs.clone())?;
    out.attempted += answers.len() as u64;
    out.failed += failed_windows(&report, &answers);
    let windows = report.outcomes.len().max(1) as f64;
    let gammas: Vec<u64> = report.outcomes.iter().map(|o| o.gamma).collect();

    let mut carrier = Carrier::new(workload.tcp)?;
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut self_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut unattributed_ms = Vec::new();
    let mut last = None;
    let mut replayed: Option<Replay> = None;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while traced_walls.is_empty() || Instant::now() < deadline {
        for enabled in [false, true] {
            let copy = inputs.clone();
            let mut rec = Recorder::new(enabled);
            let start = rec.now();
            let rep = replay(copy, &gammas, &mut carrier, &mut rec)?;
            let end = rec.now();
            let wall_ms = (end - start) as f64 / 1e6;
            out.attempted += rep.windows.len() as u64;
            out.failed += replay_mismatches(&rep, &report, &answers, !workload.adaptive);
            if enabled {
                traced_walls.push(wall_ms);
                for (name, ns) in trace::self_times(rec.spans()) {
                    self_ms.entry(name).or_default().push(ns as f64 / 1e6);
                }
                unattributed_ms.push(trace::unattributed(rec.spans(), start, end) as f64 / 1e6);
                last = Some(rec);
            } else {
                plain_walls.push(wall_ms);
            }
            replayed = Some(rep);
        }
        out.count += 1;
    }
    let rep = replayed.ok_or("no replay ran")?;

    for (metric, span) in [
        ("core.sort.self_ms", "core.sort"),
        ("core.slice.self_ms", "core.slice"),
        ("core.select.self_ms", "core.select"),
        ("core.merge.self_ms", "core.merge"),
        ("wire.encode.self_ms", "wire.encode"),
        ("wire.decode.self_ms", "wire.decode"),
        ("net.transport.self_ms", "net.transport"),
    ] {
        let ms = self_ms.get_mut(span).map_or(0.0, |v| median(v));
        out.put(metric, ms, "ms");
    }
    out.put(
        "core.select.synopses",
        mean(rep.windows.iter().map(|w| w.synopses)),
        "count",
    );
    out.put(
        "core.select.candidate_slices",
        mean(rep.windows.iter().map(|w| w.candidate_slices)),
        "count",
    );
    let candidates: u64 = report.outcomes.iter().map(|o| o.candidate_events).sum();
    let l_g: u64 = report.outcomes.iter().map(|o| o.total_events).sum();
    out.put(
        "core.fetch_ratio",
        candidates as f64 / l_g.max(1) as f64,
        "ratio",
    );
    out.put(
        "core.gamma.mean",
        mean(report.outcomes.iter().map(|o| o.gamma)),
        "count",
    );
    out.put("wire.encode.bytes", rep.encoded_bytes as f64 / windows, "B");
    let pool = report.wire;
    out.put(
        "wire.pool.reuse_ratio",
        pool.reuses as f64 / pool.acquires.max(1) as f64,
        "ratio",
    );
    let r = report.reactor;
    out.put("net.reactor.sweeps", r.ticks as f64, "count");
    out.put("net.reactor.events_per_sweep", r.events_per_tick(), "count");
    out.put(
        "net.reactor.max_ready_depth",
        r.max_ready_depth as f64,
        "count",
    );
    out.put(
        "net.reactor.timer_lag_max_us",
        r.max_timer_lag_us as f64,
        "us",
    );
    out.put(
        "cluster.synopses_per_window",
        mean(report.outcomes.iter().map(|o| o.synopses)),
        "count",
    );
    out.put(
        "cluster.candidate_events_per_window",
        candidates as f64 / windows,
        "count",
    );
    out.put(
        "cluster.fault.retries",
        report.fault_stats.retries as f64,
        "count",
    );
    out.put(
        "cluster.wall_ms",
        report.wall_time.as_secs_f64() * 1e3,
        "ms",
    );
    let plain = median(&mut plain_walls);
    out.put("replay.wall_ms", plain, "ms");
    out.put(
        "replay.events_per_s",
        total_events(&inputs) as f64 / (plain / 1e3),
        "1/s",
    );
    out.put("replay.unattributed_ms", median(&mut unattributed_ms), "ms");
    out.put(
        "trace.overhead_ratio",
        median(&mut traced_walls) / plain,
        "ratio",
    );
    out.spans = last;
    Ok(out)
}
