//! `perfbench`: run one workload of the repository benchmark and print its
//! metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk_spread --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the run's seed, machine and build. Both, and the spans of a
//! traced run, are also written under `perfbench/out/`. The exit status is
//! non-zero when any window is missing or differs from the sort oracle, or
//! when the serial replay disagrees with the cluster.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use perfbench::bench::{self, Outcome};
use perfbench::workload::{self, available_parallelism, cluster_threads};

const USAGE: &str = "\
usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

workloads: bulk_spread, fanout_1000, ties_tcp_paced
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.";

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Escape `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `git rev-parse HEAD` in the benchmark's directory, or `unknown` where
/// the sources are not a git checkout.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn meta_line(args: &Args, out: &Outcome) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"run_seconds\": {}, \
         \"runs_measured\": {}, \"windows_per_run\": {}, \"latency_samples\": {}, \
         \"window_latency_p50_ms\": {:?}, \"window_latency_p99_ms\": {:?}, \
         \"failed_window_ratio\": {:?}, \"available_parallelism\": {}, \
         \"cluster_threads\": {}, \"git_revision\": {}, \"rustc\": {}}}",
        json_str(args.workload.name),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        out.count,
        args.workload.windows,
        out.latency_samples,
        out.window_latency_p50_ms,
        out.window_latency_p99_ms,
        out.failed as f64 / out.attempted.max(1) as f64,
        available_parallelism(),
        cluster_threads(),
        json_str(&git_revision()),
        json_str(env!("PERFBENCH_RUSTC")),
    )
}

/// Write the record and the spans under `perfbench/out/`.
fn write_files(args: &Args, out: &Outcome, meta: &str, result: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{meta}\n{result}\n"),
    )?;
    if let Some(rec) = &out.spans {
        let file = std::fs::File::create(dir.join(format!("{stem}.spans.tsv")))?;
        let mut w = std::io::BufWriter::new(file);
        rec.write_tsv(&mut w)?;
        std::io::Write::flush(&mut w)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        bench::traced(&args.workload, args.seed, args.seconds)
    } else {
        bench::timed(&args.workload, args.seed, args.seconds)
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    let meta = meta_line(&args, &out);
    let result = result_line(&out);
    if let Err(e) = write_files(&args, &out, &meta, &result) {
        eprintln!("perfbench: could not write the run record: {e}");
    }
    println!("{meta}");
    println!("{result}");
    if out.failed > 0 {
        eprintln!(
            "perfbench: {}/{} windows missing or wrong",
            out.failed, out.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
