//! The benchmark's count metrics must not depend on the run, the thread
//! count, or the seed: every workload repeats its counts exactly across two
//! runs and across `threads = 1` and `threads = nproc`, and a held-out seed
//! gives counts of the same shape.
//!
//! Adaptive γ repeats only when each window's γ update lands before the
//! next window is sliced. The benchmark paces `ties_tcp_paced` at 2 ms, so
//! a slow first window or a stall of the machine now and then leaves a
//! local on the older γ; here the same inputs run on a schedule with room
//! for the update. An unoptimised build cannot keep even that schedule:
//! run these tests with `cargo test --release`.

use std::sync::Mutex;

use dema_cluster::run_cluster;
use perfbench::bench::{counts, failed_windows, Counts};
use perfbench::workload::{self, available_parallelism, oracle};

/// Seed used while the workloads were tuned.
const SEED: u64 = 1;
/// A seed never used while tuning.
const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// Cluster runs take turns: a paced run sharing the cores with another
/// test's run could miss its schedule.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Window schedule of the paced workload in these tests.
const ROOMY_PACE_MS: u64 = 20;

fn run(name: &str, seed: u64, threads: usize) -> Counts {
    let _turn = ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut wl = workload::by_name(name).expect("workload exists");
    wl.pace_window_ms = wl.pace_window_ms.map(|_| ROOMY_PACE_MS);
    let inputs = wl.generate(seed, 0);
    let answers = oracle(&inputs).expect("oracle answers");
    let report = run_cluster(&wl.config(threads), inputs).expect("cluster run");
    assert_eq!(
        failed_windows(&report, &answers),
        0,
        "{name}: wrong answers"
    );
    counts(&report)
}

fn repeats_exactly(name: &str) {
    let nproc = available_parallelism();
    let first = run(name, SEED, nproc);
    assert_eq!(first, run(name, SEED, nproc), "{name}: second run differs");
    assert_eq!(first, run(name, SEED, 1), "{name}: threads=1 differs");
}

/// Mean candidate events and synopses per window, and wire events per
/// window.
fn shape(c: &Counts) -> [f64; 3] {
    let n = c.0.len() as f64;
    let candidates: u64 = c.0.iter().map(|w| w.2).sum();
    let synopses: u64 = c.0.iter().map(|w| w.4).sum();
    [
        candidates as f64 / n,
        synopses as f64 / n,
        (c.1).2 as f64 / n,
    ]
}

fn held_out_seed_has_same_shape(name: &str) {
    let nproc = available_parallelism();
    let tuned = shape(&run(name, SEED, nproc));
    let held_out = shape(&run(name, HELD_OUT_SEED, nproc));
    for (a, b) in tuned.iter().zip(&held_out) {
        assert!(
            (a - b).abs() <= 0.25 * a.max(*b),
            "{name}: counts {tuned:?} at the tuning seed, {held_out:?} at a held-out seed"
        );
    }
}

#[test]
fn bulk_spread_counts_repeat() {
    repeats_exactly("bulk_spread");
    held_out_seed_has_same_shape("bulk_spread");
}

#[test]
fn fanout_1000_counts_repeat() {
    repeats_exactly("fanout_1000");
    held_out_seed_has_same_shape("fanout_1000");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paced γ feedback needs a release build")]
fn ties_tcp_paced_counts_repeat() {
    repeats_exactly("ties_tcp_paced");
    held_out_seed_has_same_shape("ties_tcp_paced");
}

#[test]
fn seed_decides_inputs() {
    for wl in workload::WORKLOADS {
        let a = workload::Workload { windows: 2, ..wl };
        assert_eq!(a.generate(3, 0), a.generate(3, 0), "{}", wl.name);
        assert_ne!(a.generate(3, 0), a.generate(4, 0), "{}", wl.name);
        assert_ne!(a.generate(3, 0), a.generate(3, 1), "{}", wl.name);
    }
}
