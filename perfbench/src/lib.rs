//! End-to-end and per-layer benchmark of the Dema cluster.
//!
//! The benchmark drives the cluster only through the public functions of
//! `dema-cluster`, `dema-core`, `dema-wire` and `dema-net`; NOTES.md says
//! what each workload and metric is for.

pub mod bench;
pub mod replay;
pub mod trace;
pub mod workload;
