//! One end-to-end benchmark of the NeaTS stack over loopback HTTP, with a
//! separate traced run for per-layer figures. See `README.md` beside this
//! crate for the workloads, the metrics and how to run it.

pub mod client;
pub mod data;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workload;
