//! The serving benchmark of the RADAR reproduction.
//!
//! Three workloads run through [`radar_serve::serve`] with two inference workers:
//! `steady_b8` (trained ResNet-20, batch 8, clean traffic), `single_b1` (width-32
//! ResNet-18-like, batch 1) and `churn_b8` (the `steady_b8` deployment under key
//! rotation, per-batch scrubbing and a 10-flip MSB strike every 16 batches). The
//! untraced run ([`workload::run`]) reports the end-to-end metrics and gates every
//! session on correctness; the traced run ([`replay::run`]) replays the workload's
//! batches through each layer's public calls with a span around each call.

#![forbid(unsafe_code)]

pub mod fixtures;
pub mod replay;
pub mod report;
pub mod workload;
