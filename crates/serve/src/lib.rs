//! `radar-serve`: an online inference-serving engine that runs RADAR against live
//! traffic.
//!
//! The paper's claim is *run-time* defense — signatures are checked in the weight-fetch
//! path while the model is serving, and attacks land via rowhammer during deployment.
//! This crate models that serving timeline, making the paper's headline quantities
//! measurable:
//!
//! * **time-to-detect** — requests/batches/wall-clock between the first landed flip and
//!   the first flagged group ([`TimeToDetect`]);
//! * **accuracy of traffic served between flip and recovery** — per-window served
//!   accuracy ([`AccuracyWindow`]), showing the attack dip and the post-recovery
//!   restoration;
//! * **tail-latency cost of in-path verification** — p50/p90/p99 over a fixed-bucket
//!   [`LatencyHistogram`], plus verify/scrub duty cycles.
//!
//! Every journal event and metric behind those quantities is recorded once, on the
//! `radar-obs` shard of the thread that emits it; the [`ServeOutcome`] is derived
//! from the merged [`ObsReport`] plus the workers' request records.
//!
//! # Architecture (threads, no async runtime)
//!
//! ```text
//! driver ──bounded queue──▶ batcher ──batches──▶ worker pool
//!                             │  ▲                 ├── shared WeightDram       (RwLock)
//!                   at a due  │  │ fetch           └── shared RadarProtection  (RwLock)
//!                    barrier  ▼  │ barrier
//!         strikes → scrub sweep → re-keying tick
//!            (inline, on the batcher thread)
//! ```
//!
//! [`serve`](engine::serve) wires the components: a bounded request queue feeds a
//! batcher that coalesces up to `max_batch` requests (waiting at most `max_wait`).
//! For each batch, the worker holding its fetch ticket copies every layer out of the
//! shared [`WeightDram`](radar_memsim::WeightDram) while verifying it in the same
//! pass, recovers anything flagged, and publishes the result as the batch's shared
//! snapshot, which inference reads in place. Between batches, at a fetch barrier, the batcher
//! itself runs the scripted adversary's
//! [`AttackTimeline`](radar_memsim::AttackTimeline) strikes, an incremental scrub
//! sweep over the DRAM image and — when [`ServeConfig::rotate_every`] is set — one
//! re-keying tick that rolls the protection to a fresh
//! [`KeyEpoch`](radar_core::KeyEpoch) (one layer re-signed per tick, publish,
//! retire). Recovery zeroes flagged groups directly in the DRAM image (and
//! refreshes the golden signatures) without stopping service; each worker pins the
//! epoch it observed at its fetch ticket and verification accepts
//! `{current, previous}` across a publish ([`RotationEvent`]s record the roll in
//! telemetry).
//!
//! Weight fetches are ticketed in batch order, the barrier steps only run when every
//! dispatched batch has fetched, and [`ServeConfig::strict_batching`] pins batch
//! composition to the request stream, so every *logical* outcome of a run — who
//! served corrupted weights, when detection fired, the accuracy windows — replays
//! deterministically for a fixed seed; only the measured wall-clock telemetry varies.

mod config;
mod engine;
mod recovery;
pub mod schedule;
mod steps;
mod sync;
mod telemetry;
mod traffic;

pub use config::ServeConfig;
pub use engine::{replicas, serve};
// The latency histogram was promoted into `radar-obs`; re-exported so existing
// `radar_serve::LatencyHistogram` consumers keep compiling. `ObsLevel` is the type
// of `ServeConfig::obs`, and `RotationKind` the type of `RotationEvent::kind`.
pub use radar_obs::{LatencyHistogram, ObsLevel, ObsReport, RotationKind};
pub use recovery::{recover_in_dram, recover_in_dram_traced};
pub use telemetry::{
    metric, AccuracyWindow, AttackSummary, DetectionEvent, RotationEvent, ServeOutcome,
    TimeToDetect,
};
pub use traffic::TrafficSchedule;

// Everything the scoped threads share must be thread-safe; enforce it at compile time
// so a non-`Send` field cannot sneak into the shared state.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServeConfig>();
    assert_send_sync::<TrafficSchedule>();
    assert_send_sync::<LatencyHistogram>();
    assert_send_sync::<ServeOutcome>();
};
