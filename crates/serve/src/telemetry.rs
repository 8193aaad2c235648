//! The serving engine's telemetry, as a **view over the `radar-obs` registry and
//! journal**.
//!
//! Every thread records into its own [`ObsShard`](radar_obs::ObsShard): each worker
//! its fetch-track events, duty-cycle counters and per-request latencies, and the
//! batcher's adversary, scrubber and re-keying shards their own strike, detect,
//! recover and rotation events. [`finish`] then derives the [`ServeOutcome`] —
//! detections, strikes, rotations, recovery totals, duty cycles, time-to-detect,
//! the latency histogram and the accuracy windows — from the merged
//! [`ObsReport`] plus the workers' request records. The raw report rides along in
//! [`ServeOutcome::obs`] for exporters and replay tests.

use radar_core::{KeyEpoch, RecoveryReport};
use radar_memsim::MountReport;
use radar_obs::{EventKind, LatencyHistogram, ObsReport, RotationKind};

/// Registry metric names the serve engine records under (always-on telemetry
/// class; the `ServeOutcome` duty cycles and latency histogram derive from these).
pub mod metric {
    /// Per-request end-to-end latency histogram (labelled per worker).
    pub const LATENCY_NS: &str = "serve.latency_ns";
    /// Nanoseconds spent in fetch-path signature verification.
    pub const VERIFY_NS: &str = "serve.verify_ns";
    /// Nanoseconds the scrubber spent sweeping.
    pub const SCRUB_NS: &str = "serve.scrub_ns";
    /// Nanoseconds workers spent in the forward pass.
    pub const INFER_NS: &str = "serve.infer_ns";
    /// Adversary strikes mounted.
    pub const STRIKES: &str = "serve.strikes";
    /// Scripted strikes whose batch offsets the run never reached.
    pub const STRIKES_NEVER_FIRED: &str = "serve.strikes_never_fired";
    /// Verification passes that flagged at least one group.
    pub const DETECTIONS: &str = "serve.detections";
    /// Shared snapshots built and published (one per batch, by the worker holding
    /// its fetch ticket; labelled per builder worker).
    pub const SNAPSHOT_PUBLISHES: &str = "serve.snapshot_publishes";
    /// Consumptions of a published snapshot (handles taken for inference — with
    /// one worker per batch this equals publishes; a fleet sharing one snapshot
    /// across workers drives hits above publishes).
    pub const SNAPSHOT_HITS: &str = "serve.snapshot_hits";
    /// Retired snapshot buffer sets reclaimed for a later build (allocation
    /// recycling; builds minus reclaims bounds the images concurrently alive).
    pub const SNAPSHOT_RECLAIMS: &str = "serve.snapshot_reclaims";
}

/// Outcome of one completed request; its latency goes to [`metric::LATENCY_NS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RequestRecord {
    /// Global submission order.
    pub(crate) id: usize,
    /// Batch the request was served in.
    pub(crate) batch: usize,
    /// Whether the model's top-1 prediction matched the label.
    pub(crate) correct: bool,
}

/// One detection event: the first moment a verification pass flagged groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionEvent {
    /// Batch index (logical clock) the detecting pass is attributed to.
    pub batch: usize,
    /// Whether the scrub sweep (rather than the in-path check) detected it.
    pub via_scrub: bool,
    /// Number of groups flagged by the pass.
    pub groups_flagged: usize,
    /// Wall-clock seconds since serving started.
    pub at_seconds: f64,
}

/// One re-keying tick, on the batcher's logical clock.
///
/// Deliberately wall-clock-free: rotation progress is part of a run's *logical*
/// outcome, so the event stream of a seeded run must be identical across replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationEvent {
    /// Batch index (logical clock) the rotation tick fired at.
    pub batch: usize,
    /// What the tick did.
    pub kind: RotationKind,
}

/// Derives a [`ServeOutcome`] from a session's merged [`ObsReport`] and the
/// workers' request records.
///
/// `batches` is the number of dispatched batches, `workers` the worker count (for
/// the verify duty-cycle normalization) and `window` the served-accuracy window
/// size in requests.
pub(crate) fn finish(
    obs: ObsReport,
    mut records: Vec<RequestRecord>,
    batches: usize,
    workers: usize,
    window: usize,
) -> ServeOutcome {
    records.sort_unstable_by_key(|r| r.id);

    // The journal is canonically ordered by batch, so the first strike seen is the
    // earliest one.
    let mut attack: Option<AttackSummary> = None;
    // `(batch, at_seconds)` of the first strike that landed a flip.
    let mut first_landed: Option<(usize, f64)> = None;
    let mut detections: Vec<DetectionEvent> = Vec::new();
    let mut rotations: Vec<RotationEvent> = Vec::new();
    let mut recovery = RecoveryReport::default();
    for event in obs.journal.events() {
        let batch = event.batch as usize;
        match event.kind {
            EventKind::Strike {
                flips_landed,
                flips_missed,
                rows_hammered,
            } => {
                let mount = MountReport {
                    flips_landed: flips_landed as usize,
                    flips_missed: flips_missed as usize,
                    rows_hammered: rows_hammered as usize,
                };
                if flips_landed > 0 && first_landed.is_none() {
                    first_landed = Some((batch, event.at_seconds));
                }
                match &mut attack {
                    // Timeline strikes aggregate instead of dropping earlier reports.
                    Some(sum) => {
                        sum.strikes += 1;
                        sum.mount.merge(&mount);
                    }
                    None => {
                        attack = Some(AttackSummary {
                            strikes: 1,
                            first_batch: batch,
                            first_at_seconds: event.at_seconds,
                            mount,
                        });
                    }
                }
            }
            EventKind::Detect {
                via_scrub,
                groups_flagged,
            } => detections.push(DetectionEvent {
                batch,
                via_scrub,
                groups_flagged: groups_flagged as usize,
                at_seconds: event.at_seconds,
            }),
            EventKind::Rotation(kind) => rotations.push(RotationEvent { batch, kind }),
            EventKind::Recover {
                groups_zeroed,
                weights_zeroed,
            } => {
                recovery.groups_zeroed += groups_zeroed as usize;
                recovery.weights_zeroed += weights_zeroed as usize;
            }
            _ => {}
        }
    }

    let windows: Vec<AccuracyWindow> = records
        .chunks(window.max(1))
        .map(|chunk| {
            let correct = chunk.iter().filter(|r| r.correct).count();
            AccuracyWindow {
                start: chunk.first().map_or(0, |r| r.id),
                end: chunk.last().map_or(0, |r| r.id + 1),
                correct,
                total: chunk.len(),
            }
        })
        .collect();

    // Time to detect: from the first strike that landed a flip to the first
    // detection at or after it. Requests are counted over the batches served in
    // between — the traffic exposed to corrupted weights before detection.
    let time_to_detect = first_landed.and_then(|(strike_batch, strike_at)| {
        let first = detections.iter().find(|d| d.batch >= strike_batch)?;
        let requests_between = records
            .iter()
            .filter(|r| (strike_batch..first.batch).contains(&r.batch))
            .count();
        Some(TimeToDetect {
            batches: first.batch - strike_batch,
            requests: requests_between,
            seconds: (first.at_seconds - strike_at).max(0.0),
            via_scrub: first.via_scrub,
        })
    });

    let wall_seconds = obs.wall_seconds;
    let latency = obs.registry.histogram_merged(metric::LATENCY_NS);
    let verify_seconds = obs.registry.counter_sum(metric::VERIFY_NS) as f64 / 1e9;
    let scrub_seconds = obs.registry.counter_sum(metric::SCRUB_NS) as f64 / 1e9;
    let infer_seconds = obs.registry.counter_sum(metric::INFER_NS) as f64 / 1e9;
    ServeOutcome {
        requests: records.len(),
        batches,
        wall_seconds,
        throughput_rps: if wall_seconds > 0.0 {
            records.len() as f64 / wall_seconds
        } else {
            0.0
        },
        latency,
        verify_seconds,
        scrub_seconds,
        infer_seconds,
        verify_duty: if wall_seconds > 0.0 {
            verify_seconds / (wall_seconds * workers.max(1) as f64)
        } else {
            0.0
        },
        scrub_duty: if wall_seconds > 0.0 {
            scrub_seconds / wall_seconds
        } else {
            0.0
        },
        attack,
        detections,
        rotations,
        time_to_detect,
        recovery,
        windows,
        obs,
    }
}

/// Aggregate of every adversary strike in a run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSummary {
    /// Number of strikes mounted.
    pub strikes: usize,
    /// Batch index of the earliest strike.
    pub first_batch: usize,
    /// Wall-clock offset of the earliest strike, in seconds since serving started.
    pub first_at_seconds: f64,
    /// Merged [`MountReport`] over all strikes.
    pub mount: MountReport,
}

/// Detection latency relative to the first strike that landed a flip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeToDetect {
    /// Batches dispatched between the strike and the detecting pass.
    pub batches: usize,
    /// Requests served on potentially corrupted weights before detection.
    pub requests: usize,
    /// Wall-clock seconds from the strike to the detection.
    pub seconds: f64,
    /// Whether the scrubber (rather than the in-path check) made the detection.
    pub via_scrub: bool,
}

/// Served accuracy over one contiguous window of request ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccuracyWindow {
    /// First request id in the window.
    pub start: usize,
    /// One past the last request id.
    pub end: usize,
    /// Correctly answered requests.
    pub correct: usize,
    /// Requests in the window.
    pub total: usize,
}

impl AccuracyWindow {
    /// Window accuracy in percent.
    #[must_use]
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.correct as f64 / self.total as f64
        }
    }
}

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Requests completed.
    pub requests: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Merged per-request latency histogram.
    pub latency: LatencyHistogram,
    /// Total seconds workers spent in fetch-path verification.
    pub verify_seconds: f64,
    /// Total seconds the scrubber spent sweeping.
    pub scrub_seconds: f64,
    /// Total seconds workers spent in the forward pass.
    pub infer_seconds: f64,
    /// Fetch-path verification duty cycle (verify time over total worker time).
    pub verify_duty: f64,
    /// Scrubber duty cycle (scrub time over wall time).
    pub scrub_duty: f64,
    /// Aggregate adversary activity (`None` for clean runs).
    pub attack: Option<AttackSummary>,
    /// Every detection event, in logical order.
    pub detections: Vec<DetectionEvent>,
    /// Every re-keying tick, in logical order
    /// (empty when rotation is disabled).
    pub rotations: Vec<RotationEvent>,
    /// Detection latency for the first strike that landed a flip (`None` when
    /// nothing was detected or no strike landed a flip).
    pub time_to_detect: Option<TimeToDetect>,
    /// Total recovery work performed.
    pub recovery: RecoveryReport,
    /// Served accuracy per window of request ids.
    pub windows: Vec<AccuracyWindow>,
    /// The raw observability report the view above was derived from: the merged
    /// metrics registry, the deterministic event journal (replay tests compare
    /// [`logical_jsonl`](radar_obs::EventJournal::logical_jsonl) across runs), and
    /// — at [`ObsLevel::Full`](radar_obs::ObsLevel::Full) — the spans the Chrome
    /// trace exporter consumes.
    pub obs: ObsReport,
}

impl ServeOutcome {
    /// Lowest window accuracy in percent (0 when no requests completed).
    #[must_use]
    pub fn min_window_percent(&self) -> f64 {
        self.windows
            .iter()
            .map(AccuracyWindow::percent)
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Accuracy of the final window in percent (0 when no requests completed).
    #[must_use]
    pub fn final_window_percent(&self) -> f64 {
        self.windows.last().map_or(0.0, AccuracyWindow::percent)
    }

    /// Number of epochs the re-keying task published during the run.
    #[must_use]
    pub fn epochs_published(&self) -> usize {
        self.rotations
            .iter()
            .filter(|e| matches!(e.kind, RotationKind::Published { .. }))
            .count()
    }

    /// The last epoch published during the run (`None` when no roll completed).
    #[must_use]
    pub fn last_published_epoch(&self) -> Option<KeyEpoch> {
        self.rotations.iter().rev().find_map(|e| match e.kind {
            RotationKind::Published { epoch } => Some(KeyEpoch::new(epoch)),
            _ => None,
        })
    }

    /// Overall served accuracy in percent.
    #[must_use]
    pub fn overall_percent(&self) -> f64 {
        let (correct, total) = self
            .windows
            .iter()
            .fold((0usize, 0usize), |(c, t), w| (c + w.correct, t + w.total));
        if total == 0 {
            0.0
        } else {
            100.0 * correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use radar_obs::{Event, EventJournal, Labels, MetricsRegistry, ObsLevel, Track};

    use super::*;

    fn record(id: usize, batch: usize, correct: bool) -> RequestRecord {
        RequestRecord { id, batch, correct }
    }

    /// An event whose wall-clock annotation is 10 ms per batch.
    fn event(batch: u64, track: Track, kind: EventKind) -> Event {
        Event {
            batch,
            track,
            kind,
            at_seconds: batch as f64 / 100.0,
        }
    }

    fn strike(batch: u64, flips_landed: u64, flips_missed: u64, rows_hammered: u64) -> Event {
        event(
            batch,
            Track::Strike,
            EventKind::Strike {
                flips_landed,
                flips_missed,
                rows_hammered,
            },
        )
    }

    fn detect(batch: u64, via_scrub: bool, groups_flagged: u64) -> Event {
        let track = if via_scrub {
            Track::Scrub
        } else {
            Track::Fetch
        };
        event(
            batch,
            track,
            EventKind::Detect {
                via_scrub,
                groups_flagged,
            },
        )
    }

    /// A one-second session report over `events` and `registry`.
    fn report(events: Vec<Event>, registry: MetricsRegistry) -> ObsReport {
        ObsReport {
            level: ObsLevel::Counters,
            wall_seconds: 1.0,
            registry,
            journal: EventJournal::from_events(events, usize::MAX),
            spans: Vec::new(),
        }
    }

    #[test]
    fn windows_chunk_by_request_id_in_order() {
        let mut registry = MetricsRegistry::new();
        // Complete out of order; windows must still chunk by id.
        let records: Vec<RequestRecord> = [3usize, 0, 2, 1, 4]
            .into_iter()
            .map(|id| {
                registry.record_ns(metric::LATENCY_NS, Labels::none().worker(0), 1_000_000);
                record(id, id / 2, id != 2)
            })
            .collect();
        let outcome = finish(report(Vec::new(), registry), records, 3, 2, 2);
        assert_eq!(outcome.requests, 5);
        assert_eq!(outcome.windows.len(), 3);
        assert_eq!(outcome.windows[0].start, 0);
        assert_eq!(outcome.windows[0].end, 2);
        assert_eq!(outcome.windows[1].correct, 1); // id 2 was wrong
        assert_eq!(outcome.windows[2].total, 1);
        assert!((outcome.overall_percent() - 80.0).abs() < 1e-9);
        assert_eq!(outcome.latency.count(), 5);
    }

    #[test]
    fn time_to_detect_counts_requests_between_strike_and_detection() {
        // Batches 0..6, 2 requests each.
        let records = (0..12).map(|id| record(id, id / 2, true)).collect();
        let events = vec![strike(2, 3, 1, 2), detect(5, true, 4)];
        let outcome = finish(report(events, MetricsRegistry::new()), records, 6, 1, 4);
        let ttd = outcome.time_to_detect.expect("attacked and detected");
        assert_eq!(ttd.batches, 3);
        // Requests in batches 2..5 = ids 4..10 → 6 requests.
        assert_eq!(ttd.requests, 6);
        assert!((ttd.seconds - 0.03).abs() < 1e-9);
        assert!(ttd.via_scrub);
        let attack = outcome.attack.expect("strike recorded");
        assert_eq!(attack.strikes, 1);
        assert_eq!(attack.mount.flips_landed, 3);
    }

    #[test]
    fn detection_before_strike_batch_is_ignored_for_ttd() {
        // The detection at batch 1 is stale / unrelated to the strike at batch 4.
        let events = vec![strike(4, 1, 0, 1), detect(1, false, 1)];
        let outcome = finish(report(events, MetricsRegistry::new()), Vec::new(), 6, 1, 4);
        assert!(outcome.time_to_detect.is_none());
    }

    #[test]
    fn strike_that_landed_nothing_yields_no_ttd() {
        let events = vec![strike(2, 0, 5, 1), detect(3, false, 1)];
        let outcome = finish(report(events, MetricsRegistry::new()), Vec::new(), 4, 1, 4);
        assert!(outcome.attack.is_some());
        assert!(outcome.time_to_detect.is_none());
    }

    #[test]
    fn time_to_detect_is_anchored_on_the_first_strike_that_landed_a_flip() {
        // Strike A at batch 2 lands nothing; strike B at batch 5 lands one flip,
        // and the in-path check of batch 5 catches it.
        let records = (0..12).map(|id| record(id, id / 2, true)).collect();
        let events = vec![strike(2, 0, 1, 1), strike(5, 1, 0, 1), detect(5, false, 1)];
        let outcome = finish(report(events, MetricsRegistry::new()), records, 6, 1, 4);
        let ttd = outcome.time_to_detect.expect("attacked and detected");
        assert_eq!(ttd.batches, 0);
        assert_eq!(ttd.requests, 0);
        assert_eq!(ttd.seconds, 0.0);
        // The attack summary still starts at the earliest strike.
        let attack = outcome.attack.expect("strikes recorded");
        assert_eq!(attack.strikes, 2);
        assert_eq!(attack.first_batch, 2);
        assert_eq!(attack.mount.flips_landed, 1);
    }

    #[test]
    fn multiple_strikes_merge_mount_reports() {
        let events = vec![strike(2, 2, 1, 2), strike(6, 2, 1, 2)];
        let outcome = finish(report(events, MetricsRegistry::new()), Vec::new(), 8, 1, 4);
        let attack = outcome.attack.expect("strikes recorded");
        assert_eq!(attack.strikes, 2);
        assert_eq!(attack.first_batch, 2);
        assert_eq!(attack.mount.flips_landed, 4);
        assert_eq!(attack.mount.flips_attempted(), 6);
    }

    #[test]
    fn the_view_is_a_projection_of_the_journal_and_registry() {
        let events = vec![
            strike(1, 1, 0, 1),
            detect(2, false, 3),
            event(
                2,
                Track::Fetch,
                EventKind::Recover {
                    groups_zeroed: 3,
                    weights_zeroed: 48,
                },
            ),
            event(
                3,
                Track::Rotate,
                EventKind::Rotation(RotationKind::Published { epoch: 1 }),
            ),
            event(
                3,
                Track::Strike,
                EventKind::StrikeNeverFired { remaining: 2 },
            ),
        ];
        let mut registry = MetricsRegistry::new();
        registry.add_counter(metric::STRIKES, Labels::none(), 1);
        registry.add_counter(metric::STRIKES_NEVER_FIRED, Labels::none(), 2);
        registry.add_counter(metric::VERIFY_NS, Labels::none().worker(0), 300_000_000);
        registry.add_counter(metric::VERIFY_NS, Labels::none().worker(1), 200_000_000);
        let outcome = finish(report(events, registry), vec![record(0, 0, true)], 4, 1, 4);
        // View fields and raw report agree.
        assert_eq!(outcome.detections.len(), 1);
        assert_eq!(outcome.recovery.groups_zeroed, 3);
        assert_eq!(outcome.recovery.weights_zeroed, 48);
        assert_eq!(outcome.epochs_published(), 1);
        assert_eq!(outcome.last_published_epoch(), Some(KeyEpoch::new(1)));
        // Duty cycles sum the per-worker counters over one worker-second.
        assert!((outcome.verify_seconds - 0.5).abs() < 1e-9);
        assert!((outcome.verify_duty - 0.5).abs() < 1e-9);
        assert_eq!(
            outcome.obs.registry.counter_sum(metric::STRIKES),
            1,
            "strike counter"
        );
        assert_eq!(
            outcome
                .obs
                .registry
                .counter_sum(metric::STRIKES_NEVER_FIRED),
            2
        );
        let journal = outcome.obs.journal.logical_jsonl();
        assert!(journal.contains(r#""event":"strike_never_fired","remaining":2"#));
        assert!(journal.contains(r#""event":"rotation.published","epoch":1"#));
        assert!(journal.contains(r#""event":"recover","groups_zeroed":3"#));
    }
}
