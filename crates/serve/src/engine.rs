use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

use radar_core::{KeyEpoch, RadarProtection, RecoveryReport};
use radar_data::Dataset;
use radar_memsim::{AttackTimeline, WeightDram};
use radar_nn::argmax_rows;
use radar_obs::{
    set_global_level, EventKind, Labels, ObsCore, RotationKind, Stopwatch, Tid, Track,
};
use radar_quant::QuantizedModel;

use crate::config::ServeConfig;
use crate::recovery::recover_in_dram;
use crate::steps::{build_snapshot, refresh_layers, rotation_step, scrub_sweep, RotationAction};
use crate::sync::{lock, read_lock, write_lock, FetchTicket, SnapshotSlot, VerifiedSnapshot};
use crate::telemetry::{finish, metric, RequestRecord, ServeOutcome};
use crate::traffic::{Batch, Request, TrafficSchedule};

/// Runs one complete serving session and returns its telemetry.
///
/// Components (scoped threads, no async runtime):
///
/// * a **traffic driver** thread submitting `schedule`'s requests into a bounded
///   queue;
/// * `workers` **inference worker** threads, each owning one model replica in
///   `models`. The batch's ticket holder runs *one* fused fetch-and-verify pass —
///   each layer's bytes are copied out of the shared [`WeightDram`] while their
///   ±1-masked group sums accumulate in the same sweep (when `inpath_verify` is
///   on) — recovers flagged groups in the image and in the snapshot before anyone
///   reads it, and publishes the result as an epoch- and batch-stamped
///   `Arc<VerifiedSnapshot>`. Inference runs `forward_with_values` straight off the
///   shared `&[i8]` slices, with no worker-side mutation: the replica supplies only
///   the model's structure, scales and float-only layers;
/// * the **batcher** (the calling thread) coalescing up to `max_batch` requests
///   (waiting at most `max_wait` for stragglers) and dispatching batches to the
///   workers. It owns the logical clock (the dispatched-batch count), and whenever
///   a barrier step is due it waits at the fetch barrier and runs the steps inline,
///   in this order:
///   1. **strikes** — `timeline`'s rowhammer strikes scripted at or before this
///      batch offset;
///   2. **scrub** — every `scrub_every` batches, one sweep over `scrub_layers`
///      layers of the DRAM image straight from the stored bytes (`scrub_sweep`),
///      recovering anything it flags;
///   3. **re-keying** — every [`rotate_every`](ServeConfig::rotate_every) batches,
///      one rotation action: begin a roll, re-sign one layer under the next
///      [`KeyEpoch`], publish, or retire the previous epoch. Each worker pins the
///      epoch it observed at its fetch ticket and the protection accepts
///      `{current, previous}`, so a publish never strands an in-flight
///      verification.
///
/// Weight fetches are ticketed in batch order through a [`FetchTicket`] (batch
/// `b + 1` cannot fetch before batch `b` has fetched and recovered), and the barrier
/// steps only run once every dispatched batch has fetched; inference itself overlaps
/// freely. Consequently every logical outcome — which batches served corrupted
/// weights, the detecting batch, recovery counts, per-window served accuracy — is a
/// pure function of `(models, schedule, timeline, config)`, independent of thread
/// scheduling, provided batch composition itself is deterministic: either run with
/// [`strict_batching`](ServeConfig::strict_batching) (the benchmark scenarios do), or
/// accept that a driver descheduled for longer than `max_wait` may split a batch.
/// Wall-clock latency telemetry is genuinely measured, and only it varies between
/// replays. The deterministic schedule model-checker in [`crate::schedule`]
/// exhaustively verifies this protocol for small configurations, and a watchdog in
/// [`crate::sync`] turns any ticket/barrier stall into a loud panic with the stuck
/// ticket state instead of a hung job.
///
/// # Observability
///
/// Every journal event and metric is recorded once, on the shard of the thread
/// that emits it. Each worker records through its own [`radar_obs::ObsShard`],
/// flushed once per batch after the ticket publish: its fetch-track events, its
/// duty-cycle and snapshot counters, and each request's latency under its own
/// `worker` label. The batcher keeps one shard per barrier role (adversary,
/// scrubber, rotation), which records that role's events and counters, so the
/// trace shows one row per role. Journal events for each `(batch, track)` key have
/// exactly one emitter — the ticket-holding worker for the fetch track, the
/// batcher's strike, scrub or re-keying step for theirs — which is what makes the
/// journal's canonical order (a stable sort by `(batch, track)`) independent of
/// flush interleaving. Each worker keeps its own request records and hands them
/// over when it exits, so the per-request path takes no lock. At
/// [`radar_obs::ObsLevel::Full`] the hot sections additionally record spans (ticket
/// wait, verified fetch, inference, scrub sweeps, rotation ticks, strike mounts) for
/// the Chrome trace exporter.
///
/// Strikes scripted at batch offsets the run never reaches do not fire. When service
/// ends, whatever is left over is journaled as one `strike_never_fired` event at the
/// last batch a strike was mounted (batch 0 if none was), and counted in
/// [`metric::STRIKES_NEVER_FIRED`].
///
/// # Panics
///
/// Panics if `models` does not provide exactly `config.workers` replicas, `eval` is
/// empty, the configuration is invalid, or in-path verification / scrubbing is
/// requested without a `protection`. A panic in a barrier step (for example a scrub
/// that finds a layer whose size changed since signing) stops dispatch at once and
/// propagates out of `serve` with its own message: no further batch is served. Once
/// dispatch ends, joining the workers resumes any worker's panic with its own
/// payload.
pub fn serve(
    models: Vec<QuantizedModel>,
    protection: Option<RadarProtection>,
    dram: WeightDram,
    eval: &Dataset,
    schedule: &TrafficSchedule,
    mut timeline: AttackTimeline,
    config: &ServeConfig,
) -> ServeOutcome {
    config.validate();
    assert_eq!(
        models.len(),
        config.workers,
        "one model replica per worker is required"
    );
    assert!(!eval.is_empty(), "evaluation pool must be non-empty");
    assert!(
        protection.is_some() || !config.inpath_verify,
        "in-path verification requires a protection"
    );
    assert!(
        protection.is_some() || config.scrub_every == 0,
        "scrubbing requires a protection"
    );
    assert!(
        protection.is_some() || config.rotate_every == 0,
        "key rotation requires a protection"
    );

    // Arm the process-global gate so `GlobalCounter` kernels instrumented deeper in
    // the stack (gemm panels, verify sweeps) follow this run's level.
    set_global_level(config.obs);

    let samples = schedule.sample_indices(eval.len());
    let event_offsets = timeline.batch_offsets();
    let num_layers = dram.num_layers();
    let scrub_step = match config.scrub_layers {
        0 => num_layers,
        layers => layers.min(num_layers),
    };
    let dram = RwLock::new(dram);
    let protection = protection.map(RwLock::new);
    let obs = ObsCore::new(config.obs);
    // Batches whose weight fetch (and any in-path recovery) has completed; doubles as
    // the fetch ticket: the worker holding batch `fetched` is the one allowed to fetch.
    let fetched = FetchTicket::new();
    // The shared-snapshot publish/consume slot: the ticket holder publishes each
    // batch's verified image here *before* releasing the ticket, and retired images
    // donate their buffers back to later builds.
    let snapshots = SnapshotSlot::new();

    let (req_tx, req_rx) = sync_channel::<Request>(config.queue_capacity);
    let (batch_tx, batch_rx) = sync_channel::<Batch>(config.workers);
    let batch_rx = Mutex::new(batch_rx);

    let mut batches = 0usize;
    let records = std::thread::scope(|scope| {
        // Traffic driver: submits the scheduled requests as fast as the bounded queue
        // accepts them (open-loop at the queue, closed-loop at the service rate).
        scope.spawn(move || {
            for (id, &sample) in samples.iter().enumerate() {
                let request = Request {
                    id,
                    sample,
                    submitted: Stopwatch::start(),
                };
                if req_tx.send(request).is_err() {
                    break;
                }
            }
        });

        // Inference workers: verified fetch in batch order, overlapped inference.
        // The ticket holder builds the batch's shared snapshot in one fused
        // fetch-and-verify pass, and the worker forwards straight off its `&[i8]`
        // slices through the integer GEMM (i8×i8 products, i32 accumulation,
        // requantization epilogue; GEMM-level threading stays at the
        // RADAR_GEMM_THREADS default so worker parallelism composes predictably).
        // The replica contributes only its structure, scales and float-only layers;
        // its stored weights are never read or written. Each worker hands back its
        // own request records when it exits.
        let mut workers = Vec::with_capacity(config.workers);
        for (w, mut model) in models.into_iter().enumerate() {
            let dram = &dram;
            let protection = protection.as_ref();
            let verifier = protection.filter(|_| config.inpath_verify);
            let obs = &obs;
            let fetched = &fetched;
            let batch_rx = &batch_rx;
            let snapshots = &snapshots;
            workers.push(scope.spawn(move || {
                let mut shard = obs.shard(Tid::Worker(w as u16));
                let worker_labels = Labels::none().worker(w as u32);
                let mut records: Vec<RequestRecord> = Vec::new();
                let mut acc: Vec<i32> = Vec::new();
                loop {
                    let received = lock(batch_rx).recv();
                    let Ok(batch) = received else { break };
                    let index = batch.index as u64;
                    // Wait for this batch's fetch ticket.
                    let timer = shard.span_start();
                    fetched.wait_for(batch.index);
                    shard.span_end(timer, "ticket_wait", index);
                    // Pin the epoch this batch verifies under, with its own short
                    // read lock *before* the fetch takes the main locks. A rotation
                    // publish landing in the pin→fetch window moves the pinned epoch
                    // into the protection's `{current, previous}` acceptance window,
                    // so the fetch below still verifies against a retained store.
                    let mut pinned = KeyEpoch::ZERO;
                    if let Some(prot) = protection {
                        pinned = read_lock(prot).current_epoch();
                    }
                    // The buffers this batch's fused build fills, recycled from a
                    // retired snapshot when one has fully drained.
                    let mut build: Vec<Vec<i8>> = Vec::new();
                    if let Some(buffers) = snapshots.acquire_buffers() {
                        build = buffers;
                        shard.force_add(metric::SNAPSHOT_RECLAIMS, worker_labels.clone(), 1);
                    }
                    // One fused pass per batch: bytes copied out of DRAM while their
                    // masked group sums accumulate (a plain copy when in-path
                    // verification is off).
                    let timer = shard.span_start();
                    let mut checking = Duration::ZERO;
                    let flagged = {
                        let dram = read_lock(dram);
                        let prot = verifier.map(read_lock);
                        build_snapshot(
                            &dram,
                            prot.as_deref().map(|prot| (prot, pinned)),
                            &mut build,
                            &mut acc,
                            &mut checking,
                        )
                    };
                    shard.span_end(timer, "snapshot_build", index);
                    // The fetch track's journal events: emitted only by the
                    // ticket-holding worker (exactly one per batch), so the track's
                    // canonical order is flush-independent. Logical fields only.
                    shard.event(
                        index,
                        Track::Fetch,
                        EventKind::Fetch {
                            epoch: pinned.index(),
                        },
                    );
                    if verifier.is_some() {
                        shard.force_add(
                            metric::VERIFY_NS,
                            worker_labels.clone(),
                            checking.as_nanos() as u64,
                        );
                        shard.event(
                            index,
                            Track::Fetch,
                            EventKind::Verify {
                                groups_flagged: flagged.num_flagged() as u64,
                            },
                        );
                    }
                    if flagged.attack_detected() {
                        shard.force_add(metric::DETECTIONS, Labels::none(), 1);
                        shard.event(
                            index,
                            Track::Fetch,
                            EventKind::Detect {
                                via_scrub: false,
                                groups_flagged: flagged.num_flagged() as u64,
                            },
                        );
                        // In-path flags imply a verifier was configured; the `if
                        // let` (rather than an `expect`) keeps the worker loop free
                        // of panicking accessors, per the `no-unwrap-worker` lint.
                        if let Some(prot) = verifier {
                            let mut dram = write_lock(dram);
                            let mut prot = write_lock(prot);
                            let recovery = recover_in_dram(&mut prot, &mut dram, &flagged);
                            shard.event(index, Track::Fetch, recover_event(recovery));
                            // Refresh the recovered layers in the pending snapshot,
                            // strictly before publish: consumers can never observe
                            // pre-recovery bytes.
                            refresh_layers(&dram, &flagged, &mut build);
                        }
                    }
                    // Publish the batch's verified snapshot *before* releasing the
                    // fetch ticket: the ticket's Release store is the happens-before
                    // edge every consumer rides. The consume happens while this
                    // thread still holds the ticket — the slot cannot be republished
                    // until the next batch's builder acquires the ticket — so the
                    // stamps must name this batch and its pinned epoch. (Consuming
                    // after the ticket release could observe a *newer* snapshot;
                    // consuming before publish would observe a stale one — the
                    // hazard the schedule model-checker's `StaleSnapshot` mutation
                    // seeds.) An empty slot here is a protocol break, not a batch
                    // to skip: fail as loudly as the stamp asserts.
                    snapshots.publish(VerifiedSnapshot::new(batch.index, pinned, build));
                    shard.force_add(metric::SNAPSHOT_PUBLISHES, worker_labels.clone(), 1);
                    let Some(snapshot) = snapshots.latest() else {
                        panic!(
                            "snapshot slot empty right after publishing batch {}",
                            batch.index
                        );
                    };
                    assert_eq!(
                        snapshot.batch(),
                        batch.index,
                        "stale snapshot consumed while serving batch {}",
                        batch.index
                    );
                    assert_eq!(
                        snapshot.epoch(),
                        pinned,
                        "snapshot epoch stamp does not match the pinned epoch"
                    );
                    fetched.publish(batch.index + 1);

                    let sample_ids: Vec<usize> = batch.requests.iter().map(|r| r.sample).collect();
                    let subset = eval.subset(&sample_ids);
                    let started = Stopwatch::start();
                    let timer = shard.span_start();
                    shard.force_add(metric::SNAPSHOT_HITS, worker_labels.clone(), 1);
                    let logits = model.forward_with_values(snapshot.layers(), subset.images());
                    shard.span_end(timer, "infer", index);
                    shard.force_add(
                        metric::INFER_NS,
                        worker_labels.clone(),
                        started.elapsed_ns(),
                    );
                    let predictions = argmax_rows(&logits);
                    for (request, (prediction, &label)) in batch
                        .requests
                        .iter()
                        .zip(predictions.iter().zip(subset.labels()))
                    {
                        shard.force_record_ns(
                            metric::LATENCY_NS,
                            worker_labels.clone(),
                            request.submitted.elapsed_ns(),
                        );
                        records.push(RequestRecord {
                            id: request.id,
                            batch: batch.index,
                            correct: *prediction == label,
                        });
                    }
                    // One flush per batch, at the barrier cadence the engine already
                    // has — never per sample.
                    obs.flush(&mut shard);
                }
                obs.flush(&mut shard);
                records
            }));
        }

        // Batcher (this thread): coalesce, run the logical clock, dispatch — and at
        // each due fetch barrier run the barrier steps inline, in a fixed order:
        // scripted strikes, then one scrub sweep, then one re-keying tick. Each
        // step records through its own role's shard, so the trace keeps one row
        // per role and every journal `(batch, track)` key has a single emitter.
        let mut adversary = obs.shard(Tid::Adversary);
        let mut scrubber = obs.shard(Tid::Scrubber);
        let mut rekeyer = obs.shard(Tid::Rotation);
        let mut last_strike_batch = 0usize;
        let mut scrub_cursor = 0usize;
        let mut buf: Vec<i8> = Vec::new();
        let mut acc: Vec<i32> = Vec::new();
        while let Ok(first) = req_rx.recv() {
            let mut requests = vec![first];
            let waited = Stopwatch::start();
            while requests.len() < config.max_batch {
                if config.strict_batching {
                    // Deterministic-replay mode: only the end of the request stream
                    // produces a partial batch, never a scheduling hiccup.
                    match req_rx.recv() {
                        Ok(request) => requests.push(request),
                        Err(_) => break,
                    }
                } else {
                    let remaining = config.max_wait.saturating_sub(waited.elapsed_duration());
                    match req_rx.recv_timeout(remaining) {
                        Ok(request) => requests.push(request),
                        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                            break
                        }
                    }
                }
            }
            // Due when the next unfired strike's offset has been reached.
            let strike_due = event_offsets
                .get(timeline.len() - timeline.remaining())
                .is_some_and(|&offset| offset <= batches);
            let scrub_due = batches > 0 && batches.checked_rem(config.scrub_every) == Some(0);
            let rotate_due = batches > 0 && batches.checked_rem(config.rotate_every) == Some(0);
            if strike_due || scrub_due || rotate_due {
                // Every dispatched batch has fetched (and recovered), so the steps
                // below land exactly between batch `batches - 1` and `batches`.
                fetched.wait_at_least(batches);
            }
            let index = batches as u64;
            if strike_due {
                last_strike_batch = batches;
                while let Some(event) = timeline.pop_due(batches) {
                    let timer = adversary.span_start();
                    let mount = event.mount(&mut write_lock(&dram));
                    adversary.span_end(timer, "strike_mount", index);
                    adversary.force_add(metric::STRIKES, Labels::none(), 1);
                    adversary.event(
                        index,
                        Track::Strike,
                        EventKind::Strike {
                            flips_landed: mount.flips_landed as u64,
                            flips_missed: mount.flips_missed as u64,
                            rows_hammered: mount.rows_hammered as u64,
                        },
                    );
                }
            }
            // One sweep step over a rotating slice of the DRAM image, straight from
            // the stored bytes (no model replica involved).
            if let (true, Some(prot)) = (scrub_due, protection.as_ref()) {
                let started = Stopwatch::start();
                let timer = scrubber.span_start();
                let flagged = scrub_sweep(
                    &read_lock(&dram),
                    &read_lock(prot),
                    scrub_cursor,
                    scrub_step,
                    &mut buf,
                    &mut acc,
                );
                scrubber.span_end(timer, "scrub_sweep", index);
                scrub_cursor = (scrub_cursor + scrub_step) % num_layers;
                if flagged.attack_detected() {
                    scrubber.force_add(metric::DETECTIONS, Labels::none(), 1);
                    scrubber.event(
                        index,
                        Track::Scrub,
                        EventKind::Detect {
                            via_scrub: true,
                            groups_flagged: flagged.num_flagged() as u64,
                        },
                    );
                    let mut image = write_lock(&dram);
                    let recovery = recover_in_dram(&mut write_lock(prot), &mut image, &flagged);
                    scrubber.event(index, Track::Scrub, recover_event(recovery));
                }
                scrubber.force_add(metric::SCRUB_NS, Labels::none(), started.elapsed_ns());
            }
            // One re-keying action (begin → re-sign each layer → publish → retire),
            // after any scrub step, so a tick's pre-sign check sees the sweep's
            // recoveries, never the reverse. Recovery done by the pre-sign check
            // folds into the run totals.
            if let (true, Some(prot)) = (rotate_due, protection.as_ref()) {
                let timer = rekeyer.span_start();
                let action = rotation_step(
                    &mut write_lock(&dram),
                    &mut write_lock(prot),
                    &mut buf,
                    &mut acc,
                    |_, _| {},
                );
                rekeyer.span_end(timer, "rotation_tick", index);
                let kind = match action {
                    RotationAction::Began(epoch) => RotationKind::Began {
                        epoch: epoch.index(),
                    },
                    RotationAction::Resigned { layer, recovered } => {
                        if recovered.groups_zeroed > 0 {
                            rekeyer.event(index, Track::Rotate, recover_event(recovered));
                        }
                        RotationKind::Resigned {
                            layer: layer as u64,
                            groups_recovered: recovered.groups_zeroed as u64,
                        }
                    }
                    RotationAction::Published(epoch) => RotationKind::Published {
                        epoch: epoch.index(),
                    },
                    RotationAction::Retired(epoch) => RotationKind::Retired {
                        epoch: epoch.index(),
                    },
                };
                rekeyer.event(index, Track::Rotate, EventKind::Rotation(kind));
            }
            if batch_tx
                .send(Batch {
                    index: batches,
                    requests,
                })
                .is_err()
            {
                break;
            }
            batches += 1;
        }
        if timeline.remaining() > 0 {
            // Scripted strikes whose batch offsets the run never reached: a
            // structured journal event + counter, so harnesses can assert on it
            // instead of scraping stderr.
            let remaining = timeline.remaining() as u64;
            adversary.force_add(metric::STRIKES_NEVER_FIRED, Labels::none(), remaining);
            adversary.event(
                last_strike_batch as u64,
                Track::Strike,
                EventKind::StrikeNeverFired { remaining },
            );
        }
        for shard in [&mut adversary, &mut scrubber, &mut rekeyer] {
            obs.flush(shard);
        }
        // Both channel ends are moved into this closure, so a barrier step that
        // panics also disconnects them on unwind: the driver and the workers exit
        // and the panic leaves `serve` instead of waiting out the remaining traffic.
        drop(req_rx);
        drop(batch_tx);
        // Resume a worker's panic with its own payload rather than the scope's
        // generic one.
        let mut records = Vec::new();
        for worker in workers {
            match worker.join() {
                Ok(mut served) => records.append(&mut served),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        records
    });

    finish(
        obs.finish(),
        records,
        batches,
        config.workers,
        config.window,
    )
}

/// The journal payload of one recovery pass.
fn recover_event(recovery: RecoveryReport) -> EventKind {
    EventKind::Recover {
        groups_zeroed: recovery.groups_zeroed as u64,
        weights_zeroed: recovery.weights_zeroed as u64,
    }
}

/// Builds the per-worker model replicas the engine consumes, by draining a
/// caller-provided factory — a convenience for tests and harnesses that clone from a
/// checkpoint.
pub fn replicas(count: usize, mut factory: impl FnMut() -> QuantizedModel) -> Vec<QuantizedModel> {
    (0..count).map(|_| factory()).collect()
}

// Workers share one dispatch receiver behind a mutex; that only compiles into a sound
// program if the wrapped receiver is `Send` (making the mutex `Sync`).
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Mutex<Receiver<Batch>>>();
};
