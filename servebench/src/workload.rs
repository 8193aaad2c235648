//! The serving workloads and their end-to-end run: seeded traffic and strikes,
//! timed set-up, repeated `radar_serve::serve` sessions, and the correctness gate.

use radar_core::{RadarConfig, RadarProtection};
use radar_memsim::{AttackTimeline, DramGeometry, MountEvent, RowhammerInjector, WeightDram};
use radar_nn::argmax_rows;
use radar_obs::{LatencyHistogram, ObsLevel, Stopwatch};
use radar_quant::QuantizedModel;
use radar_serve::{metric, serve, ServeConfig, ServeOutcome, TrafficSchedule};

use crate::fixtures::{load_quantized, weight_checksum, Fixture, ModelId};
use crate::report::{median, peak_rss_mb, RunReport};

/// Inference workers: one per core of the 2-core reference host, as the engine's
/// default.
pub(crate) const WORKERS: usize = 2;

/// Served-accuracy window, in requests: the unit the reference gate compares.
pub(crate) const WINDOW: usize = 64;

/// Timed repeats a run makes at least, however long they take.
const MIN_REPEATS: usize = 3;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["steady_b8", "single_b1", "churn_b8"];

/// One serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// The served model.
    pub model: ModelId,
    /// Batcher `max_batch`.
    pub max_batch: usize,
    /// Requests per `serve` session.
    pub requests: usize,
    /// RADAR group size.
    pub group_size: usize,
    /// Scrub cadence in batches (`ServeConfig::scrub_every`).
    pub scrub_every: usize,
    /// Rotation cadence in batches (`ServeConfig::rotate_every`, 0 = off).
    pub rotate_every: usize,
    /// A strike every this many batches (0 = clean traffic).
    pub strike_every: usize,
    /// Single-MSB flips per strike.
    pub strike_flips: usize,
}

impl Spec {
    /// The named workload at benchmark size.
    pub fn named(name: &str) -> Option<Spec> {
        let steady = Spec {
            name: "steady_b8",
            model: ModelId::ResNet20,
            max_batch: 8,
            requests: 1024,
            group_size: 16,
            scrub_every: ServeConfig::default().scrub_every,
            rotate_every: 0,
            strike_every: 0,
            strike_flips: 0,
        };
        match name {
            "steady_b8" => Some(steady),
            "single_b1" => Some(Spec {
                name: "single_b1",
                model: ModelId::ResNet18W32,
                max_batch: 1,
                requests: 192,
                group_size: 128,
                ..steady
            }),
            "churn_b8" => Some(Spec {
                name: "churn_b8",
                scrub_every: 1,
                rotate_every: 1,
                strike_every: 16,
                strike_flips: 10,
                ..steady
            }),
            _ => None,
        }
    }

    /// The same workload shape on the self-test's tiny model and traffic.
    pub fn tiny(self) -> Spec {
        Spec {
            model: ModelId::Tiny,
            requests: if self.max_batch == 1 { 24 } else { 160 },
            group_size: 16,
            strike_every: self.strike_every.min(4),
            strike_flips: self.strike_flips.min(3),
            ..self
        }
    }

    /// Batches one session dispatches (strict batching).
    pub fn batches(&self) -> usize {
        self.requests.div_ceil(self.max_batch)
    }

    /// Batch offsets of the scripted strikes: every `strike_every` batches,
    /// strictly inside the session so every strike fires.
    pub fn strike_batches(&self) -> Vec<usize> {
        if self.strike_every == 0 {
            return Vec::new();
        }
        (1..)
            .map(|j| j * self.strike_every)
            .take_while(|&b| b < self.batches())
            .collect()
    }

    /// The engine configuration: 2 workers, strict batching (batch composition is
    /// a pure function of the schedule), queue capacity 64, in-path verify on.
    pub fn config(&self, level: ObsLevel) -> ServeConfig {
        ServeConfig {
            workers: WORKERS,
            max_batch: self.max_batch,
            strict_batching: true,
            scrub_every: self.scrub_every,
            rotate_every: self.rotate_every,
            window: WINDOW,
            ..ServeConfig::default()
        }
        .with_obs(level)
    }
}

/// The generated inputs of one run: the traffic schedule and the strike timeline.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The traffic schedule (`serve` draws the sample indices from it).
    pub schedule: TrafficSchedule,
    /// The scripted strikes.
    pub strikes: Vec<MountEvent>,
}

impl Inputs {
    /// Generates the inputs of `spec` from `seed`.
    pub fn generate(fx: &mut Fixture, spec: &Spec, seed: u64) -> Inputs {
        let batches = spec.strike_batches();
        let profiles = fx.strike_profiles(seed, batches.len(), spec.strike_flips);
        let strikes = batches
            .iter()
            .zip(profiles)
            .map(|(&at_batch, profile)| MountEvent {
                at_batch,
                injector: RowhammerInjector::default(),
                profile,
                seed: seed.wrapping_add(at_batch as u64),
            })
            .collect();
        Inputs {
            schedule: TrafficSchedule::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), spec.requests),
            strikes,
        }
    }

    /// The pool indices of each strict batch, in dispatch order.
    pub fn batches(&self, spec: &Spec, pool: usize) -> Vec<Vec<usize>> {
        self.schedule
            .sample_indices(pool)
            .chunks(spec.max_batch)
            .map(<[usize]>::to_vec)
            .collect()
    }
}

/// Seconds spent in each part of one set-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Checkpoint load and quantize of every worker replica and the signer.
    pub replicas_s: f64,
    /// `RadarProtection::new` (0 when unprotected).
    pub sign_s: f64,
    /// `WeightDram::load`.
    pub load_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.replicas_s + self.sign_s + self.load_s
    }
}

/// What a session needs: replicas, the protection and the DRAM image.
pub(crate) struct Served {
    /// One replica per worker.
    pub models: Vec<QuantizedModel>,
    /// The protection (absent for the unprotected twin).
    pub protection: Option<RadarProtection>,
    /// The weight image.
    pub dram: WeightDram,
    /// Checksum of the signer's weights (must match the fixture).
    pub checksum: u64,
}

/// Builds a session's state from the fixture checkpoint, timing each part.
pub(crate) fn setup(fx: &Fixture, spec: &Spec, protected: bool) -> (Served, SetupTimes) {
    let started = Stopwatch::start();
    let models: Vec<QuantizedModel> = (0..WORKERS)
        .map(|_| load_quantized(fx.model, &fx.checkpoint))
        .collect();
    let signer = load_quantized(fx.model, &fx.checkpoint);
    let replicas_s = started.elapsed_secs();

    let started = Stopwatch::start();
    let protection = protected
        .then(|| RadarProtection::new(&signer, RadarConfig::paper_default(spec.group_size)));
    let sign_s = if protected {
        started.elapsed_secs()
    } else {
        0.0
    };

    let started = Stopwatch::start();
    let dram = WeightDram::load(&signer, DramGeometry::default());
    let load_s = started.elapsed_secs();

    let served = Served {
        models,
        protection,
        dram,
        checksum: weight_checksum(&signer),
    };
    (
        served,
        SetupTimes {
            replicas_s,
            sign_s,
            load_s,
        },
    )
}

/// Sets up and runs one `serve` session.
pub fn session(
    fx: &Fixture,
    spec: &Spec,
    inputs: &Inputs,
    config: &ServeConfig,
) -> (ServeOutcome, SetupTimes, u64) {
    let protected = config.inpath_verify || config.scrub_every > 0;
    let (served, times) = setup(fx, spec, protected);
    let outcome = serve(
        served.models,
        served.protection,
        served.dram,
        &fx.pool,
        &inputs.schedule,
        AttackTimeline::new(inputs.strikes.clone()),
        config,
    );
    (outcome, times, served.checksum)
}

/// What a session's logical outcome must equal.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Clean traffic: correct answers per window, from forwards outside the engine.
    Windows(Vec<usize>),
    /// Attacked traffic: the logical journal of the run's first session.
    Journal(String),
}

/// Correct answers per served-accuracy window, computed outside the engine:
/// `forward_with_values` on the clean weight image over the same strict batches
/// (activation scales are per batch, so batch composition must match).
pub fn reference_windows(
    fx: &Fixture,
    spec: &Spec,
    inputs: &Inputs,
    image: &[Vec<i8>],
) -> Vec<usize> {
    let mut model = load_quantized(fx.model, &fx.checkpoint);
    let mut correct = Vec::with_capacity(spec.requests);
    for ids in inputs.batches(spec, fx.pool.len()) {
        let batch = fx.pool.subset(&ids);
        let predictions = argmax_rows(&model.forward_with_values(image, batch.images()));
        correct.extend(
            predictions
                .iter()
                .zip(batch.labels())
                .map(|(p, l)| usize::from(p == l)),
        );
    }
    correct.chunks(WINDOW).map(|w| w.iter().sum()).collect()
}

/// The clean weight image of the fixture, one `Vec` per layer.
pub fn clean_image(fx: &Fixture) -> Vec<Vec<i8>> {
    (0..fx.clean.num_layers())
        .map(|l| fx.clean.layer_values(l).to_vec())
        .collect()
}

/// Checks one session against the gate; returns one line per failed check.
pub fn check(
    fx: &Fixture,
    spec: &Spec,
    outcome: &ServeOutcome,
    checksum: u64,
    expected: &Expected,
) -> Vec<String> {
    let mut failures = Vec::new();
    if checksum != fx.checksum {
        failures.push(format!(
            "loaded weights checksum {checksum:016x} != fixture {:016x}",
            fx.checksum
        ));
    }
    if outcome.requests != spec.requests {
        failures.push(format!(
            "{} of {} requests completed",
            outcome.requests, spec.requests
        ));
    }
    match expected {
        Expected::Windows(reference) => {
            let served: Vec<usize> = outcome.windows.iter().map(|w| w.correct).collect();
            if &served != reference {
                failures.push(format!(
                    "served correct-counts per window {served:?} != reference {reference:?}"
                ));
            }
        }
        Expected::Journal(first) => {
            let now = outcome.obs.journal.logical_jsonl();
            if &now != first {
                let differing = now
                    .lines()
                    .zip(first.lines())
                    .filter(|(a, b)| a != b)
                    .count()
                    + now.lines().count().abs_diff(first.lines().count());
                failures.push(format!(
                    "logical journal differs from the first session of this seed in {differing} lines"
                ));
            }
        }
    }
    for at in spec.strike_batches() {
        if !outcome.detections.iter().any(|d| d.batch == at) {
            failures.push(format!(
                "strike at batch {at} has no detection at its own batch"
            ));
        }
    }
    let fired = outcome.attack.as_ref().map_or(0, |a| a.strikes);
    if fired != spec.strike_batches().len() {
        failures.push(format!(
            "{fired} strikes fired, {} scripted",
            spec.strike_batches().len()
        ));
    }
    let never = outcome
        .obs
        .registry
        .counter_sum(metric::STRIKES_NEVER_FIRED);
    if never != 0 {
        failures.push(format!("serve.strikes_never_fired = {never}"));
    }
    failures
}

/// 1 + the most batches between a strike and its first detection (1: caught at the
/// strike's own batch; also the floor reported for clean traffic).
pub(crate) fn detect_lag(spec: &Spec, outcome: &ServeOutcome) -> f64 {
    let lag = spec
        .strike_batches()
        .iter()
        .map(|&at| {
            outcome
                .detections
                .iter()
                .filter(|d| d.batch >= at)
                .map(|d| d.batch - at)
                .min()
                .unwrap_or(outcome.batches - at)
        })
        .max()
        .unwrap_or(0);
    1.0 + lag as f64
}

/// What the run expects every session to reproduce.
pub(crate) fn expectation(
    fx: &Fixture,
    spec: &Spec,
    inputs: &Inputs,
    first: &ServeOutcome,
) -> Expected {
    if spec.strike_every == 0 {
        Expected::Windows(reference_windows(fx, spec, inputs, &clean_image(fx)))
    } else {
        Expected::Journal(first.obs.journal.logical_jsonl())
    }
}

/// The end-to-end run: one untimed warm-up session, then timed sessions (set-up
/// included) until `seconds` have passed and at least [`MIN_REPEATS`] ran, every
/// one checked by the gate. Tracing is off.
pub fn run(fx: &mut Fixture, spec: &Spec, seed: u64, seconds: f64) -> RunReport {
    let inputs = Inputs::generate(fx, spec, seed);
    let config = spec.config(ObsLevel::Off);
    let mut report = RunReport::default();

    // Warm-up: absorbs first-pass effects (page faults, allocator growth, cold
    // caches); its journal is the reference the attacked sessions must replay.
    let (warm, warm_setup, warm_sum) = session(fx, spec, &inputs, &config);
    let expected = expectation(fx, spec, &inputs, &warm);
    for f in check(fx, spec, &warm, warm_sum, &expected) {
        report.fail(format!("warm-up: {f}"));
    }

    let mut setups = vec![warm_setup.total()];
    let mut rps = Vec::new();
    let mut latency = LatencyHistogram::new();
    let (mut served_correct, mut served_total) = (0usize, 0usize);
    let mut lag: f64 = 1.0;
    let started = Stopwatch::start();
    while rps.len() < MIN_REPEATS || started.elapsed_secs() < seconds {
        let (outcome, times, sum) = session(fx, spec, &inputs, &config);
        let failures = check(fx, spec, &outcome, sum, &expected);
        report.attempted += spec.requests as u64;
        if failures.is_empty() {
            report.failed += spec.requests.saturating_sub(outcome.requests) as u64;
        } else {
            report.failed += spec.requests as u64;
        }
        for f in failures {
            report.fail(format!("session {}: {f}", rps.len()));
        }
        setups.push(times.total());
        rps.push(outcome.throughput_rps);
        latency.merge(&outcome.latency);
        served_correct += outcome.windows.iter().map(|w| w.correct).sum::<usize>();
        served_total += outcome.windows.iter().map(|w| w.total).sum::<usize>();
        lag = lag.max(detect_lag(spec, &outcome));
    }

    let ms = |q: f64| latency.quantile_ns(q) / 1e6;
    report.metric("throughput_rps", median(&rps), "1/s");
    report.metric("latency_p50_ms", ms(0.5), "ms");
    report.metric("latency_p99_ms", ms(0.99), "ms");
    report.metric(
        "served_acc_pct",
        100.0 * served_correct as f64 / served_total.max(1) as f64,
        "%",
    );
    report.metric("detect_lag_max", lag, "batches");
    report.metric(
        "served_ok_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "fraction",
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.notes.push(format!(
        "{}: {} timed sessions x {} requests ({} batches of <= {}), {} workers, {} latency samples \
         (enqueue to completion under a saturating driver); {} set-ups",
        spec.name,
        rps.len(),
        spec.requests,
        spec.batches(),
        spec.max_batch,
        WORKERS,
        latency.count(),
        setups.len()
    ));
    report.notes.push(format!(
        "session throughput (1/s): {}",
        rps.iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report
}
