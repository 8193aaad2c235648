//! The traced run: per-layer metrics.
//!
//! The workload's batches are replayed single-threaded, in engine order (strikes,
//! scrub step, rotation tick, fused fetch-and-verify with in-path recovery,
//! forward), through each layer's public calls. The benchmark puts its own span
//! around every call; spans of one batch share the batch index. The `tensor`
//! kernels are replayed at each weight layer's GEMM shape, a copy-only DRAM read
//! gives the fused build's floor, and `serve()` itself runs at `ObsLevel::Off`, at
//! `ObsLevel::Full` and as an unprotected twin for the serve-level ratios.

use std::collections::BTreeSet;
use std::path::Path;

use radar_core::{DetectionReport, RadarProtection, VERIFY_SWEEPS};
use radar_memsim::WeightDram;
use radar_nn::argmax_rows;
use radar_obs::{
    chrome_trace, set_global_level, validate_chrome_trace, EventJournal, MetricsRegistry, ObsLevel,
    ObsReport, Span, Stopwatch, Tid,
};
use radar_quant::QuantizedModel;
use radar_serve::{metric, recover_in_dram, ServeOutcome};
use radar_tensor::{
    gemm_i8_requant, gemm_threads, im2col_i8, linear_i8_requant, quantize_activations,
    Conv2dGeometry, GEMM_CALLS, GEMM_PANELS,
};

use crate::fixtures::{Fixture, ModelId};
use crate::report::{median, RunReport};
use crate::workload::{
    check, expectation, session, setup, Expected, Inputs, SetupTimes, Spec, WINDOW, WORKERS,
};

/// Rounds of the `[Off, Full, unprotected]` session triple.
const ROUNDS: usize = 3;

/// Side of the square shape the host GEMM peak is measured on (cache-resident:
/// two 64 KiB operands).
const PEAK_DIM: usize = 256;

/// In-memory spans of the replay, written out as a Chrome trace when it ends.
struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    fn start(&self) -> u64 {
        self.origin.elapsed_ns()
    }

    fn end(&mut self, start_ns: u64, name: &'static str, batch: usize) {
        self.spans.push(Span {
            name,
            tid: Tid::Worker(0),
            start_ns,
            dur_ns: self.origin.elapsed_ns().saturating_sub(start_ns),
            batch: batch as u64,
        });
    }

    fn time<T>(&mut self, name: &'static str, batch: usize, f: impl FnOnce() -> T) -> T {
        let start = self.start();
        let out = f();
        self.end(start, name, batch);
        out
    }

    /// Total milliseconds and count of the spans named `name`.
    fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| (ms + s.dur_ns as f64 / 1e6, n + 1))
    }

    fn ms(&self, name: &str) -> f64 {
        self.total(name).0
    }

    /// Mean milliseconds per span named `name` (0 when there is none).
    fn mean_ms(&self, name: &str) -> f64 {
        let (ms, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            ms / n as f64
        }
    }
}

/// One weight layer's GEMM as the quantized forward runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GemmShape {
    /// `quantize_activations` → `im2col_i8` → `gemm_i8_requant` over an
    /// `(n, c, h, w)` input.
    Conv {
        /// Input channels.
        c: usize,
        /// Input side length.
        side: usize,
        /// Output channels (GEMM `m`).
        out: usize,
        /// Kernel side, stride and padding.
        geom: Conv2dGeometry,
    },
    /// `quantize_activations` → `linear_i8_requant` over `(n, k)` rows.
    Linear {
        /// Input features.
        k: usize,
        /// Output features.
        m: usize,
    },
}

impl GemmShape {
    /// `(m, k, n)` of the GEMM at batch size `batch`.
    pub(crate) fn mkn(&self, batch: usize) -> (usize, usize, usize) {
        match *self {
            GemmShape::Conv { c, side, out, geom } => {
                let (ho, wo) = geom.output_size(side, side);
                (out, c * geom.kernel_h * geom.kernel_w, batch * ho * wo)
            }
            GemmShape::Linear { k, m } => (m, k, batch),
        }
    }

    /// Elements of the float activation input at batch size `batch`.
    fn input_len(&self, batch: usize) -> usize {
        match *self {
            GemmShape::Conv { c, side, .. } => batch * c * side * side,
            GemmShape::Linear { k, .. } => batch * k,
        }
    }

    /// Bytes the GEMM moves, computed from its shape: both `i8` operands plus the
    /// `f32` output.
    pub(crate) fn bytes(&self, batch: usize) -> usize {
        let (m, k, n) = self.mkn(batch);
        m * k + k * n + 4 * m * n
    }
}

/// The GEMM shape of every weight layer, in visit order, derived from the
/// architecture: stem (3×3/1, or 7×7/2 plus a 2×2 max-pool), 3×3 convolutions that
/// stride 2 where the channel count changes, 1×1/2 projection shortcuts reading
/// the block input, and the final linear layer.
pub(crate) fn gemm_shapes(model: &QuantizedModel, id: ModelId, image: usize) -> Vec<GemmShape> {
    let mut side = image;
    let mut block_in = image;
    let mut shapes = Vec::with_capacity(model.num_layers());
    for (i, layer) in model.layers().iter().enumerate() {
        let dims = layer.weights().dims();
        if dims.len() == 2 {
            shapes.push(GemmShape::Linear {
                k: dims[1],
                m: dims[0],
            });
            continue;
        }
        let (out, c, kernel) = (dims[0], dims[1], dims[2]);
        let (geom, input) = if i == 0 && id.pooled_stem() {
            (Conv2dGeometry::new(7, 7, 2, 3), side)
        } else if i == 0 {
            (Conv2dGeometry::new(3, 3, 1, 1), side)
        } else if kernel == 1 {
            (Conv2dGeometry::new(1, 1, 2, 0), block_in)
        } else if c != out {
            block_in = side;
            (Conv2dGeometry::new(3, 3, 2, 1), side)
        } else {
            (Conv2dGeometry::new(3, 3, 1, 1), side)
        };
        shapes.push(GemmShape::Conv {
            c,
            side: input,
            out,
            geom,
        });
        if kernel != 1 {
            side = geom.output_size(input, input).0;
            if i == 0 && id.pooled_stem() {
                side /= 2;
            }
        }
    }
    shapes
}

/// Deterministic ReLU-like activations (about a third exact zeros).
fn activations(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = ((i as u64).wrapping_mul(2_654_435_761) % 1000) as f32 / 1000.0 - 0.33;
            v.max(0.0)
        })
        .collect()
}

/// Replays the tensor kernels of one forward at batch size `batch`.
fn replay_tensor(
    tr: &mut Tracer,
    b: usize,
    batch: usize,
    shapes: &[GemmShape],
    image: &[Vec<i8>],
    inputs: &[Vec<f32>],
) {
    let threads = gemm_threads();
    for ((shape, w), x) in shapes.iter().zip(image).zip(inputs) {
        let x = &x[..shape.input_len(batch)];
        let (xq, scale) = tr.time("tensor.quantize", b, || quantize_activations(x));
        let (m, k, n) = shape.mkn(batch);
        let bias = vec![0.0f32; m];
        let out = match *shape {
            GemmShape::Conv { c, side, geom, .. } => {
                let cols = tr.time("tensor.im2col", b, || {
                    im2col_i8(&xq, batch, c, side, side, &geom)
                });
                tr.time("tensor.gemm", b, || {
                    gemm_i8_requant(w, &cols, m, k, n, &[scale], Some(&bias), threads)
                })
            }
            GemmShape::Linear { .. } => tr.time("tensor.gemm", b, || {
                linear_i8_requant(&xq, w, batch, k, m, &[scale], Some(&bias), threads)
            }),
        };
        std::hint::black_box(out);
    }
}

/// `gemm_i8_requant` at 1 thread on a cache-resident `PEAK_DIM`³ shape: the best
/// of 15 timed calls after 2 warm-ups, in GMAC/s.
pub(crate) fn peak_gmacs() -> f64 {
    let d = PEAK_DIM;
    let w: Vec<i8> = (0..d * d).map(|i| (i % 251) as i8).collect();
    let x: Vec<i8> = (0..d * d).map(|i| (i % 241) as i8 - 120).collect();
    let call = || std::hint::black_box(gemm_i8_requant(&w, &x, d, d, d, &[1.0], None, 1));
    call();
    call();
    let best = (0..15)
        .map(|_| {
            let started = Stopwatch::start();
            call();
            started.elapsed_secs()
        })
        .fold(f64::INFINITY, f64::min);
    (d * d * d) as f64 / best / 1e9
}

/// What the engine-order replay observed.
#[derive(Default)]
struct Observed {
    batches: usize,
    strikes: usize,
    flips_landed: usize,
    flips_attempted: usize,
    groups_zeroed: usize,
    flagged_groups: usize,
    flagged_with_flip: usize,
    flips_covered: usize,
    rotation_ticks: usize,
    sweeps: u64,
    gemm_calls: u64,
    gemm_panels: u64,
    forward_calls: u64,
    forward_panels: u64,
    correct: Vec<usize>,
}

/// Credits the flags of one strike batch against the flips it landed.
fn score_flags(
    prot: &RadarProtection,
    flags: &DetectionReport,
    landed: &[(usize, usize)],
    seen: &mut Observed,
) {
    let groups: BTreeSet<(usize, usize)> =
        flags.flagged.iter().map(|f| (f.layer, f.group)).collect();
    let hit: BTreeSet<(usize, usize)> = landed
        .iter()
        .map(|&(layer, weight)| (layer, prot.group_of(layer, weight)))
        .collect();
    seen.flagged_groups += groups.len();
    seen.flagged_with_flip += groups.intersection(&hit).count();
    seen.flips_covered += prot.count_covered(flags, landed);
}

/// Replays `inputs` in engine order through the public layer calls.
#[allow(clippy::too_many_lines)] // one pass in engine order reads best unbroken
fn replay(
    tr: &mut Tracer,
    fx: &Fixture,
    spec: &Spec,
    inputs: &Inputs,
    mut model: QuantizedModel,
    mut prot: RadarProtection,
    mut dram: WeightDram,
) -> Observed {
    let layers = dram.num_layers();
    let shapes = gemm_shapes(&model, fx.model, fx.image_size);
    let acts: Vec<Vec<f32>> = shapes
        .iter()
        .map(|s| activations(s.input_len(spec.max_batch)))
        .collect();
    let scrub_step = radar_serve::ServeConfig::default().scrub_layers.min(layers);
    let mut snap: Vec<Vec<i8>> = vec![Vec::new(); layers];
    let mut copy: Vec<Vec<i8>> = vec![Vec::new(); layers];
    let (mut buf, mut acc) = (Vec::new(), Vec::new());
    let mut cursor = 0usize;
    let mut strikes = inputs.strikes.iter().peekable();
    let mut seen = Observed::default();

    for (b, ids) in inputs.batches(spec, fx.pool.len()).iter().enumerate() {
        seen.batches += 1;
        // Strikes due before this batch is dispatched.
        let mut landed: Vec<(usize, usize)> = Vec::new();
        while let Some(event) = strikes.next_if(|e| e.at_batch <= b) {
            let report = tr.time("memsim.strike", b, || event.mount(&mut dram));
            seen.strikes += 1;
            seen.flips_landed += report.flips_landed;
            seen.flips_attempted += report.flips_attempted();
            landed.extend(event.profile.flips.iter().map(|f| (f.layer, f.weight)));
        }
        let mut flags = DetectionReport::default();

        // Scrub step: verify a rotating slice of the image straight from DRAM.
        if spec.scrub_every > 0 && b > 0 && b % spec.scrub_every == 0 {
            let found = tr.time("radar.scrub", b, || {
                let mut found = DetectionReport::default();
                for i in 0..scrub_step {
                    let layer = (cursor + i) % layers;
                    dram.read_layer_into(layer, &mut buf);
                    found.merge(&prot.verify_layer_values_with_scratch(layer, &buf, &mut acc));
                }
                found
            });
            cursor = (cursor + scrub_step) % layers;
            if found.attack_detected() {
                let rec = tr.time("serve.recover", b, || {
                    recover_in_dram(&mut prot, &mut dram, &found)
                });
                seen.groups_zeroed += rec.groups_zeroed;
                flags.merge(&found);
            }
        }

        // Rotation tick: begin → re-sign each layer (after a verify + recover) →
        // publish → retire, one action per tick.
        if spec.rotate_every > 0 && b > 0 && b % spec.rotate_every == 0 {
            seen.rotation_ticks += 1;
            let start = tr.start();
            if let Some(layer) = prot.next_unsigned_layer() {
                dram.read_layer_into(layer, &mut buf);
                let found = prot.verify_layer_values_with_scratch(layer, &buf, &mut acc);
                if found.attack_detected() {
                    let rec = tr.time("serve.recover", b, || {
                        recover_in_dram(&mut prot, &mut dram, &found)
                    });
                    seen.groups_zeroed += rec.groups_zeroed;
                    flags.merge(&found);
                    dram.read_layer_into(layer, &mut buf);
                }
                tr.time("radar.resign", b, || prot.resign_layer(layer, &buf));
            } else if prot.rotation_in_progress() {
                prot.publish_epoch();
            } else if prot.retire_previous().is_none() {
                prot.begin_rotation();
            }
            tr.end(start, "radar.rotation", b);
        }

        // The ticket holder's fused fetch-and-verify build, then in-path recovery
        // and a refresh of the recovered layers before anyone consumes them.
        let epoch = prot.current_epoch();
        VERIFY_SWEEPS.reset();
        let found = tr.time("radar.verify", b, || {
            let mut found = DetectionReport::default();
            for (layer, dst) in snap.iter_mut().enumerate() {
                found.merge(&prot.fetch_verify_layer_at_epoch_with_scratch(
                    epoch,
                    layer,
                    dram.layer_bytes(layer),
                    dst,
                    &mut acc,
                ));
            }
            found
        });
        seen.sweeps += VERIFY_SWEEPS.reset();
        if found.attack_detected() {
            let rec = tr.time("serve.recover", b, || {
                recover_in_dram(&mut prot, &mut dram, &found)
            });
            seen.groups_zeroed += rec.groups_zeroed;
            let mut last = None;
            for f in &found.flagged {
                if last != Some(f.layer) {
                    dram.read_layer_into(f.layer, &mut snap[f.layer]);
                    last = Some(f.layer);
                }
            }
            flags.merge(&found);
        }
        if !landed.is_empty() {
            score_flags(&prot, &flags, &landed, &mut seen);
        }

        // The copy-only floor of the fused build.
        tr.time("memsim.copy", b, || {
            for (layer, dst) in copy.iter_mut().enumerate() {
                dram.read_layer_into(layer, dst);
            }
        });

        // The forward the worker runs, then the tensor kernels at its shapes.
        let batch = fx.pool.subset(ids);
        GEMM_CALLS.reset();
        GEMM_PANELS.reset();
        let logits = tr.time("quant.forward", b, || {
            model.forward_with_values(&snap, batch.images())
        });
        seen.forward_calls += GEMM_CALLS.reset();
        seen.forward_panels += GEMM_PANELS.reset();
        seen.correct.extend(
            argmax_rows(&logits)
                .iter()
                .zip(batch.labels())
                .map(|(p, l)| usize::from(p == l)),
        );
        replay_tensor(tr, b, ids.len(), &shapes, &snap, &acts);
        seen.gemm_calls += GEMM_CALLS.reset();
        seen.gemm_panels += GEMM_PANELS.reset();
    }
    seen
}

/// The `[Off, Full, unprotected]` sessions of the traced run.
#[derive(Default)]
struct Sessions {
    off: Vec<ServeOutcome>,
    full_rps: Vec<f64>,
    unprotected_rps: Vec<f64>,
    setups: Vec<SetupTimes>,
}

/// Runs the traced measurement of `spec` and returns every per-layer metric.
/// The replay's spans are written to `out/trace-<workload>-seed<seed>.json`.
#[allow(clippy::too_many_lines)] // the metric table reads best in one place
pub fn run(fx: &mut Fixture, spec: &Spec, seed: u64, out: &Path) -> RunReport {
    let inputs = Inputs::generate(fx, spec, seed);
    let mut report = RunReport::default();
    let off = spec.config(ObsLevel::Off);
    let full = spec.config(ObsLevel::Full);
    let mut twin = off.unprotected();
    twin.rotate_every = 0;

    // Warm-up session, also the source of the expected logical outcome.
    let (warm, warm_setup, warm_sum) = session(fx, spec, &inputs, &off);
    let expected = expectation(fx, spec, &inputs, &warm);
    let mut s = Sessions {
        setups: vec![warm_setup],
        ..Sessions::default()
    };
    let gate = |what: &str, outcome: &ServeOutcome, sum: u64, report: &mut RunReport| {
        let failures = check(fx, spec, outcome, sum, &expected);
        report.attempted += spec.requests as u64;
        if !failures.is_empty() {
            report.failed += spec.requests as u64;
        }
        for f in failures {
            report.fail(format!("{what}: {f}"));
        }
    };
    gate("warm-up", &warm, warm_sum, &mut report);
    for _ in 0..ROUNDS {
        let (o, t, sum) = session(fx, spec, &inputs, &off);
        gate("off", &o, sum, &mut report);
        s.setups.push(t);
        s.off.push(o);
        let (o, t, sum) = session(fx, spec, &inputs, &full);
        gate("full", &o, sum, &mut report);
        s.setups.push(t);
        s.full_rps.push(o.throughput_rps);
        let (o, _, _) = session(fx, spec, &inputs, &twin);
        report.attempted += spec.requests as u64;
        if o.requests != spec.requests {
            report.failed += spec.requests as u64;
            report.fail(format!(
                "unprotected twin completed {} requests",
                o.requests
            ));
        }
        s.unprotected_rps.push(o.throughput_rps);
    }

    // The engine-order replay, traced, with the kernel counters armed.
    set_global_level(ObsLevel::Counters);
    let mut tr = Tracer::new();
    let (served, times) = tr.time("setup", 0, || setup(fx, spec, true));
    s.setups.push(times);
    let mut models = served.models;
    let prot = served.protection.expect("the replay set-up is protected");
    let seen = replay(
        &mut tr,
        fx,
        spec,
        &inputs,
        models.swap_remove(0),
        prot,
        served.dram,
    );
    set_global_level(ObsLevel::Off);
    report.attempted += spec.requests as u64;
    check_replay(spec, &expected, &s.off[0], &seen, &mut report);

    let peak = peak_gmacs();
    let bs = seen.batches as f64;
    let weight_bytes: usize = (0..fx.clean.num_layers())
        .map(|l| fx.clean.layer(l).len())
        .sum();
    let shapes = gemm_shapes(&fx.clean, fx.model, fx.image_size);
    let batch_sizes: Vec<usize> = inputs
        .batches(spec, fx.pool.len())
        .iter()
        .map(Vec::len)
        .collect();
    let macs: f64 = batch_sizes
        .iter()
        .flat_map(|&n| shapes.iter().map(move |s| s.mkn(n)))
        .map(|(m, k, n)| (m * k * n) as f64)
        .sum();
    let bytes: f64 = batch_sizes
        .iter()
        .flat_map(|&n| shapes.iter().map(move |s| s.bytes(n) as f64))
        .sum();

    let per = |name: &str| tr.ms(name) / bs;
    let per_strike = |total: f64| {
        if seen.strikes == 0 {
            0.0
        } else {
            total / seen.strikes as f64
        }
    };
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let serial_ms = tr.ms("radar.verify")
        + tr.ms("radar.scrub")
        + tr.ms("radar.rotation")
        + tr.ms("memsim.strike")
        + tr.ms("serve.recover")
        - recover_inside_rotation(&tr);
    let busy_ms = serial_ms + tr.ms("quant.forward");
    let off_rps = median(&s.off.iter().map(|o| o.throughput_rps).collect::<Vec<_>>());
    let off_wall = median(&s.off.iter().map(|o| o.wall_seconds).collect::<Vec<_>>());
    let verify_duty = median(&s.off.iter().map(|o| o.verify_duty).collect::<Vec<_>>());
    let reclaim = median(
        &s.off
            .iter()
            .map(|o| {
                let r = &o.obs.registry;
                r.counter_sum(metric::SNAPSHOT_RECLAIMS) as f64
                    / r.counter_sum(metric::SNAPSHOT_PUBLISHES).max(1) as f64
            })
            .collect::<Vec<_>>(),
    );
    let protection_cost = 1.0 - off_rps / median(&s.unprotected_rps);
    let gemm_ms = per("tensor.gemm");
    let tensor_ms = gemm_ms + per("tensor.im2col") + per("tensor.quantize");
    let gemm_gmacs = macs / (tr.ms("tensor.gemm") / 1e3) / 1e9;
    let verify_s = tr.ms("radar.verify") / 1e3;
    let rolls_ticks = (fx.clean.num_layers() + 3) as f64;
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&s.setups.iter().map(f).collect::<Vec<_>>());

    report.metric(
        "serve.idle_share",
        1.0 - busy_ms / 1e3 / (off_wall * WORKERS as f64),
        "fraction",
    );
    report.metric("serve.serial_ms_per_batch", serial_ms / bs, "ms");
    report.metric(
        "serve.recover_ms_per_strike",
        per_strike(tr.ms("serve.recover")),
        "ms",
    );
    report.metric(
        "serve.groups_zeroed_per_strike",
        per_strike(seen.groups_zeroed as f64),
        "count",
    );
    report.metric("serve.snapshot_reclaim_ratio", reclaim, "fraction");
    report.metric("serve.verify_duty", verify_duty, "fraction");
    report.metric("serve.protection_cost", protection_cost, "fraction");
    report.metric("radar.verify_ms_per_batch", per("radar.verify"), "ms");
    report.metric(
        "radar.verify_gbps",
        (weight_bytes as f64 * bs) / verify_s / 1e9,
        "GB/s",
    );
    report.metric(
        "radar.verify_sweeps_per_batch",
        seen.sweeps as f64 / bs,
        "count",
    );
    report.metric("radar.scrub_ms_per_step", tr.mean_ms("radar.scrub"), "ms");
    report.metric(
        "radar.resign_ms_per_layer",
        tr.mean_ms("radar.resign"),
        "ms",
    );
    report.metric(
        "radar.rotation_ms_per_roll",
        tr.mean_ms("radar.rotation")
            * if seen.rotation_ticks > 0 {
                rolls_ticks
            } else {
                0.0
            },
        "ms",
    );
    report.metric("radar.sign_s", setup_median(|t| t.sign_s), "s");
    report.metric(
        "radar.flag_precision",
        ratio(seen.flagged_with_flip, seen.flagged_groups),
        "fraction",
    );
    report.metric(
        "radar.flip_recall",
        ratio(seen.flips_covered, seen.flips_landed),
        "fraction",
    );
    report.metric("memsim.copy_ms_per_batch", per("memsim.copy"), "ms");
    report.metric("memsim.strike_ms", tr.mean_ms("memsim.strike"), "ms");
    report.metric(
        "memsim.flips_landed_ratio",
        ratio(seen.flips_landed, seen.flips_attempted),
        "fraction",
    );
    report.metric("memsim.load_s", setup_median(|t| t.load_s), "s");
    report.metric("quant.forward_ms_per_batch", per("quant.forward"), "ms");
    report.metric(
        "quant.replica_build_s",
        setup_median(|t| t.replicas_s) / (WORKERS + 1) as f64,
        "s",
    );
    report.metric(
        "nn.non_gemm_ms_per_batch",
        per("quant.forward") - tensor_ms,
        "ms",
    );
    report.metric("tensor.gemm_ms_per_batch", gemm_ms, "ms");
    report.metric("tensor.im2col_ms_per_batch", per("tensor.im2col"), "ms");
    report.metric("tensor.quantize_ms_per_batch", per("tensor.quantize"), "ms");
    report.metric("tensor.macs_per_batch", macs / bs, "count");
    report.metric("tensor.bytes_per_batch", bytes / bs, "bytes");
    report.metric("tensor.gemm_gmacs", gemm_gmacs, "GMAC/s");
    report.metric(
        "tensor.gemm_calls_per_batch",
        seen.gemm_calls as f64 / bs,
        "count",
    );
    report.metric(
        "tensor.gemm_panels_per_batch",
        seen.gemm_panels as f64 / bs,
        "count",
    );
    report.metric("tensor.peak_gmacs", peak, "GMAC/s");
    report.metric("tensor.roofline_share", gemm_gmacs / peak, "fraction");
    report.metric(
        "obs.trace_overhead",
        1.0 - median(&s.full_rps) / off_rps,
        "fraction",
    );

    report.notes.push(format!(
        "{}: traced replay of {} batches ({} strikes, {} rotation ticks); {ROUNDS} rounds of \
         [Off, Full, unprotected] sessions; host GEMM peak on a {PEAK_DIM}^3 shape at 1 thread",
        spec.name, seen.batches, seen.strikes, seen.rotation_ticks
    ));
    report.notes.push(format!(
        "protection cost {:.2}% of throughput vs verify duty {:.2}% (the paper claims < 1% \
         run-time overhead)",
        100.0 * protection_cost,
        100.0 * verify_duty
    ));
    write_trace(&tr, spec, seed, out, &mut report);
    report
}

/// Milliseconds of recovery that ran inside a rotation tick (already counted in
/// the tick's own span).
fn recover_inside_rotation(tr: &Tracer) -> f64 {
    let ticks: Vec<&Span> = tr
        .spans
        .iter()
        .filter(|s| s.name == "radar.rotation")
        .collect();
    tr.spans
        .iter()
        .filter(|s| s.name == "serve.recover")
        .filter(|s| {
            ticks.iter().any(|t| {
                t.batch == s.batch
                    && s.start_ns >= t.start_ns
                    && s.start_ns + s.dur_ns <= t.start_ns + t.dur_ns
            })
        })
        .map(|s| s.dur_ns as f64 / 1e6)
        .sum()
}

/// The replay must serve what the engine served, and its kernel replay must match
/// the forward's own GEMM calls and panels.
fn check_replay(
    spec: &Spec,
    expected: &Expected,
    engine: &ServeOutcome,
    seen: &Observed,
    report: &mut RunReport,
) {
    let windows: Vec<usize> = seen
        .correct
        .chunks(WINDOW)
        .map(|w| w.iter().sum())
        .collect();
    let reference = match expected {
        Expected::Windows(w) => w.clone(),
        Expected::Journal(_) => engine.windows.iter().map(|w| w.correct).collect(),
    };
    if windows != reference {
        report.fail(format!(
            "replayed correct-counts per window {windows:?} != served {reference:?}"
        ));
    }
    if seen.gemm_calls != seen.forward_calls || seen.gemm_panels != seen.forward_panels {
        report.fail(format!(
            "tensor replay ran {} GEMM calls / {} panels, the forward {} / {}",
            seen.gemm_calls, seen.gemm_panels, seen.forward_calls, seen.forward_panels
        ));
    }
    if seen.batches != spec.batches() {
        report.fail(format!(
            "replayed {} of {} batches",
            seen.batches,
            spec.batches()
        ));
    }
}

/// Writes the replay's spans as a Chrome trace and validates it.
fn write_trace(tr: &Tracer, spec: &Spec, seed: u64, out: &Path, report: &mut RunReport) {
    let obs = ObsReport {
        level: ObsLevel::Full,
        wall_seconds: tr.origin.elapsed_secs(),
        registry: MetricsRegistry::new(),
        journal: EventJournal::from_events(Vec::new(), 0),
        spans: tr.spans.clone(),
    };
    let text = chrome_trace(&obs, &format!("servebench {}", spec.name));
    match validate_chrome_trace(&text) {
        Ok(summary) => report
            .notes
            .push(format!("{} replay spans", summary.total_spans)),
        Err(e) => report.fail(format!("replay trace does not validate: {e}")),
    }
    let path = out.join(format!("trace-{}-seed{seed}.json", spec.name));
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, text)) {
        report.fail(format!("cannot write {}: {e}", path.display()));
    }
}
