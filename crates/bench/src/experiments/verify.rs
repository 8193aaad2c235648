//! Verification-throughput experiment: legacy per-group gather detection versus the
//! precomputed streaming [`VerifyPlan`](radar_core::VerifyPlan) sweep — sequential,
//! sharded-parallel (1/2/4 threads), and the fused fetch-and-verify kernel against
//! its two-pass copy-then-verify baseline — measured on the ResNet-18-like model.
//! The measured speedup is the in-repo evidence for the paper's fetch-path framing
//! (Table IV): verification must keep up with the weight-fetch stream, so detect
//! throughput — not just detection accuracy — is a tracked number.
//!
//! Besides the human-readable report, the experiment writes
//! `artifacts/results/BENCH_verify.json` (now including `parallel` points per thread
//! count plus the host's `hardware_threads`, so a 4-thread number measured on a
//! smaller machine is interpretable) so CI can archive the throughput trajectory
//! across commits.

use radar_core::{
    gather_signatures, DetectionReport, FlaggedGroup, RadarConfig, RadarProtection, VERIFY_SWEEPS,
};
use radar_memsim::{DramGeometry, WeightDram};
use radar_nn::{resnet18, ResNetConfig};
use radar_obs::{set_global_level, ObsLevel, Stopwatch};
use radar_quant::QuantizedModel;

use crate::harness::{artifacts_dir, Budget};
use crate::report::Report;

/// Group sizes measured (the paper's ResNet-18 Table IV point plus one smaller size).
const GROUP_SIZES: [usize; 2] = [128, 512];

/// Thread counts measured for the sharded parallel detect path (1 pins the sharded
/// code at its sequential degenerate point).
const PARALLEL_THREADS: [usize; 3] = [1, 2, 4];

/// The pre-plan detection path, the measurement baseline: per layer, re-derive the
/// member lists from the layout and gather the weights through the shared
/// [`gather_signatures`] reference before comparing with the golden store.
fn legacy_detect(radar: &RadarProtection, model: &QuantizedModel) -> DetectionReport {
    let bits = radar.config().signature_bits;
    let mut report = DetectionReport::default();
    for (layer_idx, protection) in radar.layers().iter().enumerate() {
        let values = model.layer_values(layer_idx);
        let layout = protection.layout();
        let sigs = gather_signatures(values, &layout, &protection.key(), bits);
        for (group, &sig) in sigs.iter().enumerate() {
            if sig != radar.golden().signature(layer_idx, group) {
                report.flagged.push(FlaggedGroup {
                    layer: layer_idx,
                    group,
                });
            }
        }
    }
    report
}

/// The two-pass weight-fetch baseline: copy every layer out of DRAM, then run the
/// streaming verify over the copy — what a batch paid before the serve engine
/// fused the copy into the verify sweep.
fn split_fetch_verify(
    radar: &RadarProtection,
    dram: &WeightDram,
    layers: &mut [Vec<i8>],
    acc: &mut Vec<i32>,
) -> DetectionReport {
    let epoch = radar.current_epoch();
    let mut report = DetectionReport::default();
    for (layer, buf) in layers.iter_mut().enumerate() {
        dram.read_layer_into(layer, buf);
        report.merge(&radar.verify_layer_values_at_epoch_with_scratch(epoch, layer, buf, acc));
    }
    report
}

/// The fused fetch-and-verify sweep: one pass per layer copies the DRAM bytes out
/// while scatter-adding the ±1 mask into the signature accumulators — what the
/// shared-snapshot build pays per batch.
fn fused_fetch_verify(
    radar: &RadarProtection,
    dram: &WeightDram,
    layers: &mut [Vec<i8>],
    acc: &mut Vec<i32>,
) -> DetectionReport {
    let epoch = radar.current_epoch();
    let mut report = DetectionReport::default();
    for (layer, buf) in layers.iter_mut().enumerate() {
        report.merge(&radar.fetch_verify_layer_at_epoch_with_scratch(
            epoch,
            layer,
            dram.layer_bytes(layer),
            buf,
            acc,
        ));
    }
    report
}

/// Median wall-clock seconds of `iters` runs of `f`.
fn median_seconds(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let start = Stopwatch::start();
            f();
            start.elapsed_secs()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One measured `(group size, legacy, streaming, parallel…)` point.
struct Measurement {
    group_size: usize,
    legacy_seconds: f64,
    plan_seconds: f64,
    /// `(threads, seconds)` per measured parallel thread count.
    parallel_seconds: Vec<(usize, f64)>,
    /// Full-model copy-then-verify from DRAM (the split-fetch baseline).
    split_fetch_seconds: f64,
    /// Full-model fused copy-and-verify from DRAM (the snapshot build kernel).
    fused_fetch_seconds: f64,
    /// [`VERIFY_SWEEPS`] per sequential detect pass (one per layer — pinned by
    /// the counter so a plan-bypassing regression shows up in the artifact).
    plan_sweeps: u64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.legacy_seconds / self.plan_seconds
    }

    /// Speedup of the fused fetch-and-verify over the two-pass fetch baseline.
    fn fused_speedup(&self) -> f64 {
        self.split_fetch_seconds / self.fused_fetch_seconds
    }

    /// Speedup of the parallel sweep at `threads` over the sequential plan sweep.
    fn parallel_speedup(&self, threads: usize) -> Option<f64> {
        self.parallel_seconds
            .iter()
            .find(|&&(t, _)| t == threads)
            .map(|&(_, s)| self.plan_seconds / s)
    }
}

/// Runs the verification-throughput comparison and writes the JSON artifact.
///
/// The model is the ResNet-18-like architecture at base width 32 (~2.8 M weights —
/// a quarter of real ResNet-18's 11 M, against the width-8 ~177 k-weight variant the
/// accuracy experiments train), so one detect pass carries enough work for the
/// sharded parallel path to amortize its per-pass thread spawns; weights are
/// untrained because detect throughput is independent of weight values.
pub fn bench_verify(budget: &Budget) -> Report {
    // Arm the kernel-side global counters so sweep counts can be attributed per
    // detect pass (single-session binary; the process-wide gate is unambiguous).
    set_global_level(ObsLevel::Counters);
    let model = QuantizedModel::new(Box::new(resnet18(&ResNetConfig::new(20, 32, 3, 18))));
    let total_weights = model.total_weights();
    let iters = budget.verify_iters;

    let hardware_threads = crate::harness::default_threads();
    let mut report = Report::new("Verification throughput — legacy gather vs streaming plan");
    report.line(format!(
        "ResNet-18-like model, {total_weights} weights, median of {iters} passes, \
         {hardware_threads} hardware threads"
    ));
    report.row(&[
        "G".into(),
        "legacy (ms)".into(),
        "plan (ms)".into(),
        "1t (ms)".into(),
        "2t (ms)".into(),
        "4t (ms)".into(),
        "split (ms)".into(),
        "fused (ms)".into(),
        "speedup".into(),
        "fused speedup".into(),
    ]);

    let dram = WeightDram::load(&model, DramGeometry::default());
    let mut layers: Vec<Vec<i8>> = vec![Vec::new(); dram.num_layers()];
    let mut acc: Vec<i32> = Vec::new();
    let mut measurements = Vec::new();
    for g in GROUP_SIZES {
        let radar = RadarProtection::new(&model, RadarConfig::paper_default(g));
        // Sanity: all paths agree on the clean model before being timed.
        assert!(!legacy_detect(&radar, &model).attack_detected());
        assert!(!radar.detect(&model).attack_detected());
        for t in PARALLEL_THREADS {
            assert!(!radar.detect_parallel(&model, t).attack_detected());
        }
        assert!(!split_fetch_verify(&radar, &dram, &mut layers, &mut acc).attack_detected());
        assert!(!fused_fetch_verify(&radar, &dram, &mut layers, &mut acc).attack_detected());

        let legacy_seconds = median_seconds(iters, || {
            std::hint::black_box(legacy_detect(&radar, &model));
        });
        let plan_seconds = median_seconds(iters, || {
            std::hint::black_box(radar.detect(&model));
        });
        let parallel_seconds: Vec<(usize, f64)> = PARALLEL_THREADS
            .iter()
            .map(|&t| {
                let s = median_seconds(iters, || {
                    std::hint::black_box(radar.detect_parallel(&model, t));
                });
                (t, s)
            })
            .collect();
        let split_fetch_seconds = median_seconds(iters, || {
            std::hint::black_box(split_fetch_verify(&radar, &dram, &mut layers, &mut acc));
        });
        let fused_fetch_seconds = median_seconds(iters, || {
            std::hint::black_box(fused_fetch_verify(&radar, &dram, &mut layers, &mut acc));
        });

        // One counted (untimed) pass attributes the sweep counter to this point.
        VERIFY_SWEEPS.reset();
        std::hint::black_box(radar.detect(&model));
        let plan_sweeps = VERIFY_SWEEPS.reset();

        let m = Measurement {
            group_size: g,
            legacy_seconds,
            plan_seconds,
            parallel_seconds,
            split_fetch_seconds,
            fused_fetch_seconds,
            plan_sweeps,
        };
        let par_ms = |t: usize| {
            m.parallel_seconds
                .iter()
                .find(|&&(pt, _)| pt == t)
                .map_or("-".to_owned(), |&(_, s)| format!("{:.3}", s * 1e3))
        };
        report.row(&[
            format!("{g}"),
            format!("{:.3}", m.legacy_seconds * 1e3),
            format!("{:.3}", m.plan_seconds * 1e3),
            par_ms(1),
            par_ms(2),
            par_ms(4),
            format!("{:.3}", m.split_fetch_seconds * 1e3),
            format!("{:.3}", m.fused_fetch_seconds * 1e3),
            format!("{:.1}x", m.speedup()),
            format!("{:.2}x", m.fused_speedup()),
        ]);
        measurements.push(m);
    }

    if let Some(m) = measurements.first() {
        report.line(format!(
            "streaming plan: {} layer sweeps per detect pass (VERIFY_SWEEPS)",
            m.plan_sweeps
        ));
    }
    write_json(total_weights, iters, hardware_threads, &measurements);
    report
}

/// Serializes the measurements as `artifacts/results/BENCH_verify.json` (hand-rolled:
/// the workspace carries no JSON dependency).
fn write_json(
    total_weights: usize,
    iters: usize,
    hardware_threads: usize,
    measurements: &[Measurement],
) {
    let points: Vec<String> = measurements
        .iter()
        .map(|m| {
            let parallel: Vec<String> = m
                .parallel_seconds
                .iter()
                .map(|&(t, s)| {
                    format!(
                        "{{\"threads\": {t}, \"seconds\": {s:.9}, \"speedup_vs_plan\": {:.3}}}",
                        m.parallel_speedup(t).unwrap_or(f64::NAN)
                    )
                })
                .collect();
            format!(
                concat!(
                    "    {{\"group_size\": {}, \"legacy_seconds\": {:.9}, ",
                    "\"plan_seconds\": {:.9}, \"speedup\": {:.3}, ",
                    "\"split_fetch_seconds\": {:.9}, \"fused_fetch_seconds\": {:.9}, ",
                    "\"fused_speedup\": {:.3}, ",
                    "\"plan_sweeps_per_pass\": {}, \"parallel\": [{}]}}"
                ),
                m.group_size,
                m.legacy_seconds,
                m.plan_seconds,
                m.speedup(),
                m.split_fetch_seconds,
                m.fused_fetch_seconds,
                m.fused_speedup(),
                m.plan_sweeps,
                parallel.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"model\": \"resnet18-like\",\n  \"total_weights\": {},\n  \
         \"iters\": {},\n  \"hardware_threads\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        total_weights,
        iters,
        hardware_threads,
        points.join(",\n")
    );
    let path = artifacts_dir().join("results").join("BENCH_verify.json");
    std::fs::write(&path, json).expect("artifact results directory is writable");
    eprintln!("[bench_verify] wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_nn::resnet20;
    use radar_quant::MSB;

    #[test]
    fn legacy_and_streaming_detect_agree_on_a_corrupted_model() {
        let mut model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))));
        let radar = RadarProtection::new(&model, RadarConfig::paper_default(32));
        model.flip_bit(1, 7, MSB);
        model.flip_bit(5, 0, MSB);
        assert_eq!(legacy_detect(&radar, &model), radar.detect(&model));
        for t in PARALLEL_THREADS {
            assert_eq!(radar.detect(&model), radar.detect_parallel(&model, t));
        }
    }

    #[test]
    fn split_and_fused_fetch_paths_agree_on_a_corrupted_dram_image() {
        let model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))));
        let radar = RadarProtection::new(&model, RadarConfig::paper_default(32));
        let mut dram = WeightDram::load(&model, DramGeometry::default());
        dram.flip_bit(dram.offset_of(1, 7), MSB);
        dram.flip_bit(dram.offset_of(5, 0), MSB);

        let mut layers = vec![Vec::new(); dram.num_layers()];
        let mut acc = Vec::new();
        let split = split_fetch_verify(&radar, &dram, &mut layers, &mut acc);
        let split_bytes = layers.clone();
        let fused = fused_fetch_verify(&radar, &dram, &mut layers, &mut acc);
        assert!(fused.attack_detected());
        assert_eq!(
            split, fused,
            "the fused sweep must flag exactly what split does"
        );
        assert_eq!(
            split_bytes, layers,
            "the fused copy must produce the same bytes"
        );
    }

    #[test]
    fn median_of_constant_work_is_finite_and_positive() {
        let t = median_seconds(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t.is_finite() && t >= 0.0);
    }
}
