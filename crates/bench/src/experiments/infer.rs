//! Inference-path benchmark: the float-shadow pipeline against quantized-native
//! execution, measured end to end per batch — weight fetch from the DRAM image
//! included, because that is what a serving worker pays every batch.
//!
//! * **float** — the pre-quantized-native pipeline: fetch every layer back into the
//!   `QuantizedModel`, dequantize the whole model into its float shadow, run the
//!   float forward ([`QuantizedModel::forward_float`]). Always single-threaded —
//!   this is the fixed oracle baseline.
//! * **native** — the integer path: fetch every layer's bytes into a reusable
//!   arena ([`WeightDram::read_layer_into`]) and run the i8×i8/i32 GEMM forward
//!   straight off them ([`QuantizedModel::forward_with_values`]), once per swept
//!   GEMM worker count (the `RADAR_GEMM_THREADS` axis, always including 1).
//!
//! Two shapes are measured: a single image (the latency floor) and a serve-shaped
//! batch (the default `max_batch` of the serving engine). Results land in
//! `artifacts/results/BENCH_infer.json` with one point per shape × thread count;
//! the `bench_infer` binary's `--smoke` mode additionally *fails* when a judged
//! native point loses to the single-threaded float path
//! ([`InferBenchOutcome::smoke_failures`]) — CI's regression gate for the integer
//! kernels.

use std::path::PathBuf;

use radar_memsim::{DramGeometry, WeightDram};
use radar_nn::{resnet20, ResNetConfig};
use radar_obs::{set_global_level, ObsLevel, Stopwatch};
use radar_quant::QuantizedModel;
use radar_serve::ServeConfig;
use radar_tensor::{set_gemm_threads, Tensor, GEMM_CALLS, GEMM_PANELS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::artifacts_dir;
use crate::report::Report;

/// Sizing of one inference benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferBenchParams {
    /// Timed passes per measured point (the median is reported).
    pub iters: usize,
    /// Input spatial size (square).
    pub image_size: usize,
}

impl InferBenchParams {
    /// The default run: CIFAR-sized inputs.
    pub fn default_run() -> Self {
        InferBenchParams {
            iters: 7,
            image_size: 32,
        }
    }

    /// The CI smoke run: smaller inputs, fewer passes — still large enough that the
    /// dequantize-everything sync dominates the float path.
    pub fn smoke() -> Self {
        InferBenchParams {
            iters: 3,
            image_size: 16,
        }
    }
}

/// The GEMM worker counts to sweep: `RADAR_GEMM_THREADS` parsed as a
/// comma-separated list, with `1` (the bit-identical fallback) always included
/// first. Unset or unparsable → `[1]`.
pub fn thread_axis() -> Vec<usize> {
    let mut axis = vec![1usize];
    if let Ok(v) = std::env::var("RADAR_GEMM_THREADS") {
        for t in v.split(',').filter_map(|t| t.trim().parse::<usize>().ok()) {
            if t > 1 && !axis.contains(&t) {
                axis.push(t);
            }
        }
    }
    axis.sort_unstable();
    axis
}

/// One native measurement at a fixed GEMM worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct NativePoint {
    /// GEMM worker count the kernels ran with.
    pub threads: usize,
    /// Median seconds per fetch+forward.
    pub seconds: f64,
}

/// One measured shape: the float baseline plus the native path per thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct InferPoint {
    /// Point name (`single_image` / `serve_batch`).
    pub name: &'static str,
    /// Batch size of the shape.
    pub batch: usize,
    /// Median seconds per fetch+forward on the float-shadow pipeline
    /// (single-threaded — the fixed baseline).
    pub float_seconds: f64,
    /// Native-path measurements, one per swept GEMM worker count (ascending,
    /// starting at 1).
    pub native: Vec<NativePoint>,
    /// Integer-GEMM kernel invocations per native fetch+forward pass
    /// ([`GEMM_CALLS`], counted once — the count is shape-determined, not
    /// thread-count-determined).
    pub gemm_calls: u64,
    /// Integer-GEMM (N, K) panels per native fetch+forward pass ([`GEMM_PANELS`]).
    pub gemm_panels: u64,
}

impl InferPoint {
    /// Float-path time over the given native measurement (> 1 means native wins).
    pub fn speedup_at(&self, native: &NativePoint) -> f64 {
        self.float_seconds / native.seconds
    }
}

/// The full inference benchmark outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct InferBenchOutcome {
    /// Model identifier.
    pub model: String,
    /// Total quantized weights of the model.
    pub total_weights: usize,
    /// The run sizing.
    pub params: InferBenchParams,
    /// The swept GEMM worker counts.
    pub threads: Vec<usize>,
    /// Per-shape measurements.
    pub points: Vec<InferPoint>,
}

/// Median wall-clock seconds of `iters` runs of `f` (one untimed warm-up first).
fn median_seconds(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
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

/// Runs the benchmark on the paper-width ResNet-20 (no training needed — latency
/// does not depend on the weight values).
pub fn bench_infer(params: &InferBenchParams) -> InferBenchOutcome {
    // Arm the kernel-side global counters so per-pass GEMM call/panel counts can
    // be attributed to each measured shape (the binary is single-session, so the
    // process-wide gate is unambiguous here).
    set_global_level(ObsLevel::Counters);
    let mut model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::resnet20_paper(10))));
    let dram = WeightDram::load(&model, DramGeometry::default());
    let total_weights = model.total_weights();
    let serve_batch = ServeConfig::default().max_batch;
    let threads = thread_axis();
    let mut rng = StdRng::seed_from_u64(0xBE9C);

    let mut points = Vec::new();
    for (name, batch) in [("single_image", 1usize), ("serve_batch", serve_batch)] {
        let x = Tensor::rand_normal(
            &mut rng,
            &[batch, 3, params.image_size, params.image_size],
            0.0,
            1.0,
        );
        eprintln!(
            "[bench_infer] {name}: batch {batch}, threads {threads:?}, {} iters…",
            params.iters
        );

        // Float-shadow pipeline: fetch into the model, dequantize everything, float
        // forward — what a serving worker paid per batch before the native path.
        let float_seconds = median_seconds(params.iters, || {
            dram.fetch_into(&mut model);
            std::hint::black_box(model.forward_float(&x));
        });

        // Quantized-native: fetch into the arena, run the integer GEMM off it —
        // once per GEMM worker count on the sweep axis.
        let mut arena: Vec<Vec<i8>> = (0..model.num_layers()).map(|_| Vec::new()).collect();

        // One counted (untimed) pass attributes the kernel-side global counters
        // to this shape: GEMM invocations and (N, K) panels per fetch+forward.
        GEMM_CALLS.reset();
        GEMM_PANELS.reset();
        for (layer, buf) in arena.iter_mut().enumerate() {
            dram.read_layer_into(layer, buf);
        }
        std::hint::black_box(model.forward_with_values(&arena, &x));
        let gemm_calls = GEMM_CALLS.reset();
        let gemm_panels = GEMM_PANELS.reset();

        let mut native = Vec::new();
        for &t in &threads {
            set_gemm_threads(t);
            let seconds = median_seconds(params.iters, || {
                for (layer, buf) in arena.iter_mut().enumerate() {
                    dram.read_layer_into(layer, buf);
                }
                std::hint::black_box(model.forward_with_values(&arena, &x));
            });
            native.push(NativePoint {
                threads: t,
                seconds,
            });
        }
        set_gemm_threads(0);

        points.push(InferPoint {
            name,
            batch,
            float_seconds,
            native,
            gemm_calls,
            gemm_panels,
        });
    }

    InferBenchOutcome {
        model: "resnet20_paper_width".to_owned(),
        total_weights,
        params: *params,
        threads,
        points,
    }
}

impl InferBenchOutcome {
    /// The native points the smoke gate judges against the float baseline:
    /// every swept thread count on `serve_batch`, and 1 thread — the serving
    /// default — on `single_image`. Wider `single_image` points stay unjudged:
    /// each GEMM call spawns its scoped workers afresh, which a batch-1 forward
    /// cannot amortize.
    pub fn judged(&self) -> Vec<(&InferPoint, &NativePoint)> {
        self.points
            .iter()
            .flat_map(|p| {
                p.native
                    .iter()
                    .filter(move |n| p.name == "serve_batch" || n.threads == 1)
                    .map(move |n| (p, n))
            })
            .collect()
    }

    /// The smoke gate's verdict: one message per judged point ([`Self::judged`])
    /// that is slower than the single-threaded float path. Empty means pass.
    pub fn smoke_failures(&self) -> Vec<String> {
        self.judged()
            .into_iter()
            .filter(|(p, n)| n.seconds > p.float_seconds)
            .map(|(p, n)| {
                format!(
                    "quantized-native path at {} thread(s) ({:.2} ms) is slower than the \
                     float-shadow path ({:.2} ms) on {}",
                    n.threads,
                    n.seconds * 1e3,
                    p.float_seconds * 1e3,
                    p.name
                )
            })
            .collect()
    }

    /// Renders the measurement as a human-readable table: one row per
    /// shape × GEMM worker count.
    pub fn report(&self) -> Report {
        let mut report = Report::new(&format!(
            "Inference path — float-shadow vs quantized-native on {} ({} weights, {}x{} input, median of {})",
            self.model, self.total_weights, self.params.image_size, self.params.image_size,
            self.params.iters
        ));
        report.row(&[
            "shape".into(),
            "batch".into(),
            "threads".into(),
            "float ms".into(),
            "native ms".into(),
            "speedup".into(),
        ]);
        for p in &self.points {
            for n in &p.native {
                report.row(&[
                    p.name.into(),
                    p.batch.to_string(),
                    n.threads.to_string(),
                    format!("{:.2}", p.float_seconds * 1e3),
                    format!("{:.2}", n.seconds * 1e3),
                    format!("{:.2}x", p.speedup_at(n)),
                ]);
            }
        }
        report.line("per pass: full weight fetch from the DRAM image + forward");
        report.line("float baseline is single-threaded; native sweeps RADAR_GEMM_THREADS");
        for p in &self.points {
            report.line(format!(
                "{}: {} integer-GEMM calls, {} (N,K) panels per native pass",
                p.name, p.gemm_calls, p.gemm_panels
            ));
        }
        report
    }

    /// Serializes the measurement as `artifacts/results/BENCH_infer.json`
    /// (hand-rolled: the workspace carries no JSON dependency).
    pub fn write_json(&self) -> PathBuf {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let native: Vec<String> = p
                    .native
                    .iter()
                    .map(|n| {
                        format!(
                            concat!(
                                "      {{\"threads\": {}, \"seconds\": {:.9}, ",
                                "\"speedup\": {:.4}}}"
                            ),
                            n.threads,
                            n.seconds,
                            p.speedup_at(n)
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        "    {{\"name\": \"{}\", \"batch\": {}, ",
                        "\"float_seconds\": {:.9}, \"gemm_calls\": {}, ",
                        "\"gemm_panels\": {}, \"native\": [\n{}\n    ]}}"
                    ),
                    p.name,
                    p.batch,
                    p.float_seconds,
                    p.gemm_calls,
                    p.gemm_panels,
                    native.join(",\n")
                )
            })
            .collect();
        let threads: Vec<String> = self
            .threads
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let json = format!(
            concat!(
                "{{\n  \"model\": \"{}\",\n  \"total_weights\": {},\n",
                "  \"image_size\": {},\n  \"iters\": {},\n  \"threads\": [{}],\n",
                "  \"points\": [\n{}\n  ]\n}}\n"
            ),
            self.model,
            self.total_weights,
            self.params.image_size,
            self.params.iters,
            threads.join(", "),
            points.join(",\n")
        );
        let path = artifacts_dir().join("results").join("BENCH_infer.json");
        std::fs::write(&path, json).expect("artifact results directory is writable");
        eprintln!("[bench_infer] wrote {}", path.display());
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_presets_are_sane() {
        let run = InferBenchParams::default_run();
        let smoke = InferBenchParams::smoke();
        assert!(run.iters >= smoke.iters);
        assert!(run.image_size > smoke.image_size);
    }

    fn point() -> InferPoint {
        InferPoint {
            name: "serve_batch",
            batch: 8,
            float_seconds: 0.2,
            native: vec![
                NativePoint {
                    threads: 1,
                    seconds: 0.1,
                },
                NativePoint {
                    threads: 4,
                    seconds: 0.05,
                },
            ],
            gemm_calls: 22,
            gemm_panels: 100,
        }
    }

    #[test]
    fn speedup_is_float_over_native_time() {
        let p = point();
        assert!((p.speedup_at(&p.native[0]) - 2.0).abs() < 1e-12);
        assert!((p.speedup_at(&p.native[1]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn smoke_gate_judges_every_serve_point_and_single_image_at_one_thread() {
        let single = |seconds_1: f64, seconds_4: f64| InferPoint {
            name: "single_image",
            batch: 1,
            float_seconds: 0.02,
            native: vec![
                NativePoint {
                    threads: 1,
                    seconds: seconds_1,
                },
                NativePoint {
                    threads: 4,
                    seconds: seconds_4,
                },
            ],
            gemm_calls: 22,
            gemm_panels: 30,
        };
        let outcome = |single: InferPoint, serve: InferPoint| InferBenchOutcome {
            model: "m".into(),
            total_weights: 0,
            params: InferBenchParams::smoke(),
            threads: vec![1, 4],
            points: vec![single, serve],
        };
        // Everything faster than float, except single_image at 4 threads, which
        // is not judged.
        let pass = outcome(single(0.01, 0.03), point());
        assert_eq!(pass.judged().len(), 3);
        assert!(pass.smoke_failures().is_empty());
        // single_image at 1 thread slower than float fails the gate.
        let slow_single = outcome(single(0.03, 0.01), point());
        let failures = slow_single.smoke_failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("single_image"), "{failures:?}");
        // Any serve_batch thread count slower than float fails it too.
        let mut serve = point();
        serve.native[1].seconds = 0.3;
        let failures = outcome(single(0.01, 0.01), serve).smoke_failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("4 thread(s)"), "{failures:?}");
    }

    #[test]
    fn thread_axis_always_includes_single_threaded() {
        // The axis reflects the environment, but 1 is always present and first
        // after sorting (the sweep never skips the bit-identical fallback).
        let axis = thread_axis();
        assert!(axis.contains(&1));
        assert_eq!(axis.first(), Some(&1));
        assert!(axis.windows(2).all(|w| w[0] < w[1]));
    }
}
