//! Measures the inference hot path — the float-shadow pipeline (fetch → model
//! write-back → dequantize-everything → float forward) against quantized-native
//! execution (fetch into an arena → integer GEMM forward, once per swept
//! `RADAR_GEMM_THREADS` worker count) — on a single image and a serve-shaped batch.
//! Writes the human-readable table and `artifacts/results/BENCH_infer.json` with
//! per-thread-count points.
//!
//! `--smoke` runs the CI-sized shapes and **exits non-zero if a judged native point
//! is slower than the single-threaded float path**: every swept thread count on the
//! serve-shaped batch, and 1 thread (the serving default) on the single image.
//! Single-image points above 1 thread are reported but not judged — each GEMM call
//! spawns scoped workers afresh, which a batch-1 forward cannot amortize.

use radar_bench::experiments::infer::{bench_infer, InferBenchParams};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = if smoke {
        InferBenchParams::smoke()
    } else {
        InferBenchParams::default_run()
    };
    let outcome = bench_infer(&params);
    outcome.report().print_and_save("bench_infer");
    outcome.write_json();

    if smoke {
        let failures = outcome.smoke_failures();
        for failure in &failures {
            eprintln!("[bench_infer] FAIL: {failure}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        for (point, native) in outcome.judged() {
            eprintln!(
                "[bench_infer] {} at {} thread(s): native {:.2} ms vs float {:.2} ms ({:.2}x)",
                point.name,
                native.threads,
                native.seconds * 1e3,
                point.float_seconds * 1e3,
                point.speedup_at(native)
            );
        }
        eprintln!("[bench_infer] smoke gate passed");
    }
}
