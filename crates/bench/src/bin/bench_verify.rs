//! Measures full-model verification throughput on the ResNet-18-like model: the
//! legacy per-group gather path against the precomputed streaming plan, and the
//! fused fetch-and-verify against the plain DRAM copy and the two-pass
//! copy-then-verify. Writes the human-readable table and
//! `artifacts/results/BENCH_verify.json`.
//!
//! **Exits non-zero if the paper-default fused fetch-and-verify takes more than
//! [`FUSED_OVER_COPY_MAX`] times the plain copy of the same bytes** at any measured
//! group size.

use radar_bench::experiments::verify::{self, FUSED_OVER_COPY_MAX};
use radar_bench::harness::Budget;

fn main() {
    let budget = Budget::from_env();
    let outcome = verify::bench_verify(&budget);
    outcome.report.print_and_save("bench_verify");
    for failure in &outcome.gate_failures {
        eprintln!("[bench_verify] FAIL: {failure}");
    }
    if !outcome.gate_failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("[bench_verify] gate passed: fused <= {FUSED_OVER_COPY_MAX:.1}x copy at every G");
}
