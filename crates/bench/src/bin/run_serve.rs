//! Runs the online-serving benchmark: four scenarios (clean / attack mid-service /
//! attack under scrub only / protection off) of deterministic seeded traffic against
//! the prepared model, through the `radar-serve` engine. Writes the per-scenario table
//! to `artifacts/results/serve.txt` and the machine-readable
//! `artifacts/results/BENCH_serve.json`. Every scenario runs the engine's single
//! serving path: one fused fetch-and-verify snapshot per batch, consumed by the
//! integer forward.
//!
//! `--smoke` selects the CI-sized timeline (96 requests, window 16). `--trace`
//! additionally replays one fully-instrumented scenario (strike + rotation armed,
//! `ObsLevel::Full`) and writes the validated Chrome `trace_event` export to
//! `artifacts/results/TRACE_serve.json` (loadable at <https://ui.perfetto.dev>).
//! Environment knobs on top of the usual
//! [`Budget`](radar_bench::harness::Budget) variables:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `RADAR_SERVE_WORKERS` | inference worker threads | 2 |
//! | `RADAR_SERVE_BATCH` | maximum requests per batch | 8 |
//! | `RADAR_SERVE_MODEL` | `resnet20` or `resnet18` | `resnet20` |

use radar_bench::harness::{prepare, Budget, ModelKind};
use radar_bench::serving::{self, ServeBenchParams};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace = std::env::args().any(|a| a == "--trace");
    let budget = Budget::from_env();
    let kind = match std::env::var("RADAR_SERVE_MODEL").as_deref() {
        Ok("resnet18") => ModelKind::ResNet18Like,
        _ => ModelKind::ResNet20Like,
    };
    let params = if smoke {
        ServeBenchParams::smoke()
    } else {
        ServeBenchParams::default_run()
    };
    eprintln!(
        "[run_serve] {} requests/scenario on {} ({})",
        params.requests,
        kind.name(),
        if smoke { "smoke" } else { "default" }
    );

    let mut prepared = prepare(kind, budget);
    let outcome = serving::run(&mut prepared, &params);
    outcome.report().print_and_save("serve");
    outcome.write_json();
    if trace {
        serving::trace(&mut prepared, &params);
    }
}
