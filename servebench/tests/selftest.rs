//! The benchmark's self-test: a tiny version of every workload must print each
//! metric `BENCHMARK.json` names, with its unit, and the correctness gate must trip
//! on a seeded fault.
//!
//! Run with `cargo test --release` from `servebench/`.

use std::path::{Path, PathBuf};

use radar_obs::{JsonValue, ObsLevel};
use radar_quant::MSB;
use servebench::fixtures::{Fixture, ModelId};
use servebench::report::RunReport;
use servebench::workload::{
    check, clean_image, reference_windows, session, Expected, Inputs, Spec, WORKLOADS,
};
use servebench::{replay, workload};

fn cache() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("servebench-selftest")
}

/// `(name, unit)` of every metric listed under `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect("string field");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn assert_prints(report: &RunReport, section: &str, workload: &str) {
    let json = report.json();
    for (name, unit) in declared(section) {
        let printed = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} is not printed"));
        assert_eq!(printed.unit, unit, "{workload}: unit of {name}");
        assert!(
            json.contains(&format!(r#""{name}": {{"value": "#)),
            "{workload}: {name} missing from the result line"
        );
    }
    assert_eq!(
        report.metrics.len(),
        declared(section).len(),
        "{workload}: prints exactly the declared {section} metrics"
    );
}

#[test]
fn every_workload_prints_every_declared_metric_and_passes_its_gate() {
    for name in WORKLOADS {
        let spec = Spec::named(name).expect("listed workload exists").tiny();
        let mut fx = Fixture::load(ModelId::Tiny, &cache());
        let e2e = workload::run(&mut fx, &spec, 7, 0.0);
        assert!(e2e.correct(), "{name}: {:?}", e2e.failures);
        assert!(e2e.attempted > 0 && e2e.failed == 0);
        assert_prints(&e2e, "end_to_end", name);

        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("servebench-out");
        let traced = replay::run(&mut fx, &spec, 7, &out);
        assert!(traced.correct(), "{name}: {:?}", traced.failures);
        assert_prints(&traced, "per_layer", name);
        assert!(out.join(format!("trace-{name}-seed7.json")).exists());
    }
}

#[test]
fn gate_trips_when_the_reference_image_carries_one_flipped_msb() {
    let spec = Spec::named("steady_b8").expect("steady_b8 exists").tiny();
    let mut fx = Fixture::load(ModelId::Tiny, &cache());
    let inputs = Inputs::generate(&mut fx, &spec, 3);
    let (outcome, _, sum) = session(&fx, &spec, &inputs, &spec.config(ObsLevel::Off));
    let clean = Expected::Windows(reference_windows(&fx, &spec, &inputs, &clean_image(&fx)));
    assert!(check(&fx, &spec, &outcome, sum, &clean).is_empty());

    // The first single-MSB flip (scanning the last layer, whose weights feed the
    // logits directly) that changes any reference answer.
    let last = fx.clean.num_layers() - 1;
    let faulty = (0..fx.clean.layer(last).len())
        .find_map(|w| {
            let mut image = clean_image(&fx);
            image[last][w] = (image[last][w] as u8 ^ (1 << MSB)) as i8;
            let windows = reference_windows(&fx, &spec, &inputs, &image);
            (Expected::Windows(windows.clone()) != clean).then_some(Expected::Windows(windows))
        })
        .expect("some MSB flip of the classifier changes an answer");
    let failures = check(&fx, &spec, &outcome, sum, &faulty);
    assert!(
        failures.iter().any(|f| f.contains("reference")),
        "gate must trip on the faulty reference: {failures:?}"
    );

    // The gate also trips on a weight image that is not the fixture's.
    assert!(!check(&fx, &spec, &outcome, sum ^ 1, &clean).is_empty());
}
