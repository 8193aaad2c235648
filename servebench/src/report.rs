//! The run result: named metrics with units, the correctness verdict, and the
//! one-line JSON object the benchmark prints last.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Everything one benchmark run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Requests sent to the engine (or replayed) in the measured part of the run.
    pub attempted: u64,
    /// Requests not completed, or served by a repeat whose correctness check failed.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (sample counts, paper comparisons).
    pub notes: Vec<String>,
}

impl RunReport {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Panics
    ///
    /// Panics if a metric is not finite (JSON has no representation for it).
    pub fn json(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips, with a
            // decimal point, so no digit is lost.
            write!(
                out,
                r#"{sep}"{}": {{"value": {:?}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub(crate) fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` of `/proc/self/status`).
///
/// # Panics
///
/// Panics where procfs does not report it (the benchmark targets Linux).
pub(crate) fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("procfs reports process status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("procfs reports VmHWM in kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut r = RunReport {
            attempted: 10,
            ..RunReport::default()
        };
        r.metric("latency_p50_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.json(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.25, "unit": "ms"}, "setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
        r.fail("boom".into());
        assert!(r.json().starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
