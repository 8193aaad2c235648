//! Chrome `trace_event` export: turns an [`ObsReport`]'s spans (and the journal's
//! strike/detection instants) into a JSON document loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`, plus the validator CI runs
//! against the emitted artifact.
//!
//! Format notes (the subset we emit):
//! * one `"M"` (metadata) event per thread names its timeline row;
//! * one `"X"` (complete) event per span, with `ts`/`dur` in **microseconds**;
//! * one `"i"` (instant) event per journal strike / detection / rotation publish,
//!   so logical moments line up against the measured spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::journal::{EventKind, RotationKind, Track};
use crate::json::JsonValue;
use crate::shard::ObsReport;
use crate::span::Tid;

/// The process id we put on every event (one serving session = one "process").
const PID: u32 = 1;

fn escape(name: &str) -> String {
    name.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders `report` as a Chrome `trace_event` JSON document.
///
/// `process_name` labels the whole timeline (e.g. the scenario name). Spans become
/// `"X"` events on their thread's row; journal strikes, detections and rotation
/// publishes become `"i"` instants on the logical tracks so the viewer shows *when*
/// the logical story happened relative to the measured work.
#[must_use]
pub fn chrome_trace(report: &ObsReport, process_name: &str) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(format!(
        r#"{{"ph":"M","pid":{PID},"tid":0,"name":"process_name","args":{{"name":"{}"}}}}"#,
        escape(process_name)
    ));

    // Name every thread row that will carry spans.
    let mut named: Vec<Tid> = report.spans.iter().map(|s| s.tid).collect();
    named.sort();
    named.dedup();
    for tid in &named {
        events.push(format!(
            r#"{{"ph":"M","pid":{PID},"tid":{},"name":"thread_name","args":{{"name":"{}"}}}}"#,
            tid.ordinal(),
            escape(&tid.name())
        ));
    }

    for span in &report.spans {
        events.push(format!(
            r#"{{"ph":"X","pid":{PID},"tid":{},"name":"{}","ts":{:.3},"dur":{:.3},"args":{{"batch":{}}}}}"#,
            span.tid.ordinal(),
            escape(span.name),
            span.start_ns as f64 / 1_000.0,
            span.dur_ns as f64 / 1_000.0,
            span.batch
        ));
    }

    // Logical instants: use a dedicated row per journal track, offset well above
    // the span rows so ordinals never collide.
    for event in report.journal.events() {
        let label = match event.kind {
            EventKind::Strike { .. } => Some("strike"),
            EventKind::Detect { .. } => Some("detect"),
            EventKind::Rotation(RotationKind::Published { .. }) => Some("rotation.published"),
            _ => None,
        };
        let Some(label) = label else { continue };
        events.push(format!(
            r#"{{"ph":"i","pid":{PID},"tid":{},"name":"{label}","ts":{:.3},"s":"t","args":{{"batch":{}}}}}"#,
            1000 + event.track as u32,
            event.at_seconds * 1e6,
            event.batch
        ));
    }
    for track in [Track::Fetch, Track::Scrub, Track::Rotate, Track::Strike] {
        let has_instant = report.journal.events().iter().any(|e| {
            e.track == track
                && matches!(
                    e.kind,
                    EventKind::Strike { .. }
                        | EventKind::Detect { .. }
                        | EventKind::Rotation(RotationKind::Published { .. })
                )
        });
        if has_instant {
            events.push(format!(
                r#"{{"ph":"M","pid":{PID},"tid":{},"name":"thread_name","args":{{"name":"journal:{}"}}}}"#,
                1000 + track as u32,
                track.name()
            ));
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        out.push_str(event);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"level\":\"{}\"}}}}",
        report.level.name()
    );
    out
}

/// What [`validate_chrome_trace`] found: span counts per named thread row.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Complete (`"X"`) span count per thread name (from the `thread_name`
    /// metadata events).
    pub spans_by_thread: BTreeMap<String, usize>,
    /// Total `"X"` events.
    pub total_spans: usize,
    /// Total `"i"` instant events.
    pub total_instants: usize,
}

impl TraceSummary {
    /// Spans recorded on the named thread (0 when the row is absent).
    #[must_use]
    pub fn spans_on(&self, thread: &str) -> usize {
        self.spans_by_thread.get(thread).copied().unwrap_or(0)
    }
}

/// Parses and validates a Chrome `trace_event` document produced by
/// [`chrome_trace`]: the JSON must parse, `traceEvents` must exist, every `"X"`
/// event needs `ts`/`dur`/`tid`, and every span's `tid` must have a
/// `thread_name` metadata row. Returns per-thread span counts for the caller's
/// own coverage assertions (CI requires ≥ 1 span per worker plus the scrubber and
/// rotation rows).
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = JsonValue::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    for event in events {
        if event.get("ph").and_then(JsonValue::as_str) == Some("M")
            && event.get("name").and_then(JsonValue::as_str) == Some("thread_name")
        {
            let tid = event
                .get("tid")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| "thread_name metadata without tid".to_string())?;
            let name = event
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "thread_name metadata without args.name".to_string())?;
            names.insert(tid as u64, name.to_string());
        }
    }
    let mut summary = TraceSummary::default();
    for (index, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {index} has no ph"))?;
        match ph {
            "X" => {
                let tid = event
                    .get("tid")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("span {index} has no tid"))?;
                for field in ["ts", "dur"] {
                    let value = event
                        .get(field)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("span {index} has no {field}"))?;
                    if !value.is_finite() || value < 0.0 {
                        return Err(format!("span {index} has invalid {field} {value}"));
                    }
                }
                let thread = names
                    .get(&(tid as u64))
                    .ok_or_else(|| format!("span {index} on unnamed tid {tid}"))?;
                *summary.spans_by_thread.entry(thread.clone()).or_insert(0) += 1;
                summary.total_spans += 1;
            }
            "i" => summary.total_instants += 1,
            "M" => {}
            other => return Err(format!("event {index} has unsupported ph {other:?}")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Event, EventJournal};
    use crate::level::ObsLevel;
    use crate::registry::MetricsRegistry;
    use crate::span::Span;

    fn report_with_spans() -> ObsReport {
        let spans = vec![
            Span {
                name: "fetch_verify",
                tid: Tid::Worker(0),
                start_ns: 1_000,
                dur_ns: 5_000,
                batch: 0,
            },
            Span {
                name: "infer",
                tid: Tid::Worker(1),
                start_ns: 7_000,
                dur_ns: 2_000,
                batch: 1,
            },
            Span {
                name: "scrub_sweep",
                tid: Tid::Scrubber,
                start_ns: 10_000,
                dur_ns: 1_000,
                batch: 4,
            },
        ];
        let journal = EventJournal::from_events(
            vec![Event {
                batch: 2,
                track: Track::Strike,
                kind: EventKind::Strike {
                    flips_landed: 1,
                    flips_missed: 0,
                    rows_hammered: 1,
                },
                at_seconds: 0.001,
            }],
            16,
        );
        ObsReport {
            level: ObsLevel::Full,
            wall_seconds: 0.0,
            registry: MetricsRegistry::new(),
            journal,
            spans,
        }
    }

    #[test]
    fn emitted_traces_validate_round_trip() {
        let trace = chrome_trace(&report_with_spans(), "unit \"test\"");
        let summary = validate_chrome_trace(&trace).expect("own trace must validate");
        assert_eq!(summary.total_spans, 3);
        assert_eq!(summary.spans_on("worker-0"), 1);
        assert_eq!(summary.spans_on("worker-1"), 1);
        assert_eq!(summary.spans_on("scrubber"), 1);
        assert_eq!(summary.spans_on("rotation"), 0);
        assert_eq!(summary.total_instants, 1);
    }

    #[test]
    fn validation_rejects_garbage_and_unnamed_tids() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(r#"{"foo":1}"#).is_err());
        let unnamed = r#"{"traceEvents":[{"ph":"X","pid":1,"tid":7,"name":"s","ts":1,"dur":1}]}"#;
        let err = validate_chrome_trace(unnamed).expect_err("unnamed tid");
        assert!(err.contains("unnamed tid"), "got {err}");
        let no_dur = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":7,"name":"thread_name","args":{"name":"w"}},
            {"ph":"X","pid":1,"tid":7,"name":"s","ts":1}]}"#;
        assert!(validate_chrome_trace(no_dur).is_err());
    }
}
