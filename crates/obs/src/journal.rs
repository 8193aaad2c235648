//! The deterministic event journal: typed structured events keyed by **logical
//! time** (batch number plus a logical track), never wall clock.
//!
//! Two same-seed runs must produce byte-identical journals — that is only possible
//! if nothing nondeterministic leaks into the compared fields. The rules:
//!
//! * the key is `(batch, track)` — the batcher's dispatched-batch count plus a
//!   logical role. Tracks never carry worker ids: *which* worker thread serves a
//!   batch is scheduler-dependent, but *what happens to the batch* is not.
//! * wall-clock readings ride along as the `at_seconds` annotation, excluded from
//!   [`Event::logical_line`] and therefore from every replay comparison.
//! * within one `(batch, track)` key all events come from a single emitter thread
//!   (the engine's barrier discipline guarantees this), so a stable sort by key
//!   yields one canonical order regardless of shard flush interleaving.

use std::fmt::Write as _;

/// The logical role an event belongs to. Deliberately coarse — no worker ids (see
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The in-path weight fetch (whichever worker held the batch's ticket).
    Fetch,
    /// The background scrubber.
    Scrub,
    /// The background re-keying task.
    Rotate,
    /// The scripted adversary.
    Strike,
}

impl Track {
    /// Stable lowercase name used in journal lines and exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Track::Fetch => "fetch",
            Track::Scrub => "scrub",
            Track::Rotate => "rotate",
            Track::Strike => "strike",
        }
    }
}

/// One action of a key-rotation roll, as recorded in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationKind {
    /// A roll to the given epoch began.
    Began {
        /// The pending epoch's index.
        epoch: u32,
    },
    /// One layer was re-signed under the pending epoch.
    Resigned {
        /// The re-signed layer.
        layer: u64,
        /// Groups the pre-sign check recovered in that layer.
        groups_recovered: u64,
    },
    /// The fully re-signed epoch was published as current.
    Published {
        /// The published epoch's index.
        epoch: u32,
    },
    /// The previous epoch's acceptance window closed.
    Retired {
        /// The retired epoch's index.
        epoch: u32,
    },
}

/// What happened. Every variant carries only logical payload — counts, indices,
/// epochs — never durations or timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A batch's weights were fetched (and in-path verified when configured) under
    /// the given pinned epoch.
    Fetch {
        /// The key epoch the fetch verified under.
        epoch: u32,
    },
    /// A verification pass completed (in-path or scrub), flagging `groups_flagged`
    /// groups (usually 0).
    Verify {
        /// Signature groups flagged by the pass.
        groups_flagged: u64,
    },
    /// A verification pass flagged at least one group — an attack detection.
    Detect {
        /// Whether the background scrubber (vs the in-path check) detected it.
        via_scrub: bool,
        /// Signature groups flagged.
        groups_flagged: u64,
    },
    /// Flagged groups were zeroed in the DRAM image and re-signed.
    Recover {
        /// Groups zeroed.
        groups_zeroed: u64,
        /// Individual weights zeroed.
        weights_zeroed: u64,
    },
    /// One action of the background re-keying task.
    Rotation(RotationKind),
    /// The adversary mounted one rowhammer strike.
    Strike {
        /// Flips that landed.
        flips_landed: u64,
        /// Flips that missed.
        flips_missed: u64,
        /// Distinct rows hammered.
        rows_hammered: u64,
    },
    /// Scripted strikes whose batch offsets the run never reached.
    StrikeNeverFired {
        /// Strikes left unfired when service ended.
        remaining: u64,
    },
}

/// One journal entry: a logical key, a typed payload, and a non-compared wall-clock
/// annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Batch index (the engine's logical clock) the event is attributed to.
    pub batch: u64,
    /// Logical track.
    pub track: Track,
    /// What happened.
    pub kind: EventKind,
    /// Wall-clock seconds since the session started — an annotation, **excluded**
    /// from logical comparisons and from [`Event::logical_line`].
    pub at_seconds: f64,
}

impl Event {
    /// The event's logical fields as one JSON line (no trailing newline). This is
    /// the byte-compared replay representation: two same-seed runs must produce
    /// identical sequences of these lines.
    #[must_use]
    pub fn logical_line(&self) -> String {
        let mut line = format!(
            r#"{{"batch":{},"track":"{}""#,
            self.batch,
            self.track.name()
        );
        match self.kind {
            EventKind::Fetch { epoch } => {
                let _ = write!(line, r#","event":"fetch","epoch":{epoch}"#);
            }
            EventKind::Verify { groups_flagged } => {
                let _ = write!(
                    line,
                    r#","event":"verify","groups_flagged":{groups_flagged}"#
                );
            }
            EventKind::Detect {
                via_scrub,
                groups_flagged,
            } => {
                let _ = write!(
                    line,
                    r#","event":"detect","via_scrub":{via_scrub},"groups_flagged":{groups_flagged}"#
                );
            }
            EventKind::Recover {
                groups_zeroed,
                weights_zeroed,
            } => {
                let _ = write!(
                    line,
                    r#","event":"recover","groups_zeroed":{groups_zeroed},"weights_zeroed":{weights_zeroed}"#
                );
            }
            EventKind::Rotation(kind) => match kind {
                RotationKind::Began { epoch } => {
                    let _ = write!(line, r#","event":"rotation.began","epoch":{epoch}"#);
                }
                RotationKind::Resigned {
                    layer,
                    groups_recovered,
                } => {
                    let _ = write!(
                        line,
                        r#","event":"rotation.resigned","layer":{layer},"groups_recovered":{groups_recovered}"#
                    );
                }
                RotationKind::Published { epoch } => {
                    let _ = write!(line, r#","event":"rotation.published","epoch":{epoch}"#);
                }
                RotationKind::Retired { epoch } => {
                    let _ = write!(line, r#","event":"rotation.retired","epoch":{epoch}"#);
                }
            },
            EventKind::Strike {
                flips_landed,
                flips_missed,
                rows_hammered,
            } => {
                let _ = write!(
                    line,
                    r#","event":"strike","flips_landed":{flips_landed},"flips_missed":{flips_missed},"rows_hammered":{rows_hammered}"#
                );
            }
            EventKind::StrikeNeverFired { remaining } => {
                let _ = write!(
                    line,
                    r#","event":"strike_never_fired","remaining":{remaining}"#
                );
            }
        }
        line.push('}');
        line
    }
}

/// A bounded, canonically ordered event journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventJournal {
    events: Vec<Event>,
    dropped: usize,
}

impl EventJournal {
    /// Builds a journal from raw shard-flushed events: stable-sorts by the logical
    /// key `(batch, track)` (canonical order — see the module docs), then keeps
    /// only the most recent `capacity` events (ring-buffer semantics), recording
    /// how many old events were dropped.
    #[must_use]
    pub fn from_events(mut events: Vec<Event>, capacity: usize) -> Self {
        events.sort_by_key(|e| (e.batch, e.track));
        let dropped = events.len().saturating_sub(capacity);
        if dropped > 0 {
            events.drain(..dropped);
        }
        EventJournal { events, dropped }
    }

    /// The retained events, in canonical logical order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events dropped to honor the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The whole journal as logical JSONL — the byte-compared replay form.
    #[must_use]
    pub fn logical_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.logical_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(batch: u64, track: Track, kind: EventKind) -> Event {
        Event {
            batch,
            track,
            kind,
            at_seconds: 0.5,
        }
    }

    #[test]
    fn canonical_order_is_independent_of_flush_interleaving() {
        let a = vec![
            event(0, Track::Fetch, EventKind::Fetch { epoch: 0 }),
            event(2, Track::Fetch, EventKind::Fetch { epoch: 0 }),
            event(2, Track::Scrub, EventKind::Verify { groups_flagged: 0 }),
        ];
        let b = vec![
            event(1, Track::Fetch, EventKind::Fetch { epoch: 0 }),
            event(
                2,
                Track::Strike,
                EventKind::Strike {
                    flips_landed: 1,
                    flips_missed: 0,
                    rows_hammered: 1,
                },
            ),
        ];
        let mut ab = a.clone();
        ab.extend(b.clone());
        let mut ba = b;
        ba.extend(a);
        let jab = EventJournal::from_events(ab, 1024);
        let jba = EventJournal::from_events(ba, 1024);
        assert_eq!(jab.logical_jsonl(), jba.logical_jsonl());
    }

    #[test]
    fn capacity_drops_the_oldest_events() {
        let events: Vec<Event> = (0..10)
            .map(|b| event(b, Track::Fetch, EventKind::Fetch { epoch: 0 }))
            .collect();
        let journal = EventJournal::from_events(events, 4);
        assert_eq!(journal.len(), 4);
        assert_eq!(journal.dropped(), 6);
        assert_eq!(journal.events()[0].batch, 6);
    }

    #[test]
    fn logical_lines_exclude_the_wall_clock_annotation() {
        let mut e = event(
            3,
            Track::Scrub,
            EventKind::Detect {
                via_scrub: true,
                groups_flagged: 2,
            },
        );
        let line = e.logical_line();
        assert_eq!(
            line,
            r#"{"batch":3,"track":"scrub","event":"detect","via_scrub":true,"groups_flagged":2}"#
        );
        // A different wall-clock reading must not change the logical line.
        e.at_seconds = 99.0;
        assert_eq!(e.logical_line(), line);
    }

    #[test]
    fn every_kind_renders_a_distinct_event_name() {
        let kinds = [
            EventKind::Fetch { epoch: 1 },
            EventKind::Verify { groups_flagged: 0 },
            EventKind::Detect {
                via_scrub: false,
                groups_flagged: 1,
            },
            EventKind::Recover {
                groups_zeroed: 1,
                weights_zeroed: 16,
            },
            EventKind::Rotation(RotationKind::Began { epoch: 1 }),
            EventKind::Rotation(RotationKind::Resigned {
                layer: 2,
                groups_recovered: 0,
            }),
            EventKind::Rotation(RotationKind::Published { epoch: 1 }),
            EventKind::Rotation(RotationKind::Retired { epoch: 0 }),
            EventKind::Strike {
                flips_landed: 1,
                flips_missed: 2,
                rows_hammered: 3,
            },
            EventKind::StrikeNeverFired { remaining: 1 },
        ];
        let mut names: Vec<String> = kinds
            .iter()
            .map(|&kind| {
                let line = event(0, Track::Fetch, kind).logical_line();
                let start = line.find(r#""event":""#).expect("event name") + 9;
                let end = start + line[start..].find('"').expect("closing quote");
                line[start..end].to_string()
            })
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), kinds.len(), "event names must be distinct");
    }
}
