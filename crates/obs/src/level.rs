//! Observability levels and the process-wide gate for global counters.

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the observability layer records.
///
/// The ordering is deliberate: each level is a strict superset of the previous one,
/// so gates can compare with `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObsLevel {
    /// Nothing beyond the always-on event journal and contract metrics
    /// ([`ObsShard::force_add`](crate::ObsShard::force_add) and
    /// [`force_record_ns`](crate::ObsShard::force_record_ns)). Every profiling hook
    /// reduces to one branch on a bool — no allocation, no clock read (the
    /// `obs-off-purity` rule in `crates/analyze/lints.toml` enforces this for the
    /// hook layer).
    Off,
    /// Kernel [`GlobalCounter`](crate::GlobalCounter)s record; spans stay off.
    #[default]
    Counters,
    /// Everything: counters plus wall-clock spans for trace export.
    Full,
}

impl ObsLevel {
    /// Whether [`GlobalCounter`](crate::GlobalCounter)s record at this level.
    #[inline]
    #[must_use]
    pub fn counters_on(self) -> bool {
        self >= ObsLevel::Counters
    }

    /// Whether wall-clock spans record at this level.
    #[inline]
    #[must_use]
    pub fn spans_on(self) -> bool {
        self >= ObsLevel::Full
    }

    /// Stable lowercase name (`off` / `counters` / `full`), used by the trace
    /// exporter.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
            ObsLevel::Full => "full",
        }
    }
}

/// Process-wide gate for [`GlobalCounter`](crate::GlobalCounter)s (the free-standing
/// statics embedded in kernel crates, which have no shard to consult). `0/1/2`
/// mirror [`ObsLevel`].
static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide level consulted by [`GlobalCounter`](crate::GlobalCounter)s.
///
/// Harness entry points (the serve engine, the bench binaries) call this once at
/// startup; kernel-side counters stay at their zero-cost `Off` default until someone
/// does. The gate is global state: concurrent sessions at different levels share it,
/// so global-counter readings are only meaningful for single-session processes (the
/// bench binaries), not under a parallel test runner.
pub fn set_global_level(level: ObsLevel) {
    // relaxed: the gate is a monotone hint consulted independently by each counter
    // increment; nothing orders against it and stale reads only delay enablement.
    GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The process-wide level last set by [`set_global_level`] (`Off` until then).
#[inline]
#[must_use]
pub fn global_level() -> ObsLevel {
    // relaxed: see `set_global_level`.
    match GLOBAL_LEVEL.load(Ordering::Relaxed) {
        0 => ObsLevel::Off,
        1 => ObsLevel::Counters,
        _ => ObsLevel::Full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_supersets() {
        assert!(ObsLevel::Off < ObsLevel::Counters);
        assert!(ObsLevel::Counters < ObsLevel::Full);
        assert!(!ObsLevel::Off.counters_on());
        assert!(ObsLevel::Counters.counters_on());
        assert!(!ObsLevel::Counters.spans_on());
        assert!(ObsLevel::Full.spans_on());
    }
}
