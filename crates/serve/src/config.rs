use std::time::Duration;

use radar_obs::ObsLevel;

/// Configuration of one serving run.
///
/// Environment knobs (applied by [`from_env`](Self::from_env)):
///
/// | Variable | Meaning | Default |
/// |---|---|---|
/// | `RADAR_SERVE_WORKERS` | inference worker threads | 2 |
/// | `RADAR_SERVE_BATCH` | maximum requests coalesced per batch | 8 |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of inference worker threads (each owns a model replica).
    pub workers: usize,
    /// Maximum requests the batcher coalesces into one batch.
    pub max_batch: usize,
    /// How long the batcher waits for more requests before dispatching a partial batch.
    pub max_wait: Duration,
    /// When set, the batcher waits indefinitely for a full batch (only the end of the
    /// request stream produces a partial one), ignoring `max_wait`. This makes batch
    /// composition — and with it every logical outcome of a run — independent of
    /// thread scheduling; the benchmark scenarios and the replay tests rely on it.
    /// Off, `max_wait` bounds the wait, as a latency-conscious deployment would.
    pub strict_batching: bool,
    /// Capacity of the bounded request queue (senders block when it is full).
    pub queue_capacity: usize,
    /// Whether workers verify each layer in the weight-fetch path (RADAR's in-path
    /// check). Off models a deployment that relies on the background scrubber alone.
    pub inpath_verify: bool,
    /// The scrubber performs one incremental sweep step every `scrub_every` dispatched
    /// batches; `0` disables scrubbing entirely.
    pub scrub_every: usize,
    /// Layers verified per scrub step (clamped to the model's layer count; `0` means
    /// the whole model per step).
    pub scrub_layers: usize,
    /// The re-keying step performs one rotation action (begin a roll,
    /// re-sign one layer, publish the next epoch, retire the previous one) every
    /// `rotate_every` dispatched batches; `0` disables key rotation. A full roll
    /// of an `L`-layer model therefore spans `L + 3` rotation ticks, during which
    /// workers keep serving — verification pins the epoch it observed and the
    /// protection accepts `{current, previous}` across the publish.
    pub rotate_every: usize,
    /// Served-accuracy window size, in requests.
    pub window: usize,
    /// Observability recording level (`Off | Counters | Full`). The journal and the
    /// metrics [`ServeOutcome`](crate::ServeOutcome) derives from record at every
    /// level; `Full` additionally records profiling spans for the Chrome trace
    /// exporter.
    pub obs: ObsLevel,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(50),
            strict_batching: false,
            queue_capacity: 64,
            inpath_verify: true,
            scrub_every: 4,
            scrub_layers: 4,
            rotate_every: 0,
            window: 64,
            obs: ObsLevel::default(),
        }
    }
}

impl ServeConfig {
    /// Applies the `RADAR_SERVE_*` environment overrides on top of `self`.
    pub fn from_env(mut self) -> Self {
        let get = |key: &str| -> Option<usize> { std::env::var(key).ok()?.parse().ok() };
        if let Some(workers) = get("RADAR_SERVE_WORKERS") {
            self.workers = workers.max(1);
        }
        if let Some(batch) = get("RADAR_SERVE_BATCH") {
            self.max_batch = batch.max(1);
        }
        self
    }

    /// The unprotected-baseline variant: no in-path verification, no scrubbing.
    pub fn unprotected(mut self) -> Self {
        self.inpath_verify = false;
        self.scrub_every = 0;
        self
    }

    /// The scrub-only variant: detection happens exclusively in the background sweep,
    /// never in the fetch path.
    pub fn scrub_only(mut self) -> Self {
        self.inpath_verify = false;
        self
    }

    /// Enables online key rotation at the given cadence (one rotation action every
    /// `every` dispatched batches; see [`rotate_every`](Self::rotate_every)).
    pub fn with_rotation(mut self, every: usize) -> Self {
        self.rotate_every = every;
        self
    }

    /// Sets the observability recording level (see [`obs`](Self::obs)).
    pub fn with_obs(mut self, level: ObsLevel) -> Self {
        self.obs = level;
        self
    }

    /// Panics unless the configuration is runnable (non-zero workers, batch size and
    /// window; a non-empty queue).
    pub fn validate(&self) {
        assert!(self.workers >= 1, "at least one worker is required");
        assert!(self.max_batch >= 1, "max_batch must be non-zero");
        assert!(self.queue_capacity >= 1, "queue_capacity must be non-zero");
        assert!(self.window >= 1, "window must be non-zero");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = ServeConfig::default();
        cfg.validate();
        assert!(cfg.inpath_verify);
        assert!(cfg.scrub_every > 0);
        assert_eq!(cfg.obs, ObsLevel::Counters);
        assert_eq!(cfg.with_obs(ObsLevel::Full).obs, ObsLevel::Full);
    }

    #[test]
    fn unprotected_disables_both_detection_paths() {
        let cfg = ServeConfig::default().unprotected();
        assert!(!cfg.inpath_verify);
        assert_eq!(cfg.scrub_every, 0);
        let scrub_only = ServeConfig::default().scrub_only();
        assert!(!scrub_only.inpath_verify);
        assert!(scrub_only.scrub_every > 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        }
        .validate();
    }
}
