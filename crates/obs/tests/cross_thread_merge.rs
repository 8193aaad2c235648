//! Cross-thread registry merge algebra: shards recorded on real OS threads merge
//! associatively and commutatively, so neither the thread schedule nor the flush
//! order can change the session's merged metrics.

use radar_obs::{Labels, MetricsRegistry, ObsCore, ObsLevel, ObsShard, Tid};

/// One worker's recording: a counter and a histogram, keyed so the slices overlap
/// across workers.
fn record(shard: &mut ObsShard, worker: u32) {
    for i in 0..50u64 {
        shard.force_add("merge.calls", Labels::none(), 1);
        shard.force_add("merge.calls", Labels::none().worker(worker), 1);
        shard.force_record_ns("merge.latency_ns", Labels::none(), 1_000 * (i + 1));
    }
}

/// Builds one worker's registry slice on its own thread, through its own session.
fn recorded_on_thread(worker: u32) -> MetricsRegistry {
    std::thread::spawn(move || {
        let core = ObsCore::new(ObsLevel::Counters);
        let mut shard = core.shard(Tid::Worker(worker as u16));
        record(&mut shard, worker);
        core.flush(&mut shard);
        core.finish().registry
    })
    .join()
    .expect("recorder thread panicked")
}

fn merged<'a>(parts: impl IntoIterator<Item = &'a MetricsRegistry>) -> MetricsRegistry {
    let mut out = MetricsRegistry::new();
    for part in parts {
        out.merge(part);
    }
    out
}

/// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` and every permutation agrees — for registries
/// genuinely produced on three different threads.
#[test]
fn cross_thread_registry_merge_is_associative_and_commutative() {
    let a = recorded_on_thread(0);
    let b = recorded_on_thread(1);
    let c = recorded_on_thread(2);

    // Associativity: fold left vs. fold right.
    let left = merged([&a, &b, &c]);
    let bc = merged([&b, &c]);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left, right, "merge must be associative");

    // Commutativity: every permutation produces the identical registry.
    for perm in [
        [&a, &c, &b],
        [&b, &a, &c],
        [&b, &c, &a],
        [&c, &a, &b],
        [&c, &b, &a],
    ] {
        assert_eq!(left, merged(perm), "merge must be order-independent");
    }

    // And the merged numbers are the cross-thread totals.
    assert_eq!(left.counter_sum("merge.calls"), 300);
    assert_eq!(left.histogram_merged("merge.latency_ns").count(), 150);
}

/// The same invariant through the real concurrency machinery: shards created from
/// one `ObsCore`, recorded and flushed by racing threads, finish into a registry
/// equal to the hand-merged one.
#[test]
fn racing_core_flushes_equal_the_hand_merged_registry() {
    let sequential = merged([
        &recorded_on_thread(0),
        &recorded_on_thread(1),
        &recorded_on_thread(2),
    ]);

    let core = ObsCore::new(ObsLevel::Counters);
    std::thread::scope(|scope| {
        for worker in 0..3u32 {
            let core = &core;
            scope.spawn(move || {
                let mut shard = core.shard(Tid::Worker(worker as u16));
                record(&mut shard, worker);
                core.flush(&mut shard);
            });
        }
    });
    let report = core.finish();
    assert_eq!(
        report.registry, sequential,
        "flush racing must not change the merge"
    );
}
