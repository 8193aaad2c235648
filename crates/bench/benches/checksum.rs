//! Criterion micro-benchmarks of the RADAR signature primitive: masked addition
//! checksum, per-layer signing, and the gather-vs-streaming verification comparison
//! (the legacy per-group gather path against the precomputed `LayerPlan` sweep).

// criterion_group! expands to undocumented glue functions.
#![allow(missing_docs)]

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use radar_core::{
    gather_signatures, masked_sum, GroupLayout, Grouping, LayerPlan, SecretKey, SignatureBits,
};

fn bench_masked_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("masked_sum");
    for &size in &[8usize, 64, 512] {
        let weights: Vec<i8> = (0..size).map(|i| (i as i32 % 251 - 125) as i8).collect();
        let key = SecretKey::new(0xACE1);
        group.bench_with_input(BenchmarkId::from_parameter(size), &weights, |b, w| {
            b.iter(|| masked_sum(black_box(w), black_box(&key)))
        });
    }
    group.finish();
}

fn bench_layer_signing(c: &mut Criterion) {
    // Sign a 64k-weight layer (≈ one mid-sized conv layer of ResNet-18) end to end.
    let weights: Vec<i8> = (0..65_536).map(|i| (i % 251 - 125) as i8).collect();
    let key = SecretKey::new(0xBEEF);
    let mut group = c.benchmark_group("layer_signing_64k");
    for (name, grouping) in [
        ("contiguous", Grouping::Contiguous),
        ("interleaved", Grouping::interleaved()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let layout = GroupLayout::new(weights.len(), 512, grouping);
                black_box(gather_signatures(
                    &weights,
                    &layout,
                    &key,
                    SignatureBits::Two,
                ))
            })
        });
    }
    group.finish();
}

fn bench_gather_vs_streaming(c: &mut Criterion) {
    // Verify a 256k-weight layer (≈ ResNet-18's largest conv) per pass: the legacy
    // gather path re-derives the interleave mapping and allocates a member list per
    // group, while the streaming path sweeps the weights once through a precomputed
    // plan. Plan construction is hoisted out of the measured loop for the streaming
    // side because it happens once, at signing time.
    let weights: Vec<i8> = (0..262_144).map(|i| (i % 251 - 125) as i8).collect();
    let key = SecretKey::new(0xACE1);
    let layout = GroupLayout::new(weights.len(), 512, Grouping::interleaved());
    let plan = LayerPlan::new(layout, key);
    let mut acc = vec![0i32; layout.num_groups()];
    let mut sigs = Vec::with_capacity(layout.num_groups());

    let mut group = c.benchmark_group("verify_256k_g512");
    group.bench_function("legacy_gather", |b| {
        b.iter(|| {
            black_box(gather_signatures(
                black_box(&weights),
                &layout,
                &key,
                SignatureBits::Two,
            ))
        })
    });
    group.bench_function("plan_streaming", |b| {
        b.iter(|| {
            plan.signatures_into(black_box(&weights), SignatureBits::Two, &mut acc, &mut sigs);
            black_box(sigs.last().copied())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_masked_sum, bench_layer_signing, bench_gather_vs_streaming
}
criterion_main!(benches);
