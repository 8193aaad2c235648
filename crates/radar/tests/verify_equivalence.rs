//! Property-based equivalence proofs for `RadarProtection`'s three verify entry
//! points: the fused fetch-and-verify over raw bytes, the unfused per-layer check and
//! the model-level `detect` must produce exactly the same report — same flag set, same
//! `(layer, group)` order — for arbitrary layer counts and sizes, group sizes and
//! corruption patterns, and the fused copy must be the layer's values bit for bit.
//! Recovery driven by a merged report of overlapping per-layer checks must zero each
//! flagged group exactly once.

use proptest::prelude::*;
use radar_core::{DetectionReport, FlaggedGroup, RadarConfig, RadarProtection};
use radar_nn::{Linear, Sequential};
use radar_quant::{QuantizedModel, MSB};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a quantized model whose protected layers have exactly the given weight
/// counts (one `Linear(size, 1)` per entry; the model is never run forward, so the
/// layer dimensions do not need to chain).
fn model_with_layer_sizes(sizes: &[usize], seed: u64) -> QuantizedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = Sequential::new();
    for &size in sizes {
        seq.push(Linear::new(&mut rng, size, 1));
    }
    QuantizedModel::new(Box::new(seq))
}

fn config_from(g: usize, interleave: bool, masking: bool, three_bit: bool) -> RadarConfig {
    let mut cfg = if interleave {
        RadarConfig::paper_default(g)
    } else {
        RadarConfig::without_interleave(g)
    }
    .with_masking(masking);
    if three_bit {
        cfg = cfg.with_three_bit_signature();
    }
    cfg
}

proptest! {
    /// Per layer, the fused fetch over the layer's values as raw bytes ≡ the unfused
    /// check ≡ `detect`'s flags for that layer, under sweeps of (layer sizes, G,
    /// interleave, masking, signature width, flips at any bit): strict equality proves
    /// the flag sets match and the order is preserved, and the merged per-layer reports
    /// equal `detect` as a whole with no duplicates.
    #[test]
    fn fused_fetch_equals_detect(
        sizes in prop::collection::vec(4usize..400, 1..10),
        g in 1usize..96,
        seed in any::<u64>(),
        raw_flips in prop::collection::vec((any::<u16>(), any::<u16>(), any::<bool>()), 0..24),
        interleave in any::<bool>(),
        masking in any::<bool>(),
        three_bit in any::<bool>(),
    ) {
        let mut model = model_with_layer_sizes(&sizes, seed);
        let radar = RadarProtection::new(&model, config_from(g, interleave, masking, three_bit));
        for &(a, b, msb) in &raw_flips {
            let layer = a as usize % sizes.len();
            let weight = b as usize % sizes[layer];
            let bit = if msb { MSB } else { a as u32 % 8 };
            model.flip_bit(layer, weight, bit);
        }
        let full = radar.detect(&model);
        let epoch = radar.current_epoch();
        let (mut dst, mut acc) = (Vec::new(), Vec::new());
        let mut merged = DetectionReport::default();
        for layer in 0..sizes.len() {
            let values = model.layer_values(layer);
            let bytes: Vec<u8> = values.iter().map(|v| v.to_ne_bytes()[0]).collect();
            let fused = radar.fetch_verify_layer_at_epoch_with_scratch(
                epoch, layer, &bytes, &mut dst, &mut acc,
            );
            let unfused = radar.verify_layer_values_with_scratch(layer, values, &mut acc);
            let from_detect: Vec<FlaggedGroup> =
                full.flagged.iter().copied().filter(|f| f.layer == layer).collect();
            prop_assert_eq!(&fused, &unfused, "fused and unfused diverge on layer {}", layer);
            prop_assert_eq!(&unfused.flagged, &from_detect, "detect diverges on layer {}", layer);
            prop_assert_eq!(dst.as_slice(), values, "fused copy differs on layer {}", layer);
            merged.merge(&fused);
        }
        prop_assert_eq!(&merged, &full, "merged per-layer reports diverge from detect");
        let set: std::collections::HashSet<(usize, usize)> =
            full.flagged.iter().map(|f| (f.layer, f.group)).collect();
        prop_assert_eq!(set.len(), full.flagged.len(), "detect report has duplicates");
    }

    /// Recovery from a report merged out of overlapping per-layer checks zeroes each
    /// flagged group exactly once: the merged report equals the full-pass report, and
    /// the recovery statistics match a straight detect-and-recover on an identical
    /// model.
    #[test]
    fn merged_overlapping_recovery_zeroes_groups_once(
        sizes in prop::collection::vec(8usize..200, 2..8),
        g in 2usize..64,
        seed in any::<u64>(),
        raw_flips in prop::collection::vec((any::<u16>(), any::<u16>()), 1..12),
        split in 1usize..7,
    ) {
        let mut model = model_with_layer_sizes(&sizes, seed);
        let mut twin = model_with_layer_sizes(&sizes, seed);
        let cfg = config_from(g, true, true, false);
        let mut radar = RadarProtection::new(&model, cfg);
        let mut radar_twin = RadarProtection::new(&twin, cfg);
        for &(a, b) in &raw_flips {
            let layer = a as usize % sizes.len();
            let weight = b as usize % sizes[layer];
            model.flip_bit(layer, weight, MSB);
            twin.flip_bit(layer, weight, MSB);
        }
        // Overlapping coverage: per-layer checks over [0, mid+1) and
        // [mid.saturating_sub(1), n) double-check the boundary layers, plus a full-pass
        // merge on top for maximal duplication.
        let n = sizes.len();
        let mid = split.min(n - 1);
        let mut acc = Vec::new();
        let mut merged = DetectionReport::default();
        for layer in (0..(mid + 1).min(n)).chain(mid.saturating_sub(1)..n) {
            merged.merge(&radar.verify_layer_values_with_scratch(
                layer,
                model.layer_values(layer),
                &mut acc,
            ));
        }
        merged.merge(&radar.detect(&model));
        let (full, expected_recovery) = radar_twin.detect_and_recover(&mut twin);
        prop_assert_eq!(&merged, &full, "merged overlapping ranges diverge from full detect");
        let recovery = radar.recover(&mut model, &merged);
        prop_assert_eq!(recovery.groups_zeroed, expected_recovery.groups_zeroed);
        prop_assert_eq!(recovery.weights_zeroed, expected_recovery.weights_zeroed);
        prop_assert_eq!(recovery.groups_zeroed, full.num_flagged());
        prop_assert!(!radar.detect(&model).attack_detected());
        prop_assert_eq!(model.snapshot(), twin.snapshot());
    }
}
