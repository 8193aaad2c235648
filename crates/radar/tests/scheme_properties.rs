//! Property-based tests of the RADAR scheme's detection guarantees on raw weight
//! buffers (no neural network in the loop, so thousands of cases stay fast).

use proptest::prelude::*;
use radar_core::{
    gather_signatures, group_signature, GroupLayout, Grouping, KeyEpoch, KeySchedule, SecretKey,
    SignatureBits,
};

/// Computes the per-group signatures of a whole layer under a layout and key, through
/// the shared gather reference path.
fn layer_signatures(
    weights: &[i8],
    layout: &GroupLayout,
    key: &SecretKey,
    bits: SignatureBits,
) -> Vec<u8> {
    gather_signatures(weights, layout, key, bits)
}

proptest! {
    /// Any single MSB flip in a layer is detected (its group's signature changes),
    /// for any layer contents, any group size, any interleave offset and any key.
    #[test]
    fn any_single_msb_flip_is_flagged(
        mut weights in prop::collection::vec(any::<i8>(), 8..1500),
        group_size in 2usize..600,
        offset in 0usize..9,
        key_bits in any::<u16>(),
        target in any::<prop::sample::Index>(),
    ) {
        let layout = GroupLayout::new(weights.len(), group_size, Grouping::Interleaved { offset });
        let key = SecretKey::new(key_bits);
        let golden = layer_signatures(&weights, &layout, &key, SignatureBits::Two);

        let idx = target.index(weights.len());
        weights[idx] = (weights[idx] as u8 ^ 0x80) as i8;

        let fresh = layer_signatures(&weights, &layout, &key, SignatureBits::Two);
        let flagged_group = layout.group_of(idx);
        prop_assert_ne!(golden[flagged_group], fresh[flagged_group]);
        // No other group is disturbed (exactly one group flags).
        for g in 0..layout.num_groups() {
            if g != flagged_group {
                prop_assert_eq!(golden[g], fresh[g]);
            }
        }
    }

    /// Zero-out recovery is idempotent with respect to the signatures: after zeroing a
    /// flagged group and re-signing it, a second detection pass is clean.
    #[test]
    fn zeroing_a_group_and_resigning_clears_the_flag(
        mut weights in prop::collection::vec(any::<i8>(), 8..800),
        group_size in 2usize..128,
        key_bits in any::<u16>(),
        target in any::<prop::sample::Index>(),
    ) {
        let layout = GroupLayout::new(weights.len(), group_size, Grouping::interleaved());
        let key = SecretKey::new(key_bits);
        let mut golden = layer_signatures(&weights, &layout, &key, SignatureBits::Two);

        let idx = target.index(weights.len());
        weights[idx] = (weights[idx] as u8 ^ 0x80) as i8;
        let group = layout.group_of(idx);

        // Recovery: zero every member, re-sign that group.
        for member in layout.members(group) {
            weights[member] = 0;
        }
        let zeroed: Vec<i8> = layout.members(group).map(|i| weights[i]).collect();
        golden[group] = group_signature(&zeroed, &key, SignatureBits::Two);

        let fresh = layer_signatures(&weights, &layout, &key, SignatureBits::Two);
        prop_assert_eq!(golden, fresh);
    }

    /// Paired opposite-direction MSB flips inside one *contiguous* group evade the
    /// unmasked plain checksum (the attack the knowledgeable adversary mounts), while
    /// interleaving places contiguous neighbours in different groups where each flip is
    /// caught — the structural argument behind Fig. 7.
    #[test]
    fn interleaving_catches_adjacent_opposite_pairs_that_plain_grouping_misses(
        base in prop::collection::vec(1i8..120, 64..512),
        pair_start in any::<prop::sample::Index>(),
    ) {
        // Build a layer with alternating signs so an adjacent opposite-direction pair
        // always exists at an even offset.
        let mut weights: Vec<i8> = base
            .iter()
            .enumerate()
            .map(|(i, &w)| if i % 2 == 0 { w } else { -w })
            .collect();
        let g = 32usize;
        let start = (pair_start.index(weights.len() / 2 - 1)) * 2;
        prop_assume!(start / g == (start + 1) / g); // both in the same contiguous group

        let key = SecretKey::insecure_unmasked(); // unmasked plain checksum
        let plain = GroupLayout::new(weights.len(), g, Grouping::Contiguous);
        let inter = GroupLayout::new(weights.len(), g, Grouping::interleaved());
        prop_assume!(inter.group_of(start) != inter.group_of(start + 1));

        let plain_golden = layer_signatures(&weights, &plain, &key, SignatureBits::Two);
        let inter_golden = layer_signatures(&weights, &inter, &key, SignatureBits::Two);

        // Positive weight: MSB 0→1; negative neighbour: MSB 1→0 (sum preserved).
        weights[start] = (weights[start] as u8 ^ 0x80) as i8;
        weights[start + 1] = (weights[start + 1] as u8 ^ 0x80) as i8;

        let plain_fresh = layer_signatures(&weights, &plain, &key, SignatureBits::Two);
        let inter_fresh = layer_signatures(&weights, &inter, &key, SignatureBits::Two);

        prop_assert_eq!(&plain_golden, &plain_fresh, "plain checksum should be evaded");
        prop_assert_ne!(
            inter_golden[inter.group_of(start)],
            inter_fresh[inter.group_of(start)],
            "interleaving must catch the first flip"
        );
        prop_assert_ne!(
            inter_golden[inter.group_of(start + 1)],
            inter_fresh[inter.group_of(start + 1)],
            "interleaving must catch the second flip"
        );
    }

    /// The key schedule's `(layer, epoch)` cells behave as independent PRF outputs:
    /// derivation is deterministic per cell, a 12-cell grid is (up to the 2⁻¹⁶
    /// birthday floor of a 16-bit key) collision-free, and signing the same weights
    /// under two distinct epochs produces observably different signature vectors.
    #[test]
    fn key_schedule_cells_are_deterministic_and_independent(
        master_seed in any::<u64>(),
        weights in prop::collection::vec(any::<i8>(), 256..1024),
        group_size in 8usize..32,
    ) {
        let schedule = KeySchedule::from_seed(master_seed);
        let mut cells = Vec::new();
        for layer in 0..4usize {
            for epoch in 0..3u32 {
                let epoch = KeyEpoch::new(epoch);
                let key = schedule.layer_key(layer, epoch);
                prop_assert_eq!(key, schedule.layer_key(layer, epoch), "derivation is pure");
                cells.push(key);
            }
        }
        // 12 16-bit draws collide once with p ≈ 10⁻³; twice with p ≈ 5·10⁻⁷. Allowing
        // one collision keeps the property sound without making the test flaky.
        let distinct = cells.iter().collect::<std::collections::HashSet<_>>().len();
        prop_assert!(distinct >= cells.len() - 1, "cells must not systematically collide");

        // Distinct epoch keys are observable in the signatures: with ≥8 groups the
        // per-group sig vectors under two different keys agree only with vanishing
        // probability.
        let layout = GroupLayout::new(weights.len(), group_size, Grouping::interleaved());
        let k0 = schedule.layer_key(0, KeyEpoch::ZERO);
        let k1 = schedule.layer_key(0, KeyEpoch::ZERO.next());
        prop_assume!(k0 != k1);
        let sig0 = layer_signatures(&weights, &layout, &k0, SignatureBits::Two);
        let sig1 = layer_signatures(&weights, &layout, &k1, SignatureBits::Two);
        prop_assert_ne!(sig0, sig1, "epoch roll must re-randomize the signature vector");
    }

    /// Mid-roll, a single MSB flip is detected under *both* retained epochs: the
    /// ±128 delta toggles the parity bit `S_B` under any key, so whichever epoch a
    /// worker pinned — current or previous — the flipped group flags.
    #[test]
    fn single_msb_flip_is_caught_under_both_epochs_mid_roll(
        master_seed in any::<u64>(),
        mut weights in prop::collection::vec(any::<i8>(), 64..1024),
        group_size in 2usize..128,
        layer in 0usize..8,
        target in any::<prop::sample::Index>(),
    ) {
        let schedule = KeySchedule::from_seed(master_seed);
        let previous = schedule.layer_key(layer, KeyEpoch::ZERO);
        let current = schedule.layer_key(layer, KeyEpoch::ZERO.next());
        let layout = GroupLayout::new(weights.len(), group_size, Grouping::interleaved());
        let golden_prev = layer_signatures(&weights, &layout, &previous, SignatureBits::Two);
        let golden_curr = layer_signatures(&weights, &layout, &current, SignatureBits::Two);

        let idx = target.index(weights.len());
        weights[idx] = (weights[idx] as u8 ^ 0x80) as i8;
        let group = layout.group_of(idx);

        let fresh_prev = layer_signatures(&weights, &layout, &previous, SignatureBits::Two);
        let fresh_curr = layer_signatures(&weights, &layout, &current, SignatureBits::Two);
        prop_assert_ne!(golden_prev[group], fresh_prev[group], "previous epoch must flag");
        prop_assert_ne!(golden_curr[group], fresh_curr[group], "current epoch must flag");
    }
}
