//! Property-based equivalence proofs for the streaming verification plan: the one-pass
//! storage-order signatures must equal the per-group gather signatures for arbitrary
//! layer shapes, keys and signature widths; the fused copy-and-verify sweep must be
//! bit-identical to copying first and accumulating second; and the group layout must
//! stay a bijection even when the layer length is not a multiple of the group size
//! (padding suffix).

use proptest::prelude::*;
use radar_core::{
    gather_signatures, GroupLayout, Grouping, LayerPlan, SecretKey, SignatureBits, VERIFY_LANES,
};

fn bits_from(three: bool) -> SignatureBits {
    if three {
        SignatureBits::Three
    } else {
        SignatureBits::Two
    }
}

proptest! {
    /// The streaming one-pass signatures equal the per-group gather signatures for
    /// arbitrary `(len, group_size, offset, key, SignatureBits)` under interleaving.
    #[test]
    fn streaming_equals_gather_interleaved(
        weights in prop::collection::vec(any::<i8>(), 1..1200),
        group_size in 1usize..300,
        offset in 0usize..9,
        key_bits in any::<u16>(),
        three_bit in any::<bool>(),
    ) {
        let layout = GroupLayout::new(weights.len(), group_size, Grouping::Interleaved { offset });
        let key = SecretKey::new(key_bits);
        let bits = bits_from(three_bit);
        let plan = LayerPlan::new(layout, key);
        prop_assert_eq!(
            plan.signatures(&weights, bits),
            gather_signatures(&weights, &layout, &key, bits)
        );
    }

    /// Same equivalence for the contiguous ("without interleave") ablation.
    #[test]
    fn streaming_equals_gather_contiguous(
        weights in prop::collection::vec(any::<i8>(), 1..1200),
        group_size in 1usize..300,
        key_bits in any::<u16>(),
        three_bit in any::<bool>(),
    ) {
        let layout = GroupLayout::new(weights.len(), group_size, Grouping::Contiguous);
        let key = SecretKey::new(key_bits);
        let bits = bits_from(three_bit);
        let plan = LayerPlan::new(layout, key);
        prop_assert_eq!(
            plan.signatures(&weights, bits),
            gather_signatures(&weights, &layout, &key, bits)
        );
    }

    /// The fused copy-and-verify sweep is bit-identical to copying first and
    /// accumulating second — same output bytes, same `i32` accumulators — for
    /// arbitrary DRAM bytes, ragged layer lengths, group sizes straddling the SIMD
    /// lane width, both groupings, and masked keys. `i32` addition is exact, so
    /// folding each chunk as it is copied cannot diverge from the two-pass sums.
    #[test]
    fn fused_copy_accumulate_equals_copy_then_accumulate(
        src in prop::collection::vec(any::<u8>(), 1..1200),
        group_delta in 0usize..(3 * VERIFY_LANES),
        offset in 0usize..9,
        key_bits in any::<u16>(),
        interleaved in any::<bool>(),
    ) {
        // Group sizes from 1 up past 3 lanes: straddles chunks_exact remainders on
        // both the group and the layer boundary.
        let group_size = 1 + group_delta;
        let grouping = if interleaved {
            Grouping::Interleaved { offset }
        } else {
            Grouping::Contiguous
        };
        let layout = GroupLayout::new(src.len(), group_size, grouping);
        let plan = LayerPlan::new(layout, SecretKey::new(key_bits));

        // Reference: copy the bytes, then run the shipped two-pass accumulate.
        let reference: Vec<i8> = src.iter().map(|&b| i8::from_ne_bytes([b])).collect();
        let mut want = vec![0i32; plan.num_groups()];
        plan.accumulate(&reference, &mut want);

        let mut dst = Vec::new();
        let mut got = vec![0i32; plan.num_groups()];
        plan.copy_accumulate(&src, &mut dst, &mut got);
        prop_assert_eq!(dst, reference, "fused copy diverged from the plain copy");
        prop_assert_eq!(got, want, "fused accumulators diverged");
    }

    /// The fused sweep under the unmasked ablation key: every mask entry is `+1`,
    /// so the accumulators are plain group sums — and the fused path must still be
    /// bit-identical to copy-then-accumulate (the mask-free specialization takes a
    /// different multiply path only in spirit, never in value).
    #[test]
    fn fused_sweep_matches_under_the_unmasked_ablation(
        src in prop::collection::vec(any::<u8>(), 1..800),
        group_size in 1usize..130,
        offset in 0usize..5,
    ) {
        let layout = GroupLayout::new(src.len(), group_size, Grouping::Interleaved { offset });
        let plan = LayerPlan::new(layout, SecretKey::insecure_unmasked());
        let reference: Vec<i8> = src.iter().map(|&b| i8::from_ne_bytes([b])).collect();
        let mut want = vec![0i32; plan.num_groups()];
        plan.accumulate(&reference, &mut want);
        let mut dst = Vec::new();
        let mut got = vec![0i32; plan.num_groups()];
        plan.copy_accumulate(&src, &mut dst, &mut got);
        prop_assert_eq!(dst, reference);
        prop_assert_eq!(got, want);
    }

    /// Reusing the same scratch buffers across layers of different shapes never
    /// leaks state: a fused sweep after a larger sweep equals a fresh-buffer sweep.
    #[test]
    fn fused_sweep_scratch_reuse_is_stateless(
        first in prop::collection::vec(any::<u8>(), 64..1200),
        second_len in 1usize..64,
        group_size in 1usize..40,
        key_bits in any::<u16>(),
    ) {
        let second = &first[..second_len];
        let key = SecretKey::new(key_bits);
        let big = LayerPlan::new(
            GroupLayout::new(first.len(), group_size, Grouping::Contiguous),
            key,
        );
        let small = LayerPlan::new(
            GroupLayout::new(second.len(), group_size, Grouping::Contiguous),
            key,
        );

        // Dirty the scratch with the large layer, then sweep the small one.
        let mut dst = Vec::new();
        let mut acc = vec![0i32; big.num_groups()];
        big.copy_accumulate(&first, &mut dst, &mut acc);
        let mut reused_acc = vec![0i32; small.num_groups()];
        small.copy_accumulate(second, &mut dst, &mut reused_acc);

        let mut fresh_dst = Vec::new();
        let mut fresh_acc = vec![0i32; small.num_groups()];
        small.copy_accumulate(second, &mut fresh_dst, &mut fresh_acc);
        prop_assert_eq!(dst, fresh_dst);
        prop_assert_eq!(reused_acc, fresh_acc);
    }

    /// The layout remains a bijection between weight indices and `(group, slot)` pairs
    /// when the layer length is not a multiple of the group size (the padded-suffix
    /// case): every index appears in exactly one group, and each group's `members`
    /// iterator yields exactly the indices `group_of` maps to it, in strictly
    /// ascending slot order.
    #[test]
    fn layout_is_a_bijection_for_non_multiple_lengths(
        len in 1usize..1500,
        group_size in 2usize..300,
        offset in 0usize..9,
    ) {
        prop_assume!(len % group_size != 0);
        for grouping in [Grouping::Contiguous, Grouping::Interleaved { offset }] {
            let layout = GroupLayout::new(len, group_size, grouping);
            let mut seen = vec![0usize; len];
            for g in 0..layout.num_groups() {
                let members: Vec<usize> = layout.members(g).collect();
                let expected = (0..len).filter(|&i| layout.group_of(i) == g).count();
                prop_assert_eq!(members.len(), expected, "group {} member count", g);
                for pair in members.windows(2) {
                    prop_assert!(
                        layout.slot_of(pair[0]) < layout.slot_of(pair[1]),
                        "group {} not in ascending slot order: {:?}", g, pair
                    );
                }
                for &i in &members {
                    prop_assert_eq!(layout.group_of(i), g);
                    seen[i] += 1;
                }
            }
            prop_assert!(
                seen.iter().all(|&c| c == 1),
                "{:?}: some index is covered {:?} times",
                grouping,
                seen.iter().copied().max()
            );
        }
    }
}
