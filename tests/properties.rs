//! Property-based tests of the core invariants the RADAR scheme relies on.

use proptest::prelude::*;
use radar_repro::core::{
    binarize, group_signature, masked_sum, GroupLayout, Grouping, SecretKey, SignatureBits,
};
use radar_repro::integrity::{Crc, GroupCode, HammingSecDed};
use radar_repro::quant::QuantizedTensor;
use radar_repro::tensor::Tensor;

proptest! {
    /// Interleaved and contiguous layouts are both exact partitions of the weight
    /// indices: every index belongs to exactly one group, and `group_of` agrees with
    /// `members`.
    #[test]
    fn group_layout_is_a_partition(
        len in 1usize..4000,
        group_size in 1usize..600,
        offset in 0usize..17,
        interleaved in any::<bool>(),
    ) {
        let grouping = if interleaved { Grouping::Interleaved { offset } } else { Grouping::Contiguous };
        let layout = GroupLayout::new(len, group_size, grouping);
        let mut seen = vec![0u8; len];
        for g in 0..layout.num_groups() {
            for i in layout.members(g) {
                prop_assert!(i < len);
                prop_assert_eq!(layout.group_of(i), g);
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// Group membership never exceeds the configured group size.
    #[test]
    fn groups_never_exceed_group_size(
        len in 1usize..4000,
        group_size in 1usize..600,
        offset in 0usize..17,
    ) {
        let layout = GroupLayout::new(len, group_size, Grouping::Interleaved { offset });
        for g in 0..layout.num_groups() {
            prop_assert!(layout.members(g).count() <= group_size);
        }
    }

    /// A single MSB flip anywhere in a group always toggles the parity bit `S_B`,
    /// regardless of the key and the other weights (the paper's core detection claim).
    #[test]
    fn single_msb_flip_always_detected(
        mut weights in prop::collection::vec(any::<i8>(), 1..600),
        key_bits in any::<u16>(),
        idx in any::<prop::sample::Index>(),
    ) {
        let key = SecretKey::new(key_bits);
        let target = idx.index(weights.len());
        let before = group_signature(&weights, &key, SignatureBits::Two);
        weights[target] = (weights[target] as u8 ^ 0x80) as i8;
        let after = group_signature(&weights, &key, SignatureBits::Two);
        prop_assert_ne!(before & 1, after & 1);
    }

    /// A single MSB-1 flip always toggles the extra bit of the 3-bit signature.
    #[test]
    fn single_msb1_flip_always_detected_by_three_bit_signature(
        mut weights in prop::collection::vec(any::<i8>(), 1..600),
        key_bits in any::<u16>(),
        idx in any::<prop::sample::Index>(),
    ) {
        let key = SecretKey::new(key_bits);
        let target = idx.index(weights.len());
        let before = group_signature(&weights, &key, SignatureBits::Three);
        weights[target] = (weights[target] as u8 ^ 0x40) as i8;
        let after = group_signature(&weights, &key, SignatureBits::Three);
        prop_assert_ne!(before, after);
    }

    /// The masked sum is the plain sum with signs decided by the key, and the signature
    /// is a pure function of that sum.
    #[test]
    fn masked_sum_matches_reference(
        weights in prop::collection::vec(any::<i8>(), 0..200),
        key_bits in any::<u16>(),
    ) {
        let key = SecretKey::new(key_bits);
        let reference: i32 = weights
            .iter()
            .enumerate()
            .map(|(t, &w)| if (key_bits >> (t % 16)) & 1 == 1 { i32::from(w) } else { -i32::from(w) })
            .sum();
        prop_assert_eq!(masked_sum(&weights, &key), reference);
        prop_assert_eq!(
            group_signature(&weights, &key, SignatureBits::Two),
            binarize(reference, SignatureBits::Two)
        );
    }

    /// Quantization error is bounded by half a step, and bit flips are involutions.
    #[test]
    fn quantization_roundtrip_and_flip_involution(
        values in prop::collection::vec(-4.0f32..4.0, 1..100),
        bit in 0u32..8,
        idx in any::<prop::sample::Index>(),
    ) {
        let t = Tensor::from_vec(values.clone(), &[values.len()]).expect("shape matches");
        let mut q = QuantizedTensor::quantize(&t);
        let back = q.dequantize();
        for (a, b) in back.data().iter().zip(&values) {
            prop_assert!((a - b).abs() <= q.scale() * 0.5 + 1e-6);
        }
        let target = idx.index(values.len());
        let original = q.value(target);
        q.flip_bit(target, bit);
        q.flip_bit(target, bit);
        prop_assert_eq!(q.value(target), original);
    }

    /// CRC-13 and Hamming SEC-DED detect every single-bit error in a group (RADAR's
    /// comparison baselines must themselves be correct for Table V to be meaningful).
    #[test]
    fn comparison_codes_detect_single_bit_errors(
        mut group in prop::collection::vec(any::<i8>(), 1..128),
        byte in any::<prop::sample::Index>(),
        bit in 0u32..8,
    ) {
        let crc = Crc::crc13();
        let hamming = HammingSecDed::new();
        let crc_golden = crc.encode(&group);
        let hamming_golden = hamming.encode(&group);
        let target = byte.index(group.len());
        group[target] = (group[target] as u8 ^ (1 << bit)) as i8;
        prop_assert!(crc.detects(crc_golden, &group));
        prop_assert!(hamming.detects(hamming_golden, &group));
    }

    /// Tensor reshape preserves data and element count.
    #[test]
    fn tensor_reshape_preserves_data(data in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let n = data.len();
        let t = Tensor::from_vec(data.clone(), &[n]).expect("shape matches");
        let r = t.reshape(&[1, n]).expect("same element count");
        prop_assert_eq!(r.data(), &data[..]);
    }
}
