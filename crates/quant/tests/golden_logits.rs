//! Golden output pins for the quantized-native forward path.
//!
//! The integer forward is rewritten for speed from time to time (vectorized
//! quantization, plane-wise im2col, cache-free eval layers). None of those rewrites
//! may change a single output bit, so these tests hash the exact `f32` bits of the
//! logits of two seeded models and compare them with hashes recorded from the
//! forward as it was before those rewrites. The models get non-trivial batch-norm statistics and affine
//! parameters, and non-zero biases, so every float pass between the GEMMs shows up
//! in the hash.
//!
//! Logits come out of a classifier that quantizes its input to 8 bits, which
//! absorbs most last-place changes in the layers before it. So a third pin hashes
//! the float feature map of a convolutional trunk with no classifier: there, a
//! reassociated batch-norm product or a reordered residual add changes the hash.

use radar_nn::{
    resnet18, resnet20, BatchNorm2d, Conv2d, Layer, MaxPool2d, Relu, ResNetConfig, ResidualBlock,
    Sequential,
};
use radar_quant::QuantizedModel;
use radar_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a over the little-endian bytes of each output's bit pattern.
fn fnv1a_bits(out: &Tensor) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in out.data() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Gives every non-weight parameter a seeded value and moves the batch-norm running
/// statistics off their `(0, 1)` initialization with a few training-mode passes.
fn perturb(mut model: Sequential, seed: u64, input_dims: &[usize]) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    model.visit_params("", &mut |name, p| {
        if name.ends_with("gamma") {
            for v in p.value.data_mut() {
                *v = 0.5 + rng.gen::<f32>();
            }
        } else if name.ends_with("beta") || name.ends_with("bias") {
            for v in p.value.data_mut() {
                *v = rng.gen::<f32>() - 0.5;
            }
        }
    });
    for _ in 0..3 {
        let x = Tensor::rand_normal(&mut rng, input_dims, 0.3, 1.5);
        model.forward(&x, true);
    }
    model
}

/// Runs `forward_with_values` on the model's own weight bytes, as a serving worker
/// does with its verified snapshot, and hashes the output bits.
fn native_output_hash(model: Sequential, seed: u64, input_dims: &[usize]) -> u64 {
    let mut qm = QuantizedModel::new(Box::new(perturb(model, seed, input_dims)));
    let values: Vec<Vec<i8>> = (0..qm.num_layers())
        .map(|l| qm.layer_values(l).to_vec())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let x = Tensor::rand_normal(&mut rng, input_dims, 0.0, 1.0);
    let out = qm.forward_with_values(&values, &x);
    assert!(out.data().iter().all(|v| v.is_finite()));
    fnv1a_bits(&out)
}

#[test]
fn resnet20_batch3_logits_match_the_golden_hash() {
    let hash = native_output_hash(resnet20(&ResNetConfig::tiny(10)), 20, &[3, 3, 16, 16]);
    assert_eq!(
        hash, 0xc751_8baf_02a7_77d4,
        "ResNet-20 logit hash {hash:#018x}"
    );
}

#[test]
fn pooled_stem_resnet18_batch1_logits_match_the_golden_hash() {
    let hash = native_output_hash(resnet18(&ResNetConfig::tiny(10)), 18, &[1, 3, 32, 32]);
    assert_eq!(
        hash, 0x1548_dca2_ce94_f3b4,
        "ResNet-18 logit hash {hash:#018x}"
    );
}

#[test]
fn trunk_feature_map_matches_the_golden_hash() {
    let mut rng = StdRng::seed_from_u64(0x7A0C);
    let mut trunk = Sequential::new();
    trunk.push(Conv2d::new(&mut rng, 3, 8, 3, 1, 1));
    trunk.push(BatchNorm2d::new(8));
    trunk.push(Relu::new());
    trunk.push(MaxPool2d::new(2, 2));
    trunk.push(ResidualBlock::new(&mut rng, 8, 8, 1));
    trunk.push(ResidualBlock::new(&mut rng, 8, 16, 2));
    let hash = native_output_hash(trunk, 0x7A0C, &[2, 3, 16, 16]);
    assert_eq!(
        hash, 0x666a_4414_026c_42d3,
        "trunk feature-map hash {hash:#018x}"
    );
}
