//! Property-based tests of the tensor substrate: linear-algebra identities, the
//! im2col/col2im adjoint relation that the convolution backward pass relies on, and
//! the integer unfold `im2col_i8` against the float `im2col`.

use proptest::prelude::*;
use radar_tensor::{col2im, im2col, im2col_i8, Conv2dGeometry, Tensor};

fn small_matrix() -> impl Strategy<Value = (Vec<f32>, usize, usize)> {
    (1usize..9, 1usize..9)
        .prop_flat_map(|(m, n)| (prop::collection::vec(-4.0f32..4.0, m * n), Just(m), Just(n)))
}

proptest! {
    /// `A · I = A` and `I · A = A`.
    #[test]
    fn matmul_identity((data, m, n) in small_matrix()) {
        let a = Tensor::from_vec(data, &[m, n]).expect("shape matches");
        let right = a.matmul(&Tensor::eye(n));
        let left = Tensor::eye(m).matmul(&a);
        for (x, y) in right.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        for (x, y) in left.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Transposition is an involution and `(A·B)ᵀ = Bᵀ·Aᵀ`.
    #[test]
    fn transpose_properties(
        (a_data, m, k) in small_matrix(),
        b_cols in 1usize..8,
        b_seed in prop::collection::vec(-2.0f32..2.0, 1..800),
    ) {
        let a = Tensor::from_vec(a_data, &[m, k]).expect("shape matches");
        prop_assert_eq!(a.transpose2d().transpose2d(), a.clone());

        let b_data: Vec<f32> = (0..k * b_cols).map(|i| b_seed[i % b_seed.len()]).collect();
        let b = Tensor::from_vec(b_data, &[k, b_cols]).expect("shape matches");
        let lhs = a.matmul(&b).transpose2d();
        let rhs = b.transpose2d().matmul(&a.transpose2d());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Matrix multiplication distributes over addition: `A·(B + C) = A·B + A·C`.
    #[test]
    fn matmul_distributes_over_addition(
        (a_data, m, k) in small_matrix(),
        extra in prop::collection::vec(-2.0f32..2.0, 1..200),
    ) {
        let n = 3usize;
        let a = Tensor::from_vec(a_data, &[m, k]).expect("shape matches");
        let b_data: Vec<f32> = (0..k * n).map(|i| extra[i % extra.len()]).collect();
        let c_data: Vec<f32> = (0..k * n).map(|i| extra[(i * 7 + 1) % extra.len()]).collect();
        let b = Tensor::from_vec(b_data, &[k, n]).expect("shape matches");
        let c = Tensor::from_vec(c_data, &[k, n]).expect("shape matches");
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// `<im2col(x), y> == <x, col2im(y)>`: col2im is the exact adjoint of im2col, which
    /// is what makes the convolution weight/input gradients correct.
    #[test]
    fn im2col_col2im_are_adjoint(
        n in 1usize..3,
        c in 1usize..3,
        h in 3usize..8,
        w in 3usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in prop::collection::vec(-2.0f32..2.0, 16..64),
    ) {
        prop_assume!(h + 2 * padding >= kernel && w + 2 * padding >= kernel);
        let geom = Conv2dGeometry::new(kernel, kernel, stride, padding);
        let x_data: Vec<f32> = (0..n * c * h * w).map(|i| seed[i % seed.len()]).collect();
        let x = Tensor::from_vec(x_data, &[n, c, h, w]).expect("shape matches");
        let cols = im2col(&x, &geom);
        let y = cols.map(|v| 0.5 * v + 0.25);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, &geom, n, c, h, w);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// `im2col_i8(q)` equals `im2col(q as f32)` element for element: the integer
    /// unfold's contiguous runs, strided gathers and skipped padding rows copy the
    /// same values, and leave the same zeros, as the bounds-checked float gather.
    /// Kernels 1/3/7, strides 1/2, padding 0–3, batch 1–3, non-square inputs.
    #[test]
    fn im2col_i8_matches_float_im2col(
        n in 1usize..4,
        c in 1usize..4,
        kernel_pick in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..4,
        (dh, dw) in (0usize..9, 0usize..9),
        seed in prop::collection::vec(-128i32..128, 16..64),
    ) {
        let kernel = [1usize, 3, 7][kernel_pick];
        // The smallest input the kernel fits once padded, plus a drawn margin.
        let min_side = kernel.saturating_sub(2 * padding).max(1);
        let (h, w) = (min_side + dh, min_side + dw);
        let geom = Conv2dGeometry::new(kernel, kernel, stride, padding);
        let q: Vec<i8> = (0..n * c * h * w).map(|i| seed[(i * 7 + 3) % seed.len()] as i8).collect();
        let x = Tensor::from_vec(q.iter().map(|&v| f32::from(v)).collect(), &[n, c, h, w])
            .expect("shape matches");
        let float_cols = im2col(&x, &geom);
        let int_cols = im2col_i8(&q, n, c, h, w, &geom);
        prop_assert_eq!(int_cols.len(), float_cols.data().len());
        for (i, (&a, &b)) in int_cols.iter().zip(float_cols.data()).enumerate() {
            prop_assert!(f32::from(a) == b, "element {}: {} vs {} ({}x{} k{} s{} p{})",
                i, a, b, h, w, kernel, stride, padding);
        }
    }
}

/// Every stride-1 "same" geometry (`pad = (k − 1) / 2`), where `im2col_i8` copies
/// whole shifted planes and zeroes the wrapped columns, against the float unfold:
/// kernels 1/3/5/7 on every input from 1×1 to 8×8, batch 1 and 2. The small sides
/// cover shifts as wide as, or wider than, the plane itself (`w ≤ |kw − pad|`).
#[test]
fn im2col_i8_same_planes_match_float_im2col_on_every_small_geometry() {
    for kernel in [1usize, 3, 5, 7] {
        let geom = Conv2dGeometry::new(kernel, kernel, 1, (kernel - 1) / 2);
        for n in 1usize..=2 {
            for h in 1usize..9 {
                for w in 1usize..9 {
                    let c = 2;
                    let q: Vec<i8> = (0..n * c * h * w)
                        .map(|i| ((i * 37 + 11) % 255) as i8)
                        .collect();
                    let x =
                        Tensor::from_vec(q.iter().map(|&v| f32::from(v)).collect(), &[n, c, h, w])
                            .expect("shape matches");
                    let float_cols = im2col(&x, &geom);
                    let int_cols = im2col_i8(&q, n, c, h, w, &geom);
                    let as_f32: Vec<f32> = int_cols.iter().map(|&v| f32::from(v)).collect();
                    assert_eq!(as_f32, float_cols.data(), "k{kernel} n{n} {h}x{w}");
                }
            }
        }
    }
}
