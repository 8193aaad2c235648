//! Property tests pinning the GEMM kernels to their naive references, over ragged
//! shapes that straddle the blocking factors: the 256-wide `k`/`n` panels of the
//! float kernel, and the 4-row × 16-column register tiles of the integer core
//! (weight-row counts across two 4-row blocks, column counts at 15/16/17/31/33 so
//! full tiles and the packed dot-form remainder meet in one call).
//!
//! Contracts proved here:
//! - `gemm_f32` is *bit-identical* to the textbook triple loop — the kernel only
//!   reorders which elements are worked on, never the additions into one element.
//! - `gemm_i8` is *integer-exact*: equal to widening every operand to `i32` and
//!   running the textbook loop. Integer addition is associative, so register
//!   tiling, lane-split dot products and the remainder transpose cannot change a
//!   single bit — and no `i16` product or `i32` accumulator overflows even when
//!   every operand is −128 at `k = 4096`.
//! - `gemm_i8_requant` / `linear_i8_requant` threaded output is *bit-identical* to
//!   single-threaded for any thread count (each output element is computed by exactly
//!   one worker, from the same exact integer accumulator).
//! - The requantization epilogue tracks the infinitely-precise `acc·scale + bias` to
//!   within its three `f32` roundings (widen, multiply, add).
//! - End to end: integer weights at unit scale × integer-valued activations (which
//!   quantize exactly at a power-of-two scale) make the whole integer pipeline
//!   bit-identical to the float oracle. The general argmax-level agreement is pinned
//!   in `radar-quant`'s `native_equivalence` tests.
//! - `quantize_activations`' mantissa-trick conversion equals the saturating
//!   `as i8` cast on every element, ties and signed zeros included.

use proptest::prelude::*;
use radar_tensor::{gemm_f32, gemm_i8, gemm_i8_requant, linear_i8_requant, quantize_activations};

/// The textbook f32 reference: `i-k-j` accumulation, no blocking, no zero skipping.
fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let a_ip = a[i * k + p];
            for j in 0..n {
                out[i * n + j] += a_ip * b[p * n + j];
            }
        }
    }
    out
}

/// The widen-to-i32 reference for the integer kernels: every product formed after
/// sign-extending both operands, accumulated in `i32`, no blocking.
fn naive_i32(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for p in 0..k {
            let a_ip = a[i * k + p] as i32;
            for j in 0..n {
                out[i * n + j] += a_ip * b[p * n + j] as i32;
            }
        }
    }
    out
}

/// A `k`/`n` extent deliberately straddling the 256-wide panels: each draw lands
/// below one block, around exactly one block, or around two blocks.
fn edge_extent() -> impl Strategy<Value = usize> {
    (0usize..3, 0usize..14).prop_map(|(band, off)| match band {
        0 => 1 + off,
        1 => 250 + off,
        _ => 505 + off,
    })
}

/// An `n` extent: either [`edge_extent`], or a column count at the integer core's
/// 16-column tile boundary (15, 16, 17, 31, 33), so full tiles and the packed
/// remainder mix in one call.
fn col_extent() -> impl Strategy<Value = usize> {
    (0usize..2, edge_extent(), 0usize..5).prop_map(|(band, edge, pick)| {
        if band == 0 {
            edge
        } else {
            [15, 16, 17, 31, 33][pick]
        }
    })
}

/// Small `m` spanning one to three 4-row register blocks, ragged `k`/`n`.
fn ragged_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..13, edge_extent(), col_extent())
}

/// An `i8` weight drawn over the full quantized range (including 0, the value a RADAR
/// zero-out recovery writes, and -128, the value a bit flip can mint).
fn weight() -> impl Strategy<Value = i8> {
    (-128i32..128).prop_map(|v| v as i8)
}

proptest! {
    /// Blocked float GEMM is bit-identical to the naive triple loop.
    #[test]
    fn gemm_blocked_equals_naive_matmul(
        (m, k, n) in ragged_dims(),
        seed in prop::collection::vec(-3.0f32..3.0, 64..65),
    ) {
        let a: Vec<f32> = (0..m * k).map(|i| seed[i % seed.len()] * 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| seed[(i * 31 + 7) % seed.len()]).collect();
        prop_assert_eq!(gemm_f32(&a, &b, m, k, n), naive(&a, &b, m, k, n));
    }

    /// The register-tiled integer kernel is integer-exact: bit-equal to the
    /// widen-to-i32 textbook loop over ragged shapes that straddle its row blocks,
    /// column tiles and remainder.
    #[test]
    fn gemm_i8_equals_widen_to_i32_reference(
        (m, k, n) in ragged_dims(),
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
    ) {
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()]).collect();
        let x: Vec<i8> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()]).collect();
        prop_assert_eq!(gemm_i8(&w, &x, m, k, n), naive_i32(&w, &x, m, k, n));
    }

    /// Threaded requantizing GEMM is bit-identical to single-threaded for any thread
    /// count — covering both the row-split (`m >= threads`) and the column-split
    /// (`m < threads`) path, per-row scales and fused bias included.
    #[test]
    fn threaded_gemm_requant_is_bit_identical_to_single_threaded(
        (m, k, n) in ragged_dims(),
        threads in 2usize..6,
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
        sseed in prop::collection::vec(0.001f32..0.75, 8..9),
    ) {
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()]).collect();
        let x: Vec<i8> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()]).collect();
        let scales: Vec<f32> = (0..m).map(|i| sseed[i % sseed.len()]).collect();
        let bias: Vec<f32> = (0..m).map(|i| sseed[(i * 3 + 1) % sseed.len()] - 0.4).collect();
        let single = gemm_i8_requant(&w, &x, m, k, n, &scales, Some(&bias), 1);
        let multi = gemm_i8_requant(&w, &x, m, k, n, &scales, Some(&bias), threads);
        prop_assert_eq!(single, multi);
    }

    /// Column-split windows that start mid-tile (`col0` not a multiple of 16) still
    /// produce the exact product: each worker's window is tiled and remaindered
    /// relative to its own `col0`.
    #[test]
    fn column_split_windows_off_the_tile_grid_are_exact(
        m in 1usize..3,
        k in edge_extent(),
        n in 33usize..200,
        threads in 3usize..6,
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
    ) {
        // `gemm_i8_requant` splits columns into near-even chunks, the longer first.
        let second_col0 = n / threads + usize::from(n % threads > 0);
        prop_assume!(second_col0 % 16 != 0);
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()]).collect();
        let x: Vec<i8> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()]).collect();
        // |acc| ≤ 518 · 16384 < 2²⁴, so the unit-scale epilogue is exact.
        let want: Vec<f32> = naive_i32(&w, &x, m, k, n).iter().map(|&v| v as f32).collect();
        prop_assert_eq!(gemm_i8_requant(&w, &x, m, k, n, &[1.0], None, threads), want);
    }

    /// Threaded fully-connected kernel is bit-identical to single-threaded over
    /// ragged depths, including the `rows < threads` remainder handling, and both
    /// equal the exact product (output features straddle the 4-row dot blocks; the
    /// power-of-two scale keeps the epilogue exact).
    #[test]
    fn threaded_linear_requant_is_bit_identical_to_single_threaded(
        (rows, k, m) in (1usize..6, 1usize..300, 1usize..13),
        threads in 2usize..6,
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
    ) {
        let x: Vec<i8> = (0..rows * k).map(|i| xseed[i % xseed.len()]).collect();
        let w: Vec<i8> = (0..m * k).map(|i| wseed[(i * 3 + 1) % wseed.len()]).collect();
        let scale = [0.03125f32];
        let single = linear_i8_requant(&x, &w, rows, k, m, &scale, None, 1);
        let multi = linear_i8_requant(&x, &w, rows, k, m, &scale, None, threads);
        prop_assert_eq!(&single, &multi);
        let wt: Vec<i8> = (0..k * m).map(|i| w[(i % m) * k + i / m]).collect();
        let want: Vec<f32> = naive_i32(&x, &wt, rows, k, m)
            .iter()
            .map(|&v| v as f32 * scale[0])
            .collect();
        prop_assert_eq!(single, want);
    }

    /// The requantization epilogue tracks the infinitely-precise `acc·scale + bias`
    /// (computed in f64) to within its three f32 roundings: widen the i32
    /// accumulator, multiply by the folded scale, add the bias.
    #[test]
    fn requantization_tracks_exact_epilogue_within_rounding(
        (m, k, n) in ragged_dims(),
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
        scale in 0.0001f32..0.1,
        bias0 in -2.0f32..2.0,
    ) {
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()]).collect();
        let x: Vec<i8> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()]).collect();
        let bias: Vec<f32> = (0..m).map(|i| bias0 + i as f32 * 0.125).collect();
        let acc = naive_i32(&w, &x, m, k, n);
        let out = gemm_i8_requant(&w, &x, m, k, n, &[scale], Some(&bias), 1);
        for i in 0..m {
            for j in 0..n {
                let exact = acc[i * n + j] as f64 * scale as f64 + bias[i] as f64;
                let got = out[i * n + j] as f64;
                // Three roundings, each ≤ half an ulp of its intermediate: bound by
                // 3 ulp of the result magnitude (plus the bias magnitude, in case of
                // cancellation in the final add).
                let ulp = f32::EPSILON as f64
                    * (acc[i * n + j].unsigned_abs() as f64 * scale as f64
                        + bias[i].abs() as f64
                        + f32::MIN_POSITIVE as f64);
                prop_assert!(
                    (got - exact).abs() <= 3.0 * ulp,
                    "requant {} vs exact {} (bound {})", got, exact, 3.0 * ulp
                );
            }
        }
    }

    /// End to end: integer weights at unit scale and integer-valued activations make
    /// the full pipeline — `quantize_activations` → `gemm_i8_requant` with the folded
    /// scale — bit-identical to the float oracle. Power-of-two activation scales
    /// quantize integer values exactly, and every intermediate stays below the f32
    /// mantissa limit, so both paths compute the same exact integers.
    #[test]
    fn integer_pipeline_is_bit_identical_to_the_float_path(
        (m, k, n) in ragged_dims(),
        wseed in prop::collection::vec(-127i32..128, 64..65),
        xseed in prop::collection::vec(-5i32..6, 64..65),
    ) {
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()] as i8).collect();
        let x: Vec<f32> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()] as f32).collect();
        let (xq, a_scale) = quantize_activations(&x);
        let native = gemm_i8_requant(&w, &xq, m, k, n, &[a_scale], None, 1);
        let wf: Vec<f32> = w.iter().map(|&q| q as f32).collect();
        prop_assert_eq!(native, naive(&wf, &x, m, k, n));
    }

    /// `quantize_activations` converts every element exactly as the saturating cast
    /// `(v / scale).round().clamp(-127, 127) as i8` does. The slice's largest
    /// magnitude is pinned to `127·2^e`, so the scale is `2^e` and the other
    /// elements can sit exactly on the hard cases relative to it: `±k.5` ties,
    /// `±0.49999997`, `±126.5`, signed zeros and subnormals, among uniform values.
    #[test]
    fn quantize_activations_equals_the_saturating_cast(
        e in -20i32..21,
        picks in prop::collection::vec((0usize..8, any::<bool>(), -127.0f32..127.0), 1..96),
    ) {
        let unit = 2.0f32.powi(e);
        let mut x = vec![127.0 * unit];
        for &(pick, negative, uniform) in &picks {
            let v = match pick {
                0 => (uniform.trunc() + 0.5) * unit,
                1 => 0.499_999_97 * unit,
                2 => 126.5 * unit,
                3 => 0.0,
                4 => f32::from_bits(1 + uniform.to_bits() % 0x007f_ffff),
                5 => uniform.trunc() * unit,
                _ => uniform * unit,
            };
            x.push(if negative { -v } else { v });
        }
        let (q, scale) = quantize_activations(&x);
        prop_assert_eq!(scale, unit);
        let recip = 1.0 / scale;
        for (i, (&got, &v)) in q.iter().zip(&x).enumerate() {
            let want = (v * recip).round().clamp(-127.0, 127.0) as i8;
            prop_assert!(got == want, "element {}: {:e} quantized to {}, cast gives {}", i, v, got, want);
        }
    }
}

/// The overflow corner: every operand −128 at depth `k = 4096`. Each `i8×i8`
/// product is `16384`, which still fits the `i16` the micro-kernels multiply in,
/// and every output is `4096 · 16384 = 2²⁶`, inside `i32` and exact in `f32`.
/// Covered on the 4×16 tile path (`n = 16`, and `n = 17` mixing tile and
/// remainder), the packed dot path (`n = 5`) and `linear_i8_requant`, with `m = 5`
/// straddling two 4-row blocks.
#[test]
fn all_minus_128_operands_at_depth_4096_do_not_overflow() {
    let (m, k) = (5usize, 4096usize);
    let expected = (k * 16384) as i32;
    let w = vec![-128i8; m * k];
    for n in [16usize, 17, 5] {
        let x = vec![-128i8; k * n];
        let acc = gemm_i8(&w, &x, m, k, n);
        assert!(acc.iter().all(|&v| v == expected), "gemm_i8 at n = {n}");
        let out = gemm_i8_requant(&w, &x, m, k, n, &[1.0], None, 1);
        assert!(
            out.iter().all(|&v| v == expected as f32),
            "gemm_i8_requant at n = {n}"
        );
    }
    let rows = 3usize;
    let x = vec![-128i8; rows * k];
    let out = linear_i8_requant(&x, &w, rows, k, m, &[1.0], None, 1);
    assert_eq!(out, vec![expected as f32; rows * m], "linear_i8_requant");
}
