//! im2col / col2im lowering used to express 2-D convolutions as matrix products.

use crate::Tensor;

/// Geometry of a 2-D convolution: input/kernel sizes, stride and padding.
///
/// Inputs are laid out `(N, C, H, W)`, kernels `(C_out, C_in, K, K)`.
///
/// # Example
///
/// ```
/// use radar_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 3, 1, 1); // 3x3 kernel, stride 1, pad 1
/// assert_eq!(g.output_size(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a new geometry description.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or either kernel dimension is zero.
    pub fn new(kernel_h: usize, kernel_w: usize, stride: usize, padding: usize) -> Self {
        assert!(stride > 0, "stride must be non-zero");
        assert!(
            kernel_h > 0 && kernel_w > 0,
            "kernel dimensions must be non-zero"
        );
        Conv2dGeometry {
            kernel_h,
            kernel_w,
            stride,
            padding,
        }
    }

    /// Output spatial size `(H_out, W_out)` for an input of size `(h, w)`.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let h_out = (h + 2 * self.padding - self.kernel_h) / self.stride + 1;
        let w_out = (w + 2 * self.padding - self.kernel_w) / self.stride + 1;
        (h_out, w_out)
    }
}

/// Unfolds an `(N, C, H, W)` input into a `(C*K*K, N*H_out*W_out)` matrix so a
/// convolution becomes `weights(C_out, C*K*K) × im2col(input)`.
///
/// # Panics
///
/// Panics if `input` is not 4-D.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(
        input.shape().rank(),
        4,
        "im2col expects (N, C, H, W), got {}",
        input.shape()
    );
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (h_out, w_out) = geom.output_size(h, w);
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = n * h_out * w_out;
    let mut out = vec![0.0f32; rows * cols];
    let data = input.data();

    for ni in 0..n {
        for ci in 0..c {
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    let row = ci * geom.kernel_h * geom.kernel_w + kh * geom.kernel_w + kw;
                    for oh in 0..h_out {
                        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                        for ow in 0..w_out {
                            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                            let col = ni * h_out * w_out + oh * w_out + ow;
                            let v = if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w
                            {
                                data[((ni * c + ci) * h + ih as usize) * w + iw as usize]
                            } else {
                                0.0
                            };
                            out[row * cols + col] = v;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols]).expect("im2col output shape is consistent by construction")
}

/// Unfolds an already-quantized `(N, C, H, W)` input (raw row-major `i8` slice) into
/// a `(C*K*K, N*H_out*W_out)` `i8` matrix — the integer-pipeline twin of [`im2col`],
/// feeding `gemm_i8_requant` directly.
///
/// Quantizing *before* unfolding is what makes the native convolution cheap: the
/// rounding pass touches each input element once instead of once per kernel
/// position, and the unfolded matrix occupies a quarter of the float version's
/// bytes. Padding contributes quantized zero (exactly representable at any scale),
/// so `im2col_i8(quantize(x)) == quantize(im2col(x))` element-for-element whenever
/// the same scale is used.
///
/// The unfold has no per-element bounds test. For a stride-1 "same" convolution
/// (output plane as large as the input plane, e.g. 3×3 at padding 1) each
/// `(channel, kh, kw)` row of an image is the input plane shifted by
/// `(kh − pad)·w + (kw − pad)` elements: one `copy_from_slice` moves the whole
/// in-range band of output rows, and only the `|kw − pad|` columns per row that
/// wrapped around from the neighbouring input row are zeroed again. Every other
/// geometry computes, per `(channel, kh, kw)`, the range of output columns that
/// read inside the input row once; rows that fall entirely in the padding are
/// skipped (the output starts zeroed), and each in-range run is one
/// `copy_from_slice` at stride 1 or a strided gather otherwise.
///
/// # Example
///
/// ```
/// use radar_tensor::{im2col_i8, Conv2dGeometry};
///
/// // 1x1 kernel, stride 1: im2col is a reshape, so the values come back unchanged.
/// let g = Conv2dGeometry::new(1, 1, 1, 0);
/// let cols = im2col_i8(&[1, -2, 3, -4], 1, 1, 2, 2, &g);
/// assert_eq!(cols, vec![1, -2, 3, -4]);
/// ```
///
/// # Panics
///
/// Panics if `data.len()` does not equal `n*c*h*w`.
pub fn im2col_i8(
    data: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: &Conv2dGeometry,
) -> Vec<i8> {
    assert_eq!(
        data.len(),
        n * c * h * w,
        "im2col_i8 input length {} != {n}x{c}x{h}x{w}",
        data.len()
    );
    let (h_out, w_out) = geom.output_size(h, w);
    let (kh_n, kw_n, stride, pad) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let rows = c * kh_n * kw_n;
    let cols = n * h_out * w_out;
    let mut out = vec![0i8; rows * cols];
    if out.is_empty() || h * w == 0 {
        return out;
    }

    if stride == 1 && (h_out, w_out) == (h, w) {
        im2col_same_planes(data, &mut out, c, h, w, geom);
        return out;
    }
    // Output columns `ow` in `[lo, hi)` read input column `ow·stride + kw − pad`
    // inside `[0, w)`; the rest read padding, which the zeroed output already holds.
    let ow_range = |kw: usize| {
        let lo = pad.saturating_sub(kw).div_ceil(stride).min(w_out);
        let hi = (w + pad)
            .saturating_sub(kw)
            .div_ceil(stride)
            .clamp(lo, w_out);
        (lo, hi)
    };
    for (ni, image) in data.chunks_exact(c * h * w).enumerate() {
        for (ci, plane) in image.chunks_exact(h * w).enumerate() {
            for kh in 0..kh_n {
                for kw in 0..kw_n {
                    let row = (ci * kh_n + kh) * kw_n + kw;
                    let dst_rows = &mut out[row * cols + ni * h_out * w_out..][..h_out * w_out];
                    let (lo, hi) = ow_range(kw);
                    if lo == hi {
                        continue;
                    }
                    let iw0 = lo * stride + kw - pad;
                    for (oh, dst) in dst_rows.chunks_exact_mut(w_out).enumerate() {
                        // Rows that fall entirely in the padding stay zero.
                        let Some(ih) = (oh * stride + kh).checked_sub(pad).filter(|&ih| ih < h)
                        else {
                            continue;
                        };
                        let src = &plane[ih * w + iw0..(ih + 1) * w];
                        let dst = &mut dst[lo..hi];
                        if stride == 1 {
                            dst.copy_from_slice(&src[..hi - lo]);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// The stride-1 "same" case of [`im2col_i8`]: output pixel `i = oh·w + ow` of row
/// `(ci, kh, kw)` reads input pixel `i + dh·w + dw` with `(dh, dw) = (kh − pad,
/// kw − pad)`, so each row is one shifted slice of the input plane. The slice
/// covers the output rows whose input row exists, clipped to the plane's ends; the
/// columns it wrapped in from the neighbouring input row (`ow + dw` outside
/// `[0, w)`) are zeroed afterwards. `out` must arrive zeroed.
fn im2col_same_planes(
    data: &[i8],
    out: &mut [i8],
    c: usize,
    h: usize,
    w: usize,
    geom: &Conv2dGeometry,
) {
    let (kh_n, kw_n, pad) = (geom.kernel_h, geom.kernel_w, geom.padding);
    let plane_len = h * w;
    let cols = out.len() / (c * kh_n * kw_n);
    for (ni, image) in data.chunks_exact(c * plane_len).enumerate() {
        for (ci, plane) in image.chunks_exact(plane_len).enumerate() {
            for kh in 0..kh_n {
                // Output rows `[oh_lo, oh_hi)` read input rows `oh + kh − pad` in `[0, h)`.
                let oh_lo = pad.saturating_sub(kh).min(h);
                let oh_hi = (h + pad).saturating_sub(kh).clamp(oh_lo, h);
                for kw in 0..kw_n {
                    // A shift of a whole row or more leaves only padding.
                    if oh_lo == oh_hi || kw.abs_diff(pad) >= w {
                        continue;
                    }
                    let row = (ci * kh_n + kh) * kw_n + kw;
                    let dst = &mut out[row * cols + ni * plane_len..][..plane_len];
                    // `dst[i] = plane[i + shift]` with `shift = (kh − pad)·w + kw − pad`,
                    // written as `i + shift_pos − shift_neg` to stay in `usize`.
                    let shift_pos = kh * w + kw;
                    let shift_neg = pad * w + pad;
                    let lo = (oh_lo * w).max(shift_neg.saturating_sub(shift_pos));
                    let hi = (oh_hi * w).min((plane_len + shift_neg).saturating_sub(shift_pos));
                    if lo < hi {
                        dst[lo..hi].copy_from_slice(
                            &plane[lo + shift_pos - shift_neg..hi + shift_pos - shift_neg],
                        );
                    }
                    // Zero the wrapped columns: the last `kw − pad` of each row when
                    // the shift is rightward, the first `pad − kw` when leftward. One
                    // strided store per row and column (a per-row `fill` of one or
                    // two bytes costs a `memset` call each and was measured slower).
                    let (c0, c1) = if kw >= pad {
                        (w - (kw - pad), w)
                    } else {
                        (0, pad - kw)
                    };
                    for col in c0..c1 {
                        for v in dst[oh_lo * w + col..oh_hi * w].iter_mut().step_by(w) {
                            *v = 0;
                        }
                    }
                }
            }
        }
    }
}

/// Folds a `(C*K*K, N*H_out*W_out)` matrix back into an `(N, C, H, W)` tensor, summing
/// overlapping contributions. This is the adjoint of [`im2col`] and is used for the
/// gradient with respect to the convolution input.
///
/// # Panics
///
/// Panics if `cols` is not 2-D or its dimensions are inconsistent with the geometry.
pub fn col2im(
    cols: &Tensor,
    geom: &Conv2dGeometry,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
) -> Tensor {
    assert_eq!(
        cols.shape().rank(),
        2,
        "col2im expects a 2-D matrix, got {}",
        cols.shape()
    );
    let (h_out, w_out) = geom.output_size(h, w);
    let rows = c * geom.kernel_h * geom.kernel_w;
    let ncols = n * h_out * w_out;
    assert_eq!(
        cols.dims(),
        &[rows, ncols],
        "col2im input dims {:?} inconsistent with geometry (expected {:?})",
        cols.dims(),
        [rows, ncols]
    );

    let mut out = vec![0.0f32; n * c * h * w];
    let data = cols.data();
    for ni in 0..n {
        for ci in 0..c {
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    let row = ci * geom.kernel_h * geom.kernel_w + kh * geom.kernel_w + kw;
                    for oh in 0..h_out {
                        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                        for ow in 0..w_out {
                            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                            if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w {
                                let col = ni * h_out * w_out + oh * w_out + ow;
                                out[((ni * c + ci) * h + ih as usize) * w + iw as usize] +=
                                    data[row * ncols + col];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w]).expect("col2im output shape is consistent by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_matches_formula() {
        let g = Conv2dGeometry::new(3, 3, 1, 1);
        assert_eq!(g.output_size(32, 32), (32, 32));
        let g = Conv2dGeometry::new(3, 3, 2, 1);
        assert_eq!(g.output_size(32, 32), (16, 16));
        let g = Conv2dGeometry::new(1, 1, 1, 0);
        assert_eq!(g.output_size(8, 8), (8, 8));
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        Conv2dGeometry::new(3, 3, 0, 1);
    }

    #[test]
    fn im2col_identity_kernel_copies_input() {
        // 1x1 kernel, stride 1, no padding: im2col is just a reshape of the input.
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let g = Conv2dGeometry::new(1, 1, 1, 0);
        let cols = im2col(&input, &g);
        assert_eq!(cols.dims(), &[1, 16]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn im2col_3x3_on_small_input_matches_manual_patch() {
        // 3x3 input, 3x3 kernel, stride 1, no padding => single column = whole input.
        let input = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let g = Conv2dGeometry::new(3, 3, 1, 0);
        let cols = im2col(&input, &g);
        assert_eq!(cols.dims(), &[9, 1]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn conv_via_im2col_matches_direct_computation() {
        // Direct 2-D convolution of a known input with a known kernel.
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let kernel = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[1, 1, 2, 2]).unwrap();
        let g = Conv2dGeometry::new(2, 2, 1, 0);
        let cols = im2col(&input, &g);
        let w = kernel.reshape(&[1, 4]).unwrap();
        let out = w.matmul(&cols); // (1, 9)
                                   // Manually: out[oh][ow] = x[oh][ow] - x[oh+1][ow+1] = -5 for every position.
        assert_eq!(out.dims(), &[1, 9]);
        assert!(out.data().iter().all(|&v| v == -5.0));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish data (adjoint property).
        let x = Tensor::from_vec(
            (0..2 * 3 * 5 * 5).map(|v| (v % 7) as f32 - 3.0).collect(),
            &[2, 3, 5, 5],
        )
        .unwrap();
        let g = Conv2dGeometry::new(3, 3, 2, 1);
        let cols = im2col(&x, &g);
        let y = cols.map(|v| v * 0.5 + 1.0);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, &g, 2, 3, 5, 5);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn im2col_padding_produces_zeros_at_border() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::new(3, 3, 1, 1);
        let cols = im2col(&input, &g);
        // Top-left output position, kernel element (0,0) looks at padded area -> 0.
        assert_eq!(cols.get(&[0, 0]), 0.0);
        // Centre kernel element (1,1) at output (0,0) looks at input (0,0) -> 1.
        assert_eq!(cols.get(&[4, 0]), 1.0);
    }
}
