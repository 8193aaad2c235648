use radar_tensor::Tensor;

use crate::layer::{Layer, Param};
use crate::quantized::QuantCursor;

/// 2-D max pooling with a square window.
///
/// # Example
///
/// ```
/// use radar_nn::{Layer, MaxPool2d};
/// use radar_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2, 2);
/// let y = pool.forward(&Tensor::zeros(&[1, 3, 8, 8]), false);
/// assert_eq!(y.dims(), &[1, 3, 4, 4]);
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<(Vec<usize>, [usize; 4], [usize; 2])>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window size and stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be non-zero"
        );
        MaxPool2d {
            kernel,
            stride,
            cache: None,
        }
    }

    /// Pools `input`, filling `argmax` (resized to the output) with each output's
    /// winning input index when one is given. Ties keep the first maximum in window
    /// order.
    fn pool(&self, input: &Tensor, mut argmax: Option<&mut Vec<usize>>) -> Tensor {
        assert_eq!(
            input.shape().rank(),
            4,
            "MaxPool2d expects (N, C, H, W), got {}",
            input.shape()
        );
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let ho = (h - self.kernel) / self.stride + 1;
        let wo = (w - self.kernel) / self.stride + 1;
        let mut out = vec![f32::NEG_INFINITY; n * c * ho * wo];
        if let Some(argmax) = argmax.as_deref_mut() {
            argmax.resize(out.len(), 0);
        }
        for ni in 0..n {
            for ci in 0..c {
                for oh in 0..ho {
                    for ow in 0..wo {
                        let oidx = ((ni * c + ci) * ho + oh) * wo + ow;
                        for kh in 0..self.kernel {
                            for kw in 0..self.kernel {
                                let ih = oh * self.stride + kh;
                                let iw = ow * self.stride + kw;
                                let iidx = ((ni * c + ci) * h + ih) * w + iw;
                                if input.data()[iidx] > out[oidx] {
                                    out[oidx] = input.data()[iidx];
                                    if let Some(argmax) = argmax.as_deref_mut() {
                                        argmax[oidx] = iidx;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c, ho, wo]).expect("maxpool output shape is consistent")
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let mut argmax = Vec::new();
        let out = self.pool(input, Some(&mut argmax));
        let (d, od) = (input.dims(), out.dims());
        self.cache = Some((argmax, [d[0], d[1], d[2], d[3]], [od[2], od[3]]));
        out
    }

    /// Evaluation mode without the backward argmax: the same window maxima.
    fn forward_quantized(&mut self, input: &Tensor, _weights: &mut QuantCursor<'_>) -> Tensor {
        self.pool(input, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (argmax, dims, _) = self
            .cache
            .as_ref()
            .expect("MaxPool2d::backward called before forward");
        let [n, c, h, w] = *dims;
        let mut dx = vec![0.0f32; n * c * h * w];
        for (o, &src) in argmax.iter().enumerate() {
            dx[src] += grad_output.data()[o];
        }
        Tensor::from_vec(dx, &[n, c, h, w]).expect("maxpool grad shape is consistent")
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut dyn FnMut(&str, &mut Param)) {}

    fn name(&self) -> &str {
        "maxpool2d"
    }
}

/// Global average pooling: `(N, C, H, W)` → `(N, C)`.
///
/// # Example
///
/// ```
/// use radar_nn::{GlobalAvgPool, Layer};
/// use radar_tensor::Tensor;
///
/// let mut pool = GlobalAvgPool::new();
/// let y = pool.forward(&Tensor::ones(&[2, 4, 3, 3]), false);
/// assert_eq!(y.dims(), &[2, 4]);
/// assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
/// ```
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_dims: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_dims: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(
            input.shape().rank(),
            4,
            "GlobalAvgPool expects (N, C, H, W), got {}",
            input.shape()
        );
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let plane = h * w;
        let mut out = vec![0.0f32; n * c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                out[ni * c + ci] =
                    input.data()[base..base + plane].iter().sum::<f32>() / plane as f32;
            }
        }
        self.cached_dims = Some([n, c, h, w]);
        Tensor::from_vec(out, &[n, c]).expect("gap output shape is consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let [n, c, h, w] = self
            .cached_dims
            .expect("GlobalAvgPool::backward called before forward");
        let plane = h * w;
        let mut dx = vec![0.0f32; n * c * plane];
        for ni in 0..n {
            for ci in 0..c {
                let g = grad_output.data()[ni * c + ci] / plane as f32;
                let base = (ni * c + ci) * plane;
                for s in 0..plane {
                    dx[base + s] = g;
                }
            }
        }
        Tensor::from_vec(dx, &[n, c, h, w]).expect("gap grad shape is consistent")
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut dyn FnMut(&str, &mut Param)) {}

    fn name(&self) -> &str {
        "global_avg_pool"
    }
}

/// Flattens `(N, d1, d2, ...)` into `(N, d1*d2*...)`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert!(
            input.shape().rank() >= 2,
            "Flatten expects at least 2 dimensions"
        );
        self.cached_dims = Some(input.dims().to_vec());
        let n = input.dims()[0];
        let rest = input.numel() / n;
        input
            .reshape(&[n, rest])
            .expect("flatten reshape is consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let dims = self
            .cached_dims
            .as_ref()
            .expect("Flatten::backward called before forward");
        grad_output
            .reshape(dims)
            .expect("flatten backward reshape is consistent")
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut dyn FnMut(&str, &mut Param)) {}

    fn name(&self) -> &str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_quantized_is_bit_identical_to_eval_forward() {
        // Values repeat every 7 elements, so windows hold ties; -0.0 and 0.0 tie too.
        let x = Tensor::from_vec(
            (0..2 * 3 * 7 * 6)
                .map(|i| [-1.5, 0.0, 2.25, -0.0, 2.25, -7.0, 0.5][i % 7])
                .collect(),
            &[2, 3, 7, 6],
        )
        .unwrap();
        for (kernel, stride) in [(2, 2), (3, 2), (2, 1)] {
            let mut pool = MaxPool2d::new(kernel, stride);
            let eval = pool.forward(&x, false);
            let fast = pool.forward_quantized(&x, &mut QuantCursor::new(&[]));
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(fast.dims(), eval.dims());
            assert_eq!(bits(&fast), bits(&eval), "kernel {kernel} stride {stride}");
        }
    }

    #[test]
    fn maxpool_picks_maximum() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, false);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x, false);
        let dx = pool.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn global_avg_pool_averages() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x, false);
        assert_eq!(y.data(), &[2.5]);
        let dx = pool.backward(&Tensor::from_vec(vec![4.0], &[1, 1]).unwrap());
        assert!(dx.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = fl.forward(&x, false);
        assert_eq!(y.dims(), &[2, 60]);
        let back = fl.backward(&y);
        assert_eq!(back.dims(), &[2, 3, 4, 5]);
    }

    #[test]
    fn pools_have_no_params() {
        let mut a = MaxPool2d::new(2, 2);
        let mut b = GlobalAvgPool::new();
        let mut c = Flatten::new();
        assert_eq!((&mut a as &mut dyn Layer).param_count(), 0);
        assert_eq!((&mut b as &mut dyn Layer).param_count(), 0);
        assert_eq!((&mut c as &mut dyn Layer).param_count(), 0);
    }
}
