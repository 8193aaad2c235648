use radar_tensor::Tensor;

use crate::layer::{join_path, Layer, Param};
use crate::quantized::QuantCursor;

/// Per-channel batch normalization for `(N, C, H, W)` activations.
///
/// In training mode the layer normalizes with batch statistics and updates running
/// estimates; in evaluation mode it uses the running estimates. The backward pass
/// matches whichever mode the preceding forward pass used (PBFA computes gradients in
/// evaluation mode, as the original attack does).
///
/// # Example
///
/// ```
/// use radar_nn::{BatchNorm2d, Layer};
/// use radar_tensor::Tensor;
///
/// let mut bn = BatchNorm2d::new(4);
/// let y = bn.forward(&Tensor::zeros(&[2, 4, 3, 3]), true);
/// assert_eq!(y.dims(), &[2, 4, 3, 3]);
/// ```
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    train: bool,
    dims: [usize; 4],
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels with `gamma = 1`, `beta = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be non-zero");
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The running (evaluation-mode) mean per channel.
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The running (evaluation-mode) variance per channel.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// Validates the input shape and returns `(n, c, h, w)`.
    fn check_input(&self, input: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(
            input.shape().rank(),
            4,
            "BatchNorm2d expects (N, C, H, W), got {}",
            input.shape()
        );
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        assert_eq!(
            c, self.channels,
            "BatchNorm2d channels {} != expected {}",
            c, self.channels
        );
        (n, c, h, w)
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (n, c, h, w) = self.check_input(input);
        let plane = h * w;
        let count = (n * plane) as f32;

        let (mean, var) = if train {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ci in 0..c {
                let mut sum = 0.0;
                for ni in 0..n {
                    let base = ((ni * c) + ci) * plane;
                    sum += input.data()[base..base + plane].iter().sum::<f32>();
                }
                mean[ci] = sum / count;
                let mut sq = 0.0;
                for ni in 0..n {
                    let base = ((ni * c) + ci) * plane;
                    sq += input.data()[base..base + plane]
                        .iter()
                        .map(|&x| (x - mean[ci]) * (x - mean[ci]))
                        .sum::<f32>();
                }
                var[ci] = sq / count;
            }
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut out = vec![0.0f32; input.numel()];
        let mut x_hat = vec![0.0f32; input.numel()];
        for ni in 0..n {
            for ci in 0..c {
                let base = ((ni * c) + ci) * plane;
                let g = self.gamma.value.data()[ci];
                let b = self.beta.value.data()[ci];
                for s in 0..plane {
                    let xh = (input.data()[base + s] - mean[ci]) * inv_std[ci];
                    x_hat[base + s] = xh;
                    out[base + s] = g * xh + b;
                }
            }
        }
        self.cache = Some(BnCache {
            x_hat: Tensor::from_vec(x_hat, input.dims()).expect("bn cache shape is consistent"),
            inv_std,
            train,
            dims: [n, c, h, w],
        });
        Tensor::from_vec(out, input.dims()).expect("bn output shape is consistent")
    }

    /// Evaluation mode without the backward cache: the same running-statistics
    /// normalization as `forward(x, false)`, op for op — `(x − mean) · inv_std`, then
    /// `gamma · x̂ + beta` — so the output is bit-identical, but no `x̂` tensor and
    /// no statistics clones are built.
    fn forward_quantized(&mut self, input: &Tensor, _weights: &mut QuantCursor<'_>) -> Tensor {
        let (_, c, h, w) = self.check_input(input);
        let plane = h * w;
        let mut out = vec![0.0f32; input.numel()];
        if plane > 0 {
            for (i, (dst, src)) in out
                .chunks_exact_mut(plane)
                .zip(input.data().chunks_exact(plane))
                .enumerate()
            {
                let ci = i % c;
                let mean = self.running_mean[ci];
                let inv_std = 1.0 / (self.running_var[ci] + self.eps).sqrt();
                let (g, b) = (self.gamma.value.data()[ci], self.beta.value.data()[ci]);
                for (o, &x) in dst.iter_mut().zip(src) {
                    *o = g * ((x - mean) * inv_std) + b;
                }
            }
        }
        Tensor::from_vec(out, input.dims()).expect("bn output shape is consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm2d::backward called before forward");
        let [n, c, h, w] = cache.dims;
        let plane = h * w;
        let count = (n * plane) as f32;

        // dgamma, dbeta.
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = ((ni * c) + ci) * plane;
                for s in 0..plane {
                    dgamma[ci] += grad_output.data()[base + s] * cache.x_hat.data()[base + s];
                    dbeta[ci] += grad_output.data()[base + s];
                }
            }
        }
        self.gamma.grad.add_scaled_inplace(
            &Tensor::from_vec(dgamma.clone(), &[c]).expect("gamma grad shape"),
            1.0,
        );
        self.beta.grad.add_scaled_inplace(
            &Tensor::from_vec(dbeta.clone(), &[c]).expect("beta grad shape"),
            1.0,
        );

        let mut dx = vec![0.0f32; grad_output.numel()];
        if cache.train {
            // Full batch-norm backward: propagate through batch statistics.
            for ci in 0..c {
                let g = self.gamma.value.data()[ci];
                let inv_std = cache.inv_std[ci];
                let sum_dy = dbeta[ci];
                let sum_dy_xhat = dgamma[ci];
                for ni in 0..n {
                    let base = ((ni * c) + ci) * plane;
                    for s in 0..plane {
                        let dy = grad_output.data()[base + s];
                        let xh = cache.x_hat.data()[base + s];
                        dx[base + s] =
                            g * inv_std * (dy - sum_dy / count - xh * sum_dy_xhat / count);
                    }
                }
            }
        } else {
            // Evaluation mode: statistics are constants.
            for ci in 0..c {
                let g = self.gamma.value.data()[ci];
                let inv_std = cache.inv_std[ci];
                for ni in 0..n {
                    let base = ((ni * c) + ci) * plane;
                    for s in 0..plane {
                        dx[base + s] = grad_output.data()[base + s] * g * inv_std;
                    }
                }
            }
        }
        Tensor::from_vec(dx, grad_output.dims()).expect("bn grad shape is consistent")
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_path(prefix, "gamma"), &mut self.gamma);
        f(&join_path(prefix, "beta"), &mut self.beta);
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Vec<f32>)) {
        f(&join_path(prefix, "running_mean"), &mut self.running_mean);
        f(&join_path(prefix, "running_var"), &mut self.running_var);
    }

    fn name(&self) -> &str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_output_is_normalized() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::rand_normal(&mut rng, &[4, 3, 5, 5], 2.0, 3.0);
        let y = bn.forward(&x, true);
        // Per-channel mean ~0 and var ~1.
        let plane = 25;
        for ci in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                let base = ((ni * 3) + ci) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(2);
        // Train a few batches so running stats move towards the data statistics.
        for _ in 0..200 {
            let x = Tensor::rand_normal(&mut rng, &[8, 2, 4, 4], 5.0, 2.0);
            bn.forward(&x, true);
        }
        assert!((bn.running_mean()[0] - 5.0).abs() < 0.5);
        assert!((bn.running_var()[0] - 4.0).abs() < 1.0);
        // In eval mode a constant input equal to the running mean maps to ~beta (0).
        let x = Tensor::full(&[1, 2, 4, 4], bn.running_mean()[0]);
        let y = bn.forward(&x, false);
        assert!(y.data().iter().all(|&v| v.abs() < 0.2));
    }

    #[test]
    fn eval_backward_scales_by_gamma_over_std() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_var = vec![3.0];
        bn.running_mean = vec![1.0];
        let x = Tensor::full(&[1, 1, 2, 2], 2.0);
        bn.forward(&x, false);
        let g = bn.backward(&Tensor::ones(&[1, 1, 2, 2]));
        let expected = 1.0 / (3.0f32 + 1e-5).sqrt();
        assert!(g.data().iter().all(|&v| (v - expected).abs() < 1e-5));
    }

    #[test]
    fn train_backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::rand_normal(&mut rng, &[2, 2, 3, 3], 0.0, 1.0);

        // Loss = sum(bn(x) * w) with a fixed weighting to break symmetry.
        let wgt: Vec<f32> = (0..x.numel())
            .map(|i| ((i % 5) as f32 - 2.0) * 0.3)
            .collect();
        let weighted_sum =
            |y: &Tensor| -> f32 { y.data().iter().zip(&wgt).map(|(&a, &b)| a * b).sum() };

        bn.zero_grad();
        let y = bn.forward(&x, true);
        let grad_out = Tensor::from_vec(wgt.clone(), y.dims()).unwrap();
        let grad_in = bn.backward(&grad_out);

        let eps = 1e-3;
        for &idx in &[0usize, 10, 30] {
            // Fresh layer so running stats do not drift between evaluations.
            let mut bn2 = BatchNorm2d::new(2);
            let base = weighted_sum(&bn2.forward(&x, true));
            let mut x_plus = x.clone();
            x_plus.data_mut()[idx] += eps;
            let mut bn3 = BatchNorm2d::new(2);
            let plus = weighted_sum(&bn3.forward(&x_plus, true));
            let fd = (plus - base) / eps;
            assert!(
                (grad_in.data()[idx] - fd).abs() < 0.05 * (1.0 + fd.abs()),
                "idx {idx}: {} vs {fd}",
                grad_in.data()[idx]
            );
        }
    }

    #[test]
    fn forward_quantized_is_bit_identical_to_eval_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bn = BatchNorm2d::new(3);
        bn.running_mean = vec![0.7, -1.3, 0.05];
        bn.running_var = vec![2.5, 0.3, 11.0];
        bn.gamma.value = Tensor::from_vec(vec![1.2, -0.4, 0.9], &[3]).unwrap();
        bn.beta.value = Tensor::from_vec(vec![-0.1, 0.6, 0.25], &[3]).unwrap();
        let x = Tensor::rand_normal(&mut rng, &[2, 3, 5, 4], 0.2, 1.7);
        let eval = bn.forward(&x, false);
        let fast = bn.forward_quantized(&x, &mut QuantCursor::new(&[]));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(fast.dims(), eval.dims());
        assert_eq!(bits(&fast), bits(&eval));
    }

    #[test]
    fn visit_params_reports_gamma_beta() {
        let mut bn = BatchNorm2d::new(4);
        assert_eq!(
            (&mut bn as &mut dyn Layer).param_names(),
            vec!["gamma", "beta"]
        );
    }
}
