use radar_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layer::{join_path, Layer, Param};
use crate::quantized::QuantCursor;
use crate::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu, Sequential};

/// Configuration for the ResNet builders.
///
/// The paper uses ResNet-20 (CIFAR-10) and ResNet-18 (ImageNet) at their standard
/// widths. The block structure here is faithful; `base_width` scales the channel counts
/// so the reproduction's training and 100-round attack campaigns stay laptop-scale
/// (documented in DESIGN.md).
///
/// # Example
///
/// ```
/// use radar_nn::ResNetConfig;
///
/// let cfg = ResNetConfig::new(10, 16, 3, 42);
/// assert_eq!(cfg.num_classes, 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResNetConfig {
    /// Number of output classes.
    pub num_classes: usize,
    /// Channel count of the first stage (16 for the paper's ResNet-20, 64 for ResNet-18).
    pub base_width: usize,
    /// Number of input channels (3 for RGB images).
    pub in_channels: usize,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl ResNetConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes`, `base_width` or `in_channels` is zero.
    pub fn new(num_classes: usize, base_width: usize, in_channels: usize, seed: u64) -> Self {
        assert!(
            num_classes > 0 && base_width > 0 && in_channels > 0,
            "config values must be non-zero"
        );
        ResNetConfig {
            num_classes,
            base_width,
            in_channels,
            seed,
        }
    }

    /// Paper-faithful ResNet-20 width (base 16).
    pub fn resnet20_paper(num_classes: usize) -> Self {
        Self::new(num_classes, 16, 3, 20)
    }

    /// Paper-faithful ResNet-18 width (base 64).
    pub fn resnet18_paper(num_classes: usize) -> Self {
        Self::new(num_classes, 64, 3, 18)
    }

    /// A very small configuration for unit tests (base width 4).
    pub fn tiny(num_classes: usize) -> Self {
        Self::new(num_classes, 4, 3, 7)
    }
}

/// A basic residual block: two 3×3 convolutions with batch norm, plus an identity or
/// 1×1-convolution shortcut, followed by a ReLU on the sum.
pub struct ResidualBlock {
    main: Sequential,
    shortcut: Option<Sequential>,
    relu: Relu,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("projection_shortcut", &self.shortcut.is_some())
            .finish()
    }
}

impl ResidualBlock {
    /// Creates a basic block mapping `in_channels` to `out_channels` with the given
    /// stride on the first convolution.
    ///
    /// A projection (1×1 convolution + batch norm) shortcut is used whenever the stride
    /// is not 1 or the channel count changes, matching the original ResNet design.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
    ) -> Self {
        let mut main = Sequential::new();
        main.push(Conv2d::new(rng, in_channels, out_channels, 3, stride, 1));
        main.push(BatchNorm2d::new(out_channels));
        main.push(Relu::new());
        main.push(Conv2d::new(rng, out_channels, out_channels, 3, 1, 1));
        main.push(BatchNorm2d::new(out_channels));

        let shortcut = if stride != 1 || in_channels != out_channels {
            let mut s = Sequential::new();
            s.push(Conv2d::new(rng, in_channels, out_channels, 1, stride, 0));
            s.push(BatchNorm2d::new(out_channels));
            Some(s)
        } else {
            None
        };
        ResidualBlock {
            main,
            shortcut,
            relu: Relu::new(),
        }
    }

    /// Whether the block uses a projection shortcut.
    pub fn has_projection(&self) -> bool {
        self.shortcut.is_some()
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let main_out = self.main.forward(input, train);
        let short_out = match &mut self.shortcut {
            Some(s) => s.forward(input, train),
            None => input.clone(),
        };
        self.relu.forward(&main_out.add(&short_out), train)
    }

    fn forward_quantized(&mut self, input: &Tensor, weights: &mut QuantCursor<'_>) -> Tensor {
        // Same order as `visit_params`: main branch first, then the shortcut — the
        // cursor's shape checks fail loudly if the two ever drift apart.
        // The sum and the ReLU run in place on the main branch's output. Per element
        // this must stay `(main + short).max(0)`, what `forward(x, false)` computes,
        // so the two paths agree bit for bit.
        let mut out = self.main.forward_quantized(input, weights);
        let projected;
        let short = match &mut self.shortcut {
            Some(s) => {
                projected = s.forward_quantized(input, weights);
                &projected
            }
            None => input,
        };
        assert_eq!(out.dims(), short.dims(), "residual branch shapes differ");
        for (o, &s) in out.data_mut().iter_mut().zip(short.data()) {
            *o = (*o + s).max(0.0);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.relu.backward(grad_output);
        let g_main = self.main.backward(&g);
        let g_short = match &mut self.shortcut {
            Some(s) => s.backward(&g),
            None => g,
        };
        g_main.add(&g_short)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        self.main.visit_params(&join_path(prefix, "main"), f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(&join_path(prefix, "shortcut"), f);
        }
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Vec<f32>)) {
        self.main.visit_buffers(&join_path(prefix, "main"), f);
        if let Some(s) = &mut self.shortcut {
            s.visit_buffers(&join_path(prefix, "shortcut"), f);
        }
    }

    fn name(&self) -> &str {
        "residual_block"
    }
}

fn make_stage<R: Rng + ?Sized>(
    rng: &mut R,
    blocks: usize,
    in_channels: usize,
    out_channels: usize,
    first_stride: usize,
) -> Sequential {
    let mut stage = Sequential::new();
    for b in 0..blocks {
        let (cin, stride) = if b == 0 {
            (in_channels, first_stride)
        } else {
            (out_channels, 1)
        };
        stage.push(ResidualBlock::new(rng, cin, out_channels, stride));
    }
    stage
}

/// Builds the CIFAR-style ResNet-20: a 3×3 stem, three stages of three basic blocks
/// (widths `w`, `2w`, `4w`), global average pooling and a linear classifier.
///
/// # Example
///
/// ```
/// use radar_nn::{resnet20, Layer, ResNetConfig};
/// use radar_tensor::Tensor;
///
/// let mut model = resnet20(&ResNetConfig::tiny(10));
/// let y = model.forward(&Tensor::zeros(&[1, 3, 16, 16]), false);
/// assert_eq!(y.dims(), &[1, 10]);
/// ```
pub fn resnet20(cfg: &ResNetConfig) -> Sequential {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let w = cfg.base_width;
    let mut model = Sequential::new();
    model.push(Conv2d::new(&mut rng, cfg.in_channels, w, 3, 1, 1));
    model.push(BatchNorm2d::new(w));
    model.push(Relu::new());
    model.push(make_stage(&mut rng, 3, w, w, 1));
    model.push(make_stage(&mut rng, 3, w, 2 * w, 2));
    model.push(make_stage(&mut rng, 3, 2 * w, 4 * w, 2));
    model.push(GlobalAvgPool::new());
    model.push(Linear::new(&mut rng, 4 * w, cfg.num_classes));
    model
}

/// Builds the ImageNet-style ResNet-18: a 7×7/stride-2 stem with 2×2 max pooling, four
/// stages of two basic blocks (widths `w`, `2w`, `4w`, `8w`), global average pooling and
/// a linear classifier.
///
/// # Example
///
/// ```
/// use radar_nn::{resnet18, Layer, ResNetConfig};
/// use radar_tensor::Tensor;
///
/// let mut model = resnet18(&ResNetConfig::tiny(100));
/// let y = model.forward(&Tensor::zeros(&[1, 3, 32, 32]), false);
/// assert_eq!(y.dims(), &[1, 100]);
/// ```
pub fn resnet18(cfg: &ResNetConfig) -> Sequential {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let w = cfg.base_width;
    let mut model = Sequential::new();
    model.push(Conv2d::new(&mut rng, cfg.in_channels, w, 7, 2, 3));
    model.push(BatchNorm2d::new(w));
    model.push(Relu::new());
    model.push(MaxPool2d::new(2, 2));
    model.push(make_stage(&mut rng, 2, w, w, 1));
    model.push(make_stage(&mut rng, 2, w, 2 * w, 2));
    model.push(make_stage(&mut rng, 2, 2 * w, 4 * w, 2));
    model.push(make_stage(&mut rng, 2, 4 * w, 8 * w, 2));
    model.push(GlobalAvgPool::new());
    model.push(Linear::new(&mut rng, 8 * w, cfg.num_classes));
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet20_output_shape_and_param_count() {
        let mut model = resnet20(&ResNetConfig::resnet20_paper(10));
        let y = model.forward(&Tensor::zeros(&[2, 3, 32, 32]), false);
        assert_eq!(y.dims(), &[2, 10]);
        // The paper's ResNet-20 has ~0.27 M parameters; ours should be in that range.
        let n = (&mut model as &mut dyn Layer).param_count();
        assert!(n > 250_000 && n < 300_000, "param count {n}");
    }

    #[test]
    fn resnet18_output_shape() {
        let mut model = resnet18(&ResNetConfig::tiny(100));
        let y = model.forward(&Tensor::zeros(&[1, 3, 48, 48]), false);
        assert_eq!(y.dims(), &[1, 100]);
    }

    #[test]
    fn resnet18_paper_width_has_millions_of_params() {
        let mut model = resnet18(&ResNetConfig::new(1000, 64, 3, 0));
        let n = (&mut model as &mut dyn Layer).param_count();
        // Real ResNet-18 has ~11.7 M parameters.
        assert!(n > 10_000_000 && n < 13_000_000, "param count {n}");
    }

    #[test]
    fn residual_block_identity_vs_projection() {
        let mut rng = StdRng::seed_from_u64(0);
        let same = ResidualBlock::new(&mut rng, 8, 8, 1);
        let proj = ResidualBlock::new(&mut rng, 8, 16, 2);
        assert!(!same.has_projection());
        assert!(proj.has_projection());
    }

    /// The in-place add+ReLU of `ResidualBlock::forward_quantized` against the
    /// eval forward's own composition, `relu.forward(main + shortcut, false)`, over
    /// the same quantized branch outputs. Batch-norm statistics, affine parameters
    /// and biases are non-trivial; both the identity and the projection shortcut
    /// are covered.
    #[test]
    fn residual_block_forward_quantized_is_bit_identical_to_eval_composition() {
        use crate::quantized::forward_quantized_with;
        use crate::QuantView;

        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (cin, cout, stride) in [(4usize, 4usize, 1usize), (4, 8, 2)] {
            let mut rng = StdRng::seed_from_u64(cout as u64);
            let mut block = ResidualBlock::new(&mut rng, cin, cout, stride);
            let mut dims: Vec<Vec<usize>> = Vec::new();
            block.visit_params("", &mut |name, p| {
                if name.ends_with("weight") && p.value.shape().rank() >= 2 {
                    dims.push(p.value.dims().to_vec());
                } else {
                    for v in p.value.data_mut() {
                        *v = rng.gen::<f32>() - 0.3;
                    }
                }
            });
            for _ in 0..3 {
                let x = Tensor::rand_normal(&mut rng, &[2, cin, 6, 6], 0.5, 1.5);
                block.forward(&x, true);
            }
            let values: Vec<Vec<i8>> = dims
                .iter()
                .map(|d| {
                    let n: usize = d.iter().product();
                    (0..n).map(|i| ((i * 37 + 5) % 255) as i8).collect()
                })
                .collect();
            let views: Vec<QuantView<'_>> = values
                .iter()
                .zip(&dims)
                .map(|(v, d)| QuantView::new(v, 0.01, d))
                .collect();
            let x = Tensor::rand_normal(&mut rng, &[2, cin, 6, 6], 0.0, 1.0);

            let fast = forward_quantized_with(&mut block, &x, &views);
            let mut cursor = QuantCursor::new(&views);
            let main = block.main.forward_quantized(&x, &mut cursor);
            let short = match &mut block.shortcut {
                Some(s) => s.forward_quantized(&x, &mut cursor),
                None => x.clone(),
            };
            let eval = block.relu.forward(&main.add(&short), false);
            assert_eq!(fast.dims(), eval.dims());
            assert_eq!(bits(&fast), bits(&eval), "{cin}->{cout} stride {stride}");
        }
    }

    #[test]
    fn residual_block_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut block = ResidualBlock::new(&mut rng, 4, 8, 2);
        let x = Tensor::rand_normal(&mut rng, &[2, 4, 8, 8], 0.0, 1.0);
        let y = block.forward(&x, true);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
        let dx = block.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn end_to_end_gradient_flows_to_first_conv() {
        let mut model = resnet20(&ResNetConfig::tiny(5));
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_normal(&mut rng, &[2, 3, 12, 12], 0.0, 1.0);
        model.zero_grad();
        let y = model.forward(&x, false);
        model.backward(&Tensor::ones(y.dims()));
        let mut first_conv_grad_norm = None;
        model.visit_params("", &mut |name, p| {
            if first_conv_grad_norm.is_none() && name.ends_with("weight") {
                first_conv_grad_norm = Some(p.grad.norm_sq());
            }
        });
        assert!(first_conv_grad_norm.expect("model has weights") > 0.0);
    }

    #[test]
    fn param_names_are_unique() {
        let mut model = resnet20(&ResNetConfig::tiny(10));
        let names = (&mut model as &mut dyn Layer).param_names();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate parameter paths");
    }
}
