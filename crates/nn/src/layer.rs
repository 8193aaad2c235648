use radar_tensor::Tensor;

use crate::quantized::QuantCursor;

/// A learnable parameter: its value and the gradient accumulated by the last backward
/// pass.
///
/// # Example
///
/// ```
/// use radar_nn::Param;
/// use radar_tensor::Tensor;
///
/// let p = Param::new(Tensor::zeros(&[4, 4]));
/// assert_eq!(p.value.numel(), 16);
/// assert_eq!(p.grad.numel(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to [`value`](Param::value), accumulated by the
    /// most recent backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with the given initial value and a zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.dims());
    }
}

/// A neural-network layer with hand-derived forward and backward passes.
///
/// Layers cache whatever they need from the forward pass so that
/// [`backward`](Layer::backward) can be called immediately afterwards with the gradient
/// of the loss with respect to the layer output; it returns the gradient with respect to
/// the layer input and accumulates parameter gradients internally.
///
/// The trait is object safe so models can be composed from `Box<dyn Layer>`, and
/// requires `Send` so boxed models (and the quantized wrappers around them) can move
/// into worker threads — every layer is plain tensor data, so this costs nothing.
pub trait Layer: Send {
    /// Runs the layer on `input`. `train` selects training behaviour (e.g. batch
    /// statistics in [`BatchNorm2d`](crate::BatchNorm2d)).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad_output` (gradient w.r.t. this layer's output) backwards,
    /// returning the gradient w.r.t. this layer's input and accumulating parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before [`forward`](Layer::forward).
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Visits every parameter of this layer (and sub-layers) in a stable order.
    ///
    /// The visitor receives a hierarchical, `/`-separated name (e.g.
    /// `"stage1/block0/conv1/weight"`) and a mutable reference to the parameter.
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param));

    /// Visits every non-trainable state buffer of this layer (and sub-layers) in a
    /// stable order — e.g. batch-norm running statistics. Buffers are not touched by
    /// optimizers but must be saved and restored with checkpoints.
    ///
    /// The default implementation visits nothing.
    fn visit_buffers(&mut self, _prefix: &str, _f: &mut dyn FnMut(&str, &mut Vec<f32>)) {}

    /// Evaluation-mode forward pass executing directly off borrowed quantized
    /// weights: weight-bearing layers ([`Conv2d`](crate::Conv2d),
    /// [`Linear`](crate::Linear)) take their panel from `weights` and run the true
    /// integer GEMM — quantized activations, i8×i8 products accumulated in `i32`,
    /// scales and bias folded into the requantization epilogue; containers thread the
    /// cursor through their children in forward order.
    ///
    /// The float layers that keep backward state —
    /// [`BatchNorm2d`](crate::BatchNorm2d), [`Relu`](crate::Relu) and
    /// [`MaxPool2d`](crate::MaxPool2d) — override this with eval-only passes that
    /// run the same `f32` operations in the same order as `forward(x, false)`, so
    /// their output is bit-identical, but build no cache, mask or argmax: nothing
    /// calls [`backward`](Layer::backward) after this pass.
    /// [`ResidualBlock`](crate::ResidualBlock) adds its branches and applies its
    /// ReLU in place. Layers whose backward state is only a shape (global average
    /// pooling, flatten) use the default below, the float forward in evaluation mode.
    ///
    /// The float weight parameters of weight-bearing layers are never read — this is
    /// the path that executes the DRAM-resident `i8` image the RADAR check verifies.
    fn forward_quantized(&mut self, input: &Tensor, weights: &mut QuantCursor<'_>) -> Tensor {
        let _ = weights;
        self.forward(input, false)
    }

    /// Resets all parameter gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params("", &mut |_, p| p.zero_grad());
    }

    /// A short human-readable layer name used in parameter paths.
    fn name(&self) -> &str;
}

/// Extension helpers available on every `Layer` (including trait objects).
impl dyn Layer + '_ {
    /// Total number of scalar parameters in the layer.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params("", &mut |_, p| n += p.value.numel());
        n
    }

    /// Collects the names of all parameters in visit order.
    pub fn param_names(&mut self) -> Vec<String> {
        let mut names = Vec::new();
        self.visit_params("", &mut |name, _| names.push(name.to_owned()));
        names
    }
}

/// Joins a parameter-path prefix with a component, avoiding a leading separator.
pub(crate) fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_owned()
    } else {
        format!("{prefix}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
        assert_eq!(p.grad.dims(), &[2, 3]);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad = Tensor::ones(&[2]);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn join_path_handles_empty_prefix() {
        assert_eq!(join_path("", "conv1"), "conv1");
        assert_eq!(join_path("block0", "conv1"), "block0/conv1");
    }
}
