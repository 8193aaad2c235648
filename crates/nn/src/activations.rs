use radar_tensor::Tensor;

use crate::layer::{Layer, Param};
use crate::quantized::QuantCursor;

/// Rectified linear unit: `y = max(x, 0)`.
///
/// # Example
///
/// ```
/// use radar_nn::{Layer, Relu};
/// use radar_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap(), false);
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a new ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        input.map(|x| x.max(0.0))
    }

    /// Evaluation mode without the backward mask: the same `max(x, 0)`.
    fn forward_quantized(&mut self, input: &Tensor, _weights: &mut QuantCursor<'_>) -> Tensor {
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("Relu::backward called before forward");
        assert_eq!(
            mask.len(),
            grad_output.numel(),
            "Relu backward size mismatch"
        );
        let data = grad_output
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_output.dims()).expect("relu grad shape is consistent")
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut dyn FnMut(&str, &mut Param)) {}

    fn name(&self) -> &str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let y = relu.forward(&Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]).unwrap(), true);
        assert_eq!(y.data(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_vec(vec![-2.0, 0.5, 3.0], &[3]).unwrap(), true);
        let g = relu.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]).unwrap());
        assert_eq!(g.data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn forward_quantized_is_bit_identical_to_eval_forward() {
        let x = Tensor::from_vec(
            vec![-2.5, -0.0, 0.0, 1e-40, -1e-40, 3.25, f32::MIN, f32::MAX],
            &[2, 4],
        )
        .unwrap();
        let mut relu = Relu::new();
        let eval = relu.forward(&x, false);
        let fast = relu.forward_quantized(&x, &mut QuantCursor::new(&[]));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&eval));
    }

    #[test]
    fn has_no_params() {
        let mut relu = Relu::new();
        assert_eq!((&mut relu as &mut dyn Layer).param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "called before forward")]
    fn backward_before_forward_panics() {
        Relu::new().backward(&Tensor::zeros(&[1]));
    }
}
