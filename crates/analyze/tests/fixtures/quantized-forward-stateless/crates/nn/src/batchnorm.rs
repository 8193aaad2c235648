// Fixture: an eval-only forward that builds the backward cache nothing reads.
// Seeded violation for the `quantized-forward-stateless` rule (function-scoped).
impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        // The training/float forward caches for backward; that is allowed.
        self.cache = Some(BnCache::new(input, train));
        self.normalize(input)
    }

    fn forward_quantized(&mut self, input: &Tensor, _weights: &mut QuantCursor<'_>) -> Tensor {
        let out = self.normalize(input);
        self.cache = Some(BnCache::new(input, false));
        out
    }
}
