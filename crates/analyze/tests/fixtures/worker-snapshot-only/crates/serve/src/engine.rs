// Fixture: a worker that reaches around the verified snapshot — it reads a layer
// straight out of DRAM, and it writes the image back into its replica to run the
// float forward. Seeded violations for the `worker-snapshot-only` rule.
fn worker_loop(dram: &WeightDram, buf: &mut Vec<i8>) {
    for layer in 0..dram.num_layers() {
        dram.read_layer_into(layer, buf);
    }
}

fn float_worker(dram: &WeightDram, model: &mut QuantizedModel, images: &Tensor) -> Tensor {
    dram.fetch_into(model);
    model.forward_float(images)
}
