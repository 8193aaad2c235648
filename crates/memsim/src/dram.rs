use radar_core::{DetectionReport, RadarProtection};
use radar_quant::QuantizedModel;

/// Geometry of the modelled DRAM device.
///
/// The defaults describe a single-rank DDR-style device: 8 banks of 32768 rows with
/// 8 KB per row — plenty to hold the weight footprints used in this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Number of banks.
    pub banks: usize,
    /// Rows per bank.
    pub rows_per_bank: usize,
    /// Bytes per row (the rowhammer blast radius).
    pub row_bytes: usize,
}

impl Default for DramGeometry {
    fn default() -> Self {
        DramGeometry {
            banks: 8,
            rows_per_bank: 32_768,
            row_bytes: 8 * 1024,
        }
    }
}

impl DramGeometry {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.banks * self.rows_per_bank * self.row_bytes
    }
}

/// A physical location of one byte in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramAddress {
    /// Bank index.
    pub bank: usize,
    /// Row index within the bank.
    pub row: usize,
    /// Column (byte offset) within the row.
    pub column: usize,
}

/// A DRAM main-memory model holding the quantized weight image of a model.
///
/// The weight bytes of every quantized layer are laid out contiguously, row-major per
/// layer, starting at a base address — exactly the arrangement the paper's threat model
/// assumes when rowhammer corrupts "the weights stored in DRAM main memory". The model
/// supports address translation (byte offset ↔ bank/row/column), loading layers back
/// into the [`QuantizedModel`] (the DRAM → cache fetch) and bit-precise corruption.
///
/// # Example
///
/// ```
/// use radar_memsim::{DramGeometry, WeightDram};
/// use radar_nn::{resnet20, ResNetConfig};
/// use radar_quant::QuantizedModel;
///
/// let model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(10))));
/// let dram = WeightDram::load(&model, DramGeometry::default());
/// assert_eq!(dram.weight_bytes(), model.total_weights());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightDram {
    geometry: DramGeometry,
    /// Byte offset of each layer's weights within the weight image.
    layer_offsets: Vec<usize>,
    /// The stored weight image (one byte per 8-bit weight).
    image: Vec<u8>,
}

impl WeightDram {
    /// Copies the quantized weights of `model` into a fresh DRAM image.
    ///
    /// # Panics
    ///
    /// Panics if the weight image does not fit in the device capacity.
    pub fn load(model: &QuantizedModel, geometry: DramGeometry) -> Self {
        let mut layer_offsets = Vec::with_capacity(model.num_layers());
        let mut image = Vec::with_capacity(model.total_weights());
        for layer in model.layers() {
            layer_offsets.push(image.len());
            image.extend(layer.weights().values().iter().map(|&v| v as u8));
        }
        assert!(
            image.len() <= geometry.capacity(),
            "weight image of {} bytes exceeds DRAM capacity {}",
            image.len(),
            geometry.capacity()
        );
        WeightDram {
            geometry,
            layer_offsets,
            image,
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> DramGeometry {
        self.geometry
    }

    /// Total number of stored weight bytes.
    pub fn weight_bytes(&self) -> usize {
        self.image.len()
    }

    /// Number of stored layers.
    pub fn num_layers(&self) -> usize {
        self.layer_offsets.len()
    }

    /// Number of weight bytes stored for `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn layer_len(&self, layer: usize) -> usize {
        assert!(
            layer < self.layer_offsets.len(),
            "layer {layer} out of bounds for {} stored layers",
            self.layer_offsets.len()
        );
        self.layer_offsets
            .get(layer + 1)
            .copied()
            .unwrap_or(self.image.len())
            - self.layer_offsets[layer]
    }

    /// Byte offset of `(layer, weight)` within the weight image.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn offset_of(&self, layer: usize, weight: usize) -> usize {
        self.layer_offsets[layer] + weight
    }

    /// Translates a byte offset into a physical bank/row/column address (rows are filled
    /// sequentially, banks interleaved per row for locality).
    pub fn address_of(&self, offset: usize) -> DramAddress {
        let row_global = offset / self.geometry.row_bytes;
        DramAddress {
            bank: row_global % self.geometry.banks,
            row: row_global / self.geometry.banks,
            column: offset % self.geometry.row_bytes,
        }
    }

    /// Reads the stored byte at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the weight image.
    pub fn read(&self, offset: usize) -> u8 {
        self.image[offset]
    }

    /// Overwrites the stored byte at `offset` — the write path a run-time recovery uses
    /// to zero flagged groups *in main memory*, so every later fetch delivers the
    /// recovered bytes instead of re-fetching the corruption.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the weight image.
    pub fn write(&mut self, offset: usize, value: u8) {
        assert!(
            offset < self.image.len(),
            "offset {offset} out of bounds for {} stored bytes",
            self.image.len()
        );
        self.image[offset] = value;
    }

    /// Copies one layer's stored bytes into `buf` as signed weight values, without
    /// touching any model — the view a background scrubber verifies directly against
    /// the golden signatures (via
    /// [`RadarProtection::verify_layer_values_with_scratch`](radar_core::RadarProtection::verify_layer_values_with_scratch)).
    ///
    /// `buf` is cleared and refilled; its capacity is reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn read_layer_into(&self, layer: usize, buf: &mut Vec<i8>) {
        let start = self.layer_offsets[layer];
        let len = self.layer_len(layer);
        buf.clear();
        buf.extend(self.image[start..start + len].iter().map(|&b| b as i8));
    }

    /// Borrows one layer's raw stored bytes — the zero-copy input of the fused
    /// fetch-and-verify kernel
    /// ([`LayerPlan::copy_accumulate`](radar_core::LayerPlan::copy_accumulate)),
    /// which reinterprets and copies them itself so the fetch stream is swept
    /// exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn layer_bytes(&self, layer: usize) -> &[u8] {
        let start = self.layer_offsets[layer];
        let len = self.layer_len(layer);
        &self.image[start..start + len]
    }

    /// Flips `bit` of the byte at `offset` (what one rowhammer-induced disturbance
    /// error does), returning the new byte value.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the weight image or `bit >= 8`.
    pub fn flip_bit(&mut self, offset: usize, bit: u32) -> u8 {
        assert!(bit < 8, "bit index {bit} out of range");
        self.image[offset] ^= 1 << bit;
        self.image[offset]
    }

    /// Copies the (possibly corrupted) stored weights back into `model` — the DRAM →
    /// on-chip fetch that precedes RADAR's run-time check.
    ///
    /// # Panics
    ///
    /// Panics if `model` does not have the layer sizes this image was built from.
    pub fn fetch_into(&self, model: &mut QuantizedModel) {
        assert_eq!(
            model.num_layers(),
            self.layer_offsets.len(),
            "layer count mismatch"
        );
        for layer_idx in 0..self.layer_offsets.len() {
            self.fetch_layer_into(model, layer_idx);
        }
    }

    /// Copies one layer's stored weights back into `model` — the per-layer granularity
    /// of the DRAM → on-chip fetch.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds or its size does not match the stored image.
    pub fn fetch_layer_into(&self, model: &mut QuantizedModel, layer: usize) {
        assert!(
            layer < self.layer_offsets.len(),
            "layer {layer} out of bounds for {} stored layers",
            self.layer_offsets.len()
        );
        let start = self.layer_offsets[layer];
        let stored_len = self
            .layer_offsets
            .get(layer + 1)
            .copied()
            .unwrap_or(self.image.len())
            - start;
        let len = model.layer(layer).len();
        assert_eq!(
            len, stored_len,
            "layer {layer} holds {len} weights but the stored image has {stored_len}"
        );
        let weights = model.layer_weights_mut(layer);
        for (i, value) in weights.values_mut().iter_mut().enumerate() {
            *value = self.image[start + i] as i8;
        }
    }

    /// Fetches every layer and verifies each one as soon as its bytes land on chip —
    /// RADAR's signature check embedded in the weight-fetch path. Layer `i` is fetched
    /// and streamed through `radar`'s [`VerifyPlan`](radar_core::VerifyPlan) before
    /// layer `i + 1` is touched, so detection covers exactly the weights inference is
    /// about to consume, not a whole-model rescan afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `model` or `radar` disagree with the layer sizes this image was built
    /// from.
    pub fn fetch_into_verified(
        &self,
        model: &mut QuantizedModel,
        radar: &RadarProtection,
    ) -> DetectionReport {
        assert_eq!(
            model.num_layers(),
            self.layer_offsets.len(),
            "layer count mismatch"
        );
        assert_eq!(
            radar.plan().num_layers(),
            self.layer_offsets.len(),
            "layer count mismatch"
        );
        let mut report = DetectionReport::default();
        // One accumulator sized for the widest layer serves every per-layer check.
        let mut acc = vec![0i32; radar.plan().max_groups()];
        for layer_idx in 0..self.layer_offsets.len() {
            self.fetch_layer_into(model, layer_idx);
            report.merge(&radar.verify_layer_values_with_scratch(
                layer_idx,
                model.layer_values(layer_idx),
                &mut acc,
            ));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_nn::{resnet20, ResNetConfig};

    fn model() -> QuantizedModel {
        QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))))
    }

    #[test]
    fn load_and_fetch_roundtrip_is_identity() {
        let mut m = model();
        let snapshot = m.snapshot();
        let dram = WeightDram::load(&m, DramGeometry::default());
        // Scramble the in-core copy, then fetch from DRAM: original values return.
        m.flip_bit(0, 0, 7);
        m.flip_bit(1, 1, 3);
        dram.fetch_into(&mut m);
        assert_eq!(m.snapshot(), snapshot);
    }

    #[test]
    fn flip_bit_corrupts_exactly_one_weight() {
        let mut m = model();
        let snapshot = m.snapshot();
        let mut dram = WeightDram::load(&m, DramGeometry::default());
        let offset = dram.offset_of(2, 7);
        dram.flip_bit(offset, 7);
        dram.fetch_into(&mut m);
        let corrupted = m.snapshot();
        assert_ne!(corrupted, snapshot);
        // Only the targeted weight changed.
        m.flip_bit(2, 7, 7);
        assert_eq!(m.snapshot(), snapshot);
    }

    #[test]
    fn addresses_are_within_geometry() {
        let m = model();
        let dram = WeightDram::load(&m, DramGeometry::default());
        let g = dram.geometry();
        for offset in [0usize, 1000, dram.weight_bytes() - 1] {
            let addr = dram.address_of(offset);
            assert!(addr.bank < g.banks);
            assert!(addr.row < g.rows_per_bank);
            assert!(addr.column < g.row_bytes);
        }
    }

    #[test]
    fn layer_offsets_are_contiguous() {
        let m = model();
        let dram = WeightDram::load(&m, DramGeometry::default());
        let mut expected = 0;
        for (i, layer) in m.layers().iter().enumerate() {
            assert_eq!(dram.offset_of(i, 0), expected);
            expected += layer.len();
        }
        assert_eq!(dram.weight_bytes(), expected);
    }

    #[test]
    fn fetch_layer_into_restores_one_layer_only() {
        let mut m = model();
        let snapshot = m.snapshot();
        let dram = WeightDram::load(&m, DramGeometry::default());
        m.flip_bit(0, 0, 7);
        m.flip_bit(1, 1, 3);
        dram.fetch_layer_into(&mut m, 0);
        assert_ne!(m.snapshot(), snapshot, "layer 1 must still be corrupted");
        dram.fetch_layer_into(&mut m, 1);
        assert_eq!(m.snapshot(), snapshot);
    }

    #[test]
    #[should_panic(expected = "stored image has")]
    fn fetching_a_mismatched_layer_size_panics() {
        let m = model();
        let dram = WeightDram::load(&m, DramGeometry::default());
        // Same layer count, wider layers: the per-layer size check must fire instead of
        // silently reading the next layer's bytes.
        let mut other = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::new(4, 8, 3, 7))));
        dram.fetch_layer_into(&mut other, 0);
    }

    #[test]
    fn verified_fetch_flags_exactly_the_corrupted_layer() {
        use radar_core::RadarConfig;

        let mut m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        let mut dram = WeightDram::load(&m, DramGeometry::default());
        dram.flip_bit(dram.offset_of(3, 11), 7);
        let report = dram.fetch_into_verified(&mut m, &radar);
        assert!(report.attack_detected());
        assert!(report.contains(3, radar.group_of(3, 11)));
        assert!(report.flagged.iter().all(|f| f.layer == 3));
        // The fetch itself delivered the corrupted byte on chip.
        assert_eq!(
            m.layer_values(3)[11],
            dram.read(dram.offset_of(3, 11)) as i8
        );
    }

    #[test]
    fn read_layer_into_matches_model_values_and_write_recovers() {
        use radar_core::{RadarConfig, RadarProtection};

        let mut m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        let mut dram = WeightDram::load(&m, DramGeometry::default());
        assert_eq!(dram.num_layers(), m.num_layers());
        let (mut buf, mut acc) = (Vec::new(), Vec::new());
        for layer in 0..dram.num_layers() {
            assert_eq!(dram.layer_len(layer), m.layer(layer).len());
            dram.read_layer_into(layer, &mut buf);
            assert_eq!(buf.as_slice(), m.layer_values(layer));
        }

        // Corrupt a byte in DRAM: the raw-slice verification over the stored bytes
        // flags it without any model fetch, and `write` restores it in place.
        let offset = dram.offset_of(4, 9);
        let clean = dram.read(offset);
        dram.flip_bit(offset, 7);
        dram.read_layer_into(4, &mut buf);
        assert!(radar
            .verify_layer_values_with_scratch(4, &buf, &mut acc)
            .attack_detected());
        dram.write(offset, clean);
        dram.read_layer_into(4, &mut buf);
        assert!(!radar
            .verify_layer_values_with_scratch(4, &buf, &mut acc)
            .attack_detected());
        // The in-core model was never involved.
        dram.fetch_into(&mut m);
        assert!(!radar.detect(&m).attack_detected());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_outside_image_panics() {
        let m = model();
        let mut dram = WeightDram::load(&m, DramGeometry::default());
        dram.write(dram.weight_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds DRAM capacity")]
    fn oversized_image_panics() {
        let m = model();
        WeightDram::load(
            &m,
            DramGeometry {
                banks: 1,
                rows_per_bank: 1,
                row_bytes: 16,
            },
        );
    }
}
