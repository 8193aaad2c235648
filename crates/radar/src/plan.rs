use crate::grouping::{GroupLayout, Grouping};
use crate::key::{KeyEpoch, SecretKey};
use crate::signature::{binarize, SignatureBits};

/// Number of masked-accumulation sweeps ([`LayerPlan::accumulate`] or the fused
/// [`LayerPlan::copy_accumulate`]) the verification plans have executed — one per
/// layer per signature computation or check, across signing, in-path verification,
/// scrubbing and rotation re-signing. Gated by the process-global observability
/// level ([`radar_obs::set_global_level`]); at `Off` each sweep pays one relaxed
/// load and a branch.
pub static VERIFY_SWEEPS: radar_obs::GlobalCounter = radar_obs::GlobalCounter::new();

/// Fixed lane width of the contiguous verify sweep's inner loop: each group is a
/// `chunks_exact(VERIFY_LANES)` dot product of i8×i8→i32 widening multiplies into a
/// lane-local accumulator array — the same shape as the GEMM micro-kernel's
/// fixed-width inner tile, chosen so the compiler autovectorizes the multiply/widen
/// without any unsafe SIMD intrinsics.
pub const VERIFY_LANES: usize = 16;

/// Precomputed verification plan for one layer: the layout, the key and the key's
/// ±1 sign of every slot — at most `G` bytes, whatever the layer's size.
///
/// The group mapping is closed-form, so the plan stores no per-weight or per-group
/// table. Detection reads the weights in storage order — the order the hardware's
/// weight-fetch path streams them in — one chunk at a time:
///
/// * **contiguous** grouping: each `G`-chunk is one group, whose masked sum is a
///   fixed-width dot product with the sign table;
/// * **interleaved** grouping with `n` groups and offset `t`: each `n`-chunk is
///   slot-row `r`, whose weight `c` belongs to group `(c + r·t) mod n`. The row is
///   added, times `signs[r]`, into the `n` accumulators rotated by `(r·t) mod n` —
///   two contiguous slices, no gather.
///
/// # Example
///
/// ```
/// use radar_core::{GroupLayout, Grouping, LayerPlan, SecretKey, SignatureBits};
///
/// let layout = GroupLayout::new(128, 16, Grouping::interleaved());
/// let plan = LayerPlan::new(layout, SecretKey::new(0xACE1));
/// let weights = vec![7i8; 128];
/// let sigs = plan.signatures(&weights, SignatureBits::Two);
/// assert_eq!(sigs.len(), layout.num_groups());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPlan {
    layout: GroupLayout,
    key: SecretKey,
    /// The ±1 key mask of each slot `0..G`.
    signs: Vec<i8>,
}

impl LayerPlan {
    /// Precomputes the streaming plan for `layout` under `key`.
    pub fn new(layout: GroupLayout, key: SecretKey) -> Self {
        let signs = (0..layout.group_size())
            .map(|slot| key.mask(slot) as i8)
            .collect();
        LayerPlan { layout, key, signs }
    }

    /// The layout this plan was compiled from.
    pub fn layout(&self) -> GroupLayout {
        self.layout
    }

    /// The layer's secret key.
    pub fn key(&self) -> SecretKey {
        self.key
    }

    /// Number of weights in the layer.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// Whether the planned layer has no weights; mirrors [`GroupLayout::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.layout.is_empty()
    }

    /// Number of groups in the layer.
    pub fn num_groups(&self) -> usize {
        self.layout.num_groups()
    }

    /// Weights per storage-order chunk of the sweep: one group (`G`) under
    /// contiguous grouping, one slot-row (`num_groups`) under interleaving.
    fn step(&self) -> usize {
        match self.layout.grouping() {
            Grouping::Contiguous => self.layout.group_size(),
            Grouping::Interleaved { .. } => self.num_groups(),
        }
    }

    /// Folds storage-order chunk `k` (see [`step`](Self::step)) into `acc`, which is
    /// exactly `num_groups` wide and zeroed before the first chunk.
    #[inline]
    fn fold_chunk(&self, k: usize, chunk: &[i8], acc: &mut [i32]) {
        match self.layout.grouping() {
            Grouping::Contiguous => acc[k] = dot_masked(chunk, &self.signs[..chunk.len()]),
            Grouping::Interleaved { offset } => {
                fold_row(acc, chunk, self.signs[k], (k * offset) % acc.len());
            }
        }
    }

    /// One storage-order sweep that writes every group's masked sum into
    /// `acc[group]`. The first `num_groups` entries of `acc` are overwritten; entries
    /// beyond that are left untouched so one scratch buffer can be shared across
    /// layers of different widths.
    ///
    /// Every sum is the same multiset of exact `i32` terms the per-group gather
    /// ([`gather_signatures`](crate::gather_signatures)) adds up, so results are
    /// bit-identical to it (pinned by the `plan_equivalence` proptests).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the planned layer length or `acc` holds
    /// fewer than `num_groups` entries.
    pub fn accumulate(&self, weights: &[i8], acc: &mut [i32]) {
        assert_eq!(
            weights.len(),
            self.len(),
            "weight count changed since the plan was built"
        );
        let acc = self.begin_sweep(acc);
        for (k, chunk) in weights.chunks(self.step()).enumerate() {
            self.fold_chunk(k, chunk, acc);
        }
    }

    /// Fused fetch-and-verify sweep: copies the layer's raw DRAM bytes into `dst`
    /// (reinterpreted as two's-complement `i8`, exactly as the weight-fetch path
    /// does) while computing every group's masked sum in the same pass. Each
    /// storage-order chunk is appended to `dst` and the just-written, cache-hot
    /// slice is folded into `acc` as in [`accumulate`](Self::accumulate) — one read
    /// of the bytes where a split fetch pays a copy pass plus a verify pass.
    ///
    /// `dst` is cleared first and `acc`'s first `num_groups` entries are
    /// overwritten, bit-identical to `read + copy` followed by
    /// [`accumulate`](Self::accumulate).
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the planned layer length or `acc` holds
    /// fewer than `num_groups` entries.
    pub fn copy_accumulate(&self, src: &[u8], dst: &mut Vec<i8>, acc: &mut [i32]) {
        assert_eq!(
            src.len(),
            self.len(),
            "byte count changed since the plan was built"
        );
        let acc = self.begin_sweep(acc);
        dst.clear();
        dst.reserve(src.len());
        for (k, chunk) in src.chunks(self.step()).enumerate() {
            let start = dst.len();
            dst.extend(chunk.iter().map(|&b| i8::from_ne_bytes([b])));
            self.fold_chunk(k, &dst[start..], acc);
        }
    }

    /// The shared prologue of both sweeps: checks `acc`'s size, ticks
    /// [`VERIFY_SWEEPS`] and returns the zeroed `num_groups`-wide accumulator.
    fn begin_sweep<'a>(&self, acc: &'a mut [i32]) -> &'a mut [i32] {
        let num_groups = self.num_groups();
        assert!(
            acc.len() >= num_groups,
            "accumulator holds {} entries, need {num_groups}",
            acc.len()
        );
        VERIFY_SWEEPS.add(1);
        let acc = &mut acc[..num_groups];
        acc.fill(0);
        acc
    }

    /// Streams the layer once and writes every group's signature into `out` (cleared
    /// first). `acc` is the caller-provided accumulator scratch, as in
    /// [`accumulate`](Self::accumulate).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`accumulate`](Self::accumulate).
    pub fn signatures_into(
        &self,
        weights: &[i8],
        bits: SignatureBits,
        acc: &mut [i32],
        out: &mut Vec<u8>,
    ) {
        self.accumulate(weights, acc);
        out.clear();
        out.extend(acc[..self.num_groups()].iter().map(|&m| binarize(m, bits)));
    }

    /// Convenience wrapper around [`signatures_into`](Self::signatures_into) that
    /// allocates its own scratch.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the planned layer length.
    pub fn signatures(&self, weights: &[i8], bits: SignatureBits) -> Vec<u8> {
        let mut acc = vec![0i32; self.num_groups()];
        let mut out = Vec::with_capacity(self.num_groups());
        self.signatures_into(weights, bits, &mut acc, &mut out);
        out
    }
}

/// Fixed-width masked dot product over contiguous weight and mask slices: lane-local
/// `i32` partial sums over [`VERIFY_LANES`]-wide blocks (the autovectorized fast
/// path), scalar over the ragged tail. Exact in `i32`, so any lane split produces
/// the same sum.
#[inline]
fn dot_masked(weights: &[i8], masks: &[i8]) -> i32 {
    let mut lanes = [0i32; VERIFY_LANES];
    let mut w = weights.chunks_exact(VERIFY_LANES);
    let mut m = masks.chunks_exact(VERIFY_LANES);
    for (wc, mc) in (&mut w).zip(&mut m) {
        for lane in 0..VERIFY_LANES {
            lanes[lane] += i32::from(wc[lane]) * i32::from(mc[lane]);
        }
    }
    let mut total: i32 = lanes.iter().sum();
    for (&wv, &mv) in w.remainder().iter().zip(m.remainder()) {
        total += i32::from(wv) * i32::from(mv);
    }
    total
}

/// Adds `sign · row` into the `n` group accumulators rotated by `rot`: element `c`
/// of an interleaved slot-row lands in `acc[(c + rot) mod n]`. That is two
/// contiguous slices — the row's head into `acc[rot..]`, its wrapped rest into
/// `acc[..rot]` — so both adds autovectorize. A ragged last row is simply shorter.
#[inline]
fn fold_row(acc: &mut [i32], row: &[i8], sign: i8, rot: usize) {
    let (wrapped_acc, head_acc) = acc.split_at_mut(rot);
    let (head, wrapped) = row.split_at(row.len().min(head_acc.len()));
    let sign = i32::from(sign);
    for (a, &w) in head_acc.iter_mut().zip(head) {
        *a += sign * i32::from(w);
    }
    for (a, &w) in wrapped_acc.iter_mut().zip(wrapped) {
        *a += sign * i32::from(w);
    }
}

/// The verification plan of a whole model: one [`LayerPlan`] per protected layer plus
/// the signature width, precomputed at signing time so every run-time detection pass is
/// a sequential, allocation-free sweep in weight-fetch order. It is also where each
/// layer's key and layout live: callers read them off
/// [`layer(l)`](Self::layer)`.key()` / `.layout()`.
///
/// Like the golden [`SignatureStore`](crate::SignatureStore), a plan is versioned by
/// the [`KeyEpoch`] its keys were derived for: verifying weights against a store from
/// another epoch is a category error, and the protection layer keeps plan and store
/// paired per epoch.
///
/// # Example
///
/// ```
/// use radar_core::{GroupLayout, Grouping, KeyEpoch, SecretKey, SignatureBits, VerifyPlan};
///
/// let plan = VerifyPlan::new(
///     [(GroupLayout::new(64, 8, Grouping::interleaved()), SecretKey::new(1))],
///     SignatureBits::Two,
/// );
/// assert_eq!(plan.num_layers(), 1);
/// assert_eq!(plan.max_groups(), 8);
/// assert_eq!(plan.epoch(), KeyEpoch::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyPlan {
    layers: Vec<LayerPlan>,
    bits: SignatureBits,
    epoch: KeyEpoch,
}

impl VerifyPlan {
    /// Compiles a plan from per-layer `(layout, key)` pairs, versioned as
    /// [`KeyEpoch::ZERO`].
    pub fn new(
        layers: impl IntoIterator<Item = (GroupLayout, SecretKey)>,
        bits: SignatureBits,
    ) -> Self {
        Self::for_epoch(layers, bits, KeyEpoch::ZERO)
    }

    /// Compiles a plan whose keys belong to `epoch`.
    pub fn for_epoch(
        layers: impl IntoIterator<Item = (GroupLayout, SecretKey)>,
        bits: SignatureBits,
        epoch: KeyEpoch,
    ) -> Self {
        VerifyPlan {
            layers: layers
                .into_iter()
                .map(|(layout, key)| LayerPlan::new(layout, key))
                .collect(),
            bits,
            epoch,
        }
    }

    /// Signature width signatures are compared at.
    pub fn signature_bits(&self) -> SignatureBits {
        self.bits
    }

    /// The key epoch this plan's keys were derived for.
    pub fn epoch(&self) -> KeyEpoch {
        self.epoch
    }

    /// Number of planned layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The per-layer plans in layer order.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// The plan of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn layer(&self, layer: usize) -> &LayerPlan {
        &self.layers[layer]
    }

    /// Largest group count of any planned layer — the scratch size one shared
    /// accumulator needs to serve every layer.
    pub fn max_groups(&self) -> usize {
        self.layers
            .iter()
            .map(LayerPlan::num_groups)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::gather_signatures;

    fn weights(len: usize) -> Vec<i8> {
        (0..len)
            .map(|i| (i as i32 * 37 % 251 - 125) as i8)
            .collect()
    }

    #[test]
    fn streaming_matches_gather_for_both_groupings() {
        for grouping in [
            Grouping::Contiguous,
            Grouping::interleaved(),
            Grouping::Interleaved { offset: 0 },
            Grouping::Interleaved { offset: 7 },
        ] {
            for (len, g) in [(128, 16), (130, 16), (37, 5), (513, 64)] {
                let layout = GroupLayout::new(len, g, grouping);
                let key = SecretKey::new(0xBEEF);
                let w = weights(len);
                for bits in [SignatureBits::Two, SignatureBits::Three] {
                    assert_eq!(
                        LayerPlan::new(layout, key).signatures(&w, bits),
                        gather_signatures(&w, &layout, &key, bits),
                        "{grouping:?} len={len} G={g} {bits:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_accumulator_serves_layers_of_different_widths() {
        let plan = VerifyPlan::new(
            [
                (
                    GroupLayout::new(256, 8, Grouping::interleaved()),
                    SecretKey::new(3),
                ),
                (
                    GroupLayout::new(64, 16, Grouping::Contiguous),
                    SecretKey::new(5),
                ),
            ],
            SignatureBits::Two,
        );
        let mut acc = vec![0i32; plan.max_groups()];
        let mut out = Vec::new();
        for layer in plan.layers() {
            let w = weights(layer.len());
            layer.signatures_into(&w, plan.signature_bits(), &mut acc, &mut out);
            assert_eq!(out, layer.signatures(&w, plan.signature_bits()));
        }
    }

    #[test]
    fn copy_accumulate_matches_copy_then_accumulate() {
        for grouping in [Grouping::Contiguous, Grouping::interleaved()] {
            for (len, g) in [(128, 16), (130, 16), (37, 5), (513, 64)] {
                let layout = GroupLayout::new(len, g, grouping);
                let plan = LayerPlan::new(layout, SecretKey::new(0xBEEF));
                let src: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
                let mut dst = Vec::new();
                let mut acc = vec![0i32; layout.num_groups()];
                plan.copy_accumulate(&src, &mut dst, &mut acc);
                let copied: Vec<i8> = src.iter().map(|&b| i8::from_ne_bytes([b])).collect();
                assert_eq!(dst, copied, "{grouping:?} len={len} G={g}");
                let mut expect = vec![0i32; layout.num_groups()];
                plan.accumulate(&copied, &mut expect);
                assert_eq!(acc, expect, "{grouping:?} len={len} G={g}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "byte count changed")]
    fn copy_accumulate_rejects_mismatched_byte_count() {
        let plan = LayerPlan::new(
            GroupLayout::new(16, 4, Grouping::Contiguous),
            SecretKey::insecure_unmasked(),
        );
        let mut acc = vec![0i32; 4];
        plan.copy_accumulate(&[0u8; 15], &mut Vec::new(), &mut acc);
    }

    #[test]
    #[should_panic(expected = "weight count changed")]
    fn accumulate_rejects_mismatched_weight_count() {
        let plan = LayerPlan::new(
            GroupLayout::new(16, 4, Grouping::Contiguous),
            SecretKey::insecure_unmasked(),
        );
        let mut acc = vec![0i32; 4];
        plan.accumulate(&[0i8; 15], &mut acc);
    }

    #[test]
    #[should_panic(expected = "accumulator holds")]
    fn accumulate_rejects_short_scratch() {
        let plan = LayerPlan::new(
            GroupLayout::new(16, 4, Grouping::Contiguous),
            SecretKey::insecure_unmasked(),
        );
        let mut acc = vec![0i32; 3];
        plan.accumulate(&[0i8; 16], &mut acc);
    }
}
