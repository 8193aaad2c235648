//! RADAR: Run-time Adversarial Weight Attack Detection and Accuracy Recovery.
//!
//! This crate is the paper's primary contribution. It protects the 8-bit quantized
//! weights of a DNN against the Progressive Bit-Flip Attack by:
//!
//! 1. **Grouping** each layer's weights into groups of `G`, optionally *interleaving*
//!    them so group members are originally far apart ([`GroupLayout`], [`Grouping`]).
//! 2. **Masking** each group with a per-layer 16-bit secret key that decides whether a
//!    weight enters the checksum directly or negated ([`SecretKey`]). Keys are not a
//!    one-time draw: a [`KeySchedule`] derives an independent key per
//!    `(layer, [`KeyEpoch`])` cell from a [`MasterSecret`] via HMAC-SHA256, and the
//!    protection can roll to a fresh epoch under live traffic
//!    ([`RadarProtection::begin_rotation`]) with a `{current, previous}` acceptance
//!    window so in-flight verification is never stranded.
//! 3. **Signing** each group with a 2-bit (or 3-bit) signature obtained by binarizing
//!    the masked addition checksum ([`SignatureBits`], [`group_signature`]); the golden
//!    signatures live in secure on-chip memory ([`SignatureStore`]).
//! 4. **Detecting** at run time by recomputing and comparing signatures
//!    ([`RadarProtection::detect`]) and **recovering** by zeroing every weight of a
//!    flagged group ([`RadarProtection::recover`]).
//!
//! Detection streams through a [`VerifyPlan`] compiled at signing time: per layer,
//! only the layout, the key and one ±1 sign per slot ([`LayerPlan`]). The group
//! mapping is closed-form, so every run-time pass is one sequential sweep over the
//! layer's weights in fetch order — contiguous groups as masked dot products,
//! interleaved slot-rows folded into rotated accumulators — with no per-weight
//! tables, no gathers and no allocations.
//! Besides the model-level [`RadarProtection::detect`], two per-layer entry points
//! expose the fetch-path granularity: [`RadarProtection::verify_layer_values_with_scratch`]
//! checks values already on chip (scrubbing, pre-resign and post-recovery checks), and
//! [`RadarProtection::fetch_verify_layer_at_epoch_with_scratch`] copies a layer's raw
//! DRAM bytes out while checking them in the same sweep (the serving snapshot build).
//! All three run through one per-layer core.
//!
//! [`ProtectedModel`] embeds the whole flow into the inference path.
//!
//! # Example
//!
//! ```
//! use radar_core::{RadarConfig, RadarProtection};
//! use radar_nn::{resnet20, ResNetConfig};
//! use radar_quant::{QuantizedModel, MSB};
//!
//! # fn main() {
//! let mut model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(10))));
//! let mut radar = RadarProtection::new(&model, RadarConfig::paper_default(64));
//!
//! // Rowhammer flips the MSB of a stored weight at run time…
//! model.flip_bit(0, 5, MSB);
//!
//! // …RADAR flags the group and zeroes it out.
//! let (report, recovery) = radar.detect_and_recover(&mut model);
//! assert!(report.attack_detected());
//! assert!(recovery.weights_zeroed > 0);
//! # }
//! ```

mod config;
mod grouping;
mod key;
mod plan;
mod protected;
mod protection;
mod signature;
mod store;

pub use config::RadarConfig;
pub use grouping::{GroupLayout, Grouping, Members};
pub use key::{KeyEpoch, KeySchedule, MasterSecret, SecretKey, KEY_BITS};
pub use plan::{LayerPlan, VerifyPlan, VERIFY_LANES, VERIFY_SWEEPS};
pub use protected::{ProtectedModel, ProtectionStats};
pub use protection::{DetectionReport, FlaggedGroup, RadarProtection, RecoveryReport};
pub use signature::{
    binarize, gather_signatures, group_signature, masked_sum, SignatureBits, MAX_GROUP_LEN,
};
pub use store::SignatureStore;
