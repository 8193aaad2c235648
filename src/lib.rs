//! Workspace-level façade for the RADAR reproduction.
//!
//! This crate simply re-exports the sub-crates so the runnable examples and the
//! cross-crate integration tests can use one coherent namespace. See the README for an
//! overview and `DESIGN.md` for the system inventory.
//!
//! # Example
//!
//! ```
//! use radar_repro::core::{RadarConfig, RadarProtection};
//! use radar_repro::nn::{resnet20, ResNetConfig};
//! use radar_repro::quant::QuantizedModel;
//!
//! let model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(10))));
//! let radar = RadarProtection::new(&model, RadarConfig::paper_default(64));
//! assert!(radar.storage_bytes() > 0);
//!
//! // Signing compiled a streaming verification plan; the fetch path verifies one
//! // layer at a time through it.
//! assert_eq!(radar.plan().num_layers(), model.num_layers());
//! let mut acc = Vec::new();
//! assert!(!radar.detect_layers_with_scratch(&model, 0..1, &mut acc).attack_detected());
//! ```

pub use radar_archsim as archsim;
pub use radar_attack as attack;
pub use radar_core as core;
pub use radar_data as data;
pub use radar_integrity as integrity;
pub use radar_memsim as memsim;
pub use radar_nn as nn;
pub use radar_quant as quant;
pub use radar_serve as serve;
pub use radar_tensor as tensor;
