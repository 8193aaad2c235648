//! Benchmark fixtures: the served models, their evaluation pools and the strike
//! profiles, built once and cached in the benchmark's own `cache/` directory.
//!
//! Nothing here is timed. Every derived file carries the weight checksum of the
//! model it was derived from in its name, and each checkpoint has a sidecar holding
//! the checksum it was written with, so a stale or corrupt cache is rebuilt instead
//! of silently used.

use std::path::{Path, PathBuf};

use radar_attack::{AttackProfile, BitFlip, FlipDirection, RandomBitFlip};
use radar_data::{Dataset, SyntheticSpec};
use radar_nn::{
    argmax_rows, load_params, resnet18, resnet20, save_params, Adam, Layer, ResNetConfig,
    Sequential, Trainer,
};
use radar_quant::{QuantizedModel, MSB};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The models the workloads serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelId {
    /// ResNet-20 on the cifar-like data (base width 16, 270,896 weights), trained
    /// for three epochs exactly as the experiment harness trains it.
    ResNet20,
    /// ResNet-18-like at base width 32 (2,799,200 weights), untrained, as the
    /// verification-throughput bench uses it.
    ResNet18W32,
    /// An untrained width-4 ResNet-20 for the benchmark's own self-test.
    Tiny,
}

impl ModelId {
    fn id(self) -> &'static str {
        match self {
            ModelId::ResNet20 => "resnet20_w16_e3",
            ModelId::ResNet18W32 => "resnet18_w32",
            ModelId::Tiny => "tiny_resnet20_w4",
        }
    }

    /// Training epochs (0: the fixture serves its seeded initialization).
    fn epochs(self) -> usize {
        match self {
            ModelId::ResNet20 => 3,
            ModelId::ResNet18W32 | ModelId::Tiny => 0,
        }
    }

    /// The synthetic data specification of the model's inputs.
    pub(crate) fn data_spec(self) -> SyntheticSpec {
        match self {
            ModelId::ResNet20 => SyntheticSpec::cifar_like().with_sizes(1_600, 800),
            ModelId::ResNet18W32 => SyntheticSpec::imagenet_like().with_sizes(20, 256),
            ModelId::Tiny => SyntheticSpec::cifar_like().with_sizes(10, 64),
        }
    }

    /// A freshly initialized float model of this architecture.
    pub(crate) fn float_model(self) -> Sequential {
        let classes = self.data_spec().num_classes;
        match self {
            ModelId::ResNet20 => resnet20(&ResNetConfig::new(classes, 16, 3, 20)),
            ModelId::ResNet18W32 => resnet18(&ResNetConfig::new(classes, 32, 3, 18)),
            ModelId::Tiny => resnet20(&ResNetConfig::tiny(classes)),
        }
    }

    /// Whether the stem is ResNet-18's 7×7/2 convolution followed by a 2×2 max-pool
    /// (otherwise ResNet-20's 3×3/1 stem).
    pub(crate) fn pooled_stem(self) -> bool {
        self == ModelId::ResNet18W32
    }
}

/// A loaded fixture: where the checkpoint lives, its checksum, the evaluation pool
/// and a clean quantized copy of the model.
pub struct Fixture {
    /// Which model.
    pub model: ModelId,
    /// The float checkpoint every replica and the signer load from.
    pub checkpoint: PathBuf,
    /// FNV-1a checksum of the quantized weight image (values and scales).
    pub checksum: u64,
    /// The evaluation pool traffic is drawn from.
    pub pool: Dataset,
    /// The clean quantized model (reference forwards, strike generation).
    pub clean: QuantizedModel,
    /// Input image side length.
    pub image_size: usize,
    cache: PathBuf,
}

/// FNV-1a over every layer's `i8` values and scale bits.
pub(crate) fn weight_checksum(model: &QuantizedModel) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    };
    for layer in model.layers() {
        for b in layer.weights().scale().to_le_bytes() {
            eat(b);
        }
        for &v in layer.weights().values() {
            eat(v as u8);
        }
    }
    hash
}

/// Loads `checkpoint` into a fresh float model and quantizes it: what each replica
/// and the signer pay at set-up.
///
/// # Panics
///
/// Panics if the checkpoint is missing or does not match the architecture.
pub(crate) fn load_quantized(model: ModelId, checkpoint: &Path) -> QuantizedModel {
    let mut float = model.float_model();
    load_params(&mut float, checkpoint).expect("fixture checkpoint matches its architecture");
    QuantizedModel::new(Box::new(float))
}

impl Fixture {
    /// Whether every cache file of `model` exists (their checksums are verified on
    /// [`load`](Self::load)).
    pub fn cached(model: ModelId, cache: &Path) -> bool {
        let files = [
            format!("{}.rnnp", model.id()),
            format!("{}.sum", model.id()),
        ];
        let labelled = model != ModelId::ResNet18W32
            || std::fs::read_dir(cache).is_ok_and(|entries| {
                entries.flatten().any(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with(model.id()) && name.ends_with(".labels")
                })
            });
        labelled && files.iter().all(|f| cache.join(f).exists())
    }

    /// Loads the fixture from `cache`, building whatever is missing or stale.
    ///
    /// # Panics
    ///
    /// Panics if the cache directory is not writable.
    pub fn load(model: ModelId, cache: &Path) -> Fixture {
        std::fs::create_dir_all(cache).expect("fixture cache directory is writable");
        let checkpoint = cache.join(format!("{}.rnnp", model.id()));
        let sidecar = cache.join(format!("{}.sum", model.id()));
        let recorded = std::fs::read_to_string(&sidecar)
            .ok()
            .and_then(|s| u64::from_str_radix(s.trim(), 16).ok());

        let mut cached = None;
        if let (Some(sum), true) = (recorded, checkpoint.exists()) {
            let mut float = model.float_model();
            if load_params(&mut float, &checkpoint).is_ok() {
                let q = QuantizedModel::new(Box::new(float));
                if weight_checksum(&q) == sum {
                    cached = Some(q);
                }
            }
        }
        let clean = cached.unwrap_or_else(|| {
            let mut float = build(model);
            save_params(&mut float, &checkpoint).expect("fixture cache directory is writable");
            let q = QuantizedModel::new(Box::new(float));
            std::fs::write(&sidecar, format!("{:016x}\n", weight_checksum(&q)))
                .expect("fixture cache directory is writable");
            q
        });
        let checksum = weight_checksum(&clean);

        let spec = model.data_spec();
        let (_, test) = spec.generate();
        let pool = match model {
            ModelId::ResNet18W32 => float_labelled(model, &checkpoint, &test, cache, checksum),
            ModelId::ResNet20 | ModelId::Tiny => test,
        };
        Fixture {
            model,
            checkpoint,
            checksum,
            pool,
            clean,
            image_size: spec.image_size,
            cache: cache.to_path_buf(),
        }
    }

    /// The `count` strike profiles of `flips` random single-MSB flips each, drawn
    /// from `seed` against the clean model (cached per checksum and seed).
    pub fn strike_profiles(&mut self, seed: u64, count: usize, flips: usize) -> Vec<AttackProfile> {
        let path = self.cache.join(format!(
            "strikes-{:016x}-{seed}-{count}x{flips}.txt",
            self.checksum
        ));
        if let Some(profiles) = read_profiles(&path, &self.clean, count, flips) {
            return profiles;
        }
        let snapshot = self.clean.snapshot();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5712_CE00_0000_0000);
        let profiles: Vec<AttackProfile> = (0..count)
            .map(|_| {
                let profile = RandomBitFlip::new(flips)
                    .msb_only()
                    .attack(&mut self.clean, &mut rng);
                self.clean.restore(&snapshot);
                profile
            })
            .collect();
        let text: String = profiles
            .iter()
            .flat_map(|p| &p.flips)
            .map(|f| format!("{} {}\n", f.layer, f.weight))
            .collect();
        std::fs::write(&path, text).expect("fixture cache directory is writable");
        profiles
    }
}

/// Builds the model's float weights: trains it (deterministically) or keeps its
/// seeded initialization.
fn build(model: ModelId) -> Sequential {
    let mut float = model.float_model();
    let epochs = model.epochs();
    if epochs > 0 {
        eprintln!(
            "[servebench] training {} for {epochs} epochs (cached afterwards)",
            model.id()
        );
        let (train, _) = model.data_spec().generate();
        let mut rng = StdRng::seed_from_u64(0x7EA1);
        let mut trainer = Trainer::new(Adam::new(2e-3, 1e-4), 32);
        let report = trainer.fit(&mut float, train.images(), train.labels(), epochs, &mut rng);
        eprintln!(
            "[servebench] trained: train accuracy {}",
            report.train_accuracy
        );
    }
    float
}

/// The untrained model's pool, labelled with the float model's own top-1 so served
/// accuracy measures int8 fidelity to float instead of chance agreement with the
/// generator's classes.
fn float_labelled(
    model: ModelId,
    checkpoint: &Path,
    test: &Dataset,
    cache: &Path,
    checksum: u64,
) -> Dataset {
    let path = cache.join(format!("{}-{checksum:016x}.labels", model.id()));
    let cached: Option<Vec<usize>> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| s.split_whitespace().map(|t| t.parse().ok()).collect());
    let labels = match cached {
        Some(labels) if labels.len() == test.len() => labels,
        _ => {
            let mut float = model.float_model();
            load_params(&mut float, checkpoint).expect("fixture checkpoint was just written");
            let ids: Vec<usize> = (0..test.len()).collect();
            let labels: Vec<usize> = ids
                .chunks(32)
                .flat_map(|chunk| {
                    let batch = test.subset(chunk);
                    argmax_rows(&float.forward(batch.images(), false))
                })
                .collect();
            let text: Vec<String> = labels.iter().map(ToString::to_string).collect();
            std::fs::write(&path, text.join("\n")).expect("fixture cache directory is writable");
            labels
        }
    };
    Dataset::new(test.images().clone(), labels).expect("one label per pool image")
}

/// Reads cached strike profiles, rebuilding each flip's bookkeeping from the clean
/// model. `None` when the file is missing or malformed.
fn read_profiles(
    path: &Path,
    clean: &QuantizedModel,
    count: usize,
    flips: usize,
) -> Option<Vec<AttackProfile>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut all = Vec::with_capacity(count * flips);
    for line in text.lines() {
        let mut it = line.split_whitespace().map(str::parse::<usize>);
        let (Some(Ok(layer)), Some(Ok(weight)), None) = (it.next(), it.next(), it.next()) else {
            return None;
        };
        if layer >= clean.num_layers() || weight >= clean.layer(layer).len() {
            return None;
        }
        let before = clean.layer(layer).weights().value(weight);
        all.push(BitFlip {
            layer,
            weight,
            bit: MSB,
            direction: if clean.layer(layer).weights().bit(weight, MSB) {
                FlipDirection::OneToZero
            } else {
                FlipDirection::ZeroToOne
            },
            weight_before: before,
        });
    }
    if all.len() != count * flips {
        return None;
    }
    Some(
        all.chunks(flips.max(1))
            .map(|c| AttackProfile {
                flips: c.to_vec(),
                ..AttackProfile::default()
            })
            .collect(),
    )
}

/// The directory fixtures are cached in: `cache/` next to the benchmark's manifest.
pub fn default_cache() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("cache")
}

/// The directory traced runs write their spans to: `out/` next to the manifest.
pub fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
