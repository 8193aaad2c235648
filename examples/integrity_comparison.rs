//! Compares RADAR's 2-bit signature with CRC and Hamming SEC-DED on one layer of
//! weights: detection of single MSB flips, paired-flip evasion, storage cost and the
//! analytical run-time cost on the gem5-substitute platform.
//!
//! Run with: `cargo run --release --example integrity_comparison`

use radar_repro::archsim::{simulate, ArchParams, DetectionScheme, NetworkWorkload};
use radar_repro::core::{group_signature, GroupLayout, Grouping, SecretKey, SignatureBits};
use radar_repro::integrity::{Crc, GroupCode, HammingSecDed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = 512usize;
    let layer: Vec<i8> = (0..4096).map(|_| rng.gen()).collect();
    let layout = GroupLayout::new(layer.len(), g, Grouping::interleaved());
    let key = SecretKey::random(&mut rng);

    // Detection of 1000 random single MSB flips per scheme.
    let crc = Crc::crc13();
    let hamming = HammingSecDed::new();
    let mut radar_hits = 0;
    let mut crc_hits = 0;
    let mut hamming_hits = 0;
    let trials = 1000;
    for _ in 0..trials {
        let idx = rng.gen_range(0..layer.len());
        let group = layout.group_of(idx);
        let clean: Vec<i8> = layout.members(group).map(|i| layer[i]).collect();
        let mut corrupted = clean.clone();
        let slot = layout
            .members(group)
            .position(|i| i == idx)
            .expect("member of its own group");
        corrupted[slot] = (corrupted[slot] as u8 ^ 0x80) as i8;

        if group_signature(&clean, &key, SignatureBits::Two)
            != group_signature(&corrupted, &key, SignatureBits::Two)
        {
            radar_hits += 1;
        }
        if crc.detects(crc.encode(&clean), &corrupted) {
            crc_hits += 1;
        }
        if hamming.detects(hamming.encode(&clean), &corrupted) {
            hamming_hits += 1;
        }
    }
    println!("single MSB flip detection over {trials} trials:");
    println!("  RADAR 2-bit signature: {radar_hits}/{trials}");
    println!("  CRC-13:               {crc_hits}/{trials}");
    println!("  Hamming SEC-DED:      {hamming_hits}/{trials}");

    // Storage for a ResNet-18-scale weight footprint.
    let weights = NetworkWorkload::resnet18_imagenet().total_weights();
    let radar_kb = (weights.div_ceil(g) * 2) as f64 / 8.0 / 1024.0;
    println!("\nstorage for {weights} weights at G={g}:");
    println!("  RADAR:   {radar_kb:.1} KB");
    println!(
        "  CRC-13:  {:.1} KB",
        crc.storage_bytes(weights, g) as f64 / 1024.0
    );
    println!(
        "  Hamming: {:.1} KB",
        hamming.storage_bytes(weights, g) as f64 / 1024.0
    );

    // Run-time cost on the analytical platform.
    let workload = NetworkWorkload::resnet18_imagenet();
    let params = ArchParams::cortex_m4f();
    let radar_t = simulate(
        &workload,
        &params,
        DetectionScheme::Radar {
            group_size: g,
            interleaved: true,
        },
    );
    let crc_t = simulate(
        &workload,
        &params,
        DetectionScheme::Crc {
            width: 13,
            group_size: g,
        },
    );
    println!("\ndetection time on the gem5-substitute platform (ResNet-18):");
    println!(
        "  RADAR:  {:.3} s ({:.2}% overhead)",
        radar_t.detection_seconds,
        radar_t.overhead_percent()
    );
    println!(
        "  CRC-13: {:.3} s ({:.2}% overhead)",
        crc_t.detection_seconds,
        crc_t.overhead_percent()
    );
}
