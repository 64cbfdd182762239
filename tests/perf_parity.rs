//! Cross-crate guarantees of the optimised convolution pipeline:
//! thread-count-independent bit-identical physics, and agreement with
//! the pre-optimisation reference implementation.

use oisa::core::{OisaAccelerator, OisaConfig};
use oisa::device::noise::NoiseConfig;
use oisa::sensor::Frame;
use proptest::prelude::*;

fn textured_frame(side: usize) -> Frame {
    let data: Vec<f64> = (0..side * side)
        .map(|i| {
            let x = (i % side) as f64 / side as f64;
            let y = (i / side) as f64 / side as f64;
            (0.5 + 0.5 * (8.0 * x).sin() * (6.0 * y).cos()).clamp(0.0, 1.0)
        })
        .collect();
    Frame::new(side, side, data).unwrap()
}

fn kernel_bank(count: usize, k: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..k * k)
                .map(|j| ((i * 7 + j * 3) as f32 * 0.37).sin())
                .collect()
        })
        .collect()
}

/// The headline tentpole property: the parallel pipeline is bit-identical
/// to its sequential twin under a fixed seed — output, energy report and
/// timeline — even when forced onto multiple worker threads.
#[test]
fn parallel_pipeline_bit_identical_to_sequential_reference() {
    rayon::set_num_threads(4);
    let frame = textured_frame(32);
    let kernels = kernel_bank(8, 3);
    let mut cfg = OisaConfig::paper_default(32, 32);
    cfg.noise = NoiseConfig::paper_default();
    cfg.seed = 20_24;

    let mut parallel = OisaAccelerator::new(cfg).unwrap();
    let mut sequential = OisaAccelerator::new(cfg).unwrap();
    let rp = parallel.convolve_frame(&frame, &kernels, 3).unwrap();
    let rs = sequential
        .convolve_frame_sequential(&frame, &kernels, 3)
        .unwrap();

    assert_eq!(rp.output, rs.output, "outputs must be bit-identical");
    assert_eq!(rp.energy, rs.energy, "energy must be bit-identical");
    assert_eq!(rp.timeline, rs.timeline, "timeline must be bit-identical");

    // And a re-run of the parallel path on a fresh accelerator replays
    // exactly (counter-based streams under the same seed).
    let mut replay = OisaAccelerator::new(cfg).unwrap();
    let rr = replay.convolve_frame(&frame, &kernels, 3).unwrap();
    assert_eq!(rp.output, rr.output);
    assert_eq!(rp.energy, rr.energy);
}

/// With noise disabled, the optimised pipeline and the faithful
/// pre-optimisation port must produce exactly the same feature maps.
#[test]
fn optimised_pipeline_reproduces_reference_physics() {
    let frame = textured_frame(24);
    let kernels = kernel_bank(4, 3);
    let mut cfg = OisaConfig::paper_default(24, 24);
    cfg.noise = NoiseConfig::noiseless();
    cfg.seed = 5;

    let mut fast = OisaAccelerator::new(cfg).unwrap();
    let mut reference = OisaAccelerator::new(cfg).unwrap();
    let rf = fast.convolve_frame(&frame, &kernels, 3).unwrap();
    let rr = reference
        .convolve_frame_reference(&frame, &kernels, 3)
        .unwrap();
    assert_eq!(rf.output, rr.output);
}

/// The 5×5 kernel path (multi-arm, VOM-aggregated) holds the same
/// parallel/sequential parity.
#[test]
fn vom_aggregated_kernels_hold_parity() {
    rayon::set_num_threads(4);
    let frame = textured_frame(20);
    let kernels = kernel_bank(3, 5);
    let mut cfg = OisaConfig::paper_default(20, 20);
    cfg.noise = NoiseConfig::paper_default();
    cfg.seed = 99;

    let mut parallel = OisaAccelerator::new(cfg).unwrap();
    let mut sequential = OisaAccelerator::new(cfg).unwrap();
    let rp = parallel.convolve_frame(&frame, &kernels, 5).unwrap();
    let rs = sequential
        .convolve_frame_sequential(&frame, &kernels, 5)
        .unwrap();
    assert_eq!(rp.output, rs.output);
    assert_eq!(rp.energy, rs.energy);
    assert!(rp.energy.aggregation.get() > 0.0, "VOM must be exercised");
}

fn deterministic_frame(width: usize, height: usize, salt: u64) -> Frame {
    let data: Vec<f64> = (0..width * height)
        .map(|i| (((i as u64).wrapping_mul(salt | 1) % 97) as f64 / 96.0).clamp(0.0, 1.0))
        .collect();
    Frame::new(width, height, data).unwrap()
}

fn deterministic_kernels(count: usize, k2: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..k2)
                .map(|j| (((i * k2 + j) as f32 + salt as f32) * 0.37).sin())
                .collect()
        })
        .collect()
}

proptest! {
    #[test]
    fn engine_parallel_matches_sequential_bitwise(
        seed in 0u64..1_000,
        salt in 1u64..1_000,
        width in 8usize..=18,
        height in 8usize..=18,
        count in 1usize..=25,
        noisy in proptest::bool::ANY,
    ) {
        let mut cfg = OisaConfig::paper_default(width, height);
        cfg.seed = seed;
        cfg.noise = if noisy {
            NoiseConfig::paper_default()
        } else {
            NoiseConfig::noiseless()
        };
        let frame = deterministic_frame(width, height, salt);
        let kernels = deterministic_kernels(count, 9, salt);
        let mut par = OisaAccelerator::new(cfg).unwrap();
        let mut seq = OisaAccelerator::new(cfg).unwrap();
        let rp = par.convolve_frame(&frame, &kernels, 3).unwrap();
        let rs = seq.convolve_frame_sequential(&frame, &kernels, 3).unwrap();
        prop_assert_eq!(&rp.output, &rs.output);
        prop_assert_eq!(rp.energy, rs.energy);
    }

    #[test]
    fn engine_parity_holds_for_multi_arm_kernels(
        seed in 0u64..200,
        salt in 1u64..200,
        count in 1usize..=4,
    ) {
        // 5×5 kernels route through the VOM multi-arm path.
        let mut cfg = OisaConfig::paper_default(12, 12);
        cfg.seed = seed;
        cfg.noise = NoiseConfig::paper_default();
        let frame = deterministic_frame(12, 12, salt);
        let kernels = deterministic_kernels(count, 25, salt);
        let mut par = OisaAccelerator::new(cfg).unwrap();
        let mut seq = OisaAccelerator::new(cfg).unwrap();
        let rp = par.convolve_frame(&frame, &kernels, 5).unwrap();
        let rs = seq.convolve_frame_sequential(&frame, &kernels, 5).unwrap();
        prop_assert_eq!(&rp.output, &rs.output);
        prop_assert_eq!(rp.energy, rs.energy);
    }
}
