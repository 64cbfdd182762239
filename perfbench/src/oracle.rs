//! The serial oracles results are checked against (ARCHITECTURE.md,
//! "The bit-identity contract"), run after the timed phase.
//!
//! Both split the stream into one contiguous chunk per core and run the
//! chunks side by side; each chunk is itself strictly sequential.

use oisa_core::program::{run_reference, LayerProgram};
use oisa_core::{OisaAccelerator, OisaConfig, OisaError};
use oisa_sensor::frame::Frame;

use crate::common::{conv_digest, program_digest};

fn chunks(jobs: usize) -> Vec<(usize, usize)> {
    let parts = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .clamp(1, jobs.max(1));
    (0..parts)
        .map(|p| (jobs * p / parts, jobs * (p + 1) / parts))
        .filter(|(a, b)| a < b)
        .collect()
}

fn run_chunks(
    jobs: usize,
    chunk: impl Fn(usize, usize) -> Result<Vec<u64>, OisaError> + Sync,
) -> Result<Vec<u64>, OisaError> {
    let chunk = &chunk;
    let parts: Vec<Result<Vec<u64>, OisaError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks(jobs)
            .into_iter()
            .map(|(a, b)| scope.spawn(move || chunk(a, b)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(OisaError::Backend("oracle thread panicked".into())))
            })
            .collect()
    });
    let mut digests = Vec::new();
    for part in parts {
        digests.extend(part?);
    }
    Ok(digests)
}

/// Per-frame digests of the per-frame sequential loop
/// (`convolve_frame_sequential` on one accelerator) over jobs
/// `0..jobs`, where `job(i)` yields job `i`'s kernels and its
/// `frames_per_job` frames.
///
/// A chunk that starts at job `j > 0` enters the stream the way a shard
/// worker does: its fresh accelerator is aligned to the first frame's
/// noise epoch (one epoch per frame) and prewarmed with job `j - 1`'s
/// kernels, which is the fabric state the uninterrupted loop leaves
/// behind (ARCHITECTURE.md, "entry-state replication").
pub fn conv_stream(
    config: &OisaConfig,
    jobs: usize,
    frames_per_job: usize,
    job: impl Fn(usize) -> (Vec<Vec<f32>>, Vec<Frame>) + Sync,
) -> Result<Vec<u64>, OisaError> {
    run_chunks(jobs, |first, end| {
        let mut accel = OisaAccelerator::new(*config)?;
        if first > 0 {
            accel.align_noise_epoch((first * frames_per_job) as u64)?;
            let (previous, _) = job(first - 1);
            accel.prewarm(&previous, crate::common::K)?;
        }
        let mut digests = Vec::with_capacity((end - first) * frames_per_job);
        for index in first..end {
            let (kernels, frames) = job(index);
            for frame in &frames {
                let report = accel.convolve_frame_sequential(frame, &kernels, crate::common::K)?;
                digests.push(conv_digest(&report));
            }
        }
        Ok(digests)
    })
}

/// Per-frame digests of `program::run_reference` — one sequential
/// forward per job, from the job's first noise epoch — over jobs
/// `0..jobs` of `frames_per_job` frames each.
pub fn program_stream(
    config: &OisaConfig,
    program: &LayerProgram,
    jobs: usize,
    frames_per_job: usize,
    frames: impl Fn(usize) -> Vec<Frame> + Sync,
) -> Result<Vec<u64>, OisaError> {
    let stride = frames_per_job as u64 * program.epochs_per_frame();
    run_chunks(jobs, |first, end| {
        let mut digests = Vec::with_capacity((end - first) * frames_per_job);
        for index in first..end {
            let reports = run_reference(config, index as u64 * stride, program, &frames(index))?;
            digests.extend(reports.iter().map(program_digest));
        }
        Ok(digests)
    })
}
