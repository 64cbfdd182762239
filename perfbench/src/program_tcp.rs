//! `program-tcp`: the OASIS drill. One client in a closed loop sends
//! 8-frame autoencoder-encoder `ProgramJob`s to a `ShardedBackend`
//! over two loopback `TcpWorker`s. The dense stage dominates, and each
//! shard ships about 1.5 MB, so wire and transport costs are real.

use std::sync::Arc;
use std::time::Instant;

use oisa_core::backend::{
    ComputeBackend, ShardTransport, ShardedBackend, TcpTransport, TcpTransportConfig, TcpWorker,
};
use oisa_core::program::{LayerProgram, ProgramFrameReport};
use oisa_core::wire::ProgramJob;
use oisa_core::{OisaConfig, OisaError};
use oisa_sensor::frame::Frame;

use crate::common::{
    closed_loop, config, failed_ops, fold_digests, mismatches, ms, peak_rss_mb, pick_frames,
    program_digest, repeated_setup, scene_pool, setup_metric, trace_overhead, Json, Metrics,
    Outcome, Rng, SIDE,
};
use crate::layers::{RoundTripLog, TimedTransport};
use crate::oracle;
use crate::sharded::ShardedTrace;

const FRAMES_PER_JOB: usize = 8;
const FEATURES: usize = 2;
const LATENT: usize = 8;
const WORKERS: usize = 2;
const POOL: usize = 24;
/// Untimed jobs before the first timed one, about a second: the first
/// jobs of a process run slower while memory is first touched and
/// caches fill.
const WARMUP_JOBS: usize = 6;

struct Inputs {
    seed: u64,
    pool: Vec<Frame>,
    program: LayerProgram,
}

impl Inputs {
    fn frames(&self, index: usize) -> Vec<Frame> {
        let mut rng = Rng::new(self.seed, 0x9700_0000 ^ index as u64);
        pick_frames(&mut rng, &self.pool, FRAMES_PER_JOB)
    }

    fn job(&self, index: usize) -> ProgramJob {
        ProgramJob {
            job_id: index as u64,
            program: self.program.clone(),
            frames: self.frames(index),
        }
    }
}

/// Binds two loopback worker daemons and connects to each (handshake
/// included). With a log, each transport is wrapped for tracing.
fn fleet(cfg: OisaConfig, log: Option<&Arc<RoundTripLog>>) -> ShardedBackend {
    let workers: Vec<Box<dyn ShardTransport>> = (0..WORKERS)
        .map(|_| {
            let endpoint = TcpWorker::bind(cfg, "127.0.0.1:0")
                .and_then(TcpWorker::spawn)
                .expect("loopback worker daemon starts")
                .endpoint();
            let tcp =
                TcpTransport::connect(endpoint, cfg.fingerprint(), TcpTransportConfig::default())
                    .expect("loopback worker accepts the handshake");
            match log {
                Some(log) => Box::new(TimedTransport::new(tcp, log)) as Box<dyn ShardTransport>,
                None => Box::new(tcp),
            }
        })
        .collect();
    ShardedBackend::new(cfg, workers).expect("two workers make a fleet")
}

fn record(digests: &mut Vec<u64>, result: Result<Vec<ProgramFrameReport>, OisaError>) {
    match result {
        Ok(reports) if reports.len() == FRAMES_PER_JOB => {
            digests.extend(reports.iter().map(program_digest));
        }
        _ => digests.extend([0; FRAMES_PER_JOB]),
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = config(seed);
    let inputs = Inputs {
        seed,
        pool: scene_pool(seed, POOL),
        program: LayerProgram::autoencoder(SIDE, SIDE, FEATURES, LATENT, seed)
            .expect("autoencoder fits a 128x128 frame"),
    };
    let log = trace.then(|| Arc::new(RoundTripLog::default()));
    let (mut backend, setup_s) = repeated_setup(|| fleet(cfg, log.as_ref()));

    // Warm-up jobs are verified but not timed.
    let mut digests = Vec::new();
    for index in 0..WARMUP_JOBS {
        record(&mut digests, backend.run_program(&inputs.job(index)));
    }

    let latencies = closed_loop(WARMUP_JOBS, seconds, |index| {
        let job = inputs.job(index);
        let start = Instant::now();
        let result = backend.run_program(&job);
        let took = start.elapsed();
        record(&mut digests, result);
        took
    });
    let peak_mb = peak_rss_mb();
    let mut next = WARMUP_JOBS + latencies.len();
    let mut phase = WARMUP_JOBS..next;

    let mut metrics = Metrics::default();
    let mut detail = Vec::new();
    let mut replay_failures = Vec::new();
    if let Some(log) = &log {
        log.enable();
        let mut traced_jobs = ShardedTrace::default();
        let traced = closed_loop(next, seconds, |index| {
            let job = inputs.job(index);
            let start = Instant::now();
            let result = backend.run_program(&job);
            let took = start.elapsed();
            record(&mut digests, result);
            if !traced_jobs.job(&cfg, start, ms(took), &log.take()) {
                replay_failures.push(index);
            }
            took
        });
        phase = next..next + traced.len();
        next = phase.end;
        let (split, other) = traced_jobs.metrics(&mut metrics, "tcp.transport");
        metrics.push("program-tcp.other_share", other, "share");
        trace_overhead(
            &mut metrics,
            &mut detail,
            &Metrics::from_latencies(&latencies, FRAMES_PER_JOB),
            &Metrics::from_latencies(&traced, FRAMES_PER_JOB),
        );
        detail.push(("breakdown".into(), split));
    } else {
        metrics = Metrics::from_latencies(&latencies, FRAMES_PER_JOB);
        setup_metric(&mut metrics, &mut detail, &setup_s);
        metrics.push("peak_rss_mb", peak_mb, "MB");
    }
    drop(backend);

    let oracle = oracle::program_stream(&cfg, &inputs.program, next, FRAMES_PER_JOB, |i| {
        inputs.frames(i)
    })
    .unwrap_or_default();
    detail.push((
        "job".into(),
        Json::obj([
            ("frames", Json::Int(FRAMES_PER_JOB as u64)),
            ("workers", Json::Int(WORKERS as u64)),
            (
                "program_stages",
                Json::Int(inputs.program.stages.len() as u64),
            ),
            ("replay_mismatches", Json::Int(replay_failures.len() as u64)),
        ]),
    ));
    Outcome {
        metrics,
        attempted: phase.len() as u64,
        // A job whose worker side did not replay byte for byte is failed
        // even when its merged result matches.
        failed: failed_ops(&digests, &oracle, phase, FRAMES_PER_JOB, &replay_failures),
        verified: digests.len() as u64,
        mismatched: (mismatches(&digests, &oracle) + replay_failures.len()) as u64,
        digest: fold_digests(&digests),
        detail,
    }
}
