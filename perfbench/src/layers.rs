//! Tracing from outside the program: timing wrappers around the
//! `ComputeBackend` and `ShardTransport` seams, worker-side replays of
//! captured shard bytes, and the optics microbenchmark.
//!
//! Nothing here changes what the program computes. A replay re-runs a
//! captured request through the same public functions a worker calls
//! and must reproduce the real reply byte for byte; a mismatch counts
//! as a failed operation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oisa_core::backend::{execute_shard, BackendResult, ComputeBackend, ShardTransport};
use oisa_core::program::{
    ActivationKind, LayerProgram, ProgramFrameReport, QuantizeKind, Stage, StageReport,
};
use oisa_core::wire::{self, InferenceJob, ProgramJob, ProgramReport, WireMessage};
use oisa_core::{ConvolutionReport, OisaAccelerator, OisaConfig, OisaError};
use oisa_device::noise::{NoiseConfig, NoiseSource};
use oisa_nn::quantize::{LevelQuantizer, TernaryActivation};
use oisa_optics::arm::{Arm, ArmConfig};
use oisa_optics::weights::WeightMapper;

use crate::common::{ms, Rng};

// ---------------------------------------------------------------------
// ComputeBackend wrapper
// ---------------------------------------------------------------------

/// One call into the wrapped backend.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: Instant,
    pub end: Instant,
    pub frames: usize,
}

/// Times every job the wrapped backend executes.
pub struct TimedBackend<B> {
    inner: B,
    calls: Arc<Mutex<Vec<Call>>>,
}

impl<B: ComputeBackend> TimedBackend<B> {
    pub fn new(inner: B) -> (Self, Arc<Mutex<Vec<Call>>>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                inner,
                calls: Arc::clone(&calls),
            },
            calls,
        )
    }

    fn record(&self, start: Instant, frames: usize) {
        let end = Instant::now();
        self.calls
            .lock()
            .expect("call log poisoned")
            .push(Call { start, end, frames });
    }
}

impl<B: ComputeBackend> ComputeBackend for TimedBackend<B> {
    fn config(&self) -> &OisaConfig {
        self.inner.config()
    }

    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>> {
        let start = Instant::now();
        let result = self.inner.run_job(job);
        self.record(start, job.frames.len());
        result
    }

    fn run_program(&mut self, job: &ProgramJob) -> BackendResult<Vec<ProgramFrameReport>> {
        let start = Instant::now();
        let result = self.inner.run_program(job);
        self.record(start, job.frames.len());
        result
    }

    fn frame_dims(&self) -> (usize, usize) {
        self.inner.frame_dims()
    }

    fn check_workload(&self, kernels: &[Vec<f32>], k: usize) -> BackendResult<()> {
        self.inner.check_workload(kernels, k)
    }
}

// ---------------------------------------------------------------------
// ShardTransport wrapper
// ---------------------------------------------------------------------

/// Payload byte holding the message tag, and the tags of the two shard
/// messages (`docs/wire-format.md`).
const TAG_OFFSET: usize = 4;
const TAG_SHARD: u8 = 2;
const TAG_PROGRAM_SHARD: u8 = 10;

/// True for a conv or program shard request (not a ping or config push).
pub fn is_shard(message: &[u8]) -> bool {
    matches!(
        message.get(TAG_OFFSET),
        Some(&TAG_SHARD | &TAG_PROGRAM_SHARD)
    )
}

/// One shard round trip, with the bytes that crossed the seam.
#[derive(Debug)]
pub struct RoundTrip {
    pub start: Instant,
    pub end: Instant,
    pub request: Vec<u8>,
    pub reply: Option<Vec<u8>>,
}

/// The round trips recorded by every [`TimedTransport`] of a fleet.
/// Recording starts switched off, so one fleet serves both the
/// untraced reference phase and the traced phase of a traced run.
#[derive(Debug, Default)]
pub struct RoundTripLog {
    enabled: AtomicBool,
    trips: Mutex<Vec<RoundTrip>>,
}

impl RoundTripLog {
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Drains the log: the round trips of the operation that just
    /// ended, in start order.
    pub fn take(&self) -> Vec<RoundTrip> {
        let mut trips = std::mem::take(&mut *self.trips.lock().expect("round-trip log poisoned"));
        trips.sort_by_key(|t| t.start);
        trips
    }
}

/// Times each shard round trip of the wrapped transport and keeps the
/// request and reply bytes for replay. Other messages pass untouched.
pub struct TimedTransport<T> {
    inner: T,
    log: Arc<RoundTripLog>,
}

impl<T: ShardTransport> TimedTransport<T> {
    pub fn new(inner: T, log: &Arc<RoundTripLog>) -> Self {
        Self {
            inner,
            log: Arc::clone(log),
        }
    }
}

impl<T: ShardTransport> ShardTransport for TimedTransport<T> {
    fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>> {
        if !is_shard(message) || !self.log.enabled.load(Ordering::SeqCst) {
            return self.inner.round_trip(message);
        }
        let start = Instant::now();
        let result = self.inner.round_trip(message);
        let end = Instant::now();
        self.log
            .trips
            .lock()
            .expect("round-trip log poisoned")
            .push(RoundTrip {
                start,
                end,
                request: message.to_vec(),
                reply: result.as_ref().ok().cloned(),
            });
        result
    }

    fn endpoint_label(&self) -> String {
        self.inner.endpoint_label()
    }
}

/// Groups start-ordered round trips into dispatch rounds: a round trip
/// that starts after every earlier one ended opens a new round.
pub fn rounds(trips: &[RoundTrip]) -> Vec<&[RoundTrip]> {
    let mut out = Vec::new();
    let mut begin = 0;
    let mut round_end: Option<Instant> = None;
    for (i, trip) in trips.iter().enumerate() {
        if round_end.is_some_and(|end| trip.start > end) {
            out.push(&trips[begin..i]);
            begin = i;
            round_end = None;
        }
        round_end = Some(round_end.map_or(trip.end, |end| end.max(trip.end)));
    }
    if begin < trips.len() {
        out.push(&trips[begin..]);
    }
    out
}

/// Wall-clock time covered by at least one round trip of a round.
pub fn round_span_ms(round: &[RoundTrip]) -> f64 {
    let start = round.iter().map(|t| t.start).min();
    let end = round.iter().map(|t| t.end).max();
    match (start, end) {
        (Some(s), Some(e)) => ms(e - s),
        _ => 0.0,
    }
}

// ---------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------

/// Times of one shard's replay through the wire codec and the worker's
/// public entry points.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    /// Frames in the shard.
    pub frames: usize,
    /// Coordinator side: re-encoding the request, decoding the reply.
    pub coord_encode_ms: f64,
    pub coord_decode_ms: f64,
    /// Worker side: decoding the request, encoding the reply.
    pub worker_decode_ms: f64,
    pub worker_encode_ms: f64,
    /// `execute_shard` for conv shards; accelerator set-up for programs.
    pub execute_ms: f64,
    pub program_setup_ms: f64,
    /// Per-frame program stage times.
    pub conv_ms: Vec<f64>,
    pub dense_ms: Vec<f64>,
    pub elementwise_ms: Vec<f64>,
    /// Dense weights per frame (rows × cols summed over dense stages).
    pub dense_weights: usize,
    /// Both directions reproduced the captured bytes exactly.
    pub identical: bool,
}

impl Replay {
    /// Worker-side time the replay accounts for inside the round trip.
    pub fn worker_ms(&self) -> f64 {
        self.worker_decode_ms
            + self.execute_ms
            + self.program_setup_ms
            + self.conv_ms.iter().sum::<f64>()
            + self.dense_ms.iter().sum::<f64>()
            + self.elementwise_ms.iter().sum::<f64>()
            + self.worker_encode_ms
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, ms(start.elapsed()))
}

/// Replays one successful shard round trip. Errors mean the captured
/// bytes could not be replayed at all.
pub fn replay(config: &OisaConfig, request: &[u8], reply: &[u8]) -> Result<Replay, OisaError> {
    let mut out = Replay::default();
    let (decoded, t) = timed(|| wire::decode(request));
    out.worker_decode_ms = t;
    let (reencoded, reply_bytes) = match decoded? {
        WireMessage::Shard(shard) => {
            let (bytes, t) = timed(|| wire::encode_shard(&shard));
            out.coord_encode_ms = t;
            out.frames = shard.frames.len();
            let (report, t) = timed(|| execute_shard(config, &shard));
            out.execute_ms = t;
            let message = WireMessage::Report(report?);
            let (reply_bytes, t) = timed(|| wire::encode(&message));
            out.worker_encode_ms = t;
            (bytes, reply_bytes)
        }
        WireMessage::ProgramShard(shard) => {
            let (bytes, t) = timed(|| wire::encode_program_shard(&shard));
            out.coord_encode_ms = t;
            out.frames = shard.frames.len();
            let (accel, t) = timed(|| -> Result<OisaAccelerator, OisaError> {
                let mut accel = OisaAccelerator::new(*config)?;
                accel.align_noise_epoch(shard.first_epoch)?;
                accel.prewarm_program(&shard.program)?;
                Ok(accel)
            });
            out.program_setup_ms = t;
            let mut accel = accel?;
            let mut reports = Vec::with_capacity(shard.frames.len());
            for frame in &shard.frames {
                reports.push(run_program_stages(
                    &mut accel,
                    &shard.program,
                    frame,
                    &mut out,
                )?);
            }
            let message = WireMessage::ProgramReport(ProgramReport {
                job_id: shard.job_id,
                shard_index: shard.shard_index,
                first_frame: shard.first_frame,
                reports,
            });
            let (reply_bytes, t) = timed(|| wire::encode(&message));
            out.worker_encode_ms = t;
            (bytes, reply_bytes)
        }
        _ => return Err(OisaError::Backend("captured request is not a shard".into())),
    };
    let (decoded_reply, t) = timed(|| wire::decode(reply));
    out.coord_decode_ms = t;
    out.identical = decoded_reply.is_ok() && reencoded == request && reply_bytes == reply;
    Ok(out)
}

/// One frame of a layer program, stage by stage through the public
/// calls `OisaAccelerator::run_program_frame` makes, timing each
/// stage.
fn run_program_stages(
    accel: &mut OisaAccelerator,
    program: &LayerProgram,
    frame: &oisa_sensor::frame::Frame,
    out: &mut Replay,
) -> Result<ProgramFrameReport, OisaError> {
    let mut stages = Vec::with_capacity(program.stages.len());
    let mut values: Vec<f32> = Vec::new();
    let (mut conv, mut dense, mut elementwise) = (0.0, 0.0, 0.0);
    let mut weights = 0usize;
    for (i, stage) in program.stages.iter().enumerate() {
        let start = Instant::now();
        match stage {
            Stage::Conv { k, kernels } => {
                let report = accel.convolve_frame(frame, kernels, *k)?;
                values = report.output.concat();
                stages.push(StageReport::Conv(report));
                conv += ms(start.elapsed());
            }
            Stage::Dense { rows, matrix } => {
                let report = if i == 0 {
                    accel.dense_layer(frame, matrix, *rows)?
                } else {
                    let input: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
                    accel.dense_vector(&input, matrix, *rows)?
                };
                values.clone_from(&report.output);
                stages.push(StageReport::Dense(report));
                weights += matrix.len();
                dense += ms(start.elapsed());
            }
            Stage::Quantize(QuantizeKind::Ternary) => {
                let t = TernaryActivation::paper_default();
                for v in &mut values {
                    *v = t.encode(*v);
                }
                stages.push(StageReport::Quantize);
                elementwise += ms(start.elapsed());
            }
            Stage::Quantize(QuantizeKind::Levels { bits }) => {
                let q = LevelQuantizer::uniform(*bits)
                    .map_err(|e| OisaError::Backend(format!("level quantizer: {e}")))?;
                for v in &mut values {
                    *v = q.nearest(*v);
                }
                stages.push(StageReport::Quantize);
                elementwise += ms(start.elapsed());
            }
            Stage::Activation(ActivationKind::Relu) => {
                for v in &mut values {
                    *v = v.max(0.0);
                }
                stages.push(StageReport::Activation);
                elementwise += ms(start.elapsed());
            }
        }
    }
    out.conv_ms.push(conv);
    out.dense_ms.push(dense);
    out.elementwise_ms.push(elementwise);
    out.dense_weights = weights;
    Ok(ProgramFrameReport {
        stages,
        output: values,
    })
}

/// Replays the successful round trips of one dispatch round
/// concurrently, one thread per shard as the coordinator dispatched
/// them, so replayed worker times see the same contention.
pub fn replay_round(config: &OisaConfig, round: &[RoundTrip]) -> Vec<Result<Replay, OisaError>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = round
            .iter()
            .filter_map(|trip| trip.reply.as_ref().map(|reply| (trip, reply)))
            .map(|(trip, reply)| scope.spawn(move || replay(config, &trip.request, reply)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(OisaError::Backend("replay thread panicked".into())))
            })
            .collect()
    })
}

// ---------------------------------------------------------------------
// Optics microbenchmark
// ---------------------------------------------------------------------

/// Host nanoseconds per ring of a chained 9-tap
/// `ArmSnapshot::mac_indexed` under `noise`: the median of seven
/// repetitions of `windows` consecutive windows. Returns the median and
/// the repetition count.
pub fn mac_ns_per_ring(noise: NoiseConfig, seed: u64) -> (f64, usize) {
    const TAPS: usize = 9;
    const REPS: usize = 7;
    let windows = 200_000usize;
    let mut rng = Rng::new(seed, 0x0A4C);
    let weights: Vec<f64> = (0..TAPS).map(|_| rng.range(-1.0, 1.0)).collect();
    let acts: Vec<f64> = (0..TAPS).map(|_| rng.unit()).collect();
    let snapshot = {
        let mapper = WeightMapper::ideal(4).expect("4-bit ideal mapper");
        let mut arm = Arm::new(ArmConfig::paper_default()).expect("paper arm");
        arm.load_weights(&weights, &mapper)
            .expect("9 weights fit an arm");
        arm.snapshot()
    };
    let source = NoiseSource::seeded(seed, noise);
    let stream = source.stream(1, 0, 0);
    let stride = Arm::counter_stride(TAPS);
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let start = Instant::now();
        let mut base = (rep * windows) as u64 * stride;
        let mut acc = 0.0;
        for _ in 0..windows {
            let (v, _energy) = snapshot.mac_indexed(&acts, &stream, base);
            acc += v;
            base += stride;
        }
        std::hint::black_box(acc);
        samples.push(start.elapsed());
    }
    samples.sort();
    let median: Duration = samples[REPS / 2];
    (median.as_secs_f64() * 1e9 / (windows * TAPS) as f64, REPS)
}
