//! `serve-open`: the edge-serving user. An open loop sends single
//! frames into a `ServingEngine` over `LocalBackend` at seeded Poisson
//! arrival times, at a fixed rate near half of what the engine
//! sustains on the reference host, so batch formation and queue wait
//! are part of every frame's latency. Its traced run also carries the
//! sensor, accelerator and optics layers: each batch is one
//! `LocalBackend::run_job`, where nearly all time is the MAC row drain.

use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use oisa_core::backend::{ComputeBackend, LocalBackend};
use oisa_core::serving::{FrameHandle, ServingConfig, ServingEngine, ServingStats};
use oisa_core::{OisaAccelerator, OisaConfig};
use oisa_device::noise::NoiseConfig;
use oisa_sensor::frame::Frame;
use oisa_sensor::imager::Imager;
use oisa_sensor::vam::Vam;

use crate::common::{
    breakdown, config, conv_digest, failed_ops, fold_digests, kernels, median, mismatches, ms,
    peak_rss_mb, quantile, repeated_setup, scene_pool, setup_metric, trace_overhead, Json, Metrics,
    Outcome, Part, Rng, SimStats, K, MIN_OPS,
};
use crate::layers::{mac_ns_per_ring, Call, TimedBackend};
use crate::oracle;

/// Offered load in frames per second: half the ≈35 frames/s the
/// batched engine sustains with 16 kernels on the 2-core reference
/// host. Fixed, so every commit is measured under the same load.
const RATE_PER_S: f64 = 17.5;
/// Batches launch when 4 frames are pending or the oldest has waited
/// 100 ms, so at this load batches of 1–4 frames form and their
/// formation is part of each frame's latency. With the 2 ms default
/// deadline nearly every batch held one frame, and the latency of
/// single frames arriving at an idle 2-vCPU host varied by a third
/// from run to run.
const SERVING: ServingConfig = ServingConfig {
    max_batch: 4,
    deadline: Duration::from_millis(100),
    queue_depth: 64,
};
/// Fewest frames a phase offers, so 30 samples lie beyond the 90th
/// percentile: with 175 frames (10 s at this rate) p90 varied by about
/// a fifth between seeds.
const MIN_FRAMES: usize = 300;
const KERNELS: usize = 16;
const POOL: usize = 24;
/// Frames served one at a time before the timed phase, about a second:
/// the first frames of a process run slower while memory is first
/// touched and caches fill.
const WARMUP_FRAMES: usize = 8;

struct Inputs {
    seed: u64,
    pool: Vec<Frame>,
    kernels: Vec<Vec<f32>>,
}

impl Inputs {
    fn frame(&self, index: usize) -> Frame {
        let mut rng = Rng::new(self.seed, 0x5E00_0000 ^ index as u64);
        self.pool[rng.below(self.pool.len())].clone()
    }

    /// Arrival offsets of `count` frames at [`RATE_PER_S`]: exponential
    /// gaps, as a Poisson process has, taken at the `count` evenly
    /// spaced quantiles of the exponential distribution and put in a
    /// seeded order. Every seed thus offers the same load with the same
    /// gap distribution; only the order, and so the bursts, differ.
    fn arrivals(&self, phase: u64, count: usize) -> Vec<Duration> {
        let mut gaps: Vec<f64> = (0..count)
            .map(|i| -(1.0 - (i as f64 + 0.5) / count as f64).ln() / RATE_PER_S)
            .collect();
        let mut rng = Rng::new(self.seed, 0xA441_0000 ^ phase);
        for i in (1..gaps.len()).rev() {
            gaps.swap(i, rng.below(i + 1));
        }
        gaps.iter()
            .scan(0.0, |at, gap| {
                *at += gap;
                Some(Duration::from_secs_f64(*at))
            })
            .collect()
    }
}

/// One frame's timeline through the open loop.
struct Served {
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    done: Instant,
    digest: Option<u64>,
}

/// What one open-loop phase measured.
struct Phase {
    frames: Vec<Served>,
    started: Instant,
    stats: ServingStats,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.frames.iter().map(|f| ms(f.done - f.due)).collect()
    }

    fn metrics(&self) -> Metrics {
        let mut out = Metrics::default();
        let latencies = self.latencies_ms();
        let last = self
            .frames
            .iter()
            .map(|f| f.done)
            .max()
            .unwrap_or(self.started);
        let completed = self.frames.iter().filter(|f| f.digest.is_some()).count();
        out.sampled(
            "frames_per_s",
            completed as f64 / (last - self.started).as_secs_f64(),
            "1/s",
            completed,
        );
        out.sampled("latency_p50_ms", median(&latencies), "ms", latencies.len());
        out.sampled(
            "latency_p90_ms",
            quantile(&latencies, 0.9),
            "ms",
            latencies.len(),
        );
        out
    }
}

/// Runs frames `first..first + count` of the stream through `engine` on
/// the seeded schedule: this thread submits each frame when it is due,
/// a collector thread waits on the handles in order.
fn open_loop<B: ComputeBackend + 'static>(
    engine: ServingEngine<B>,
    inputs: &Inputs,
    first: usize,
    count: usize,
    sim: &mut SimStats,
) -> (Phase, B) {
    let schedule = inputs.arrivals(first as u64, count);
    let (sender, receiver) = mpsc::channel::<(Instant, Instant, Instant, FrameHandle)>();
    let started = Instant::now();
    let served = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut served = Vec::with_capacity(count);
            for (due, submit_start, submit_end, handle) in receiver {
                let result = handle.wait();
                let done = Instant::now();
                let digest = result.as_ref().ok().map(conv_digest);
                if let Ok(report) = &result {
                    if first + served.len() <= MIN_OPS {
                        sim.add(report, K);
                    }
                }
                served.push(Served {
                    due,
                    submit_start,
                    submit_end,
                    done,
                    digest,
                });
            }
            served
        });
        for (index, offset) in (first..).zip(schedule) {
            let frame = inputs.frame(index);
            let due = started + offset;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let submit_start = Instant::now();
            let handle = engine
                .submit(frame)
                .expect("engine accepts imager-sized frames");
            let submit_end = Instant::now();
            sender
                .send((due, submit_start, submit_end, handle))
                .expect("collector outlives the generator");
        }
        drop(sender);
        collector.join().expect("collector thread panicked")
    });
    let (backend, stats) = engine.shutdown();
    (
        Phase {
            frames: served,
            started,
            stats,
        },
        backend,
    )
}

fn engine<B: ComputeBackend + 'static>(backend: B, inputs: &Inputs) -> ServingEngine<B> {
    ServingEngine::with_backend(backend, inputs.kernels.clone(), K, SERVING)
        .expect("16 3x3 kernels map onto the paper OPC")
}

fn fresh_engine(cfg: OisaConfig, inputs: &Inputs) -> ServingEngine<LocalBackend> {
    let accel = OisaAccelerator::new(cfg).expect("paper config builds");
    engine(LocalBackend::from_accelerator(accel), inputs)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = config(seed);
    let inputs = Inputs {
        seed,
        pool: scene_pool(seed, POOL),
        kernels: kernels(&mut Rng::new(seed, 0x5E4E), KERNELS),
    };
    let count = ((RATE_PER_S * seconds).ceil() as usize).max(MIN_FRAMES);
    let (warm, setup_s) = repeated_setup(|| fresh_engine(cfg, &inputs));

    // Warm-up frames are verified but not timed.
    let mut digests: Vec<u64> = (0..WARMUP_FRAMES)
        .map(|index| {
            warm.submit(inputs.frame(index))
                .ok()
                .and_then(|h| h.wait().ok())
                .map_or(0, |r| conv_digest(&r))
        })
        .collect();
    let mut sim = SimStats::default();

    let first = WARMUP_FRAMES;
    let (phase, backend) = open_loop(warm, &inputs, first, count, &mut sim);
    let peak_mb = peak_rss_mb();
    digests.extend(phase.frames.iter().map(|f| f.digest.unwrap_or(0)));
    let mut reported = first..first + count;

    let mut metrics = Metrics::default();
    let mut detail = Vec::new();
    let mut generator_lag: Vec<f64> = phase
        .frames
        .iter()
        .map(|f| ms(f.submit_start - f.due))
        .collect();
    if trace {
        let (timed, calls) = TimedBackend::new(backend);
        let (traced, timed) = open_loop(
            engine(timed, &inputs),
            &inputs,
            first + count,
            count,
            &mut sim,
        );
        digests.extend(traced.frames.iter().map(|f| f.digest.unwrap_or(0)));
        reported = first + count..first + 2 * count;
        drop(timed);
        let calls: Vec<Call> = std::mem::take(&mut *calls.lock().expect("call log poisoned"));
        let side = SideCalls::measure(cfg, &inputs, first + count..first + 2 * count, calls.len());
        layer_metrics(&mut metrics, &mut detail, &traced, &calls, &sim, &side);
        let (noisy, reps) = mac_ns_per_ring(NoiseConfig::paper_default(), seed);
        metrics.sampled("optics.mac_ns_per_ring", noisy, "ns", reps);
        let (noiseless, reps) = mac_ns_per_ring(NoiseConfig::noiseless(), seed);
        metrics.sampled("optics.mac_ns_per_ring_noiseless", noiseless, "ns", reps);
        trace_overhead(
            &mut metrics,
            &mut detail,
            &phase.metrics(),
            &traced.metrics(),
        );
        generator_lag = traced
            .frames
            .iter()
            .map(|f| ms(f.submit_start - f.due))
            .collect();
    } else {
        drop(backend);
        metrics = phase.metrics();
        setup_metric(&mut metrics, &mut detail, &setup_s);
        metrics.push("peak_rss_mb", peak_mb, "MB");
    }
    detail.push((
        "loadgen".into(),
        Json::obj([
            ("rate_per_s", Json::Num(RATE_PER_S)),
            ("frames", Json::Int(count as u64)),
            ("lag_p50_ms", Json::Num(median(&generator_lag))),
            ("lag_p90_ms", Json::Num(quantile(&generator_lag, 0.9))),
            (
                "lag_max_ms",
                Json::Num(generator_lag.iter().copied().fold(0.0, f64::max)),
            ),
        ]),
    ));

    let total = digests.len();
    let oracle = oracle::conv_stream(&cfg, total, 1, |i| {
        (inputs.kernels.clone(), vec![inputs.frame(i)])
    })
    .unwrap_or_default();
    Outcome {
        metrics,
        attempted: reported.len() as u64,
        failed: failed_ops(&digests, &oracle, reported, 1, &[]),
        verified: total as u64,
        mismatched: mismatches(&digests, &oracle) as u64,
        digest: fold_digests(&digests),
        detail,
    }
}

/// Sensor and staging costs, timed by calling the public functions
/// beside the engine once the traced phase is over.
struct SideCalls {
    /// `Imager::expose` + `Vam::encode_capture`, per frame of the phase.
    expose_ms: Vec<f64>,
    /// `OisaAccelerator::prewarm` on the served kernels (pass staging
    /// and ring tuning), once per batch the phase ran.
    stage_ms: Vec<f64>,
}

impl SideCalls {
    fn measure(cfg: OisaConfig, inputs: &Inputs, frames: Range<usize>, batches: usize) -> Self {
        let imager = Imager::new(cfg.imager).expect("paper imager");
        let vam = Vam::new(cfg.vam).expect("paper VAM");
        let expose_ms = frames
            .map(|index| {
                let frame = inputs.frame(index);
                let start = Instant::now();
                let encoded = imager
                    .expose(&frame)
                    .and_then(|capture| vam.encode_capture(&capture));
                let took = ms(start.elapsed());
                std::hint::black_box(encoded.is_ok());
                took
            })
            .collect();
        let mut stager = OisaAccelerator::new(cfg).expect("paper config builds");
        let stage_ms = (0..batches)
            .map(|_| {
                let start = Instant::now();
                let staged = stager.prewarm(&inputs.kernels, K);
                let took = ms(start.elapsed());
                std::hint::black_box(staged.is_ok());
                took
            })
            .collect();
        Self {
            expose_ms,
            stage_ms,
        }
    }
}

/// Per-layer metrics of a traced phase. Each frame's latency splits
/// into generator lag, the submit call, queue wait (submit return to
/// its batch starting), the batch's execution and the rest (completion
/// hand-off to the waiting client). The batch's execution splits in
/// turn into sensing and encoding its frames, staging, and the MAC
/// drain that remains.
fn layer_metrics(
    metrics: &mut Metrics,
    detail: &mut Vec<(String, Json)>,
    phase: &Phase,
    calls: &[Call],
    sim: &SimStats,
    side: &SideCalls,
) {
    let stats = &phase.stats;
    let batches = stats.batches_run.max(1) as f64;
    metrics.sampled(
        "serving.queue_wait_p50_ms",
        stats.queue_wait_p50_us / 1e3,
        "ms",
        stats.frames_completed as usize,
    );
    metrics.sampled(
        "serving.queue_wait_p99_ms",
        stats.queue_wait_p99_us / 1e3,
        "ms",
        stats.frames_completed as usize,
    );
    metrics.sampled(
        "serving.batch_size_mean",
        stats.frames_completed as f64 / batches,
        "frames",
        stats.batches_run as usize,
    );
    metrics.sampled(
        "serving.deadline_batch_share",
        stats.deadline_batches as f64 / batches,
        "share",
        stats.batches_run as usize,
    );
    let exec_ms: Vec<f64> = calls.iter().map(|c| ms(c.end - c.start)).collect();
    let exec_total: f64 = exec_ms.iter().sum();
    metrics.sampled(
        "serving.batch_exec_ms",
        median(&exec_ms),
        "ms",
        exec_ms.len(),
    );
    let last = phase
        .frames
        .iter()
        .map(|f| f.done)
        .max()
        .unwrap_or(phase.started);
    metrics.sampled(
        "serving.backend_busy_share",
        exec_total / ms(last - phase.started),
        "share",
        exec_ms.len(),
    );
    let submit_us: Vec<f64> = phase
        .frames
        .iter()
        .map(|f| (f.submit_end - f.submit_start).as_secs_f64() * 1e6)
        .collect();
    metrics.sampled(
        "serving.submit_us_p90",
        quantile(&submit_us, 0.9),
        "us",
        submit_us.len(),
    );
    let lag: Vec<f64> = phase
        .frames
        .iter()
        .map(|f| ms(f.submit_start - f.due))
        .collect();
    metrics.sampled("loadgen.lag_p90_ms", quantile(&lag, 0.9), "ms", lag.len());
    let frames_run: usize = calls.iter().map(|c| c.frames).sum();
    let convolve = exec_total / frames_run.max(1) as f64;
    let expose = median(&side.expose_ms);
    let stage = median(&side.stage_ms);
    metrics.sampled(
        "sensor.expose_encode_ms",
        expose,
        "ms",
        side.expose_ms.len(),
    );
    metrics.sampled("accelerator.stage_ms", stage, "ms", side.stage_ms.len());
    metrics.sampled("accelerator.convolve_ms", convolve, "ms", frames_run);
    metrics.sampled(
        "accelerator.mac_drain_ms",
        convolve - expose - stage * calls.len() as f64 / frames_run.max(1) as f64,
        "ms",
        frames_run,
    );
    metrics.sampled(
        "accelerator.host_ns_per_ring",
        convolve * 1e6 / sim.rings_per_frame(),
        "ns",
        frames_run,
    );
    sim.metrics(metrics);

    // Frames leave the FIFO queue in order, so the i-th frame of the
    // phase ran in the batch whose cumulative frame range holds i.
    let mut batch_of = Vec::with_capacity(phase.frames.len());
    for (b, call) in calls.iter().enumerate() {
        batch_of.extend(std::iter::repeat_n(b, call.frames));
    }
    let (mut lag_t, mut submit_t, mut queue_t, mut op_t) = (0.0, 0.0, 0.0, 0.0);
    let (mut expose_t, mut stage_t, mut exec_t) = (0.0, 0.0, 0.0);
    for (frame, &b) in phase.frames.iter().zip(&batch_of) {
        let call = calls[b];
        lag_t += ms(frame.submit_start - frame.due);
        submit_t += ms(frame.submit_end - frame.submit_start);
        queue_t += ms(call.start.saturating_duration_since(frame.submit_end));
        // A frame waits for its whole batch: every frame's sensing,
        // one staging, and the drain.
        expose_t += expose * call.frames as f64;
        stage_t += stage;
        exec_t += ms(call.end - call.start);
        op_t += ms(frame.done - frame.due);
    }
    let (split, other) = breakdown(
        op_t,
        &[
            Part::measured("loadgen.lag", lag_t),
            Part::measured("serving.submit", submit_t),
            Part::measured("serving.queue_wait", queue_t),
            Part::measured("sensor.expose_encode", expose_t),
            Part::measured("accelerator.stage", stage_t),
            Part::derived("accelerator.mac_drain", exec_t - expose_t - stage_t),
        ],
    );
    metrics.push("serve-open.other_share", other, "share");
    detail.push(("breakdown".into(), split));
}
