//! Shared pieces of every workload: seeded inputs, statistics, report
//! digests, memory readings and the JSON the benchmark prints.

use std::fmt::{self, Write as _};
use std::time::{Duration, Instant};

use oisa_core::mlp::MatVecReport;
use oisa_core::program::{ProgramFrameReport, StageReport};
use oisa_core::wire::InferenceJob;
use oisa_core::{ConvolutionReport, OisaConfig, OisaError};
use oisa_device::noise::NoiseConfig;
use oisa_sensor::frame::Frame;

/// Frame side used by every workload.
pub const SIDE: usize = 128;
/// Kernel size used by every workload.
pub const K: usize = 3;
/// Fewest operations a timed phase runs, so at least ten samples lie
/// beyond the 90th percentile. Counts the benchmark reports as exact
/// ("count" metrics) are taken over this many leading operations, which
/// every run completes whatever its timing.
pub const MIN_OPS: usize = 100;
/// How many times set-up is repeated to report its median.
const SETUP_REPEATS: usize = 15;

/// The physics every workload runs: the paper configuration at 128×128
/// with the paper noise model, its noise seed taken from the workload
/// seed.
pub fn config(seed: u64) -> OisaConfig {
    let mut cfg = OisaConfig::paper_default(SIDE, SIDE);
    cfg.noise = NoiseConfig::paper_default();
    cfg.seed = mix(seed, 0x0150_A5EE_D000_0001);
    cfg
}

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/// SplitMix64 finaliser: a well-mixed 64-bit function of `a` and `b`.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small deterministic generator for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed, stream))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One seeded scene: a tilted gradient under a vignette, a few bright
/// blobs and an optional stripe texture, so the ternary encoder sees a
/// different mix of dark, mid and bright pixels on every frame.
fn scene(rng: &mut Rng) -> Frame {
    let angle = rng.range(0.0, std::f64::consts::TAU);
    let (gx, gy) = (angle.cos(), angle.sin());
    let gain = rng.range(0.2, 0.7);
    let vignette = rng.range(0.0, 0.9);
    let blobs: Vec<(f64, f64, f64, f64)> = (0..1 + rng.below(4))
        .map(|_| {
            (
                rng.range(-0.8, 0.8),
                rng.range(-0.8, 0.8),
                rng.range(3.0, 30.0),
                rng.range(0.2, 0.8),
            )
        })
        .collect();
    let stripes = if rng.unit() < 0.5 {
        Some((rng.range(4.0, 40.0), rng.range(0.0, std::f64::consts::TAU)))
    } else {
        None
    };
    let c = SIDE as f64 / 2.0;
    let mut data = Vec::with_capacity(SIDE * SIDE);
    for y in 0..SIDE {
        for x in 0..SIDE {
            let dx = (x as f64 - c) / c;
            let dy = (y as f64 - c) / c;
            let mut v = gain * (0.5 + 0.5 * (gx * dx + gy * dy));
            v *= 1.0 - vignette * 0.5 * (dx * dx + dy * dy);
            for &(bx, by, sharp, amp) in &blobs {
                v += amp * (-sharp * ((dx - bx).powi(2) + (dy - by).powi(2))).exp();
            }
            if let Some((freq, phase)) = stripes {
                v += 0.15 * (freq * (dx * gy - dy * gx) + phase).sin();
            }
            data.push(v.clamp(0.0, 1.0));
        }
    }
    Frame::new(SIDE, SIDE, data).expect("scene pixels are clamped to [0, 1]")
}

/// A pool of seeded scenes; jobs draw their frames from it so inputs
/// vary without holding every frame of a run in memory.
pub fn scene_pool(seed: u64, count: usize) -> Vec<Frame> {
    let mut rng = Rng::new(seed, 0x5CE7E);
    (0..count).map(|_| scene(&mut rng)).collect()
}

/// `count` seeded 3×3 kernels with weights in `[-1, 1]`.
pub fn kernels(rng: &mut Rng, count: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|_| (0..K * K).map(|_| rng.range(-1.0, 1.0) as f32).collect())
        .collect()
}

/// `count` frames picked from `pool` by `rng`.
pub fn pick_frames(rng: &mut Rng, pool: &[Frame], count: usize) -> Vec<Frame> {
    (0..count)
        .map(|_| pool[rng.below(pool.len())].clone())
        .collect()
}

/// A seeded stream of conv jobs: job `i` has its own kernel set and
/// its frames drawn from a scene pool.
pub struct ConvJobs {
    seed: u64,
    stream: u64,
    pool: Vec<Frame>,
    frames: usize,
    kernels: usize,
}

impl ConvJobs {
    pub fn new(seed: u64, stream: u64, pool: usize, frames: usize, kernels: usize) -> Self {
        Self {
            seed,
            stream,
            pool: scene_pool(seed, pool),
            frames,
            kernels,
        }
    }

    /// Job `index`'s kernels and frames.
    pub fn job(&self, index: usize) -> (Vec<Vec<f32>>, Vec<Frame>) {
        let mut rng = Rng::new(self.seed, self.stream ^ index as u64);
        let kernels = kernels(&mut rng, self.kernels);
        (kernels, pick_frames(&mut rng, &self.pool, self.frames))
    }

    pub fn inference_job(&self, index: usize) -> InferenceJob {
        let (kernels, frames) = self.job(index);
        InferenceJob {
            job_id: index as u64,
            k: K,
            kernels,
            frames,
        }
    }
}

/// Results of conv jobs run so far, in stream order; a job that
/// errored leaves zero digests, which no oracle matches. The modelled
/// statistics cover jobs up to [`MIN_OPS`].
pub struct ConvResults {
    frames_per_job: usize,
    pub digests: Vec<u64>,
    pub sim: SimStats,
}

impl ConvResults {
    pub fn new(frames_per_job: usize) -> Self {
        Self {
            frames_per_job,
            digests: Vec::new(),
            sim: SimStats::default(),
        }
    }

    pub fn record(&mut self, index: usize, result: Result<Vec<ConvolutionReport>, OisaError>) {
        match result {
            Ok(reports) if reports.len() == self.frames_per_job => {
                for report in &reports {
                    self.digests.push(conv_digest(report));
                    if index <= MIN_OPS {
                        self.sim.add(report, K);
                    }
                }
            }
            _ => self
                .digests
                .extend(std::iter::repeat_n(0, self.frames_per_job)),
        }
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last system
/// built; returns it with every set-up time in seconds. Earlier systems
/// are dropped (their teardown is not timed).
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let start = Instant::now();
        let system = setup();
        times.push(start.elapsed().as_secs_f64());
        kept = Some(system);
    }
    (kept.expect("SETUP_REPEATS is at least one"), times)
}

/// `setup_s`: the median of the set-up times, with every sample in the
/// detail line.
pub fn setup_metric(out: &mut Metrics, detail: &mut Vec<(String, Json)>, samples_s: &[f64]) {
    out.sampled("setup_s", median(samples_s), "s", samples_s.len());
    detail.push((
        "setup_samples_s".into(),
        Json::Arr(samples_s.iter().map(|&s| Json::Num(s)).collect()),
    ));
}

// ---------------------------------------------------------------------
// Report digests
// ---------------------------------------------------------------------

/// Order-sensitive 64-bit digest of report contents: every field
/// `PartialEq` compares is fed in, floats as bit patterns, so
/// bit-identical reports digest equally.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    fn value(self) -> u64 {
        mix(self.0, 0xD16E57)
    }

    fn f32s(&mut self, values: &[f32]) {
        self.word(values.len() as u64);
        for pair in values.chunks(2) {
            let hi = pair.get(1).map_or(0, |v| u64::from(v.to_bits()));
            self.word(u64::from(pair[0].to_bits()) | hi << 32);
        }
    }

    fn conv(&mut self, r: &ConvolutionReport) {
        let p = &r.plan;
        for v in [
            r.out_h,
            r.out_w,
            p.kernel_size_class,
            p.slots_per_pass,
            p.passes,
            p.planes_last_pass,
            p.parallel_positions,
            p.cycles_per_pass,
            p.rings_per_pass,
            p.tuning_iterations_per_pass,
            p.macs_per_cycle,
        ] {
            self.word(v as u64);
        }
        let t = &r.timeline;
        for s in [t.capture, t.mapping, t.compute, t.transmit, t.control] {
            self.word(s.get().to_bits());
        }
        let e = &r.energy;
        for j in [
            e.sensing,
            e.encoding,
            e.tuning,
            e.compute,
            e.aggregation,
            e.memory,
        ] {
            self.word(j.get().to_bits());
        }
        self.word(r.output.len() as u64);
        for plane in &r.output {
            self.f32s(plane);
        }
    }

    fn matvec(&mut self, r: &MatVecReport) {
        self.f32s(&r.output);
        self.word(r.chunks as u64);
        self.word(r.energy.get().to_bits());
        self.word(r.latency.get().to_bits());
    }

    fn program(&mut self, r: &ProgramFrameReport) {
        self.word(r.stages.len() as u64);
        for stage in &r.stages {
            match stage {
                StageReport::Conv(c) => {
                    self.word(1);
                    self.conv(c);
                }
                StageReport::Quantize => self.word(2),
                StageReport::Dense(m) => {
                    self.word(3);
                    self.matvec(m);
                }
                StageReport::Activation => self.word(4),
            }
        }
        self.f32s(&r.output);
    }
}

pub fn conv_digest(r: &ConvolutionReport) -> u64 {
    let mut d = Digest::default();
    d.conv(r);
    d.value()
}

pub fn program_digest(r: &ProgramFrameReport) -> u64 {
    let mut d = Digest::default();
    d.program(r);
    d.value()
}

/// Folds per-result digests, in order, into one digest of the run.
pub fn fold_digests(digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &x in digests {
        d.word(x);
    }
    d.value()
}

/// Operations in `ops` (each `per_op` consecutive results) that are in
/// `also_failed` or have a result that differs from the oracle or is
/// missing.
pub fn failed_ops(
    got: &[u64],
    want: &[u64],
    ops: std::ops::Range<usize>,
    per_op: usize,
    also_failed: &[usize],
) -> u64 {
    ops.filter(|op| {
        also_failed.contains(op)
            || (op * per_op..(op + 1) * per_op)
                .any(|i| got.get(i).is_none() || got.get(i) != want.get(i))
    })
    .count() as u64
}

/// Counts the positions where `got` differs from the oracle `want`
/// (missing results count as mismatches).
pub fn mismatches(got: &[u64], want: &[u64]) -> usize {
    let differing = got.iter().zip(want).filter(|(a, b)| a != b).count();
    differing + got.len().abs_diff(want.len())
}

// ---------------------------------------------------------------------
// Modelled statistics (`sim.*`)
// ---------------------------------------------------------------------

/// Sums of the modelled per-frame statistics over the leading frames
/// of a run.
#[derive(Debug, Default, Clone)]
pub struct SimStats {
    frames: u64,
    rings: f64,
    passes: f64,
    device_us: f64,
    energy_nj: f64,
}

impl SimStats {
    pub fn add(&mut self, r: &ConvolutionReport, k: usize) {
        self.frames += 1;
        self.rings += (r.out_h * r.out_w * r.output.len() * k * k) as f64;
        self.passes += r.plan.passes as f64;
        self.device_us += r.timeline.total().get() * 1e6;
        self.energy_nj += r.energy.total().get() * 1e9;
    }

    pub fn rings_per_frame(&self) -> f64 {
        self.per_frame(self.rings)
    }

    fn per_frame(&self, total: f64) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            total / self.frames as f64
        }
    }

    pub fn metrics(&self, out: &mut Metrics) {
        out.push("sim.rings_per_frame", self.per_frame(self.rings), "count");
        out.push("sim.passes_per_frame", self.per_frame(self.passes), "count");
        out.push(
            "sim.device_us_per_frame",
            self.per_frame(self.device_us),
            "us",
        );
        out.push(
            "sim.energy_nj_per_frame",
            self.per_frame(self.energy_nj),
            "nJ",
        );
    }
}

// ---------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------

/// The process's peak resident set (`VmHWM`) in MiB. Each run is its
/// own process, so this covers set-up, warm-up and the timed phase;
/// workloads read it before verification starts.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// A JSON value, written by hand (the workspace has no serializer).
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }
}

fn write_json_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => write_json_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_json_str(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Named metric values with units, plus the sample count behind each
/// where it is a statistic over samples.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str, Option<usize>)>,
}

impl Metrics {
    /// The end-to-end metrics of a closed-loop phase: throughput over
    /// the time spent inside operations, and latency percentiles.
    pub fn from_latencies(latencies_ms: &[f64], frames_per_op: usize) -> Self {
        let mut out = Self::default();
        let spent_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
        let frames = latencies_ms.len() * frames_per_op;
        out.sampled("frames_per_s", frames as f64 / spent_s, "1/s", frames);
        out.sampled(
            "latency_p50_ms",
            median(latencies_ms),
            "ms",
            latencies_ms.len(),
        );
        out.sampled(
            "latency_p90_ms",
            quantile(latencies_ms, 0.9),
            "ms",
            latencies_ms.len(),
        );
        out
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit, None));
    }

    /// A statistic over `samples` measurements.
    pub fn sampled(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.entries
            .push((name.to_string(), value, unit, Some(samples)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, v, ..)| v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the contract shape.
    pub fn values_json(&self) -> Json {
        Json::obj(self.entries.iter().map(|(name, value, unit, _)| {
            (
                name.clone(),
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            )
        }))
    }

    /// As [`Metrics::values_json`], plus the sample count where known.
    pub fn detail_json(&self) -> Json {
        Json::obj(self.entries.iter().map(|(name, value, unit, samples)| {
            let mut fields = vec![
                ("value".to_string(), Json::Num(*value)),
                ("unit".to_string(), Json::str(*unit)),
            ];
            if let Some(n) = samples {
                fields.push(("samples".to_string(), Json::Int(*n as u64)));
            }
            (name.clone(), Json::Obj(fields))
        }))
    }
}

/// One part of an operation's wall clock in a workload's layer
/// breakdown: total exclusive milliseconds over the traced operations.
#[derive(Debug, Clone)]
pub struct Part {
    pub layer: &'static str,
    pub total_ms: f64,
    pub derived: bool,
}

impl Part {
    pub fn measured(layer: &'static str, total_ms: f64) -> Self {
        Self {
            layer,
            total_ms,
            derived: false,
        }
    }

    pub fn derived(layer: &'static str, total_ms: f64) -> Self {
        Self {
            layer,
            total_ms,
            derived: true,
        }
    }
}

/// The exclusive split of `op_total_ms` (summed operation wall clock)
/// into `parts`; whatever no part covers is the `other` share.
pub fn breakdown(op_total_ms: f64, parts: &[Part]) -> (Json, f64) {
    let covered: f64 = parts.iter().map(|p| p.total_ms).sum();
    let other_ms = op_total_ms - covered;
    let share = |x: f64| {
        if op_total_ms > 0.0 {
            x / op_total_ms
        } else {
            0.0
        }
    };
    let mut rows: Vec<Json> = parts
        .iter()
        .map(|p| {
            Json::obj([
                ("layer", Json::str(p.layer)),
                ("ms", Json::Num(p.total_ms)),
                ("share", Json::Num(share(p.total_ms))),
                ("derived", Json::Bool(p.derived)),
            ])
        })
        .collect();
    rows.push(Json::obj([
        ("layer", Json::str("other")),
        ("ms", Json::Num(other_ms)),
        ("share", Json::Num(share(other_ms))),
        ("derived", Json::Bool(true)),
    ]));
    (
        Json::obj([
            ("operation_ms", Json::Num(op_total_ms)),
            ("parts", Json::Arr(rows)),
        ]),
        share(other_ms),
    )
}

/// Records the traced run's cost: traced against untraced throughput.
pub fn trace_overhead(
    metrics: &mut Metrics,
    detail: &mut Vec<(String, Json)>,
    untraced: &Metrics,
    traced: &Metrics,
) {
    let before = untraced.get("frames_per_s").unwrap_or(0.0);
    let after = traced.get("frames_per_s").unwrap_or(0.0);
    let overhead = if before > 0.0 {
        1.0 - after / before
    } else {
        0.0
    };
    metrics.push("trace.overhead_share", overhead, "share");
    detail.push(("untraced".into(), untraced.detail_json()));
    detail.push(("traced".into(), traced.detail_json()));
}

/// What one run of one workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (tracing off) or per-layer metrics (traced).
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Results compared against the oracle, and how many differed.
    pub verified: u64,
    pub mismatched: u64,
    pub digest: u64,
    /// Workload-specific detail for the log line.
    pub detail: Vec<(String, Json)>,
}

/// Closed-loop timing shared by the closed-loop workloads: calls `op`
/// with consecutive operation indices from `first` until `seconds` have
/// been spent inside operations and at least [`MIN_OPS`] have run.
/// `op` returns its own wall-clock time, so work the harness does
/// around the timed call (building the next input, digesting the last
/// result) stays out of the numbers.
pub fn closed_loop(first: usize, seconds: f64, mut op: impl FnMut(usize) -> Duration) -> Vec<f64> {
    let mut latencies = Vec::new();
    let mut spent = 0.0;
    let mut index = first;
    while spent < seconds || latencies.len() < MIN_OPS {
        let took = op(index).as_secs_f64();
        spent += took;
        latencies.push(took * 1e3);
        index += 1;
    }
    latencies
}
