//! The unified execution API: [`ComputeBackend`] and its two
//! implementations.
//!
//! Everything above the accelerator — the serving engine, the bench
//! harness, future transports — talks to *a thing that executes
//! [`InferenceJob`]s*, not to an [`OisaAccelerator`] directly:
//!
//! * [`LocalBackend`] — wraps one accelerator and runs jobs through the
//!   batched engine ([`OisaAccelerator::convolve_frames`]) on the
//!   calling host.
//! * [`ShardedBackend`] — a coordinator that splits each job's frames
//!   into contiguous `(frame, epoch)` ranges, ships them as
//!   length-prefixed [`wire`] messages to workers (in-process for
//!   tests/bench, separate OS processes in `examples/multi_node.rs`,
//!   remote hosts over [`TcpTransport`] — anything implementing
//!   [`ShardTransport`]), and merges the [`ShardReport`]s in frame
//!   order.
//!
//! The [`tcp`] submodule holds the multi-host deployment pieces: the
//! [`TcpTransport`] coordinator side (connect/read timeouts, reconnect
//! with backoff, a connect-time [`wire::Handshake`]) and the
//! [`TcpWorker`] accept-loop daemon the `oisa_worker` binary wraps.
//!
//! # The determinism contract
//!
//! Any backend built from config `C` produces, across its lifetime of
//! `run_job` calls, a report stream **bit-identical** (outputs, energy,
//! timeline — every field) to one fresh accelerator built from `C`
//! running `convolve_frame_sequential` over the concatenated frames in
//! order. Worker count, shard boundaries and transport move wall
//! clock, never physics. Three mechanisms carry the guarantee across
//! process boundaries:
//!
//! 1. **Epoch alignment** — frame `i` of the stream always computes
//!    under noise epoch `i`; a shard carries its `first_epoch` and the
//!    worker fast-forwards a fresh accelerator to it
//!    ([`OisaAccelerator::align_noise_epoch`]).
//! 2. **Fabric entry state** — ring-tuning and kernel-bank energies
//!    depend on what the fabric held *before* a job; a shard carries a
//!    [`FabricEntry`] and the worker prewarm's accordingly
//!    ([`OisaAccelerator::prewarm`]), so a mid-stream shard's first
//!    frame pays steady-state cost exactly like the sequential loop.
//! 3. **Config fingerprinting** — every shard carries
//!    [`OisaConfig::fingerprint`]; a worker refuses shards from a
//!    coordinator whose physics differ.
//!
//! Because workers are *stateless per shard*, a failed job consumes no
//! coordinator state: `run_job` only advances the epoch cursor after
//! every shard merged, so a retry re-executes identically.
//!
//! One caveat bounds the contract: the coordinator reproduces fabric
//! history **one job deep** (the previous job's kernel set travels in
//! [`FabricEntry::Warm`]). Feature maps are always exact — noise
//! depends only on epochs — but if a job stages an arm that the
//! *immediately previous* job left untouched while some older job had
//! loaded it, that arm's tuning energy reads from a pristine operating
//! point instead of the deep history. Fixed or non-growing kernel sets
//! (every serving deployment: the kernel set is pinned at engine
//! construction) never hit this.
//!
//! # Layer programs
//!
//! [`ComputeBackend::run_program`] (wire v4) runs a multi-stage
//! [`crate::program::LayerProgram`] — `conv → quantize → dense →
//! activation`. The coordinator has one path for both job kinds:
//! validation, planning, dispatch, settling, recovery and the merge are
//! shared, and a job kind decides only four things —
//!
//! * **Shard message** — a conv range travels as a [`JobShard`] with a
//!   [`FabricEntry`]; a program range as a [`ProgramShard`], which
//!   carries none: every executor (local or worker) runs
//!   [`run_program_frames`](crate::accelerator::OisaAccelerator::run_program_frames),
//!   whose one [`prewarm_program`](crate::program) stages the program's
//!   own steady state regardless of fabric history, so per-frame
//!   reports are history-independent by construction and shard merges
//!   are bit-identical to the sequential reference
//!   ([`crate::program::run_reference`]) over any fleet shape.
//! * **Reply** — a [`ShardReport`] settles a conv shard, a
//!   [`ProgramReport`] a program shard; anything else is a typed error.
//! * **Epochs** — a conv job consumes one epoch per frame, a program
//!   [`epochs_per_frame`](crate::program::LayerProgram::epochs_per_frame)
//!   (one per optical stage), so a shard starting at job frame `i`
//!   carries `first_epoch = base + i · E`.
//! * **Cross-job staging** — after a conv job the coordinator's
//!   `last_staged` holds its kernel set. After a program it holds the
//!   program's kernel set only when the program is pure conv (its dense
//!   stages, if any, re-tune arms the conv entry-state protocol does
//!   not model); otherwise the next conv job enters
//!   [`FabricEntry::Cold`]. This is the same one-job-deep energy caveat
//!   as above — feature maps stay exact either way.

use std::io::{Read, Write};

use crate::accelerator::{ConvolutionReport, OisaAccelerator, OisaConfig};
use crate::error::OisaError;
use crate::mapping::{ConvWorkload, MappingPlan};
use crate::program::{ProgramFrameReport, Stage};
use crate::wire::{
    self, FabricEntry, InferenceJob, JobShard, ProgramJob, ProgramReport, ProgramShard,
    RefusalCode, ShardRefusal, ShardReport, WireMessage,
};
use crate::CoreError;
use oisa_sensor::frame::Frame;

pub mod supervisor;
pub mod tcp;

pub use supervisor::{FleetStatus, FleetSupervisor, QuarantineEvent, SupervisorOptions};
pub use tcp::{TcpTransport, TcpTransportConfig, TcpWorker, TcpWorkerHandle, WorkerOptions};

/// Result alias for backend operations.
pub type BackendResult<T> = std::result::Result<T, OisaError>;

/// Something that executes [`InferenceJob`]s — the seam between "submit
/// frames" and "who executes them".
///
/// See the module docs for the determinism contract implementations
/// must uphold.
///
/// # Examples
///
/// Code written against the trait runs unchanged on one host or a
/// fleet — here, the same job through both built-in backends:
///
/// ```
/// use oisa_core::backend::{ComputeBackend, LocalBackend, ShardedBackend};
/// use oisa_core::wire::InferenceJob;
/// use oisa_core::OisaConfig;
/// use oisa_sensor::Frame;
///
/// fn run(backend: &mut dyn ComputeBackend) -> Result<usize, oisa_core::OisaError> {
///     let job = InferenceJob {
///         job_id: 1,
///         k: 3,
///         kernels: vec![vec![0.5f32; 9]],
///         frames: vec![Frame::constant(16, 16, 0.6)?],
///     };
///     Ok(backend.run_job(&job)?.len())
/// }
///
/// # fn main() -> Result<(), oisa_core::OisaError> {
/// let cfg = OisaConfig::small_test();
/// assert_eq!(run(&mut LocalBackend::new(cfg)?)?, 1);
/// assert_eq!(run(&mut ShardedBackend::in_process(cfg, 2)?)?, 1);
/// # Ok(())
/// # }
/// ```
pub trait ComputeBackend: Send {
    /// The physics configuration this backend executes under.
    fn config(&self) -> &OisaConfig;

    /// Executes one job, returning one report per frame in frame order.
    ///
    /// # Errors
    ///
    /// [`OisaError`] on validation, substrate, wire or transport
    /// failure. Implementations must not advance observable state on
    /// error, so callers can retry.
    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>>;

    /// Executes one multi-stage [`ProgramJob`] (wire v4), returning one
    /// [`ProgramFrameReport`] per frame in frame order. Same
    /// determinism contract as [`ComputeBackend::run_job`]; the built-in
    /// backends run both through one path, and the module docs ("Layer
    /// programs") list the four things a program decides differently.
    ///
    /// The provided implementation refuses: a backend must opt in to
    /// programs, so pre-v4 test doubles and transports keep compiling
    /// and fail loudly rather than half-executing.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] from the provided implementation;
    /// validation, substrate, wire or transport failures from
    /// overrides. Implementations must not advance observable state on
    /// error, so callers can retry.
    fn run_program(&mut self, job: &ProgramJob) -> BackendResult<Vec<ProgramFrameReport>> {
        let _ = job;
        Err(OisaError::Backend(
            "this backend does not support layer programs".into(),
        ))
    }

    /// Frame dimensions (width, height) this backend accepts.
    fn frame_dims(&self) -> (usize, usize) {
        let imager = self.config().imager;
        (imager.width, imager.height)
    }

    /// Validates that a kernel set maps onto this backend's OPC and
    /// imager — the up-front check front ends run at construction so
    /// unmappable workloads fail before the first frame arrives.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] / [`CoreError::Unmappable`]
    /// (wrapped in [`OisaError::Core`]) exactly as the execution path
    /// would report them.
    fn check_workload(&self, kernels: &[Vec<f32>], k: usize) -> BackendResult<()> {
        if kernels.is_empty() {
            return Err(CoreError::InvalidParameter("no kernels supplied".into()).into());
        }
        if kernels.iter().any(|kn| kn.len() != k * k) {
            return Err(CoreError::InvalidParameter(format!(
                "every kernel must have {} weights",
                k * k
            ))
            .into());
        }
        let config = self.config();
        let workload = ConvWorkload {
            out_channels: kernels.len(),
            in_channels: 1,
            kernel: k,
            input_h: config.imager.height,
            input_w: config.imager.width,
            stride: 1,
        };
        MappingPlan::compute(&workload, &config.opc)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// LocalBackend
// ---------------------------------------------------------------------

/// Single-host backend: one [`OisaAccelerator`] executing jobs through
/// the batched engine. Epochs and fabric state carry across jobs
/// naturally, because the same accelerator runs every one of them.
#[derive(Debug)]
pub struct LocalBackend {
    accel: OisaAccelerator,
}

impl LocalBackend {
    /// Builds a backend from a fresh accelerator.
    ///
    /// # Errors
    ///
    /// Propagates [`OisaAccelerator::new`] failures.
    pub fn new(config: OisaConfig) -> BackendResult<Self> {
        Ok(Self {
            accel: OisaAccelerator::new(config)?,
        })
    }

    /// Wraps an existing accelerator. The determinism contract (module
    /// docs) is stated from a *fresh* accelerator; wrapping one with
    /// history simply continues that history.
    #[must_use]
    pub fn from_accelerator(accel: OisaAccelerator) -> Self {
        Self { accel }
    }

    /// Shared view of the wrapped accelerator.
    #[must_use]
    pub fn accelerator(&self) -> &OisaAccelerator {
        &self.accel
    }

    /// Exclusive view of the wrapped accelerator (e.g. to run a
    /// non-job workload between jobs).
    pub fn accelerator_mut(&mut self) -> &mut OisaAccelerator {
        &mut self.accel
    }

    /// Hands the accelerator back (after a serving shutdown, in
    /// exactly the state the sequential loop would have left it).
    #[must_use]
    pub fn into_accelerator(self) -> OisaAccelerator {
        self.accel
    }
}

impl ComputeBackend for LocalBackend {
    fn config(&self) -> &OisaConfig {
        self.accel.config()
    }

    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>> {
        self.accel
            .convolve_frames(&job.frames, &job.kernels, job.k)
            .map_err(Into::into)
    }

    /// [`OisaAccelerator::run_program_frames`]: one prewarm (so
    /// reports are history-independent, matching the sequential
    /// reference and any sharded merge), dense stages staged once, then
    /// a per-frame loop.
    fn run_program(&mut self, job: &ProgramJob) -> BackendResult<Vec<ProgramFrameReport>> {
        validate_job(self, job)?;
        Ok(self.accel.run_program_frames(&job.program, &job.frames)?)
    }
}

/// Admission checks for a job of either kind: frames present, the
/// kind's own stage check ([`JobKind::check_stages`]), every frame
/// imager-sized.
fn validate_job<J: JobKind>(backend: &dyn ComputeBackend, job: &J) -> BackendResult<()> {
    if job.frames().is_empty() {
        return Err(CoreError::InvalidParameter("no frames supplied".into()).into());
    }
    job.check_stages(backend)?;
    let (width, height) = backend.frame_dims();
    if let Some(frame) = job
        .frames()
        .iter()
        .find(|f| f.width() != width || f.height() != height)
    {
        return Err(CoreError::InvalidParameter(format!(
            "frame is {}x{} but the imager is {width}x{height}",
            frame.width(),
            frame.height()
        ))
        .into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Executes one [`JobShard`] on a fresh accelerator — the worker-side
/// core both the in-process transport and the process worker loop
/// ([`serve_worker`]) share.
///
/// Statelessness is the point: everything the shard's physics needs is
/// in the message (plus the out-of-band `config`, guarded by the
/// fingerprint), so any worker can execute any shard of any job.
///
/// # Errors
///
/// [`OisaError::FingerprintMismatch`] on a fingerprint mismatch;
/// otherwise the accelerator's own validation/substrate errors.
pub fn execute_shard(config: &OisaConfig, shard: &JobShard) -> BackendResult<ShardReport> {
    let mut accel = fresh_accelerator(config, shard.config_fingerprint, shard.first_epoch)?;
    match &shard.entry {
        FabricEntry::Cold => {}
        FabricEntry::WarmSelf => accel.prewarm(&shard.kernels, shard.k)?,
        FabricEntry::Warm { k, kernels } => accel.prewarm(kernels, *k)?,
    }
    let reports = accel.convolve_frames(&shard.frames, &shard.kernels, shard.k)?;
    Ok(ShardReport {
        job_id: shard.job_id,
        shard_index: shard.shard_index,
        first_frame: shard.first_frame,
        reports,
    })
}

/// Executes one [`ProgramShard`] on a fresh accelerator — the
/// program counterpart of [`execute_shard`], shared by the in-process
/// transport and the process worker loop.
///
/// No entry state travels: [`prewarm_program`](crate::program) stages
/// the program's own steady state (module docs, "Layer programs"), so
/// this shard's reports are bit-identical to the same frames' slice of
/// a sequential run regardless of what the worker ran before.
///
/// # Errors
///
/// [`OisaError::FingerprintMismatch`] on a fingerprint mismatch;
/// otherwise program validation and substrate errors.
pub fn execute_program_shard(
    config: &OisaConfig,
    shard: &ProgramShard,
) -> BackendResult<ProgramReport> {
    let mut accel = fresh_accelerator(config, shard.config_fingerprint, shard.first_epoch)?;
    let reports = accel.run_program_frames(&shard.program, &shard.frames)?;
    Ok(ProgramReport {
        job_id: shard.job_id,
        shard_index: shard.shard_index,
        first_frame: shard.first_frame,
        reports,
    })
}

/// The prologue [`execute_shard`] and [`execute_program_shard`] share:
/// refuse a coordinator whose physics differ, then build a fresh
/// accelerator aligned to the shard's first noise epoch.
fn fresh_accelerator(
    config: &OisaConfig,
    coordinator: u64,
    first_epoch: u64,
) -> BackendResult<OisaAccelerator> {
    let worker = config.fingerprint();
    if coordinator != worker {
        return Err(OisaError::FingerprintMismatch {
            coordinator,
            worker,
        });
    }
    let mut accel = OisaAccelerator::new(*config)?;
    accel.align_noise_epoch(first_epoch)?;
    Ok(accel)
}

/// Serves shards from a byte stream until clean EOF: the main loop of
/// a worker process. Each incoming [`JobShard`] or [`ProgramShard`] is
/// answered with its report on success or a typed [`ShardRefusal`]
/// (never a dropped connection) when the shard cannot run; a
/// [`WireMessage::Ping`] is answered with a [`WireMessage::Pong`]
/// echoing the nonce and carrying this worker's config fingerprint.
///
/// Returns the number of requests answered.
///
/// # Errors
///
/// Only transport-level failures ([`OisaError::Wire`]): an undecodable
/// *request* still gets a refusal reply, but a broken stream ends the
/// loop.
pub fn serve_worker<R: Read, W: Write>(
    config: &OisaConfig,
    reader: &mut R,
    writer: &mut W,
) -> BackendResult<u64> {
    serve_worker_configurable(*config, reader, writer, &mut |_| {}).map(|o| o.served)
}

/// What a worker connection did over its lifetime — returned by
/// [`serve_worker_configurable`] so daemons can log a status line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Requests answered (shards, pings and config pushes alike).
    pub served: u64,
    /// v3 [`Configure`](WireMessage::Configure) pushes applied.
    pub reconfigured: u64,
    /// Fingerprint of the config the connection ended under.
    pub final_fingerprint: u64,
}

/// The full worker loop, including wire-v3 config push: a
/// [`WireMessage::Configure`] replaces the connection's working config
/// (the push was already re-validated during decode) and is answered
/// with a [`WireMessage::ConfigureAck`] echoing the nonce and carrying
/// the fingerprint recomputed from the **applied** config. Subsequent
/// shards and pings run under the pushed physics; the configuration is
/// connection-local, so a coordinator that reconnects must push again
/// (which [`TcpTransport`] does automatically when
/// built with a config push).
///
/// `before_shard` is a fault-injection hook: it runs after a shard
/// decodes and before it executes, receiving the count of shards this
/// call already answered. The `oisa_worker` daemon's
/// `--fail-after-shards` flag aborts the process from it to simulate a
/// worker dying mid-job; production paths pass a no-op.
///
/// # Errors
///
/// As [`serve_worker`].
pub fn serve_worker_configurable<R: Read, W: Write>(
    initial: OisaConfig,
    reader: &mut R,
    writer: &mut W,
    before_shard: &mut dyn FnMut(u64),
) -> BackendResult<ServeOutcome> {
    let mut config = initial;
    let mut served = 0u64;
    let mut shards = 0u64;
    let mut reconfigured = 0u64;
    while let Some(payload) = wire::read_frame(reader)? {
        let reply = match wire::decode(&payload) {
            Ok(WireMessage::Ping(hs)) => WireMessage::Pong(wire::Handshake {
                nonce: hs.nonce,
                config_fingerprint: config.fingerprint(),
            }),
            Ok(WireMessage::Configure(push)) => {
                config = push.config;
                reconfigured += 1;
                WireMessage::ConfigureAck(wire::Handshake {
                    nonce: push.nonce,
                    config_fingerprint: config.fingerprint(),
                })
            }
            Ok(request) => {
                if matches!(
                    request,
                    WireMessage::Shard(_) | WireMessage::ProgramShard(_)
                ) {
                    before_shard(shards);
                    shards += 1;
                }
                answer_shard(&config, &request)
            }
            Err(e) => WireMessage::Refusal(ShardRefusal {
                job_id: 0,
                shard_index: 0,
                code: RefusalCode::Other,
                reason: format!("worker could not decode request: {e}"),
            }),
        };
        wire::send(writer, &reply)?;
        writer
            .flush()
            .map_err(|e| wire::WireError::Io(e.to_string()))?;
        served += 1;
    }
    Ok(ServeOutcome {
        served,
        reconfigured,
        final_fingerprint: config.fingerprint(),
    })
}

/// Runs a shard request of either kind and answers with its report, or
/// with the typed refusal when it cannot run; any other message is
/// refused.
fn answer_shard(config: &OisaConfig, request: &WireMessage) -> WireMessage {
    let (job_id, shard_index, outcome) = match request {
        WireMessage::Shard(shard) => (
            shard.job_id,
            shard.shard_index,
            execute_shard(config, shard).map(WireMessage::Report),
        ),
        WireMessage::ProgramShard(shard) => (
            shard.job_id,
            shard.shard_index,
            execute_program_shard(config, shard).map(WireMessage::ProgramReport),
        ),
        other => (
            0,
            0,
            Err(OisaError::Backend(format!(
                "worker expected a shard, got {}",
                message_name(other)
            ))),
        ),
    };
    outcome.unwrap_or_else(|e| {
        WireMessage::Refusal(ShardRefusal {
            job_id,
            shard_index,
            code: refusal_code_for(&e),
            reason: e.to_string(),
        })
    })
}

/// The machine-readable class a worker-side error travels under.
fn refusal_code_for(error: &OisaError) -> RefusalCode {
    match error {
        OisaError::FingerprintMismatch {
            coordinator,
            worker,
        } => RefusalCode::FingerprintMismatch {
            coordinator: *coordinator,
            worker: *worker,
        },
        _ => RefusalCode::Other,
    }
}

/// Coordinator-side inverse of [`refusal_code_for`]: a worker's typed
/// "no" becomes the matching [`OisaError`] variant. Codes without a
/// dedicated variant travel inside [`OisaError::ShardRefused`], which
/// renders them machine-readably.
fn refusal_to_error(refusal: ShardRefusal) -> OisaError {
    match refusal.code {
        RefusalCode::FingerprintMismatch {
            coordinator,
            worker,
        } => OisaError::FingerprintMismatch {
            coordinator,
            worker,
        },
        code => OisaError::ShardRefused {
            job_id: refusal.job_id,
            shard_index: refusal.shard_index,
            code,
            reason: refusal.reason,
        },
    }
}

fn message_name(message: &WireMessage) -> &'static str {
    match message {
        WireMessage::Shard(_) => "JobShard",
        WireMessage::Report(_) => "ShardReport",
        WireMessage::Refusal(_) => "ShardRefusal",
        WireMessage::Ping(_) => "Ping",
        WireMessage::Pong(_) => "Pong",
        WireMessage::Configure(_) => "Configure",
        WireMessage::ConfigureAck(_) => "ConfigureAck",
        WireMessage::ProgramShard(_) => "ProgramShard",
        WireMessage::ProgramReport(_) => "ProgramReport",
    }
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// One worker as the coordinator sees it: a byte-message round trip.
/// The transport owns framing; the coordinator hands it one encoded
/// message and expects one encoded reply.
pub trait ShardTransport: Send {
    /// Sends one encoded wire message, returns the worker's encoded
    /// reply.
    ///
    /// # Errors
    ///
    /// [`OisaError`] when the transport breaks (worker death, stream
    /// failure). Protocol-level refusals travel *inside* the reply.
    fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>>;

    /// A human-readable name for the worker behind this transport
    /// (an address for TCP, a marker for in-process) — what the
    /// supervisor's quarantine log records.
    fn endpoint_label(&self) -> String {
        "unnamed-worker".to_string()
    }
}

/// An in-process worker: runs [`serve_worker`] over in-memory buffers,
/// so the full encode → frame → decode → execute → encode path is
/// exercised without spawning a process. This is what the bench
/// harness and the parity tests use; `examples/multi_node.rs` swaps in
/// a real child-process transport over the same trait.
#[derive(Debug, Clone)]
pub struct InProcessWorker {
    config: OisaConfig,
}

impl InProcessWorker {
    /// A worker that executes under `config`.
    #[must_use]
    pub fn new(config: OisaConfig) -> Self {
        Self { config }
    }
}

impl ShardTransport for InProcessWorker {
    fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>> {
        let mut request = Vec::with_capacity(message.len() + 4);
        wire::write_frame(&mut request, message)?;
        let mut reader = std::io::Cursor::new(request);
        let mut reply_stream = Vec::new();
        serve_worker(&self.config, &mut reader, &mut reply_stream)?;
        let mut cursor = std::io::Cursor::new(reply_stream);
        wire::read_frame(&mut cursor)?
            .ok_or_else(|| OisaError::Backend("in-process worker produced no reply".into()))
    }

    fn endpoint_label(&self) -> String {
        "in-process".to_string()
    }
}

// ---------------------------------------------------------------------
// ShardedBackend
// ---------------------------------------------------------------------

/// Coordinator backend: splits each job over a fleet of workers and
/// merges their shard reports bit-identically to one sequential loop
/// (module docs).
///
/// # Examples
///
/// ```
/// use oisa_core::backend::{ComputeBackend, ShardedBackend};
/// use oisa_core::wire::InferenceJob;
/// use oisa_core::OisaConfig;
/// use oisa_sensor::Frame;
///
/// # fn main() -> Result<(), oisa_core::OisaError> {
/// let cfg = OisaConfig::small_test();
/// let mut backend = ShardedBackend::in_process(cfg, 2)?;
/// let job = InferenceJob {
///     job_id: 1,
///     k: 3,
///     kernels: vec![vec![0.5f32; 9]],
///     frames: vec![Frame::constant(16, 16, 0.6)?, Frame::constant(16, 16, 0.4)?],
/// };
/// let reports = backend.run_job(&job)?;
/// assert_eq!(reports.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct ShardedBackend {
    config: OisaConfig,
    fingerprint: u64,
    workers: Vec<Box<dyn ShardTransport>>,
    /// Absolute epoch of the next job's first frame (frames executed so
    /// far across every job).
    next_epoch: u64,
    /// The kernel set the fabric "holds" between jobs — what a
    /// sequential host's fabric would hold — so the next job's first
    /// shard can reproduce its entry-state tuning cost.
    last_staged: Option<StagedKernels>,
    jobs_run: u64,
}

impl std::fmt::Debug for ShardedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBackend")
            .field("workers", &self.workers.len())
            .field("next_epoch", &self.next_epoch)
            .field("jobs_run", &self.jobs_run)
            .finish_non_exhaustive()
    }
}

impl ShardedBackend {
    /// Builds a coordinator over an explicit worker fleet.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] for an empty fleet.
    pub fn new(config: OisaConfig, workers: Vec<Box<dyn ShardTransport>>) -> BackendResult<Self> {
        if workers.is_empty() {
            return Err(OisaError::Backend(
                "a sharded backend needs at least one worker".into(),
            ));
        }
        Ok(Self {
            fingerprint: config.fingerprint(),
            config,
            workers,
            next_epoch: 0,
            last_staged: None,
            jobs_run: 0,
        })
    }

    /// Convenience fleet of `workers` in-process workers (tests,
    /// benches, single-host parallelism over the wire path).
    ///
    /// # Errors
    ///
    /// As [`ShardedBackend::new`].
    pub fn in_process(config: OisaConfig, workers: usize) -> BackendResult<Self> {
        let fleet: Vec<Box<dyn ShardTransport>> = (0..workers)
            .map(|_| Box::new(InProcessWorker::new(config)) as Box<dyn ShardTransport>)
            .collect();
        Self::new(config, fleet)
    }

    /// Number of workers in the fleet.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Swaps the worker at `index` for a replacement transport — the
    /// repair step after a [`OisaError::Transport`] failure (a worker
    /// died and its endpoint will not come back). Because `run_job`
    /// advances no coordinator state on failure, a job retried after
    /// the swap re-executes bit-identically, whatever the new fleet
    /// shape.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] when `index` is out of range.
    pub fn replace_worker(
        &mut self,
        index: usize,
        transport: Box<dyn ShardTransport>,
    ) -> BackendResult<()> {
        let fleet = self.workers.len();
        let slot = self.workers.get_mut(index).ok_or_else(|| {
            OisaError::Backend(format!("no worker {index} to replace (fleet has {fleet})"))
        })?;
        *slot = transport;
        Ok(())
    }

    /// Jobs merged so far.
    #[must_use]
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// Removes the worker at `index` from the fleet and hands its
    /// transport back — the quarantine step of the self-healing ladder
    /// (see [`FleetSupervisor`]). The fleet
    /// must keep at least one worker.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] when `index` is out of range or the
    /// fleet would become empty.
    pub fn remove_worker(&mut self, index: usize) -> BackendResult<Box<dyn ShardTransport>> {
        let fleet = self.workers.len();
        if fleet <= 1 {
            return Err(OisaError::Backend(
                "cannot remove the last worker of a sharded backend".into(),
            ));
        }
        if index >= fleet {
            return Err(OisaError::Backend(format!(
                "no worker {index} to remove (fleet has {fleet})"
            )));
        }
        Ok(self.workers.remove(index))
    }

    /// The [`ShardTransport::endpoint_label`] of worker `index`, or
    /// `None` when the index is out of range.
    #[must_use]
    pub fn worker_label(&self, index: usize) -> Option<String> {
        self.workers.get(index).map(|w| w.endpoint_label())
    }

    /// Sends a [`WireMessage::Ping`] to worker `index` and verifies the
    /// [`WireMessage::Pong`]: nonce echoed, fingerprint equal to the
    /// coordinator's. This is the health probe [`FleetSupervisor`]
    /// runs against idle workers between jobs.
    ///
    /// # Errors
    ///
    /// [`OisaError::Transport`] / transport failures from the round
    /// trip; [`OisaError::FingerprintMismatch`] when the worker runs
    /// other physics; [`OisaError::Backend`] for an out-of-range index,
    /// a non-Pong reply or a stale nonce.
    pub fn ping_worker(&mut self, index: usize, nonce: u64) -> BackendResult<()> {
        let request = HandshakeRequest {
            nonce,
            fingerprint: self.fingerprint,
            push: None,
        };
        request.run(self.worker_mut(index, "ping")?)
    }

    /// Pushes this coordinator's full [`OisaConfig`] to worker `index`
    /// as a wire-v3 [`WireMessage::Configure`] and verifies the
    /// [`WireMessage::ConfigureAck`]: nonce echoed, applied fingerprint
    /// equal to the coordinator's. After this, a worker started with
    /// different physics serves this coordinator's shards instead of
    /// refusing them.
    ///
    /// # Errors
    ///
    /// Transport failures from the round trip;
    /// [`OisaError::FingerprintMismatch`] when the acknowledged
    /// fingerprint still differs (the worker did not apply the push);
    /// [`OisaError::Backend`] for an out-of-range index or an
    /// unexpected reply; [`OisaError::ShardRefused`] when the worker
    /// refused the push (e.g. a v2 peer that cannot decode it).
    pub fn push_config_to_worker(&mut self, index: usize, nonce: u64) -> BackendResult<()> {
        let request = HandshakeRequest {
            nonce,
            fingerprint: self.fingerprint,
            push: Some(self.config),
        };
        request.run(self.worker_mut(index, "configure")?)
    }

    /// Worker `index`, or a typed error naming `action` when out of
    /// range.
    fn worker_mut(&mut self, index: usize, action: &str) -> BackendResult<&mut dyn ShardTransport> {
        let fleet = self.workers.len();
        match self.workers.get_mut(index) {
            Some(worker) => Ok(worker.as_mut()),
            None => Err(OisaError::Backend(format!(
                "no worker {index} to {action} (fleet has {fleet})"
            ))),
        }
    }

    /// Dispatches pre-encoded shard messages concurrently, message `i`
    /// to worker `i` — one OS thread per engaged worker, each blocking
    /// on its transport's round trip. Replies come back in spawn order.
    fn dispatch_round(&mut self, messages: &[Vec<u8>]) -> Vec<BackendResult<Vec<u8>>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .zip(messages)
                .map(|(worker, message)| scope.spawn(move || worker.round_trip(message)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(OisaError::Backend("shard dispatch thread panicked".into()))
                    })
                })
                .collect()
        })
    }

    /// Runs one job of either kind with a pluggable failure policy —
    /// [`ComputeBackend::run_job`] and [`ComputeBackend::run_program`]
    /// under [`Recovery::Abort`], and the re-plan path of the
    /// self-healing fleet.
    ///
    /// Execution proceeds in rounds. Each round covers the not yet
    /// merged frame ranges with one shard per engaged worker and
    /// dispatches them concurrently. A shard whose transport fails
    /// ([`OisaError::Transport`]) consults `on_failure(worker_label,
    /// error)` — the label is the failed worker's
    /// [`ShardTransport::endpoint_label`]:
    ///
    /// * [`Recovery::Promote`] — swap the failed slot for the supplied
    ///   transport (a spare); the failed range re-runs on the new
    ///   fleet next round.
    /// * [`Recovery::Shrink`] — drop the failed worker and re-plan the
    ///   failed range across the survivors next round.
    /// * [`Recovery::Abort`] — give up and propagate the error.
    ///
    /// Because workers are stateless per shard and shard boundaries
    /// never affect results, the merged report stream is
    /// **bit-identical** whatever sequence of failures, promotions and
    /// re-plans occurred. Non-transport failures (refusals, fingerprint
    /// mismatches, protocol faults) abort immediately — retrying them
    /// cannot help. Coordinator state (epoch cursor, staged kernel set,
    /// job count) advances only after the merge, so a failed job
    /// consumed nothing and can be retried.
    ///
    /// # Errors
    ///
    /// The aborting failure, or [`OisaError::Backend`] when the fleet
    /// is exhausted while frames remain.
    pub(crate) fn run_with_recovery<J: JobKind>(
        &mut self,
        job: &J,
        on_failure: &mut dyn FnMut(&str, &OisaError) -> Recovery,
    ) -> BackendResult<Vec<J::Output>> {
        validate_job(self, job)?;
        let n = job.frames().len();
        let stride = job.epochs_per_frame();
        // Frame ranges not yet merged, kept sorted and disjoint.
        let mut pending: Vec<(usize, usize)> = vec![(0, n)];
        let mut collected: Vec<(usize, Vec<J::Output>)> = Vec::new();
        let mut shard_seq = 0u32;
        while !pending.is_empty() {
            // Cover the pending ranges with at most one shard per
            // worker: each range gets a worker share proportional to
            // its length (at least one), and splits contiguously.
            // Ranges beyond the fleet size wait for the next round.
            let fleet = self.workers.len();
            let mut leftover: Vec<(usize, usize)> = Vec::new();
            let round_ranges: Vec<(usize, usize)> = if pending.len() >= fleet {
                leftover = pending.split_off(fleet);
                pending.clone()
            } else {
                let mut shares = vec![1usize; pending.len()];
                let mut left = fleet - pending.len();
                while left > 0 {
                    let (widest, _) = shares
                        .iter()
                        .enumerate()
                        .max_by_key(|&(i, &s)| pending[i].1 / s)
                        .expect("pending is non-empty");
                    shares[widest] += 1;
                    left -= 1;
                }
                pending
                    .iter()
                    .zip(&shares)
                    .flat_map(|(&(start, len), &share)| {
                        let mut out = Vec::new();
                        let mut at = start;
                        for piece in split_count(len, share.min(len)) {
                            out.push((at, piece));
                            at += piece;
                        }
                        out
                    })
                    .collect()
            };
            let dispatched = u32::try_from(round_ranges.len()).expect("fleet fits u32");
            let round: Vec<ShardPlan> = round_ranges
                .into_iter()
                .map(|(start, len)| {
                    let plan = ShardPlan {
                        shard_index: shard_seq,
                        shard_count: dispatched,
                        start,
                        len,
                        first_epoch: self.next_epoch + start as u64 * stride,
                        fingerprint: self.fingerprint,
                    };
                    shard_seq += 1;
                    plan
                })
                .collect();
            // Entry state is a function of *pre-job* coordinator state:
            // the rounds may mutate the fleet, never `last_staged`.
            let messages: Vec<Vec<u8>> = round
                .iter()
                .map(|plan| job.encode_shard(plan, self.last_staged.as_ref()))
                .collect();
            let replies = self.dispatch_round(&messages);

            // Settle the round: successes merge, transport failures
            // consult the policy and their ranges go back to pending.
            // Failed slots are handled in descending index order so
            // removals cannot shift a slot that still needs handling.
            let mut failures: Vec<(usize, OisaError)> = Vec::new();
            for (slot, (plan, reply)) in round.iter().zip(replies).enumerate() {
                match reply.and_then(|payload| settle::<J>(job.job_id(), plan, &payload)) {
                    Ok(reports) => collected.push((plan.start, reports)),
                    Err(e @ OisaError::Transport { .. }) => failures.push((slot, e)),
                    Err(other) => return Err(other),
                }
            }
            let mut next_pending = leftover;
            for (slot, error) in failures.into_iter().rev() {
                let ShardPlan { start, len, .. } = round[slot];
                let label = self.workers[slot].endpoint_label();
                match on_failure(&label, &error) {
                    Recovery::Promote(spare) => {
                        self.workers[slot] = spare;
                    }
                    Recovery::Shrink => {
                        if self.workers.len() <= 1 {
                            return Err(OisaError::Backend(format!(
                                "fleet exhausted with {len} frame(s) unexecuted: {error}"
                            )));
                        }
                        self.workers.remove(slot);
                    }
                    Recovery::Abort => return Err(error),
                }
                next_pending.push((start, len));
            }
            next_pending.sort_unstable();
            pending = next_pending;
        }

        // Merge in frame order and verify the cover is exact. The
        // planned start doubles as the merge key because `settle`
        // verified each reply's first-frame echo against it.
        collected.sort_by_key(|(first, _)| *first);
        let mut merged = Vec::with_capacity(n);
        let mut expected_next = 0usize;
        for (first, reports) in collected {
            if first != expected_next {
                return Err(OisaError::Backend(format!(
                    "re-planned shards left a gap: expected frame {expected_next}, got {first}"
                )));
            }
            expected_next += reports.len();
            merged.extend(reports);
        }
        if merged.len() != n {
            return Err(OisaError::Backend(format!(
                "re-planned shards covered {} of {n} frames",
                merged.len()
            )));
        }

        // Only now does coordinator state advance.
        self.next_epoch += n as u64 * stride;
        self.last_staged = job.staged_after();
        self.jobs_run += 1;
        Ok(merged)
    }
}

/// One shard as the planner fixed it: job frames `start..start + len`
/// and the header fields every job kind's shard message carries. Shard
/// boundaries never affect results (module docs), so *any* contiguous
/// cover of a job's frames merges bit-identically — the invariant the
/// re-plan path stands on.
pub(crate) struct ShardPlan {
    shard_index: u32,
    shard_count: u32,
    start: usize,
    len: usize,
    first_epoch: u64,
    fingerprint: u64,
}

/// The kernel set the fabric holds between jobs: `(k, kernels)`.
type StagedKernels = (usize, Vec<Vec<f32>>);

/// The fields a shard report echoes: `(job_id, shard_index,
/// first_frame)`.
type Echo = (u64, u32, u64);

/// What the coordinator's one path needs to know about a job kind
/// (module docs, "Layer programs"): the shard message a range encodes
/// to, the reply variant that settles it, the epochs per frame and what
/// the fabric holds afterwards. Validation, planning, dispatch,
/// settling, recovery and the merge are shared.
pub(crate) trait JobKind {
    /// The per-frame report the merge concatenates.
    type Output;

    /// The job identifier every reply must echo.
    fn job_id(&self) -> u64;

    /// The job's frames, in stream order.
    fn frames(&self) -> &[Frame];

    /// The kind's own admission check on top of [`validate_job`]'s
    /// frame checks.
    fn check_stages(&self, backend: &dyn ComputeBackend) -> BackendResult<()>;

    /// Noise epochs one frame consumes.
    fn epochs_per_frame(&self) -> u64;

    /// Encodes the shard message for `plan`; `staged` is what the fabric
    /// held before this job.
    fn encode_shard(&self, plan: &ShardPlan, staged: Option<&StagedKernels>) -> Vec<u8>;

    /// This kind's report split into its echo fields and per-frame
    /// reports; `None` when the reply is another message.
    fn take_report(reply: WireMessage) -> Option<(Echo, Vec<Self::Output>)>;

    /// What the fabric holds after this job ran.
    fn staged_after(&self) -> Option<StagedKernels>;
}

impl JobKind for InferenceJob {
    type Output = ConvolutionReport;

    fn job_id(&self) -> u64 {
        self.job_id
    }

    fn frames(&self) -> &[Frame] {
        &self.frames
    }

    fn check_stages(&self, backend: &dyn ComputeBackend) -> BackendResult<()> {
        backend.check_workload(&self.kernels, self.k)
    }

    fn epochs_per_frame(&self) -> u64 {
        1
    }

    /// A [`JobShard`] whose [`FabricEntry`] reproduces the fabric a
    /// sequential host would hold at the range's first frame (module
    /// docs, mechanism 2).
    fn encode_shard(&self, plan: &ShardPlan, staged: Option<&StagedKernels>) -> Vec<u8> {
        let entry = match staged {
            _ if plan.start > 0 => FabricEntry::WarmSelf,
            None => FabricEntry::Cold,
            Some((k, kernels)) if *k == self.k && *kernels == self.kernels => FabricEntry::WarmSelf,
            Some((k, kernels)) => FabricEntry::Warm {
                k: *k,
                kernels: kernels.clone(),
            },
        };
        wire::encode_shard(&JobShard {
            job_id: self.job_id,
            shard_index: plan.shard_index,
            shard_count: plan.shard_count,
            first_frame: plan.start as u64,
            first_epoch: plan.first_epoch,
            config_fingerprint: plan.fingerprint,
            entry,
            k: self.k,
            kernels: self.kernels.clone(),
            frames: self.frames[plan.start..plan.start + plan.len].to_vec(),
        })
    }

    fn take_report(reply: WireMessage) -> Option<(Echo, Vec<Self::Output>)> {
        match reply {
            WireMessage::Report(r) => Some(((r.job_id, r.shard_index, r.first_frame), r.reports)),
            _ => None,
        }
    }

    fn staged_after(&self) -> Option<StagedKernels> {
        Some((self.k, self.kernels.clone()))
    }
}

impl JobKind for ProgramJob {
    type Output = ProgramFrameReport;

    fn job_id(&self) -> u64 {
        self.job_id
    }

    fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The program chains shape-compatibly from the frame dimensions
    /// ([`crate::program::LayerProgram::output_lens`]) and its conv
    /// stage maps onto the OPC.
    fn check_stages(&self, backend: &dyn ComputeBackend) -> BackendResult<()> {
        let (width, height) = backend.frame_dims();
        self.program.output_lens(width, height)?;
        if let Some(Stage::Conv { k, kernels }) = self.program.stages.first() {
            backend.check_workload(kernels, *k)?;
        }
        Ok(())
    }

    fn epochs_per_frame(&self) -> u64 {
        self.program.epochs_per_frame()
    }

    fn encode_shard(&self, plan: &ShardPlan, _staged: Option<&StagedKernels>) -> Vec<u8> {
        wire::encode_program_shard(&ProgramShard {
            job_id: self.job_id,
            shard_index: plan.shard_index,
            shard_count: plan.shard_count,
            first_frame: plan.start as u64,
            first_epoch: plan.first_epoch,
            config_fingerprint: plan.fingerprint,
            program: self.program.clone(),
            frames: self.frames[plan.start..plan.start + plan.len].to_vec(),
        })
    }

    fn take_report(reply: WireMessage) -> Option<(Echo, Vec<Self::Output>)> {
        match reply {
            WireMessage::ProgramReport(r) => {
                Some(((r.job_id, r.shard_index, r.first_frame), r.reports))
            }
            _ => None,
        }
    }

    /// A pure conv program leaves the fabric holding its kernel set
    /// exactly like a conv job would; dense stages re-tune arms the
    /// conv entry-state protocol does not model, so the next conv job
    /// enters cold.
    fn staged_after(&self) -> Option<StagedKernels> {
        let has_dense = self
            .program
            .stages
            .iter()
            .any(|s| matches!(s, Stage::Dense { .. }));
        match self.program.stages.first() {
            Some(Stage::Conv { k, kernels }) if !has_dense => Some((*k, kernels.clone())),
            _ => None,
        }
    }
}

/// Settles one reply for the planned shard: decodes it, maps a refusal
/// to its typed error and checks every echo field against the plan, so
/// a misrouted or stale reply cannot silently corrupt the merge.
fn settle<J: JobKind>(
    job_id: u64,
    plan: &ShardPlan,
    payload: &[u8],
) -> BackendResult<Vec<J::Output>> {
    let shard_index = plan.shard_index;
    let ((got_job, got_index, got_first), reports) = match wire::decode(payload)? {
        WireMessage::Refusal(refusal) => return Err(refusal_to_error(refusal)),
        reply => {
            let name = message_name(&reply);
            J::take_report(reply).ok_or_else(|| {
                OisaError::Backend(format!("worker answered shard {shard_index} with a {name}"))
            })?
        }
    };
    let first_frame = plan.start as u64;
    if (got_job, got_index, got_first) != (job_id, shard_index, first_frame) {
        return Err(OisaError::Backend(format!(
            "shard reply mismatch: expected job {job_id} shard {shard_index} \
             first_frame {first_frame}, \
             got job {got_job} shard {got_index} first_frame {got_first}"
        )));
    }
    if reports.len() != plan.len {
        return Err(OisaError::Backend(format!(
            "shard {shard_index} returned {} reports for {} frames",
            reports.len(),
            plan.len
        )));
    }
    Ok(reports)
}

/// How [`ShardedBackend::run_with_recovery`] reacts to a worker whose
/// transport failed.
pub(crate) enum Recovery {
    /// Swap the failed slot for this transport (a promoted spare) and
    /// re-run the failed range on the repaired fleet.
    Promote(Box<dyn ShardTransport>),
    /// Drop the failed worker and re-plan the failed range across the
    /// surviving workers.
    Shrink,
    /// Propagate the failure to the caller.
    Abort,
}

/// Splits `n` items into `parts` contiguous counts, largest first —
/// the partition both the initial plan and every re-plan use.
fn split_count(n: usize, parts: usize) -> Vec<usize> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// One connection-opening exchange as the coordinator sends it: a
/// [`WireMessage::Ping`] offering `fingerprint`, or — with `push` set —
/// a wire-v3 [`WireMessage::Configure`] the worker adopts. `fingerprint`
/// is the coordinator's, so it equals `push`'s when pushing. The health
/// probe, config pushes, spare admission and the TCP connect handshake
/// all send one of these and check the reply through
/// [`HandshakeRequest::check`].
pub(crate) struct HandshakeRequest {
    pub(crate) nonce: u64,
    pub(crate) fingerprint: u64,
    pub(crate) push: Option<OisaConfig>,
}

/// How a worker answered a [`HandshakeRequest`].
pub(crate) enum HandshakeVerdict {
    /// The right reply, the nonce echoed, the coordinator's fingerprint
    /// reported (for a push: applied).
    Agreed,
    /// The reply echoed another nonce — an answer to an older request.
    /// A transport that can reconnect retries; others report it.
    Stale(String),
    /// A refusal, a mismatched fingerprint or the wrong reply.
    Failed(OisaError),
}

impl HandshakeRequest {
    /// The wire message this exchange sends.
    pub(crate) fn message(&self) -> WireMessage {
        match self.push {
            Some(config) => WireMessage::Configure(wire::ConfigPush {
                nonce: self.nonce,
                config,
            }),
            None => WireMessage::Ping(wire::Handshake {
                nonce: self.nonce,
                config_fingerprint: self.fingerprint,
            }),
        }
    }

    /// Checks a worker's reply: a [`WireMessage::Pong`] to a ping or a
    /// [`WireMessage::ConfigureAck`] to a push, echoing the nonce and
    /// the coordinator's fingerprint. A refusal (e.g. a v2 peer that
    /// cannot decode a push) maps to its typed error.
    pub(crate) fn check(&self, reply: WireMessage) -> HandshakeVerdict {
        let echo = match (reply, self.push.is_some()) {
            (WireMessage::Pong(echo), false) | (WireMessage::ConfigureAck(echo), true) => echo,
            (WireMessage::Refusal(refusal), _) => {
                return HandshakeVerdict::Failed(refusal_to_error(refusal))
            }
            (other, _) => {
                return HandshakeVerdict::Failed(OisaError::Backend(format!(
                    "worker answered the {} with a {}",
                    message_name(&self.message()),
                    message_name(&other)
                )))
            }
        };
        if echo.nonce != self.nonce {
            return HandshakeVerdict::Stale(format!(
                "stale handshake reply (nonce {} ≠ {})",
                echo.nonce, self.nonce
            ));
        }
        if echo.config_fingerprint != self.fingerprint {
            // On a ping the worker *runs* other physics; on a push it
            // failed to adopt ours. Either way it must not serve.
            return HandshakeVerdict::Failed(OisaError::FingerprintMismatch {
                coordinator: self.fingerprint,
                worker: echo.config_fingerprint,
            });
        }
        HandshakeVerdict::Agreed
    }

    /// Runs the exchange as one round trip over any [`ShardTransport`].
    ///
    /// # Errors
    ///
    /// Transport failures from the round trip; the failed verdict's
    /// error; [`OisaError::Backend`] for a stale nonce.
    pub(crate) fn run(&self, worker: &mut dyn ShardTransport) -> BackendResult<()> {
        let reply = worker.round_trip(&wire::encode(&self.message()))?;
        match self.check(wire::decode(&reply)?) {
            HandshakeVerdict::Agreed => Ok(()),
            HandshakeVerdict::Stale(why) => Err(OisaError::Backend(why)),
            HandshakeVerdict::Failed(error) => Err(error),
        }
    }
}

impl ComputeBackend for ShardedBackend {
    fn config(&self) -> &OisaConfig {
        &self.config
    }

    /// The coordinator's one path (module docs, "Layer programs") under
    /// the no-recovery policy: the first transport failure aborts the
    /// job (the caller repairs the fleet and retries).
    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>> {
        self.run_with_recovery(job, &mut |_label, _error| Recovery::Abort)
    }

    /// As [`ComputeBackend::run_job`] above: both job kinds share one
    /// planner, dispatcher, settle and merge.
    fn run_program(&mut self, job: &ProgramJob) -> BackendResult<Vec<ProgramFrameReport>> {
        self.run_with_recovery(job, &mut |_label, _error| Recovery::Abort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_device::noise::NoiseConfig;
    use std::sync::{Arc, Mutex};

    fn cfg(seed: u64) -> OisaConfig {
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = seed;
        cfg
    }

    fn frames(count: usize) -> Vec<Frame> {
        (0..count)
            .map(|f| {
                let data: Vec<f64> = (0..256)
                    .map(|i| ((i * (f + 3)) % 17) as f64 / 17.0)
                    .collect();
                Frame::new(16, 16, data).unwrap()
            })
            .collect()
    }

    #[test]
    fn local_backend_matches_direct_batch_calls() {
        let job = InferenceJob {
            job_id: 1,
            k: 3,
            kernels: vec![vec![0.4f32; 9], vec![-0.2f32; 9]],
            frames: frames(3),
        };
        let mut backend = LocalBackend::new(cfg(5)).unwrap();
        let via_backend = backend.run_job(&job).unwrap();
        let mut direct = OisaAccelerator::new(cfg(5)).unwrap();
        let via_accel = direct
            .convolve_frames(&job.frames, &job.kernels, 3)
            .unwrap();
        assert_eq!(via_backend, via_accel);
    }

    /// An in-process worker that logs every request it decodes and
    /// answers with the real reply passed through `tamper`.
    struct RiggedWorker {
        inner: InProcessWorker,
        requests: Arc<Mutex<Vec<WireMessage>>>,
        tamper: Tamper,
    }

    type Tamper = fn(WireMessage) -> WireMessage;

    impl ShardTransport for RiggedWorker {
        fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>> {
            self.requests.lock().unwrap().push(wire::decode(message)?);
            let reply = wire::decode(&self.inner.round_trip(message)?)?;
            Ok(wire::encode(&(self.tamper)(reply)))
        }
    }

    /// A fleet of `workers` rigged workers sharing one request log.
    fn rigged(
        config: OisaConfig,
        workers: usize,
        tamper: Tamper,
    ) -> (ShardedBackend, Arc<Mutex<Vec<WireMessage>>>) {
        let requests = Arc::new(Mutex::new(Vec::new()));
        let fleet = (0..workers)
            .map(|_| {
                Box::new(RiggedWorker {
                    inner: InProcessWorker::new(config),
                    requests: Arc::clone(&requests),
                    tamper,
                }) as Box<dyn ShardTransport>
            })
            .collect();
        (ShardedBackend::new(config, fleet).unwrap(), requests)
    }

    fn program_job(frames_n: usize) -> ProgramJob {
        ProgramJob {
            job_id: 10,
            program: crate::program::LayerProgram::autoencoder(16, 16, 2, 4, 11).unwrap(),
            frames: frames(frames_n),
        }
    }

    #[test]
    fn shard_planning_partitions_frames_epochs_and_entry_states() {
        let (mut backend, requests) = rigged(cfg(6), 3, |reply| reply);
        let job = InferenceJob {
            job_id: 9,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: frames(7),
        };
        backend.run_job(&job).unwrap();
        let mut shards: Vec<JobShard> = std::mem::take(&mut *requests.lock().unwrap())
            .into_iter()
            .map(|request| match request {
                WireMessage::Shard(shard) => shard,
                other => panic!("expected a JobShard, got {other:?}"),
            })
            .collect();
        shards.sort_by_key(|s| s.shard_index);
        assert_eq!(shards.len(), 3);
        // 7 frames over 3 workers: 3 + 2 + 2, contiguous.
        assert_eq!(
            shards.iter().map(|s| s.frames.len()).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        assert_eq!(
            shards.iter().map(|s| s.first_frame).collect::<Vec<_>>(),
            vec![0, 3, 5]
        );
        assert_eq!(
            shards.iter().map(|s| s.first_epoch).collect::<Vec<_>>(),
            vec![0, 3, 5]
        );
        // First shard of a fresh stream is cold; later shards are warm.
        assert_eq!(shards[0].entry, FabricEntry::Cold);
        assert_eq!(shards[1].entry, FabricEntry::WarmSelf);
        assert_eq!(shards[2].entry, FabricEntry::WarmSelf);
        // More workers than frames engages only as many as there are
        // frames.
        let tiny = InferenceJob {
            frames: frames(2),
            ..job
        };
        backend.run_job(&tiny).unwrap();
        let shards = std::mem::take(&mut *requests.lock().unwrap());
        assert_eq!(shards.len(), 2);
        assert!(
            shards
                .iter()
                .all(|s| matches!(s, WireMessage::Shard(s) if s.shard_count == 2)),
            "{shards:?}"
        );
        // A program strides `epochs_per_frame` epochs per frame from
        // wherever the stream stands.
        let base = backend.next_epoch;
        let program = program_job(7);
        let stride = program.program.epochs_per_frame();
        assert!(stride > 1, "the program must stride more than one epoch");
        backend.run_program(&program).unwrap();
        let mut shards: Vec<ProgramShard> = std::mem::take(&mut *requests.lock().unwrap())
            .into_iter()
            .map(|request| match request {
                WireMessage::ProgramShard(shard) => shard,
                other => panic!("expected a ProgramShard, got {other:?}"),
            })
            .collect();
        shards.sort_by_key(|s| s.shard_index);
        assert_eq!(
            shards.iter().map(|s| s.first_frame).collect::<Vec<_>>(),
            vec![0, 3, 5]
        );
        for shard in &shards {
            assert_eq!(shard.first_epoch, base + shard.first_frame * stride);
        }
        assert_eq!(backend.next_epoch, base + 7 * stride);
    }

    /// Rewrites the echo fields of a report of either kind and, with
    /// `drop_last`, drops its last per-frame report.
    fn tampered(reply: WireMessage, index: u32, first: u64, drop_last: bool) -> WireMessage {
        match reply {
            WireMessage::Report(mut r) => {
                r.shard_index += index;
                r.first_frame += first;
                if drop_last {
                    r.reports.pop();
                }
                WireMessage::Report(r)
            }
            WireMessage::ProgramReport(mut r) => {
                r.shard_index += index;
                r.first_frame += first;
                if drop_last {
                    r.reports.pop();
                }
                WireMessage::ProgramReport(r)
            }
            other => other,
        }
    }

    /// The other job kind's report, with the same echo fields.
    fn other_kind(reply: WireMessage) -> WireMessage {
        match reply {
            WireMessage::Report(r) => WireMessage::ProgramReport(ProgramReport {
                job_id: r.job_id,
                shard_index: r.shard_index,
                first_frame: r.first_frame,
                reports: Vec::new(),
            }),
            WireMessage::ProgramReport(r) => WireMessage::Report(ShardReport {
                job_id: r.job_id,
                shard_index: r.shard_index,
                first_frame: r.first_frame,
                reports: Vec::new(),
            }),
            other => other,
        }
    }

    #[test]
    fn bad_replies_are_typed_errors_for_both_job_kinds() {
        let cases: [(&str, Tamper, &str); 4] = [
            (
                "other kind's report",
                other_kind,
                "worker answered shard 0 with a",
            ),
            (
                "wrong shard_index",
                |r| tampered(r, 1, 0, false),
                "shard reply mismatch",
            ),
            (
                "wrong first_frame",
                |r| tampered(r, 0, 1, false),
                "shard reply mismatch",
            ),
            (
                "wrong report count",
                |r| tampered(r, 0, 0, true),
                "returned 1 reports for 2 frames",
            ),
        ];
        let conv = InferenceJob {
            job_id: 12,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: frames(2),
        };
        let program = program_job(2);
        for (case, tamper, expected) in cases {
            for kind in ["conv", "program"] {
                let (mut backend, _) = rigged(cfg(13), 1, tamper);
                let err = match kind {
                    "conv" => backend.run_job(&conv).map(|_| ()),
                    _ => backend.run_program(&program).map(|_| ()),
                }
                .unwrap_err();
                assert!(
                    matches!(err, OisaError::Backend(ref what) if what.contains(expected)),
                    "{kind} job, {case}: {err}"
                );
                assert_eq!(backend.jobs_run(), 0, "{kind} job, {case}");
                assert_eq!(backend.next_epoch, 0, "{kind} job, {case}");
            }
        }
    }

    #[test]
    fn fingerprint_mismatch_is_typed_and_names_both_fingerprints() {
        let mut worker_cfg = cfg(7);
        worker_cfg.seed = 8; // different physics
        let coordinator_fp = cfg(7).fingerprint();
        let worker_fp = worker_cfg.fingerprint();
        let shard = JobShard {
            job_id: 3,
            shard_index: 0,
            shard_count: 1,
            first_frame: 0,
            first_epoch: 0,
            config_fingerprint: coordinator_fp,
            entry: FabricEntry::Cold,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: frames(1),
        };
        let err = execute_shard(&worker_cfg, &shard).unwrap_err();
        assert_eq!(
            err,
            OisaError::FingerprintMismatch {
                coordinator: coordinator_fp,
                worker: worker_fp,
            }
        );
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // Through a transport it comes back as a refusal whose code
        // carries both fingerprints...
        let mut transport = InProcessWorker::new(worker_cfg);
        let reply = transport
            .round_trip(&wire::encode(&WireMessage::Shard(shard)))
            .unwrap();
        match wire::decode(&reply).unwrap() {
            WireMessage::Refusal(refusal) => {
                assert_eq!(refusal.job_id, 3);
                assert_eq!(
                    refusal.code,
                    RefusalCode::FingerprintMismatch {
                        coordinator: coordinator_fp,
                        worker: worker_fp,
                    }
                );
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // ...and the coordinator maps it back to the same typed error.
        let mut backend = ShardedBackend::new(cfg(7), vec![Box::new(transport)]).unwrap();
        let job = InferenceJob {
            job_id: 3,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: frames(1),
        };
        assert_eq!(
            backend.run_job(&job).unwrap_err(),
            OisaError::FingerprintMismatch {
                coordinator: coordinator_fp,
                worker: worker_fp,
            }
        );
    }

    #[test]
    fn worker_answers_ping_with_a_nonce_echoing_pong() {
        let config = cfg(11);
        let mut transport = InProcessWorker::new(config);
        let reply = transport
            .round_trip(&wire::encode(&WireMessage::Ping(wire::Handshake {
                nonce: 0xC0FFEE,
                config_fingerprint: 0, // sender's fingerprint is informational
            })))
            .unwrap();
        match wire::decode(&reply).unwrap() {
            WireMessage::Pong(hs) => {
                assert_eq!(hs.nonce, 0xC0FFEE);
                assert_eq!(hs.config_fingerprint, config.fingerprint());
            }
            other => panic!("expected a pong, got {other:?}"),
        }
    }

    #[test]
    fn worker_answers_garbage_with_a_refusal_not_a_hangup() {
        let mut transport = InProcessWorker::new(cfg(8));
        // A syntactically valid frame holding an undecodable payload.
        let reply = transport.round_trip(&[0xDE, 0xAD]).unwrap();
        match wire::decode(&reply).unwrap() {
            WireMessage::Refusal(refusal) => {
                assert!(refusal.reason.contains("decode"), "{}", refusal.reason);
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // A well-formed message of the wrong type is named in the
        // refusal.
        let report = ShardReport {
            job_id: 1,
            shard_index: 0,
            first_frame: 0,
            reports: Vec::new(),
        };
        let reply = transport
            .round_trip(&wire::encode(&WireMessage::Report(report)))
            .unwrap();
        match wire::decode(&reply).unwrap() {
            WireMessage::Refusal(refusal) => {
                assert!(refusal.reason.contains("ShardReport"), "{}", refusal.reason);
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn empty_fleet_and_empty_job_are_rejected() {
        assert!(ShardedBackend::new(cfg(9), Vec::new()).is_err());
        let mut backend = ShardedBackend::in_process(cfg(9), 2).unwrap();
        let empty = InferenceJob {
            job_id: 1,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: Vec::new(),
        };
        assert!(backend.run_job(&empty).is_err());
        let wrong_dims = InferenceJob {
            job_id: 2,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: vec![Frame::constant(8, 8, 0.5).unwrap()],
        };
        assert!(backend.run_job(&wrong_dims).is_err());
        // Failed jobs consumed no epochs.
        assert_eq!(backend.next_epoch, 0);
    }
}
