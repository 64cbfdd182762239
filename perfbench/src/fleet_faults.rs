//! `fleet-faults`: one client in a closed loop sends small conv jobs
//! (2 kernels, 2 frames) to a `FleetSupervisor` with 2 active
//! in-process workers and a bench of spares. Every transport follows a
//! seeded schedule per round trip — pass through, fail (quarantine →
//! promote) or straggle (a seeded delay) — so planning, recovery and
//! the codec carry a large share of each job.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oisa_core::backend::{
    ComputeBackend, FleetStatus, FleetSupervisor, InProcessWorker, ShardTransport,
    SupervisorOptions,
};
use oisa_core::{OisaConfig, OisaError};

use crate::common::{
    closed_loop, config, failed_ops, fold_digests, median, mismatches, mix, ms, peak_rss_mb,
    quantile, repeated_setup, setup_metric, trace_overhead, ConvJobs, ConvResults, Json, Metrics,
    Outcome, Rng, MIN_OPS,
};
use crate::layers::{is_shard, RoundTripLog, TimedTransport};
use crate::oracle;
use crate::sharded::ShardedTrace;

const FRAMES_PER_JOB: usize = 2;
const KERNELS_PER_JOB: usize = 2;
const ACTIVE: usize = 2;
/// Injected worker failures per phase, all within its first
/// [`MIN_OPS`] jobs, so the failure counts repeat exactly for a seed.
const FAULTS_PER_PHASE: usize = 6;
/// Spares on the bench: enough for every failure of two phases (an
/// untraced and a traced one) to promote rather than re-plan.
const SPARES: usize = 2 * FAULTS_PER_PHASE;
/// Share of shard round trips that straggle, and their delay range.
const STRAGGLE_SHARE: f64 = 0.15;
const STRAGGLE_MS: (f64, f64) = (2.0, 12.0);
const POOL: usize = 16;
/// Untimed jobs before the first timed one, about a second: the first
/// jobs of a process run slower while memory is first touched and
/// caches fill.
const WARMUP_JOBS: usize = 100;

/// The seeded fault schedule, shared by every transport of a fleet.
///
/// Failures are planned a phase at a time: which jobs lose a worker
/// and in which fleet slot. The supervisor promotes the last spare into
/// the failed slot, so the plan can name the transport that must fail
/// by replaying that rule. Straggles are a pure function of the seed,
/// the job, the transport and its round-trip ordinal within the job.
struct FaultPlan {
    seed: u64,
    /// The job the client is running now.
    job: AtomicU64,
    state: Mutex<PlanState>,
}

struct PlanState {
    /// Transport ids in fleet-slot order, and the spare bench (promoted
    /// from the back).
    active: Vec<usize>,
    spares: Vec<usize>,
    /// (job, transport) pairs whose first shard round trip fails.
    failures: HashSet<(u64, usize)>,
}

enum Action {
    Pass,
    Fail,
    Straggle(Duration),
}

impl FaultPlan {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            job: AtomicU64::new(0),
            state: Mutex::new(PlanState {
                active: (0..ACTIVE).collect(),
                spares: (ACTIVE..ACTIVE + SPARES).collect(),
                failures: HashSet::new(),
            }),
        }
    }

    /// Plans [`FAULTS_PER_PHASE`] failures among jobs
    /// `first..first + MIN_OPS`.
    fn plan_phase(&self, first: usize) {
        let mut rng = Rng::new(self.seed, 0xFA17_0000 ^ first as u64);
        let mut jobs = HashSet::new();
        while jobs.len() < FAULTS_PER_PHASE {
            jobs.insert(first + rng.below(MIN_OPS));
        }
        let mut jobs: Vec<usize> = jobs.into_iter().collect();
        jobs.sort_unstable();
        let mut state = self.state.lock().expect("fault plan poisoned");
        for job in jobs {
            let slot = rng.below(ACTIVE);
            let failing = state.active[slot];
            let promoted = state
                .spares
                .pop()
                .expect("SPARES covers every planned failure");
            state.active[slot] = promoted;
            state.failures.insert((job as u64, failing));
        }
    }

    fn action(&self, job: u64, transport: usize, ordinal: u64) -> Action {
        if ordinal == 0
            && self
                .state
                .lock()
                .expect("fault plan poisoned")
                .failures
                .contains(&(job, transport))
        {
            return Action::Fail;
        }
        let mut rng = Rng::new(mix(self.seed, job), (transport as u64) << 32 | ordinal);
        if rng.unit() < STRAGGLE_SHARE {
            let delay = rng.range(STRAGGLE_MS.0, STRAGGLE_MS.1);
            Action::Straggle(Duration::from_secs_f64(delay / 1e3))
        } else {
            Action::Pass
        }
    }
}

/// An in-process worker behind the fault schedule.
struct FaultyWorker {
    inner: InProcessWorker,
    id: usize,
    plan: Arc<FaultPlan>,
    /// The job of the last shard seen and how many shards it sent here.
    seen: (u64, u64),
}

impl ShardTransport for FaultyWorker {
    fn round_trip(&mut self, message: &[u8]) -> Result<Vec<u8>, OisaError> {
        if !is_shard(message) {
            return self.inner.round_trip(message);
        }
        let job = self.plan.job.load(Ordering::SeqCst);
        let ordinal = if self.seen.0 == job { self.seen.1 } else { 0 };
        self.seen = (job, ordinal + 1);
        match self.plan.action(job, self.id, ordinal) {
            Action::Fail => Err(OisaError::Transport {
                endpoint: self.endpoint_label(),
                attempts: 1,
                cause: "injected worker failure".into(),
            }),
            Action::Straggle(delay) => {
                std::thread::sleep(delay);
                self.inner.round_trip(message)
            }
            Action::Pass => self.inner.round_trip(message),
        }
    }

    fn endpoint_label(&self) -> String {
        format!("fleet-worker-{}", self.id)
    }
}

struct Fleet {
    supervisor: FleetSupervisor,
    plan: Arc<FaultPlan>,
}

/// Builds the supervised fleet and admits it (a health check of every
/// active worker). With a log, each transport is wrapped for tracing.
fn fleet(cfg: OisaConfig, seed: u64, log: Option<&Arc<RoundTripLog>>) -> Fleet {
    let plan = Arc::new(FaultPlan::new(seed));
    let transport = |id: usize| -> Box<dyn ShardTransport> {
        let worker = FaultyWorker {
            inner: InProcessWorker::new(cfg),
            id,
            plan: Arc::clone(&plan),
            seen: (u64::MAX, 0),
        };
        match log {
            Some(log) => Box::new(TimedTransport::new(worker, log)),
            None => Box::new(worker),
        }
    };
    let active = (0..ACTIVE).map(transport).collect();
    let spares = (ACTIVE..ACTIVE + SPARES).map(transport).collect();
    // Interval health checks would run at wall-clock-dependent points;
    // the explicit admission check below is the only sweep.
    let options = SupervisorOptions {
        health_interval: None,
        push_config_to_spares: false,
    };
    let mut supervisor =
        FleetSupervisor::new(cfg, active, spares, options).expect("two workers make a fleet");
    let failed = supervisor
        .health_check_now()
        .expect("in-process workers answer pings");
    assert_eq!(failed, 0, "no worker fails admission");
    Fleet { supervisor, plan }
}

fn status_json(status: FleetStatus) -> Json {
    Json::obj([
        ("active", Json::Int(status.active as u64)),
        ("spares", Json::Int(status.spares as u64)),
        ("quarantined", Json::Int(status.quarantined as u64)),
        ("promotions", Json::Int(status.promotions)),
        ("replans", Json::Int(status.replans)),
    ])
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = config(seed);
    let inputs = ConvJobs::new(seed, 0xFF00_0000, POOL, FRAMES_PER_JOB, KERNELS_PER_JOB);
    let log = trace.then(|| Arc::new(RoundTripLog::default()));
    let (fleet, setup_s) = repeated_setup(|| fleet(cfg, seed, log.as_ref()));
    let Fleet {
        mut supervisor,
        plan,
    } = fleet;

    // Warm-up jobs are verified but not timed; no fault is planned
    // for them.
    let mut results = ConvResults::new(FRAMES_PER_JOB);
    for index in 0..WARMUP_JOBS {
        plan.job.store(index as u64, Ordering::SeqCst);
        results.record(index, supervisor.run_job(&inputs.inference_job(index)));
    }

    plan.plan_phase(WARMUP_JOBS);
    let latencies = closed_loop(WARMUP_JOBS, seconds, |index| {
        let job = inputs.inference_job(index);
        plan.job.store(index as u64, Ordering::SeqCst);
        let start = Instant::now();
        let result = supervisor.run_job(&job);
        let took = start.elapsed();
        results.record(index, result);
        took
    });
    let peak_mb = peak_rss_mb();
    let mut next = WARMUP_JOBS + latencies.len();
    let mut phase = WARMUP_JOBS..next;

    let mut metrics = Metrics::default();
    let mut detail = Vec::new();
    let mut replay_failures = Vec::new();
    if let Some(log) = &log {
        let before = supervisor.status();
        plan.plan_phase(next);
        log.enable();
        let mut traced_jobs = ShardedTrace::default();
        let traced = closed_loop(next, seconds, |index| {
            let job = inputs.inference_job(index);
            plan.job.store(index as u64, Ordering::SeqCst);
            let start = Instant::now();
            let result = supervisor.run_job(&job);
            let took = start.elapsed();
            results.record(index, result);
            if !traced_jobs.job(&cfg, start, ms(took), &log.take()) {
                replay_failures.push(index);
            }
            took
        });
        phase = next..next + traced.len();
        next = phase.end;
        let after = supervisor.status();
        let (split, other) = traced_jobs.metrics(&mut metrics, "backend.transport");
        metrics.push(
            "supervisor.promotions",
            (after.promotions - before.promotions) as f64,
            "count",
        );
        metrics.push(
            "supervisor.replans",
            (after.replans - before.replans) as f64,
            "count",
        );
        metrics.push(
            "supervisor.quarantined",
            (after.quarantined - before.quarantined) as f64,
            "count",
        );
        let recovery = traced_jobs.recovery_ms();
        metrics.sampled(
            "supervisor.recovery_p50_ms",
            median(recovery),
            "ms",
            recovery.len(),
        );
        metrics.sampled(
            "supervisor.recovery_p90_ms",
            quantile(recovery, 0.9),
            "ms",
            recovery.len(),
        );
        results.sim.metrics(&mut metrics);
        metrics.push("fleet-faults.other_share", other, "share");
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
    detail.push(("fleet".into(), status_json(supervisor.status())));
    drop(supervisor);

    let oracle =
        oracle::conv_stream(&cfg, next, FRAMES_PER_JOB, |i| inputs.job(i)).unwrap_or_default();
    Outcome {
        metrics,
        attempted: phase.len() as u64,
        // A job whose worker side did not replay byte for byte is
        // failed even when its merged result matches.
        failed: failed_ops(
            &results.digests,
            &oracle,
            phase,
            FRAMES_PER_JOB,
            &replay_failures,
        ),
        verified: results.digests.len() as u64,
        mismatched: (mismatches(&results.digests, &oracle) + replay_failures.len()) as u64,
        digest: fold_digests(&results.digests),
        detail,
    }
}
