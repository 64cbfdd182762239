//! The repository benchmark: three seeded workloads over the OISA
//! pipeline, end-to-end metrics with tracing off and per-layer metrics
//! from a separate traced run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The next-to-last line of standard output (`PERFBENCH {...}`) holds
//! the host, the seed, sample counts, the output digest and, for traced
//! runs, each workload's layer breakdown. The last line is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `metrics.json` in this directory says which layer each metric
//! belongs to and which end-to-end metric it should move.

mod common;
mod fleet_faults;
mod layers;
mod oracle;
mod program_tcp;
mod serve_open;
mod sharded;

use common::{Json, Outcome};

/// Every end-to-end metric, reported by every workload with tracing
/// off (BENCHMARK.json `end_to_end`).
const END_TO_END: [&str; 5] = [
    "setup_s",
    "frames_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mb",
];

/// Every per-layer metric (BENCHMARK.json `per_layer`) with its unit.
/// A traced run reports all of them; those that do not apply to its
/// workload read 0 and are listed under `not_applicable`.
const PER_LAYER: [(&str, &str); 45] = [
    ("sensor.expose_encode_ms", "ms"),
    ("accelerator.stage_ms", "ms"),
    ("accelerator.convolve_ms", "ms"),
    ("accelerator.mac_drain_ms", "ms"),
    ("accelerator.host_ns_per_ring", "ns"),
    ("optics.mac_ns_per_ring", "ns"),
    ("optics.mac_ns_per_ring_noiseless", "ns"),
    ("sim.rings_per_frame", "count"),
    ("sim.passes_per_frame", "count"),
    ("sim.device_us_per_frame", "us"),
    ("sim.energy_nj_per_frame", "nJ"),
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.queue_wait_p99_ms", "ms"),
    ("serving.batch_size_mean", "frames"),
    ("serving.deadline_batch_share", "share"),
    ("serving.batch_exec_ms", "ms"),
    ("serving.backend_busy_share", "share"),
    ("serving.submit_us_p90", "us"),
    ("loadgen.lag_p90_ms", "ms"),
    ("backend.round_trip_ms", "ms"),
    ("backend.coordinator_ms", "ms"),
    ("backend.shard_skew_ms", "ms"),
    ("backend.straggler_wait_ms", "ms"),
    ("backend.round_trips", "count"),
    ("backend.round_trips_failed", "count"),
    ("backend.useful_frame_share", "share"),
    ("wire.request_bytes", "bytes"),
    ("wire.reply_bytes", "bytes"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("tcp.transport_ms", "ms"),
    ("program.setup_ms", "ms"),
    ("program.conv_ms", "ms"),
    ("program.dense_ms", "ms"),
    ("program.elementwise_ms", "ms"),
    ("mlp.host_ns_per_weight", "ns"),
    ("supervisor.promotions", "count"),
    ("supervisor.replans", "count"),
    ("supervisor.quarantined", "count"),
    ("supervisor.recovery_p50_ms", "ms"),
    ("supervisor.recovery_p90_ms", "ms"),
    ("serve-open.other_share", "share"),
    ("program-tcp.other_share", "share"),
    ("fleet-faults.other_share", "share"),
    ("trace.overhead_share", "share"),
];

const WORKLOADS: [&str; 3] = ["serve-open", "program-tcp", "fleet-faults"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the working tree, read from `.git` without running
/// git; "unknown" outside a repository.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|c| c.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        (
            "rayon_threads",
            Json::Int(rayon::current_num_threads() as u64),
        ),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("commit", Json::str(git_commit())),
        ("seed", Json::Int(args.seed)),
        ("workload", Json::str(args.workload.clone())),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "serve-open" => serve_open::run,
        "program-tcp" => program_tcp::run,
        _ => fleet_faults::run,
    };
    let Outcome {
        mut metrics,
        attempted,
        failed,
        verified,
        mismatched,
        digest,
        detail,
    } = run(args.seed, args.seconds, args.trace);

    let mut not_applicable = Vec::new();
    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&name| (name, "")).collect()
    };
    for (name, unit) in &expected {
        if metrics.get(name).is_none() {
            assert!(args.trace, "end-to-end metric {name} missing");
            metrics.push(name, 0.0, unit);
            not_applicable.push(Json::str(*name));
        }
    }
    let correct = mismatched == 0 && failed == 0;
    let mut log = vec![
        ("host".to_string(), host(&args)),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted)),
        ("failed".into(), Json::Int(failed)),
        (
            "failed_share".into(),
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("results_verified".into(), Json::Int(verified)),
        ("results_mismatched".into(), Json::Int(mismatched)),
        ("digest".into(), Json::str(format!("{digest:016x}"))),
        ("metrics".into(), metrics.detail_json()),
    ];
    if args.trace {
        log.push(("not_applicable".into(), Json::Arr(not_applicable)));
    }
    log.extend(detail);
    println!("PERFBENCH {}", Json::Obj(log));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(attempted)),
            ("failed", Json::Int(failed)),
            ("metrics", metrics.values_json()),
        ])
    );
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The `(name, unit)` pairs of one metric list in BENCHMARK.json.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..text[start..].find(']').map_or(text.len(), |e| start + e)];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, listed("per_layer"));
        let end_to_end: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(END_TO_END.to_vec(), end_to_end);
    }
}
