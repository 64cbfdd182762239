//! Per-layer accounting for the sharded workloads (`program-tcp`,
//! `fleet-faults`): each traced job's round trips, replayed worker
//! side, reduced to backend, wire, tcp, program and mlp metrics and to
//! an exclusive split of the job's wall clock.

use std::time::Instant;

use oisa_core::wire::{self, WireMessage};
use oisa_core::OisaConfig;

use crate::common::{breakdown, mean, median, ms, Json, Metrics, Part, MIN_OPS};
use crate::layers::{replay_round, round_span_ms, rounds, Replay, RoundTrip};

/// Accumulates the traced jobs of one phase.
#[derive(Debug, Default)]
pub struct ShardedTrace {
    jobs: usize,
    round_trip_ms: Vec<f64>,
    coordinator_ms: Vec<f64>,
    skew_ms: Vec<f64>,
    straggler_wait_ms: Vec<f64>,
    trips: u64,
    trips_failed: u64,
    frames_shipped: u64,
    frames_merged: u64,
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    transport_ms: Vec<f64>,
    program_setup_ms: Vec<f64>,
    conv_ms: Vec<f64>,
    dense_ms: Vec<f64>,
    elementwise_ms: Vec<f64>,
    ns_per_weight: Vec<f64>,
    /// Failure instants → job completion, for jobs that lost a worker.
    recovery_ms: Vec<f64>,
    /// Exclusive split totals over every traced job.
    op_total: f64,
    coordinator_wire: f64,
    worker_wire: f64,
    worker_compute: f64,
    program_conv: f64,
    program_dense: f64,
    program_elementwise: f64,
    transport: f64,
}

fn frames_in(request: &[u8]) -> u64 {
    match wire::decode(request) {
        Ok(WireMessage::Shard(shard)) => shard.frames.len() as u64,
        Ok(WireMessage::ProgramShard(shard)) => shard.frames.len() as u64,
        _ => 0,
    }
}

impl ShardedTrace {
    /// Accounts one job that ran from `start` for `wall_ms` and made
    /// the round trips `trips`. Returns false when a replay did not
    /// reproduce the captured bytes (the job then counts as failed).
    pub fn job(
        &mut self,
        config: &OisaConfig,
        start: Instant,
        wall_ms: f64,
        trips: &[RoundTrip],
    ) -> bool {
        let counted = self.jobs < MIN_OPS;
        self.jobs += 1;
        self.op_total += wall_ms;
        let mut identical = true;
        let (mut enc, mut dec, mut spans, mut waits) = (0.0, 0.0, 0.0, 0.0);
        let (mut req_bytes, mut rep_bytes) = (0usize, 0usize);
        for round in rounds(trips) {
            let span = round_span_ms(round);
            spans += span;
            let replays: Vec<Replay> = replay_round(config, round)
                .into_iter()
                .map(|r| {
                    identical &= r.as_ref().is_ok_and(|r| r.identical);
                    r.unwrap_or_default()
                })
                .collect();
            let succeeded: Vec<&RoundTrip> = round.iter().filter(|t| t.reply.is_some()).collect();
            let durations: Vec<f64> = succeeded.iter().map(|t| ms(t.end - t.start)).collect();
            if durations.len() > 1 {
                let max = durations.iter().copied().fold(f64::MIN, f64::max);
                let min = durations.iter().copied().fold(f64::MAX, f64::min);
                self.skew_ms.push(max - min);
            }
            let first_end = succeeded.iter().map(|t| t.end).min();
            let last_end = succeeded.iter().map(|t| t.end).max();
            if let (Some(a), Some(b)) = (first_end, last_end) {
                waits += ms(b - a);
            }
            for trip in round {
                req_bytes += trip.request.len();
                rep_bytes += trip.reply.as_ref().map_or(0, Vec::len);
                if counted {
                    self.trips += 1;
                }
                if trip.reply.is_none() {
                    if counted {
                        self.trips_failed += 1;
                    }
                    self.frames_shipped += frames_in(&trip.request);
                    let end = start + std::time::Duration::from_secs_f64(wall_ms / 1e3);
                    self.recovery_ms
                        .push(ms(end.saturating_duration_since(trip.end)));
                }
            }
            for (trip, replay) in succeeded.iter().zip(&replays) {
                let rt = ms(trip.end - trip.start);
                self.round_trip_ms.push(rt);
                self.transport_ms.push(rt - replay.worker_ms());
                self.frames_shipped += replay.frames as u64;
                self.frames_merged += replay.frames as u64;
                enc += replay.coord_encode_ms + replay.worker_encode_ms;
                dec += replay.coord_decode_ms + replay.worker_decode_ms;
                self.coordinator_wire += replay.coord_encode_ms + replay.coord_decode_ms;
                if replay.program_setup_ms > 0.0 {
                    self.program_setup_ms.push(replay.program_setup_ms);
                }
                self.conv_ms.extend(&replay.conv_ms);
                self.dense_ms.extend(&replay.dense_ms);
                self.elementwise_ms.extend(&replay.elementwise_ms);
                if replay.dense_weights > 0 {
                    self.ns_per_weight.extend(
                        replay
                            .dense_ms
                            .iter()
                            .map(|t| t * 1e6 / replay.dense_weights as f64),
                    );
                }
            }
            // The slowest shard of the round is the critical path; its
            // replayed parts split the round's span, and the rest of
            // the span is transport.
            if let Some((_, replay)) = succeeded
                .iter()
                .zip(&replays)
                .max_by_key(|(trip, _)| trip.end - trip.start)
            {
                let conv: f64 = replay.conv_ms.iter().sum();
                let dense: f64 = replay.dense_ms.iter().sum();
                let elementwise: f64 = replay.elementwise_ms.iter().sum();
                let wire = replay.worker_decode_ms + replay.worker_encode_ms;
                let compute = replay.execute_ms + replay.program_setup_ms;
                self.worker_wire += wire;
                self.worker_compute += compute;
                self.program_conv += conv;
                self.program_dense += dense;
                self.program_elementwise += elementwise;
                self.transport += span - (wire + compute + conv + dense + elementwise);
            } else {
                self.transport += span;
            }
        }
        self.coordinator_ms.push(wall_ms - spans);
        self.straggler_wait_ms.push(waits);
        self.encode_ms.push(enc);
        self.decode_ms.push(dec);
        if counted {
            self.request_bytes.push(req_bytes as f64);
            self.reply_bytes.push(rep_bytes as f64);
        }
        identical
    }

    /// Writes the backend, wire and (where they ran) tcp, program and
    /// mlp metrics, and returns the exclusive split of the job wall
    /// clock with its `other` share. `transport_layer` names the
    /// derived remainder of each round trip.
    pub fn metrics(&self, out: &mut Metrics, transport_layer: &'static str) -> (Json, f64) {
        let n = self.jobs;
        out.sampled(
            "backend.round_trip_ms",
            median(&self.round_trip_ms),
            "ms",
            self.round_trip_ms.len(),
        );
        out.sampled(
            "backend.coordinator_ms",
            median(&self.coordinator_ms),
            "ms",
            n,
        );
        out.sampled(
            "backend.shard_skew_ms",
            median(&self.skew_ms),
            "ms",
            self.skew_ms.len(),
        );
        out.sampled(
            "backend.straggler_wait_ms",
            mean(&self.straggler_wait_ms),
            "ms",
            n,
        );
        out.push("backend.round_trips", self.trips as f64, "count");
        out.push(
            "backend.round_trips_failed",
            self.trips_failed as f64,
            "count",
        );
        out.push(
            "backend.useful_frame_share",
            self.frames_merged as f64 / self.frames_shipped.max(1) as f64,
            "share",
        );
        out.push("wire.request_bytes", median(&self.request_bytes), "bytes");
        out.push("wire.reply_bytes", median(&self.reply_bytes), "bytes");
        out.sampled("wire.encode_ms", median(&self.encode_ms), "ms", n);
        out.sampled("wire.decode_ms", median(&self.decode_ms), "ms", n);
        if transport_layer == "tcp.transport" {
            out.sampled(
                "tcp.transport_ms",
                median(&self.transport_ms),
                "ms",
                self.transport_ms.len(),
            );
        }
        if !self.conv_ms.is_empty() {
            out.sampled(
                "program.setup_ms",
                median(&self.program_setup_ms),
                "ms",
                self.program_setup_ms.len(),
            );
            out.sampled(
                "program.conv_ms",
                median(&self.conv_ms),
                "ms",
                self.conv_ms.len(),
            );
            out.sampled(
                "program.dense_ms",
                median(&self.dense_ms),
                "ms",
                self.dense_ms.len(),
            );
            out.sampled(
                "program.elementwise_ms",
                median(&self.elementwise_ms),
                "ms",
                self.elementwise_ms.len(),
            );
            out.sampled(
                "mlp.host_ns_per_weight",
                median(&self.ns_per_weight),
                "ns",
                self.ns_per_weight.len(),
            );
        }
        let mut parts = vec![
            Part::measured("wire.coordinator", self.coordinator_wire),
            Part::measured("wire.worker", self.worker_wire),
        ];
        if self.conv_ms.is_empty() {
            parts.push(Part::measured("backend.execute_shard", self.worker_compute));
        } else {
            parts.push(Part::measured("program.setup", self.worker_compute));
            parts.push(Part::measured("program.conv", self.program_conv));
            parts.push(Part::measured("program.dense", self.program_dense));
            parts.push(Part::measured(
                "program.elementwise",
                self.program_elementwise,
            ));
        }
        parts.push(Part::derived(transport_layer, self.transport));
        breakdown(self.op_total, &parts)
    }

    /// Failure-to-completion times of the jobs that lost a worker.
    pub fn recovery_ms(&self) -> &[f64] {
        &self.recovery_ms
    }
}
