//! `nfc-trace`: inspect, validate and analyze Chrome-trace JSON files
//! exported by the `nfc-telemetry` runtime (`NFC_TELEMETRY=trace.json`).
//!
//! Subcommands:
//!
//! * `summary <trace.json>` — event totals, per-category counts, span
//!   durations and the wall/sim timeline extents.
//! * `validate <trace.json> [--require cat1,cat2,...]` — schema-check
//!   every event, reject overlapping/non-monotonic simulated spans
//!   within a `(track, name)` lane, spans ending before their start,
//!   non-monotonic controller `epoch` markers, overlapping live swap
//!   windows on one track, overlapping `link_transfer` spans per link
//!   track, and cluster shard maps that fail to tile the 32-bit flow
//!   space; exits non-zero on any violation, for CI smoke tests.
//! * `prom <trace.json>` — re-derive a Prometheus-style text snapshot
//!   from the trace's events.
//! * `controller <trace.json>` — the adaptive control plane's
//!   adaptation timeline: trigger reason, old → new offload ratio and
//!   charged swap latency for every controller decision.
//! * `attribution <trace.json> [--json]` — per-batch latency
//!   decomposition into compute/transfer/queue/drain/merge-wait
//!   buckets, aggregated over the trace.
//! * `critical-path <trace.json>` — the worst batch of every controller
//!   epoch and the dependency chain its completion actually waited on.
//! * `flame <trace.json> [--wall]` — folded flame stacks (simulated
//!   resource time by default, functional wall time with `--wall`) for
//!   `flamegraph.pl` / speedscope.
//! * `calibrate <trace.json> [--launch-per-batch]` — re-fit the
//!   calibration constants from observed kernel/DMA/IO spans and
//!   report drift vs. the paper anchors in `nfc-hetero`'s `calib`.
//! * `health <trace.json> [--json]` — the health plane's SLO burn-rate
//!   verdicts and cost-model drift watchdog state.
//! * `whatif <trace.json> --speedup <element>=<k> [--json]` — causal
//!   what-if projection: re-walk every batch's critical path with the
//!   matched resource lanes sped up `k`x (waits kept, busy scaled) and
//!   report the predicted chain speedup.
//! * `flow <trace.json> [key] [--json]` — with a key (decimal or
//!   0x-hex RSS hash), the stitched cross-server timeline of that
//!   sampled flow, hop by hop (the hop deltas telescope to the e2e
//!   latency exactly); without a key, the flow-plane digest.
//! * `sessions <trace.json> [--json]` — built/teardown/deny totals of
//!   the structured connection records cut by `SessionLog` elements.
//!
//! The `--json` forms of `attribution`, `health` and `flow` are read
//! only from the deterministic simulated timeline, so they are
//! committed as `ci/*_baseline.json`. `ci/record.sh` rewrites them from
//! fresh traces, and CI fails if that leaves a `git diff`.

use nfc_telemetry::{
    attribution, calibrate, critical_paths, folded_stacks, folded_stacks_wall, whatif,
    AttributionReport, Buckets, CalibAnchors, Event, EventKind, SimStamp, WhatIfReport,
};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed trace: metadata records and regular events.
struct Trace {
    /// Non-metadata events (`ph` != `"M"`).
    events: Vec<Value>,
    /// Dropped-event count from the `nfc_dropped_events` metadata.
    dropped: u64,
    /// Simulated-timeline lane names from pid-2 `thread_name` metadata.
    thread_names: BTreeMap<u64, String>,
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("nfc-trace: {msg}");
    ExitCode::FAILURE
}

fn parse(body: &str, path: &str) -> Result<Trace, String> {
    let values: Vec<Value> = match serde_json::from_str(body) {
        Ok(Value::Array(vals)) => vals,
        Ok(_) => return Err(format!("{path}: top level is not a JSON array")),
        // JSONL fallback: one object per line, tolerating the array
        // brackets and trailing commas of the exporter's framing.
        Err(_) => body
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| !l.is_empty() && *l != "[" && *l != "]")
            .map(|l| {
                serde_json::from_str(l).map_err(|e| format!("{path}: bad JSON line: {e}: {l}"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut thread_names = BTreeMap::new();
    for v in values {
        let ph = v.get("ph").and_then(Value::as_str).unwrap_or_default();
        if ph == "M" {
            match v.get("name").and_then(Value::as_str) {
                Some("nfc_dropped_events") => {
                    dropped = v
                        .get("args")
                        .and_then(|a| a.get("dropped"))
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                }
                Some("thread_name") if v.get("pid").and_then(Value::as_u64) == Some(2) => {
                    if let (Some(tid), Some(name)) = (
                        v.get("tid").and_then(Value::as_u64),
                        v.get("args")
                            .and_then(|a| a.get("name"))
                            .and_then(Value::as_str),
                    ) {
                        thread_names.insert(tid, name.to_string());
                    }
                }
                _ => {}
            }
            continue;
        }
        events.push(v);
    }
    Ok(Trace {
        events,
        dropped,
        thread_names,
    })
}

fn load(path: &str) -> Result<Trace, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&body, path)
}

/// Parses a flow key (the RSS hash) as decimal or `0x`-prefixed hex.
fn parse_flow_key(s: &str) -> Option<u64> {
    let key = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u32::from_str_radix(hex, 16).ok()?,
        None => s.parse::<u32>().ok()?,
    };
    Some(u64::from(key))
}

fn str_field<'a>(ev: &'a Value, key: &str) -> Option<&'a str> {
    ev.get(key).and_then(Value::as_str)
}

fn num_field(ev: &Value, key: &str) -> Option<f64> {
    ev.get(key).and_then(Value::as_f64)
}

fn arg_u64(ev: &Value, key: &str) -> u64 {
    ev.get("args")
        .and_then(|a| a.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn arg_f64(ev: &Value, key: &str) -> f64 {
    ev.get("args")
        .and_then(|a| a.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn arg_str<'a>(ev: &'a Value, key: &str) -> &'a str {
    ev.get("args")
        .and_then(|a| a.get(key))
        .and_then(Value::as_str)
        .unwrap_or("")
}

/// Re-types the exported JSON back into `nfc-telemetry` [`Event`]s so
/// the attribution analyses run identically on a re-parsed trace and on
/// the in-memory stream. Events the analyses don't consume are skipped;
/// lane names are re-synthesized as `ResourceName` events from the
/// `thread_name` metadata.
fn typed_events(trace: &Trace) -> Vec<Event> {
    let mut out: Vec<Event> = trace
        .thread_names
        .iter()
        .map(|(tid, name)| Event {
            wall_ns: 0,
            wall_dur_ns: 0,
            sim: None,
            track: *tid as u32,
            batch: 0,
            kind: EventKind::ResourceName {
                resource: *tid as u32,
                name: name.clone(),
            },
        })
        .collect();
    for ev in &trace.events {
        let name = str_field(ev, "name").unwrap_or_default();
        let kind = match name {
            "resource_busy" => EventKind::ResourceBusy {
                resource: arg_u64(ev, "resource") as u32,
                user: arg_u64(ev, "user"),
                queued_ns: arg_f64(ev, "queued_ns"),
            },
            "kernel_launch" => EventKind::KernelLaunch {
                queue: arg_u64(ev, "queue") as u32,
                user: arg_u64(ev, "user"),
                bytes: arg_u64(ev, "bytes"),
                packets: arg_u64(ev, "packets") as u32,
                kernels: arg_u64(ev, "kernels") as u32,
            },
            "kernel_teardown" => EventKind::KernelTeardown {
                resource: arg_u64(ev, "resource") as u32,
                from_user: arg_u64(ev, "from_user"),
                to_user: arg_u64(ev, "to_user"),
                penalty_ns: arg_f64(ev, "penalty_ns"),
            },
            "dma_h2d" | "dma_d2h" => EventKind::Dma {
                to_device: name == "dma_h2d",
                bytes: arg_u64(ev, "bytes"),
            },
            "sm_occupancy" => EventKind::SmOccupancy {
                queue: arg_u64(ev, "queue") as u32,
                occupancy_pct: arg_u64(ev, "occupancy_pct") as u8,
            },
            "batch_ingress" => EventKind::BatchIngress {
                seq: arg_u64(ev, "seq"),
                packets: arg_u64(ev, "packets") as u32,
                wire_bytes: arg_u64(ev, "wire_bytes"),
            },
            "batch_egress" => EventKind::BatchEgress {
                seq: arg_u64(ev, "seq"),
                packets: arg_u64(ev, "packets") as u32,
                bytes: arg_u64(ev, "bytes"),
            },
            "batch_attribution" => EventKind::BatchAttribution {
                seq: arg_u64(ev, "seq"),
                e2e_ns: arg_f64(ev, "e2e_ns"),
                compute_ns: arg_f64(ev, "compute_ns"),
                transfer_ns: arg_f64(ev, "transfer_ns"),
                queue_ns: arg_f64(ev, "queue_ns"),
                drain_ns: arg_f64(ev, "drain_ns"),
                merge_wait_ns: arg_f64(ev, "merge_wait_ns"),
            },
            "epoch" => EventKind::Epoch {
                epoch: arg_u64(ev, "epoch"),
            },
            "slo_burn" => EventKind::SloBurn {
                epoch: arg_u64(ev, "epoch"),
                objective: match arg_str(ev, "objective") {
                    "p99_latency" => "p99_latency",
                    "throughput" => "throughput",
                    "drops" => "drops",
                    _ => "objective",
                },
                fast_burn: arg_f64(ev, "fast_burn"),
                slow_burn: arg_f64(ev, "slow_burn"),
                breached: arg_u64(ev, "breached") != 0,
            },
            "model_drift" => EventKind::ModelDrift {
                epoch: arg_u64(ev, "epoch"),
                predicted_ns: arg_f64(ev, "predicted_ns"),
                observed_ns: arg_f64(ev, "observed_ns"),
                drift: arg_f64(ev, "drift"),
                raised: arg_u64(ev, "raised") != 0,
            },
            "shard_range" => EventKind::ShardRange {
                epoch: arg_u64(ev, "epoch"),
                server: arg_u64(ev, "server") as u32,
                start: arg_u64(ev, "start"),
                end: arg_u64(ev, "end"),
            },
            "link_transfer" => EventKind::LinkTransfer {
                link: arg_u64(ev, "link") as u32,
                packets: arg_u64(ev, "packets") as u32,
                bytes: arg_u64(ev, "bytes"),
            },
            "cluster_rebalance" => EventKind::ClusterRebalance {
                epoch: arg_u64(ev, "epoch"),
                from: arg_u64(ev, "from") as u32,
                to: arg_u64(ev, "to") as u32,
                vnodes: arg_u64(ev, "vnodes") as u32,
                migrated_bytes: arg_u64(ev, "migrated_bytes"),
                swap_ns: arg_f64(ev, "swap_ns"),
            },
            n if n.starts_with("stage:") => EventKind::Stage {
                branch: arg_u64(ev, "branch") as u32,
                stage: arg_u64(ev, "stage") as u32,
                name: arg_str(ev, "nf").to_string(),
                packets: arg_u64(ev, "packets") as u32,
            },
            n if n.starts_with("flow_") => EventKind::FlowPoint {
                flow: arg_u64(ev, "flow") as u32,
                point: match &n[5..] {
                    "ingress" => "ingress",
                    "lanes" => "lanes",
                    "cache_hit" => "cache_hit",
                    "cache_miss" => "cache_miss",
                    "stage" => "stage",
                    "kernel" => "kernel",
                    "shard" => "shard",
                    "migrate" => "migrate",
                    "merge" => "merge",
                    "egress" => "egress",
                    _ => "point",
                },
                server: arg_u64(ev, "server") as u32,
                packets: arg_u64(ev, "packets") as u32,
            },
            n if n.starts_with("session_") => EventKind::Session {
                state: match &n[8..] {
                    "built" => "built",
                    "teardown" => "teardown",
                    "deny" => "deny",
                    _ => "state",
                },
                flow: arg_u64(ev, "flow") as u32,
                packets: arg_u64(ev, "packets"),
                bytes: arg_u64(ev, "bytes"),
            },
            "flight_dump" => EventKind::FlightDump {
                reason: match arg_str(ev, "reason") {
                    "slo_burn" => "slo_burn",
                    "model_drift" => "model_drift",
                    "manual" => "manual",
                    _ => "reason",
                },
                events: arg_u64(ev, "events") as u32,
            },
            _ => continue,
        };
        let ts_us = num_field(ev, "ts").unwrap_or(0.0);
        let dur_us = num_field(ev, "dur").unwrap_or(0.0);
        let (sim, wall_ns, wall_dur_ns) = if ev.get("pid").and_then(Value::as_u64) == Some(2) {
            (
                Some(SimStamp {
                    start_ns: ts_us * 1000.0,
                    end_ns: (ts_us + dur_us) * 1000.0,
                }),
                arg_f64(ev, "wall_ns") as u64,
                0,
            )
        } else {
            (
                None,
                (ts_us * 1000.0).round() as u64,
                (dur_us * 1000.0).round() as u64,
            )
        };
        out.push(Event {
            wall_ns,
            wall_dur_ns,
            sim,
            track: ev.get("tid").and_then(Value::as_u64).unwrap_or(0) as u32,
            batch: arg_u64(ev, "batch"),
            kind,
        });
    }
    out
}

/// Schema-checks one event, returning a violation message if any.
fn check_event(ev: &Value) -> Option<String> {
    let ph = match str_field(ev, "ph") {
        Some(p) => p,
        None => return Some("event without ph".into()),
    };
    for key in ["name", "cat"] {
        if str_field(ev, key).is_none() {
            return Some(format!("event without {key}"));
        }
    }
    for key in ["pid", "tid"] {
        if ev.get(key).and_then(Value::as_u64).is_none() {
            return Some(format!("event without integer {key}"));
        }
    }
    let ts = match num_field(ev, "ts") {
        Some(t) => t,
        None => return Some("event without ts".into()),
    };
    if !ts.is_finite() || ts < 0.0 {
        return Some(format!("non-finite or negative ts {ts}"));
    }
    match ph {
        "X" => match num_field(ev, "dur") {
            // A negative dur is a span ending before its start.
            Some(d) if d.is_finite() && d >= 0.0 => {}
            _ => return Some("complete event without valid dur (span ends before start)".into()),
        },
        "i" => {}
        other => return Some(format!("unexpected phase {other:?}")),
    }
    // Simulated-timeline events (pid 2) cross-reference the wall clock.
    if ev.get("pid").and_then(Value::as_u64) == Some(2)
        && ev
            .get("args")
            .and_then(|a| a.get("wall_ns"))
            .and_then(Value::as_f64)
            .is_none()
    {
        return Some("sim event without args.wall_ns".into());
    }
    // SM-occupancy instants report the share of one device's SM slots;
    // a device cannot host more resident warps than it has SMs, so any
    // value above 100 % of sm_count means residency accounting broke.
    if str_field(ev, "name") == Some("sm_occupancy") {
        match ev
            .get("args")
            .and_then(|a| a.get("occupancy_pct"))
            .and_then(Value::as_f64)
        {
            Some(pct) if pct.is_finite() && (0.0..=100.0).contains(&pct) => {}
            Some(pct) => {
                return Some(format!(
                    "sm_occupancy of {pct}% is outside 0-100% of sm_count"
                ))
            }
            None => return Some("sm_occupancy event without args.occupancy_pct".into()),
        }
    }
    None
}

/// Rejects overlapping (non-monotonic) simulated `resource_busy` spans
/// within one track. The simulator places busy intervals on each
/// resource without intersection by construction, so two busy spans on
/// the same track overlapping means the trace is corrupt. Instants are
/// exempt, as are the semantic GPU/DMA spans (`kernel_launch`, `dma_*`)
/// — those stretch from request to completion and legitimately cover
/// queueing behind an earlier batch.
fn check_sim_lanes(trace: &Trace, path: &str) -> Result<(), String> {
    let mut lanes: BTreeMap<(u64, &str), Vec<(f64, f64)>> = BTreeMap::new();
    for ev in &trace.events {
        if ev.get("pid").and_then(Value::as_u64) != Some(2)
            || str_field(ev, "ph") != Some("X")
            || str_field(ev, "name") != Some("resource_busy")
        {
            continue;
        }
        let (Some(tid), Some(name), Some(ts)) = (
            ev.get("tid").and_then(Value::as_u64),
            str_field(ev, "name"),
            num_field(ev, "ts"),
        ) else {
            continue;
        };
        let dur = num_field(ev, "dur").unwrap_or(0.0);
        if dur <= 0.0 {
            continue; // zero-width spans cannot overlap
        }
        lanes.entry((tid, name)).or_default().push((ts, ts + dur));
    }
    for ((tid, name), mut spans) in lanes {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 - 1e-9 {
                return Err(format!(
                    "{path}: non-monotonic sim timeline on track {tid} ({name}): span at \
                     {:.3} us starts before the previous span ends at {:.3} us",
                    w[1].0, w[0].1
                ));
            }
        }
    }
    Ok(())
}

/// Rejects corrupt control-plane timelines: `epoch` markers must be
/// strictly increasing per track (the controller's epoch counter is
/// monotonic by construction), and the reconfiguration windows implied
/// by applied `controller_decision` swaps (`[ts, ts + swap_ns]`) must
/// not overlap on one track — two live swaps cannot be in flight on the
/// same chain at once (the two-phase swap drains before it applies).
fn check_control_plane(trace: &Trace, path: &str) -> Result<(), String> {
    let mut epochs: BTreeMap<u64, Vec<(f64, u64)>> = BTreeMap::new();
    let mut swaps: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for ev in &trace.events {
        if ev.get("pid").and_then(Value::as_u64) != Some(2) {
            continue;
        }
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let ts = num_field(ev, "ts").unwrap_or(0.0);
        match str_field(ev, "name") {
            Some("epoch") => epochs
                .entry(tid)
                .or_default()
                .push((ts, arg_u64(ev, "epoch"))),
            Some("controller_decision") => {
                let swap_ns = arg_f64(ev, "swap_ns");
                let applied = (arg_f64(ev, "old_ratio") - arg_f64(ev, "new_ratio")).abs() > 1e-9
                    || swap_ns > 0.0;
                if applied && swap_ns > 0.0 {
                    // ts is in us; swap_ns is charged in ns.
                    swaps.entry(tid).or_default().push((ts, ts + swap_ns / 1e3));
                }
            }
            _ => {}
        }
    }
    for (tid, mut markers) in epochs {
        markers.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in markers.windows(2) {
            if w[1].1 <= w[0].1 {
                return Err(format!(
                    "{path}: non-monotonic epoch markers on track {tid}: epoch {} at \
                     {:.3} us follows epoch {} at {:.3} us",
                    w[1].1, w[1].0, w[0].1, w[0].0
                ));
            }
        }
    }
    for (tid, mut windows) in swaps {
        windows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in windows.windows(2) {
            if w[1].0 < w[0].1 - 1e-9 {
                return Err(format!(
                    "{path}: overlapping swap windows on track {tid}: swap at {:.3} us \
                     starts before the previous swap drains at {:.3} us",
                    w[1].0, w[0].1
                ));
            }
        }
    }
    Ok(())
}

/// Rejects corrupt cluster timelines: `link_transfer` spans must not
/// overlap on one link track (each inter-server link serializes its
/// transfers by construction), and every rebalance epoch's
/// `shard_range` instants must tile the 32-bit flow-hash space exactly
/// — no gaps, no overlaps, full coverage. A shard map leaving hashes
/// unowned (or doubly owned) would lose or duplicate flows.
fn check_cluster_plane(trace: &Trace, path: &str) -> Result<(), String> {
    const FLOW_SPACE: u64 = 1 << 32;
    let mut lanes: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut maps: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for ev in &trace.events {
        if ev.get("pid").and_then(Value::as_u64) != Some(2) {
            continue;
        }
        match str_field(ev, "name") {
            Some("link_transfer") if str_field(ev, "ph") == Some("X") => {
                let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
                let ts = num_field(ev, "ts").unwrap_or(0.0);
                let dur = num_field(ev, "dur").unwrap_or(0.0);
                if dur > 0.0 {
                    lanes.entry(tid).or_default().push((ts, ts + dur));
                }
            }
            Some("shard_range") => maps
                .entry(arg_u64(ev, "epoch"))
                .or_default()
                .push((arg_u64(ev, "start"), arg_u64(ev, "end"))),
            _ => {}
        }
    }
    for (tid, mut spans) in lanes {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 - 1e-9 {
                return Err(format!(
                    "{path}: overlapping link-busy spans on link track {tid}: transfer at \
                     {:.3} us starts before the previous transfer ends at {:.3} us",
                    w[1].0, w[0].1
                ));
            }
        }
    }
    for (epoch, mut ranges) in maps {
        ranges.sort_unstable();
        let first = ranges[0].0;
        if first != 0 {
            return Err(format!(
                "{path}: shard map for epoch {epoch} does not cover the flow space: \
                 first range starts at {first}, not 0"
            ));
        }
        for w in ranges.windows(2) {
            if w[1].0 != w[0].1 {
                let what = if w[1].0 < w[0].1 { "overlap" } else { "gap" };
                return Err(format!(
                    "{path}: shard map for epoch {epoch} has a {what}: range ending at {} \
                     is followed by a range starting at {}",
                    w[0].1, w[1].0
                ));
            }
        }
        let last = ranges.last().unwrap().1;
        if last != FLOW_SPACE {
            return Err(format!(
                "{path}: shard map for epoch {epoch} does not cover the flow space: \
                 last range ends at {last}, not 2^32"
            ));
        }
    }
    Ok(())
}

/// Rejects corrupt flow-forensics timelines. Three invariants hold by
/// construction, so any violation means the trace (or the stitcher's
/// input) is corrupt:
///
/// 1. Flow points for one `(flow, track)` lane are emitted in
///    simulated-time order — the runtime stamps them as the replay
///    clock advances, never backwards.
/// 2. A session `teardown`/`deny` record always follows a `built` for
///    the same flow: connections cannot die before they exist.
/// 3. A `migrate` point is a handover marker stamped on the
///    destination's ingress track the instant the flow's next batch
///    lands there, so it must be immediately followed — on the same
///    `(flow, track)` lane, at the same instant — by a `shard` point
///    carrying the same server id. Anything else means the handover
///    leaked. (Points on the *old* server may legitimately postdate
///    the migrate: batches dispatched before the move drain there
///    while the new owner is already receiving.)
fn check_flow_plane(trace: &Trace, path: &str) -> Result<(), String> {
    let mut lanes: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut handover: BTreeMap<(u64, u64), (f64, u64)> = BTreeMap::new();
    let mut sessions: BTreeMap<u64, Vec<(f64, String)>> = BTreeMap::new();
    for ev in &trace.events {
        if ev.get("pid").and_then(Value::as_u64) != Some(2) {
            continue;
        }
        let name = str_field(ev, "name").unwrap_or_default();
        let ts = num_field(ev, "ts").unwrap_or(0.0);
        if let Some(point) = name.strip_prefix("flow_") {
            let flow = arg_u64(ev, "flow");
            let server = arg_u64(ev, "server");
            let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
            let last = lanes.entry((flow, tid)).or_insert(f64::NEG_INFINITY);
            if ts < *last - 1e-9 {
                return Err(format!(
                    "{path}: flow {flow:#010x} timeline not time-ordered on track {tid}: \
                     {name} at {ts:.3} us precedes the prior point at {:.3} us",
                    *last
                ));
            }
            *last = ts;
            if let Some((mig_ts, mig_server)) = handover.remove(&(flow, tid)) {
                if point != "shard" || server != mig_server || (ts - mig_ts).abs() > 1e-9 {
                    return Err(format!(
                        "{path}: flow {flow:#010x} migrate handover on track {tid} leaked: \
                         expected shard on server {mig_server} at {mig_ts:.3} us, \
                         got {name} on server {server} at {ts:.3} us"
                    ));
                }
            }
            if point == "migrate" {
                handover.insert((flow, tid), (ts, server));
            }
        } else if let Some(state) = name.strip_prefix("session_") {
            sessions
                .entry(arg_u64(ev, "flow"))
                .or_default()
                .push((ts, state.to_string()));
        }
    }
    if let Some(((flow, tid), (ts, server))) = handover.into_iter().next() {
        return Err(format!(
            "{path}: flow {flow:#010x} migrate to server {server} at {ts:.3} us on track {tid} \
             has no handover shard"
        ));
    }
    for (flow, mut recs) in sessions {
        recs.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Some((ts, state)) = recs.iter().find(|(_, s)| s != "built") {
            let built_before = recs.iter().any(|(t, s)| s == "built" && t <= ts);
            if !built_before {
                return Err(format!(
                    "{path}: session {state} for flow {flow:#010x} at {ts:.3} us \
                     has no preceding built record"
                ));
            }
        }
    }
    Ok(())
}

/// Aggregated flow/session-plane state re-read from a trace. The
/// integer fields are all derived from the deterministic simulated
/// timeline, so a committed JSON snapshot (`flow --json`) is a stable
/// CI baseline.
#[derive(Debug, Default)]
struct FlowReport {
    /// touchpoint -> stamped instants.
    points: BTreeMap<String, u64>,
    /// Distinct sampled flow hashes seen on the flow plane.
    flows: std::collections::BTreeSet<u64>,
    /// session state -> (records, packets, bytes).
    sessions: BTreeMap<String, (u64, u64, u64)>,
    /// Distinct flow hashes with at least one session record.
    session_flows: std::collections::BTreeSet<u64>,
    /// Flight-recorder dumps and the events they carried.
    dumps: u64,
    dump_events: u64,
}

fn flow_report(trace: &Trace) -> FlowReport {
    let mut rep = FlowReport::default();
    for ev in &trace.events {
        let name = str_field(ev, "name").unwrap_or_default();
        if let Some(point) = name.strip_prefix("flow_") {
            *rep.points.entry(point.to_string()).or_insert(0) += 1;
            rep.flows.insert(arg_u64(ev, "flow"));
        } else if let Some(state) = name.strip_prefix("session_") {
            let s = rep.sessions.entry(state.to_string()).or_insert((0, 0, 0));
            s.0 += 1;
            s.1 += arg_u64(ev, "packets");
            s.2 += arg_u64(ev, "bytes");
            rep.session_flows.insert(arg_u64(ev, "flow"));
        } else if name == "flight_dump" {
            rep.dumps += 1;
            rep.dump_events += arg_u64(ev, "events");
        }
    }
    rep
}

fn flow_report_json(rep: &FlowReport) -> Value {
    let mut points = json!({});
    for (p, n) in &rep.points {
        points[p.as_str()] = json!(n);
    }
    let mut sessions = json!({});
    for (s, (records, packets, bytes)) in &rep.sessions {
        sessions[s.as_str()] = json!({
            "records": records, "packets": packets, "bytes": bytes,
        });
    }
    json!({
        "points": points,
        "flows": rep.flows.len(),
        "sessions": sessions,
        "session_flows": rep.session_flows.len(),
        "dumps": rep.dumps,
        "dump_events": rep.dump_events,
    })
}

/// One stitched row of a sampled flow's timeline: simulated instant
/// (us), touchpoint, server, track and packet count.
struct FlowRow {
    ts_us: f64,
    point: String,
    server: u64,
    track: u64,
    packets: u64,
}

/// Collects and time-orders every flow point stamped for `key`,
/// across tracks, servers and migrations — the stitched causal
/// timeline `flow <key>` renders.
fn flow_timeline(trace: &Trace, key: u64) -> Vec<FlowRow> {
    let mut rows: Vec<FlowRow> = trace
        .events
        .iter()
        .filter(|ev| arg_u64(ev, "flow") == key)
        .filter_map(|ev| {
            let point = str_field(ev, "name")?.strip_prefix("flow_")?;
            Some(FlowRow {
                ts_us: num_field(ev, "ts").unwrap_or(0.0),
                point: point.to_string(),
                server: arg_u64(ev, "server"),
                track: ev.get("tid").and_then(Value::as_u64).unwrap_or(0),
                packets: arg_u64(ev, "packets"),
            })
        })
        .collect();
    rows.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    rows
}

fn by_category(trace: &Trace) -> BTreeMap<String, u64> {
    let mut cats = BTreeMap::new();
    for ev in &trace.events {
        let cat = str_field(ev, "cat").unwrap_or("?").to_string();
        *cats.entry(cat).or_insert(0) += 1;
    }
    cats
}

fn cmd_summary(path: &str) -> Result<(), String> {
    let trace = load(path)?;
    let cats = by_category(&trace);
    println!("trace     {path}");
    println!("events    {}", trace.events.len());
    println!("dropped   {}", trace.dropped);
    let mut wall = (f64::INFINITY, f64::NEG_INFINITY);
    let mut sim = (f64::INFINITY, f64::NEG_INFINITY);
    for ev in &trace.events {
        let ts = num_field(ev, "ts").unwrap_or(0.0);
        let end = ts + num_field(ev, "dur").unwrap_or(0.0);
        let extent = if ev.get("pid").and_then(Value::as_u64) == Some(2) {
            &mut sim
        } else {
            &mut wall
        };
        extent.0 = extent.0.min(ts);
        extent.1 = extent.1.max(end);
    }
    if wall.0.is_finite() {
        println!("wall      {:.1} us .. {:.1} us", wall.0, wall.1);
    }
    if sim.0.is_finite() {
        println!("sim       {:.1} us .. {:.1} us", sim.0, sim.1);
    }
    println!("-- events by category --");
    for (cat, n) in &cats {
        println!("{cat:<12} {n}");
    }
    // Per-plane digest: one line per observability plane present in
    // the trace, so `summary` answers "what did this run record"
    // without a per-plane subcommand round-trip.
    let health = health_report(&trace);
    let flow = flow_report(&trace);
    let rebalances = trace
        .events
        .iter()
        .filter(|ev| str_field(ev, "name") == Some("cluster_rebalance"))
        .count();
    let transfers = trace
        .events
        .iter()
        .filter(|ev| str_field(ev, "name") == Some("link_transfer"))
        .count();
    if rebalances + transfers > 0
        || !health.objectives.is_empty()
        || health.drift_verdicts > 0
        || !flow.points.is_empty()
        || !flow.sessions.is_empty()
        || flow.dumps > 0
    {
        println!("-- planes --");
    }
    if rebalances + transfers > 0 {
        println!("cluster   {transfers} link transfer(s), {rebalances} rebalance(s)");
    }
    if !health.objectives.is_empty() || health.drift_verdicts > 0 {
        let (verdicts, breaches) = health
            .objectives
            .values()
            .fold((0, 0), |acc, v| (acc.0 + v.0, acc.1 + v.1));
        println!(
            "health    {verdicts} SLO verdict(s) ({breaches} breached), \
             drift raised {} of {}",
            health.drift_raised, health.drift_verdicts
        );
    }
    if !flow.points.is_empty() || flow.dumps > 0 {
        let stamps: u64 = flow.points.values().sum();
        println!(
            "flow      {} sampled flow(s), {stamps} point(s), {} flight dump(s)",
            flow.flows.len(),
            flow.dumps
        );
    }
    if !flow.sessions.is_empty() {
        let per_state = |s: &str| flow.sessions.get(s).map_or(0, |v| v.0);
        println!(
            "session   {} flow(s): built {}, teardown {}, deny {}",
            flow.session_flows.len(),
            per_state("built"),
            per_state("teardown"),
            per_state("deny")
        );
    }
    Ok(())
}

/// `flow <trace> <key>` — the stitched cross-server timeline of one
/// sampled flow; `flow <trace>` — the flow-plane digest.
fn cmd_flow(path: &str, key: Option<u64>, as_json: bool) -> Result<(), String> {
    let trace = load(path)?;
    let Some(key) = key else {
        let rep = flow_report(&trace);
        if rep.points.is_empty() && rep.sessions.is_empty() {
            return Err(format!(
                "{path}: no flow-plane events (NFC_FLOW_TRACE unarmed or telemetry off)"
            ));
        }
        if as_json {
            println!(
                "{}",
                serde_json::to_string_pretty(&flow_report_json(&rep)).expect("serializable")
            );
        } else {
            println!("trace     {path}");
            println!(
                "flows     {} sampled, {} flight dump(s)",
                rep.flows.len(),
                rep.dumps
            );
            for (point, n) in &rep.points {
                println!("  {point:<12} {n}");
            }
        }
        return Ok(());
    };
    let rows = flow_timeline(&trace, key);
    if rows.is_empty() {
        return Err(format!(
            "{path}: no flow points for flow {key:#010x} (not sampled, or key mistyped)"
        ));
    }
    if as_json {
        let out: Vec<Value> = rows
            .iter()
            .map(|r| {
                json!({
                    "ts_us": r.ts_us,
                    "point": r.point,
                    "server": r.server,
                    "track": r.track,
                    "packets": r.packets,
                })
            })
            .collect();
        let e2e_us = rows.last().unwrap().ts_us - rows[0].ts_us;
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "flow": key,
                "e2e_us": e2e_us,
                "points": out,
            }))
            .expect("serializable")
        );
        return Ok(());
    }
    println!("trace     {path}");
    println!("flow      {key:#010x}   {} point(s)", rows.len());
    println!(
        "{:>12}  {:<12} {:>6}  {:<14} {:>7}  {:>10}",
        "ts(us)", "point", "server", "lane", "pkts", "hop(us)"
    );
    // Each hop is the delta to the previous touchpoint, so the hops
    // telescope: their sum IS the end-to-end latency, exactly.
    let mut prev: Option<f64> = None;
    let mut hop_sum = 0.0;
    for r in &rows {
        let lane = trace
            .thread_names
            .get(&r.track)
            .map(String::as_str)
            .unwrap_or("?");
        let hop = prev.map(|p| r.ts_us - p).unwrap_or(0.0);
        hop_sum += hop;
        println!(
            "{:>12.3}  {:<12} {:>6}  {:<14} {:>7}  {:>10.3}",
            r.ts_us, r.point, r.server, lane, r.packets, hop
        );
        prev = Some(r.ts_us);
    }
    let e2e = rows.last().unwrap().ts_us - rows[0].ts_us;
    let servers: std::collections::BTreeSet<u64> = rows.iter().map(|r| r.server).collect();
    println!(
        "e2e       {e2e:.3} us over {} hop(s) across {} server(s) (hop sum {hop_sum:.3} us)",
        rows.len() - 1,
        servers.len()
    );
    Ok(())
}

/// `sessions <trace>` — summarizes the structured connection records
/// cut by `SessionLog` elements.
fn cmd_sessions(path: &str, as_json: bool) -> Result<(), String> {
    let trace = load(path)?;
    let rep = flow_report(&trace);
    if rep.sessions.is_empty() {
        return Err(format!(
            "{path}: no session records (no SessionLog in the chain or telemetry off)"
        ));
    }
    if as_json {
        let mut sessions = json!({});
        for (s, (records, packets, bytes)) in &rep.sessions {
            sessions[s.as_str()] = json!({
                "records": records, "packets": packets, "bytes": bytes,
            });
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "flows": rep.session_flows.len(),
                "sessions": sessions,
            }))
            .expect("serializable")
        );
        return Ok(());
    }
    println!("trace     {path}");
    println!("flows     {}", rep.session_flows.len());
    println!(
        "{:<10} {:>8} {:>12} {:>14}",
        "state", "records", "packets", "bytes"
    );
    for (state, (records, packets, bytes)) in &rep.sessions {
        println!("{state:<10} {records:>8} {packets:>12} {bytes:>14}");
    }
    Ok(())
}

/// Validates every trace; required categories are checked against the
/// union over all files (one experiment may export one trace per
/// deployment, and e.g. a CPU-only deployment legitimately has no GPU
/// events).
fn cmd_validate(paths: &[String], require: &[String]) -> Result<(), String> {
    let mut union: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_events = 0usize;
    let mut total_dropped = 0u64;
    for path in paths {
        let trace = load(path)?;
        if trace.events.is_empty() {
            return Err(format!("{path}: trace has no events"));
        }
        for (i, ev) in trace.events.iter().enumerate() {
            if let Some(violation) = check_event(ev) {
                return Err(format!("{path}: event {i}: {violation}"));
            }
        }
        check_sim_lanes(&trace, path)?;
        check_control_plane(&trace, path)?;
        check_cluster_plane(&trace, path)?;
        check_flow_plane(&trace, path)?;
        for (cat, n) in by_category(&trace) {
            *union.entry(cat).or_insert(0) += n;
        }
        total_events += trace.events.len();
        total_dropped += trace.dropped;
    }
    for cat in require {
        if !union.contains_key(cat) {
            return Err(format!(
                "required category {cat:?} absent (found: {:?})",
                union.keys().collect::<Vec<_>>()
            ));
        }
    }
    println!(
        "OK — {} file(s), {} events across {} categories, {} dropped",
        paths.len(),
        total_events,
        union.len(),
        total_dropped
    );
    Ok(())
}

fn cmd_prom(path: &str) -> Result<(), String> {
    let trace = load(path)?;
    println!("# TYPE nfc_trace_events_total counter");
    println!("nfc_trace_events_total {}", trace.events.len());
    println!("# TYPE nfc_trace_events_dropped_total counter");
    println!("nfc_trace_events_dropped_total {}", trace.dropped);
    for (cat, n) in by_category(&trace) {
        println!("nfc_trace_category_events_total{{cat=\"{cat}\"}} {n}");
    }
    Ok(())
}

/// Prints the adaptation timeline recorded by the control plane (one
/// `controller_decision` instant per evaluated stage; `epoch` markers
/// share the `control` category and are excluded).
fn cmd_controller(path: &str) -> Result<(), String> {
    let trace = load(path)?;
    let mut rows: Vec<&Value> = trace
        .events
        .iter()
        .filter(|ev| str_field(ev, "name") == Some("controller_decision"))
        .collect();
    rows.sort_by(|a, b| {
        num_field(a, "ts")
            .unwrap_or(0.0)
            .total_cmp(&num_field(b, "ts").unwrap_or(0.0))
    });
    println!("trace       {path}");
    println!("decisions   {}", rows.len());
    if rows.is_empty() {
        println!("(no control events — controller disabled, idle, or telemetry off)");
        return Ok(());
    }
    let mut swaps = 0u64;
    let mut swap_total_ns = 0.0;
    println!(
        "{:>10}  {:>5}  {:<12}  {:>5} -> {:<5}  {:>9}  reason",
        "ts(us)", "epoch", "stage", "old", "new", "swap(us)"
    );
    for ev in &rows {
        let ts = num_field(ev, "ts").unwrap_or(0.0);
        let epoch = arg_u64(ev, "epoch");
        let stage = arg_str(ev, "stage");
        let reason = arg_str(ev, "reason");
        let old_ratio = arg_f64(ev, "old_ratio");
        let new_ratio = arg_f64(ev, "new_ratio");
        let swap_ns = arg_f64(ev, "swap_ns");
        if (old_ratio - new_ratio).abs() > 1e-9 || swap_ns > 0.0 {
            swaps += 1;
            swap_total_ns += swap_ns;
        }
        let stage = if stage.is_empty() { "?" } else { stage };
        let reason = if reason.is_empty() { "?" } else { reason };
        let old = format!("{:.0}%", old_ratio * 100.0);
        let new = format!("{:.0}%", new_ratio * 100.0);
        println!(
            "{ts:>10.1}  {epoch:>5}  {stage:<12}  {old:>5} -> {new:<5}  {:>9.2}  {reason}",
            swap_ns / 1e3,
        );
    }
    println!("-- {} plan change(s) applied --", swaps);
    if swaps > 0 {
        println!(
            "mean swap latency {:.2} us",
            swap_total_ns / swaps as f64 / 1e3
        );
    }
    Ok(())
}

fn buckets_json(b: &Buckets) -> Value {
    json!({
        "compute_ns": b.compute_ns,
        "transfer_ns": b.transfer_ns,
        "queue_ns": b.queue_ns,
        "drain_ns": b.drain_ns,
        "merge_wait_ns": b.merge_wait_ns,
    })
}

fn attribution_json(rep: &AttributionReport) -> Value {
    json!({
        "batches": rep.batches,
        "packets": rep.packets,
        "mean_e2e_ns": rep.mean_e2e_ns,
        "p99_e2e_ns": rep.p99_e2e_ns,
        "max_e2e_ns": rep.max_e2e_ns,
        "mean": buckets_json(&rep.mean),
        "total": buckets_json(&rep.total),
    })
}

fn cmd_attribution(path: &str, as_json: bool) -> Result<(), String> {
    let trace = load(path)?;
    let events = typed_events(&trace);
    let rep = attribution(&events);
    if rep.batches == 0 {
        return Err(format!(
            "{path}: no batch_attribution events (telemetry off or pre-attribution trace)"
        ));
    }
    if as_json {
        println!(
            "{}",
            serde_json::to_string_pretty(&attribution_json(&rep)).expect("serializable")
        );
        return Ok(());
    }
    println!("trace     {path}");
    println!("batches   {}   packets {}", rep.batches, rep.packets);
    println!(
        "e2e       mean {:.2} us   p99 {:.2} us   max {:.2} us",
        rep.mean_e2e_ns / 1e3,
        rep.p99_e2e_ns / 1e3,
        rep.max_e2e_ns / 1e3
    );
    println!("{:<15} {:>12} {:>8}", "bucket", "mean(us)", "share");
    let total: f64 = rep.mean.total();
    for (name, v) in rep.mean.entries() {
        let share = if total > 0.0 { v / total * 100.0 } else { 0.0 };
        println!("{name:<15} {:>12.3} {share:>7.1}%", v / 1e3);
    }
    Ok(())
}

/// Aggregated health-plane state re-read from a trace's `slo_burn` and
/// `model_drift` instants. Every field is derived from the
/// deterministic simulated timeline, so a committed snapshot
/// (`health --json`) stays stable across machines.
#[derive(Debug, Default)]
struct HealthReport {
    /// objective -> (verdicts, breaches, max fast burn, max slow burn).
    objectives: BTreeMap<String, (u64, u64, f64, f64)>,
    drift_verdicts: u64,
    drift_raised: u64,
    max_drift: f64,
    first_raised_epoch: u64,
}

fn health_report(trace: &Trace) -> HealthReport {
    let mut rep = HealthReport::default();
    for ev in &trace.events {
        match str_field(ev, "name") {
            Some("slo_burn") => {
                let o = rep
                    .objectives
                    .entry(arg_str(ev, "objective").to_string())
                    .or_insert((0, 0, 0.0, 0.0));
                o.0 += 1;
                o.1 += arg_u64(ev, "breached");
                o.2 = o.2.max(arg_f64(ev, "fast_burn"));
                o.3 = o.3.max(arg_f64(ev, "slow_burn"));
            }
            Some("model_drift") => {
                rep.drift_verdicts += 1;
                rep.max_drift = rep.max_drift.max(arg_f64(ev, "drift"));
                if arg_u64(ev, "raised") != 0 {
                    rep.drift_raised += 1;
                    if rep.first_raised_epoch == 0 {
                        rep.first_raised_epoch = arg_u64(ev, "epoch");
                    }
                }
            }
            _ => {}
        }
    }
    rep
}

fn health_json(rep: &HealthReport) -> Value {
    let mut slo = json!({});
    for (name, (verdicts, breaches, fast, slow)) in &rep.objectives {
        slo[name.as_str()] = json!({
            "verdicts": verdicts,
            "breaches": breaches,
            "max_fast_burn": fast,
            "max_slow_burn": slow,
        });
    }
    json!({
        "slo": slo,
        "drift": {
            "verdicts": rep.drift_verdicts,
            "raised": rep.drift_raised,
            "max_drift": rep.max_drift,
            "first_raised_epoch": rep.first_raised_epoch,
        },
    })
}

fn cmd_health(path: &str, as_json: bool) -> Result<(), String> {
    let trace = load(path)?;
    let rep = health_report(&trace);
    if rep.objectives.is_empty() && rep.drift_verdicts == 0 {
        return Err(format!(
            "{path}: no health events (SLO unarmed or telemetry off)"
        ));
    }
    if as_json {
        println!(
            "{}",
            serde_json::to_string_pretty(&health_json(&rep)).expect("serializable")
        );
        return Ok(());
    }
    println!("trace     {path}");
    for (obj, (verdicts, breaches, fast, slow)) in &rep.objectives {
        println!(
            "slo {obj:<12} verdicts {verdicts:>4}   breaches {breaches:>4}   \
             max burn fast {fast:.2} / slow {slow:.2}"
        );
    }
    if rep.drift_verdicts > 0 {
        println!(
            "drift              verdicts {:>4}   raised {:>6}   max drift {:.3}{}",
            rep.drift_verdicts,
            rep.drift_raised,
            rep.max_drift,
            if rep.drift_raised > 0 {
                format!("   first raised @ epoch {}", rep.first_raised_epoch)
            } else {
                String::new()
            }
        );
    }
    Ok(())
}

fn whatif_json(rep: &WhatIfReport) -> Value {
    json!({
        "element": rep.element,
        "factor": rep.factor,
        "matched_resources": rep.matched_resources,
        "batches": rep.batches,
        "baseline_mean_e2e_ns": rep.baseline_mean_e2e_ns,
        "predicted_mean_e2e_ns": rep.predicted_mean_e2e_ns,
        "speedup": rep.speedup,
        "epochs": rep.epochs.iter().map(|e| json!({
            "epoch": e.epoch,
            "seq": e.seq,
            "baseline_ns": e.baseline_ns,
            "predicted_ns": e.predicted_ns,
        })).collect::<Vec<_>>(),
    })
}

fn cmd_whatif(path: &str, speedup: &str, as_json: bool) -> Result<(), String> {
    let (element, factor) = speedup
        .split_once('=')
        .and_then(|(e, k)| k.parse::<f64>().ok().map(|k| (e.trim(), k)))
        .ok_or_else(|| format!("--speedup wants <element>=<factor>, got {speedup:?}"))?;
    if !(factor.is_finite() && factor > 0.0) {
        return Err(format!("--speedup factor must be positive, got {factor}"));
    }
    let trace = load(path)?;
    let events = typed_events(&trace);
    let rep = whatif(&events, element, factor);
    if rep.batches == 0 {
        return Err(format!("{path}: no attributed batches to project"));
    }
    if rep.matched_resources.is_empty() {
        return Err(format!(
            "{path}: no resource lane matches {element:?} (try `summary` for lane names)"
        ));
    }
    if as_json {
        println!(
            "{}",
            serde_json::to_string_pretty(&whatif_json(&rep)).expect("serializable")
        );
        return Ok(());
    }
    println!("trace     {path}");
    println!(
        "what-if   {}x faster {:?}  (matched lanes: {})",
        factor,
        element,
        rep.matched_resources.join(", ")
    );
    println!(
        "baseline  mean e2e {:.2} us over {} batches",
        rep.baseline_mean_e2e_ns / 1e3,
        rep.batches
    );
    println!(
        "predicted mean e2e {:.2} us  ->  chain speedup {:.3}x",
        rep.predicted_mean_e2e_ns / 1e3,
        rep.speedup
    );
    if !rep.epochs.is_empty() {
        println!(
            "{:>6} {:>8} {:>14} {:>14} {:>9}",
            "epoch", "batch", "baseline(us)", "predicted(us)", "speedup"
        );
        for e in &rep.epochs {
            let s = if e.predicted_ns > 0.0 {
                e.baseline_ns / e.predicted_ns
            } else {
                1.0
            };
            println!(
                "{:>6} {:>8} {:>14.2} {:>14.2} {:>8.3}x",
                e.epoch,
                e.seq,
                e.baseline_ns / 1e3,
                e.predicted_ns / 1e3,
                s
            );
        }
    }
    Ok(())
}

fn cmd_critical(path: &str, as_json: bool) -> Result<(), String> {
    let trace = load(path)?;
    let events = typed_events(&trace);
    let paths = critical_paths(&events);
    if paths.is_empty() {
        return Err(format!("{path}: no attributed batches to walk"));
    }
    if as_json {
        let rows: Vec<Value> = paths
            .iter()
            .map(|p| {
                json!({
                    "epoch": p.epoch,
                    "seq": p.seq,
                    "e2e_ns": p.e2e_ns,
                    "busy_ns": p.busy_ns,
                    "wait_ns": p.wait_ns,
                    "segments": p.segments.iter().map(|s| json!({
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "busy_ns": s.busy_ns,
                        "wait_ns": s.wait_ns,
                    })).collect::<Vec<_>>(),
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&Value::Array(rows)).expect("serializable")
        );
        return Ok(());
    }
    println!("trace     {path}");
    for p in &paths {
        println!(
            "-- epoch {} · worst batch {} · e2e {:.2} us (busy {:.2} us, wait {:.2} us) --",
            p.epoch,
            p.seq,
            p.e2e_ns / 1e3,
            p.busy_ns / 1e3,
            p.wait_ns / 1e3
        );
        println!(
            "{:<16} {:>12} {:>10} {:>10}",
            "resource", "start(us)", "busy(us)", "wait(us)"
        );
        for s in &p.segments {
            println!(
                "{:<16} {:>12.2} {:>10.3} {:>10.3}",
                s.name,
                s.start_ns / 1e3,
                s.busy_ns / 1e3,
                s.wait_ns / 1e3
            );
        }
    }
    Ok(())
}

fn cmd_flame(path: &str, wall: bool) -> Result<(), String> {
    let trace = load(path)?;
    let events = typed_events(&trace);
    let folded = if wall {
        folded_stacks_wall(&events)
    } else {
        folded_stacks(&events)
    };
    if folded.is_empty() {
        return Err(format!("{path}: no spans to fold"));
    }
    for (stack, v) in folded {
        println!("{stack} {v}");
    }
    Ok(())
}

fn cmd_calibrate(path: &str, launch_per_batch: bool) -> Result<(), String> {
    let trace = load(path)?;
    let events = typed_events(&trace);
    let platform = nfc_hetero::PlatformConfig::hpca18();
    let anchors = CalibAnchors {
        gpu_ctx_switch_ns: nfc_hetero::calib::GPU_CONTEXT_SWITCH_NS,
        gpu_dispatch_ns: if launch_per_batch {
            nfc_hetero::calib::GPU_LAUNCH_NS
        } else {
            nfc_hetero::calib::GPU_PERSISTENT_DISPATCH_NS
        },
        pcie_dma_latency_ns: platform.pcie.dma_latency_ns,
        pcie_bw_gbs: platform.pcie.bw_gbs,
        io_cycles_per_packet: nfc_hetero::calib::IO_CYCLES_PER_PACKET,
        ns_per_cycle: platform.cpu.ns_per_cycle(),
        gpu_residency_pressure: nfc_hetero::calib::GPU_RESIDENCY_PRESSURE,
    };
    let fits = calibrate(&events, &anchors);
    println!("trace     {path}");
    println!(
        "{:<24} {:>12} {:>12} {:>8} {:>8}",
        "constant", "anchored", "observed", "drift", "samples"
    );
    for f in &fits {
        let (obs, drift) = if f.observed.is_finite() {
            (
                format!("{:.2}", f.observed),
                format!("{:+.2}%", f.drift_pct()),
            )
        } else {
            ("n/a".to_string(), "n/a".to_string())
        };
        println!(
            "{:<24} {:>12.2} {:>12} {:>8} {:>8}",
            f.name, f.anchored, obs, drift, f.samples
        );
    }
    Ok(())
}

const USAGE: &str = "usage: nfc-trace <summary|validate|prom|controller|attribution|critical-path|\
flame|calibrate|health|whatif|flow|sessions> <trace.json>... [--require cat1,cat2] [--json] \
[--wall] [--launch-per-batch] [--speedup element=k] \
[flow key: decimal or 0x-hex after the trace path]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args.first() {
        Some(c) => c.as_str(),
        None => return fail(USAGE),
    };
    let mut paths: Vec<String> = Vec::new();
    let mut require: Vec<String> = Vec::new();
    let mut as_json = false;
    let mut wall = false;
    let mut launch_per_batch = false;
    let mut speedup: Option<String> = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--require" => match rest.next() {
                Some(list) => {
                    require.extend(list.split(',').map(|s| s.trim().to_string()));
                }
                None => return fail("--require needs a comma-separated category list"),
            },
            "--json" => as_json = true,
            "--wall" => wall = true,
            "--launch-per-batch" => launch_per_batch = true,
            "--speedup" => match rest.next() {
                Some(s) => speedup = Some(s.clone()),
                None => return fail("--speedup needs <element>=<factor>"),
            },
            flag if flag.starts_with("--") => {
                return fail(&format!("unknown flag {flag:?}\n{USAGE}"))
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        return fail(USAGE);
    }
    let result = match cmd {
        "summary" => paths.iter().try_for_each(|p| cmd_summary(p)),
        "validate" => cmd_validate(&paths, &require),
        "prom" => paths.iter().try_for_each(|p| cmd_prom(p)),
        "controller" => paths.iter().try_for_each(|p| cmd_controller(p)),
        "attribution" => paths.iter().try_for_each(|p| cmd_attribution(p, as_json)),
        "critical-path" => paths.iter().try_for_each(|p| cmd_critical(p, as_json)),
        "flame" => paths.iter().try_for_each(|p| cmd_flame(p, wall)),
        "health" => paths.iter().try_for_each(|p| cmd_health(p, as_json)),
        "whatif" => match &speedup {
            Some(s) => paths.iter().try_for_each(|p| cmd_whatif(p, s, as_json)),
            None => Err("whatif needs --speedup <element>=<factor>".into()),
        },
        "flow" => {
            if paths.len() > 2 {
                return fail("flow wants <trace.json> [key]");
            }
            let key = match paths.get(1) {
                Some(k) => match parse_flow_key(k) {
                    Some(key) => Some(key),
                    None => return fail(&format!("bad flow key {k:?} (decimal or 0x-hex u32)")),
                },
                None => None,
            };
            cmd_flow(&paths[0], key, as_json)
        }
        "sessions" => paths.iter().try_for_each(|p| cmd_sessions(p, as_json)),
        "calibrate" => paths
            .iter()
            .try_for_each(|p| cmd_calibrate(p, launch_per_batch)),
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_line(tid: u64, ts: f64, dur: f64, batch: u64) -> String {
        format!(
            "{{\"name\":\"resource_busy\",\"cat\":\"resource\",\"ph\":\"X\",\"pid\":2,\
             \"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"wall_ns\":0,\
             \"batch\":{batch},\"resource\":{tid},\"user\":1,\"queued_ns\":0}}}}"
        )
    }

    fn wrap(lines: &[String]) -> String {
        format!("[\n{}\n]\n", lines.join(",\n"))
    }

    #[test]
    fn corrupt_trace_with_overlapping_sim_spans_is_rejected() {
        // Back-to-back spans on one lane ([10, 30) then [30, 50)) are
        // fine; overlapping ones are corrupt — the simulator places
        // busy intervals without intersection by construction.
        let body = wrap(&[busy_line(3, 10.0, 20.0, 1), busy_line(3, 30.0, 20.0, 2)]);
        let ok = parse(&body, "t.json").expect("parses");
        assert!(check_sim_lanes(&ok, "t.json").is_ok());

        let body = wrap(&[busy_line(3, 10.0, 20.0, 1), busy_line(3, 15.0, 25.0, 2)]);
        let bad = parse(&body, "t.json").expect("parses");
        let err = check_sim_lanes(&bad, "t.json").expect_err("overlap rejected");
        assert!(err.contains("non-monotonic"), "{err}");

        // Different lanes (or instants) never conflict.
        let body = wrap(&[busy_line(3, 10.0, 20.0, 1), busy_line(4, 15.0, 25.0, 2)]);
        let other = parse(&body, "t.json").expect("parses");
        assert!(check_sim_lanes(&other, "t.json").is_ok());
    }

    #[test]
    fn corrupt_trace_with_negative_dur_is_rejected() {
        let line = "{\"name\":\"resource_busy\",\"cat\":\"resource\",\"ph\":\"X\",\"pid\":2,\
             \"tid\":1,\"ts\":10,\"dur\":-5,\"args\":{\"wall_ns\":0}}"
            .to_string();
        let trace = parse(&wrap(&[line]), "t.json").expect("parses");
        let violation = check_event(&trace.events[0]).expect("rejected");
        assert!(violation.contains("span ends before start"), "{violation}");
    }

    #[test]
    fn sm_occupancy_above_100_pct_is_rejected() {
        let line = |pct: i64| {
            format!(
                "{{\"name\":\"sm_occupancy\",\"cat\":\"gpu\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":2,\"tid\":1,\"ts\":10,\"args\":{{\"wall_ns\":0,\"batch\":1,\
                 \"queue\":0,\"occupancy_pct\":{pct}}}}}"
            )
        };
        let trace = parse(&wrap(&[line(100)]), "t.json").expect("parses");
        assert!(check_event(&trace.events[0]).is_none());

        let trace = parse(&wrap(&[line(104)]), "t.json").expect("parses");
        let violation = check_event(&trace.events[0]).expect("rejected");
        assert!(violation.contains("outside 0-100%"), "{violation}");

        let stripped = "{\"name\":\"sm_occupancy\",\"cat\":\"gpu\",\"ph\":\"i\",\"s\":\"t\",\
                        \"pid\":2,\"tid\":1,\"ts\":10,\"args\":{\"wall_ns\":0}}"
            .to_string();
        let trace = parse(&wrap(&[stripped]), "t.json").expect("parses");
        let violation = check_event(&trace.events[0]).expect("rejected");
        assert!(violation.contains("occupancy_pct"), "{violation}");
    }

    fn epoch_line(tid: u64, ts: f64, epoch: u64) -> String {
        format!(
            "{{\"name\":\"epoch\",\"cat\":\"control\",\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\
             \"tid\":{tid},\"ts\":{ts},\"args\":{{\"wall_ns\":0,\"batch\":0,\"epoch\":{epoch}}}}}"
        )
    }

    fn swap_line(tid: u64, ts: f64, swap_ns: f64) -> String {
        format!(
            "{{\"name\":\"controller_decision\",\"cat\":\"control\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":2,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"wall_ns\":0,\"batch\":0,\
             \"epoch\":1,\"stage\":\"dpi\",\"reason\":\"x\",\"old_ratio\":0.2,\
             \"new_ratio\":0.6,\"swap_ns\":{swap_ns}}}}}"
        )
    }

    #[test]
    fn corrupt_trace_with_non_monotonic_epochs_is_rejected() {
        let ok = parse(
            &wrap(&[epoch_line(1, 10.0, 1), epoch_line(1, 20.0, 2)]),
            "t.json",
        )
        .expect("parses");
        assert!(check_control_plane(&ok, "t.json").is_ok());

        // Same epoch twice: the counter went backwards or stalled.
        let bad = parse(
            &wrap(&[epoch_line(1, 10.0, 2), epoch_line(1, 20.0, 2)]),
            "t.json",
        )
        .expect("parses");
        let err = check_control_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("non-monotonic epoch markers"), "{err}");

        // A later marker with a smaller epoch (out-of-order writes).
        let bad = parse(
            &wrap(&[epoch_line(1, 10.0, 3), epoch_line(1, 20.0, 1)]),
            "t.json",
        )
        .expect("parses");
        assert!(check_control_plane(&bad, "t.json").is_err());

        // Distinct tracks (co-deployed tenants) keep separate counters.
        let multi = parse(
            &wrap(&[epoch_line(1, 10.0, 5), epoch_line(2, 20.0, 1)]),
            "t.json",
        )
        .expect("parses");
        assert!(check_control_plane(&multi, "t.json").is_ok());
    }

    #[test]
    fn corrupt_trace_with_overlapping_swap_windows_is_rejected() {
        // Swap at 10 us draining 5000 ns holds the lane until 15 us.
        let ok = parse(
            &wrap(&[swap_line(1, 10.0, 5_000.0), swap_line(1, 15.5, 5_000.0)]),
            "t.json",
        )
        .expect("parses");
        assert!(check_control_plane(&ok, "t.json").is_ok());

        let bad = parse(
            &wrap(&[swap_line(1, 10.0, 5_000.0), swap_line(1, 12.0, 5_000.0)]),
            "t.json",
        )
        .expect("parses");
        let err = check_control_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("overlapping swap windows"), "{err}");

        // Overlap on different tracks is two tenants swapping — fine.
        let multi = parse(
            &wrap(&[swap_line(1, 10.0, 5_000.0), swap_line(2, 12.0, 5_000.0)]),
            "t.json",
        )
        .expect("parses");
        assert!(check_control_plane(&multi, "t.json").is_ok());
    }

    fn link_line(tid: u64, ts: f64, dur: f64) -> String {
        format!(
            "{{\"name\":\"link_transfer\",\"cat\":\"cluster\",\"ph\":\"X\",\"pid\":2,\
             \"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"wall_ns\":0,\"batch\":0,\
             \"link\":{tid},\"packets\":64,\"bytes\":96000}}}}"
        )
    }

    fn shard_line(epoch: u64, server: u64, start: u64, end: u64) -> String {
        format!(
            "{{\"name\":\"shard_range\",\"cat\":\"cluster\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":2,\"tid\":1,\"ts\":10,\"args\":{{\"wall_ns\":0,\"batch\":0,\
             \"epoch\":{epoch},\"server\":{server},\"start\":{start},\"end\":{end}}}}}"
        )
    }

    #[test]
    fn corrupt_trace_with_overlapping_link_spans_is_rejected() {
        // A link serializes its transfers: back-to-back is fine,
        // overlap means two transfers shared the wire.
        let ok = parse(
            &wrap(&[link_line(7, 10.0, 5.0), link_line(7, 15.0, 5.0)]),
            "t.json",
        )
        .expect("parses");
        assert!(check_cluster_plane(&ok, "t.json").is_ok());

        let bad = parse(
            &wrap(&[link_line(7, 10.0, 5.0), link_line(7, 12.0, 5.0)]),
            "t.json",
        )
        .expect("parses");
        let err = check_cluster_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("overlapping link-busy spans"), "{err}");

        // Distinct links carry concurrent transfers — that's the rack.
        let multi = parse(
            &wrap(&[link_line(7, 10.0, 5.0), link_line(8, 12.0, 5.0)]),
            "t.json",
        )
        .expect("parses");
        assert!(check_cluster_plane(&multi, "t.json").is_ok());
    }

    #[test]
    fn corrupt_shard_maps_are_rejected() {
        const FULL: u64 = 1 << 32;
        // A complete two-server map tiles [0, 2^32) exactly.
        let ok = parse(
            &wrap(&[
                shard_line(1, 0, 0, 1 << 31),
                shard_line(1, 1, 1 << 31, FULL),
            ]),
            "t.json",
        )
        .expect("parses");
        assert!(check_cluster_plane(&ok, "t.json").is_ok());

        // A gap leaves flows unowned.
        let bad = parse(
            &wrap(&[shard_line(1, 0, 0, 1000), shard_line(1, 1, 2000, FULL)]),
            "t.json",
        )
        .expect("parses");
        let err = check_cluster_plane(&bad, "t.json").expect_err("gap rejected");
        assert!(err.contains("gap"), "{err}");

        // An overlap double-owns flows.
        let bad = parse(
            &wrap(&[shard_line(1, 0, 0, 2000), shard_line(1, 1, 1000, FULL)]),
            "t.json",
        )
        .expect("parses");
        let err = check_cluster_plane(&bad, "t.json").expect_err("overlap rejected");
        assert!(err.contains("overlap"), "{err}");

        // A truncated map does not reach 2^32.
        let bad = parse(&wrap(&[shard_line(1, 0, 0, 5000)]), "t.json").expect("parses");
        let err = check_cluster_plane(&bad, "t.json").expect_err("short map rejected");
        assert!(err.contains("not 2^32"), "{err}");

        // A map starting past zero strands the low hashes.
        let bad = parse(&wrap(&[shard_line(1, 0, 5, FULL)]), "t.json").expect("parses");
        let err = check_cluster_plane(&bad, "t.json").expect_err("late start rejected");
        assert!(err.contains("not 0"), "{err}");

        // Ranges from DIFFERENT epochs never cross-validate: two
        // disjoint-epoch half-maps are two incomplete maps.
        let bad = parse(
            &wrap(&[
                shard_line(1, 0, 0, 1 << 31),
                shard_line(2, 1, 1 << 31, FULL),
            ]),
            "t.json",
        )
        .expect("parses");
        assert!(check_cluster_plane(&bad, "t.json").is_err());
    }

    fn slo_line(ts: f64, epoch: u64, fast: f64, slow: f64, breached: u64) -> String {
        format!(
            "{{\"name\":\"slo_burn\",\"cat\":\"health\",\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\
             \"tid\":1,\"ts\":{ts},\"args\":{{\"wall_ns\":0,\"batch\":0,\"epoch\":{epoch},\
             \"objective\":\"p99_latency\",\"fast_burn\":{fast},\"slow_burn\":{slow},\
             \"breached\":{breached}}}}}"
        )
    }

    fn drift_line(ts: f64, epoch: u64, drift: f64, raised: u64) -> String {
        format!(
            "{{\"name\":\"model_drift\",\"cat\":\"health\",\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\
             \"tid\":1,\"ts\":{ts},\"args\":{{\"wall_ns\":0,\"batch\":0,\"epoch\":{epoch},\
             \"predicted_ns\":1000.0,\"observed_ns\":1800.0,\"drift\":{drift},\
             \"raised\":{raised}}}}}"
        )
    }

    #[test]
    fn health_report_aggregates_verdicts_and_drift() {
        let body = wrap(&[
            slo_line(10.0, 1, 0.5, 0.2, 0),
            slo_line(20.0, 2, 3.0, 1.5, 1),
            drift_line(10.0, 1, 0.1, 0),
            drift_line(20.0, 2, 0.8, 1),
            drift_line(30.0, 3, 0.9, 1),
        ]);
        let trace = parse(&body, "t.json").expect("parses");
        let rep = health_report(&trace);
        let p99 = rep.objectives.get("p99_latency").expect("objective");
        assert_eq!((p99.0, p99.1), (2, 1));
        assert!((p99.2 - 3.0).abs() < 1e-12 && (p99.3 - 1.5).abs() < 1e-12);
        assert_eq!(rep.drift_verdicts, 3);
        assert_eq!(rep.drift_raised, 2);
        assert_eq!(rep.first_raised_epoch, 2);
        assert!((rep.max_drift - 0.9).abs() < 1e-12);

        // The committed `health --json` snapshot carries the same counts.
        let js = health_json(&rep);
        assert_eq!(js["slo"]["p99_latency"]["breaches"].as_u64(), Some(1));
        assert_eq!(js["drift"]["raised"].as_u64(), Some(2));
    }

    #[test]
    fn typed_events_roundtrip_health_instants() {
        let trace = parse(
            &wrap(&[slo_line(10.0, 1, 2.0, 1.0, 1), drift_line(10.0, 1, 0.5, 1)]),
            "t.json",
        )
        .expect("parses");
        let events = typed_events(&trace);
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].kind,
            EventKind::SloBurn {
                objective: "p99_latency",
                breached: true,
                ..
            }
        ));
        assert!(matches!(
            events[1].kind,
            EventKind::ModelDrift { raised: true, .. }
        ));
    }

    #[test]
    fn typed_events_roundtrip_attribution() {
        let attr = "{\"name\":\"batch_attribution\",\"cat\":\"attr\",\"ph\":\"i\",\"s\":\"t\",\
                    \"pid\":2,\"tid\":1,\"ts\":50,\"args\":{\"wall_ns\":0,\"batch\":9,\
                    \"seq\":9,\"e2e_ns\":1000,\"compute_ns\":600,\"transfer_ns\":100,\
                    \"queue_ns\":200,\"drain_ns\":0,\"merge_wait_ns\":100}}"
            .to_string();
        let egress = "{\"name\":\"batch_egress\",\"cat\":\"attr\",\"ph\":\"i\",\"s\":\"t\",\
                      \"pid\":2,\"tid\":1,\"ts\":50,\"args\":{\"wall_ns\":0,\"batch\":9,\
                      \"seq\":9,\"packets\":64,\"bytes\":4096}}"
            .to_string();
        let name_meta = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"ts\":0,\
                         \"args\":{\"name\":\"io-tx\"}}"
            .to_string();
        let trace = parse(&wrap(&[name_meta, attr, egress]), "t.json").expect("parses");
        assert_eq!(
            trace.thread_names.get(&1).map(String::as_str),
            Some("io-tx")
        );
        let events = typed_events(&trace);
        // ResourceName synthesized + two instants.
        assert_eq!(events.len(), 3);
        let rep = attribution(&events);
        assert_eq!(rep.batches, 1);
        assert_eq!(rep.packets, 64);
        assert!((rep.mean_e2e_ns - 1000.0).abs() < 1e-9);
        assert!((rep.mean.total() - 1000.0).abs() < 1e-9);
    }

    fn flow_line(flow: u64, point: &str, server: u64, tid: u64, ts: f64, packets: u64) -> String {
        format!(
            "{{\"name\":\"flow_{point}\",\"cat\":\"flow\",\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\
             \"tid\":{tid},\"ts\":{ts},\"args\":{{\"wall_ns\":0,\"batch\":1,\"flow\":{flow},\
             \"point\":\"{point}\",\"server\":{server},\"packets\":{packets}}}}}"
        )
    }

    fn session_line(state: &str, flow: u64, ts: f64, packets: u64, bytes: u64) -> String {
        format!(
            "{{\"name\":\"session_{state}\",\"cat\":\"session\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":2,\"tid\":1,\"ts\":{ts},\"args\":{{\"wall_ns\":0,\"batch\":1,\
             \"state\":\"{state}\",\"flow\":{flow},\"packets\":{packets},\"bytes\":{bytes}}}}}"
        )
    }

    #[test]
    fn corrupt_flow_timelines_are_rejected() {
        // In-order points on one lane, plus a clean migrate handover
        // (a same-instant shard on the destination track follows the
        // migrate, and the old server drains a late point), validate.
        let ok = parse(
            &wrap(&[
                flow_line(7, "ingress", 0, 1, 10.0, 4),
                flow_line(7, "stage", 0, 1, 20.0, 4),
                flow_line(7, "migrate", 1, 5, 25.0, 0),
                flow_line(7, "shard", 1, 5, 25.0, 4),
                flow_line(7, "egress", 0, 1, 27.0, 4),
                flow_line(7, "egress", 1, 5, 30.0, 4),
            ]),
            "t.json",
        )
        .expect("parses");
        assert!(check_flow_plane(&ok, "t.json").is_ok());

        // Time going backwards on one (flow, track) lane is corrupt.
        let bad = parse(
            &wrap(&[
                flow_line(7, "stage", 0, 1, 20.0, 4),
                flow_line(7, "ingress", 0, 1, 10.0, 4),
            ]),
            "t.json",
        )
        .expect("parses");
        let err = check_flow_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("not time-ordered"), "{err}");

        // A migrate not answered by a same-instant shard on its own
        // track (wrong server, wrong point, or drifted instant) means
        // the two-phase swap leaked state.
        let bad = parse(
            &wrap(&[
                flow_line(7, "migrate", 1, 5, 25.0, 0),
                flow_line(7, "shard", 2, 5, 25.0, 4),
            ]),
            "t.json",
        )
        .expect("parses");
        let err = check_flow_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("handover"), "{err}");

        // A migrate that is the lane's last word never handed the flow
        // over at all.
        let bad =
            parse(&wrap(&[flow_line(7, "migrate", 1, 5, 25.0, 0)]), "t.json").expect("parses");
        let err = check_flow_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("no handover shard"), "{err}");
    }

    #[test]
    fn session_records_without_a_built_are_rejected() {
        let ok = parse(
            &wrap(&[
                session_line("built", 9, 10.0, 0, 0),
                session_line("teardown", 9, 20.0, 12, 9000),
            ]),
            "t.json",
        )
        .expect("parses");
        assert!(check_flow_plane(&ok, "t.json").is_ok());

        let bad = parse(&wrap(&[session_line("deny", 9, 10.0, 0, 0)]), "t.json").expect("parses");
        let err = check_flow_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("no preceding built"), "{err}");
    }

    #[test]
    fn flow_timeline_stitches_across_tracks_and_telescopes() {
        // The same flow touches three tracks on two servers; the
        // stitcher orders by simulated time and the consecutive hop
        // deltas sum to the end-to-end latency exactly.
        let trace = parse(
            &wrap(&[
                flow_line(0xbeef, "shard", 1, 9, 15.0, 8),
                flow_line(0xbeef, "ingress", 0, 1, 10.0, 8),
                flow_line(0xbeef, "stage", 1, 3, 22.5, 8),
                flow_line(0xbeef, "egress", 1, 9, 41.0, 8),
                flow_line(0xdead, "ingress", 0, 1, 12.0, 2), // other flow
            ]),
            "t.json",
        )
        .expect("parses");
        let rows = flow_timeline(&trace, 0xbeef);
        assert_eq!(rows.len(), 4);
        let points: Vec<&str> = rows.iter().map(|r| r.point.as_str()).collect();
        assert_eq!(points, ["ingress", "shard", "stage", "egress"]);
        let hop_sum: f64 = rows.windows(2).map(|w| w[1].ts_us - w[0].ts_us).sum();
        let e2e = rows.last().unwrap().ts_us - rows[0].ts_us;
        assert!((hop_sum - e2e).abs() < 1e-12);
        assert!((e2e - 31.0).abs() < 1e-12);

        // The plane digest counts both flows and all touchpoints.
        let rep = flow_report(&trace);
        assert_eq!(rep.flows.len(), 2);
        assert_eq!(rep.points.values().sum::<u64>(), 5);
    }

    #[test]
    fn typed_events_roundtrip_flow_plane() {
        let dump = "{\"name\":\"flight_dump\",\"cat\":\"flow\",\"ph\":\"i\",\"s\":\"t\",\
                    \"pid\":2,\"tid\":1,\"ts\":50,\"args\":{\"wall_ns\":0,\"batch\":0,\
                    \"reason\":\"slo_burn\",\"events\":42}}"
            .to_string();
        let trace = parse(
            &wrap(&[
                flow_line(7, "cache_hit", 0, 1, 10.0, 4),
                session_line("teardown", 7, 20.0, 12, 9000),
                dump,
            ]),
            "t.json",
        )
        .expect("parses");
        let events = typed_events(&trace);
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0].kind,
            EventKind::FlowPoint {
                flow: 7,
                point: "cache_hit",
                packets: 4,
                ..
            }
        ));
        assert!(matches!(
            events[1].kind,
            EventKind::Session {
                state: "teardown",
                packets: 12,
                bytes: 9000,
                ..
            }
        ));
        assert!(matches!(
            events[2].kind,
            EventKind::FlightDump {
                reason: "slo_burn",
                events: 42,
            }
        ));
    }
}
