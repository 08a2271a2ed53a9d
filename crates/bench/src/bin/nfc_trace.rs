//! `nfc-trace`: inspect, validate and analyze Chrome-trace JSON files
//! exported by the `nfc-telemetry` runtime (`NFC_TELEMETRY=trace.json`).
//!
//! Every subcommand first decodes the file strictly: each exported line
//! turns back into the [`Event`] the exporter was given, or the command
//! fails naming the event and the field. A missing or mistyped arg, an
//! unknown event name, a name, category or phase that differs from what
//! its [`EventKind`] exports, a negative or non-finite `ts`/`dur`, a
//! simulated-timeline event without `args.wall_ns` and an SM occupancy
//! above 100 % are all errors. Checks and reports then match on kinds.
//!
//! Subcommands:
//!
//! * `summary <trace.json>` — event totals, per-category counts, the
//!   wall/sim timeline extents and one line per observability plane.
//! * `validate <trace.json>... [--require cat1,cat2,...]` — decode every
//!   file, then reject overlapping simulated `resource_busy` spans on one
//!   track, non-monotonic controller `epoch` markers, overlapping live
//!   swap windows on one track, overlapping `link_transfer` spans per
//!   link track, cluster shard maps that fail to tile the 32-bit flow
//!   space, out-of-order or leaked flow timelines and session records
//!   without a `built`; exits non-zero on any violation, for CI.
//! * `controller <trace.json>` — the adaptive control plane's
//!   adaptation timeline on the simulated clock: trigger reason, old →
//!   new offload ratio and charged swap latency for every decision.
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

use nfc_telemetry::attr::resource_names;
use nfc_telemetry::{
    attribution, calibrate, critical_paths, folded_stacks, folded_stacks_wall, whatif,
    AttributionReport, Buckets, CalibAnchors, Event, EventKind, SimStamp, WhatIfReport,
    DUMP_REASONS, FLOW_POINTS, PARTITION_ALGOS, SESSION_STATES, SLO_OBJECTIVES,
};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// One decoded trace.
#[derive(Debug)]
struct Trace {
    /// The events the exporter was given: lane names (the pid-2
    /// `thread_name` metadata) as `ResourceName` events first, then every
    /// other event in file order.
    events: Vec<Event>,
    /// Dropped-event count from the `nfc_dropped_events` metadata.
    dropped: u64,
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
    let mut trace = Trace {
        events: Vec::new(),
        dropped: 0,
    };
    for (i, v) in values.iter().enumerate() {
        let at = |e: String| format!("{path}: event {i}: {e}");
        let ph = v.get("ph").and_then(Value::as_str);
        let args = Args {
            event: v.get("name").and_then(Value::as_str).unwrap_or("?"),
            args: v.get("args"),
        };
        match (ph, args.event) {
            (Some("M"), "nfc_dropped_events") => trace.dropped = args.u64("dropped").map_err(at)?,
            (Some("M"), "thread_name") => {
                let resource = tid(v, args.event).map_err(at)?;
                trace.events.push(Event {
                    wall_ns: 0,
                    wall_dur_ns: 0,
                    sim: None,
                    track: resource,
                    batch: 0,
                    kind: EventKind::ResourceName {
                        resource,
                        name: args.str("name").map_err(at)?.to_string(),
                    },
                });
            }
            (Some("M"), _) => {}
            _ => trace.events.push(decode(v).map_err(at)?),
        }
    }
    Ok(trace)
}

fn load(path: &str) -> Result<Trace, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&body, path)
}

/// Parses a flow key (the RSS hash) as decimal or `0x`-prefixed hex.
fn parse_flow_key(s: &str) -> Option<u32> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u32::from_str_radix(hex, 16).ok(),
        None => s.parse::<u32>().ok(),
    }
}

/// One event's `args`, read by type: a missing or mistyped key is an
/// error naming the event and the key.
struct Args<'a> {
    event: &'a str,
    args: Option<&'a Value>,
}

impl<'a> Args<'a> {
    fn read<T>(&self, key: &str, typed: impl FnOnce(&'a Value) -> Option<T>) -> Result<T, String> {
        self.args
            .and_then(|a| a.get(key))
            .and_then(typed)
            .ok_or_else(|| format!("{}: missing or mistyped args.{key}", self.event))
    }
    fn u64(&self, key: &str) -> Result<u64, String> {
        self.read(key, Value::as_u64)
    }
    fn u32(&self, key: &str) -> Result<u32, String> {
        self.read(key, |v| u32::try_from(v.as_u64()?).ok())
    }
    fn f64(&self, key: &str) -> Result<f64, String> {
        self.read(key, |v| v.as_f64().filter(|x| x.is_finite()))
    }
    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.read(key, Value::as_str)
    }
    /// A `0`/`1` integer flag.
    fn flag(&self, key: &str) -> Result<bool, String> {
        self.read(key, |v| match v.as_u64()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        })
    }
    /// A string from a closed vocabulary, as the `&'static str` the
    /// event carries.
    fn one_of(&self, key: &str, known: &[&'static str]) -> Result<&'static str, String> {
        let s = self.str(key)?;
        let found = known.iter().find(|k| **k == s).copied();
        found.ok_or_else(|| format!("{}: unknown args.{key} {s:?}", self.event))
    }
}

/// The event's `tid`: its track, or for `thread_name` metadata the
/// resource it names.
fn tid(v: &Value, event: &str) -> Result<u32, String> {
    let tid = v.get("tid").and_then(Value::as_u64);
    tid.and_then(|t| u32::try_from(t).ok())
        .ok_or_else(|| format!("{event}: missing or mistyped tid"))
}

/// Decodes one exported event line back into the [`Event`] the
/// exporter was given; the error names the event and the field.
fn decode(v: &Value) -> Result<Event, String> {
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or("event without a name")?;
    let a = Args {
        event: name,
        args: v.get("args"),
    };
    let kind = match name {
        "batch_split" => EventKind::BatchSplit {
            node: a.u32("node")?,
            parts: a.u32("parts")?,
        },
        "batch_merge" => EventKind::BatchMerge {
            node: a.u32("node")?,
            parts: a.u32("parts")?,
        },
        "flow_cache_batch" => EventKind::FlowCacheBatch {
            hits: a.u32("hits")?,
            misses: a.u32("misses")?,
        },
        "flow_cache_invalidate" => EventKind::FlowCacheInvalidate {
            generation: a.u64("generation")?,
        },
        "kernel_launch" => EventKind::KernelLaunch {
            queue: a.u32("queue")?,
            user: a.u64("user")?,
            bytes: a.u64("bytes")?,
            packets: a.u32("packets")?,
            kernels: a.u32("kernels")?,
        },
        "kernel_teardown" => EventKind::KernelTeardown {
            resource: a.u32("resource")?,
            from_user: a.u64("from_user")?,
            to_user: a.u64("to_user")?,
            penalty_ns: a.f64("penalty_ns")?,
        },
        "dma_h2d" | "dma_d2h" => EventKind::Dma {
            to_device: a.one_of("dir", &["h2d", "d2h"])? == "h2d",
            bytes: a.u64("bytes")?,
        },
        // A device cannot host more resident warps than it has SMs, so
        // any share above 100 % of sm_count means residency broke.
        "sm_occupancy" => match a.u64("occupancy_pct")? {
            pct @ 0..=100 => EventKind::SmOccupancy {
                queue: a.u32("queue")?,
                occupancy_pct: pct as u8,
            },
            pct => return Err(format!("{name}: {pct}% is outside 0-100% of sm_count")),
        },
        "resource_busy" => EventKind::ResourceBusy {
            resource: a.u32("resource")?,
            user: a.u64("user")?,
            queued_ns: a.f64("queued_ns")?,
        },
        "controller_decision" => EventKind::ControllerDecision {
            epoch: a.u64("epoch")?,
            reason: a.str("reason")?.to_string(),
            stage: a.str("stage")?.to_string(),
            old_ratio: a.f64("old_ratio")?,
            new_ratio: a.f64("new_ratio")?,
            swap_ns: a.f64("swap_ns")?,
        },
        "worker_unit" => EventKind::Worker {
            worker: a.u32("worker")?,
            unit: a.u32("unit")?,
        },
        "batch_ingress" => EventKind::BatchIngress {
            seq: a.u64("seq")?,
            packets: a.u32("packets")?,
            wire_bytes: a.u64("wire_bytes")?,
        },
        "batch_egress" => EventKind::BatchEgress {
            seq: a.u64("seq")?,
            packets: a.u32("packets")?,
            bytes: a.u64("bytes")?,
        },
        "batch_attribution" => EventKind::BatchAttribution {
            seq: a.u64("seq")?,
            e2e_ns: a.f64("e2e_ns")?,
            compute_ns: a.f64("compute_ns")?,
            transfer_ns: a.f64("transfer_ns")?,
            queue_ns: a.f64("queue_ns")?,
            drain_ns: a.f64("drain_ns")?,
            merge_wait_ns: a.f64("merge_wait_ns")?,
        },
        "epoch" => EventKind::Epoch {
            epoch: a.u64("epoch")?,
        },
        "slo_burn" => EventKind::SloBurn {
            epoch: a.u64("epoch")?,
            objective: a.one_of("objective", SLO_OBJECTIVES)?,
            fast_burn: a.f64("fast_burn")?,
            slow_burn: a.f64("slow_burn")?,
            breached: a.flag("breached")?,
        },
        "model_drift" => EventKind::ModelDrift {
            epoch: a.u64("epoch")?,
            predicted_ns: a.f64("predicted_ns")?,
            observed_ns: a.f64("observed_ns")?,
            drift: a.f64("drift")?,
            raised: a.flag("raised")?,
        },
        "shard_range" => EventKind::ShardRange {
            epoch: a.u64("epoch")?,
            server: a.u32("server")?,
            start: a.u64("start")?,
            end: a.u64("end")?,
        },
        "link_transfer" => EventKind::LinkTransfer {
            link: a.u32("link")?,
            packets: a.u32("packets")?,
            bytes: a.u64("bytes")?,
        },
        "cluster_rebalance" => EventKind::ClusterRebalance {
            epoch: a.u64("epoch")?,
            from: a.u32("from")?,
            to: a.u32("to")?,
            vnodes: a.u32("vnodes")?,
            migrated_bytes: a.u64("migrated_bytes")?,
            swap_ns: a.f64("swap_ns")?,
        },
        "flight_dump" => EventKind::FlightDump {
            reason: a.one_of("reason", DUMP_REASONS)?,
            events: a.u32("events")?,
        },
        n if n.starts_with("stage:") => EventKind::Stage {
            branch: a.u32("branch")?,
            stage: a.u32("stage")?,
            name: a.str("nf")?.to_string(),
            packets: a.u32("packets")?,
        },
        n if n.starts_with("element:") => EventKind::Element {
            node: a.u32("node")?,
            name: a.str("element")?.to_string(),
            packets_in: a.u32("packets_in")?,
            packets_out: a.u32("packets_out")?,
        },
        n if n.starts_with("partition_pass:") => EventKind::PartitionPass {
            algo: a.one_of("algo", PARTITION_ALGOS)?,
            pass: a.u32("pass")?,
            moved: a.u32("moved")?,
            cost_before: a.f64("cost_before")?,
            cost_after: a.f64("cost_after")?,
        },
        n if n.starts_with("partition_decision:") => EventKind::PartitionDecision {
            algo: a.one_of("algo", PARTITION_ALGOS)?,
            stage: a.str("stage")?.to_string(),
            predicted_cost_ns: a.f64("predicted_cost_ns")?,
            mean_ratio: a.f64("mean_ratio")?,
        },
        n if n.starts_with("flow_") => EventKind::FlowPoint {
            flow: a.u32("flow")?,
            point: a.one_of("point", FLOW_POINTS)?,
            server: a.u32("server")?,
            packets: a.u32("packets")?,
        },
        n if n.starts_with("session_") => EventKind::Session {
            state: a.one_of("state", SESSION_STATES)?,
            flow: a.u32("flow")?,
            packets: a.u64("packets")?,
            bytes: a.u64("bytes")?,
        },
        _ => return Err(format!("unknown event {name:?}")),
    };
    let field = |key: &str| v.get(key).and_then(Value::as_str).unwrap_or("?");
    let got = (name, field("cat"), field("ph"));
    let label = kind.label();
    let want = (
        label.as_str(),
        kind.category(),
        if kind.is_span() { "X" } else { "i" },
    );
    if got != want {
        return Err(format!(
            "{name}: name/cat/ph {got:?} differ from its kind's {want:?}"
        ));
    }
    let time = |key: &str| match v.get(key).and_then(Value::as_f64) {
        Some(t) if t.is_finite() && t >= 0.0 => Ok(t),
        _ => Err(format!("{name}: missing, negative or non-finite {key}")),
    };
    let ts = time("ts")?;
    let dur = if kind.is_span() { time("dur")? } else { 0.0 };
    let track = tid(v, name)?;
    let batch = match v.get("args").and_then(|x| x.get("batch")) {
        Some(_) => a.u64("batch")?,
        None => 0,
    };
    let (wall_ns, wall_dur_ns, sim) = match v.get("pid").and_then(Value::as_u64) {
        Some(1) => ((ts * 1e3).round() as u64, (dur * 1e3).round() as u64, None),
        Some(2) => {
            let sim = SimStamp {
                start_ns: ts * 1e3,
                end_ns: (ts + dur) * 1e3,
            };
            (a.u64("wall_ns")?, 0, Some(sim))
        }
        _ => return Err(format!("{name}: pid is neither 1 (wall) nor 2 (sim)")),
    };
    Ok(Event {
        wall_ns,
        wall_dur_ns,
        sim,
        track,
        batch,
        kind,
    })
}

/// An event's exported `ts` and `dur`, in microseconds of its own clock.
fn ts_dur_us(ev: &Event) -> (f64, f64) {
    match ev.sim {
        Some(s) => (s.start_ns / 1e3, s.dur_ns() / 1e3),
        None => (ev.wall_ns as f64 / 1e3, ev.wall_dur_ns as f64 / 1e3),
    }
}

/// Simulated spans of one kind with a positive duration, per track, as
/// `[start, end)` in microseconds.
fn sim_spans(trace: &Trace, of_kind: fn(&EventKind) -> bool) -> BTreeMap<u32, Vec<(f64, f64)>> {
    let mut lanes: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for ev in trace.events.iter().filter(|ev| of_kind(&ev.kind)) {
        let (ts, dur) = ts_dur_us(ev);
        if ev.sim.is_some() && dur > 0.0 {
            lanes.entry(ev.track).or_default().push((ts, ts + dur));
        }
    }
    lanes
}

/// The first span that starts before the previous one (in start order)
/// ends: `(its start, the previous end)`.
fn first_overlap(mut spans: Vec<(f64, f64)>) -> Option<(f64, f64)> {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let w = spans.windows(2).find(|w| w[1].0 < w[0].1 - 1e-9)?;
    Some((w[1].0, w[0].1))
}

/// Rejects overlapping (non-monotonic) simulated `resource_busy` spans
/// within one track. The simulator places busy intervals on each
/// resource without intersection by construction, so two busy spans on
/// the same track overlapping means the trace is corrupt. The semantic
/// GPU/DMA spans (`kernel_launch`, `dma_*`) are exempt: they stretch
/// from request to completion and legitimately cover queueing behind an
/// earlier batch.
fn check_sim_lanes(trace: &Trace, path: &str) -> Result<(), String> {
    let lanes = sim_spans(trace, |k| matches!(k, EventKind::ResourceBusy { .. }));
    for (tid, spans) in lanes {
        if let Some((start, end)) = first_overlap(spans) {
            return Err(format!(
                "{path}: non-monotonic sim timeline on track {tid} (resource_busy): span at \
                 {start:.3} us starts before the previous span ends at {end:.3} us"
            ));
        }
    }
    Ok(())
}

/// Rejects corrupt control-plane timelines on the simulated clock:
/// `epoch` markers must be strictly increasing per track (the
/// controller's epoch counter is monotonic by construction), and the
/// reconfiguration windows of charged `controller_decision` swaps must
/// not overlap on one track — two live swaps cannot be in flight on the
/// same chain at once (the two-phase swap drains before it applies).
/// A repartition re-plans every stage at one instant and records one
/// decision per stage, so the decisions sharing a track, epoch and `ts`
/// are one chain swap, with window `[ts, ts + max swap_ns]`.
fn check_control_plane(trace: &Trace, path: &str) -> Result<(), String> {
    let mut epochs: BTreeMap<u32, Vec<(f64, u64)>> = BTreeMap::new();
    let mut swaps: BTreeMap<(u32, u64, u64), (f64, f64)> = BTreeMap::new();
    for ev in trace.events.iter().filter(|ev| ev.sim.is_some()) {
        let (ts, _) = ts_dur_us(ev);
        match ev.kind {
            EventKind::Epoch { epoch } => epochs.entry(ev.track).or_default().push((ts, epoch)),
            // ts is in us; swap_ns is charged in ns.
            EventKind::ControllerDecision { epoch, swap_ns, .. } if swap_ns > 0.0 => {
                let end = ts + swap_ns / 1e3;
                let window = swaps
                    .entry((ev.track, epoch, ts.to_bits()))
                    .or_insert((ts, end));
                window.1 = window.1.max(end);
            }
            _ => {}
        }
    }
    let mut swaps_per_track: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for ((track, ..), window) in swaps {
        swaps_per_track.entry(track).or_default().push(window);
    }
    for (tid, mut markers) in epochs {
        markers.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Some(w) = markers.windows(2).find(|w| w[1].1 <= w[0].1) {
            return Err(format!(
                "{path}: non-monotonic epoch markers on track {tid}: epoch {} at \
                 {:.3} us follows epoch {} at {:.3} us",
                w[1].1, w[1].0, w[0].1, w[0].0
            ));
        }
    }
    for (tid, windows) in swaps_per_track {
        if let Some((start, end)) = first_overlap(windows) {
            return Err(format!(
                "{path}: overlapping swap windows on track {tid}: swap at {start:.3} us \
                 starts before the previous swap drains at {end:.3} us"
            ));
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
    let lanes = sim_spans(trace, |k| matches!(k, EventKind::LinkTransfer { .. }));
    for (tid, spans) in lanes {
        if let Some((start, end)) = first_overlap(spans) {
            return Err(format!(
                "{path}: overlapping link-busy spans on link track {tid}: transfer at \
                 {start:.3} us starts before the previous transfer ends at {end:.3} us"
            ));
        }
    }
    let mut maps: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for ev in &trace.events {
        if let EventKind::ShardRange {
            epoch, start, end, ..
        } = ev.kind
        {
            maps.entry(epoch).or_default().push((start, end));
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
        if let Some(w) = ranges.windows(2).find(|w| w[1].0 != w[0].1) {
            let what = if w[1].0 < w[0].1 { "overlap" } else { "gap" };
            return Err(format!(
                "{path}: shard map for epoch {epoch} has a {what}: range ending at {} \
                 is followed by a range starting at {}",
                w[0].1, w[1].0
            ));
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
    let mut lanes: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut handover: BTreeMap<(u32, u32), (f64, u32)> = BTreeMap::new();
    let mut sessions: BTreeMap<u32, Vec<(f64, &str)>> = BTreeMap::new();
    for ev in &trace.events {
        let (ts, _) = ts_dur_us(ev);
        let tid = ev.track;
        match ev.kind {
            EventKind::FlowPoint {
                flow,
                point,
                server,
                ..
            } if ev.sim.is_some() => {
                let last = lanes.entry((flow, tid)).or_insert(f64::NEG_INFINITY);
                if ts < *last - 1e-9 {
                    return Err(format!(
                        "{path}: flow {flow:#010x} timeline not time-ordered on track {tid}: \
                         {point} at {ts:.3} us precedes the prior point at {:.3} us",
                        *last
                    ));
                }
                *last = ts;
                if let Some((mig_ts, mig_server)) = handover.remove(&(flow, tid)) {
                    if point != "shard" || server != mig_server || (ts - mig_ts).abs() > 1e-9 {
                        return Err(format!(
                            "{path}: flow {flow:#010x} migrate handover on track {tid} leaked: \
                             expected shard on server {mig_server} at {mig_ts:.3} us, \
                             got {point} on server {server} at {ts:.3} us"
                        ));
                    }
                }
                if point == "migrate" {
                    handover.insert((flow, tid), (ts, server));
                }
            }
            // Session records are wall-clock instants, in record order.
            EventKind::Session { state, flow, .. } => {
                sessions.entry(flow).or_default().push((ts, state))
            }
            _ => {}
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
        if let Some((ts, state)) = recs.iter().find(|(_, s)| *s != "built") {
            if !recs.iter().any(|(t, s)| *s == "built" && t <= ts) {
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
    points: BTreeMap<&'static str, u64>,
    /// Distinct sampled flow hashes seen on the flow plane.
    flows: BTreeSet<u32>,
    /// session state -> (records, packets, bytes).
    sessions: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Distinct flow hashes with at least one session record.
    session_flows: BTreeSet<u32>,
    /// Flight-recorder dumps and the events they carried.
    dumps: u64,
    dump_events: u64,
}

fn flow_report(trace: &Trace) -> FlowReport {
    let mut rep = FlowReport::default();
    for ev in &trace.events {
        match ev.kind {
            EventKind::FlowPoint { flow, point, .. } => {
                *rep.points.entry(point).or_insert(0) += 1;
                rep.flows.insert(flow);
            }
            EventKind::Session {
                state,
                flow,
                packets,
                bytes,
            } => {
                let s = rep.sessions.entry(state).or_insert((0, 0, 0));
                s.0 += 1;
                s.1 += packets;
                s.2 += bytes;
                rep.session_flows.insert(flow);
            }
            EventKind::FlightDump { events, .. } => {
                rep.dumps += 1;
                rep.dump_events += u64::from(events);
            }
            _ => {}
        }
    }
    rep
}

fn sessions_json(rep: &FlowReport) -> Value {
    let mut sessions = json!({});
    for (s, (records, packets, bytes)) in &rep.sessions {
        sessions[*s] = json!({
            "records": records, "packets": packets, "bytes": bytes,
        });
    }
    sessions
}

fn flow_report_json(rep: &FlowReport) -> Value {
    let mut points = json!({});
    for (p, n) in &rep.points {
        points[*p] = json!(n);
    }
    json!({
        "points": points,
        "flows": rep.flows.len(),
        "sessions": sessions_json(rep),
        "session_flows": rep.session_flows.len(),
        "dumps": rep.dumps,
        "dump_events": rep.dump_events,
    })
}

/// One stitched row of a sampled flow's timeline: simulated instant
/// (us), touchpoint, server, track and packet count.
struct FlowRow {
    ts_us: f64,
    point: &'static str,
    server: u32,
    track: u32,
    packets: u32,
}

/// Collects and time-orders every flow point stamped for `key`,
/// across tracks, servers and migrations — the stitched causal
/// timeline `flow <key>` renders.
fn flow_timeline(trace: &Trace, key: u32) -> Vec<FlowRow> {
    let mut rows: Vec<FlowRow> = trace
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::FlowPoint {
                flow,
                point,
                server,
                packets,
            } if flow == key => Some(FlowRow {
                ts_us: ts_dur_us(ev).0,
                point,
                server,
                track: ev.track,
                packets,
            }),
            _ => None,
        })
        .collect();
    rows.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    rows
}

/// Recorded events per category; lane names are metadata, not events.
fn by_category(trace: &Trace) -> BTreeMap<&'static str, u64> {
    let mut cats = BTreeMap::new();
    for ev in &trace.events {
        if !matches!(ev.kind, EventKind::ResourceName { .. }) {
            *cats.entry(ev.kind.category()).or_insert(0) += 1;
        }
    }
    cats
}

fn cmd_summary(path: &str) -> Result<(), String> {
    let trace = load(path)?;
    let cats = by_category(&trace);
    println!("trace     {path}");
    println!("events    {}", cats.values().sum::<u64>());
    println!("dropped   {}", trace.dropped);
    let mut wall = (f64::INFINITY, f64::NEG_INFINITY);
    let mut sim = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut rebalances, mut transfers) = (0, 0);
    for ev in &trace.events {
        match ev.kind {
            EventKind::ResourceName { .. } => continue,
            EventKind::ClusterRebalance { .. } => rebalances += 1,
            EventKind::LinkTransfer { .. } => transfers += 1,
            _ => {}
        }
        let (ts, dur) = ts_dur_us(ev);
        let clock = if ev.sim.is_some() {
            &mut sim
        } else {
            &mut wall
        };
        clock.0 = clock.0.min(ts);
        clock.1 = clock.1.max(ts + dur);
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
fn cmd_flow(path: &str, key: Option<u32>, as_json: bool) -> Result<(), String> {
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
    let lanes = resource_names(&trace.events);
    let mut prev: Option<f64> = None;
    let mut hop_sum = 0.0;
    for r in &rows {
        let lane = lanes.get(&r.track).map_or("?", String::as_str);
        let hop = prev.map(|p| r.ts_us - p).unwrap_or(0.0);
        hop_sum += hop;
        println!(
            "{:>12.3}  {:<12} {:>6}  {:<14} {:>7}  {:>10.3}",
            r.ts_us, r.point, r.server, lane, r.packets, hop
        );
        prev = Some(r.ts_us);
    }
    let e2e = rows.last().unwrap().ts_us - rows[0].ts_us;
    let servers: BTreeSet<u32> = rows.iter().map(|r| r.server).collect();
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
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "flows": rep.session_flows.len(),
                "sessions": sessions_json(&rep),
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
    let mut union: BTreeMap<&str, u64> = BTreeMap::new();
    let mut total_events = 0u64;
    let mut total_dropped = 0u64;
    for path in paths {
        let trace = load(path)?;
        let cats = by_category(&trace);
        if cats.is_empty() {
            return Err(format!("{path}: trace has no events"));
        }
        check_sim_lanes(&trace, path)?;
        check_control_plane(&trace, path)?;
        check_cluster_plane(&trace, path)?;
        check_flow_plane(&trace, path)?;
        for (cat, n) in cats {
            *union.entry(cat).or_insert(0) += n;
            total_events += n;
        }
        total_dropped += trace.dropped;
    }
    for cat in require {
        if !union.contains_key(cat.as_str()) {
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

/// Prints the adaptation timeline recorded by the control plane (one
/// `controller_decision` instant per evaluated stage; `epoch` markers
/// share the `control` category and are excluded).
fn cmd_controller(path: &str) -> Result<(), String> {
    let trace = load(path)?;
    let mut rows: Vec<(f64, &EventKind)> = trace
        .events
        .iter()
        .filter(|ev| matches!(ev.kind, EventKind::ControllerDecision { .. }))
        .map(|ev| (ts_dur_us(ev).0, &ev.kind))
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
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
    for (ts, kind) in rows {
        let EventKind::ControllerDecision {
            epoch,
            reason,
            stage,
            old_ratio,
            new_ratio,
            swap_ns,
        } = kind
        else {
            unreachable!("filtered to controller decisions")
        };
        if (old_ratio - new_ratio).abs() > 1e-9 || *swap_ns > 0.0 {
            swaps += 1;
            swap_total_ns += swap_ns;
        }
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
    let events = load(path)?.events;
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
    objectives: BTreeMap<&'static str, (u64, u64, f64, f64)>,
    drift_verdicts: u64,
    drift_raised: u64,
    max_drift: f64,
    first_raised_epoch: u64,
}

fn health_report(trace: &Trace) -> HealthReport {
    let mut rep = HealthReport::default();
    for ev in &trace.events {
        match ev.kind {
            EventKind::SloBurn {
                objective,
                fast_burn,
                slow_burn,
                breached,
                ..
            } => {
                let o = rep.objectives.entry(objective).or_insert((0, 0, 0.0, 0.0));
                o.0 += 1;
                o.1 += u64::from(breached);
                o.2 = o.2.max(fast_burn);
                o.3 = o.3.max(slow_burn);
            }
            EventKind::ModelDrift {
                epoch,
                drift,
                raised,
                ..
            } => {
                rep.drift_verdicts += 1;
                rep.max_drift = rep.max_drift.max(drift);
                if raised {
                    rep.drift_raised += 1;
                    if rep.first_raised_epoch == 0 {
                        rep.first_raised_epoch = epoch;
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
        slo[*name] = json!({
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
    let events = load(path)?.events;
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
    let events = load(path)?.events;
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
    let events = load(path)?.events;
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
    let events = load(path)?.events;
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

const USAGE: &str = "usage: nfc-trace <summary|validate|controller|attribution|critical-path|\
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
    use nfc_telemetry::export::chrome_trace;

    /// A simulated-timeline event on `track` spanning `[start, end]` us.
    fn sim(track: u32, start_us: f64, end_us: f64, kind: EventKind) -> Event {
        Event {
            wall_ns: 0,
            wall_dur_ns: 0,
            sim: Some(SimStamp {
                start_ns: start_us * 1e3,
                end_ns: end_us * 1e3,
            }),
            track,
            batch: 0,
            kind,
        }
    }

    /// Exports `events` and decodes the file back, as `nfc-trace` reads it.
    fn exported(events: &[Event]) -> Trace {
        parse(&chrome_trace(events, 0), "t.json").expect("decodes")
    }

    /// Exports `ev`, rewrites `from` to `to` in the file, and returns
    /// the decoder's error.
    fn rejected(ev: Event, from: &str, to: &str) -> String {
        let body = chrome_trace(&[ev], 0);
        assert!(body.contains(from), "{from} not in {body}");
        parse(&body.replace(from, to), "t.json").expect_err(to)
    }

    fn busy(track: u32, start_us: f64, end_us: f64) -> Event {
        let kind = EventKind::ResourceBusy {
            resource: track,
            user: 1,
            queued_ns: 0.0,
        };
        sim(track, start_us, end_us, kind)
    }

    #[test]
    fn exported_golden_decodes_and_re_exports_byte_for_byte() {
        let golden = include_str!("../../../telemetry/tests/golden_trace.expected.json");
        let trace = parse(golden, "golden").expect("decodes");
        assert_eq!(chrome_trace(&trace.events, trace.dropped), golden);
    }

    /// Every word of every closed vocabulary survives export and decode,
    /// so a word added in `nfc-telemetry` is one `decode` reads.
    #[test]
    fn every_vocabulary_word_decodes() {
        let mut kinds = Vec::new();
        for &algo in PARTITION_ALGOS {
            kinds.push(EventKind::PartitionDecision {
                algo,
                stage: "s".into(),
                predicted_cost_ns: 1.0,
                mean_ratio: 0.5,
            });
        }
        for &point in FLOW_POINTS {
            kinds.push(EventKind::FlowPoint {
                flow: 1,
                point,
                server: 0,
                packets: 1,
            });
        }
        for &state in SESSION_STATES {
            kinds.push(EventKind::Session {
                state,
                flow: 1,
                packets: 1,
                bytes: 64,
            });
        }
        for &objective in SLO_OBJECTIVES {
            kinds.push(EventKind::SloBurn {
                epoch: 1,
                objective,
                fast_burn: 1.0,
                slow_burn: 1.0,
                breached: false,
            });
        }
        for &reason in DUMP_REASONS {
            kinds.push(EventKind::FlightDump { reason, events: 1 });
        }
        let events: Vec<Event> = kinds.into_iter().map(|k| sim(0, 1.0, 1.0, k)).collect();
        let decoded = exported(&events).events;
        let kinds = |evs: &[Event]| evs.iter().map(|e| e.kind.clone()).collect::<Vec<_>>();
        assert_eq!(kinds(&decoded), kinds(&events));
    }

    #[test]
    fn decode_rejects_what_the_exporter_cannot_write() {
        let err = rejected(busy(1, 10.0, 30.0), "\"user\":1,", "");
        assert!(err.contains("args.user"), "{err}");
        let err = rejected(busy(1, 10.0, 30.0), "\"wall_ns\":0,", "");
        assert!(err.contains("args.wall_ns"), "{err}");
        let err = rejected(
            busy(1, 10.0, 30.0),
            "\"cat\":\"resource\"",
            "\"cat\":\"gpu\"",
        );
        assert!(err.contains("name/cat/ph"), "{err}");
        let err = rejected(busy(1, 10.0, 30.0), "\"ph\":\"X\"", "\"ph\":\"i\"");
        assert!(err.contains("name/cat/ph"), "{err}");
        let err = rejected(busy(1, 10.0, 30.0), "resource_busy", "resource_idle");
        assert!(err.contains("unknown event"), "{err}");
        let err = rejected(busy(1, 10.0, 30.0), "\"user\":1", "\"user\":\"1\"");
        assert!(err.contains("args.user"), "{err}");
    }

    #[test]
    fn corrupt_trace_with_negative_dur_is_rejected() {
        let err = rejected(busy(1, 10.0, 15.0), "\"dur\":5", "\"dur\":-5");
        assert!(err.contains("negative or non-finite dur"), "{err}");
        let err = rejected(busy(1, 10.0, 15.0), "\"ts\":10", "\"ts\":1e999");
        assert!(err.contains("negative or non-finite ts"), "{err}");
    }

    #[test]
    fn sm_occupancy_above_100_pct_is_rejected() {
        let occupancy = |pct: u8| {
            let kind = EventKind::SmOccupancy {
                queue: 0,
                occupancy_pct: pct,
            };
            sim(1, 10.0, 10.0, kind)
        };
        assert_eq!(exported(&[occupancy(100)]).events, [occupancy(100)]);

        let err = parse(&chrome_trace(&[occupancy(104)], 0), "t.json").expect_err("rejected");
        assert!(err.contains("outside 0-100%"), "{err}");

        let err = rejected(occupancy(100), ",\"occupancy_pct\":100", "");
        assert!(err.contains("occupancy_pct"), "{err}");
    }

    #[test]
    fn corrupt_trace_with_overlapping_sim_spans_is_rejected() {
        // Back-to-back spans on one lane ([10, 30) then [30, 50)) are
        // fine; overlapping ones are corrupt — the simulator places
        // busy intervals without intersection by construction.
        let ok = exported(&[busy(3, 10.0, 30.0), busy(3, 30.0, 50.0)]);
        assert!(check_sim_lanes(&ok, "t.json").is_ok());

        let bad = exported(&[busy(3, 10.0, 30.0), busy(3, 15.0, 40.0)]);
        let err = check_sim_lanes(&bad, "t.json").expect_err("overlap rejected");
        assert!(err.contains("non-monotonic"), "{err}");

        // Different lanes never conflict.
        let other = exported(&[busy(3, 10.0, 30.0), busy(4, 15.0, 40.0)]);
        assert!(check_sim_lanes(&other, "t.json").is_ok());
    }

    fn epoch(track: u32, ts: f64, epoch: u64) -> Event {
        sim(track, ts, ts, EventKind::Epoch { epoch })
    }

    /// A charged swap, on the track and clock the runtime records it.
    fn swap(track: u32, ts: f64, swap_ns: f64) -> Event {
        let kind = EventKind::ControllerDecision {
            epoch: 1,
            reason: "x".into(),
            stage: "dpi".into(),
            old_ratio: 0.2,
            new_ratio: 0.6,
            swap_ns,
        };
        sim(track, ts, ts, kind)
    }

    #[test]
    fn corrupt_trace_with_non_monotonic_epochs_is_rejected() {
        let ok = exported(&[epoch(1, 10.0, 1), epoch(1, 20.0, 2)]);
        assert!(check_control_plane(&ok, "t.json").is_ok());

        // Same epoch twice: the counter went backwards or stalled.
        let bad = exported(&[epoch(1, 10.0, 2), epoch(1, 20.0, 2)]);
        let err = check_control_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("non-monotonic epoch markers"), "{err}");

        // A later marker with a smaller epoch (out-of-order writes).
        let bad = exported(&[epoch(1, 10.0, 3), epoch(1, 20.0, 1)]);
        assert!(check_control_plane(&bad, "t.json").is_err());

        // Distinct tracks (co-deployed tenants) keep separate counters.
        let multi = exported(&[epoch(1, 10.0, 5), epoch(2, 20.0, 1)]);
        assert!(check_control_plane(&multi, "t.json").is_ok());
    }

    #[test]
    fn corrupt_trace_with_overlapping_swap_windows_is_rejected() {
        // Swap at 10 us draining 5000 ns holds the lane until 15 us.
        let ok = exported(&[swap(1, 10.0, 5_000.0), swap(1, 15.5, 5_000.0)]);
        assert!(check_control_plane(&ok, "t.json").is_ok());

        let bad = exported(&[swap(1, 10.0, 5_000.0), swap(1, 12.0, 5_000.0)]);
        let err = check_control_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("overlapping swap windows"), "{err}");

        // Overlap on different tracks is two tenants swapping — fine.
        let multi = exported(&[swap(1, 10.0, 5_000.0), swap(2, 12.0, 5_000.0)]);
        assert!(check_control_plane(&multi, "t.json").is_ok());

        // Two stages re-planned at one instant are one chain swap, whose
        // window ends with the longer of the two.
        let stages = exported(&[swap(1, 10.0, 5_000.0), swap(1, 10.0, 8_000.0)]);
        assert!(check_control_plane(&stages, "t.json").is_ok());
        let after = [
            swap(1, 10.0, 5_000.0),
            swap(1, 10.0, 8_000.0),
            swap(1, 16.0, 1.0),
        ];
        let err = check_control_plane(&exported(&after), "t.json").expect_err("rejected");
        assert!(err.contains("previous swap drains at 18.000 us"), "{err}");
    }

    fn link(track: u32, start_us: f64, end_us: f64) -> Event {
        let kind = EventKind::LinkTransfer {
            link: track,
            packets: 64,
            bytes: 96_000,
        };
        sim(track, start_us, end_us, kind)
    }

    fn shard(epoch: u64, server: u32, start: u64, end: u64) -> Event {
        let kind = EventKind::ShardRange {
            epoch,
            server,
            start,
            end,
        };
        sim(1, 10.0, 10.0, kind)
    }

    #[test]
    fn corrupt_trace_with_overlapping_link_spans_is_rejected() {
        // A link serializes its transfers: back-to-back is fine,
        // overlap means two transfers shared the wire.
        let ok = exported(&[link(7, 10.0, 15.0), link(7, 15.0, 20.0)]);
        assert!(check_cluster_plane(&ok, "t.json").is_ok());

        let bad = exported(&[link(7, 10.0, 15.0), link(7, 12.0, 17.0)]);
        let err = check_cluster_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("overlapping link-busy spans"), "{err}");

        // Distinct links carry concurrent transfers — that's the rack.
        let multi = exported(&[link(7, 10.0, 15.0), link(8, 12.0, 17.0)]);
        assert!(check_cluster_plane(&multi, "t.json").is_ok());
    }

    #[test]
    fn corrupt_shard_maps_are_rejected() {
        const FULL: u64 = 1 << 32;
        // A complete two-server map tiles [0, 2^32) exactly.
        let ok = exported(&[shard(1, 0, 0, 1 << 31), shard(1, 1, 1 << 31, FULL)]);
        assert!(check_cluster_plane(&ok, "t.json").is_ok());

        // A gap leaves flows unowned.
        let bad = exported(&[shard(1, 0, 0, 1000), shard(1, 1, 2000, FULL)]);
        let err = check_cluster_plane(&bad, "t.json").expect_err("gap rejected");
        assert!(err.contains("gap"), "{err}");

        // An overlap double-owns flows.
        let bad = exported(&[shard(1, 0, 0, 2000), shard(1, 1, 1000, FULL)]);
        let err = check_cluster_plane(&bad, "t.json").expect_err("overlap rejected");
        assert!(err.contains("overlap"), "{err}");

        // A truncated map does not reach 2^32.
        let bad = exported(&[shard(1, 0, 0, 5000)]);
        let err = check_cluster_plane(&bad, "t.json").expect_err("short map rejected");
        assert!(err.contains("not 2^32"), "{err}");

        // A map starting past zero strands the low hashes.
        let bad = exported(&[shard(1, 0, 5, FULL)]);
        let err = check_cluster_plane(&bad, "t.json").expect_err("late start rejected");
        assert!(err.contains("not 0"), "{err}");

        // Ranges from DIFFERENT epochs never cross-validate: two
        // disjoint-epoch half-maps are two incomplete maps.
        let bad = exported(&[shard(1, 0, 0, 1 << 31), shard(2, 1, 1 << 31, FULL)]);
        assert!(check_cluster_plane(&bad, "t.json").is_err());
    }

    fn slo(ts: f64, epoch: u64, fast_burn: f64, slow_burn: f64, breached: bool) -> Event {
        let kind = EventKind::SloBurn {
            epoch,
            objective: "p99_latency",
            fast_burn,
            slow_burn,
            breached,
        };
        sim(1, ts, ts, kind)
    }

    fn drift(ts: f64, epoch: u64, drift: f64, raised: bool) -> Event {
        let kind = EventKind::ModelDrift {
            epoch,
            predicted_ns: 1000.0,
            observed_ns: 1800.0,
            drift,
            raised,
        };
        sim(1, ts, ts, kind)
    }

    #[test]
    fn health_report_aggregates_verdicts_and_drift() {
        let trace = exported(&[
            slo(10.0, 1, 0.5, 0.2, false),
            slo(20.0, 2, 3.0, 1.5, true),
            drift(10.0, 1, 0.1, false),
            drift(20.0, 2, 0.8, true),
            drift(30.0, 3, 0.9, true),
        ]);
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

    fn point(flow: u32, point: &'static str, server: u32, track: u32, ts: f64) -> Event {
        let kind = EventKind::FlowPoint {
            flow,
            point,
            server,
            packets: 4,
        };
        sim(track, ts, ts, kind)
    }

    /// A session record, a wall-clock instant as `SessionLog` cuts it.
    fn session(state: &'static str, flow: u32, wall_us: u64) -> Event {
        Event {
            wall_ns: wall_us * 1000,
            wall_dur_ns: 0,
            sim: None,
            track: 0,
            batch: 1,
            kind: EventKind::Session {
                state,
                flow,
                packets: 12,
                bytes: 9000,
            },
        }
    }

    #[test]
    fn corrupt_flow_timelines_are_rejected() {
        // In-order points on one lane, plus a clean migrate handover
        // (a same-instant shard on the destination track follows the
        // migrate, and the old server drains a late point), validate.
        let ok = exported(&[
            point(7, "ingress", 0, 1, 10.0),
            point(7, "stage", 0, 1, 20.0),
            point(7, "migrate", 1, 5, 25.0),
            point(7, "shard", 1, 5, 25.0),
            point(7, "egress", 0, 1, 27.0),
            point(7, "egress", 1, 5, 30.0),
        ]);
        assert!(check_flow_plane(&ok, "t.json").is_ok());

        // Time going backwards on one (flow, track) lane is corrupt.
        let bad = exported(&[
            point(7, "stage", 0, 1, 20.0),
            point(7, "ingress", 0, 1, 10.0),
        ]);
        let err = check_flow_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("not time-ordered"), "{err}");

        // A migrate not answered by a same-instant shard on its own
        // track (wrong server, wrong point, or drifted instant) means
        // the two-phase swap leaked state.
        let bad = exported(&[
            point(7, "migrate", 1, 5, 25.0),
            point(7, "shard", 2, 5, 25.0),
        ]);
        let err = check_flow_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("handover"), "{err}");

        // A migrate that is the lane's last word never handed the flow
        // over at all.
        let bad = exported(&[point(7, "migrate", 1, 5, 25.0)]);
        let err = check_flow_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("no handover shard"), "{err}");
    }

    #[test]
    fn session_records_without_a_built_are_rejected() {
        let ok = exported(&[session("built", 9, 10), session("teardown", 9, 20)]);
        assert!(check_flow_plane(&ok, "t.json").is_ok());

        let bad = exported(&[session("deny", 9, 10)]);
        let err = check_flow_plane(&bad, "t.json").expect_err("rejected");
        assert!(err.contains("no preceding built"), "{err}");
    }

    #[test]
    fn flow_timeline_stitches_across_tracks_and_telescopes() {
        // The same flow touches three tracks on two servers; the
        // stitcher orders by simulated time and the consecutive hop
        // deltas sum to the end-to-end latency exactly.
        let trace = exported(&[
            point(0xbeef, "shard", 1, 9, 15.0),
            point(0xbeef, "ingress", 0, 1, 10.0),
            point(0xbeef, "stage", 1, 3, 22.5),
            point(0xbeef, "egress", 1, 9, 41.0),
            point(0xdead, "ingress", 0, 1, 12.0), // other flow
        ]);
        let rows = flow_timeline(&trace, 0xbeef);
        let points: Vec<&str> = rows.iter().map(|r| r.point).collect();
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
}
