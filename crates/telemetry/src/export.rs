//! Trace exporters: Chrome-trace-format JSONL and a Prometheus-style
//! text snapshot.
//!
//! The Chrome exporter writes a valid JSON array with exactly one
//! event object per line, so the file loads in `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev) *and* line-oriented tools can
//! stream it. Two trace "processes" are emitted: pid 1 carries
//! wall-clock (functional-layer) events, pid 2 carries simulated-time
//! (temporal-layer) events; `ResourceName` events become pid-2
//! `thread_name` metadata so resource lanes are labelled.

use crate::event::{Event, EventKind};
use crate::sink::MemorySink;
use std::sync::atomic::{AtomicU32, Ordering};

static EXPORT_SEQ: AtomicU32 = AtomicU32::new(0);

/// Returns the path a concurrent export should write to: the first
/// export in the process uses `path` verbatim, the `n`-th uses
/// `stem.n.ext`, so sweeps that fan out many deployments (fig 6) never
/// clobber one another's traces.
pub fn unique_export_path(path: &str) -> String {
    let seq = EXPORT_SEQ.fetch_add(1, Ordering::Relaxed);
    path_with_seq(path, seq)
}

fn path_with_seq(path: &str, seq: u32) -> String {
    if seq == 0 {
        return path.to_string();
    }
    let dot = match path.rfind('.') {
        Some(i) if i > path.rfind('/').map_or(0, |s| s + 1) => i,
        _ => return format!("{path}.{seq}"),
    };
    format!("{}.{seq}{}", &path[..dot], &path[dot..])
}

/// Formats a float for JSON: shortest round-trip representation, with
/// non-finite values sanitized to `0` (JSON has no NaN/Inf).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Args(Vec<String>);

impl Args {
    fn new() -> Self {
        Args(Vec::new())
    }
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.push(format!("\"{key}\":{}", num(v)));
        self
    }
    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push(format!("\"{key}\":{v}"));
        self
    }
    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.push(format!("\"{key}\":\"{}\"", escape(v)));
        self
    }
    fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

fn args_json(ev: &Event) -> String {
    let mut a = Args::new();
    if ev.sim.is_some() {
        a.int("wall_ns", ev.wall_ns);
    }
    if ev.batch != 0 {
        a.int("batch", ev.batch);
    }
    match &ev.kind {
        EventKind::Stage {
            branch,
            stage,
            name,
            packets,
        } => {
            a.int("branch", u64::from(*branch))
                .int("stage", u64::from(*stage))
                .str("nf", name)
                .int("packets", u64::from(*packets));
        }
        EventKind::Element {
            node,
            name,
            packets_in,
            packets_out,
        } => {
            a.int("node", u64::from(*node))
                .str("element", name)
                .int("packets_in", u64::from(*packets_in))
                .int("packets_out", u64::from(*packets_out));
        }
        EventKind::BatchSplit { node, parts } | EventKind::BatchMerge { node, parts } => {
            a.int("node", u64::from(*node))
                .int("parts", u64::from(*parts));
        }
        EventKind::FlowCacheBatch { hits, misses } => {
            a.int("hits", u64::from(*hits))
                .int("misses", u64::from(*misses));
        }
        EventKind::FlowCacheInvalidate { generation } => {
            a.int("generation", *generation);
        }
        EventKind::KernelLaunch {
            queue,
            user,
            bytes,
            packets,
            kernels,
        } => {
            a.int("queue", u64::from(*queue))
                .int("user", *user)
                .int("bytes", *bytes)
                .int("packets", u64::from(*packets))
                .int("kernels", u64::from(*kernels));
        }
        EventKind::KernelTeardown {
            resource,
            from_user,
            to_user,
            penalty_ns,
        } => {
            a.int("resource", u64::from(*resource))
                .int("from_user", *from_user)
                .int("to_user", *to_user)
                .num("penalty_ns", *penalty_ns);
        }
        EventKind::Dma { to_device, bytes } => {
            a.str("dir", if *to_device { "h2d" } else { "d2h" })
                .int("bytes", *bytes);
        }
        EventKind::SmOccupancy {
            queue,
            occupancy_pct,
        } => {
            a.int("queue", u64::from(*queue))
                .int("occupancy_pct", u64::from(*occupancy_pct));
        }
        EventKind::ResourceBusy {
            resource,
            user,
            queued_ns,
        } => {
            a.int("resource", u64::from(*resource))
                .int("user", *user)
                .num("queued_ns", *queued_ns);
        }
        EventKind::ResourceName { resource, name } => {
            a.int("resource", u64::from(*resource))
                .str("resource_name", name);
        }
        EventKind::PartitionPass {
            algo,
            pass,
            moved,
            cost_before,
            cost_after,
        } => {
            a.str("algo", algo)
                .int("pass", u64::from(*pass))
                .int("moved", u64::from(*moved))
                .num("cost_before", *cost_before)
                .num("cost_after", *cost_after);
        }
        EventKind::PartitionDecision {
            algo,
            stage,
            predicted_cost_ns,
            mean_ratio,
        } => {
            a.str("algo", algo)
                .str("stage", stage)
                .num("predicted_cost_ns", *predicted_cost_ns)
                .num("mean_ratio", *mean_ratio);
        }
        EventKind::ControllerDecision {
            epoch,
            reason,
            stage,
            old_ratio,
            new_ratio,
            swap_ns,
        } => {
            a.int("epoch", *epoch)
                .str("reason", reason)
                .str("stage", stage)
                .num("old_ratio", *old_ratio)
                .num("new_ratio", *new_ratio)
                .num("swap_ns", *swap_ns);
        }
        EventKind::Worker { worker, unit } => {
            a.int("worker", u64::from(*worker))
                .int("unit", u64::from(*unit));
        }
        EventKind::BatchIngress {
            seq,
            packets,
            wire_bytes,
        } => {
            a.int("seq", *seq)
                .int("packets", u64::from(*packets))
                .int("wire_bytes", *wire_bytes);
        }
        EventKind::BatchEgress {
            seq,
            packets,
            bytes,
        } => {
            a.int("seq", *seq)
                .int("packets", u64::from(*packets))
                .int("bytes", *bytes);
        }
        EventKind::BatchAttribution {
            seq,
            e2e_ns,
            compute_ns,
            transfer_ns,
            queue_ns,
            drain_ns,
            merge_wait_ns,
        } => {
            a.int("seq", *seq)
                .num("e2e_ns", *e2e_ns)
                .num("compute_ns", *compute_ns)
                .num("transfer_ns", *transfer_ns)
                .num("queue_ns", *queue_ns)
                .num("drain_ns", *drain_ns)
                .num("merge_wait_ns", *merge_wait_ns);
        }
        EventKind::Epoch { epoch } => {
            a.int("epoch", *epoch);
        }
        EventKind::SloBurn {
            epoch,
            objective,
            fast_burn,
            slow_burn,
            breached,
        } => {
            a.int("epoch", *epoch)
                .str("objective", objective)
                .num("fast_burn", *fast_burn)
                .num("slow_burn", *slow_burn)
                .int("breached", u64::from(*breached));
        }
        EventKind::ModelDrift {
            epoch,
            predicted_ns,
            observed_ns,
            drift,
            raised,
        } => {
            a.int("epoch", *epoch)
                .num("predicted_ns", *predicted_ns)
                .num("observed_ns", *observed_ns)
                .num("drift", *drift)
                .int("raised", u64::from(*raised));
        }
        EventKind::ShardRange {
            epoch,
            server,
            start,
            end,
        } => {
            a.int("epoch", *epoch)
                .int("server", u64::from(*server))
                .int("start", *start)
                .int("end", *end);
        }
        EventKind::LinkTransfer {
            link,
            packets,
            bytes,
        } => {
            a.int("link", u64::from(*link))
                .int("packets", u64::from(*packets))
                .int("bytes", *bytes);
        }
        EventKind::ClusterRebalance {
            epoch,
            from,
            to,
            vnodes,
            migrated_bytes,
            swap_ns,
        } => {
            a.int("epoch", *epoch)
                .int("from", u64::from(*from))
                .int("to", u64::from(*to))
                .int("vnodes", u64::from(*vnodes))
                .int("migrated_bytes", *migrated_bytes)
                .num("swap_ns", *swap_ns);
        }
        EventKind::FlowPoint {
            flow,
            point,
            server,
            packets,
        } => {
            a.int("flow", u64::from(*flow))
                .str("point", point)
                .int("server", u64::from(*server))
                .int("packets", u64::from(*packets));
        }
        EventKind::Session {
            state,
            flow,
            packets,
            bytes,
        } => {
            a.str("state", state)
                .int("flow", u64::from(*flow))
                .int("packets", *packets)
                .int("bytes", *bytes);
        }
        EventKind::FlightDump { reason, events } => {
            a.str("reason", reason).int("events", u64::from(*events));
        }
    }
    a.finish()
}

fn event_line(ev: &Event) -> String {
    let (pid, ts_us, dur_us) = match ev.sim {
        Some(s) => (2, s.start_ns / 1000.0, s.dur_ns() / 1000.0),
        None => (
            1,
            ev.wall_ns as f64 / 1000.0,
            ev.wall_dur_ns as f64 / 1000.0,
        ),
    };
    let name = ev.kind.label();
    let cat = ev.kind.category();
    let tid = ev.track;
    let args = args_json(ev);
    if ev.kind.is_span() {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{},\"dur\":{},\"args\":{args}}}",
            escape(&name),
            num(ts_us),
            num(dur_us)
        )
    } else {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
             \"tid\":{tid},\"ts\":{},\"args\":{args}}}",
            escape(&name),
            num(ts_us)
        )
    }
}

/// Renders events as a Chrome-trace JSON array, one event per line.
/// `dropped` is surfaced as `nfc_dropped_events` metadata.
pub fn chrome_trace(events: &[Event], dropped: u64) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(events.len() + 4);
    lines.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\
         \"args\":{\"name\":\"nfc wall clock (functional layer)\"}}"
            .to_string(),
    );
    lines.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"ts\":0,\
         \"args\":{\"name\":\"nfc simulated time (temporal layer)\"}}"
            .to_string(),
    );
    lines.push(format!(
        "{{\"name\":\"nfc_dropped_events\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\
         \"args\":{{\"dropped\":{dropped}}}}}"
    ));
    for ev in events {
        if let EventKind::ResourceName { resource, name } = &ev.kind {
            lines.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{resource},\
                 \"ts\":0,\"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            ));
        }
    }
    for ev in events {
        if matches!(ev.kind, EventKind::ResourceName { .. }) {
            continue;
        }
        lines.push(event_line(ev));
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Renders the sink as a Prometheus-style text snapshot: counters as
/// `nfc_<name>_total`, histograms as summaries with quantile labels.
pub fn prometheus_snapshot(sink: &MemorySink) -> String {
    let mut out = String::new();
    out.push_str("# nfc-telemetry snapshot\n");
    out.push_str("# TYPE nfc_events_total counter\n");
    out.push_str(&format!("nfc_events_total {}\n", sink.events().len()));
    out.push_str("# TYPE nfc_events_dropped_total counter\n");
    out.push_str(&format!("nfc_events_dropped_total {}\n", sink.dropped()));
    if !sink.dropped_by_category().is_empty() {
        out.push_str("# TYPE nfc_events_dropped counter\n");
        for (cat, n) in sink.dropped_by_category() {
            out.push_str(&format!("nfc_events_dropped{{category=\"{cat}\"}} {n}\n"));
        }
    }
    for (name, v) in sink.counters() {
        out.push_str(&format!("# TYPE nfc_{name}_total counter\n"));
        out.push_str(&format!("nfc_{name}_total {v}\n"));
    }
    for (name, h) in sink.histograms() {
        let ps = h.quantiles(&[0.5, 0.95, 0.99, 0.999]);
        out.push_str(&format!("# TYPE nfc_{name} summary\n"));
        for (q, v) in [
            ("0.5", ps[0]),
            ("0.95", ps[1]),
            ("0.99", ps[2]),
            ("0.999", ps[3]),
        ] {
            out.push_str(&format!("nfc_{name}{{quantile=\"{q}\"}} {}\n", num(v)));
        }
        out.push_str(&format!("nfc_{name}_sum {}\n", num(h.sum())));
        out.push_str(&format!("nfc_{name}_count {}\n", h.count()));
    }
    // Gauges group into families by the name prefix before any `{`
    // label block; one TYPE line per family, values last-write-wins.
    let mut last_family = String::new();
    for (name, v) in sink.gauges() {
        let family = name.split('{').next().unwrap_or(name);
        if family != last_family {
            out.push_str(&format!("# TYPE nfc_{family} gauge\n"));
            last_family = family.to_string();
        }
        out.push_str(&format!("nfc_{name} {}\n", num(*v)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SimStamp;
    use crate::sketch::SKETCH_ALPHA;

    #[test]
    fn path_sequencing_preserves_extension() {
        assert_eq!(path_with_seq("trace.json", 0), "trace.json");
        assert_eq!(path_with_seq("trace.json", 3), "trace.3.json");
        assert_eq!(path_with_seq("out/t.prom", 1), "out/t.1.prom");
        assert_eq!(path_with_seq("noext", 2), "noext.2");
        assert_eq!(path_with_seq(".hidden/t", 1), ".hidden/t.1");
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_is_parseable_json_per_line() {
        let events = vec![
            Event {
                wall_ns: 1_500,
                wall_dur_ns: 2_000,
                sim: None,
                track: 0,
                batch: 0,
                kind: EventKind::Element {
                    node: 3,
                    name: "Acl".into(),
                    packets_in: 256,
                    packets_out: 200,
                },
            },
            Event {
                wall_ns: 4_000,
                wall_dur_ns: 0,
                sim: Some(SimStamp {
                    start_ns: 10_000.0,
                    end_ns: 12_500.0,
                }),
                track: 5,
                batch: 7,
                kind: EventKind::KernelLaunch {
                    queue: 1,
                    user: 2,
                    bytes: 8_192,
                    packets: 128,
                    kernels: 1,
                },
            },
            Event {
                wall_ns: 0,
                wall_dur_ns: 0,
                sim: None,
                track: 0,
                batch: 0,
                kind: EventKind::ResourceName {
                    resource: 5,
                    name: "gpu/ctx1".into(),
                },
            },
        ];
        let body = chrome_trace(&events, 7);
        assert!(body.starts_with("[\n"));
        assert!(body.ends_with("\n]\n"));
        // Every line between the brackets is one JSON object.
        for line in body.lines().skip(1) {
            if line == "]" {
                continue;
            }
            let obj = line.trim_end_matches(',');
            assert!(obj.starts_with('{') && obj.ends_with('}'), "line: {line}");
        }
        assert!(body.contains("\"thread_name\""));
        assert!(body.contains("\"dropped\":7"));
        assert!(body.contains("\"cat\":\"gpu\""));
        // Sim event lands on pid 2 with ts in microseconds.
        assert!(body.contains("\"pid\":2,\"tid\":5,\"ts\":10,\"dur\":2.5"));
        // Lineage tag survives into args.
        assert!(body.contains("\"batch\":7"));
    }

    #[test]
    fn prometheus_snapshot_has_counters_and_quantiles() {
        let mut sink = MemorySink::with_capacity(16);
        sink.add_counter("flow_cache_hits", 42);
        for v in [1.0, 2.0, 3.0, 4.0] {
            sink.observe_ns("batch_latency_ns", v);
        }
        let body = prometheus_snapshot(&sink);
        assert!(body.contains("nfc_flow_cache_hits_total 42"));
        let p50: f64 = body
            .lines()
            .find_map(|l| l.strip_prefix("nfc_batch_latency_ns{quantile=\"0.5\"} "))
            .expect("p50 line")
            .parse()
            .expect("p50 value");
        assert!((p50 - 2.0).abs() / 2.0 <= SKETCH_ALPHA, "p50 {p50}");
        assert!(body.contains("nfc_batch_latency_ns_count 4"));
    }

    #[test]
    fn prometheus_snapshot_gauge_schema_is_stable() {
        // Golden schema for the cluster- and health-plane gauges:
        // families, label sets, and ordering are a published interface
        // (dashboards scrape them), so pin the exact rendered lines.
        let mut sink = MemorySink::with_capacity(16);
        sink.set_gauge("cluster_link_busy_ratio{link=\"link0-rx\"}", 0.25);
        sink.set_gauge("cluster_link_busy_ratio{link=\"link0-tx\"}", 0.125);
        sink.set_gauge("cluster_shard_flows{server=\"0\"}", 48.0);
        sink.set_gauge("health_drift_ratio{quantile=\"0.5\"}", 1.25);
        sink.set_gauge("health_drift_ratio{quantile=\"0.99\"}", 1.5);
        sink.set_gauge("health_e2e_ns{quantile=\"0.5\"}", 1000.0);
        sink.set_gauge("health_e2e_ns{quantile=\"0.95\"}", 2000.0);
        sink.set_gauge("health_e2e_ns{quantile=\"0.99\"}", 3000.0);
        sink.set_gauge("health_e2e_ns{quantile=\"0.999\"}", 4000.0);
        sink.set_gauge("health_model_drift_raised", 1.0);
        sink.set_gauge(
            "health_slo_burn{objective=\"p99_latency\",window=\"fast\"}",
            2.0,
        );
        sink.set_gauge(
            "health_slo_burn{objective=\"p99_latency\",window=\"slow\"}",
            0.5,
        );
        // Last write wins.
        sink.set_gauge("health_model_drift_raised", 0.0);
        let body = prometheus_snapshot(&sink);
        let golden = "\
# TYPE nfc_cluster_link_busy_ratio gauge
nfc_cluster_link_busy_ratio{link=\"link0-rx\"} 0.25
nfc_cluster_link_busy_ratio{link=\"link0-tx\"} 0.125
# TYPE nfc_cluster_shard_flows gauge
nfc_cluster_shard_flows{server=\"0\"} 48
# TYPE nfc_health_drift_ratio gauge
nfc_health_drift_ratio{quantile=\"0.5\"} 1.25
nfc_health_drift_ratio{quantile=\"0.99\"} 1.5
# TYPE nfc_health_e2e_ns gauge
nfc_health_e2e_ns{quantile=\"0.5\"} 1000
nfc_health_e2e_ns{quantile=\"0.95\"} 2000
nfc_health_e2e_ns{quantile=\"0.99\"} 3000
nfc_health_e2e_ns{quantile=\"0.999\"} 4000
# TYPE nfc_health_model_drift_raised gauge
nfc_health_model_drift_raised 0
# TYPE nfc_health_slo_burn gauge
nfc_health_slo_burn{objective=\"p99_latency\",window=\"fast\"} 2
nfc_health_slo_burn{objective=\"p99_latency\",window=\"slow\"} 0.5
";
        assert!(
            body.ends_with(golden),
            "gauge section diverged from golden schema:\n{body}"
        );
    }

    #[test]
    fn prometheus_snapshot_labels_dropped_events_by_category() {
        let mut sink = MemorySink::with_capacity(1);
        for _ in 0..2 {
            sink.record_event(Event {
                wall_ns: 0,
                wall_dur_ns: 0,
                sim: None,
                track: 0,
                batch: 0,
                kind: EventKind::BatchSplit { node: 0, parts: 2 },
            });
        }
        sink.record_event(Event {
            wall_ns: 0,
            wall_dur_ns: 0,
            sim: None,
            track: 0,
            batch: 0,
            kind: EventKind::FlowCacheBatch { hits: 1, misses: 0 },
        });
        let body = prometheus_snapshot(&sink);
        assert!(body.contains("nfc_events_dropped_total 2"));
        assert!(body.contains("nfc_events_dropped{category=\"batch\"} 1"));
        assert!(body.contains("nfc_events_dropped{category=\"flow-cache\"} 1"));
    }
}
