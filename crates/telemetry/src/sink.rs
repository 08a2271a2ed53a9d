//! Telemetry sinks, the shared handle, and the per-run session.
//!
//! The flow is: a [`Telemetry`] session is created from a
//! [`TelemetryMode`]; instrumented code clones its
//! cheap [`TelemetryHandle`] and obtains per-worker
//! [`Recorder`]s from it; after parallel sections join,
//! recorders are absorbed into the session's [`MemorySink`] in
//! deterministic order; [`Telemetry::finish`] exports the sink (Chrome
//! trace or Prometheus snapshot) and returns a [`TelemetrySummary`].

use crate::event::{Event, EventKind};
use crate::export;
use crate::ring::{Recorder, DEFAULT_RING_CAPACITY};
use crate::sketch::QuantileSketch;
use crate::TelemetryMode;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Default maximum events retained by a [`MemorySink`].
pub const DEFAULT_SINK_CAPACITY: usize = 1 << 20;

/// The in-memory sink backing every telemetry session: a bounded event
/// store plus derived counters and histograms.
#[derive(Debug, Default)]
pub struct MemorySink {
    capacity: usize,
    events: Vec<Event>,
    dropped: u64,
    dropped_by_cat: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, QuantileSketch>,
    gauges: BTreeMap<String, f64>,
}

impl MemorySink {
    /// A sink retaining at most `capacity` events (counters and
    /// histograms are unaffected by the cap).
    pub fn with_capacity(capacity: usize) -> Self {
        MemorySink {
            capacity: capacity.max(1),
            ..MemorySink::default()
        }
    }

    /// Absorbs a recorder: stores its events and folds each event into
    /// the derived counters/histograms.
    pub fn absorb_recorder(&mut self, rec: Recorder) {
        self.dropped += rec.dropped();
        for (cat, n) in rec.dropped_by_category() {
            *self.dropped_by_cat.entry(cat).or_insert(0) += n;
        }
        for ev in rec.into_events() {
            self.derive(&ev);
            self.record_event(ev);
        }
    }

    fn derive(&mut self, ev: &Event) {
        match &ev.kind {
            EventKind::Stage { .. } => {
                self.add_counter("stages_executed", 1);
                self.observe_ns("stage_wall_ns", ev.wall_dur_ns as f64);
            }
            EventKind::Element { packets_in, .. } => {
                self.add_counter("elements_executed", 1);
                self.add_counter("element_packets_in", u64::from(*packets_in));
            }
            EventKind::BatchSplit { .. } => self.add_counter("batch_splits", 1),
            EventKind::BatchMerge { .. } => self.add_counter("batch_merges", 1),
            EventKind::FlowCacheBatch { hits, misses } => {
                self.add_counter("flow_cache_hits", u64::from(*hits));
                self.add_counter("flow_cache_misses", u64::from(*misses));
            }
            EventKind::FlowCacheInvalidate { .. } => {
                self.add_counter("flow_cache_invalidations", 1)
            }
            EventKind::KernelLaunch { .. } => {
                self.add_counter("gpu_kernel_launches", 1);
                if let Some(sim) = ev.sim {
                    self.observe_ns("gpu_kernel_sim_ns", sim.dur_ns());
                }
            }
            EventKind::KernelTeardown { .. } => self.add_counter("gpu_context_switches", 1),
            EventKind::Dma { to_device, bytes } => {
                let name = if *to_device {
                    "dma_h2d_bytes"
                } else {
                    "dma_d2h_bytes"
                };
                self.add_counter(name, *bytes);
            }
            EventKind::SmOccupancy { occupancy_pct, .. } => {
                self.observe_ns("sm_occupancy_pct", f64::from(*occupancy_pct));
            }
            EventKind::ResourceBusy { .. } => self.add_counter("resource_busy_events", 1),
            EventKind::ResourceName { .. } => {}
            EventKind::PartitionPass { moved, .. } => {
                self.add_counter("partition_passes", 1);
                self.add_counter("partition_moves", u64::from(*moved));
            }
            EventKind::PartitionDecision { .. } => self.add_counter("partition_decisions", 1),
            EventKind::ControllerDecision {
                swap_ns,
                old_ratio,
                new_ratio,
                ..
            } => {
                self.add_counter("controller_decisions", 1);
                if *swap_ns > 0.0 || old_ratio != new_ratio {
                    self.add_counter("controller_swaps", 1);
                }
                self.observe_ns("controller_swap_ns", *swap_ns);
            }
            EventKind::Worker { .. } => {
                self.add_counter("worker_units", 1);
                self.observe_ns("worker_unit_wall_ns", ev.wall_dur_ns as f64);
            }
            EventKind::BatchIngress { packets, .. } => {
                self.add_counter("batches_ingress", 1);
                self.add_counter("packets_ingress", u64::from(*packets));
            }
            EventKind::BatchEgress { packets, .. } => {
                self.add_counter("batches_egress", 1);
                self.add_counter("packets_egress", u64::from(*packets));
            }
            EventKind::BatchAttribution {
                e2e_ns,
                compute_ns,
                transfer_ns,
                queue_ns,
                drain_ns,
                merge_wait_ns,
                ..
            } => {
                self.add_counter("attributed_batches", 1);
                self.observe_ns("attr_e2e_ns", *e2e_ns);
                self.observe_ns("attr_compute_ns", *compute_ns);
                self.observe_ns("attr_transfer_ns", *transfer_ns);
                self.observe_ns("attr_queue_ns", *queue_ns);
                self.observe_ns("attr_drain_ns", *drain_ns);
                self.observe_ns("attr_merge_wait_ns", *merge_wait_ns);
            }
            EventKind::Epoch { .. } => self.add_counter("controller_epochs", 1),
            EventKind::SloBurn { breached, .. } => {
                self.add_counter("slo_burn_verdicts", 1);
                if *breached {
                    self.add_counter("slo_breaches", 1);
                }
            }
            EventKind::ModelDrift { drift, raised, .. } => {
                self.add_counter("model_drift_verdicts", 1);
                if *raised {
                    self.add_counter("model_drift_raised", 1);
                }
                self.observe_ns("model_drift_pct", drift * 100.0);
            }
            EventKind::ShardRange { .. } => self.add_counter("cluster_shard_ranges", 1),
            EventKind::LinkTransfer { packets, bytes, .. } => {
                self.add_counter("cluster_link_transfers", 1);
                self.add_counter("cluster_link_packets", u64::from(*packets));
                self.add_counter("cluster_link_bytes", *bytes);
                if let Some(sim) = ev.sim {
                    self.observe_ns("cluster_link_sim_ns", sim.dur_ns());
                }
            }
            EventKind::ClusterRebalance {
                migrated_bytes,
                swap_ns,
                ..
            } => {
                self.add_counter("cluster_rebalances", 1);
                self.add_counter("cluster_migrated_bytes", *migrated_bytes);
                self.observe_ns("cluster_swap_ns", *swap_ns);
            }
            EventKind::FlowPoint { .. } => self.add_counter("flow_points", 1),
            EventKind::Session { state, bytes, .. } => {
                match *state {
                    "built" => self.add_counter("sessions_built", 1),
                    "teardown" => self.add_counter("sessions_teardown", 1),
                    _ => self.add_counter("sessions_denied", 1),
                }
                self.add_counter("session_bytes", *bytes);
            }
            EventKind::FlightDump { .. } => self.add_counter("flight_dumps", 1),
        }
    }

    /// Stored events, in absorption order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events dropped by ring overwrite or the sink cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Dropped events split by the dropped event's category.
    pub fn dropped_by_category(&self) -> &BTreeMap<&'static str, u64> {
        &self.dropped_by_cat
    }

    /// Derived monotonic counters.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Derived and observed histograms.
    pub fn histograms(&self) -> &BTreeMap<&'static str, QuantileSketch> {
        &self.histograms
    }

    /// Sets a last-write-wins gauge. Names may carry Prometheus-style
    /// labels, e.g. `health_e2e_ns{quantile="0.99"}`; everything before
    /// the first `{` is the metric family.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Last-write-wins gauges, sorted by full labelled name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Stores one event, or counts it as dropped once the sink holds
    /// `capacity` events.
    pub fn record_event(&mut self, event: Event) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            *self
                .dropped_by_cat
                .entry(event.kind.category())
                .or_insert(0) += 1;
            return;
        }
        self.events.push(event);
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Records one observation into the named histogram.
    pub fn observe_ns(&mut self, name: &'static str, value_ns: f64) {
        self.histograms.entry(name).or_default().record(value_ns);
    }
}

#[derive(Debug)]
struct Shared {
    ring_capacity: usize,
    sink: Mutex<MemorySink>,
}

/// Cheap cloneable handle to a telemetry session; the disabled handle
/// is a `None` and costs one branch per use.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle(Option<Arc<Shared>>);

impl TelemetryHandle {
    /// The no-op handle.
    pub fn disabled() -> Self {
        TelemetryHandle(None)
    }

    /// Whether a live session backs this handle.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// A fresh recorder: enabled (with the session's ring capacity)
    /// when the session is live, [`Recorder::disabled`] otherwise.
    pub fn recorder(&self) -> Recorder {
        match &self.0 {
            Some(shared) => Recorder::with_capacity(shared.ring_capacity),
            None => Recorder::disabled(),
        }
    }

    /// Absorbs a recorder into the session sink. Callers must absorb in
    /// a deterministic order (input-index order after a parallel join).
    pub fn absorb(&self, rec: Recorder) {
        if let Some(shared) = &self.0 {
            shared
                .sink
                .lock()
                .expect("telemetry sink")
                .absorb_recorder(rec);
        }
    }

    /// Adds to a named counter on the session sink.
    pub fn add_counter(&self, name: &'static str, delta: u64) {
        if let Some(shared) = &self.0 {
            shared
                .sink
                .lock()
                .expect("telemetry sink")
                .add_counter(name, delta);
        }
    }

    /// Records one histogram observation on the session sink.
    pub fn observe_ns(&self, name: &'static str, value_ns: f64) {
        if let Some(shared) = &self.0 {
            shared
                .sink
                .lock()
                .expect("telemetry sink")
                .observe_ns(name, value_ns);
        }
    }

    /// Sets a last-write-wins gauge on the session sink (used by the
    /// health plane to publish live sketch quantiles and burn state).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(shared) = &self.0 {
            shared
                .sink
                .lock()
                .expect("telemetry sink")
                .set_gauge(name, value);
        }
    }
}

/// A per-run telemetry session.
#[derive(Debug)]
pub struct Telemetry {
    mode: TelemetryMode,
    shared: Option<Arc<Shared>>,
}

impl Telemetry {
    /// Creates a session for `mode`; [`TelemetryMode::Off`] yields an
    /// inert session whose handles are all disabled.
    pub fn new(mode: TelemetryMode) -> Self {
        let shared = if mode.is_on() {
            Some(Arc::new(Shared {
                ring_capacity: DEFAULT_RING_CAPACITY,
                sink: Mutex::new(MemorySink::with_capacity(DEFAULT_SINK_CAPACITY)),
            }))
        } else {
            None
        };
        Telemetry { mode, shared }
    }

    /// A handle for instrumented code.
    pub fn handle(&self) -> TelemetryHandle {
        TelemetryHandle(self.shared.clone())
    }

    /// Finishes the session: exports the trace when the mode requests a
    /// file, and returns a summary (`None` when telemetry is off).
    /// Export failures are reported to stderr, never panicked on.
    pub fn finish(self) -> Option<TelemetrySummary> {
        let shared = self.shared?;
        let sink = std::mem::take(&mut *shared.sink.lock().expect("telemetry sink"));
        let mut export_path = None;
        if let TelemetryMode::Export { path } = &self.mode {
            let path = export::unique_export_path(path);
            let body = if path.ends_with(".prom") {
                export::prometheus_snapshot(&sink)
            } else {
                export::chrome_trace(sink.events(), sink.dropped())
            };
            match std::fs::write(&path, body) {
                Ok(()) => export_path = Some(path),
                Err(e) => eprintln!("nfc-telemetry: failed to write {path}: {e}"),
            }
        }
        Some(TelemetrySummary::from_sink(sink, export_path))
    }
}

/// Five-number summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Exact maximum.
    pub max: f64,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    pub fn of(h: &QuantileSketch) -> Self {
        let ps = h.quantiles(&[0.5, 0.95, 0.99, 0.999]);
        HistogramSummary {
            count: h.count(),
            mean: h.mean(),
            p50: ps[0],
            p95: ps[1],
            p99: ps[2],
            p999: ps[3],
            max: h.max(),
        }
    }
}

/// End-of-run telemetry digest, attached to `RunOutcome` when telemetry
/// was enabled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySummary {
    /// Events retained by the sink.
    pub events: u64,
    /// Events dropped (ring overwrite or sink cap).
    pub dropped: u64,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram digests, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Last-write-wins gauges (labelled names), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Path the trace/snapshot was written to, when exporting.
    pub export_path: Option<String>,
    /// The retained event stream itself, so in-process consumers (the
    /// attribution module, tests) can analyse a run without re-parsing
    /// an exported file.
    pub trace: Vec<Event>,
}

impl TelemetrySummary {
    fn from_sink(sink: MemorySink, export_path: Option<String>) -> Self {
        TelemetrySummary {
            events: sink.events().len() as u64,
            dropped: sink.dropped(),
            counters: sink
                .counters()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: sink
                .histograms()
                .iter()
                .map(|(k, h)| (k.to_string(), HistogramSummary::of(h)))
                .collect(),
            gauges: sink.gauges().iter().map(|(k, v)| (k.clone(), *v)).collect(),
            export_path,
            trace: sink.events,
        }
    }

    /// Looks up a counter by name (`0` when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Looks up a gauge by its full labelled name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = TelemetryHandle::disabled();
        assert!(!h.is_enabled());
        assert!(!h.recorder().is_enabled());
        h.add_counter("x", 1);
        h.observe_ns("y", 1.0);
        h.absorb(Recorder::disabled());
    }

    #[test]
    fn session_derives_counters_from_events() {
        let tel = Telemetry::new(TelemetryMode::Memory);
        let handle = tel.handle();
        let mut rec = handle.recorder();
        assert!(rec.is_enabled());
        rec.instant(EventKind::FlowCacheBatch {
            hits: 200,
            misses: 56,
        });
        rec.instant(EventKind::FlowCacheInvalidate { generation: 1 });
        rec.sim_span(
            3,
            10.0,
            42.0,
            EventKind::KernelLaunch {
                queue: 0,
                user: 7,
                bytes: 4096,
                packets: 256,
                kernels: 1,
            },
        );
        handle.absorb(rec);
        handle.observe_ns("batch_latency_ns", 1234.0);
        let s = tel.finish().expect("enabled session summarizes");
        assert_eq!(s.events, 3);
        assert_eq!(s.counter("flow_cache_hits"), 200);
        assert_eq!(s.counter("flow_cache_misses"), 56);
        assert_eq!(s.counter("flow_cache_invalidations"), 1);
        assert_eq!(s.counter("gpu_kernel_launches"), 1);
        let (name, hist) = s
            .histograms
            .iter()
            .find(|(n, _)| n == "batch_latency_ns")
            .expect("observed histogram present");
        assert_eq!(name, "batch_latency_ns");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.max, 1234.0);
        assert!(s.export_path.is_none());
    }

    #[test]
    fn off_session_finishes_to_none() {
        let tel = Telemetry::new(TelemetryMode::Off);
        assert!(!tel.handle().is_enabled());
        assert!(tel.finish().is_none());
    }

    #[test]
    fn sink_cap_drops_excess_events() {
        let mut sink = MemorySink::with_capacity(2);
        for _ in 0..5 {
            sink.record_event(Event {
                wall_ns: 0,
                wall_dur_ns: 0,
                sim: None,
                track: 0,
                batch: 0,
                kind: EventKind::BatchSplit { node: 0, parts: 2 },
            });
        }
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.dropped(), 3);
    }
}
