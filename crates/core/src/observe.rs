//! The batch pipeline's one observer.
//!
//! `PreparedSfc::process_batch` carries only the work. While it replays
//! a batch it fills a [`BatchTimeline`] (only while an observer is
//! armed, so the disarmed path allocates nothing) and hands it to the
//! chain's [`Observer`], which owns every plane that reads it: latency
//! attribution, the health plane (SLO burn windows, drift watchdog,
//! gauges, controller signal) and flow forensics (sampler, per-flow
//! stamps, flight ring). Flow and health events leave through one emit
//! path, [`emit`], so the flight ring holds true copies of main-trace
//! events. The planes read simulated timestamps of the sequential replay
//! and only ever emit telemetry: egress, statistics and the simulated
//! timeline are bit-identical with any of them armed or disarmed.

use crate::runtime::{PlatformResources, StageExec};
use nfc_control::HealthSignal;
use nfc_hetero::PipelineSim;
use nfc_packet::{Batch, FlowKey};
use nfc_telemetry::{
    DriftWatchdog, EventKind, FlightRecorder, FlowSampler, HealthState, QuantileSketch, SloSpec,
    TelemetryHandle, DEFAULT_FLIGHT_CAPACITY,
};

/// A `(start, end)` interval on the simulated clock, ns.
pub(crate) type Span = (f64, f64);

/// One stage's placement on a batch's simulated timeline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageSpan {
    /// The stage's CPU resource lane.
    pub track: u32,
    /// When the stage's input was ready.
    pub start: f64,
    pub cpu: Span,
    /// The h2d → kernel → d2h chain when the stage offloaded.
    pub gpu: Option<[Span; 3]>,
    /// Ordered release once both sides finished.
    pub release: f64,
}

/// Where one batch went on the simulated timeline.
#[derive(Debug, Default)]
pub(crate) struct BatchTimeline {
    pub seq: u64,
    pub mean_arrival: f64,
    pub io: Span,
    pub split: Option<Span>,
    /// Every stage, branch-major; empty while no observer is armed.
    pub stages: Vec<StageSpan>,
    /// How many leading `stages` belong to branch 0, the reference
    /// chain of the bucket decomposition.
    pub branch0: usize,
    /// When the slowest branch released the join.
    pub t_join: f64,
    pub merge: Option<Span>,
    /// Egress I/O; its end is the batch's completion.
    pub egress: Span,
}

impl BatchTimeline {
    /// When the branches received the batch (after ingress and split).
    fn dispatched(&self) -> f64 {
        self.split.map_or(self.io.1, |s| s.1)
    }
}

/// Health-plane state. Epochs close every [`SloSpec::epoch_batches`]
/// processed batches, independent of the adaptive controller's cadence.
struct HealthPlane {
    state: HealthState,
    watchdog: DriftWatchdog,
    /// End-to-end batch latency, ns, over the whole run.
    e2e: QuantileSketch,
    epoch: u64,
    since_epoch: usize,
    /// Epochs with a raised drift verdict (gauge).
    drift_raised: u64,
    /// The strongest breach/drift signal since the last drain. The
    /// controller's detector acts only on the first maximum of what it
    /// is handed, so holding just that one leaves its decisions
    /// unchanged and keeps memory bounded when nothing drains.
    pending: Option<HealthSignal>,
}

impl HealthPlane {
    fn signal(&mut self, metric: &'static str, drift: f64) {
        if drift.is_finite() && self.pending.is_none_or(|p| drift > p.drift) {
            self.pending = Some(HealthSignal { metric, drift });
        }
    }
}

/// Everything a prepared chain holds only to observe its batches.
pub(crate) struct Observer {
    tel: TelemetryHandle,
    /// `None` when no SLO is armed.
    health: Option<HealthPlane>,
    sampler: FlowSampler,
    /// Recent flow and health events, dumped on the first SLO breach or
    /// drift raise per reason (`Some` only while the sampler is armed).
    flight: Option<FlightRecorder>,
    /// Server id in a multi-server rack: stamped into flow points and
    /// labelled onto health gauges (`None`: flow points say server 0).
    server: Option<u32>,
    /// Windows of live reconfigurations; waiting that overlaps them is
    /// attributed to `drain`, not queueing.
    swap_spans: Vec<Span>,
    /// The current batch's sampled flows with their packet counts, its
    /// pre-dispatch cache probes `(stage, flow, packets, hit)`, and
    /// whether its headers are gathered into lanes.
    flows: Vec<(FlowKey, u32)>,
    probes: Vec<(usize, u32, u32, bool)>,
    lanes: bool,
}

impl Observer {
    /// Arms the planes once: health when an SLO is set, forensics when
    /// a sampling rate is set and the telemetry session is live (the
    /// flight ring only ever holds copies of recorded events).
    pub(crate) fn new(
        slo: Option<SloSpec>,
        flow_trace: u32,
        flight_stem: Option<&str>,
        tel: &TelemetryHandle,
    ) -> Self {
        let rate = if tel.is_enabled() { flow_trace } else { 0 };
        Observer {
            tel: tel.clone(),
            health: slo.map(|spec| HealthPlane {
                state: HealthState::new(spec),
                watchdog: DriftWatchdog::new(spec.drift_threshold, spec.drift_hysteresis_epochs),
                e2e: QuantileSketch::new(),
                epoch: 0,
                since_epoch: 0,
                drift_raised: 0,
                pending: None,
            }),
            sampler: FlowSampler::new(rate),
            flight: (rate != 0).then(|| match flight_stem {
                Some(stem) => FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY, stem),
                None => FlightRecorder::from_env(),
            }),
            server: None,
            swap_spans: Vec::new(),
            flows: Vec::new(),
            probes: Vec::new(),
            lanes: false,
        }
    }

    /// Whether a batch's timeline has a reader: the trace while
    /// recording, the drift watchdog while the health plane is armed
    /// (controller decisions must not depend on the telemetry mode).
    pub(crate) fn armed(&self, recording: bool) -> bool {
        recording || self.health.is_some()
    }

    pub(crate) fn set_server(&mut self, server: u32) {
        self.server = Some(server);
    }

    pub(crate) fn sampled(&self, hash: u32) -> bool {
        self.sampler.sampled(hash)
    }

    pub(crate) fn take_signal(&mut self) -> Option<HealthSignal> {
        self.health.as_mut().and_then(|h| h.pending.take())
    }

    /// Records a live reconfiguration window, merged into the previous
    /// one when they overlap.
    pub(crate) fn note_swap(&mut self, start: f64, end: f64) {
        match self.swap_spans.last_mut() {
            Some(last) if last.1 >= start => last.1 = last.1.max(end),
            _ => self.swap_spans.push((start, end)),
        }
    }

    /// Before dispatch: finds the batch's sampled flows and probes every
    /// cached stage for them without touching counters or CLOCK bits.
    /// It cannot wait for the timeline: the functional phase inserts the
    /// flows it probes.
    pub(crate) fn probe(&mut self, batch: &Batch, stages: &[Vec<StageExec>], recording: bool) {
        self.flows.clear();
        self.probes.clear();
        if !recording || !self.sampler.armed() {
            return;
        }
        for p in batch.iter() {
            if !self.sampler.sampled(p.meta.flow_hash) {
                continue;
            }
            if let Ok(key) = FlowKey::of(p) {
                match self.flows.iter_mut().find(|(k, _)| k.hash() == key.hash()) {
                    Some((_, n)) => *n += 1,
                    None => self.flows.push((key, 1)),
                }
            }
        }
        for (si, stage) in stages.iter().flatten().enumerate() {
            if let Some(cache) = stage.flow_cache.as_ref() {
                for (k, n) in &self.flows {
                    self.probes.push((si, k.hash(), *n, cache.probe(k)));
                }
            }
        }
        // Lanes are gathered when the first stage sweeps them (at
        // ingress for shared CoW branches, inside that stage otherwise).
        self.lanes = stages
            .first()
            .and_then(|b| b.first())
            .is_some_and(|s| s.run.lanes());
    }

    /// A completed batch: stamps its sampled flows, attributes its
    /// latency, ends its lineage tag (health verdicts belong to the
    /// epoch, not the batch) and feeds the health plane.
    pub(crate) fn completed(
        &mut self,
        sim: &mut PipelineSim,
        res: &PlatformResources,
        tl: &BatchTimeline,
        out: &Batch,
    ) {
        self.stamp_flows(sim, res, tl, out);
        self.attribute(sim, res, tl, out);
        sim.recorder_mut().set_batch(0);
        let completed = tl.egress.1;
        if let Some(h) = &mut self.health {
            let e2e = completed - tl.mean_arrival;
            h.state
                .observe_batch(e2e, out.total_bytes() as u64, tl.mean_arrival, completed);
            h.e2e.record(e2e);
        }
        self.close_health_epoch(sim, res, completed);
    }

    /// A batch tail-dropped at ingress at `arrival`.
    pub(crate) fn dropped(&mut self, sim: &mut PipelineSim, res: &PlatformResources, arrival: f64) {
        if let Some(h) = &mut self.health {
            h.state.observe_drop();
        }
        self.close_health_epoch(sim, res, arrival);
    }

    /// Emits one flow-forensics instant for a sampled flow.
    pub(crate) fn stamp(
        &mut self,
        sim: &mut PipelineSim,
        track: u32,
        at: f64,
        flow: u32,
        point: &'static str,
        packets: u32,
    ) {
        if self.sampler.armed() {
            let server = self.server.unwrap_or(0);
            let kind = EventKind::FlowPoint {
                flow,
                point,
                server,
                packets,
            };
            emit(&mut self.flight, sim, track, at, kind);
        }
    }

    /// One pass over the timeline for the batch's sampled flows, in
    /// pipeline order: ingress, lanes, then per stage the cache probe at
    /// its start, the kernel end when it offloaded and its release, then
    /// merge and egress. Egress recounts each flow from the egress batch,
    /// so an enforced drop shows as a shrunk packet count.
    fn stamp_flows(
        &mut self,
        sim: &mut PipelineSim,
        res: &PlatformResources,
        tl: &BatchTimeline,
        out: &Batch,
    ) {
        let flows = std::mem::take(&mut self.flows);
        let probes = std::mem::take(&mut self.probes);
        let (rx, tx) = (res.io_rx.index() as u32, res.io_tx.index() as u32);
        for &(k, n) in &flows {
            self.stamp(sim, rx, tl.mean_arrival, k.hash(), "ingress", n);
        }
        let lanes = self.lanes;
        for &(k, n) in flows.iter().filter(|_| lanes) {
            self.stamp(sim, rx, tl.dispatched(), k.hash(), "lanes", n);
        }
        for (si, s) in tl.stages.iter().enumerate() {
            for &(_, flow, n, hit) in probes.iter().filter(|p| p.0 == si) {
                let point = if hit { "cache_hit" } else { "cache_miss" };
                self.stamp(sim, s.track, s.start, flow, point, n);
            }
            for &(k, n) in &flows {
                if let Some([_, kernel, _]) = s.gpu {
                    self.stamp(sim, s.track, kernel.1, k.hash(), "kernel", n);
                }
                self.stamp(sim, s.track, s.release, k.hash(), "stage", n);
            }
        }
        if let Some(m) = tl.merge {
            for &(k, n) in &flows {
                self.stamp(sim, tx, m.1, k.hash(), "merge", n);
            }
        }
        for &(k, _) in &flows {
            let n_out = out.iter().filter(|p| p.meta.flow_hash == k.hash()).count() as u32;
            self.stamp(sim, tx, tl.egress.1, k.hash(), "egress", n_out);
        }
        (self.flows, self.probes) = (flows, probes);
    }

    /// The five-bucket latency decomposition of one completed batch:
    /// feeds the drift watchdog and, only while recording, emits the
    /// egress and attribution instants. Walks the reference chain
    /// (ingress I/O → split → branch-0 dominating spans → join → merge →
    /// egress I/O): busy time lands in compute or transfer, the merge
    /// barrier is charged as `merge_wait`, gap time overlapping a live
    /// reconfiguration window becomes `drain`, and queueing is the exact
    /// residual, so the buckets reconstruct the end-to-end latency.
    fn attribute(
        &mut self,
        sim: &mut PipelineSim,
        res: &PlatformResources,
        tl: &BatchTimeline,
        out: &Batch,
    ) {
        let recording = sim.recorder_mut().is_enabled();
        let completed = tl.egress.1;
        let e2e = completed - tl.mean_arrival;
        let mut compute = 0.0f64;
        let mut transfer = 0.0f64;
        // Gaps only ever become `drain`, a recorded bucket.
        let mut gaps: Vec<Span> = Vec::new();
        let mut frontier = tl.mean_arrival;
        let mut walk = |span: Span, is_transfer: bool, frontier: &mut f64| {
            if recording && span.0 > *frontier {
                gaps.push((*frontier, span.0));
            }
            if is_transfer {
                transfer += span.1 - span.0;
            } else {
                compute += span.1 - span.0;
            }
            *frontier = span.1;
        };
        walk(tl.io, false, &mut frontier);
        if let Some(s) = tl.split {
            walk(s, false, &mut frontier);
        }
        let branch0 = &tl.stages[..tl.branch0];
        for s in branch0 {
            // A stage's latency contribution follows whichever side
            // released last: the PCIe/kernel chain when the device was
            // the straggler, the CPU span otherwise.
            match s.gpu {
                Some([h, k, d]) if d.1 >= s.cpu.1 => {
                    walk(h, true, &mut frontier);
                    walk(k, false, &mut frontier);
                    walk(d, true, &mut frontier);
                }
                _ => walk(s.cpu, false, &mut frontier),
            }
        }
        // The merge barrier: branch 0's output sat from its own finish
        // until the slowest sibling released the join.
        let t_b0 = branch0.last().map_or(tl.dispatched(), |s| s.release);
        let merge_wait = tl.t_join - t_b0;
        frontier = tl.t_join;
        if let Some(m) = tl.merge {
            walk(m, false, &mut frontier);
        }
        walk(tl.egress, false, &mut frontier);
        // Drift watchdog: the model's prediction for this batch is the
        // busy time it generated (compute + transfer); everything else
        // (queueing, merge barriers, drain) is emergent platform
        // behaviour the model must have budgeted for.
        if let Some(h) = &mut self.health {
            h.watchdog.observe(compute + transfer, e2e);
        }
        if !recording {
            return;
        }
        // Gap time spent behind an in-flight reconfiguration is drain;
        // prune spans that can no longer overlap any future batch.
        self.swap_spans.retain(|&(_, se)| se > tl.mean_arrival);
        let mut drain = 0.0f64;
        for &(gs, ge) in &gaps {
            for &(ss, se) in &self.swap_spans {
                let lo = gs.max(ss);
                let hi = ge.min(se);
                if hi > lo {
                    drain += hi - lo;
                }
            }
        }
        // Queueing is the residual, so the five buckets telescope to
        // the end-to-end latency exactly (modulo float rounding).
        let queue = (e2e - compute - transfer - merge_wait - drain).max(0.0);
        let rec = sim.recorder_mut();
        let tx = res.io_tx.index() as u32;
        rec.sim_instant(
            tx,
            completed,
            EventKind::BatchEgress {
                seq: tl.seq,
                packets: out.len() as u32,
                bytes: out.total_bytes() as u64,
            },
        );
        rec.sim_instant(
            tx,
            completed,
            EventKind::BatchAttribution {
                seq: tl.seq,
                e2e_ns: e2e,
                compute_ns: compute,
                transfer_ns: transfer,
                queue_ns: queue,
                drain_ns: drain,
                merge_wait_ns: merge_wait,
            },
        );
    }

    /// Counts one processed batch toward the health epoch and, at its
    /// boundary, closes it: evaluates the SLO burn rates and the drift
    /// watchdog, keeps the controller signal for breaches and raises,
    /// and (while recording) emits the `health`-category instants, dumps
    /// the flight ring on the first breach per reason and publishes the
    /// gauges — labelled with the server id in a multi-server rack, so
    /// the servers' series stay apart.
    fn close_health_epoch(&mut self, sim: &mut PipelineSim, res: &PlatformResources, now: f64) {
        let Some(h) = &mut self.health else {
            return;
        };
        h.since_epoch += 1;
        if h.since_epoch < h.state.spec().epoch_batches.max(1) {
            return;
        }
        h.since_epoch = 0;
        h.epoch += 1;
        let epoch = h.epoch;
        let verdicts = h.state.epoch();
        let drift = h.watchdog.epoch();
        let recording = sim.recorder_mut().is_enabled();
        let tx = res.io_tx.index() as u32;
        let server = self
            .server
            .map_or(String::new(), |s| format!(",server=\"{s}\""));
        let gauge = |name: String, value: f64| self.tel.set_gauge(&name, value);
        for v in &verdicts {
            if v.breached {
                h.signal(slo_signal_metric(v.objective), v.fast_burn);
            }
            if recording {
                let kind = EventKind::SloBurn {
                    epoch,
                    objective: v.objective,
                    fast_burn: v.fast_burn,
                    slow_burn: v.slow_burn,
                    breached: v.breached,
                };
                emit(&mut self.flight, sim, tx, now, kind);
                if v.breached {
                    dump(&mut self.flight, sim, tx, now, "slo_burn");
                }
                for (window, burn) in [("fast", v.fast_burn), ("slow", v.slow_burn)] {
                    let objective = v.objective;
                    gauge(
                        format!("health_slo_burn{{objective=\"{objective}\",window=\"{window}\"{server}}}"),
                        burn,
                    );
                }
            }
        }
        if let Some(d) = &drift {
            if d.raised {
                h.drift_raised += 1;
                h.signal("model_drift", d.drift);
            }
            if recording {
                let kind = EventKind::ModelDrift {
                    epoch,
                    predicted_ns: d.predicted_ns,
                    observed_ns: d.observed_ns,
                    drift: d.drift,
                    raised: d.raised,
                };
                emit(&mut self.flight, sim, tx, now, kind);
                if d.raised {
                    dump(&mut self.flight, sim, tx, now, "model_drift");
                }
            }
        }
        if !recording {
            return;
        }
        if h.e2e.count() > 0 {
            for q in [0.5, 0.95, 0.99, 0.999] {
                let name = format!("health_e2e_ns{{quantile=\"{q}\"{server}}}");
                gauge(name, h.e2e.quantile(q));
            }
        }
        let ratios = h.watchdog.ratios();
        if ratios.count() > 0 {
            for q in [0.5, 0.99] {
                let name = format!("health_drift_ratio{{quantile=\"{q}\"{server}}}");
                gauge(name, ratios.quantile(q));
            }
        }
        let name = match self.server {
            Some(s) => format!("health_model_drift_raised{{server=\"{s}\"}}"),
            None => "health_model_drift_raised".to_string(),
        };
        gauge(name, h.drift_raised as f64);
    }
}

/// The one emit path of the flow and health planes: records the instant
/// on the simulator's recorder and, when the flight ring is armed,
/// copies that same event into it.
fn emit(
    flight: &mut Option<FlightRecorder>,
    sim: &mut PipelineSim,
    track: u32,
    at: f64,
    kind: EventKind,
) {
    let rec = sim.recorder_mut();
    if !rec.is_enabled() {
        return;
    }
    rec.sim_instant(track, at, kind);
    if let (Some(flight), Some(ev)) = (flight.as_mut(), rec.last()) {
        flight.record(ev.clone());
    }
}

/// Dumps the flight ring as a postmortem trace for `reason` (first
/// occurrence per reason only) and emits a `flight_dump` instant naming
/// the file's evidence size.
fn dump(
    flight: &mut Option<FlightRecorder>,
    sim: &mut PipelineSim,
    track: u32,
    at: f64,
    reason: &'static str,
) {
    let Some(f) = flight.as_mut() else {
        return;
    };
    let events = f.len() as u32;
    match f.dump(reason) {
        Ok(Some(_)) => {
            sim.recorder_mut()
                .sim_instant(track, at, EventKind::FlightDump { reason, events });
        }
        Ok(None) => {}
        Err(e) => eprintln!("flight-recorder dump ({reason}) failed: {e}"),
    }
}

/// Detector-facing label for a breached SLO objective.
fn slo_signal_metric(objective: &'static str) -> &'static str {
    match objective {
        "p99_latency" => "slo:p99_latency",
        "throughput" => "slo:throughput",
        "drops" => "slo:drops",
        _ => "slo:objective",
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{BatchResult, Deployment, PlatformResources, Policy};
    use crate::sfc::Sfc;
    use nfc_hetero::PipelineSim;
    use nfc_nf::Nf;
    use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};
    use nfc_telemetry::{export, Event, SloSpec, Telemetry, TelemetryMode};
    use serde_json::Value;

    fn dpi_chain() -> Sfc {
        Sfc::new("dpi", vec![Nf::dpi("dpi"), Nf::dpi("dpi2")])
    }

    /// Every SLO epoch breaches: a 1 ns p99 ceiling.
    fn breaching_slo() -> SloSpec {
        SloSpec {
            p99_latency_ns: 1.0,
            epoch_batches: 2,
            ..Default::default()
        }
    }

    /// A chain driven without a controller never drains its health
    /// signals; under a breach that lasts the whole run, what it holds
    /// must stay bounded instead of growing by one per epoch, and the
    /// one it keeps is the breach.
    #[test]
    fn undrained_health_signals_stay_bounded() {
        let mut dep = Deployment::new(dpi_chain(), Policy::CpuOnly)
            .with_batch_size(64)
            .with_telemetry(TelemetryMode::Off)
            .with_slo(breaching_slo());
        let tel = Telemetry::new(TelemetryMode::Off);
        let handle = tel.handle();
        let mut sim = PipelineSim::new();
        let res = PlatformResources::register(&mut sim, dep.model());
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(512)), 3);
        let mut user_base = 1u64;
        let mut prep = dep.prepare(&mut sim, &res, &mut gen, &[], &mut user_base, &handle);
        let mut completed = 0;
        for _ in 0..128 {
            let batch = gen.batch(64);
            if let BatchResult::Completed { .. } = prep.process_batch(&mut sim, &res, batch) {
                completed += 1;
            }
        }
        assert!(completed > 64, "the run must mostly complete: {completed}");
        let signals = prep.take_health_signals();
        assert_eq!(signals.len(), 1, "64 breached epochs: {signals:?}");
        assert_eq!(signals[0].metric, "slo:p99_latency");
        assert!(prep.take_health_signals().is_empty(), "drained");
    }

    /// A trace's events as Chrome-trace objects without the metadata
    /// lines and the wall-clock stamp: what is left is the kind, the
    /// track, the batch tag and the sim stamp.
    fn trace_objects(body: &str) -> Vec<Value> {
        let trace = serde_json::from_str(body).expect("chrome trace json");
        let mut events = trace.as_array().expect("event array").clone();
        events.retain(|e| e["ph"] != "M");
        for e in &mut events {
            if let Value::Object(args) = &mut e["args"] {
                args.remove("wall_ns");
            }
        }
        events
    }

    /// A flight dump holds copies of main-trace events: each dumped
    /// event equals a main-trace event on kind, track, batch tag and sim
    /// stamp, in the main trace's relative order.
    #[test]
    fn flight_dumps_are_true_copies_of_main_trace_events() {
        let dir = std::env::temp_dir().join(format!("nfc_flight_copies_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let stem = dir.join("flight").to_string_lossy().into_owned();
        let mut dep = Deployment::new(dpi_chain(), Policy::CpuOnly)
            .with_batch_size(256)
            .with_telemetry(TelemetryMode::Memory)
            .with_flow_trace(4)
            .with_flight_stem(stem.clone())
            .with_slo(SloSpec {
                epoch_batches: 8,
                ..breaching_slo()
            });
        let out = dep.run(
            &mut TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(1500)), 42),
            40,
        );
        let trace: Vec<Event> = out.telemetry.expect("telemetry digest").trace;
        let main = trace_objects(&export::chrome_trace(&trace, 0));
        let body = std::fs::read_to_string(format!("{stem}.slo_burn.json")).expect("dump");
        let _ = std::fs::remove_dir_all(&dir);
        let dumped = trace_objects(&body);
        for cat in ["flow", "health"] {
            assert!(
                dumped.iter().any(|e| e["cat"] == cat),
                "the dump holds {cat} events"
            );
        }
        let mut rest = main.iter();
        for (i, ev) in dumped.iter().enumerate() {
            assert!(
                rest.any(|m| m == ev),
                "dumped event {i} is not a main-trace event in order: {ev}"
            );
        }
    }
}
