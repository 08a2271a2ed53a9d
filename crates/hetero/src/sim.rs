//! A deterministic pipeline simulator over serially-reusable resources.
//!
//! Batches flow through an ordered list of [`Stage`]s, each bound to a
//! resource (a CPU core, a GPU command queue, a PCIe link). A stage
//! starts when both the batch's previous stage has finished and the
//! resource is free; resources therefore pipeline across batches exactly
//! like the paper's I/O-thread / offload-thread architecture (Figure 3).
//! Per-batch latencies and aggregate throughput fall out of the schedule.
//!
//! Overload is handled with a bounded ingress queue: when the first
//! stage's backlog exceeds [`PipelineSim::max_queue_ns`], the batch is
//! dropped (tail drop at the NIC ring), which is what bounds the paper's
//! worst-case latencies at saturation.
//!
//! Each resource keeps its committed busy intervals sorted and
//! non-overlapping, so their ends are sorted too. A request binary-searches
//! to the first interval that does not end before its earliest start and
//! walks only the `k` intervals it cannot fit in front of: a call costs
//! O(log n + k) in the n intervals the resource holds, not O(n). Loops
//! that own an arrival clock bound n by calling
//! [`PipelineSim::retire_before`] with a time no later request starts
//! before; history behind it leaves the simulator, except the one
//! interval the context-switch penalty still reads.

use std::collections::VecDeque;

use nfc_telemetry::{EventKind, QuantileSketch, Recorder};

/// Identifies a resource registered with [`PipelineSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

impl ResourceId {
    /// The raw index, usable as a telemetry track/lane id.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// One step of a batch's processing plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Resource the stage occupies.
    pub resource: ResourceId,
    /// Busy time, ns.
    pub duration_ns: f64,
    /// Workload tag; a change of tag on a resource pays its
    /// context-switch penalty (GPU kernel switching between NFs).
    pub user: u64,
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimReport {
    /// Completed packets.
    pub packets: u64,
    /// Completed wire bytes.
    pub bytes: u64,
    /// Batches dropped at the ingress queue.
    pub dropped_batches: u64,
    /// Offered batches.
    pub offered_batches: u64,
    /// Throughput in Gbps (wire bytes + 20 B/packet framing, over the
    /// active span).
    pub throughput_gbps: f64,
    /// Packets per second.
    pub pps: f64,
    /// Mean per-batch latency, ns.
    pub mean_latency_ns: f64,
    /// Median per-batch latency, ns.
    pub p50_latency_ns: f64,
    /// 99th-percentile per-batch latency, ns.
    pub p99_latency_ns: f64,
    /// Worst per-batch latency, ns.
    pub max_latency_ns: f64,
}

/// Batch latencies [`StatsAccumulator`] keeps verbatim, so reports over
/// up to this many completions are exact.
const EXACT_BATCHES: usize = 1 << 16;

/// Accumulates per-batch completions into a [`SimReport`]; used
/// internally by [`PipelineSim`] and directly by multi-tenant runs that
/// need one report per tenant over a shared simulator.
#[derive(Debug, Clone, Default)]
pub struct StatsAccumulator {
    /// Raw batch latencies while at most [`EXACT_BATCHES`] completed:
    /// percentiles then follow the sorted-index formula exactly.
    /// Released on the first completion past the cap.
    exact: Vec<f64>,
    /// Set once `exact` has been released.
    spilled: bool,
    /// Every latency, for bounded memory past the cap: percentiles
    /// within [`nfc_telemetry::SKETCH_ALPHA`] relative error, mean and
    /// max exact.
    latency: QuantileSketch,
    packets: u64,
    bytes: u64,
    dropped: u64,
    offered: u64,
    first_arrival: Option<f64>,
    last_completion: f64,
}

impl StatsAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StatsAccumulator::default()
    }

    /// Records a completed batch.
    pub fn record_completion(
        &mut self,
        arrival_ns: f64,
        completion_ns: f64,
        packets: usize,
        bytes: usize,
    ) {
        self.offered += 1;
        self.first_arrival.get_or_insert(arrival_ns);
        let lat = completion_ns - arrival_ns;
        self.latency.record(lat);
        if !self.spilled {
            if self.exact.len() < EXACT_BATCHES {
                self.exact
                    .push(if lat.is_finite() { lat.max(0.0) } else { 0.0 });
            } else {
                self.exact = Vec::new();
                self.spilled = true;
            }
        }
        self.packets += packets as u64;
        self.bytes += bytes as u64;
        self.last_completion = self.last_completion.max(completion_ns);
    }

    /// Records a batch dropped at ingress.
    pub fn record_drop(&mut self, arrival_ns: f64) {
        self.offered += 1;
        self.dropped += 1;
        self.first_arrival.get_or_insert(arrival_ns);
    }

    /// Builds the aggregate report.
    pub fn report(&self) -> SimReport {
        // Within the exact window: sorted-index percentiles and the mean
        // summed over the sorted values; past it, the sketch.
        let (mean, p50, p99, max) = if self.spilled {
            (
                self.latency.mean(),
                self.latency.quantile(0.50),
                self.latency.quantile(0.99),
                self.latency.max(),
            )
        } else {
            let mut lat = self.exact.clone();
            lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            let pct = |p: f64| -> f64 {
                if lat.is_empty() {
                    0.0
                } else {
                    lat[((lat.len() - 1) as f64 * p) as usize]
                }
            };
            let mean = if lat.is_empty() {
                0.0
            } else {
                lat.iter().sum::<f64>() / lat.len() as f64
            };
            (
                mean,
                pct(0.50),
                pct(0.99),
                lat.last().copied().unwrap_or(0.0),
            )
        };
        let span = (self.last_completion - self.first_arrival.unwrap_or(0.0)).max(1.0);
        let framed_bits = (self.bytes + 20 * self.packets) as f64 * 8.0;
        SimReport {
            packets: self.packets,
            bytes: self.bytes,
            dropped_batches: self.dropped,
            offered_batches: self.offered,
            throughput_gbps: framed_bits / span,
            pps: self.packets as f64 * 1e9 / span,
            mean_latency_ns: mean,
            p50_latency_ns: p50,
            p99_latency_ns: p99,
            max_latency_ns: max,
        }
    }
}

/// A committed busy interval on one resource.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Busy {
    start: f64,
    end: f64,
    user: u64,
}

/// The simulator.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    // Per-resource busy intervals, sorted by start time, and therefore
    // by end time: they never overlap and none has negative length.
    // Gap-filling insertion keeps scheduling causal even when requests
    // arrive out of simulated-time order (multi-tenant interleaving).
    busy: Vec<VecDeque<Busy>>,
    /// The latest [`PipelineSim::retire_before`] bound: no request may
    /// start its search before it.
    watermark: f64,
    ctx_switch_ns: Vec<f64>,
    names: Vec<String>,
    stats: StatsAccumulator,
    /// Telemetry recorder; disabled by default. When enabled, every
    /// committed busy interval, context-switch penalty, and resource
    /// registration is emitted on the simulated timeline. Recording
    /// never influences scheduling decisions.
    recorder: Recorder,
    /// Maximum ingress backlog before tail drop, ns.
    pub max_queue_ns: f64,
}

impl Default for PipelineSim {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineSim {
    /// Creates an empty simulator with a 50 ms ingress queue bound.
    pub fn new() -> Self {
        PipelineSim {
            busy: Vec::new(),
            watermark: f64::NEG_INFINITY,
            ctx_switch_ns: Vec::new(),
            names: Vec::new(),
            stats: StatsAccumulator::new(),
            recorder: Recorder::disabled(),
            max_queue_ns: 50e6,
        }
    }

    /// Installs a telemetry recorder; simulated-timeline events are
    /// recorded into it from now on. Resources already registered are
    /// re-announced so lane names survive late installation.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.recorder = rec;
        if self.recorder.is_enabled() {
            for (r, name) in self.names.clone().into_iter().enumerate() {
                self.recorder.sim_instant(
                    r as u32,
                    0.0,
                    EventKind::ResourceName {
                        resource: r as u32,
                        name,
                    },
                );
            }
        }
    }

    /// Removes and returns the recorder if one was installed and
    /// enabled, leaving a disabled recorder behind.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        if self.recorder.is_enabled() {
            Some(std::mem::replace(&mut self.recorder, Recorder::disabled()))
        } else {
            None
        }
    }

    /// The installed recorder, for callers that need to emit their own
    /// simulated-timeline events (e.g. GPU kernel/DMA semantics).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Registers a resource; `ctx_switch_ns` is charged whenever
    /// consecutive stages on it carry different user tags.
    pub fn add_resource(&mut self, name: impl Into<String>, ctx_switch_ns: f64) -> ResourceId {
        // A negative penalty could start an interval before its
        // predecessor ends and unsort the interval ends.
        debug_assert!(
            ctx_switch_ns.is_finite() && ctx_switch_ns >= 0.0,
            "context-switch penalty {ctx_switch_ns} must be finite and non-negative"
        );
        self.busy.push(VecDeque::new());
        self.ctx_switch_ns.push(ctx_switch_ns);
        self.names.push(name.into());
        let id = ResourceId(self.busy.len() - 1);
        if self.recorder.is_enabled() {
            self.recorder.sim_instant(
                id.0 as u32,
                0.0,
                EventKind::ResourceName {
                    resource: id.0 as u32,
                    name: self.names[id.0].clone(),
                },
            );
        }
        id
    }

    /// Resource name (for reports).
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.names[id.0]
    }

    /// Low-level primitive: occupies `resource` for `duration_ns`
    /// starting no earlier than `earliest_ns`, returning the finish time.
    /// Uses gap-filling insertion: the request takes the first idle
    /// interval long enough for it at or after `earliest_ns`, so requests
    /// issued out of simulated-time order (multi-tenant interleaving)
    /// never block earlier-time work behind later-time work. Charges the
    /// resource's context-switch penalty when the interval immediately
    /// preceding the chosen slot belongs to a different user.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is unregistered.
    pub fn schedule(
        &mut self,
        resource: ResourceId,
        earliest_ns: f64,
        duration_ns: f64,
        user: u64,
    ) -> f64 {
        self.schedule_span(resource, earliest_ns, duration_ns, user)
            .1
    }

    /// Like [`PipelineSim::schedule`] but returns the committed
    /// `(start, end)` interval, so callers building latency
    /// attributions can separate queueing delay (`start − earliest_ns`)
    /// from service time without re-deriving the schedule.
    ///
    /// Costs O(log n + k): a binary search over the resource's n live
    /// intervals, then a walk over the k intervals that end at or after
    /// `earliest_ns` but leave no gap the request fits.
    ///
    /// `earliest_ns` must be at or after the last
    /// [`PipelineSim::retire_before`] bound, and `duration_ns` finite and
    /// non-negative; debug builds assert both.
    pub fn schedule_span(
        &mut self,
        resource: ResourceId,
        earliest_ns: f64,
        duration_ns: f64,
        user: u64,
    ) -> (f64, f64) {
        // A NaN or negative interval would unsort the interval ends the
        // binary search below relies on.
        debug_assert!(
            earliest_ns.is_finite() && duration_ns.is_finite() && duration_ns >= 0.0,
            "request at {earliest_ns} for {duration_ns} ns must be finite and non-negative"
        );
        debug_assert!(
            earliest_ns >= self.watermark,
            "request at {earliest_ns} ns precedes the retirement watermark {} ns",
            self.watermark
        );
        let r = resource.0;
        // Every interval before the frontier ends strictly before
        // `earliest_ns`, so any request, zero-length or not, ends after
        // its start and the walk would step past it without moving
        // `candidate`. An interval ending exactly at `earliest_ns` stays
        // in the walk: a zero-length request can still take the slot in
        // front of a zero-length interval there.
        let mut idx = self.busy[r].partition_point(|b| b.end < earliest_ns);
        let mut candidate = earliest_ns;
        let (slot_idx, start, end, penalty, prev_user) = loop {
            let intervals = &self.busy[r];
            // Context-switch penalty against the interval preceding the
            // candidate slot.
            let prev_user = if idx == 0 {
                None
            } else {
                Some(intervals[idx - 1].user)
            };
            let penalty = if prev_user.map(|u| u != user).unwrap_or(false) {
                self.ctx_switch_ns[r]
            } else {
                0.0
            };
            let start = candidate + penalty;
            let end = start + duration_ns;
            match intervals.get(idx) {
                Some(next) if end > next.start => {
                    // Doesn't fit before the next interval: move past it.
                    candidate = candidate.max(next.end);
                    idx += 1;
                }
                _ => break (idx, start, end, penalty, prev_user),
            }
        };
        self.busy[r].insert(slot_idx, Busy { start, end, user });
        if self.recorder.is_enabled() {
            if penalty > 0.0 {
                if let Some(from_user) = prev_user {
                    self.recorder.sim_instant(
                        r as u32,
                        candidate,
                        EventKind::KernelTeardown {
                            resource: r as u32,
                            from_user,
                            to_user: user,
                            penalty_ns: penalty,
                        },
                    );
                }
            }
            self.recorder.sim_span(
                r as u32,
                start,
                end,
                EventKind::ResourceBusy {
                    resource: r as u32,
                    user,
                    queued_ns: start - earliest_ns,
                },
            );
        }
        (start, end)
    }

    /// Current backlog of `resource` relative to `now_ns` (0 if idle):
    /// time until the last committed interval ends.
    pub fn backlog_ns(&self, resource: ResourceId, now_ns: f64) -> f64 {
        self.busy[resource.0]
            .back()
            .map(|b| (b.end - now_ns).max(0.0))
            .unwrap_or(0.0)
    }

    /// Retires history: promises that no later request starts its
    /// search before `t_ns` (debug builds assert it), and drops every
    /// busy interval that ends before `t_ns` except the last one, whose
    /// user the context-switch penalty still reads. The schedule is the
    /// same as without retirement; only memory and search length shrink.
    /// Amortised O(1) per retired interval, plus a binary search per
    /// resource.
    pub fn retire_before(&mut self, t_ns: f64) {
        self.watermark = self.watermark.max(t_ns);
        let t = self.watermark;
        for intervals in &mut self.busy {
            let settled = intervals.partition_point(|b| b.end < t);
            intervals.drain(..settled.saturating_sub(1));
        }
    }

    /// Records a completed batch that was scheduled manually via
    /// [`PipelineSim::schedule`].
    pub fn record_completion(
        &mut self,
        arrival_ns: f64,
        completion_ns: f64,
        packets: usize,
        bytes: usize,
    ) {
        self.stats
            .record_completion(arrival_ns, completion_ns, packets, bytes);
    }

    /// Records a batch dropped at ingress (manual scheduling path).
    pub fn record_drop(&mut self, arrival_ns: f64) {
        self.stats.record_drop(arrival_ns);
    }

    /// Runs one batch through `stages`. Returns the completion time, or
    /// `None` if the ingress queue bound dropped it.
    ///
    /// # Panics
    ///
    /// Panics if a stage references an unregistered resource.
    pub fn process_batch(
        &mut self,
        arrival_ns: f64,
        packets: usize,
        bytes: usize,
        stages: &[Stage],
    ) -> Option<f64> {
        if let Some(first) = stages.first() {
            if self.backlog_ns(first.resource, arrival_ns) > self.max_queue_ns {
                self.stats.record_drop(arrival_ns);
                return None;
            }
        }
        let mut t = arrival_ns;
        for s in stages {
            t = self.schedule(s.resource, t, s.duration_ns, s.user);
        }
        self.stats.record_completion(arrival_ns, t, packets, bytes);
        Some(t)
    }

    /// Builds the aggregate report.
    pub fn report(&self) -> SimReport {
        self.stats.report()
    }
}

#[cfg(test)]
impl PipelineSim {
    /// Busy intervals `resource` still holds.
    fn live_intervals(&self, resource: ResourceId) -> usize {
        self.busy[resource.0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference `schedule_span` is checked against: the linear walk
    /// over every interval ever committed, from the first, with no
    /// retirement.
    struct LinearWalk {
        busy: Vec<Vec<Busy>>,
        ctx_switch_ns: Vec<f64>,
        recorder: Recorder,
    }

    impl LinearWalk {
        fn new(ctx_switch_ns: &[f64], recorder: Recorder) -> Self {
            LinearWalk {
                busy: vec![Vec::new(); ctx_switch_ns.len()],
                ctx_switch_ns: ctx_switch_ns.to_vec(),
                recorder,
            }
        }

        fn schedule_span(
            &mut self,
            r: usize,
            earliest_ns: f64,
            duration_ns: f64,
            user: u64,
        ) -> (f64, f64) {
            let mut idx = 0usize;
            let mut candidate = earliest_ns;
            let (slot_idx, start, end, penalty, prev_user) = loop {
                let intervals = &self.busy[r];
                let prev_user = if idx == 0 {
                    None
                } else {
                    Some(intervals[idx - 1].user)
                };
                let penalty = if prev_user.map(|u| u != user).unwrap_or(false) {
                    self.ctx_switch_ns[r]
                } else {
                    0.0
                };
                let start = candidate + penalty;
                let end = start + duration_ns;
                match intervals.get(idx) {
                    Some(next) if end > next.start => {
                        candidate = candidate.max(next.end);
                        idx += 1;
                    }
                    _ => break (idx, start, end, penalty, prev_user),
                }
            };
            self.busy[r].insert(slot_idx, Busy { start, end, user });
            if self.recorder.is_enabled() {
                if penalty > 0.0 {
                    if let Some(from_user) = prev_user {
                        self.recorder.sim_instant(
                            r as u32,
                            candidate,
                            EventKind::KernelTeardown {
                                resource: r as u32,
                                from_user,
                                to_user: user,
                                penalty_ns: penalty,
                            },
                        );
                    }
                }
                self.recorder.sim_span(
                    r as u32,
                    start,
                    end,
                    EventKind::ResourceBusy {
                        resource: r as u32,
                        user,
                        queued_ns: start - earliest_ns,
                    },
                );
            }
            (start, end)
        }

        fn backlog_ns(&self, r: usize, now_ns: f64) -> f64 {
            self.busy[r]
                .last()
                .map(|b| (b.end - now_ns).max(0.0))
                .unwrap_or(0.0)
        }
    }

    /// Everything a recorded event says about the simulated timeline
    /// (the wall stamp differs between any two runs).
    fn sim_view(rec: &Recorder) -> Vec<(Option<nfc_telemetry::SimStamp>, u32, u64, EventKind)> {
        rec.events()
            .filter(|e| !matches!(e.kind, EventKind::ResourceName { .. }))
            .map(|e| (e.sim, e.track, e.batch, e.kind.clone()))
            .collect()
    }

    /// A batch-shaped run of about `calls` requests over I/O, CPU and
    /// GPU, retiring behind each arrival when `retire` is set. Returns
    /// the report and the most intervals any resource held at once.
    fn batch_shaped_run(calls: usize, retire: bool) -> (SimReport, usize) {
        let mut sim = PipelineSim::new();
        let io = sim.add_resource("io", 0.0);
        let cpu = sim.add_resource("cpu", 0.0);
        let gpu = sim.add_resource("gpu", 300.0);
        let mut most = 0;
        for i in 0..calls.div_ceil(3) {
            let arrival = i as f64 * 1_000.0;
            if retire {
                sim.retire_before(arrival);
            }
            // Service times around the arrival gap, so queues build and
            // drain and the GPU switches between two users.
            let jitter = ((i * 7_919) % 13) as f64 * 40.0;
            sim.process_batch(
                arrival,
                32,
                32 * 64,
                &[
                    Stage {
                        resource: io,
                        duration_ns: 200.0,
                        user: 0,
                    },
                    Stage {
                        resource: cpu,
                        duration_ns: 700.0 + jitter,
                        user: 1,
                    },
                    Stage {
                        resource: gpu,
                        duration_ns: 400.0,
                        user: 1 + (i % 3 == 0) as u64,
                    },
                ],
            );
            most = [io, cpu, gpu]
                .iter()
                .map(|&r| sim.live_intervals(r))
                .fold(most, usize::max);
        }
        (sim.report(), most)
    }

    #[test]
    fn retired_history_stays_bounded_over_a_million_calls() {
        let (retired, most) = batch_shaped_run(1_000_000, true);
        assert!(most <= 8, "{most} live intervals on one resource");
        let (kept, _) = batch_shaped_run(1_000_000, false);
        assert_eq!(retired, kept);
        assert!(retired.dropped_batches < retired.offered_batches);
    }

    #[test]
    fn retirement_keeps_the_interval_the_penalty_reads() {
        let mut sim = PipelineSim::new();
        let gpu = sim.add_resource("gpu", 100.0);
        sim.schedule(gpu, 0.0, 10.0, 1);
        sim.schedule(gpu, 20.0, 10.0, 1);
        sim.retire_before(1_000.0);
        assert_eq!(sim.live_intervals(gpu), 1);
        // The retained user-1 interval still charges the switch.
        assert_eq!(sim.schedule(gpu, 1_000.0, 10.0, 2), 1_110.0);
    }

    #[test]
    fn single_stage_underload_latency_is_service_time() {
        let mut sim = PipelineSim::new();
        let cpu = sim.add_resource("cpu0", 0.0);
        for i in 0..100 {
            // Arrivals every 1000 ns, service 100 ns: no queueing.
            let done = sim
                .process_batch(
                    i as f64 * 1000.0,
                    32,
                    32 * 64,
                    &[Stage {
                        resource: cpu,
                        duration_ns: 100.0,
                        user: 1,
                    }],
                )
                .unwrap();
            assert_eq!(done, i as f64 * 1000.0 + 100.0);
        }
        let r = sim.report();
        assert!((r.mean_latency_ns - 100.0).abs() < 1e-9);
        assert_eq!(r.dropped_batches, 0);
    }

    #[test]
    fn pipelining_overlaps_two_resources() {
        let mut sim = PipelineSim::new();
        let a = sim.add_resource("a", 0.0);
        let b = sim.add_resource("b", 0.0);
        // Two stages of 100 ns each; batches arrive back to back. With
        // pipelining, steady-state inter-completion is 100 ns, not 200.
        let stages = |u| {
            vec![
                Stage {
                    resource: a,
                    duration_ns: 100.0,
                    user: u,
                },
                Stage {
                    resource: b,
                    duration_ns: 100.0,
                    user: u,
                },
            ]
        };
        let mut completions = Vec::new();
        for i in 0..50 {
            completions.push(sim.process_batch(i as f64, 1, 64, &stages(1)).unwrap());
        }
        let deltas: Vec<f64> = completions.windows(2).map(|w| w[1] - w[0]).collect();
        assert!((deltas.last().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn saturation_throughput_equals_service_rate() {
        let mut sim = PipelineSim::new();
        sim.max_queue_ns = 10_000.0;
        let cpu = sim.add_resource("cpu", 0.0);
        // Offered every 50 ns, service 100 ns: 2x overload.
        let mut accepted = 0;
        for i in 0..1000 {
            if sim
                .process_batch(
                    i as f64 * 50.0,
                    1,
                    1250, // framed to 1270 bytes -> ~10160 bits
                    &[Stage {
                        resource: cpu,
                        duration_ns: 100.0,
                        user: 1,
                    }],
                )
                .is_some()
            {
                accepted += 1;
            }
        }
        let r = sim.report();
        assert!(r.dropped_batches > 0);
        // Service rate = 1 batch / 100 ns.
        let expected_gbps = 10160.0 / 100.0;
        assert!(
            (r.throughput_gbps - expected_gbps).abs() / expected_gbps < 0.1,
            "throughput {} vs expected {}",
            r.throughput_gbps,
            expected_gbps
        );
        assert!(accepted < 1000);
        // Latency bounded by queue cap + service.
        assert!(r.max_latency_ns <= sim.max_queue_ns + 100.0 + 1.0);
    }

    #[test]
    fn context_switch_penalty_applies_on_user_change() {
        let mut sim = PipelineSim::new();
        let gpu = sim.add_resource("gpu", 1000.0);
        let st = |u| Stage {
            resource: gpu,
            duration_ns: 100.0,
            user: u,
        };
        let d1 = sim.process_batch(0.0, 1, 64, &[st(1)]).unwrap();
        assert_eq!(d1, 100.0);
        // Same user: no penalty.
        let d2 = sim.process_batch(0.0, 1, 64, &[st(1)]).unwrap();
        assert_eq!(d2, 200.0);
        // Different user: +1000.
        let d3 = sim.process_batch(0.0, 1, 64, &[st(2)]).unwrap();
        assert_eq!(d3, 1300.0);
    }

    #[test]
    fn queue_bound_limits_latency() {
        let mut sim = PipelineSim::new();
        sim.max_queue_ns = 500.0;
        let cpu = sim.add_resource("cpu", 0.0);
        for i in 0..100 {
            sim.process_batch(
                i as f64 * 10.0,
                1,
                64,
                &[Stage {
                    resource: cpu,
                    duration_ns: 100.0,
                    user: 1,
                }],
            );
        }
        let r = sim.report();
        assert!(r.max_latency_ns <= 600.0 + 1e-9);
        assert!(r.dropped_batches > 0);
    }

    #[test]
    fn gap_filling_keeps_scheduling_causal() {
        // A future-time request must not block an earlier-time request:
        // the earlier one slots into the idle gap.
        let mut sim = PipelineSim::new();
        let r = sim.add_resource("r", 0.0);
        let late = sim.schedule(r, 1000.0, 10.0, 1);
        assert_eq!(late, 1010.0);
        let early = sim.schedule(r, 0.0, 50.0, 1);
        assert_eq!(early, 50.0, "early request uses the idle gap");
        // A request that does not fit in the gap goes after.
        let big = sim.schedule(r, 0.0, 2000.0, 1);
        assert!(big >= 1010.0 + 2000.0 - 1e-9);
    }

    #[test]
    fn gap_must_be_large_enough() {
        let mut sim = PipelineSim::new();
        let r = sim.add_resource("r", 0.0);
        sim.schedule(r, 0.0, 10.0, 1); // [0,10]
        sim.schedule(r, 20.0, 10.0, 1); // [20,30]
                                        // 15 ns does not fit in the [10,20] gap -> lands after 30.
        let done = sim.schedule(r, 0.0, 15.0, 1);
        assert_eq!(done, 45.0);
        // 5 ns fits the gap.
        let done = sim.schedule(r, 0.0, 5.0, 1);
        assert_eq!(done, 15.0);
    }

    #[test]
    fn gap_insertion_charges_context_switch_of_previous_interval() {
        let mut sim = PipelineSim::new();
        let r = sim.add_resource("r", 100.0);
        sim.schedule(r, 0.0, 10.0, 1); // [0,10] user 1
        sim.schedule(r, 500.0, 10.0, 1); // [500,510] user 1
                                         // User 2 into the gap: the context-switch penalty against the
                                         // preceding user-1 interval pushes the start from 50 to 150.
        let done = sim.schedule(r, 50.0, 10.0, 2);
        assert_eq!(done, 160.0, "start 150 (=50+100 penalty) + 10");
    }

    #[test]
    fn backlog_tracks_last_interval_end() {
        let mut sim = PipelineSim::new();
        let r = sim.add_resource("r", 0.0);
        assert_eq!(sim.backlog_ns(r, 0.0), 0.0);
        sim.schedule(r, 0.0, 100.0, 1);
        assert_eq!(sim.backlog_ns(r, 30.0), 70.0);
        assert_eq!(sim.backlog_ns(r, 200.0), 0.0);
    }

    #[test]
    fn recorder_captures_busy_intervals_and_context_switches() {
        let mut sim = PipelineSim::new();
        let gpu = sim.add_resource("gpu/ctx0", 1000.0);
        sim.set_recorder(Recorder::with_capacity(64));
        sim.schedule(gpu, 0.0, 100.0, 1);
        sim.schedule(gpu, 0.0, 100.0, 2); // pays the switch penalty
        let rec = sim.take_recorder().expect("recorder was installed");
        assert!(sim.take_recorder().is_none(), "take leaves disabled");
        let kinds: Vec<&EventKind> = rec.events().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::ResourceName { name, .. } if name == "gpu/ctx0"));
        assert!(
            matches!(kinds[1], EventKind::ResourceBusy { user: 1, .. }),
            "{kinds:?}"
        );
        assert!(matches!(
            kinds[2],
            EventKind::KernelTeardown {
                from_user: 1,
                to_user: 2,
                ..
            }
        ));
        let busy2 = rec
            .events()
            .find(|e| matches!(e.kind, EventKind::ResourceBusy { user: 2, .. }))
            .expect("second busy interval recorded");
        let sim_stamp = busy2.sim.expect("sim timeline stamp");
        assert_eq!(sim_stamp.start_ns, 1100.0, "start after 1000 ns penalty");
        assert_eq!(sim_stamp.end_ns, 1200.0);
    }

    #[test]
    fn recording_does_not_perturb_the_schedule() {
        let run = |record: bool| {
            let mut sim = PipelineSim::new();
            let cpu = sim.add_resource("cpu", 0.0);
            let gpu = sim.add_resource("gpu", 500.0);
            if record {
                sim.set_recorder(Recorder::with_capacity(1 << 12));
            }
            let mut ends = Vec::new();
            for i in 0..50 {
                let u = 1 + (i % 3) as u64;
                let c = sim.schedule(cpu, i as f64 * 40.0, 100.0, u);
                ends.push(sim.schedule(gpu, c, 80.0, u));
            }
            let r = sim.report();
            (
                ends,
                r.throughput_gbps.to_bits(),
                r.max_latency_ns.to_bits(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn long_runs_stay_bounded_and_percentiles_stay_close() {
        // Spill past the exact cap: the accumulator must keep working
        // with bounded memory and small relative percentile error.
        let mut acc = StatsAccumulator::new();
        let n = EXACT_BATCHES + 5_000;
        for i in 0..n {
            let lat = 1_000.0 + (i % 1_000) as f64 * 50.0;
            acc.record_completion(i as f64 * 10.0, i as f64 * 10.0 + lat, 1, 64);
        }
        let r = acc.report();
        assert_eq!(r.offered_batches, n as u64);
        // True p50 of the uniform 1000..51000 ladder is ~25500.
        let true_p50 = 1_000.0 + 499.0 * 50.0;
        assert!(
            (r.p50_latency_ns - true_p50).abs() / true_p50 < 0.04,
            "p50 {} vs {}",
            r.p50_latency_ns,
            true_p50
        );
        assert_eq!(r.max_latency_ns, 1_000.0 + 999.0 * 50.0, "max stays exact");
        let true_mean = 1_000.0 + 999.0 * 50.0 / 2.0;
        assert!((r.mean_latency_ns - true_mean).abs() / true_mean < 0.01);
    }

    #[test]
    fn exact_window_ends_at_its_cap() {
        // Integer latencies keep every running sum exact, so the
        // sketch's mean can be compared bit for bit.
        let lat = |i: usize| 1_000.0 + (i % 1_000) as f64;
        let mut acc = StatsAccumulator::new();
        for i in 0..EXACT_BATCHES {
            acc.record_completion(0.0, lat(i), 1, 64);
        }
        let mut sorted: Vec<f64> = (0..EXACT_BATCHES).map(lat).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
        let r = acc.report();
        assert!(!acc.spilled);
        assert_eq!(r.p50_latency_ns, pct(0.50));
        assert_eq!(r.p99_latency_ns, pct(0.99));

        acc.record_completion(0.0, lat(EXACT_BATCHES), 1, 64);
        assert!(acc.spilled);
        assert_eq!(acc.exact.capacity(), 0, "samples released");
        let r = acc.report();
        let n = EXACT_BATCHES + 1;
        let sum: f64 = (0..n).map(lat).sum();
        assert_eq!(r.mean_latency_ns, sum / n as f64);
        assert_eq!(r.max_latency_ns, 1_999.0);
        assert!(
            (r.p50_latency_ns - pct(0.50)).abs() / pct(0.50) <= nfc_telemetry::SKETCH_ALPHA,
            "p50 {} vs {}",
            r.p50_latency_ns,
            pct(0.50)
        );
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Inside the exact window the report is the sorted-index
            /// formula, bit for bit.
            #[test]
            fn exact_window_matches_sorted_index_formula(
                lats in proptest::collection::vec(0.0f64..1e9, 1..300),
            ) {
                let mut acc = StatsAccumulator::new();
                for &l in &lats {
                    acc.record_completion(0.0, l, 1, 64);
                }
                let r = acc.report();
                let mut sorted = lats.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
                let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
                prop_assert_eq!(r.p50_latency_ns.to_bits(), pct(0.50).to_bits());
                prop_assert_eq!(r.p99_latency_ns.to_bits(), pct(0.99).to_bits());
                prop_assert_eq!(r.mean_latency_ns.to_bits(), mean.to_bits());
                prop_assert_eq!(r.max_latency_ns.to_bits(), sorted[sorted.len() - 1].to_bits());
            }

            /// The frontier search with retirement commits the same
            /// intervals, reports the same backlog and records the same
            /// events as the linear walk over all history. Requests land
            /// out of order behind a moving watermark on a 5 ns grid, so
            /// zero-length and abutting intervals and user changes on
            /// resources with a switch penalty all occur.
            #[test]
            fn frontier_matches_the_linear_walk(
                ctx in proptest::collection::vec(0usize..3, 3),
                ops in proptest::collection::vec(
                    (0u8..8, 0usize..3, 0u32..12, 0usize..4, 1u64..4),
                    1..300,
                ),
            ) {
                let ctx_ns: Vec<f64> = ctx.iter().map(|&c| [0.0, 5.0, 7.5][c]).collect();
                let durations = [0.0, 5.0, 10.0, 25.0];
                let mut sim = PipelineSim::new();
                sim.set_recorder(Recorder::with_capacity(1 << 12));
                let ids: Vec<ResourceId> =
                    ctx_ns.iter().map(|&c| sim.add_resource("r", c)).collect();
                let mut walk = LinearWalk::new(&ctx_ns, Recorder::with_capacity(1 << 12));
                let mut watermark = 0.0;
                for &(op, r, step, d, user) in &ops {
                    if op == 0 {
                        watermark += step as f64 * 20.0;
                        sim.retire_before(watermark);
                        continue;
                    }
                    let earliest = watermark + step as f64 * 5.0;
                    let (s, e) = sim.schedule_span(ids[r], earliest, durations[d], user);
                    let (ws, we) = walk.schedule_span(r, earliest, durations[d], user);
                    prop_assert_eq!((s.to_bits(), e.to_bits()), (ws.to_bits(), we.to_bits()));
                    prop_assert_eq!(
                        sim.backlog_ns(ids[r], earliest).to_bits(),
                        walk.backlog_ns(r, earliest).to_bits()
                    );
                }
                let sim_rec = sim.take_recorder().expect("recorder installed");
                prop_assert_eq!(sim_view(&sim_rec), sim_view(&walk.recorder));
            }
        }
    }

    #[test]
    fn report_percentiles_are_ordered() {
        let mut sim = PipelineSim::new();
        let cpu = sim.add_resource("cpu", 0.0);
        for i in 0..200 {
            sim.process_batch(
                i as f64 * 120.0,
                1,
                64,
                &[Stage {
                    resource: cpu,
                    duration_ns: 100.0 + (i % 7) as f64 * 10.0,
                    user: 1,
                }],
            );
        }
        let r = sim.report();
        assert!(r.p50_latency_ns <= r.p99_latency_ns);
        assert!(r.p99_latency_ns <= r.max_latency_ns);
        assert!(r.mean_latency_ns > 0.0);
    }
}
