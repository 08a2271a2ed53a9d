//! Per-batch latency attribution, critical-path extraction, folded
//! flame stacks, and trace-driven calibration fitting.
//!
//! Everything here is a pure function over an event stream (the
//! in-memory `TelemetrySummary::trace` or a re-parsed export), so the
//! analyses run identically inside tests and in the `nfc-trace` CLI.
//!
//! The runtime computes the authoritative per-batch bucket decomposition
//! during temporal replay and emits it as
//! [`EventKind::BatchAttribution`]; this module re-joins those instants
//! with ingress/egress markers and resource spans via the batch lineage
//! tag ([`Event::batch`]). The five buckets sum to the batch's
//! end-to-end simulated latency exactly (the runtime defines queueing as
//! the residual), so `Σ buckets == e2e` is an invariant the differential
//! test pins.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;

/// The latency bucket taxonomy: five mutually exclusive places a
/// nanosecond of end-to-end batch latency can be spent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Buckets {
    /// Busy time on compute resources along the batch's reference chain
    /// (I/O descriptor work, split/merge re-organization, element work
    /// on CPU cores, kernel execution on GPU queues).
    pub compute_ns: f64,
    /// PCIe DMA transfer time along the reference chain.
    pub transfer_ns: f64,
    /// Waiting not otherwise classified: batching fill plus queueing
    /// behind earlier batches and context switches.
    pub queue_ns: f64,
    /// Waiting attributable to control-plane reconfiguration (epoch
    /// swap drain windows overlapping the batch's waits).
    pub drain_ns: f64,
    /// Merge-barrier skew: time the reference branch's output waited
    /// for slower sibling branches at the join.
    pub merge_wait_ns: f64,
}

impl Buckets {
    /// Sum of all buckets (equals the batch's end-to-end latency).
    pub fn total(&self) -> f64 {
        self.compute_ns + self.transfer_ns + self.queue_ns + self.drain_ns + self.merge_wait_ns
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &Buckets) {
        self.compute_ns += other.compute_ns;
        self.transfer_ns += other.transfer_ns;
        self.queue_ns += other.queue_ns;
        self.drain_ns += other.drain_ns;
        self.merge_wait_ns += other.merge_wait_ns;
    }

    /// Element-wise scaling (used for means).
    pub fn scaled(&self, f: f64) -> Buckets {
        Buckets {
            compute_ns: self.compute_ns * f,
            transfer_ns: self.transfer_ns * f,
            queue_ns: self.queue_ns * f,
            drain_ns: self.drain_ns * f,
            merge_wait_ns: self.merge_wait_ns * f,
        }
    }

    /// `(label, value)` pairs in canonical order, for tables and diffs.
    pub fn entries(&self) -> [(&'static str, f64); 5] {
        [
            ("compute_ns", self.compute_ns),
            ("transfer_ns", self.transfer_ns),
            ("queue_ns", self.queue_ns),
            ("drain_ns", self.drain_ns),
            ("merge_wait_ns", self.merge_wait_ns),
        ]
    }
}

/// One batch's reconstructed end-to-end latency decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRow {
    /// Batch lineage tag.
    pub seq: u64,
    /// Packets at egress (0 when the egress marker was dropped).
    pub packets: u32,
    /// Completion time on the simulated timeline.
    pub end_ns: f64,
    /// End-to-end simulated latency (completion − mean arrival).
    pub e2e_ns: f64,
    /// The bucket decomposition.
    pub buckets: Buckets,
}

/// Extracts one [`BatchRow`] per [`EventKind::BatchAttribution`] instant,
/// joined with its egress packet count, ordered by completion time.
pub fn batch_rows(events: &[Event]) -> Vec<BatchRow> {
    let mut egress_packets: BTreeMap<u64, u32> = BTreeMap::new();
    for ev in events {
        if let EventKind::BatchEgress { seq, packets, .. } = ev.kind {
            egress_packets.insert(seq, packets);
        }
    }
    let mut rows: Vec<BatchRow> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::BatchAttribution {
                seq,
                e2e_ns,
                compute_ns,
                transfer_ns,
                queue_ns,
                drain_ns,
                merge_wait_ns,
            } => Some(BatchRow {
                seq,
                packets: egress_packets.get(&seq).copied().unwrap_or(0),
                end_ns: ev.sim.map(|s| s.start_ns).unwrap_or(0.0),
                e2e_ns,
                buckets: Buckets {
                    compute_ns,
                    transfer_ns,
                    queue_ns,
                    drain_ns,
                    merge_wait_ns,
                },
            }),
            _ => None,
        })
        .collect();
    rows.sort_by(|a, b| a.end_ns.total_cmp(&b.end_ns));
    rows
}

/// Aggregate attribution over a whole trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributionReport {
    /// Attributed batches.
    pub batches: u64,
    /// Total packets over attributed batches.
    pub packets: u64,
    /// Mean end-to-end latency per batch.
    pub mean_e2e_ns: f64,
    /// 99th-percentile end-to-end latency.
    pub p99_e2e_ns: f64,
    /// Worst end-to-end latency.
    pub max_e2e_ns: f64,
    /// Mean bucket values per batch.
    pub mean: Buckets,
    /// Total bucket values over the trace.
    pub total: Buckets,
}

/// Builds the aggregate [`AttributionReport`] from a trace.
pub fn attribution(events: &[Event]) -> AttributionReport {
    let rows = batch_rows(events);
    let mut report = AttributionReport {
        batches: rows.len() as u64,
        ..AttributionReport::default()
    };
    if rows.is_empty() {
        return report;
    }
    let mut e2es: Vec<f64> = Vec::with_capacity(rows.len());
    for row in &rows {
        report.packets += u64::from(row.packets);
        report.total.add(&row.buckets);
        e2es.push(row.e2e_ns);
    }
    e2es.sort_by(f64::total_cmp);
    let n = e2es.len();
    report.mean_e2e_ns = e2es.iter().sum::<f64>() / n as f64;
    report.p99_e2e_ns = e2es[((n - 1) as f64 * 0.99) as usize];
    report.max_e2e_ns = *e2es.last().expect("non-empty");
    report.mean = report.total.scaled(1.0 / n as f64);
    report
}

/// Maps resource/track ids to their registered names.
pub fn resource_names(events: &[Event]) -> BTreeMap<u32, String> {
    events
        .iter()
        .filter_map(|ev| match &ev.kind {
            EventKind::ResourceName { resource, name } => Some((*resource, name.clone())),
            _ => None,
        })
        .collect()
}

/// One hop of a critical path: a resource-busy interval the walk passed
/// through, plus any dependency wait preceding it.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Resource id (telemetry track).
    pub resource: u32,
    /// Resource name (`res<N>` when unnamed).
    pub name: String,
    /// Interval start on the simulated timeline.
    pub start_ns: f64,
    /// Time this hop advanced the completion frontier while busy.
    pub busy_ns: f64,
    /// Gap between the previous frontier and this hop's start
    /// (queueing / batching / merge wait on the dependency chain).
    pub wait_ns: f64,
}

/// The longest dependency chain of one controller epoch: the
/// worst-latency batch of the epoch and the hops its completion
/// actually waited on.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPath {
    /// Controller epoch index (0 when the trace has no epoch markers).
    pub epoch: u64,
    /// Lineage tag of the epoch's worst batch.
    pub seq: u64,
    /// That batch's end-to-end latency.
    pub e2e_ns: f64,
    /// Busy time summed over the path.
    pub busy_ns: f64,
    /// Dependency-wait time summed over the path.
    pub wait_ns: f64,
    /// The hops, in timeline order. `busy + wait` over all hops
    /// telescopes to `e2e_ns`.
    pub segments: Vec<PathSegment>,
}

/// Extracts the per-epoch critical paths from a trace.
///
/// Epoch boundaries come from [`EventKind::Epoch`] instants (batches
/// are binned by completion time; a trace without markers is one epoch
/// `0`). Within each epoch the batch with the largest attributed
/// end-to-end latency is selected and its tagged `ResourceBusy` spans
/// are walked front-to-back: a span contributes busy time where it
/// extends the completion frontier and the gap before it counts as
/// dependency wait, so `Σ(busy + wait) == e2e` exactly.
pub fn critical_paths(events: &[Event]) -> Vec<EpochPath> {
    epoch_paths(events, &batch_rows(events), &BatchSpans::new(events))
}

/// Every tagged batch's `ResourceBusy` spans and ingress time, grouped
/// once per trace for the frontier walks of [`critical_paths`] and
/// [`whatif`].
struct BatchSpans {
    /// Ingress instant per lineage tag.
    ingress: BTreeMap<u64, f64>,
    /// `(start, end, resource)` per lineage tag, sorted by start then end
    /// (ties keep trace order).
    spans: BTreeMap<u64, Vec<(f64, f64, u32)>>,
}

/// One step of a frontier walk: a busy span that advanced the batch's
/// completion frontier, and the dependency wait before it.
struct Hop {
    resource: u32,
    start_ns: f64,
    wait_ns: f64,
    busy_ns: f64,
}

impl BatchSpans {
    fn new(events: &[Event]) -> Self {
        let mut ingress = BTreeMap::new();
        let mut spans: BTreeMap<u64, Vec<(f64, f64, u32)>> = BTreeMap::new();
        for ev in events {
            let Some(s) = ev.sim else { continue };
            match ev.kind {
                EventKind::BatchIngress { seq, .. } => {
                    ingress.insert(seq, s.start_ns);
                }
                EventKind::ResourceBusy { resource, .. } if ev.batch != 0 => spans
                    .entry(ev.batch)
                    .or_default()
                    .push((s.start_ns, s.end_ns, resource)),
                _ => {}
            }
        }
        for list in spans.values_mut() {
            list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        }
        BatchSpans { ingress, spans }
    }

    /// Walks `row`'s spans front to back from its ingress: a span counts
    /// as busy where it extends the completion frontier, and the gap
    /// before it as dependency wait, so the hops' `wait + busy`
    /// telescopes to the end-to-end latency. `None` when the batch
    /// recorded no spans.
    fn walk(&self, row: &BatchRow) -> Option<Vec<Hop>> {
        let spans = self.spans.get(&row.seq)?;
        let mut frontier = self
            .ingress
            .get(&row.seq)
            .copied()
            .unwrap_or(row.end_ns - row.e2e_ns);
        let mut hops = Vec::new();
        for &(s, e, resource) in spans {
            if e <= frontier {
                continue; // fully shadowed by a faster sibling branch
            }
            hops.push(Hop {
                resource,
                start_ns: s,
                wait_ns: (s - frontier).max(0.0),
                busy_ns: e - frontier.max(s),
            });
            frontier = e;
        }
        Some(hops)
    }
}

/// [`critical_paths`] over already-extracted rows and spans.
fn epoch_paths(events: &[Event], rows: &[BatchRow], spans: &BatchSpans) -> Vec<EpochPath> {
    if rows.is_empty() {
        return Vec::new();
    }
    let names = resource_names(events);
    let mut markers: Vec<(f64, u64)> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Epoch { epoch } => ev.sim.map(|s| (s.start_ns, epoch)),
            _ => None,
        })
        .collect();
    markers.sort_by(|a, b| a.0.total_cmp(&b.0));
    let epoch_of = |t: f64| -> u64 {
        for (ts, epoch) in &markers {
            if *ts >= t {
                return *epoch;
            }
        }
        markers.last().map(|(_, e)| e + 1).unwrap_or(0)
    };
    // Worst-latency batch per epoch.
    let mut worst: BTreeMap<u64, &BatchRow> = BTreeMap::new();
    for row in rows {
        let e = epoch_of(row.end_ns);
        match worst.get(&e) {
            Some(prev) if prev.e2e_ns >= row.e2e_ns => {}
            _ => {
                worst.insert(e, row);
            }
        }
    }
    worst
        .into_iter()
        .map(|(epoch, row)| {
            let mut segments: Vec<PathSegment> = Vec::new();
            for hop in spans.walk(row).unwrap_or_default() {
                // Coalesce back-to-back hops on the same resource.
                match segments.last_mut() {
                    Some(last) if last.resource == hop.resource && hop.wait_ns == 0.0 => {
                        last.busy_ns += hop.busy_ns;
                    }
                    _ => segments.push(PathSegment {
                        resource: hop.resource,
                        name: names
                            .get(&hop.resource)
                            .cloned()
                            .unwrap_or_else(|| format!("res{}", hop.resource)),
                        start_ns: hop.start_ns,
                        busy_ns: hop.busy_ns,
                        wait_ns: hop.wait_ns,
                    }),
                }
            }
            let busy_ns = segments.iter().map(|s| s.busy_ns).sum();
            let wait_ns = segments.iter().map(|s| s.wait_ns).sum();
            EpochPath {
                epoch,
                seq: row.seq,
                e2e_ns: row.e2e_ns,
                busy_ns,
                wait_ns,
                segments,
            }
        })
        .collect()
}

/// One epoch's virtual-speedup estimate from [`whatif`]: the epoch's
/// critical path re-telescoped with the target element sped up.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfEpoch {
    /// Controller epoch index.
    pub epoch: u64,
    /// Lineage tag of the epoch's worst batch.
    pub seq: u64,
    /// The path's measured end-to-end latency.
    pub baseline_ns: f64,
    /// The path's predicted end-to-end latency under the speedup.
    pub predicted_ns: f64,
}

/// Chain-level virtual-speedup estimate from [`whatif`].
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
    /// The element/resource substring that was virtually sped up.
    pub element: String,
    /// The speedup factor applied to matched busy time.
    pub factor: f64,
    /// Resource names that matched `element`.
    pub matched_resources: Vec<String>,
    /// Attributed batches the estimate aggregates over.
    pub batches: u64,
    /// Measured mean end-to-end batch latency.
    pub baseline_mean_e2e_ns: f64,
    /// Predicted mean end-to-end batch latency under the speedup.
    pub predicted_mean_e2e_ns: f64,
    /// Predicted end-to-end speedup (`baseline / predicted`).
    pub speedup: f64,
    /// Per-epoch worst-batch estimates (the critical paths).
    pub epochs: Vec<WhatIfEpoch>,
}

/// Coz-style virtual-speedup ("what if") analysis: estimates the
/// end-to-end effect of making one element `factor`× faster (or
/// offloading it to a device that is `factor`× faster).
///
/// Every attributed batch's tagged `ResourceBusy` spans are walked with
/// the same completion-frontier algorithm as [`critical_paths`], which
/// splits its end-to-end latency into per-resource busy time plus
/// dependency wait. Busy time on resources whose name contains
/// `element` is divided by `factor`; wait time is kept unchanged
/// (dependency waits are dominated by *other* resources, so holding
/// them fixed is the conservative estimate — the same assumption coz
/// makes when it slows everything else down instead). The chain-level
/// speedup is the ratio of mean baseline to mean predicted latency
/// over all attributed batches; per-epoch worst-batch paths are also
/// reported for drill-down.
pub fn whatif(events: &[Event], element: &str, factor: f64) -> WhatIfReport {
    let factor = if factor.is_finite() && factor > 0.0 {
        factor
    } else {
        1.0
    };
    let names = resource_names(events);
    let matched_ids: std::collections::BTreeSet<u32> = names
        .iter()
        .filter(|(_, name)| name.contains(element))
        .map(|(id, _)| *id)
        .collect();
    let matched_resources: Vec<String> = matched_ids
        .iter()
        .filter_map(|id| names.get(id).cloned())
        .collect();

    let spans = BatchSpans::new(events);
    // Predicted latency of one batch, matched busy time scaled by
    // 1/factor.
    let predict = |row: &BatchRow| -> f64 {
        let Some(hops) = spans.walk(row) else {
            return row.e2e_ns;
        };
        let mut covered = 0.0; // busy + wait accounted by the walk
        let mut predicted = 0.0;
        for hop in hops {
            covered += hop.wait_ns + hop.busy_ns;
            predicted += hop.wait_ns;
            predicted += if matched_ids.contains(&hop.resource) {
                hop.busy_ns / factor
            } else {
                hop.busy_ns
            };
        }
        // Any residual the spans do not cover (none in well-formed
        // traces) is carried over unscaled.
        predicted + (row.e2e_ns - covered).max(0.0)
    };

    let rows = batch_rows(events);
    let mut baseline_sum = 0.0;
    let mut predicted_sum = 0.0;
    for row in &rows {
        baseline_sum += row.e2e_ns;
        predicted_sum += predict(row);
    }
    let batches = rows.len() as u64;
    let baseline_mean = if batches > 0 {
        baseline_sum / batches as f64
    } else {
        0.0
    };
    let predicted_mean = if batches > 0 {
        predicted_sum / batches as f64
    } else {
        0.0
    };

    let epochs = epoch_paths(events, &rows, &spans)
        .into_iter()
        .map(|path| {
            let mut predicted = 0.0;
            for seg in &path.segments {
                predicted += seg.wait_ns;
                predicted += if matched_ids.contains(&seg.resource) {
                    seg.busy_ns / factor
                } else {
                    seg.busy_ns
                };
            }
            WhatIfEpoch {
                epoch: path.epoch,
                seq: path.seq,
                baseline_ns: path.e2e_ns,
                predicted_ns: predicted + (path.e2e_ns - path.busy_ns - path.wait_ns).max(0.0),
            }
        })
        .collect();

    WhatIfReport {
        element: element.to_string(),
        factor,
        matched_resources,
        batches,
        baseline_mean_e2e_ns: baseline_mean,
        predicted_mean_e2e_ns: predicted_mean,
        speedup: if predicted_mean > 0.0 {
            baseline_mean / predicted_mean
        } else {
            1.0
        },
        epochs,
    }
}

/// Folded flame stacks over the simulated timeline: one line per
/// `resource → busy|queued` frame with total nanoseconds, suitable for
/// `flamegraph.pl` / speedscope folded-stack input.
pub fn folded_stacks(events: &[Event]) -> Vec<(String, u64)> {
    let names = resource_names(events);
    let mut acc: BTreeMap<String, f64> = BTreeMap::new();
    for ev in events {
        if let EventKind::ResourceBusy {
            resource,
            queued_ns,
            ..
        } = ev.kind
        {
            if let Some(s) = ev.sim {
                let name = names
                    .get(&resource)
                    .cloned()
                    .unwrap_or_else(|| format!("res{resource}"));
                *acc.entry(format!("sim;{name};busy")).or_insert(0.0) += s.dur_ns();
                if queued_ns > 0.0 {
                    *acc.entry(format!("sim;{name};queued")).or_insert(0.0) += queued_ns;
                }
            }
        }
    }
    acc.into_iter()
        .filter(|(_, v)| *v >= 0.5)
        .map(|(k, v)| (k, v.round() as u64))
        .collect()
}

/// Folded flame stacks over the functional (wall-clock) layer: one line
/// per `branch → stage` frame with total wall nanoseconds.
pub fn folded_stacks_wall(events: &[Event]) -> Vec<(String, u64)> {
    let mut acc: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        if let EventKind::Stage { branch, name, .. } = &ev.kind {
            *acc.entry(format!("wall;branch{branch};{name}"))
                .or_insert(0) += ev.wall_dur_ns;
        }
    }
    acc.into_iter().filter(|(_, v)| *v > 0).collect()
}

/// The paper-anchored constants `calibrate` checks drift against, plus
/// the platform scale factors needed to invert observed spans back to
/// calibration units. Callers fill this from `nfc-hetero`'s `calib` and
/// platform config (the telemetry crate stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibAnchors {
    /// `GPU_CONTEXT_SWITCH_NS`.
    pub gpu_ctx_switch_ns: f64,
    /// `GPU_PERSISTENT_DISPATCH_NS` (or `GPU_LAUNCH_NS` when the run
    /// used launch-per-batch mode).
    pub gpu_dispatch_ns: f64,
    /// PCIe `dma_latency_ns`.
    pub pcie_dma_latency_ns: f64,
    /// PCIe bandwidth, GB/s (= bytes per ns).
    pub pcie_bw_gbs: f64,
    /// `IO_CYCLES_PER_PACKET`.
    pub io_cycles_per_packet: f64,
    /// CPU nanoseconds per cycle (1 / freq_ghz), needed to convert the
    /// observed I/O span back into cycles.
    pub ns_per_cycle: f64,
    /// `GPU_RESIDENCY_PRESSURE`: fractional kernel-time stretch at a
    /// fully packed device.
    pub gpu_residency_pressure: f64,
}

/// One re-fitted constant: observed value vs. its paper anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibEstimate {
    /// Constant name (matches the `calib.rs` identifier, lowercased).
    pub name: &'static str,
    /// Value fitted from the trace (`NaN` when unfittable).
    pub observed: f64,
    /// Paper-anchored value from [`CalibAnchors`].
    pub anchored: f64,
    /// Events the fit consumed.
    pub samples: usize,
}

impl CalibEstimate {
    /// Signed drift of the observation vs. the anchor, percent.
    pub fn drift_pct(&self) -> f64 {
        if self.anchored == 0.0 || !self.observed.is_finite() {
            return f64::NAN;
        }
        (self.observed - self.anchored) / self.anchored * 100.0
    }
}

/// Ordinary least squares for `y = a + b·x`; returns `(a, b)`.
fn fit_line(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return None;
    }
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let det = n * sxx - sx * sx;
    if det.abs() < 1e-9 {
        return None;
    }
    let b = (n * sxy - sx * sy) / det;
    let a = (sy - b * sx) / n;
    Some((a, b))
}

/// Ordinary least squares for `y = a + b·x1 + c·x2` via the 3×3 normal
/// equations with partial pivoting; returns `(a, b, c)`.
fn fit_plane(x1: &[f64], x2: &[f64], ys: &[f64]) -> Option<(f64, f64, f64)> {
    let n = ys.len();
    if n < 3 {
        return None;
    }
    let mut m = [[0.0f64; 4]; 3];
    for i in 0..n {
        let row = [1.0, x1[i], x2[i]];
        for (r, &ri) in row.iter().enumerate() {
            for (c, &rc) in row.iter().enumerate() {
                m[r][c] += ri * rc;
            }
            m[r][3] += ri * ys[i];
        }
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..3 {
        let pivot = (col..3).max_by(|&a, &b| {
            m[a][col]
                .abs()
                .partial_cmp(&m[b][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        for r in 0..3 {
            if r == col {
                continue;
            }
            let f = m[r][col] / m[col][col];
            let pivot_row = m[col];
            for (cell, p) in m[r].iter_mut().zip(pivot_row).skip(col) {
                *cell -= f * p;
            }
        }
    }
    Some((m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]))
}

/// Re-fits the calibration constants from observed kernel/DMA/I-O
/// events and reports drift vs. the paper anchors.
///
/// Fits performed:
/// - `gpu_context_switch_ns`: mean `KernelTeardown` penalty on GPU
///   queues.
/// - `gpu_dispatch_ns`: intercept of `dur = a + b·packets + c·bytes`
///   over single-dispatch `KernelLaunch` spans (the kernel-time model
///   is linear in packets and bytes away from the latency floor, so
///   the intercept isolates dispatch overhead).
/// - `pcie_dma_latency_ns` / `pcie_bw_gbs`: intercept and inverse
///   slope of `dur = a + b·bytes` over `Dma` spans.
/// - `io_cycles_per_packet`: mean egress I/O span duration divided by
///   `packets · ns_per_cycle`, joined per batch via the lineage tag.
/// - `gpu_residency_pressure`: through-origin slope of the relative
///   kernel-time stretch `dur / baseline − 1` against the normalized
///   slot pressure `(occupancy − 0.5) / 0.5`. Kernel spans are joined
///   to the `SmOccupancy` instant emitted at their completion on the
///   same queue, grouped by work shape `(packets, bytes, kernels)` so
///   pressured spans compare against an unpressured (≤ 50 % occupancy)
///   baseline of identical work.
pub fn calibrate(events: &[Event], anchors: &CalibAnchors) -> Vec<CalibEstimate> {
    let names = resource_names(events);
    let is_gpu = |r: u32| names.get(&r).map(|n| n.starts_with("gpu")).unwrap_or(false);

    // GPU context switch: mean teardown penalty on GPU queues.
    let penalties: Vec<f64> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::KernelTeardown {
                resource,
                penalty_ns,
                ..
            } if is_gpu(resource) && penalty_ns > 0.0 => Some(penalty_ns),
            _ => None,
        })
        .collect();
    let ctx = CalibEstimate {
        name: "gpu_context_switch_ns",
        observed: if penalties.is_empty() {
            f64::NAN
        } else {
            penalties.iter().sum::<f64>() / penalties.len() as f64
        },
        anchored: anchors.gpu_ctx_switch_ns,
        samples: penalties.len(),
    };

    // GPU dispatch: intercept over single-dispatch kernel spans.
    let (mut kp, mut kb, mut kd) = (Vec::new(), Vec::new(), Vec::new());
    for ev in events {
        if let EventKind::KernelLaunch {
            packets,
            bytes,
            kernels: 1,
            ..
        } = ev.kind
        {
            if let Some(s) = ev.sim {
                kp.push(f64::from(packets));
                kb.push(bytes as f64);
                kd.push(s.dur_ns());
            }
        }
    }
    // The intercept is only identifiable when packet and byte counts
    // vary *independently* across samples (a calibration-shaped
    // workload sweeps batch size and packet size separately). On a
    // production trace where the offload ratio moves both in lockstep
    // the design matrix is collinear and the intercept is meaningless —
    // report n/a rather than a wild number.
    let well_conditioned = {
        let var = |xs: &[f64]| {
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n.max(1.0);
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n.max(1.0)
        };
        let (vp, vb) = (var(&kp), var(&kb));
        if vp <= 0.0 || vb <= 0.0 {
            false
        } else {
            let n = kp.len() as f64;
            let (mp, mb) = (kp.iter().sum::<f64>() / n, kb.iter().sum::<f64>() / n);
            let cov = kp
                .iter()
                .zip(&kb)
                .map(|(p, b)| (p - mp) * (b - mb))
                .sum::<f64>()
                / n;
            (cov / (vp * vb).sqrt()).abs() < 0.999
        }
    };
    let dispatch = CalibEstimate {
        name: "gpu_dispatch_ns",
        observed: if well_conditioned {
            fit_plane(&kp, &kb, &kd)
                .map(|(a, _, _)| a)
                .unwrap_or(f64::NAN)
        } else {
            f64::NAN
        },
        anchored: anchors.gpu_dispatch_ns,
        samples: kd.len(),
    };

    // PCIe: line fit over DMA spans.
    let (mut db, mut dd) = (Vec::new(), Vec::new());
    for ev in events {
        if let EventKind::Dma { bytes, .. } = ev.kind {
            if let Some(s) = ev.sim {
                db.push(bytes as f64);
                dd.push(s.dur_ns());
            }
        }
    }
    let dma_fit = fit_line(&db, &dd);
    let dma_lat = CalibEstimate {
        name: "pcie_dma_latency_ns",
        observed: dma_fit.map(|(a, _)| a).unwrap_or(f64::NAN),
        anchored: anchors.pcie_dma_latency_ns,
        samples: dd.len(),
    };
    let bw = CalibEstimate {
        name: "pcie_bw_gbs",
        observed: dma_fit
            .and_then(|(_, b)| if b > 1e-12 { Some(1.0 / b) } else { None })
            .unwrap_or(f64::NAN),
        anchored: anchors.pcie_bw_gbs,
        samples: dd.len(),
    };

    // I/O cycles per packet: the egress span on io-tx, per batch.
    let io_tx = names
        .iter()
        .find(|(_, n)| n.as_str() == "io-tx")
        .map(|(r, _)| *r);
    let mut egress_packets: BTreeMap<u64, u32> = BTreeMap::new();
    for ev in events {
        if let EventKind::BatchEgress { seq, packets, .. } = ev.kind {
            if packets > 0 {
                egress_packets.insert(seq, packets);
            }
        }
    }
    // Last tagged busy span per batch on io-tx (the egress charge is
    // scheduled after any merge work on the same resource).
    let mut last_tx: BTreeMap<u64, f64> = BTreeMap::new();
    let mut last_tx_start: BTreeMap<u64, f64> = BTreeMap::new();
    if let Some(tx) = io_tx {
        for ev in events {
            if let EventKind::ResourceBusy { resource, .. } = ev.kind {
                if resource == tx && ev.batch != 0 {
                    if let Some(s) = ev.sim {
                        let later = last_tx_start
                            .get(&ev.batch)
                            .map(|p| s.start_ns > *p)
                            .unwrap_or(true);
                        if later {
                            last_tx_start.insert(ev.batch, s.start_ns);
                            last_tx.insert(ev.batch, s.dur_ns());
                        }
                    }
                }
            }
        }
    }
    let mut io_samples: Vec<f64> = Vec::new();
    for (seq, dur) in &last_tx {
        if let Some(p) = egress_packets.get(seq) {
            io_samples.push(dur / (f64::from(*p) * anchors.ns_per_cycle));
        }
    }
    let io = CalibEstimate {
        name: "io_cycles_per_packet",
        observed: if io_samples.is_empty() {
            f64::NAN
        } else {
            io_samples.iter().sum::<f64>() / io_samples.len() as f64
        },
        anchored: anchors.io_cycles_per_packet,
        samples: io_samples.len(),
    };

    // Co-residency pressure: kernel spans joined (by queue track, batch
    // tag, and completion instant) to the SM-occupancy instant emitted
    // when the kernel finishes.
    let mut occ: BTreeMap<(u32, u64, u64), f64> = BTreeMap::new();
    for ev in events {
        if let EventKind::SmOccupancy { occupancy_pct, .. } = ev.kind {
            if let Some(s) = ev.sim {
                occ.insert(
                    (ev.track, ev.batch, s.end_ns.to_bits()),
                    f64::from(occupancy_pct) / 100.0,
                );
            }
        }
    }
    // Group kernel spans by work shape so pressured durations compare
    // against an unpressured baseline of identical work.
    type PressureGroup = (Vec<f64>, Vec<(f64, f64)>);
    let mut groups: BTreeMap<(u32, u64, u32), PressureGroup> = BTreeMap::new();
    for ev in events {
        if let EventKind::KernelLaunch {
            packets,
            bytes,
            kernels,
            ..
        } = ev.kind
        {
            if let Some(s) = ev.sim {
                if let Some(&u) = occ.get(&(ev.track, ev.batch, s.end_ns.to_bits())) {
                    let entry = groups.entry((packets, bytes, kernels)).or_default();
                    if u <= 0.5 {
                        entry.0.push(s.dur_ns());
                    } else {
                        entry.1.push((u, s.dur_ns()));
                    }
                }
            }
        }
    }
    let (mut sxy, mut sxx, mut n_pressure) = (0.0f64, 0.0f64, 0usize);
    for (base, pressured) in groups.values() {
        if base.is_empty() || pressured.is_empty() {
            continue;
        }
        let b = base.iter().sum::<f64>() / base.len() as f64;
        if b <= 0.0 {
            continue;
        }
        for &(u, dur) in pressured {
            let x = (u.min(1.0) - 0.5) / 0.5;
            let y = dur / b - 1.0;
            sxy += x * y;
            sxx += x * x;
            n_pressure += 1;
        }
    }
    let pressure = CalibEstimate {
        name: "gpu_residency_pressure",
        observed: if sxx > 1e-12 { sxy / sxx } else { f64::NAN },
        anchored: anchors.gpu_residency_pressure,
        samples: n_pressure,
    };

    vec![ctx, dispatch, dma_lat, bw, io, pressure]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SimStamp;

    fn sim_ev(track: u32, batch: u64, start: f64, end: f64, kind: EventKind) -> Event {
        Event {
            wall_ns: 0,
            wall_dur_ns: 0,
            sim: Some(SimStamp {
                start_ns: start,
                end_ns: end,
            }),
            track,
            batch,
            kind,
        }
    }

    fn attr_ev(seq: u64, end: f64, b: Buckets) -> Event {
        sim_ev(
            0,
            seq,
            end,
            end,
            EventKind::BatchAttribution {
                seq,
                e2e_ns: b.total(),
                compute_ns: b.compute_ns,
                transfer_ns: b.transfer_ns,
                queue_ns: b.queue_ns,
                drain_ns: b.drain_ns,
                merge_wait_ns: b.merge_wait_ns,
            },
        )
    }

    #[test]
    fn attribution_aggregates_rows() {
        let b1 = Buckets {
            compute_ns: 100.0,
            transfer_ns: 50.0,
            queue_ns: 25.0,
            drain_ns: 0.0,
            merge_wait_ns: 25.0,
        };
        let b2 = Buckets {
            compute_ns: 300.0,
            ..Buckets::default()
        };
        let events = vec![
            sim_ev(
                0,
                1,
                200.0,
                200.0,
                EventKind::BatchEgress {
                    seq: 1,
                    packets: 32,
                    bytes: 2048,
                },
            ),
            attr_ev(1, 200.0, b1),
            attr_ev(2, 500.0, b2),
        ];
        let rows = batch_rows(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].packets, 32);
        assert_eq!(rows[1].packets, 0, "no egress marker joined");
        assert!((rows[0].e2e_ns - rows[0].buckets.total()).abs() < 1e-9);
        let rep = attribution(&events);
        assert_eq!(rep.batches, 2);
        assert_eq!(rep.packets, 32);
        assert!((rep.mean_e2e_ns - 250.0).abs() < 1e-9);
        assert!((rep.total.compute_ns - 400.0).abs() < 1e-9);
        assert!((rep.mean.transfer_ns - 25.0).abs() < 1e-9);
        assert_eq!(rep.max_e2e_ns, 300.0);
    }

    #[test]
    fn critical_path_telescopes_to_e2e() {
        // Batch 7: ingress at 100, two busy hops [120,150] and [150,200]
        // on different resources, a parallel shadowed hop [125,140], and
        // egress span [210,230]. e2e = 230 - 100 = 130.
        let buckets = Buckets {
            compute_ns: 130.0,
            ..Buckets::default()
        };
        let busy = |track: u32, s: f64, e: f64| {
            sim_ev(
                track,
                7,
                s,
                e,
                EventKind::ResourceBusy {
                    resource: track,
                    user: 1,
                    queued_ns: 0.0,
                },
            )
        };
        let events = vec![
            sim_ev(
                0,
                7,
                100.0,
                100.0,
                EventKind::BatchIngress {
                    seq: 7,
                    packets: 8,
                    wire_bytes: 512,
                },
            ),
            busy(2, 120.0, 150.0),
            busy(3, 125.0, 140.0), // shadowed sibling
            busy(4, 150.0, 200.0),
            busy(1, 210.0, 230.0),
            sim_ev(
                1,
                7,
                230.0,
                230.0,
                EventKind::BatchEgress {
                    seq: 7,
                    packets: 8,
                    bytes: 512,
                },
            ),
            attr_ev(7, 230.0, buckets),
        ];
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.epoch, 0);
        assert_eq!(p.seq, 7);
        assert!(
            (p.busy_ns + p.wait_ns - p.e2e_ns).abs() < 1e-9,
            "busy {} + wait {} must telescope to e2e {}",
            p.busy_ns,
            p.wait_ns,
            p.e2e_ns
        );
        // Shadowed hop contributes nothing; waits are 20 (ingress→120)
        // and 10 (200→210).
        assert_eq!(p.segments.len(), 3);
        assert!((p.wait_ns - 30.0).abs() < 1e-9);
        assert!((p.busy_ns - 100.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_markers_bin_batches() {
        let b = |c| Buckets {
            compute_ns: c,
            ..Buckets::default()
        };
        let events = vec![
            attr_ev(1, 100.0, b(50.0)),
            attr_ev(2, 300.0, b(80.0)),
            sim_ev(0, 0, 200.0, 200.0, EventKind::Epoch { epoch: 1 }),
            sim_ev(0, 0, 400.0, 400.0, EventKind::Epoch { epoch: 2 }),
            attr_ev(3, 500.0, b(60.0)),
        ];
        let paths = critical_paths(&events);
        let epochs: Vec<(u64, u64)> = paths.iter().map(|p| (p.epoch, p.seq)).collect();
        assert_eq!(epochs, [(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn whatif_scales_matched_busy_and_keeps_waits() {
        // Batch 7: ingress 100, hop on "cpu:heavy" [120,180] (wait 20,
        // busy 60), hop on "cpu:light" [180,200] (busy 20), egress span
        // on io-tx [210,230] (wait 10, busy 20). e2e = 130.
        let buckets = Buckets {
            compute_ns: 130.0,
            ..Buckets::default()
        };
        let busy = |track: u32, s: f64, e: f64| {
            sim_ev(
                track,
                7,
                s,
                e,
                EventKind::ResourceBusy {
                    resource: track,
                    user: 1,
                    queued_ns: 0.0,
                },
            )
        };
        let name = |track: u32, n: &str| {
            sim_ev(
                track,
                0,
                0.0,
                0.0,
                EventKind::ResourceName {
                    resource: track,
                    name: n.into(),
                },
            )
        };
        let events = vec![
            name(2, "cpu:heavy"),
            name(3, "cpu:light"),
            name(1, "io-tx"),
            sim_ev(
                0,
                7,
                100.0,
                100.0,
                EventKind::BatchIngress {
                    seq: 7,
                    packets: 8,
                    wire_bytes: 512,
                },
            ),
            busy(2, 120.0, 180.0),
            busy(3, 180.0, 200.0),
            busy(1, 210.0, 230.0),
            attr_ev(7, 230.0, buckets),
        ];
        let rep = whatif(&events, "heavy", 2.0);
        assert_eq!(rep.matched_resources, vec!["cpu:heavy".to_string()]);
        assert_eq!(rep.batches, 1);
        assert!((rep.baseline_mean_e2e_ns - 130.0).abs() < 1e-9);
        // Predicted: waits (20 + 10) + heavy busy 60/2 + light 20 +
        // egress 20 = 100.
        assert!((rep.predicted_mean_e2e_ns - 100.0).abs() < 1e-9, "{rep:?}");
        assert!((rep.speedup - 1.3).abs() < 1e-9);
        assert_eq!(rep.epochs.len(), 1);
        assert!((rep.epochs[0].predicted_ns - 100.0).abs() < 1e-9);
        // Speeding up an unmatched element changes nothing.
        let noop = whatif(&events, "does-not-exist", 8.0);
        assert!(noop.matched_resources.is_empty());
        assert!((noop.speedup - 1.0).abs() < 1e-12);
        // Degenerate factors clamp to the identity.
        let degen = whatif(&events, "heavy", 0.0);
        assert!((degen.speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn folded_stacks_accumulate_busy_and_queued() {
        let events = vec![
            sim_ev(
                3,
                0,
                0.0,
                0.0,
                EventKind::ResourceName {
                    resource: 3,
                    name: "gpu0".into(),
                },
            ),
            sim_ev(
                3,
                1,
                10.0,
                40.0,
                EventKind::ResourceBusy {
                    resource: 3,
                    user: 1,
                    queued_ns: 5.0,
                },
            ),
            sim_ev(
                3,
                2,
                40.0,
                60.0,
                EventKind::ResourceBusy {
                    resource: 3,
                    user: 1,
                    queued_ns: 0.0,
                },
            ),
        ];
        let folded = folded_stacks(&events);
        assert_eq!(
            folded,
            vec![
                ("sim;gpu0;busy".to_string(), 50),
                ("sim;gpu0;queued".to_string(), 5)
            ]
        );
    }

    #[test]
    fn calibrate_recovers_synthetic_constants() {
        // Synthesize a trace whose spans follow the cost-model shapes
        // exactly and check the fits invert them.
        let anchors = CalibAnchors {
            gpu_ctx_switch_ns: 4000.0,
            gpu_dispatch_ns: 450.0,
            pcie_dma_latency_ns: 2000.0,
            pcie_bw_gbs: 12.0,
            io_cycles_per_packet: 20.0,
            ns_per_cycle: 1.0 / 1.9,
            gpu_residency_pressure: 0.35,
        };
        let mut events = vec![
            sim_ev(
                0,
                0,
                0.0,
                0.0,
                EventKind::ResourceName {
                    resource: 0,
                    name: "io-rx".into(),
                },
            ),
            sim_ev(
                1,
                0,
                0.0,
                0.0,
                EventKind::ResourceName {
                    resource: 1,
                    name: "io-tx".into(),
                },
            ),
            sim_ev(
                2,
                0,
                0.0,
                0.0,
                EventKind::ResourceName {
                    resource: 2,
                    name: "gpu0".into(),
                },
            ),
        ];
        let mut t = 0.0;
        for i in 0..20u64 {
            let packets = 80 + (i % 7) * 13;
            // Sweep bytes-per-packet independently of the packet count
            // so the (packets, bytes) design matrix is well-conditioned
            // — a collinear trace would make calibrate report n/a.
            let bytes = packets * (64 + (i % 5) * 48);
            let kernel_ns = 450.0 + 2.0 * packets as f64 + 0.5 * bytes as f64;
            let dma_ns = 2000.0 + bytes as f64 / 12.0;
            events.push(sim_ev(
                2,
                i + 1,
                t,
                t + kernel_ns,
                EventKind::KernelLaunch {
                    queue: 0,
                    user: 1,
                    bytes,
                    packets: packets as u32,
                    kernels: 1,
                },
            ));
            events.push(sim_ev(
                2,
                i + 1,
                t,
                t + dma_ns,
                EventKind::Dma {
                    to_device: true,
                    bytes,
                },
            ));
            events.push(sim_ev(
                2,
                0,
                t,
                t,
                EventKind::KernelTeardown {
                    resource: 2,
                    from_user: 1,
                    to_user: 2,
                    penalty_ns: 4000.0,
                },
            ));
            let io_ns = packets as f64 * 20.0 / 1.9;
            events.push(sim_ev(
                1,
                i + 1,
                t,
                t + io_ns,
                EventKind::ResourceBusy {
                    resource: 1,
                    user: 1,
                    queued_ns: 0.0,
                },
            ));
            events.push(sim_ev(
                1,
                i + 1,
                t + io_ns,
                t + io_ns,
                EventKind::BatchEgress {
                    seq: i + 1,
                    packets: packets as u32,
                    bytes,
                },
            ));
            t += 10_000.0;
        }
        // Co-residency pressure: same-shape kernel spans (kernels: 2 so
        // the dispatch-intercept fit ignores them) at low and high
        // occupancy; pressured durations follow the knee model exactly.
        for shape in 0..3u64 {
            let base = 5_000.0 + shape as f64 * 1_000.0;
            let packets = (300 + shape) as u32;
            let bytes = 64 * u64::from(packets);
            for (j, occ) in [40u8, 80, 100].into_iter().enumerate() {
                let u = f64::from(occ) / 100.0;
                let dur = if u <= 0.5 {
                    base
                } else {
                    base * (1.0 + 0.35 * (u - 0.5) / 0.5)
                };
                let batch = 100 + shape * 10 + j as u64;
                events.push(sim_ev(
                    2,
                    batch,
                    t,
                    t + dur,
                    EventKind::KernelLaunch {
                        queue: 0,
                        user: 1,
                        bytes,
                        packets,
                        kernels: 2,
                    },
                ));
                events.push(sim_ev(
                    2,
                    batch,
                    t + dur,
                    t + dur,
                    EventKind::SmOccupancy {
                        queue: 0,
                        occupancy_pct: occ,
                    },
                ));
                t += 10_000.0;
            }
        }
        let fits = calibrate(&events, &anchors);
        for f in &fits {
            assert!(
                f.drift_pct().abs() < 1.0,
                "{}: observed {} vs anchored {} (drift {:.2}%)",
                f.name,
                f.observed,
                f.anchored,
                f.drift_pct()
            );
            assert!(f.samples > 0, "{} has samples", f.name);
        }
    }

    #[test]
    fn calibrate_reports_nan_when_unfittable() {
        let fits = calibrate(
            &[],
            &CalibAnchors {
                gpu_ctx_switch_ns: 4000.0,
                gpu_dispatch_ns: 450.0,
                pcie_dma_latency_ns: 2000.0,
                pcie_bw_gbs: 12.0,
                io_cycles_per_packet: 20.0,
                ns_per_cycle: 0.5,
                gpu_residency_pressure: 0.35,
            },
        );
        assert_eq!(fits.len(), 6);
        for f in fits {
            assert!(f.observed.is_nan());
            assert!(f.drift_pct().is_nan());
            assert_eq!(f.samples, 0);
        }
    }
}
