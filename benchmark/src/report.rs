//! The metric registry — every name, unit, clock, direction and bound —
//! and the arithmetic that turns repetitions and spans into metric
//! values. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

use crate::stats::{median, percentile, sorted, spread_ratio};
use crate::sut::{Ladder, Rep, SimFacts};
use std::collections::BTreeMap;

/// Which clock a metric is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall (or CPU) time of the functional layer; noisy.
    Wall,
    /// The temporal layer's simulated timeline; a model output, exact
    /// for a fixed seed.
    Sim,
    /// A count made by the program; exact for a fixed seed.
    Count,
}

impl Clock {
    /// `wall`, `sim` or `count`.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name; later issues refer to metrics by it.
    pub name: &'static str,
    /// Unit, in `BENCHMARK.json`'s alphabet.
    pub unit: &'static str,
    /// Clock the value is read on.
    pub clock: Clock,
    /// True when larger is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        higher_is_better,
        bound: Some(bound),
    }
}

/// A wall-clock cost of one layer: lower is better.
const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    layer(name, unit, Clock::Wall, false)
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        higher_is_better,
        bound: None,
    }
}

/// The bounded end-to-end metrics, as in `BENCHMARK.json`. The wall
/// bounds are as wide as the contract allows: on the shared 2-core
/// sandbox, medians of whole runs still differ by 4–21 % (README,
/// "Noise"). The bounds on the `sim_*` metrics apply between *different*
/// seeds (the driver's spread check, where the traffic differs); for one
/// seed they repeat exactly and `selfcheck` compares them exactly.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("wall_mpps", "Mpkt/s", Clock::Wall, true, 0.25),
    e2e("cpu_ns_per_pkt", "ns", Clock::Wall, false, 0.25),
    e2e("sim_gbps", "Gbit/s", Clock::Sim, true, 0.02),
    e2e("sim_p50_us", "sim_us", Clock::Sim, false, 0.02),
    e2e("sim_p99_us", "sim_us", Clock::Sim, false, 0.05),
    e2e("sim_capacity_gbps", "Gbit/s", Clock::Sim, true, 0.03),
    e2e("setup_s", "s", Clock::Wall, false, 0.25),
    e2e("peak_rss_mb", "MB", Clock::Wall, false, 0.25),
];

/// The two end-to-end ratios that are 0 on a healthy run. The driver's
/// contract admits no end-to-end metric that can be 0 (its bound is a
/// share of the baseline), so they are listed with the unbounded metrics
/// and enforced by the harness itself: any rise fails the run.
pub const ZERO_RATIOS: [MetricDef; 2] = [
    layer("sim_drop_ratio", "ratio", Clock::Sim, false),
    layer("failed_ratio", "ratio", Clock::Count, false),
];

/// The per-layer metrics, layer by layer (layers are the crates).
pub const PER_LAYER: [MetricDef; 63] = [
    // nfc-packet
    timing("packet.traffic.gen_ns_per_pkt", "ns"),
    timing("packet.lanes.gather_ns_per_pkt", "ns"),
    timing("packet.lanes.writeback_ns_per_pkt", "ns"),
    timing("packet.batch.cow_clone_ns_per_pkt", "ns"),
    timing("packet.batch.split_merge_ns_per_pkt", "ns"),
    timing("packet.flow.key_ns_per_pkt", "ns"),
    // nfc-nf
    timing("nf.acl.classify_ns_per_pkt", "ns"),
    timing("nf.acl.classify_scalar_ns_per_pkt", "ns"),
    timing("nf.lpm.lookup8_ns_per_pkt", "ns"),
    timing("nf.ac.scan_ns_per_byte", "ns"),
    timing("nf.aes.ctr_ns_per_byte", "ns"),
    timing("nf.hmac.sha1_ns_per_byte", "ns"),
    timing("nf.clocktable.get_ns", "ns"),
    timing("nf.clocktable.insert_ns", "ns"),
    layer("nf.clocktable.evictions", "count", Clock::Count, false),
    // nfc-click
    timing("click.push.fw_ns_per_pkt", "ns"),
    timing("click.push.router_ns_per_pkt", "ns"),
    timing("click.push.nat_ns_per_pkt", "ns"),
    timing("click.push.ids_ns_per_pkt", "ns"),
    timing("click.push.ipsec_ns_per_pkt", "ns"),
    timing("click.push.acl_ns_per_pkt", "ns"),
    timing("click.push.lpm_ns_per_pkt", "ns"),
    timing("click.push.lb_ns_per_pkt", "ns"),
    timing("click.push.dpi_ns_per_pkt", "ns"),
    timing("click.trace_flow_ns_per_pkt", "ns"),
    // nfc-core
    timing("core.runtime.batch_wall_us_p50", "us"),
    timing("core.runtime.batch_wall_us_p99", "us"),
    timing("core.runtime.batch_wall_us_max", "us"),
    timing("core.runtime.prepare_ms", "ms"),
    timing("core.runtime.residual_ns_per_pkt", "ns"),
    timing("core.runtime.ladder_residual_ratio", "ratio"),
    layer("core.runtime.egress_ratio", "ratio", Clock::Count, true),
    layer(
        "core.runtime.offload_ratio_mean",
        "ratio",
        Clock::Count,
        true,
    ),
    layer(
        "core.residency.spilled_kernels",
        "count",
        Clock::Count,
        false,
    ),
    timing("core.orchestrator.analyze_us", "us"),
    timing("core.synthesizer.synthesize_us", "us"),
    timing("core.profiler.measure_us", "us"),
    timing("core.allocator.allocate_kl_us", "us"),
    timing("core.allocator.allocate_agglo_us", "us"),
    timing("core.orchestrator.merge_ns_per_pkt", "ns"),
    timing("core.engine.par_map_us_per_call", "us"),
    layer("core.engine.serial_mpps", "Mpkt/s", Clock::Wall, true),
    layer("core.engine.parallel_speedup", "ratio", Clock::Wall, true),
    layer("core.flowcache.hit_ratio", "ratio", Clock::Count, true),
    layer("core.flowcache.hits", "count", Clock::Count, true),
    layer("core.flowcache.misses", "count", Clock::Count, false),
    layer("core.flowcache.evictions", "count", Clock::Count, false),
    timing("core.flowcache.process_ns_per_pkt", "ns"),
    layer("core.flowcache.bypass_mpps", "Mpkt/s", Clock::Wall, true),
    // nfc-graphpart
    timing("graphpart.kl.partition_us", "us"),
    timing("graphpart.agglo.partition_us", "us"),
    layer("graphpart.kl.cost", "cost", Clock::Sim, false),
    // nfc-hetero
    timing("hetero.sim.schedule_ns_per_call", "ns"),
    timing("hetero.sim.host_s_per_sim_s", "ratio"),
    // nfc-control
    timing("control.controller.observe_ns", "ns"),
    // nfc-cluster
    timing("cluster.ring.server_for_ns", "ns"),
    layer("cluster.deploy.n1_mpps", "Mpkt/s", Clock::Wall, true),
    layer("cluster.deploy.rebalances", "count", Clock::Count, false),
    layer(
        "cluster.deploy.migrated_bytes",
        "bytes",
        Clock::Count,
        false,
    ),
    // nfc-telemetry
    timing("telemetry.off_probe_ns", "ns"),
    timing("telemetry.memory_overhead_ratio", "ratio"),
    // the harness itself
    timing("bench.trace_overhead_ratio", "ratio"),
    timing("bench.rep_spread_ratio", "ratio"),
];

/// The span a per-layer timing is the mean of, with the ns per unit of
/// the metric. The convention is in the name: `<span>_ns` or `<span>_us`,
/// optionally followed by the work unit (`_per_pkt`, `_per_byte`,
/// `_per_call`) the span's total time is divided by.
pub fn span_of(metric: &str) -> Option<(&str, f64)> {
    let (at, scale) = [("_ns", 1.0), ("_us", 1e3)]
        .iter()
        .find_map(|&(unit, scale)| Some((metric.rfind(unit)?, scale)))?;
    matches!(
        &metric[at + 3..],
        "" | "_per_pkt" | "_per_byte" | "_per_call"
    )
    .then_some((&metric[..at], scale))
}

/// Looks a metric up in the registry.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(&ZERO_RATIOS)
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
}

/// Whether `metric`'s layer does work on a workload whose path spans are
/// `path`. A metric whose layer does none is an off-path reference there
/// (or a structural zero) and is left out of the printed table.
pub fn applies(metric: &str, path: &[&'static str]) -> bool {
    let on = |span: &str| path.contains(&span);
    match metric {
        m if m.starts_with("core.runtime.") => true,
        m if m.starts_with("core.flowcache.") => on("core.flowcache.process"),
        m if m.starts_with("cluster.deploy.") => on("cluster.ring.server_for"),
        "core.engine.serial_mpps" | "core.engine.parallel_speedup" => on("core.engine.par_map"),
        "nf.clocktable.evictions" => on("nf.clocktable.get"),
        "graphpart.kl.cost" => on("graphpart.kl.partition"),
        m => span_of(m).is_none_or(|(span, _)| on(span)),
    }
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Packets per µs of timed region: Mpkt/s.
fn mpps(r: &Rep) -> f64 {
    r.completed_packets as f64 / r.busy_s.max(1e-12) / 1e6
}

/// A repetition during which the hypervisor stole more than this share of
/// the host's CPU time is disturbed: it measures the neighbours, not the
/// program. The selection is on the steal counter, never on the result.
pub const STOLEN_LIMIT: f64 = 0.01;
/// Wall metrics use the calm repetitions only when there are this many.
pub const MIN_CALM: usize = 5;

/// The untraced repetitions of one workload and what rides along.
#[derive(Debug, Default)]
pub struct Untraced {
    /// The repetitions, each from a freshly built deployment.
    pub reps: Vec<Rep>,
    /// `setup_s` of every fresh build (repetitions and set-up-only).
    pub setups: Vec<f64>,
    /// The `prepare` share of the same builds.
    pub prepares: Vec<f64>,
    /// The saturation pass.
    pub saturation: Option<SimFacts>,
    /// `VmHWM` once the minimum number of untraced repetitions has run
    /// (so it does not depend on the time budget), MB.
    pub peak_rss_mb: f64,
    /// Batches failed: tail-drops plus every batch of a repetition whose
    /// digest is wrong.
    pub failed: u64,
}

impl Untraced {
    /// Batches attempted over the repetitions.
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    /// The repetitions the wall metrics are taken over: the calm ones
    /// when there are at least [`MIN_CALM`], otherwise all of them.
    pub fn calm(&self) -> Vec<&Rep> {
        let calm: Vec<&Rep> = self
            .reps
            .iter()
            .filter(|r| r.stolen <= STOLEN_LIMIT)
            .collect();
        if calm.len() >= MIN_CALM {
            calm
        } else {
            self.reps.iter().collect()
        }
    }

    /// `wall_mpps` of every calm repetition.
    pub fn wall_mpps(&self) -> Vec<f64> {
        self.calm().into_iter().map(mpps).collect()
    }

    /// The end-to-end metrics (the bounded eight and the two ratios).
    pub fn end_to_end(&self) -> Values {
        let first = &self.reps[0];
        let cpu: Vec<f64> = self
            .calm()
            .iter()
            .map(|r| r.cpu_s * 1e9 / r.completed_packets.max(1) as f64)
            .collect();
        let mut v = Values::new();
        v.insert("wall_mpps", median(&self.wall_mpps()));
        v.insert("cpu_ns_per_pkt", median(&cpu));
        v.insert("sim_gbps", first.sim.gbps);
        v.insert("sim_p50_us", first.sim.p50_us);
        v.insert("sim_p99_us", first.sim.p99_us);
        if let Some(s) = &self.saturation {
            v.insert("sim_capacity_gbps", s.gbps);
        }
        v.insert("setup_s", median(&self.setups));
        v.insert("peak_rss_mb", self.peak_rss_mb);
        v.insert(
            "sim_drop_ratio",
            first.sim.dropped as f64 / first.sim.offered.max(1) as f64,
        );
        v.insert(
            "failed_ratio",
            self.failed as f64 / self.attempted().max(1) as f64,
        );
        v
    }
}

/// The traced side of one workload: the ladder and the extra baseline
/// repetitions.
pub struct Traced {
    /// The ladder after the traced repetition and the micro-loops.
    pub ladder: Ladder,
    /// The traced repetition itself.
    pub rep: Rep,
    /// Untraced repetition under `ExecMode::Serial` (width > 1 only).
    pub serial: Option<Rep>,
    /// Untraced repetition with the flow cache off (cached only).
    pub cache_off: Option<Rep>,
    /// Untraced repetition under `TelemetryMode::Memory`.
    pub telemetry: Rep,
    /// The same traffic through `ClusterSpec::uniform(1)`.
    pub n1: Rep,
}

/// The per-layer metrics of one workload.
pub fn per_layer(u: &Untraced, t: &Traced) -> Values {
    let mut v = Values::new();
    let totals = t.ladder.tracer.totals();
    for d in &PER_LAYER {
        let Some((span, scale)) = span_of(d.name) else {
            continue;
        };
        let work = t.ladder.work.get(span).copied().unwrap_or(0.0);
        if let (Some(&(_, ns)), true) = (totals.get(span), work > 0.0) {
            v.insert(d.name, ns as f64 / work / scale);
        }
    }
    let first = &u.reps[0];
    let wall = median(&u.wall_mpps());

    let calm = u.calm();
    let calls = sorted(
        &calm
            .iter()
            .flat_map(|r| r.call_ns.iter().copied())
            .collect::<Vec<_>>(),
    );
    v.insert(
        "core.runtime.batch_wall_us_p50",
        percentile(&calls, 0.50) / 1e3,
    );
    v.insert(
        "core.runtime.batch_wall_us_p99",
        percentile(&calls, 0.99) / 1e3,
    );
    v.insert(
        "core.runtime.batch_wall_us_max",
        calls.last().copied().unwrap_or(0.0) / 1e3,
    );
    v.insert("core.runtime.prepare_ms", median(&u.prepares) * 1e3);

    // What the runtime costs beyond the rungs it runs: the root spans'
    // self time (temporal replay, bookkeeping, observer branches).
    let spans = t.ladder.tracer.spans();
    let own = t.ladder.tracer.self_ns();
    let (mut root_ns, mut residual_ns) = (0.0, 0.0);
    for (s, own) in spans.iter().zip(own) {
        if s.name == "core.runtime.process_batch" {
            root_ns += s.dur_ns as f64;
            residual_ns += own as f64;
        }
    }
    v.insert(
        "core.runtime.residual_ns_per_pkt",
        residual_ns / t.rep.completed_packets.max(1) as f64,
    );
    v.insert(
        "core.runtime.ladder_residual_ratio",
        residual_ns / root_ns.max(1.0),
    );

    let c = &first.counts;
    v.insert(
        "core.runtime.egress_ratio",
        c.egress_packets as f64 / c.ingress_packets.max(1) as f64,
    );
    v.insert("core.runtime.offload_ratio_mean", c.offload_ratio_mean);
    v.insert("core.residency.spilled_kernels", c.spilled_kernels as f64);

    // At width 1 the engine runs the one branch on the calling thread
    // whatever the mode, so serial is the default by construction.
    let serial = t.serial.as_ref().map_or(wall, mpps);
    v.insert("core.engine.serial_mpps", serial);
    v.insert("core.engine.parallel_speedup", wall / serial);

    let probes = c.cache_hits + c.cache_misses;
    v.insert(
        "core.flowcache.hit_ratio",
        c.cache_hits as f64 / probes.max(1) as f64,
    );
    v.insert("core.flowcache.hits", c.cache_hits as f64);
    v.insert("core.flowcache.misses", c.cache_misses as f64);
    v.insert("core.flowcache.evictions", c.cache_evictions as f64);
    // Without a cache every repetition already bypasses it.
    v.insert(
        "core.flowcache.bypass_mpps",
        t.cache_off.as_ref().map_or(wall, mpps),
    );

    v.insert("nf.clocktable.evictions", t.ladder.clock_evictions as f64);
    v.insert("graphpart.kl.cost", t.ladder.kl_cost);
    let host_per_sim: Vec<f64> = calm
        .iter()
        .map(|r| r.busy_s / r.sim.span_s.max(1e-12))
        .collect();
    v.insert("hetero.sim.host_s_per_sim_s", median(&host_per_sim));
    v.insert("cluster.deploy.n1_mpps", mpps(&t.n1));
    v.insert("cluster.deploy.rebalances", c.rebalances as f64);
    v.insert("cluster.deploy.migrated_bytes", c.migrated_bytes as f64);
    // Overheads compare the median `process_batch` call of two
    // repetitions: a total would charge one repetition's stalls to the
    // mechanism. The traced repetition runs serially wherever the rungs
    // do, so it is compared with the untraced repetition that does too.
    let p50 = |r: &Rep| percentile(&sorted(&r.call_ns), 0.50);
    let untraced_p50 = percentile(&calls, 0.50);
    v.insert(
        "telemetry.memory_overhead_ratio",
        p50(&t.telemetry) / untraced_p50 - 1.0,
    );
    v.insert(
        "bench.trace_overhead_ratio",
        p50(&t.rep) / t.serial.as_ref().map_or(untraced_p50, p50) - 1.0,
    );
    v.insert("bench.rep_spread_ratio", spread_ratio(&u.wall_mpps()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&ZERO_RATIOS)
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for d in END_TO_END.iter().chain(&ZERO_RATIOS).chain(&PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn span_names_follow_from_metric_names() {
        assert_eq!(
            span_of("packet.lanes.gather_ns_per_pkt"),
            Some(("packet.lanes.gather", 1.0))
        );
        assert_eq!(span_of("nf.ac.scan_ns_per_byte"), Some(("nf.ac.scan", 1.0)));
        assert_eq!(
            span_of("nf.clocktable.get_ns"),
            Some(("nf.clocktable.get", 1.0))
        );
        assert_eq!(
            span_of("core.engine.par_map_us_per_call"),
            Some(("core.engine.par_map", 1e3))
        );
        assert_eq!(
            span_of("core.allocator.allocate_kl_us"),
            Some(("core.allocator.allocate_kl", 1e3))
        );
        assert_eq!(span_of("core.runtime.batch_wall_us_p50"), None);
        assert_eq!(span_of("core.flowcache.hit_ratio"), None);
        assert_eq!(span_of("wall_mpps"), None);
        let path = ["click.push.fw", "core.engine.par_map"];
        assert!(applies("click.push.fw_ns_per_pkt", &path));
        assert!(!applies("click.push.nat_ns_per_pkt", &path));
        assert!(applies("core.runtime.residual_ns_per_pkt", &path));
        assert!(applies("core.engine.parallel_speedup", &path));
        assert!(!applies("core.flowcache.hits", &path));
        assert!(applies("bench.rep_spread_ratio", &path));
    }

    /// `BENCHMARK.json` and the registry name the same metrics with the
    /// same units, directions and bounds, and the same six workloads.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        let v = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let check = |key: &str, defs: Vec<&MetricDef>| {
            let listed = v[key].as_array().expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l["name"].as_str(), Some(d.name));
                assert_eq!(l["unit"].as_str(), Some(d.unit), "{}", d.name);
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(l["better"].as_str(), Some(better), "{}", d.name);
                assert_eq!(
                    l.get("bound").and_then(|b| b.as_f64()),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", END_TO_END.iter().collect());
        check("per_layer", ZERO_RATIOS.iter().chain(&PER_LAYER).collect());
        let names: Vec<&str> = v["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .filter_map(|w| w["name"].as_str())
            .collect();
        let ours: Vec<&str> = crate::sut::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }
}
