//! Flow-cache cases outside the configuration-space differential
//! (`tests/reference_differential.rs`, which toggles the cache on every
//! generated chain): an ACL rule reload must invalidate a stage cache in
//! one generation bump, also mid-churn, and the churn worst case must
//! keep the cache's lookup and insert order.

use nfc_core::flowcache::FlowCacheMode;
use nfc_core::{BatchResult, Deployment, ExecMode, PlatformResources, Policy, Sfc, StageFlowCache};
use nfc_hetero::{PipelineSim, SimReport};
use nfc_nf::acl::{synth, Action, Rule};
use nfc_nf::flowcache::CacheCounters;
use nfc_nf::Nf;
use nfc_packet::traffic::{FlowSpec, IpVersion, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::Batch;
use nfc_telemetry::TelemetryHandle;

/// Zipf-skewed traffic over a bounded flow population — the regime the
/// fast path is built for.
fn skewed_traffic(seed: u64, flows: usize, skew: f64) -> TrafficGenerator {
    let spec = TrafficSpec::udp(SizeDist::Fixed(256)).with_flows(FlowSpec {
        count: flows.max(1),
        ..FlowSpec::default().with_skew(skew)
    });
    TrafficGenerator::new(spec, seed)
}

/// Mid-stream ACL rule-table swap: a stage cache built against one
/// compiled graph must detect the new graph's configuration hash,
/// invalidate every memoized verdict in one generation bump, and then
/// reproduce the new graph's slow path exactly.
#[test]
fn acl_rule_swap_invalidates_by_generation() {
    let compile = |rules_seed: u64| {
        let nf = Nf::firewall_with("fw", synth::generate(64, rules_seed), true);
        let entry = nf.entry();
        let run = nf.into_graph().compile().expect("firewall compiles");
        (entry, run)
    };
    let batches: Vec<Batch> = {
        let mut traffic = skewed_traffic(5, 128, 1.0);
        (0..6).map(|_| traffic.batch(128)).collect()
    };

    let (entry, mut cached_run) = compile(1);
    let mut cache = StageFlowCache::new(1024, &cached_run);

    // Phase 1: fill the cache against rule table 1 and check the fast
    // path against a fresh slow-path compile of the same rules.
    let (_, mut slow_run) = compile(1);
    for batch in &batches {
        let fast = cache.process(&mut cached_run, entry, batch.clone());
        let slow = slow_run.push_merged(entry, batch.clone());
        assert!(
            !fast.fell_back,
            "fully verdict-capable graph must not fall back"
        );
        assert_eq!(fast.out, slow, "rules 1: fast path must match slow path");
    }
    assert_eq!(slow_run.stats(), cached_run.stats(), "rules 1: statistics");
    assert!(cache.counters().hits > 0, "phase 1 must produce hits");
    assert_eq!(cache.counters().invalidations, 0);

    // Phase 2: swap in a different rule table mid-stream. Same cache,
    // new graph — every stale verdict must be invalidated at once.
    let (_, mut swapped_run) = compile(2);
    let (_, mut slow_run2) = compile(2);
    assert_ne!(
        cached_run.flow_config_hash(),
        swapped_run.flow_config_hash(),
        "different ACL rules must change the flow configuration hash"
    );
    for batch in &batches {
        let fast = cache.process(&mut swapped_run, entry, batch.clone());
        let slow = slow_run2.push_merged(entry, batch.clone());
        assert_eq!(fast.out, slow, "rules 2: fast path must match slow path");
    }
    assert_eq!(
        slow_run2.stats(),
        swapped_run.stats(),
        "rules 2: statistics"
    );
    assert_eq!(
        cache.counters().invalidations,
        1,
        "exactly one O(1) generation bump per configuration swap"
    );
}

/// Churn-shaped traffic: a uniform draw over `8 × capacity` flows — half
/// IPv4 UDP, a quarter IPv4 TCP, a quarter IPv6 UDP (rows the header
/// lanes do not cover, so verdict columns take their per-packet
/// fallback) — interleaved inside every batch.
fn churn_batches(seed: u64, capacity: usize, n_batches: usize, batch: usize) -> Vec<Batch> {
    let flows = |count: usize| FlowSpec {
        count,
        ..FlowSpec::default()
    };
    let size = SizeDist::Fixed(128);
    let mut udp4 = TrafficGenerator::new(
        TrafficSpec::udp(size.clone()).with_flows(flows(4 * capacity)),
        seed,
    );
    let mut tcp4 = TrafficGenerator::new(
        TrafficSpec::tcp(size.clone()).with_flows(flows(2 * capacity)),
        seed + 1,
    );
    let mut udp6 = TrafficGenerator::new(
        TrafficSpec::udp(size)
            .with_ip_version(IpVersion::V6)
            .with_flows(flows(2 * capacity)),
        seed + 2,
    );
    let mut seq = 0u64;
    (0..n_batches)
        .map(|_| {
            (0..batch)
                .map(|i| {
                    let mut p = match i % 4 {
                        0 | 1 => udp4.packet(),
                        2 => tcp4.packet(),
                        _ => udp6.packet(),
                    };
                    // One sequence space across the three generators.
                    p.meta.seq = seq;
                    seq += 1;
                    p
                })
                .collect()
        })
        .collect()
}

/// Synthetic rules behind one deny rule that bites the generators'
/// default population (a quarter of the destinations, half the ports),
/// so enforced `Drop` verdicts occur on every batch.
fn biting_rules(n: usize, seed: u64) -> Vec<Rule> {
    let mut rules = vec![Rule {
        dst: (u32::from_be_bytes([172, 16, 0, 0]), 14),
        dport: (0, 32767),
        ..Rule::any(Action::Deny)
    }];
    rules.extend(synth::generate(n, seed));
    rules
}

/// The cache's worst case: every batch is mostly misses and every insert
/// evicts. Egress and statistics must still equal the uncached run under
/// both execution modes, and the counters are pinned to what the
/// per-packet miss path of PR 14 produced on this exact input — lookups
/// and inserts happen in the same order with the same keys, so CLOCK
/// picks the same victims. The mixed batches are built by hand, so they
/// go through `prepare` + `process_batch` directly.
#[test]
fn churn_mix_matches_cache_off_and_keeps_lookup_order() {
    const CAPACITY: usize = 64;
    let batches = churn_batches(21, CAPACITY, 24, 128);
    let run = |exec: ExecMode, cache: FlowCacheMode| {
        let chain = Sfc::new(
            "fw-lb",
            vec![
                Nf::firewall_with("fw", biting_rules(128, 4), true),
                Nf::load_balancer("lb", 4),
            ],
        );
        let mut dep = Deployment::new(chain, Policy::CpuOnly)
            .with_batch_size(128)
            .with_exec_mode(exec)
            .with_flow_cache(cache);
        let mut sim = PipelineSim::new();
        let res = PlatformResources::register(&mut sim, dep.model());
        let mut warmup = skewed_traffic(21, 512, 0.0);
        let tel = TelemetryHandle::disabled();
        let mut prep = dep.prepare(&mut sim, &res, &mut warmup, &[], &mut 1, &tel);
        let (mut egress, mut completions) = (Vec::new(), Vec::new());
        for batch in &batches {
            match prep.process_batch(&mut sim, &res, batch.clone()) {
                BatchResult::Completed { completed, out, .. } => {
                    completions.push(completed.to_bits());
                    egress.push(out);
                }
                BatchResult::Dropped { .. } => panic!("the default queue admits every batch"),
            }
        }
        (prep.into_outcome(SimReport::default()), egress, completions)
    };
    let off = run(ExecMode::Serial, FlowCacheMode::Off);
    let on_serial = run(ExecMode::Serial, FlowCacheMode::On { capacity: CAPACITY });
    let on_parallel = run(
        ExecMode::Parallel { threads: 2 },
        FlowCacheMode::On { capacity: CAPACITY },
    );
    for (label, on) in [("serial", &on_serial), ("parallel2", &on_parallel)] {
        assert_eq!(off.1, on.1, "churn/{label}: egress must be byte-identical");
        assert_eq!(off.0.stage_stats, on.0.stage_stats, "churn/{label}");
        assert_eq!(off.0.egress_packets, on.0.egress_packets, "churn/{label}");
        assert_eq!(off.0.egress_bytes, on.0.egress_bytes, "churn/{label}");
        assert_eq!(
            on.0.flow_cache,
            CacheCounters {
                hits: PINNED_CHURN.0,
                misses: PINNED_CHURN.1,
                evictions: PINNED_CHURN.2,
                invalidations: 0,
            },
            "churn/{label}: counters moved — lookup/insert order changed"
        );
    }
    // The temporal layer charges misses only, so its timeline differs
    // from the uncached run by design — but not between execution modes.
    assert_eq!(on_serial.2, on_parallel.2, "churn: simulated completions");
}

/// `(hits, misses, evictions)` of the churn run above at the parent
/// commit.
const PINNED_CHURN: (u64, u64, u64) = (744, 5065, 4495);

/// A rule-table swap in the middle of churn: one firewall cache and one
/// load-balancer cache carried across the swap (the deployment API has
/// no mid-run reload, so the two-stage chain is driven by hand). The
/// swapped-in rules decide differently, every batch evicts, and the
/// chain's egress and statistics must track a slow-path twin throughout.
#[test]
fn rule_swap_under_churn_matches_slow_path() {
    const CAPACITY: usize = 64;
    let compile = |nf: Nf| {
        let entry = nf.entry();
        (
            entry,
            nf.into_graph().compile().expect("catalog NF compiles"),
        )
    };
    let fw = |seed: u64| compile(Nf::firewall_with("fw", biting_rules(96, seed), true));
    let batches = churn_batches(33, CAPACITY, 16, 128);

    let (lb_entry, mut lb_fast) = compile(Nf::load_balancer("lb", 4));
    let mut lb_slow = lb_fast.clone();
    let mut lb_cache = StageFlowCache::new(CAPACITY, &lb_fast);
    let (fw_entry, first) = fw(1);
    let mut fw_cache = StageFlowCache::new(CAPACITY, &first);
    for (rules_seed, half) in [(1, &batches[..8]), (2, &batches[8..])] {
        let (_, mut fw_fast) = fw(rules_seed);
        let mut fw_slow = fw_fast.clone();
        for batch in half {
            let fast = fw_cache.process(&mut fw_fast, fw_entry, batch.clone());
            assert!(!fast.fell_back, "IP-only traffic stays on the fast path");
            let fast = lb_cache.process(&mut lb_fast, lb_entry, fast.out);
            let slow = fw_slow.push_merged(fw_entry, batch.clone());
            let slow = lb_slow.push_merged(lb_entry, slow);
            assert_eq!(fast.out, slow, "rules {rules_seed}: egress");
        }
        assert_eq!(fw_fast.stats(), fw_slow.stats(), "rules {rules_seed}: fw");
    }
    assert_eq!(lb_fast.stats(), lb_slow.stats(), "lb statistics");
    let (fw_c, lb_c) = (fw_cache.counters(), lb_cache.counters());
    assert_eq!(fw_c.invalidations, 1, "one generation bump for the swap");
    assert_eq!(
        [
            (fw_c.hits, fw_c.misses, fw_c.evictions),
            (lb_c.hits, lb_c.misses, lb_c.evictions),
        ],
        PINNED_SWAP,
        "counters moved — lookup/insert order changed"
    );
}

/// `(hits, misses, evictions)` of the firewall and load-balancer caches
/// in the swap run above at the parent commit.
const PINNED_SWAP: [(u64, u64, u64); 2] = [(241, 1807, 1524), (247, 1619, 1404)];
