//! Integration tests for the profiling pipeline: live statistics, co-run
//! aware weights, and their use by allocation.

use nfc_click::KernelClass;
use nfc_core::allocator::{allocate, stage_cost, PartitionAlgo, Pricing};
use nfc_core::expansion::Expansion;
use nfc_core::profiler::Profiler;
use nfc_hetero::{CoRunContext, CostModel, GpuMode, PlatformConfig};
use nfc_nf::Nf;
use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};

fn model() -> CostModel {
    CostModel::new(PlatformConfig::hpca18())
}

fn profiled(nf: &Nf, pkt: usize, batch: usize) -> nfc_core::profiler::GraphWeights {
    let mut run = nf.graph().clone().compile().expect("compiles");
    let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(pkt)), 3);
    for _ in 0..8 {
        run.push_merged(nf.entry(), gen.batch(batch));
    }
    Profiler::new(model(), GpuMode::Persistent).measure(&run)
}

#[test]
fn corun_context_raises_cpu_weights() {
    let nf = Nf::dpi("dpi");
    let mut run = nf.graph().clone().compile().expect("compiles");
    let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(512)), 3);
    for _ in 0..4 {
        run.push_merged(nf.entry(), gen.batch(128));
    }
    let profiler = Profiler::new(model(), GpuMode::Persistent);
    let solo = profiler.measure(&run);
    let busy = profiler.measure_with_corun(
        &run,
        &CoRunContext::new([Some(KernelClass::PatternMatch), Some(KernelClass::Lookup)]),
    );
    for (a, b) in solo.nodes.iter().zip(busy.nodes.iter()) {
        assert!(b.cpu_ns >= a.cpu_ns, "co-run must not cheapen CPU work");
        // GPU weights unaffected by CPU cache contention.
        assert_eq!(a.gpu.kernel_ns.to_bits(), b.gpu.kernel_ns.to_bits());
    }
    assert!(
        busy.nodes
            .iter()
            .zip(solo.nodes.iter())
            .any(|(b, a)| b.cpu_ns > a.cpu_ns),
        "at least one element must get slower"
    );
}

#[test]
fn stage_cost_tracks_plan_quality() {
    // A plan the allocator chose must not be worse than both trivial
    // extremes under the same evaluator.
    let nf = Nf::ipsec("e");
    let w = profiled(&nf, 512, 256);
    let solo = Pricing {
        model: model(),
        corun: CoRunContext::solo(),
        mode: GpuMode::Persistent,
    };
    let plan = allocate(nf.graph(), &w, PartitionAlgo::Kl, 0.1);
    let chosen = stage_cost(&solo, &w, &plan.ratios);
    let all_cpu = stage_cost(&solo, &w, &vec![0.0; w.nodes.len()]);
    let all_gpu_ratios: Vec<f64> = w
        .nodes
        .iter()
        .map(|n| if n.offloadable { 1.0 } else { 0.0 })
        .collect();
    let all_gpu = stage_cost(&solo, &w, &all_gpu_ratios);
    assert!(
        chosen <= all_cpu.min(all_gpu) * 1.3,
        "chosen {chosen} vs cpu {all_cpu} / gpu {all_gpu}"
    );
}

#[test]
fn expansion_edges_price_io_boundaries() {
    let nf = Nf::ipsec("e");
    let w = profiled(&nf, 256, 128);
    let exp = Expansion::expand(nf.graph(), &w, 0.1);
    // Moving every slice to the GPU must cut both I/O edges: total cut
    // weight roughly two batch transfers.
    use nfc_graphpart::{Objective, Partition, Side};
    let sides: Vec<Side> = (0..exp.part.len())
        .map(|v| {
            if exp.part.pin(v).is_some() {
                Side::Cpu
            } else {
                Side::Gpu
            }
        })
        .collect();
    let cut = Objective::default().cut(&exp.part, &Partition(sides));
    let one_transfer = 2_000.0 + w.entry_bytes / 12.0;
    assert!(
        (cut - 2.0 * one_transfer).abs() / (2.0 * one_transfer) < 0.05,
        "cut {cut} vs 2x transfer {one_transfer}"
    );
}

#[test]
fn drops_shrink_downstream_weights() {
    // An enforcing firewall that denies much of the traffic must leave
    // the downstream element with a smaller profiled load.
    use nfc_nf::acl::{synth, AclTable, Action};
    use nfc_nf::elements::FirewallFilter;
    use std::sync::Arc;
    let mut g = nfc_click::ElementGraph::new();
    let deny_all_tcp = nfc_nf::acl::Rule {
        proto: Some(6),
        ..nfc_nf::acl::Rule::any(Action::Deny)
    };
    let mut rules = vec![deny_all_tcp];
    rules.extend(synth::generate(10, 1));
    let fw = g.add(FirewallFilter::new(
        Arc::new(AclTable::new(rules, Action::Allow)),
        true,
    ));
    let probe = g.add(nfc_nf::elements::Probe::new());
    g.connect(fw, 0, probe).expect("wiring");
    let nf = Nf::from_graph("fw-probe", nfc_nf::NfKind::Firewall, g);
    let mut run = nf.graph().clone().compile().expect("compiles");
    let mut gen = TrafficGenerator::new(TrafficSpec::tcp(SizeDist::Fixed(64)), 5);
    for _ in 0..4 {
        run.push_merged(nf.entry(), gen.batch(128));
    }
    let w = Profiler::new(model(), GpuMode::Persistent).measure(&run);
    assert_eq!(w.nodes[0].load.packets, 128);
    assert!(
        w.nodes[1].load.packets < 64,
        "probe should see only surviving packets, got {}",
        w.nodes[1].load.packets
    );
}
