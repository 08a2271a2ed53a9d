//! One regeneration function per table/figure of the paper's evaluation.
//!
//! Every function prints the same rows/series the paper reports and
//! returns them as an [`ExperimentResult`] for persistence. A `quick`
//! flag trades batch count for runtime; shapes are stable either way.
//!
//! Sweep-style figures (6, 7, 15, 17) fan their independent runs out on
//! the execution engine's worker pool ([`nfc_core::par_map`]); results
//! come back in sweep order and are printed after collection, so the
//! tables and persisted rows are identical whatever `NFC_THREADS` says.

use crate::util::{gbps, header, us, ExperimentResult};
use nfc_click::elements::SyntheticWork;
use nfc_click::ElementGraph;
use nfc_core::allocator::PartitionAlgo;
use nfc_core::{par_map, ControllerConfig, Deployment, ExecMode, Policy, ReorgSfc, Sfc};
use nfc_hetero::{CoRunContext, GpuMode};
use nfc_nf::{Nf, NfKind};
use nfc_packet::traffic::{IpVersion, PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};
use serde_json::json;

fn batches(quick: bool) -> usize {
    if quick {
        20
    } else {
        60
    }
}

/// Builds a single-NF chain by short name.
pub fn nf_by_name(name: &str) -> Nf {
    match name {
        "IPv4" => Nf::ipv4_forwarder("ipv4", 1000, 2),
        "IPv6" => Nf::ipv6_forwarder("ipv6", 500, 3),
        "IPsec" => Nf::ipsec("ipsec"),
        "IDS" => Nf::ids("ids"),
        "DPI" => Nf::dpi("dpi"),
        "FW" => Nf::firewall("fw", 200, 1),
        "NAT" => Nf::nat("nat", [203, 0, 113, 1]),
        other => panic!("unknown NF {other}"),
    }
}

fn run(
    sfc: Sfc,
    policy: Policy,
    spec: TrafficSpec,
    batch: usize,
    n: usize,
    seed: u64,
) -> nfc_core::RunOutcome {
    let mut dep = Deployment::new(sfc, policy).with_batch_size(batch);
    let mut traffic = TrafficGenerator::new(spec, seed);
    dep.run(&mut traffic, n)
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table II: NF actions on packets.
pub fn table2() -> ExperimentResult {
    header("Table II: NF actions on packet");
    let mut res = ExperimentResult::new("table2", "NF actions on packet");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>6}",
        "NF", "HDR/PL Rd", "HDR/PL Wr", "Add/Rm bits", "Drop"
    );
    let kinds = [
        NfKind::Probe,
        NfKind::Ids,
        NfKind::Firewall,
        NfKind::Nat,
        NfKind::LoadBalancer,
        NfKind::WanOptimizer,
        NfKind::Proxy,
    ];
    let yn = |b: bool| if b { "Y" } else { "N" };
    for kind in kinds {
        let p = kind.table2_profile();
        println!(
            "{:<14} {:>10} {:>12} {:>12} {:>6}",
            kind.label(),
            format!("{}/{}", yn(p.reads_header), yn(p.reads_payload)),
            format!("{}/{}", yn(p.writes_header), yn(p.writes_payload)),
            yn(p.resizes),
            yn(p.may_drop)
        );
        res.push(json!({
            "nf": kind.label(),
            "reads_header": p.reads_header, "reads_payload": p.reads_payload,
            "writes_header": p.writes_header, "writes_payload": p.writes_payload,
            "resizes": p.resizes, "may_drop": p.may_drop,
        }));
    }
    res
}

/// Table III: parallelization criteria over ordered action pairs.
pub fn table3() -> ExperimentResult {
    header("Table III: NF parallelization criteria (first NF = row, later NF = column)");
    let mut res = ExperimentResult::new("table3", "NF parallelization criteria");
    use nfc_click::ElementActions;
    let reader = ElementActions::read_all();
    let writer = ElementActions::read_all()
        .with_header_write()
        .with_payload_write();
    let dropper = ElementActions::read_all().with_drop();
    let cases = [("Read", reader), ("Write", writer), ("Drop", dropper)];
    println!("{:<8} {:>8} {:>8} {:>8}", "", "Read", "Write", "Drop");
    for (rname, r) in &cases {
        print!("{rname:<8}");
        for (cname, c) in &cases {
            let ok = nfc_core::depend::parallelizable(r, c);
            print!(" {:>8}", if ok { "ok" } else { "x" });
            res.push(json!({"first": rname, "second": cname, "parallelizable": ok}));
        }
        println!();
    }
    println!("(region granularity; the paper's '*' disjoint-field cases need field tracking)");
    res
}

// ---------------------------------------------------------------------
// Figure 5: batch split overhead
// ---------------------------------------------------------------------

/// A branch-test NF: per-packet work plus an optional 2-way hash branch
/// whose outputs rejoin (forcing batch re-organization).
fn branch_test_nf(name: &str, split: bool) -> Nf {
    let mut g = ElementGraph::new();
    if split {
        let branch = g.add(SyntheticWork::new("branch", 110.0, 0.0).with_outputs(2));
        let a = g.add(SyntheticWork::new("path-a", 1.0, 0.0));
        let b = g.add(SyntheticWork::new("path-b", 1.0, 0.0));
        let join = g.add(SyntheticWork::new("join", 1.0, 0.0));
        g.connect(branch, 0, a).expect("wiring");
        g.connect(branch, 1, b).expect("wiring");
        g.connect(a, 0, join).expect("wiring");
        g.connect(b, 0, join).expect("wiring");
    } else {
        let w = g.add(SyntheticWork::new("straight", 110.0, 0.0));
        let t = g.add(SyntheticWork::new("tail", 2.0, 0.0));
        g.connect(w, 0, t).expect("wiring");
    }
    Nf::from_graph(name, NfKind::Probe, g)
}

/// Figure 5: throughput with and without batch splitting on a
/// branch-test chain (paper: 36.5 -> 15.8 Gbps).
pub fn fig5(quick: bool) -> ExperimentResult {
    header("Figure 5: batch-split re-organization overhead");
    let mut res = ExperimentResult::new("fig5", "batch split overhead");
    let spec = TrafficSpec::udp(SizeDist::Fixed(64));
    let mut out = Vec::new();
    for (label, split) in [("without_split", false), ("with_split", true)] {
        let sfc = Sfc::new(
            label,
            (0..3)
                .map(|i| branch_test_nf(&format!("bt{i}"), split))
                .collect(),
        );
        let o = run(sfc, Policy::CpuOnly, spec.clone(), 256, batches(quick), 5);
        println!(
            "{label:<16} {} Gbps (p50 latency {} us)",
            gbps(o.report.throughput_gbps),
            us(o.report.p50_latency_ns)
        );
        res.push(json!({
            "config": label,
            "gbps": o.report.throughput_gbps,
            "p50_us": o.report.p50_latency_ns / 1000.0,
        }));
        out.push(o.report.throughput_gbps);
    }
    println!(
        "split costs {:.0}% of throughput (paper: 36.5 -> 15.8 Gbps, -57%)",
        (1.0 - out[1] / out[0]) * 100.0
    );
    res
}

// ---------------------------------------------------------------------
// Figure 6: offload-ratio sweep
// ---------------------------------------------------------------------

/// Figure 6: throughput vs GPU offload fraction for IPv4 forwarding,
/// IPsec and DPI (paper: IPsec best ≈ 70 %).
pub fn fig6(quick: bool) -> ExperimentResult {
    header("Figure 6: performance by offloading fraction");
    let mut res = ExperimentResult::new("fig6", "throughput vs offload ratio");
    print!("{:<8}", "ratio");
    for r in 0..=10 {
        print!(" {:>6.0}%", r as f64 * 10.0);
    }
    println!();
    let exec = ExecMode::auto();
    for (name, pkt) in [("IPv4", 64), ("IPsec", 64), ("DPI", 512)] {
        // The 11 grid points are independent deployments: fan out.
        let series: Vec<f64> = par_map(exec, (0..=10).collect(), move |_, r: u32| {
            let ratio = f64::from(r) / 10.0;
            let policy = if ratio == 0.0 {
                Policy::CpuOnly
            } else {
                Policy::FixedRatio {
                    ratio,
                    mode: GpuMode::Persistent,
                }
            };
            let sfc = Sfc::new(name, vec![nf_by_name(name)]);
            run(
                sfc,
                policy,
                TrafficSpec::udp(SizeDist::Fixed(pkt)),
                256,
                batches(quick),
                3,
            )
            .report
            .throughput_gbps
        });
        print!("{name:<8}");
        for g in &series {
            print!(" {g:>7.2}");
        }
        println!();
        let best = series
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i * 10)
            .unwrap_or(0);
        println!("  -> best ratio for {name}: {best}%");
        res.push(json!({"nf": name, "pkt": pkt, "gbps_by_ratio": series, "best_pct": best}));
    }
    res
}

// ---------------------------------------------------------------------
// Figure 7: acceleration offset by SFC length
// ---------------------------------------------------------------------

/// Figure 7: the same offload setting behaves differently as the chain
/// grows (cases A-D; CPU-only vs GPU-only vs 70 % offload).
pub fn fig7(quick: bool) -> ExperimentResult {
    header("Figure 7: GPU benefit offset with SFC length");
    let mut res = ExperimentResult::new("fig7", "acceleration offset by chain length");
    let cases: Vec<(&str, Vec<&str>)> = vec![
        ("A: IPsec", vec!["IPsec"]),
        ("B: IPsec+IPv4", vec!["IPsec", "IPv4"]),
        ("C: FW+IPv4+IPsec", vec!["FW", "IPv4", "IPsec"]),
        ("D: IPv4+IPsec+IDS", vec!["IPv4", "IPsec", "IDS"]),
    ];
    println!(
        "{:<20} {:>10} {:>10} {:>10}",
        "case", "CPU-only", "GPU-only", "70% offld"
    );
    // One pool task per (case, policy); rows regroup in case order.
    let policies = [
        Policy::CpuOnly,
        Policy::GpuOnly {
            mode: GpuMode::LaunchPerBatch,
        },
        Policy::FixedRatio {
            ratio: 0.7,
            mode: GpuMode::LaunchPerBatch,
        },
    ];
    let points: Vec<(&str, Vec<&str>, Policy)> = cases
        .iter()
        .flat_map(|(label, chain)| policies.iter().map(|p| (*label, chain.clone(), *p)))
        .collect();
    let flat = par_map(ExecMode::auto(), points, move |_, (label, chain, p)| {
        let sfc = Sfc::new(label, chain.iter().map(|n| nf_by_name(n)).collect());
        let spec = TrafficSpec::udp(SizeDist::Fixed(64));
        run(sfc, p, spec, 256, batches(quick), 7)
            .report
            .throughput_gbps
    });
    for ((label, _), row) in cases.iter().zip(flat.chunks(policies.len())) {
        println!(
            "{:<20} {:>10} {:>10} {:>10}",
            label,
            gbps(row[0]),
            gbps(row[1]),
            gbps(row[2])
        );
        res.push(json!({
            "case": label, "cpu_only": row[0], "gpu_only": row[1], "ratio70": row[2],
        }));
    }
    res
}

// ---------------------------------------------------------------------
// Figure 8: characterization
// ---------------------------------------------------------------------

/// Figure 8(a-d): throughput vs batch size per NF on CPU and GPU; DPI
/// with no-match vs full-match traffic.
pub fn fig8(quick: bool) -> ExperimentResult {
    header("Figure 8(a-d): batch size / traffic-pattern characterization");
    let mut res = ExperimentResult::new("fig8", "batch-size characterization");
    let batch_sizes = [32usize, 64, 128, 256, 512, 1024];
    let workloads: Vec<(&str, &str, usize, f64)> = vec![
        ("IPv4", "IPv4", 64, 0.0),
        ("IPv6", "IPv6", 64, 0.0),
        ("IPsec", "IPsec", 256, 0.0),
        ("DPI no-match", "DPI", 1024, 0.0),
        ("DPI full-match", "DPI", 1024, 1.0),
    ];
    print!("{:<18} {:<4}", "workload", "side");
    for b in batch_sizes {
        print!(" {:>7}", b);
    }
    println!();
    for (label, name, pkt, match_ratio) in workloads {
        for (side, policy) in [
            ("CPU", Policy::CpuOnly),
            (
                "GPU",
                Policy::GpuOnly {
                    mode: GpuMode::Persistent,
                },
            ),
        ] {
            // IPv6 has no GPU row in our harness only if not offloadable;
            // it is (Lookup kernel), so both rows print.
            print!("{label:<18} {side:<4}");
            let mut series = Vec::new();
            for b in batch_sizes {
                let spec = if name == "IPv6" {
                    TrafficSpec::udp(SizeDist::Fixed(pkt)).with_ip_version(IpVersion::V6)
                } else if match_ratio > 0.0 {
                    TrafficSpec::udp(SizeDist::Fixed(pkt)).with_payload(PayloadPolicy::MatchRatio {
                        patterns: Nf::default_ids_signatures(),
                        ratio: match_ratio,
                    })
                } else {
                    TrafficSpec::udp(SizeDist::Fixed(pkt))
                };
                let sfc = Sfc::new(label, vec![nf_by_name(name)]);
                let o = run(sfc, policy, spec, b, batches(quick), 11);
                print!(" {:>7.2}", o.report.throughput_gbps);
                series.push(o.report.throughput_gbps);
            }
            println!();
            res.push(json!({
                "workload": label, "side": side, "pkt": pkt,
                "batch_sizes": batch_sizes, "gbps": series,
            }));
        }
    }
    res
}

/// Figure 8(e): co-run throughput-drop matrix (model-level; the paper's
/// IDS suffers most, ≈22 % average, firewall least).
pub fn fig8e() -> ExperimentResult {
    header("Figure 8(e): co-run throughput drop (victim rows, co-runner columns)");
    let mut res = ExperimentResult::new("fig8e", "co-run interference matrix");
    use nfc_click::KernelClass;
    let nfs = [
        ("IDS", Some(KernelClass::PatternMatch)),
        ("IPv4", Some(KernelClass::Lookup)),
        ("IPv6", Some(KernelClass::Lookup)),
        ("IPsec", Some(KernelClass::Crypto)),
        ("FW", Some(KernelClass::Classification)),
    ];
    print!("{:<8}", "victim");
    for (n, _) in &nfs {
        print!(" {:>7}", n);
    }
    println!(" {:>7}", "avg");
    for (victim, vk) in &nfs {
        print!("{victim:<8}");
        let mut drops = Vec::new();
        for (_, ok) in &nfs {
            let drop = CoRunContext::new([*ok]).throughput_drop(*vk);
            print!(" {:>6.1}%", drop * 100.0);
            drops.push(drop);
        }
        let avg = drops.iter().sum::<f64>() / drops.len() as f64;
        println!(" {:>6.1}%", avg * 100.0);
        res.push(json!({"victim": victim, "drops": drops, "avg": avg}));
    }
    res
}

// ---------------------------------------------------------------------
// Figures 13/14: SFC re-organization
// ---------------------------------------------------------------------

/// Figures 13/14: chains of four identical NFs under configurations
/// (a) sequential, (b) fully parallel, (c) width-2, (d) width-2 +
/// synthesis, on CPU-only and GPU-only platforms.
pub fn fig14(quick: bool) -> ExperimentResult {
    header("Figure 14: SFC parallelization & synthesis (4 identical NFs, 64 B)");
    let mut res = ExperimentResult::new("fig14", "SFC re-organization configurations");
    let chain_of = |kind: &str| -> Sfc {
        let nfs = (0..4)
            .map(|i| match kind {
                "FW" => Nf::firewall(format!("fw{i}"), 200, 1),
                "IPsec" => Nf::ipsec(format!("ipsec{i}")),
                _ => Nf::ids(format!("ids{i}")),
            })
            .collect();
        Sfc::new(format!("{kind}-x4"), nfs)
    };
    // The paper prescribes these structures (its Figure 13); identical
    // NFs produce identical outputs, so the XOR merge is well defined
    // even for the WAW pairs the analyzer would conservatively refuse.
    let configs: Vec<(&str, Vec<Vec<usize>>, bool)> = vec![
        ("a: seq", vec![vec![0, 1, 2, 3]], false),
        ("b: par x4", vec![vec![0], vec![1], vec![2], vec![3]], false),
        ("c: par x2", vec![vec![0, 1], vec![2, 3]], false),
        ("d: x2+synth", vec![vec![0, 1], vec![2, 3]], true),
    ];
    for kind in ["FW", "IPsec", "IDS"] {
        println!("--- {kind} x4 ---");
        println!(
            "{:<14} {:<6} {:>9} {:>12} | {:>9} {:>12}",
            "config", "len", "CPU Gbps", "CPU p50 us", "GPU Gbps", "GPU p50 us"
        );
        for (label, branches, synth) in &configs {
            let mut row = json!({"kind": kind, "config": label});
            let mut cols = Vec::new();
            for ratio in [0.0, 1.0] {
                let policy = Policy::ReorgOnly {
                    max_branches: branches.len(),
                    synthesize: *synth,
                    ratio,
                    mode: GpuMode::Persistent,
                };
                let mut dep = Deployment::new(chain_of(kind), policy)
                    .with_batch_size(128)
                    .with_forced_branches(branches.clone());
                let mut traffic = TrafficGenerator::new(TrafficSpec::tcp(SizeDist::Fixed(64)), 13);
                let o = dep.run(&mut traffic, batches(quick));
                cols.push((
                    o.report.throughput_gbps,
                    o.report.p50_latency_ns,
                    o.effective_length,
                ));
            }
            println!(
                "{:<14} {:<6} {:>9} {:>12} | {:>9} {:>12}",
                label,
                cols[0].2,
                gbps(cols[0].0),
                us(cols[0].1),
                gbps(cols[1].0),
                us(cols[1].1)
            );
            row["effective_length"] = json!(cols[0].2);
            row["cpu_gbps"] = json!(cols[0].0);
            row["cpu_p50_us"] = json!(cols[0].1 / 1000.0);
            row["gpu_gbps"] = json!(cols[1].0);
            row["gpu_p50_us"] = json!(cols[1].1 / 1000.0);
            res.push(row);
        }
    }
    res
}

// ---------------------------------------------------------------------
// Figure 15: graph-based task allocation
// ---------------------------------------------------------------------

/// Figure 15: GTA vs CPU-only vs GPU-only vs Optimal (an 11-point
/// uniform-ratio search, see [`nfc_core::Policy::Optimal`]) on IMIX
/// traffic (paper: GTA ≥ 90 % of optimal, gains grow for SFCs).
pub fn fig15(quick: bool) -> ExperimentResult {
    header("Figure 15: graph-based task allocation on IMIX traffic");
    let mut res = ExperimentResult::new("fig15", "GTA vs baselines");
    let setups: Vec<(&str, Vec<&str>)> = vec![
        ("IPv4", vec!["IPv4"]),
        ("IPv6", vec!["IPv6"]),
        ("IPsec", vec!["IPsec"]),
        ("IDS", vec!["IDS"]),
        ("IPv4+IPsec", vec!["IPv4", "IPsec"]),
        ("IPsec+IDS", vec!["IPsec", "IDS"]),
        ("IPv4+IPsec+IDS", vec!["IPv4", "IPsec", "IDS"]),
    ];
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>8} {:>10}",
        "setup", "CPU", "GPU", "GTA", "Optimal", "GTA/Opt", "GTA p99 us"
    );
    let mut single_gains = Vec::new();
    let mut chain_gains = Vec::new();
    // Each setup's four policy runs are one pool task; setups fan out.
    let measured = par_map(ExecMode::auto(), setups, move |_, (label, chain)| {
        let spec = if label == "IPv6" {
            TrafficSpec::udp(SizeDist::Imix).with_ip_version(IpVersion::V6)
        } else {
            TrafficSpec::udp(SizeDist::Imix)
        };
        let mk = || Sfc::new(label, chain.iter().map(|n| nf_by_name(n)).collect());
        let mut vals = Vec::new();
        let mut gta_p99 = 0.0;
        // GTA is evaluated in isolation (the paper's §V-C): allocation
        // only, no SFC re-organization.
        let gta = Policy::NfCompass {
            algo: PartitionAlgo::Kl,
            max_branches: 1,
            synthesize: false,
        };
        for p in [
            Policy::CpuOnly,
            Policy::GpuOnly {
                mode: GpuMode::Persistent,
            },
            gta,
            Policy::Optimal,
        ] {
            let o = run(mk(), p, spec.clone(), 256, batches(quick), 17);
            if matches!(p, Policy::NfCompass { .. }) {
                gta_p99 = o.report.p99_latency_ns;
            }
            vals.push(o.report.throughput_gbps);
        }
        (label, chain.len(), vals, gta_p99)
    });
    for (label, chain_len, vals, gta_p99) in measured {
        let frac = vals[2] / vals[3].max(1e-9);
        let best_effort = vals[0].max(vals[1]);
        let gain = (vals[2] - best_effort) / best_effort.max(1e-9);
        if chain_len == 1 {
            single_gains.push(gain);
        } else {
            chain_gains.push(gain);
        }
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>9} {:>7.0}% {:>10}",
            label,
            gbps(vals[0]),
            gbps(vals[1]),
            gbps(vals[2]),
            gbps(vals[3]),
            frac * 100.0,
            us(gta_p99)
        );
        res.push(json!({
            "setup": label, "cpu": vals[0], "gpu": vals[1],
            "gta": vals[2], "optimal": vals[3],
            "gta_over_optimal": frac, "gain_vs_best_effort": gain,
            "gta_p99_us": gta_p99 / 1000.0,
        }));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "avg gain vs best-effort: single NF {:.0}%, SFC {:.0}% (paper: 5% and 16%)",
        avg(&single_gains) * 100.0,
        avg(&chain_gains) * 100.0
    );
    res
}

// ---------------------------------------------------------------------
// Figure 17: real service function chain
// ---------------------------------------------------------------------

/// Figures 16/17: the real SFC (FW -> router -> NAT) with ClassBench-
/// style ACLs of 200/1k/10k rules at 64/128/1500 B packets, comparing
/// FastClick-like, NBA-like and NFCompass.
pub fn fig17(quick: bool) -> ExperimentResult {
    header("Figure 17: real SFC (FW -> router -> NAT) vs ACL size");
    let mut res = ExperimentResult::new("fig17", "real SFC validation");
    let mk = |rules: usize| -> Sfc {
        Sfc::new(
            format!("real-sfc-{rules}"),
            vec![
                Nf::firewall("fw", rules, 21),
                Nf::ipv4_forwarder("router", 1000, 22),
                Nf::nat("nat", [203, 0, 113, 1]),
            ],
        )
    };
    let policies: Vec<(&str, Policy)> = vec![
        ("FastClick", Policy::CpuOnly),
        ("NBA", Policy::NbaAdaptive),
        ("NFCompass", Policy::nfcompass()),
    ];
    println!(
        "{:<11} {:>6} {:>6} | {:>9} {:>12} {:>12}",
        "system", "ACL", "pkt", "Gbps", "mean lat us", "p99 lat us"
    );
    let mut base: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    // 27 independent (system, ACL, packet-size) cells fan out together.
    let cells: Vec<(&str, Policy, usize, usize)> = policies
        .iter()
        .flat_map(|(pname, policy)| {
            [200usize, 1000, 10_000].into_iter().flat_map(move |rules| {
                [64usize, 128, 1500]
                    .into_iter()
                    .map(move |pkt| (*pname, *policy, rules, pkt))
            })
        })
        .collect();
    let measured = par_map(
        ExecMode::auto(),
        cells,
        move |_, (pname, policy, rules, pkt)| {
            let o = run(
                mk(rules),
                policy,
                TrafficSpec::udp(SizeDist::Fixed(pkt)),
                256,
                batches(quick),
                23,
            );
            (pname, rules, pkt, o.report)
        },
    );
    for (pname, rules, pkt, report) in measured {
        println!(
            "{:<11} {:>6} {:>6} | {:>9} {:>12} {:>12}",
            pname,
            rules,
            pkt,
            gbps(report.throughput_gbps),
            us(report.mean_latency_ns),
            us(report.p99_latency_ns)
        );
        if rules == 200 {
            base.insert(format!("{pname}/{pkt}"), report.throughput_gbps);
        }
        res.push(json!({
            "system": pname, "acl": rules, "pkt": pkt,
            "gbps": report.throughput_gbps,
            "mean_us": report.mean_latency_ns / 1000.0,
            "p99_us": report.p99_latency_ns / 1000.0,
        }));
    }
    // Throughput drop vs the 200-rule baseline at 64 B.
    println!("\nthroughput drop vs ACL-200 (64 B): ");
    for row in &res.rows.clone() {
        if row["pkt"] == 64 && row["acl"] != 200 {
            let sys = row["system"].as_str().expect("system");
            let b = base[&format!("{sys}/64")];
            let drop = (1.0 - row["gbps"].as_f64().expect("gbps") / b) * 100.0;
            println!("  {:<11} ACL {:>6}: {:>5.1}%", sys, row["acl"], drop);
        }
    }
    println!("(paper: FastClick -38%/-84%, NBA -32%/-73%, NFCompass ~flat; latency 1.4-9x lower)");
    res
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Ablation: partitioning algorithm, expansion granularity δ, persistent
/// vs launch-per-batch kernels, and synthesis on/off.
pub fn ablations(quick: bool) -> ExperimentResult {
    header("Ablations (design choices called out in DESIGN.md)");
    let mut res = ExperimentResult::new("ablations", "design-choice ablations");
    let spec = TrafficSpec::udp(SizeDist::Imix);
    let chain = || Sfc::new("ipsec-dpi", vec![Nf::ipsec("ipsec"), Nf::dpi("dpi")]);
    println!("{:<34} {:>9} {:>12}", "variant", "Gbps", "p99 lat us");
    let show = |label: &str, o: &nfc_core::RunOutcome, res: &mut ExperimentResult| {
        println!(
            "{:<34} {:>9} {:>12}",
            label,
            gbps(o.report.throughput_gbps),
            us(o.report.p99_latency_ns)
        );
        res.push(json!({
            "variant": label,
            "gbps": o.report.throughput_gbps,
            "p99_us": o.report.p99_latency_ns / 1000.0,
        }));
    };
    // Partitioners.
    for algo in [
        PartitionAlgo::Kl,
        PartitionAlgo::Agglomerative,
        PartitionAlgo::Mfmc,
    ] {
        let o = run(
            chain(),
            Policy::NfCompass {
                algo,
                max_branches: 4,
                synthesize: true,
            },
            spec.clone(),
            256,
            batches(quick),
            31,
        );
        show(&format!("partitioner = {algo:?}"), &o, &mut res);
    }
    // δ granularity.
    for delta in [0.05, 0.1, 0.2] {
        let mut dep = Deployment::new(chain(), Policy::nfcompass()).with_batch_size(256);
        dep.delta = delta;
        let mut t = TrafficGenerator::new(spec.clone(), 31);
        let o = dep.run(&mut t, batches(quick));
        show(&format!("expansion delta = {delta}"), &o, &mut res);
    }
    // Persistent vs launch-per-batch at a fixed ratio.
    for (label, mode) in [
        ("kernel = persistent (70%)", GpuMode::Persistent),
        ("kernel = launch/batch (70%)", GpuMode::LaunchPerBatch),
    ] {
        let o = run(
            chain(),
            Policy::FixedRatio { ratio: 0.7, mode },
            spec.clone(),
            256,
            batches(quick),
            31,
        );
        show(label, &o, &mut res);
    }
    // Raw partitioner plans (before the §IV-C3 dynamic adaption that the
    // NfCompass policy applies): predicted per-batch stage cost on a
    // profiled DPI stage.
    {
        use nfc_core::allocator::{allocate, stage_cost, Pricing};
        use nfc_core::profiler::Profiler;
        use nfc_hetero::{CoRunContext, CostModel, PlatformConfig};
        let nf = Nf::dpi("dpi");
        let mut rung = nf.graph().clone().compile().expect("compiles");
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(512)), 31);
        for _ in 0..8 {
            rung.push_merged(nf.entry(), gen.batch(256));
        }
        let model = CostModel::new(PlatformConfig::hpca18());
        let weights = Profiler::new(model, GpuMode::Persistent).measure(&rung);
        let solo = Pricing {
            model,
            corun: CoRunContext::solo(),
            mode: GpuMode::Persistent,
        };
        for algo in [
            PartitionAlgo::Kl,
            PartitionAlgo::Agglomerative,
            PartitionAlgo::Mfmc,
        ] {
            let plan = allocate(nf.graph(), &weights, algo, 0.1);
            let cost = stage_cost(&solo, &weights, &plan.ratios);
            println!(
                "{:<34} {:>9} {:>12}",
                format!("raw {algo:?} plan (us/batch)"),
                format!("{:.1}", cost / 1000.0),
                "-"
            );
            res.push(json!({
                "variant": format!("raw-{algo:?}"),
                "stage_cost_us": cost / 1000.0,
                "ratios": plan.ratios,
            }));
        }
    }

    // Synthesis on/off at width 2 on a synthesizable chain.
    let ids_chain = || Sfc::new("ids4", (0..4).map(|i| Nf::ids(format!("i{i}"))).collect());
    for (label, synth) in [
        ("reorg x2, synthesis off", false),
        ("reorg x2, synthesis on", true),
    ] {
        let o = run(
            ids_chain(),
            Policy::NfCompass {
                algo: PartitionAlgo::Kl,
                max_branches: 2,
                synthesize: synth,
            },
            spec.clone(),
            256,
            batches(quick),
            31,
        );
        show(label, &o, &mut res);
    }
    res
}

/// Traffic-churn adaptation (the paper's "fast-switching network
/// traffics" motivation): an SFC profiled on one traffic mix faces a
/// shifted mix it is never told about; the same `run_adaptive` loop runs
/// with the epoch controller disabled (the static plan) and enabled
/// (the controller detects the shift and re-partitions online).
pub fn churn(quick: bool) -> ExperimentResult {
    header("Traffic churn: static plan vs dynamic re-adaptation");
    let mut res = ExperimentResult::new("churn", "adaptation under traffic churn");
    // Phase 1: small IMIX packets; phase 2: large full-match DPI load.
    let phases = || {
        vec![
            TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(128)), 41),
            TrafficGenerator::new(
                TrafficSpec::udp(SizeDist::Fixed(1024)).with_payload(PayloadPolicy::MatchRatio {
                    patterns: Nf::default_ids_signatures(),
                    ratio: 1.0,
                }),
                42,
            ),
        ]
    };
    let sfc = || Sfc::new("ipsec-dpi", vec![Nf::ipsec("ipsec"), Nf::dpi("dpi")]);
    println!(
        "{:<22} {:>12} {:>12}",
        "variant", "phase1 Gbps", "phase2 Gbps"
    );
    for (label, cfg) in [
        ("static plan", ControllerConfig::disabled()),
        ("re-adapted", ControllerConfig::default()),
    ] {
        let mut dep = Deployment::new(sfc(), Policy::nfcompass()).with_batch_size(256);
        let (outs, _) = dep.run_adaptive(&mut phases(), batches(quick), &cfg);
        println!(
            "{:<22} {:>12.2} {:>12.2}",
            label, outs[0].report.throughput_gbps, outs[1].report.throughput_gbps
        );
        res.push(json!({
            "variant": label,
            "phase1_gbps": outs[0].report.throughput_gbps,
            "phase2_gbps": outs[1].report.throughput_gbps,
            "phase2_offloads": outs[1].stage_offloads,
        }));
    }
    res
}

/// Co-running tenants on one simulated platform (Figure 8e by
/// simulation rather than by the closed-form model).
pub fn corun_sim(quick: bool) -> ExperimentResult {
    header("Co-run interference by simulation (multi-tenant)");
    let mut res = ExperimentResult::new("corun_sim", "multi-tenant co-run interference");
    use nfc_core::MultiDeployment;
    let mk = |name: &str| -> (Deployment, TrafficGenerator) {
        let (nf, pkt, seed) = match name {
            "IDS" => (Nf::ids("ids"), 1024, 1),
            "IPv4" => (Nf::ipv4_forwarder("ipv4", 500, 9), 64, 2),
            "IPsec" => (Nf::ipsec("ipsec"), 256, 3),
            _ => (Nf::firewall("fw", 500, 4), 64, 4),
        };
        (
            Deployment::new(Sfc::new(name, vec![nf]), Policy::CpuOnly).with_batch_size(256),
            TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(pkt)), seed),
        )
    };
    let names = ["IDS", "IPv4", "IPsec", "FW"];
    let mut solo = Vec::new();
    for n in names {
        let (mut dep, mut traffic) = mk(n);
        solo.push(dep.run(&mut traffic, batches(quick)).report.throughput_gbps);
    }
    let mut deps = Vec::new();
    let mut traffics = Vec::new();
    for n in names {
        let (d, t) = mk(n);
        deps.push(d);
        traffics.push(t);
    }
    let outs = MultiDeployment::new(deps).run(&mut traffics, batches(quick));
    println!(
        "{:<8} {:>10} {:>10} {:>8}",
        "tenant", "solo", "corun", "drop"
    );
    for (i, n) in names.iter().enumerate() {
        let drop = 1.0 - outs[i].report.throughput_gbps / solo[i];
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>7.1}%",
            n,
            solo[i],
            outs[i].report.throughput_gbps,
            drop * 100.0
        );
        res.push(json!({
            "tenant": n, "solo_gbps": solo[i],
            "corun_gbps": outs[i].report.throughput_gbps, "drop": drop,
        }));
    }
    res
}

/// Figure-13 structural check printed alongside fig14: what the analyzer
/// does to the three chains.
pub fn fig13_structure() -> ExperimentResult {
    header("Figure 13: re-organization structures");
    let mut res = ExperimentResult::new("fig13", "re-organization structures");
    let sfc = Sfc::new("ids4", (0..4).map(|i| Nf::ids(format!("ids{i}"))).collect());
    for (label, width) in [("a (seq)", 1usize), ("b (x4)", 4), ("c (x2)", 2)] {
        let plan = if width == 1 {
            ReorgSfc::sequential(&sfc)
        } else {
            ReorgSfc::analyze(&sfc, width)
        };
        println!(
            "{label}: width {}, effective length {}, branches {:?}",
            plan.width(),
            plan.effective_length(),
            plan.branches()
        );
        res.push(json!({
            "config": label, "width": plan.width(),
            "effective_length": plan.effective_length(),
            "branches": plan.branches(),
        }));
    }
    res
}
