//! Calibration constants, each anchored to a measurement the paper
//! reports. Changing these moves the simulated absolute numbers; the
//! *shapes* the experiments reproduce (who wins, where optima and
//! crossovers fall) are asserted by tests in `cost.rs` and by the
//! `nfc-bench` figure harness.

use nfc_click::KernelClass;

/// Per-packet I/O cost (DPDK RX + TX, descriptor handling), CPU cycles,
/// amortized over ring-buffer batches.
///
/// Anchor: the paper's per-NF throughput differences are visible at 64 B
/// (Figure 8), so the I/O path must not be the bottleneck ahead of the
/// NFs; ~20 cycles/packet ≈ a 95 Mpps I/O core, consistent with
/// batched DPDK RX/TX on dedicated I/O threads (Figure 3's design).
pub const IO_CYCLES_PER_PACKET: f64 = 20.0;

/// Fixed CPU cycles charged once per batch per element (function-call,
/// loop setup, prefetch warmup).
///
/// Anchor: Figure 8's throughput growth from batch 32 to 256 — small
/// batches must be visibly less efficient.
pub const CPU_BATCH_OVERHEAD_CYCLES: f64 = 1_200.0;

/// Per-packet cycles of batch *re-organization* work when a batch is
/// split at a Click branch (copying descriptors into new batches,
/// bookkeeping).
///
/// Anchor: Figure 5 — the branch-test chain drops from 36.5 Gbps
/// (without split) to 15.8 Gbps (with split), i.e. splitting roughly
/// doubles per-packet cost on that chain.
pub const SPLIT_CYCLES_PER_PACKET: f64 = 30.0;

/// Fixed cycles per split operation (allocating/managing the new
/// batches).
pub const SPLIT_CYCLES_FIXED: f64 = 900.0;

/// Carving an offload fraction out of a batch (descriptor copies into
/// the offload queue) is far cheaper than a Click-branch re-organization:
/// the I/O thread hands off pointers, it does not rebuild batches.
pub const OFFLOAD_CARVE_CYCLES_FIXED: f64 = 400.0;
/// Per-packet cycles of the offload carve.
pub const OFFLOAD_CARVE_CYCLES_PER_PACKET: f64 = 12.0;
/// Fixed cycles of the ordered completion-queue re-merge after a partial
/// offload.
pub const OFFLOAD_MERGE_CYCLES_FIXED: f64 = 300.0;
/// Per-packet cycles of the completion-queue re-merge.
pub const OFFLOAD_MERGE_CYCLES_PER_PACKET: f64 = 18.0;

/// Per-packet cycles to merge/re-order batches (the Snap
/// `GPUCompletionQueue`-style ordered release, and the XOR merge of
/// parallelized SFC branches).
pub const MERGE_CYCLES_PER_PACKET: f64 = 10.0;

/// Fixed cycles per merge operation.
pub const MERGE_CYCLES_FIXED: f64 = 600.0;

/// GPU kernel launch + teardown latency, ns, when *not* using persistent
/// kernels.
///
/// Anchor: §III-B2 — "the un-optimized framework employs frequent small
/// Click element kernel launch and teardown", which offsets GPU benefit
/// as SFC length grows (Figure 7). CUDA launch+sync overhead on that era
/// of hardware is 5–20 µs.
pub const GPU_LAUNCH_NS: f64 = 9_000.0;

/// Residual per-dispatch cost with a persistent kernel (doorbell write +
/// polling pickup), ns. NFCompass's design keeps "a portion of GPU
/// threads continuously running", reducing the launch cost ~20×.
pub const GPU_PERSISTENT_DISPATCH_NS: f64 = 450.0;

/// Effective parallel width of one kernel: packets processed
/// concurrently at full speed. Beyond this, time scales linearly.
///
/// Anchor: Titan X has 3072 CUDA cores; packet kernels keep a few
/// thousand threads resident.
pub const GPU_PARALLEL_WIDTH: usize = 2_048;

/// Slowdown of one GPU lane relative to one CPU core on the same
/// per-packet work (lower clock, in-order lanes, memory divergence).
pub const GPU_LANE_SLOWDOWN: f64 = 6.0;

/// Resident threads one SM slot contributes to a persistent kernel.
///
/// Anchor: Titan X Maxwell exposes 3072 CUDA cores over 24 SMs =
/// 128 lanes per SM, and NFCompass's persistent kernels pin one thread
/// block per SM. A kernel that must keep `p` packets in flight per batch
/// therefore claims `ceil(p / 128)` SM slots for as long as it stays
/// resident; demands are bin-packed in [`crate::residency`].
pub const GPU_THREADS_PER_SM: usize = 128;

/// Extra kernel time per unit of SM-slot oversubscription past half of a
/// device's slots: resident blocks from co-located persistent kernels
/// start competing for scheduler cycles and L2, so kernel time grows by
/// `1 + GPU_RESIDENCY_PRESSURE × (utilization − 0.5) / 0.5` once slot
/// utilization exceeds 50 %. Below that the device hides the co-residency
/// entirely (multiplier 1.0), matching the paper's observation that
/// co-run penalties only appear when kernels actually contend (§III-C).
pub const GPU_RESIDENCY_PRESSURE: f64 = 0.35;

/// Tearing down an established kernel context during a live
/// reconfiguration (freeing device buffers, unmapping pinned host
/// rings), ns.
///
/// Anchor: §III-B2 couples "kernel launch and teardown" as the two
/// halves of the un-optimized dispatch cost; teardown of a *persistent*
/// kernel additionally waits for in-flight waves to retire, so it is
/// charged a few× the plain launch cost.
pub const GPU_KERNEL_TEARDOWN_NS: f64 = 25_000.0;

/// Cold launch of a new persistent-kernel context during a live
/// reconfiguration: module load, device-buffer allocation, pinned-ring
/// registration and the first wave's warm-up, ns. This is the price an
/// adaptive controller pays to *change* a plan, an order of magnitude
/// above the steady-state [`GPU_LAUNCH_NS`]; it is why re-partitioning
/// needs a cooldown to amortize.
pub const GPU_KERNEL_COLD_LAUNCH_NS: f64 = 120_000.0;

/// CPU-side cost of serializing/deserializing stateful-NF state (NAT
/// port maps, reassembly buffers) around a migration, ns per byte, on
/// top of the DMA transfer itself. ~4 GB/s repack is consistent with a
/// single core streaming hash-map entries into a flat buffer.
pub const STATE_REPACK_NS_PER_BYTE: f64 = 0.25;

/// GPU context-switch penalty, ns, charged when consecutive kernels on
/// one GPU queue come from different NFs.
///
/// Anchor: §III-C — "on GPU platform, the main bottleneck is that the
/// co-run incurs frequent kernel launch and context switch".
pub const GPU_CONTEXT_SWITCH_NS: f64 = 4_000.0;

/// Per-kernel-class GPU efficiency: how much *better* than
/// [`GPU_LANE_SLOWDOWN`] a class runs because it is embarrassingly
/// parallel / latency-hiding friendly. Effective per-packet GPU cycles =
/// `cpu_cycles * GPU_LANE_SLOWDOWN / class_efficiency`.
///
/// Anchors: GPU crypto throughput ≈ 10× a core (SSLShader); GPU DPI ≈ 8×
/// (Kargus/MIDeA); GPU lookup ≈ 4× (PacketShader — memory-latency bound,
/// benefit from hiding "60–200 ns" per §II-B); GPU ACL classification
/// ≈ 10× (rule-parallel).
pub fn gpu_class_efficiency(class: KernelClass) -> f64 {
    match class {
        KernelClass::Lookup => 24.0,         // net 4x per lane group
        KernelClass::Crypto => 54.0,         // net 9x
        KernelClass::PatternMatch => 48.0,   // net 8x
        KernelClass::Classification => 60.0, // net 10x
    }
}

/// Warp-divergence sensitivity per kernel class: multiplier applied per
/// unit of control-flow divergence in the batch (0 = uniform, 1 = fully
/// divergent). Pattern matching diverges on match positions; lookups on
/// trie depth; crypto is uniform.
pub fn divergence_sensitivity(class: KernelClass) -> f64 {
    match class {
        KernelClass::Lookup => 0.5,
        KernelClass::Crypto => 0.05,
        KernelClass::PatternMatch => 0.9,
        KernelClass::Classification => 0.6,
    }
}

/// Resident table working set per kernel class, bytes, counted against
/// the CPU cache when estimating batch-footprint effects (DFA tables,
/// route tables, rule sets).
pub fn table_footprint_bytes(class: Option<KernelClass>) -> usize {
    match class {
        Some(KernelClass::Lookup) => 512 * 1024,
        Some(KernelClass::Crypto) => 16 * 1024,
        Some(KernelClass::PatternMatch) => 2 * 1024 * 1024,
        Some(KernelClass::Classification) => 256 * 1024,
        None => 8 * 1024,
    }
}

/// Cache *pressure* an element exerts on co-runners (0–1 scale) and its
/// *sensitivity* to co-runner pressure.
///
/// Anchor: Figure 8(e) — "IDS is the most exclusive application, with the
/// highest average performance drop as 22.2 %. In contrast, firewall is
/// the least sensitive application". Pairwise drop ≈
/// `sensitivity × Σ pressure(others)`, so IDS sensitivity is set to hit
/// ≈ 22 % average against the other four NFs and firewall ≈ 5 %.
pub fn cache_profile(class: Option<KernelClass>) -> (f64, f64) {
    // (pressure, sensitivity)
    match class {
        Some(KernelClass::PatternMatch) => (0.30, 1.65),
        Some(KernelClass::Lookup) => (0.18, 0.84),
        Some(KernelClass::Crypto) => (0.10, 0.60),
        Some(KernelClass::Classification) => (0.08, 0.36),
        None => (0.05, 0.30),
    }
}

/// Rule-parallel boost for GPU ACL classification: a GPU evaluates many
/// rules of one packet concurrently, so its per-packet time grows far
/// slower with rule count than a CPU tree walk. The boost multiplies the
/// base Classification speedup by how much heavier than a small-ACL walk
/// the CPU cost is, capped.
///
/// Anchor: Figure 17 — NFCompass (GPU-classified ACLs) keeps nearly flat
/// throughput from 200 to 10 000 rules while CPU baselines collapse.
pub fn classification_rule_parallel_boost(per_packet_cycles: f64) -> f64 {
    (per_packet_cycles / 150.0).clamp(1.0, 30.0)
}

/// Full-match DPI slowdown relative to no-match traffic: the factor by
/// which per-byte pattern-matching work grows when every packet matches.
///
/// Anchor: Figure 8(d,e) — "the CPU/GPU throughputs of no-match are
/// significantly higher (4X~5X) than the throughputs of full-match".
pub const DPI_FULL_MATCH_FACTOR: f64 = 4.5;

/// Effective per-core cache residency for streaming packet data: private
/// L2 plus the contended L3 share a streaming workload actually keeps.
///
/// Anchor: Figure 8(d) — DPI throughput on the CPU declines once the
/// batch exceeds 256 packets; with ~1 KB packets that places the knee at
/// ≈ 2 × 256 KB of in+out payload plus the hot DFA-table share.
pub const CPU_CACHE_BUDGET_BYTES: usize = 640 * 1024;

/// Slope of the cache penalty: extra slowdown per doubling of footprint
/// beyond the cache capacity.
///
/// Anchor: Figure 8(d) — "a CPU throughput drop occurs to DPI when the
/// batch size is larger than 256 packets".
pub const CACHE_PENALTY_SLOPE: f64 = 0.55;

/// Default number of dedicated CPU cores per NF instance (the paper runs
/// NFs as containers pinned to dedicated cores and scales with RSS).
pub const DEFAULT_CORES_PER_NF: usize = 4;
