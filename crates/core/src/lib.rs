//! NFCompass: a runtime for deploying NFV service function chains on
//! heterogeneous (CPU + GPU) COTS servers.
//!
//! This crate is the paper's primary contribution, layered over the
//! substrates in `nfc-packet` / `nfc-click` / `nfc-nf` / `nfc-hetero` /
//! `nfc-graphpart`:
//!
//! 1. **SFC dependency analysis** ([`depend`]) — the Table II/III packet-
//!    action model deciding which NFs of a chain may run in parallel
//!    (RAR/WAR safe, RAW/WAW unsafe, drops always mergeable).
//! 2. **SFC orchestrator** ([`orchestrator`]) — re-organizes a sequential
//!    chain into parallel branches (traffic duplication + XOR-based
//!    merge), reducing the effective chain length (§IV-B1, Figure 13).
//! 3. **NF synthesizer** ([`synthesizer`]) — merges consecutive NFs'
//!    element graphs, de-duplicating redundant elements and hoisting
//!    droppers subject to traffic-class legality (§IV-B2, Figures 10/11).
//! 4. **Fine-grained element expansion** ([`expansion`]) — virtual
//!    offload-slice instances (δ = 10 %) so graph partitioning chooses
//!    per-element offload ratios (§IV-C1, Figure 12).
//! 5. **Runtime profiler** ([`profiler`]) — traffic statistics from live
//!    element graphs priced by the calibrated cost model, kept as the
//!    paper's vertex/edge dictionary (§IV-C2).
//! 6. **Graph-partition task allocator** ([`allocator`]) — KL/METIS-style
//!    or seed-agglomerative partitioning of the expanded graph (§IV-C3).
//! 7. **Execution engine and baselines** ([`runtime`]) — runs deployments
//!    functionally (real packets through real NFs) while scheduling their
//!    calibrated costs on the simulated platform; policies cover
//!    CPU-only (FastClick-like), GPU-only, fixed-ratio, NBA-like adaptive
//!    offload, a uniform-ratio-search Optimal, and full NFCompass.
//!
//! # Quickstart
//!
//! ```
//! use nfc_core::{Deployment, Policy, Sfc};
//! use nfc_nf::Nf;
//! use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};
//!
//! let sfc = Sfc::new(
//!     "fw-router",
//!     vec![Nf::firewall("fw", 200, 1), Nf::ipv4_forwarder("r", 100, 2)],
//! );
//! let mut dep = Deployment::new(sfc, Policy::nfcompass());
//! let mut traffic = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(64)), 7);
//! let outcome = dep.run(&mut traffic, 50);
//! assert!(outcome.report.throughput_gbps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod depend;
pub mod expansion;
pub mod flowcache;
pub mod multi;
mod observe;
pub mod orchestrator;
pub mod profiler;
pub mod runtime;
pub mod sfc;
pub mod synthesizer;

pub use allocator::{AllocationPlan, PartitionAlgo};
pub use engine::{par_map, par_map_traced, ExecMode};
pub use flowcache::{FlowCacheMode, StageFlowCache};
pub use multi::MultiDeployment;
// The worker pool lives in `nfc-click`, so elements can carve a batch
// over it; it keeps its path here.
pub use nfc_click::engine;
pub use nfc_control::{Action, AdaptationRecord, Controller, ControllerConfig, ControllerReport};
pub use nfc_telemetry::{TelemetryMode, TelemetrySummary};
pub use orchestrator::ReorgSfc;
pub use runtime::{
    BatchResult, Deployment, PlatformResources, Policy, PreparedSfc, ResidencyReport, RunOutcome,
};
pub use sfc::Sfc;
