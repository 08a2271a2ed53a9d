//! Discrete-event performance simulator of a heterogeneous CPU+GPU server.
//!
//! The paper evaluates NFCompass on a 4-socket Xeon E7-4809v2 server with
//! two NVIDIA Titan X GPUs (its Table I). No such hardware exists in this
//! environment, so this crate models it — the substitution DESIGN.md §2
//! documents. The scheduling decisions the paper studies depend on
//! *relative* quantities (CPU vs GPU processing rates, kernel-launch and
//! PCIe-transfer overheads, cache interference), which are exposed here as
//! first-class, calibrated parameters:
//!
//! * [`platform`] — the Table I machine description.
//! * [`calib`] — every calibration constant, each documented with the
//!   paper measurement anchoring it (36.5 Gbps no-split throughput, the
//!   70 % IPsec offload optimum, the 22.2 % IDS co-run degradation, …).
//! * [`cost`] — the cost model: per-element CPU batch time (with batch
//!   amortization and cache-footprint effects), GPU batch time (kernel
//!   launch/teardown vs persistent kernels, H2D/D2H DMA, warp-divergence
//!   penalty), and batch split/merge re-organization overheads.
//! * [`interference`] — the co-run cache-contention model behind the
//!   paper's Figure 8(e).
//! * [`residency`] — the SM-slot model for persistent kernels: slot
//!   demands, first-fit-decreasing placement across the devices, and the
//!   co-residency pressure charged when a device's slots saturate.
//! * [`link`] — the inter-server link cost model (bandwidth, latency,
//!   per-packet serialization) charged by the cluster layer the same
//!   way PCIe is charged inside one box.
//! * [`sim`] — a deterministic pipeline simulator: batches flow through
//!   stages bound to serially-reusable resources (CPU cores, GPU command
//!   queues, PCIe links), yielding throughput and latency distributions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod cost;
pub mod interference;
pub mod link;
pub mod platform;
pub mod residency;
pub mod sim;

pub use cost::{CostModel, ElementLoad, GpuMode};
pub use interference::CoRunContext;
pub use link::LinkSpec;
pub use platform::PlatformConfig;
pub use residency::{Placement, ResidencyPlan};
pub use sim::{PipelineSim, ResourceId, SimReport, Stage};
