//! # nfc-cluster — one SFC across a simulated rack
//!
//! Promotes the single-box runtime to a *cluster*: N heterogeneous
//! servers (each a full [`nfc_hetero::PlatformConfig`] with its own CPU
//! cores, GPUs and PCIe links) joined by an inter-server link model
//! ([`nfc_hetero::LinkSpec`]) whose bandwidth, latency and
//! serialization are charged on the same simulated timeline as
//! everything else.
//!
//! Every server runs the full chain; the crate answers two questions:
//!
//! * **Which server owns which flow?** A consistent-hash [`HashRing`]
//!   shards the 32-bit flow-hash space so stateful NFs stay sticky:
//!   every packet of a flow lands on the server holding its state.
//! * **What happens when load skews?** Per-server
//!   `WorkloadSignature`s roll up to a [`ClusterController`] that sheds
//!   ring vnodes from the hottest server to the coldest through a
//!   loss-free two-phase swap — state migration charged over the links,
//!   flow-cache generations bumped on both ends, ownership flipped
//!   strictly between batches.
//!
//! Correctness is anchored by two differential obligations (see
//! `tests/`): an N=1 cluster is byte-identical to the plain
//! [`nfc_core::Deployment`] oracle, and at any N per-flow packet order
//! is preserved across arbitrary rebalance schedules with zero loss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod deploy;
pub mod ring;

pub use balance::{ClusterController, RebalanceConfig, ShardMove};
pub use deploy::{ClusterDeployment, ClusterOutcome, ClusterSpec};
pub use ring::{HashRing, ShardRange, FLOW_SPACE};
