//! A Click-style modular packet-processing framework.
//!
//! The paper models every network function as a graph of Click *elements*
//! (Kohler et al., TOCS 2000): small packet-processing components wired into
//! a directed acyclic graph. This crate provides:
//!
//! * The [`Element`] trait with the metadata NFCompass needs —
//!   [`ElementClass`] (classifier / modifier / shaper / …) for the NF
//!   synthesizer's reorder-legality rules, [`ElementActions`] (header /
//!   payload read-write-drop behaviour, the element-granularity version of
//!   the paper's Table II), [`Offload`] declarations for GPU-offloadable
//!   elements, and structural [`signature`](Element::signature)s for
//!   redundancy elimination.
//! * [`ElementGraph`], a validated DAG of elements with a push-based batch
//!   execution engine that records per-edge traffic statistics — the
//!   runtime profiler's input — and batch split/drop accounting (the
//!   Figure 5 overheads).
//! * A library of generic [`elements`] (classifiers, counters, tee,
//!   discard, header checkers) shared by all NFs.
//! * The [`engine`]: the one process-wide worker pool behind
//!   [`engine::par_map`], which runs a chain's parallel branches and
//!   lets a per-packet element carve its batch across cores
//!   ([`RunCtx::exec`](element::RunCtx::exec)).
//!
//! # Example
//!
//! ```
//! use nfc_click::{ElementGraph, elements::{Counter, Discard}};
//! use nfc_packet::{Batch, Packet};
//!
//! let mut g = ElementGraph::new();
//! let c = g.add(Counter::new("count"));
//! let d = g.add(Discard::new());
//! g.connect(c, 0, d)?;
//! let mut run = g.compile()?;
//! let batch: Batch = (0..4)
//!     .map(|_| Packet::ipv4_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b""))
//!     .collect();
//! run.push(c, batch);
//! assert_eq!(run.stats().node(c).packets_in, 4);
//! # Ok::<(), nfc_click::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod element;
pub mod elements;
pub mod engine;
pub mod graph;

pub use element::{
    Element, ElementActions, ElementClass, ElementSignature, FlowVerdict, KernelClass, Offload,
    SessionRecord, SessionState, WorkProfile,
};
pub use graph::{
    CompiledGraph, Edge, ElementGraph, FlowHop, FlowPath, FlowTraces, GraphError, GraphStats,
    NodeId,
};
