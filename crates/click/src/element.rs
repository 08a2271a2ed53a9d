//! The [`Element`] trait and its metadata types.

use nfc_packet::{Batch, HeaderLanes, Packet};

/// Traffic classes of Click elements, as used by the NF synthesizer's
/// reorder rules (paper §IV-B2: "classifiers are not allowed to move across
/// modifiers or shapers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementClass {
    /// Generates packets (traffic source, FromDevice).
    Source,
    /// Terminates packets (ToDevice, Discard).
    Sink,
    /// Routes packets to output ports based on their content without
    /// modifying them (HeaderClassifier, IPFilter branch points).
    Classifier,
    /// Rewrites packet header or payload bytes (NAT rewriter, TTL
    /// decrement, IPsec encryptor).
    Modifier,
    /// Changes packet timing/ordering or drops for policy reasons
    /// (rate limiters, schedulers).
    Shaper,
    /// Reads packets without modifying or rerouting them (counters,
    /// probes, logging, pattern matching that only raises alerts).
    Inspector,
    /// Maintains cross-packet state that must observe packets in order
    /// (flow tables, stream reassembly); pins packet-state observation
    /// points during synthesis.
    Stateful,
}

/// What an element does to each packet, at element granularity.
///
/// This mirrors the paper's Table II (NF-granularity actions); NF-level
/// profiles in `nfc-core` are derived by folding the actions of an NF's
/// elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElementActions {
    /// Reads header fields.
    pub reads_header: bool,
    /// Reads payload bytes.
    pub reads_payload: bool,
    /// Writes header fields.
    pub writes_header: bool,
    /// Writes payload bytes.
    pub writes_payload: bool,
    /// Adds or removes bytes (encapsulation, compression).
    pub resizes: bool,
    /// May drop packets.
    pub may_drop: bool,
}

impl ElementActions {
    /// Read-only header inspection (classifiers, probes).
    pub fn read_header() -> Self {
        ElementActions {
            reads_header: true,
            ..Default::default()
        }
    }

    /// Read-only header+payload inspection (IDS matchers).
    pub fn read_all() -> Self {
        ElementActions {
            reads_header: true,
            reads_payload: true,
            ..Default::default()
        }
    }

    /// Marks the element as possibly dropping packets.
    pub fn with_drop(mut self) -> Self {
        self.may_drop = true;
        self
    }

    /// Marks the element as writing headers.
    pub fn with_header_write(mut self) -> Self {
        self.writes_header = true;
        self
    }

    /// Marks the element as writing payloads.
    pub fn with_payload_write(mut self) -> Self {
        self.writes_payload = true;
        self
    }

    /// Folds another element's actions into this one (union), producing
    /// the aggregate action profile of a pipeline.
    pub fn union(self, other: ElementActions) -> ElementActions {
        ElementActions {
            reads_header: self.reads_header || other.reads_header,
            reads_payload: self.reads_payload || other.reads_payload,
            writes_header: self.writes_header || other.writes_header,
            writes_payload: self.writes_payload || other.writes_payload,
            resizes: self.resizes || other.resizes,
            may_drop: self.may_drop || other.may_drop,
        }
    }
}

/// The GPU kernel family an offloadable element belongs to. The
/// heterogeneous platform model (`nfc-hetero`) maps each family to a cost
/// profile (cycles/packet, cycles/byte, divergence sensitivity) calibrated
/// against the paper's characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Table lookups over large read-only structures (IP route lookup).
    Lookup,
    /// Block cipher / hash computation over payload bytes (IPsec).
    Crypto,
    /// Multi-pattern or DFA matching over payload bytes (DPI/IDS).
    PatternMatch,
    /// 5-tuple rule-set classification (firewall ACL).
    Classification,
}

/// Whether (and how) an element can execute on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offload {
    /// CPU-only element.
    CpuOnly,
    /// Has a GPU implementation of the given kernel family.
    Offloadable {
        /// Kernel family for the cost model.
        kernel: KernelClass,
    },
}

impl Offload {
    /// True for [`Offload::Offloadable`].
    pub fn is_offloadable(&self) -> bool {
        matches!(self, Offload::Offloadable { .. })
    }
}

/// Structural identity of an element used for redundancy elimination: two
/// elements with equal signatures compute the same function on every packet
/// and may be de-duplicated by the NF synthesizer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElementSignature {
    /// Element kind (implementation type name).
    pub kind: &'static str,
    /// Hash of the element's configuration (rule tables, keys, ...).
    pub config: u64,
}

impl ElementSignature {
    /// Builds a signature from a kind tag and configuration hash.
    pub fn new(kind: &'static str, config: u64) -> Self {
        ElementSignature { kind, config }
    }
}

/// Abstract CPU work profile of an element, in cycles. The heterogeneous
/// platform simulator charges `per_packet + per_byte * wire_len` cycles per
/// packet on the CPU and derives GPU costs from the element's
/// [`KernelClass`]. Values are calibrated in `nfc-hetero::calib`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkProfile {
    /// Fixed cycles per packet.
    pub per_packet: f64,
    /// Additional cycles per wire byte (payload-touching elements).
    pub per_byte: f64,
}

impl WorkProfile {
    /// A header-only profile.
    pub fn per_packet(cycles: f64) -> Self {
        WorkProfile {
            per_packet: cycles,
            per_byte: 0.0,
        }
    }

    /// A payload-touching profile.
    pub fn new(per_packet: f64, per_byte: f64) -> Self {
        WorkProfile {
            per_packet,
            per_byte,
        }
    }

    /// Cycles to process one packet of `len` bytes.
    pub fn cycles(&self, len: usize) -> f64 {
        self.per_packet + self.per_byte * len as f64
    }
}

/// The flow-constant decision a verdict-capable element takes for every
/// packet of one flow — the unit the flow-aware fast path caches.
///
/// A verdict must be a pure function of the packet's 5-tuple (plus the
/// element's configuration): two packets of the same flow always receive
/// the same verdict, and computing it must not mutate the element. That
/// restricts verdicts to [`ElementClass::Classifier`]-like read-only
/// elements — the compile-time check in `ElementGraph::compile` enforces
/// it from the element's declared class and [`ElementActions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowVerdict {
    /// Forward every packet of the flow on this output port.
    Forward {
        /// Output port index.
        port: usize,
    },
    /// Forward on `port` after writing `value` into metadata annotation
    /// slot `slot` (route lookups publish their next hop this way).
    Annotate {
        /// Output port index.
        port: usize,
        /// Annotation slot written.
        slot: usize,
        /// Value written into the slot.
        value: u64,
    },
    /// Drop every packet of the flow.
    Drop,
}

/// Lifecycle of one firewall-style session record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// First packet of a permitted flow established the session.
    Built,
    /// The session ended (TCP FIN/RST observed, or table eviction).
    Teardown,
    /// The flow matched a deny rule; the record carries the traffic
    /// counted up to (and including) the denied packet.
    Deny,
}

impl SessionState {
    /// Stable lowercase label used as the telemetry `state` field.
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Built => "built",
            SessionState::Teardown => "teardown",
            SessionState::Deny => "deny",
        }
    }
}

/// One structured connection record cut by a session-logging element
/// (NetScreen/ASA-style built/teardown/deny semantics). Elements have
/// no telemetry access, so records are buffered inside the element and
/// drained by the runtime via [`Element::take_session_records`], which
/// converts them into `session`-category events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecord {
    /// What happened to the session.
    pub state: SessionState,
    /// RSS hash of the session's flow (the telemetry join key).
    pub flow: u32,
    /// Packets the session had carried when the record was cut.
    pub packets: u64,
    /// Wire bytes the session had carried when the record was cut.
    pub bytes: u64,
}

/// Per-run context handed to elements.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCtx {
    /// Current simulated time in nanoseconds.
    pub now_ns: u64,
    /// True when header-only elements should sweep the batch's columnar
    /// header lanes ([`nfc_packet::HeaderLanes`], wide-word kernels from
    /// [`nfc_packet::simd`] included) instead of per-packet header
    /// parses. Compiled graphs always set it; `false` (the `Default`) is
    /// the per-packet reference the differential tests compare against,
    /// and either view must produce bit-identical output.
    pub lanes: bool,
}

/// A Click-style packet-processing element.
///
/// Elements receive a batch on their single input and emit batches on
/// `n_outputs` output ports. Packets not placed on any output are dropped
/// (the engine accounts for them). Elements must be deterministic and
/// cloneable so the NF synthesizer can rebuild graphs.
pub trait Element: std::fmt::Debug + Send {
    /// Human-readable instance name.
    fn name(&self) -> &str;

    /// Traffic class for reorder legality.
    fn class(&self) -> ElementClass;

    /// Per-packet action profile.
    fn actions(&self) -> ElementActions;

    /// Number of output ports (default 1).
    fn n_outputs(&self) -> usize {
        1
    }

    /// GPU offloadability (default CPU-only).
    fn offload(&self) -> Offload {
        Offload::CpuOnly
    }

    /// Structural signature for de-duplication. The default is unique per
    /// instance name, i.e. never de-duplicable; elements with well-defined
    /// configurations override this.
    fn signature(&self) -> ElementSignature {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.name().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        ElementSignature::new("unique", h)
    }

    /// Processes one batch, returning one batch per output port.
    ///
    /// The returned vector must have exactly `n_outputs` entries; the
    /// engine validates this in debug builds.
    fn process(&mut self, batch: Batch, ctx: &mut RunCtx) -> Vec<Batch>;

    /// Clones the element into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Element>;

    /// An estimate of per-packet CPU work in abstract cycles, used as the
    /// default node weight before profiling refines it. Elements with
    /// heavy per-byte work override this.
    fn base_cost(&self) -> f64 {
        50.0
    }

    /// Full work profile (per-packet + per-byte cycles). Defaults to the
    /// header-only [`Element::base_cost`]; payload-touching elements
    /// override this.
    fn work(&self) -> WorkProfile {
        WorkProfile::per_packet(self.base_cost())
    }

    /// Traffic-content work multiplier observed at runtime (≥ 1). The
    /// DPI/IDS matcher reports the full-match slowdown here based on its
    /// observed match fraction; most elements are content-neutral.
    fn content_factor(&self) -> f64 {
        1.0
    }

    /// Observed control-flow divergence of recent traffic, 0 (uniform)
    /// to 1 (fully divergent). Classifiers and matchers report how
    /// unevenly packets take different paths, which the GPU cost model
    /// turns into warp-divergence penalties.
    fn divergence(&self) -> f64 {
        0.0
    }

    /// Bytes of per-flow/per-connection state the element currently
    /// holds (NAT port maps, reassembly buffers, token buckets). A live
    /// reconfiguration that moves the element between processors must
    /// migrate this much state; stateless elements report 0 and migrate
    /// for free.
    fn state_bytes(&self) -> usize {
        0
    }

    /// Declares that [`Element::flow_verdict`] is implemented, i.e. the
    /// element's per-packet decision is a pure function of the flow and
    /// may be memoized by the flow-aware fast path. Opt-in: the default
    /// is `false`, and graph compilation rejects elements that claim
    /// capability while their [`Element::class`] /
    /// [`Element::actions`] metadata forbids caching (`Stateful` and
    /// `Shaper` elements never qualify).
    fn verdict_capable(&self) -> bool {
        false
    }

    /// The element's flow-constant decision for `pkt`'s flow, mirroring
    /// exactly what [`Element::process`] would do with the packet.
    /// `None` means the decision cannot be derived (the packet falls back
    /// to the slow path). Must not observe anything but the packet's
    /// headers and the element's immutable configuration, and side-effect
    /// counters are *not* updated — callers only consult verdicts for
    /// packets whose flow missed the cache.
    fn flow_verdict(&self, _pkt: &Packet) -> Option<FlowVerdict> {
        None
    }

    /// [`Element::flow_verdict`] as a column: appends to `out` one
    /// verdict per entry of `rows` (indices into `batch`, in that order)
    /// and returns `true`, or returns `false` as soon as one row has no
    /// verdict (`out` is then unspecified and the caller falls back to
    /// the slow path for the whole batch). `lanes` is `batch`'s gathered
    /// [`HeaderLanes`] view, so lane-capable elements answer with the
    /// same column sweep their [`Element::process`] runs; the default
    /// asks [`Element::flow_verdict`] row by row, which is the contract
    /// every override must match exactly.
    fn flow_verdicts(
        &self,
        batch: &Batch,
        _lanes: &HeaderLanes,
        rows: &[u32],
        out: &mut Vec<FlowVerdict>,
    ) -> bool {
        for &row in rows {
            let pkt = batch.get(row as usize).expect("row within the batch");
            match self.flow_verdict(pkt) {
                Some(v) => out.push(v),
                None => return false,
            }
        }
        true
    }

    /// Drains buffered [`SessionRecord`]s (session-logging elements
    /// only). The runtime calls this after each stage execution and
    /// turns the records into `session` telemetry events; records left
    /// undrained are bounded by the element's internal buffer cap.
    /// Draining must not change packet-visible behaviour.
    fn take_session_records(&mut self) -> Vec<SessionRecord> {
        Vec::new()
    }
}

impl Clone for Box<dyn Element> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Hashes a byte slice with FNV-1a 64 — helper for `signature()`
/// implementations that hash their configuration.
pub fn config_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_union_is_monotone() {
        let a = ElementActions::read_header().with_drop();
        let b = ElementActions::read_all().with_payload_write();
        let u = a.union(b);
        assert!(u.reads_header && u.reads_payload && u.writes_payload && u.may_drop);
        assert!(!u.writes_header && !u.resizes);
        // Union is commutative.
        assert_eq!(u, b.union(a));
    }

    #[test]
    fn config_hash_distinguishes_configs() {
        assert_ne!(config_hash(b"acl-200"), config_hash(b"acl-1000"));
        assert_eq!(config_hash(b"same"), config_hash(b"same"));
    }

    #[test]
    fn offload_predicate() {
        assert!(!Offload::CpuOnly.is_offloadable());
        assert!(Offload::Offloadable {
            kernel: KernelClass::Crypto
        }
        .is_offloadable());
    }
}
