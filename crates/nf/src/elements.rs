//! NF-specific Click elements: lookups, IPsec, IDS matching, firewall
//! filtering, NAT, load balancing, probing, proxying and WAN optimization.
//!
//! Elements annotate packets through [`PacketMeta::anno`]: slot
//! [`ANNO_NEXT_HOP`] carries route-lookup results to the MAC rewriter.
//!
//! [`PacketMeta::anno`]: nfc_packet::PacketMeta

use crate::ac::AhoCorasick;
use crate::acl::{AclTable, Action};
use crate::crypto::{Aes128, HmacSha1Key};
use crate::dfa::Dfa;
use crate::flowcache::ClockTable;
use crate::lpm::{Dir24_8, WaldvogelV6};
use crate::matchset::MatchSet;
use nfc_click::element::{
    config_hash, Element, ElementActions, ElementClass, ElementSignature, FlowVerdict, KernelClass,
    Offload, RunCtx, SessionRecord, SessionState, WorkProfile,
};
use nfc_click::engine::{par_map, ExecMode};
use nfc_packet::headers::{tcp_flags, MacAddr};
use nfc_packet::{checksum, Batch, FiveTuple, FlowKey, HeaderLanes, Packet};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Annotation slot carrying the next-hop id from lookup to rewrite.
pub const ANNO_NEXT_HOP: usize = 1;

// ---------------------------------------------------------------------
// Route lookup + forwarding
// ---------------------------------------------------------------------

/// IPv4 route lookup (DIR-24-8, ≤ 2 memory accesses). Reads the header,
/// writes the next hop into [`ANNO_NEXT_HOP`], drops unroutable packets.
/// GPU-offloadable as a [`KernelClass::Lookup`] kernel.
#[derive(Debug, Clone)]
pub struct IpLookup {
    table: Arc<Dir24_8>,
    cfg: u64,
}

impl IpLookup {
    /// Creates the element over a shared routing table; `cfg` is a
    /// configuration hash identifying the table for de-duplication.
    pub fn new(table: Arc<Dir24_8>, cfg: u64) -> Self {
        IpLookup { table, cfg }
    }

    /// Next hop of `p` from its parsed header (`None`: unroutable).
    fn next_hop(&self, p: &Packet) -> Option<u32> {
        p.ipv4().ok().and_then(|ip| self.table.lookup(ip.dst_u32()))
    }

    /// Next hop of each of `rows` off the destination column, handed to
    /// `sink` in order. `ipv4()` succeeds exactly on masked rows, so
    /// unmasked rows are unroutable just like the accessor chain says.
    /// Rows go through [`Dir24_8::lookup8`] eight at a time — eight
    /// first-level loads in flight per chunk (invalid rows hold zeroed
    /// lanes, which index table entry 0 harmlessly and are discarded); a
    /// trailing partial chunk is looked up row by row.
    fn next_hops(
        &self,
        lanes: &HeaderLanes,
        mut rows: impl Iterator<Item = usize>,
        mut sink: impl FnMut(Option<u32>),
    ) {
        const W: usize = nfc_packet::simd::LANES;
        let (dst, ipv4) = (lanes.dst_ip(), lanes.ipv4_mask());
        loop {
            let mut chunk = [0usize; W];
            let mut filled = 0;
            for (slot, i) in chunk.iter_mut().zip(rows.by_ref()) {
                *slot = i;
                filled += 1;
            }
            if filled < W {
                for &i in &chunk[..filled] {
                    sink(ipv4[i].then(|| self.table.lookup(dst[i])).flatten());
                }
                return;
            }
            if chunk.iter().any(|&i| ipv4[i]) {
                let wide = self.table.lookup8(&chunk.map(|i| dst[i]));
                for (&i, nh) in chunk.iter().zip(wide) {
                    sink(if ipv4[i] { nh } else { None });
                }
            } else {
                chunk.iter().for_each(|_| sink(None));
            }
        }
    }
}

/// The [`ANNO_NEXT_HOP`] value publishing next hop `nh` (0 is "none").
fn hop_anno(nh: u32) -> u64 {
    u64::from(nh) + 1
}

/// The flow verdict of a route lookup that found `nh`.
fn hop_verdict(nh: Option<u32>) -> FlowVerdict {
    match nh {
        Some(nh) => FlowVerdict::Annotate {
            port: 0,
            slot: ANNO_NEXT_HOP,
            value: hop_anno(nh),
        },
        None => FlowVerdict::Drop,
    }
}

impl Element for IpLookup {
    fn name(&self) -> &str {
        "ip-lookup"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Inspector
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header().with_drop()
    }

    fn offload(&self) -> Offload {
        Offload::Offloadable {
            kernel: KernelClass::Lookup,
        }
    }

    fn process(&mut self, mut batch: Batch, ctx: &mut RunCtx) -> Vec<Batch> {
        let mut keep = Vec::with_capacity(batch.len());
        let mut apply = |p: &mut Packet, nh: Option<u32>| match nh {
            Some(nh) => {
                p.meta.anno[ANNO_NEXT_HOP] = hop_anno(nh);
                keep.push(true);
            }
            None => keep.push(false),
        };
        if ctx.lanes {
            let lanes = batch.shared_lanes();
            let n = batch.len();
            let mut pkts = batch.iter_mut();
            self.next_hops(&lanes, 0..n, |nh| {
                apply(pkts.next().expect("one row per packet"), nh)
            });
        } else {
            for p in batch.iter_mut() {
                let nh = self.next_hop(p);
                apply(p, nh);
            }
        }
        let mut i = 0;
        batch.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("ip-lookup", self.cfg)
    }

    fn work(&self) -> WorkProfile {
        // Two dependent memory accesses.
        WorkProfile::per_packet(60.0)
    }

    fn verdict_capable(&self) -> bool {
        true
    }

    fn flow_verdict(&self, pkt: &Packet) -> Option<FlowVerdict> {
        Some(hop_verdict(self.next_hop(pkt)))
    }

    fn flow_verdicts(
        &self,
        _batch: &Batch,
        lanes: &HeaderLanes,
        rows: &[u32],
        out: &mut Vec<FlowVerdict>,
    ) -> bool {
        let rows = rows.iter().map(|&r| r as usize);
        self.next_hops(lanes, rows, |nh| out.push(hop_verdict(nh)));
        true
    }
}

/// IPv6 route lookup (Waldvogel binary search on prefix lengths, up to 7
/// hash probes). Compute-heavier than IPv4 per the paper's
/// characterization.
#[derive(Debug, Clone)]
pub struct Ipv6Lookup {
    table: Arc<WaldvogelV6>,
    cfg: u64,
}

impl Ipv6Lookup {
    /// Creates the element over a shared IPv6 table.
    pub fn new(table: Arc<WaldvogelV6>, cfg: u64) -> Self {
        Ipv6Lookup { table, cfg }
    }
}

impl Element for Ipv6Lookup {
    fn name(&self) -> &str {
        "ipv6-lookup"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Inspector
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header().with_drop()
    }

    fn offload(&self) -> Offload {
        Offload::Offloadable {
            kernel: KernelClass::Lookup,
        }
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let mut keep = Vec::with_capacity(batch.len());
        for p in batch.iter_mut() {
            match p
                .ipv6()
                .ok()
                .and_then(|ip| self.table.lookup(ip.dst_u128()))
            {
                Some(nh) => {
                    p.meta.anno[ANNO_NEXT_HOP] = u64::from(nh) + 1;
                    keep.push(true);
                }
                None => keep.push(false),
            }
        }
        let mut i = 0;
        batch.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("ipv6-lookup", self.cfg)
    }

    fn work(&self) -> WorkProfile {
        // Up to 7 hash probes plus binary-search control flow.
        WorkProfile::per_packet(180.0)
    }
}

/// Rewrites Ethernet MACs from the next-hop annotation (the output stage
/// of a forwarder).
#[derive(Debug, Clone)]
pub struct MacRewrite {
    own_mac: MacAddr,
}

impl MacRewrite {
    /// Creates a rewriter that stamps `own_mac` as the source address.
    pub fn new(own_mac: MacAddr) -> Self {
        MacRewrite { own_mac }
    }
}

impl Element for MacRewrite {
    fn name(&self) -> &str {
        "mac-rewrite"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Modifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header().with_header_write()
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        for p in batch.iter_mut() {
            let nh = p.meta.anno[ANNO_NEXT_HOP];
            if let Ok(mut eth) = p.ethernet() {
                eth.src = self.own_mac;
                // Synthesize the neighbour MAC from the next-hop id.
                eth.dst = MacAddr::from(0x0200_0000_0000u64 | nh);
                p.set_ethernet(&eth);
            }
        }
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("mac-rewrite", config_hash(&self.own_mac.0))
    }

    fn work(&self) -> WorkProfile {
        WorkProfile::per_packet(10.0)
    }
}

// ---------------------------------------------------------------------
// IPsec
// ---------------------------------------------------------------------

/// Key material shared by the encrypt/decrypt pair.
#[derive(Debug, Clone)]
pub struct IpsecSa {
    /// Security parameter index.
    pub spi: u32,
    /// AES-128 key.
    pub aes_key: [u8; 16],
    /// CTR nonce (RFC 3686).
    pub nonce: u32,
    /// HMAC-SHA1 key.
    pub hmac_key: [u8; 20],
}

impl IpsecSa {
    /// A deterministic SA for tests and examples.
    pub fn example() -> Self {
        IpsecSa {
            spi: 0x1001,
            aes_key: *b"nfcompass-aeskey",
            nonce: 0xA5A5_5A5A,
            hmac_key: *b"nfcompass-hmac-key!!",
        }
    }

    fn cfg(&self) -> u64 {
        let mut b = Vec::new();
        b.extend_from_slice(&self.spi.to_be_bytes());
        b.extend_from_slice(&self.aes_key);
        b.extend_from_slice(&self.nonce.to_be_bytes());
        b.extend_from_slice(&self.hmac_key);
        config_hash(&b)
    }
}

const ESP_TAG_LEN: usize = 12; // HMAC-SHA1-96
const ESP_HDR_LEN: usize = 16; // spi(4) + seq(4) + iv(8)

/// UDP-encapsulated ESP encryption (AES-128-CTR + HMAC-SHA1-96).
///
/// The L4 payload is replaced by `spi || seq || iv || ciphertext || tag`,
/// RFC 3948-style, keeping the UDP/TCP header visible so downstream
/// 5-tuple classification keeps working (a deliberate, documented
/// simplification of tunnel-mode ESP). Heavily payload-bound, hence the
/// paper's best-at-70 %-offload behaviour.
///
/// The ESP sequence number (and IV) is the packet's ingress sequence
/// number plus one, not a count of the packets this SA has sealed: a
/// seal is then a function of the packet alone, so the gateway may run
/// beside a dropper (Table III) and still emit exactly what the
/// sequential chain emits. Numbers are unique per run, where a real SA
/// numbers what it sends: a deployment's warm-up and phases continue
/// one numbering
/// ([`TrafficGenerator::advance_seq_to`](nfc_packet::traffic::TrafficGenerator::advance_seq_to)),
/// and a caller of `process_batch` keeps the numbers it passes in.
///
/// Sealing is pure per packet, so a batch carrying at least two chunks'
/// worth of payload (32 KiB each) is cut into contiguous chunks that
/// the cores [`RunCtx::exec`] allows seal at the same time, then put
/// back in order into the same batch: egress bytes, order, lineage and
/// statistics are those of a serial seal.
#[derive(Debug, Clone)]
pub struct IpsecEncrypt {
    keys: Arc<EspSealer>,
}

/// An SA's expanded keys; shared by reference with the chunks of a
/// carved batch.
#[derive(Debug)]
struct EspSealer {
    sa: IpsecSa,
    aes: Aes128,
    hmac: HmacSha1Key,
}

/// Payload bytes one chunk of a carved IPsec batch must carry. A chunk
/// costs its share of a `par_map` call (1.4 µs for a whole call,
/// `core.engine.par_map_us_per_call`) and, when a parked thread takes
/// it, that thread's wake-up: a median 45 µs (quartiles 36–122 µs)
/// from `par_map` to the first instruction of the unit on a parked pool
/// worker, on a 2-vCPU VM. AES-128-CTR plus HMAC-SHA1 seal about 7.8 ns
/// per payload byte (`click.push.ipsec_ns_per_pkt` read 10 224 ns for
/// 1 318 payload bytes), so 32 KiB is about 250 µs of sealing, five
/// times the ≈ 47 µs a chunk can cost. A 1 360 B frame reaches it in 25
/// packets. A chunk left unclaimed by a slow thread is sealed by the
/// caller, so a late wake-up costs the call, not the batch.
const CARVE_MIN_PAYLOAD: usize = 32 * 1024;

impl IpsecEncrypt {
    /// Creates the encryptor.
    pub fn new(sa: IpsecSa) -> Self {
        let aes = Aes128::new(&sa.aes_key);
        let hmac = HmacSha1Key::new(&sa.hmac_key);
        IpsecEncrypt {
            keys: Arc::new(EspSealer { sa, aes, hmac }),
        }
    }
}

/// How many chunks [`IpsecEncrypt`] carves `batch` into under `exec`
/// (below 2: one, sealed on the calling thread). Not capped at the thread
/// count: a thread that joins late (the caller of a branch join, done
/// with its own branch) takes what chunks are left, so smaller chunks
/// keep the threads' finishes within one chunk of each other.
fn carve_chunks(batch: &Batch, exec: ExecMode) -> usize {
    if exec.threads() < 2 {
        return 0;
    }
    let payload: usize = batch
        .iter()
        .filter_map(|p| p.l4_payload().ok())
        .map(<[u8]>::len)
        .sum();
    payload / CARVE_MIN_PAYLOAD
}

impl EspSealer {
    fn seal(&self, p: &mut Packet) {
        let Ok(plain_len) = p.l4_payload().map(<[u8]>::len) else {
            return;
        };
        let seq = p.meta.seq + 1;
        // The ESP payload is assembled where it will stay: plaintext
        // copied into its slot, encrypted there, tagged in place. A frame
        // that cannot take the encapsulation (cut inside its L4 header, or
        // too long for the IP length field) is forwarded as it came.
        let _ = p.rewrite_l4_payload(ESP_HDR_LEN + plain_len + ESP_TAG_LEN, |plain, esp| {
            let (msg, tag) = esp.split_at_mut(ESP_HDR_LEN + plain_len);
            msg[0..4].copy_from_slice(&self.sa.spi.to_be_bytes());
            msg[4..8].copy_from_slice(&(seq as u32).to_be_bytes());
            msg[8..ESP_HDR_LEN].copy_from_slice(&seq.to_be_bytes());
            msg[ESP_HDR_LEN..].copy_from_slice(plain);
            self.aes
                .ctr_apply(self.sa.nonce, seq, &mut msg[ESP_HDR_LEN..]);
            tag.copy_from_slice(&self.hmac.tag(msg)[..ESP_TAG_LEN]);
        });
    }
}

impl Element for IpsecEncrypt {
    fn name(&self) -> &str {
        "ipsec-encrypt"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Modifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions {
            reads_header: true,
            reads_payload: true,
            writes_header: true, // length fields
            writes_payload: true,
            resizes: true,
            may_drop: false,
        }
    }

    fn offload(&self) -> Offload {
        Offload::Offloadable {
            kernel: KernelClass::Crypto,
        }
    }

    fn process(&mut self, mut batch: Batch, ctx: &mut RunCtx) -> Vec<Batch> {
        // One chunk runs on the calling thread (`par_map` spawns nothing
        // for one unit). Contiguous chunks, concatenated back into this
        // very batch, so its lineage (which the simulator charges) does
        // not move: the carve is host parallelism only, and records
        // nothing.
        let chunks = carve_chunks(&batch, ctx.exec).max(1);
        let mut rest: Vec<Packet> = batch.drain().collect();
        let per = rest.len().div_ceil(chunks);
        let mut parts = Vec::with_capacity(chunks);
        while rest.len() > per {
            let tail = rest.split_off(per);
            parts.push(std::mem::replace(&mut rest, tail));
        }
        parts.push(rest);
        let keys = Arc::clone(&self.keys);
        let sealed = par_map(ctx.exec, parts, move |_, mut part: Vec<Packet>| {
            for p in &mut part {
                keys.seal(p);
            }
            part
        });
        batch.extend(sealed.into_iter().flatten());
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("ipsec-encrypt", self.keys.sa.cfg())
    }

    fn work(&self) -> WorkProfile {
        // AES-CTR + HMAC-SHA1 both walk every payload byte.
        WorkProfile::new(150.0, 22.0)
    }
}

/// The matching decryptor/verifier. Drops packets whose authentication tag
/// does not verify.
#[derive(Debug, Clone)]
pub struct IpsecDecrypt {
    sa: IpsecSa,
    aes: Aes128,
    hmac: HmacSha1Key,
    auth_failures: u64,
}

impl IpsecDecrypt {
    /// Creates the decryptor.
    pub fn new(sa: IpsecSa) -> Self {
        let aes = Aes128::new(&sa.aes_key);
        let hmac = HmacSha1Key::new(&sa.hmac_key);
        IpsecDecrypt {
            sa,
            aes,
            hmac,
            auth_failures: 0,
        }
    }

    /// Packets dropped due to tag verification failure.
    pub fn auth_failures(&self) -> u64 {
        self.auth_failures
    }
}

impl Element for IpsecDecrypt {
    fn name(&self) -> &str {
        "ipsec-decrypt"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Modifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions {
            reads_header: true,
            reads_payload: true,
            writes_header: true,
            writes_payload: true,
            resizes: true,
            may_drop: true,
        }
    }

    fn offload(&self) -> Offload {
        Offload::Offloadable {
            kernel: KernelClass::Crypto,
        }
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let mut keep = Vec::with_capacity(batch.len());
        let mut failures = 0u64;
        for p in batch.iter_mut() {
            let ok = (|| -> Option<()> {
                // Verified on the (possibly shared) frame itself; only the
                // plaintext is copied out.
                let esp = p.l4_payload().ok()?;
                if esp.len() < ESP_HDR_LEN + ESP_TAG_LEN {
                    return None;
                }
                let (msg, tag) = esp.split_at(esp.len() - ESP_TAG_LEN);
                let expect = self.hmac.tag(msg);
                // Constant time: no early exit on the first differing byte.
                let diff =
                    (tag.iter().zip(&expect[..ESP_TAG_LEN])).fold(0, |acc, (a, b)| acc | (a ^ b));
                if diff != 0 {
                    return None;
                }
                let spi = u32::from_be_bytes(msg[0..4].try_into().ok()?);
                if spi != self.sa.spi {
                    return None;
                }
                let iv = u64::from_be_bytes(msg[8..ESP_HDR_LEN].try_into().ok()?);
                p.rewrite_l4_payload(msg.len() - ESP_HDR_LEN, |esp, plain| {
                    plain.copy_from_slice(&esp[ESP_HDR_LEN..ESP_HDR_LEN + plain.len()]);
                    self.aes.ctr_apply(self.sa.nonce, iv, plain);
                })
                .ok()
            })()
            .is_some();
            if !ok {
                failures += 1;
            }
            keep.push(ok);
        }
        self.auth_failures += failures;
        let mut i = 0;
        batch.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("ipsec-decrypt", self.sa.cfg())
    }

    fn work(&self) -> WorkProfile {
        WorkProfile::new(150.0, 22.0)
    }
}

// ---------------------------------------------------------------------
// DPI / IDS
// ---------------------------------------------------------------------

/// What the IDS does on a signature hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdsMode {
    /// Count an alert, pass the packet (monitoring IDS; Table II: IDS may
    /// drop — use [`IdsMode::Drop`] for inline IPS behaviour).
    Alert,
    /// Drop matching packets (inline IPS).
    Drop,
}

/// Aho–Corasick + DFA payload inspection, scanned as one product
/// automaton of the literals and regexes, four packets at a time.
#[derive(Debug, Clone)]
pub struct IdsMatch {
    rules: Arc<MatchSet>,
    mode: IdsMode,
    alerts: u64,
    recent_alerts: f64,
    recent_processed: f64,
    processed: u64,
    cfg: u64,
}

impl IdsMatch {
    /// Creates the matcher from shared engines, building their product
    /// automaton once (clones share it); `cfg` identifies the rule set for
    /// de-duplication.
    pub fn new(ac: Arc<AhoCorasick>, dfas: Arc<Vec<Dfa>>, mode: IdsMode, cfg: u64) -> Self {
        IdsMatch {
            rules: Arc::new(MatchSet::new(&ac, &dfas)),
            mode,
            alerts: 0,
            recent_alerts: 0.0,
            recent_processed: 0.0,
            processed: 0,
            cfg,
        }
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Fraction of *recently* observed packets that matched a signature
    /// (exponentially decayed, so the estimate tracks traffic shifts
    /// within a few batches — the responsiveness the paper's
    /// fast-switching-traffic concern demands).
    pub fn match_fraction(&self) -> f64 {
        if self.recent_processed < 1.0 {
            0.0
        } else {
            (self.recent_alerts / self.recent_processed).clamp(0.0, 1.0)
        }
    }

    /// Slowdown of pattern matching on fully-matching traffic relative to
    /// no-match traffic — the paper's Figure 8(d,e) reports a 4–5× gap,
    /// which our automaton's extra output-walk work mirrors in the model.
    pub const FULL_MATCH_SLOWDOWN: f64 = 4.5;
}

impl Element for IdsMatch {
    fn name(&self) -> &str {
        "ids-match"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Inspector
    }

    fn actions(&self) -> ElementActions {
        let a = ElementActions::read_all();
        if self.mode == IdsMode::Drop {
            a.with_drop()
        } else {
            a
        }
    }

    fn offload(&self) -> Offload {
        Offload::Offloadable {
            kernel: KernelClass::PatternMatch,
        }
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let mut hit = Vec::with_capacity(batch.len());
        self.rules.scan(
            batch.iter().map(|p| p.l4_payload().unwrap_or(&[])),
            &mut hit,
        );
        let alerts = hit.iter().filter(|&&h| h).count() as u64;
        self.alerts += alerts;
        self.processed += hit.len() as u64;
        self.recent_alerts += alerts as f64;
        self.recent_processed += hit.len() as f64;
        // Exponential decay: halve the window once it spans ~8 batches.
        if self.recent_processed > 2048.0 {
            self.recent_alerts /= 2.0;
            self.recent_processed /= 2.0;
        }
        if self.mode == IdsMode::Drop {
            let mut i = 0;
            batch.retain(|_| {
                let h = hit[i];
                i += 1;
                !h
            });
        }
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("ids-match", self.cfg ^ (self.mode == IdsMode::Drop) as u64)
    }

    fn work(&self) -> WorkProfile {
        // One DFA transition (memory load) per payload byte; matches walk
        // the output lists too, and warps diverge most when matching and
        // non-matching packets mix.
        let f = self.match_fraction();
        WorkProfile {
            match_factor: 1.0 + (Self::FULL_MATCH_SLOWDOWN - 1.0) * f,
            divergence: 4.0 * f * (1.0 - f),
            ..WorkProfile::new(120.0, 9.0)
        }
    }
}

// ---------------------------------------------------------------------
// Firewall
// ---------------------------------------------------------------------

/// ACL-based firewall filter.
///
/// With `enforce = false` (the paper's throughput-measurement setup:
/// "the rules of firewall are modified to never drop packets", and
/// Table II lists firewall Drop = N) denied packets are only counted.
#[derive(Debug, Clone)]
pub struct FirewallFilter {
    acl: Arc<AclTable>,
    enforce: bool,
    denied: u64,
}

impl FirewallFilter {
    /// Creates the filter.
    pub fn new(acl: Arc<AclTable>, enforce: bool) -> Self {
        FirewallFilter {
            acl,
            enforce,
            denied: 0,
        }
    }

    /// Packets that matched a deny rule.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Whether `p` matches a deny rule, from its parsed headers
    /// (anything without a 5-tuple is denied).
    fn denies_packet(&self, p: &Packet) -> bool {
        p.five_tuple()
            .map(|t| self.acl.classify(&t).action == Action::Deny)
            .unwrap_or(true)
    }

    /// The deny decision of each of `rows`, handed to `sink` in order.
    /// The tuple rows set in `selected` — which must cover every tuple
    /// row of `rows` — classify straight off the u32/u16 columns through
    /// the destination-prefix index ([`AclTable::classify_v4_batch`],
    /// first-match order preserved); rows outside the tuple mask (IPv6,
    /// non-UDP/TCP) take the per-packet path so the verdicts stay
    /// bit-identical.
    fn denies(
        &self,
        batch: &Batch,
        lanes: &HeaderLanes,
        selected: &[u64],
        rows: impl Iterator<Item = usize>,
        mut sink: impl FnMut(bool),
    ) {
        let batched = self.acl.classify_v4_batch(
            lanes.src_ip(),
            lanes.dst_ip(),
            lanes.src_port(),
            lanes.dst_port(),
            lanes.proto(),
            selected,
        );
        for i in rows {
            sink(if lanes.tuple_mask()[i] {
                let verdict = batched[i].expect("tuple row has a batched verdict");
                verdict.action == Action::Deny
            } else {
                self.denies_packet(batch.get(i).expect("row within the batch"))
            });
        }
    }

    /// The flow verdict of a packet the ACL denies (or not).
    fn verdict(&self, deny: bool) -> FlowVerdict {
        if deny && self.enforce {
            FlowVerdict::Drop
        } else {
            FlowVerdict::Forward { port: 0 }
        }
    }
}

impl Element for FirewallFilter {
    fn name(&self) -> &str {
        "firewall-filter"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Classifier
    }

    fn actions(&self) -> ElementActions {
        let a = ElementActions::read_header();
        if self.enforce {
            a.with_drop()
        } else {
            a
        }
    }

    fn offload(&self) -> Offload {
        Offload::Offloadable {
            kernel: KernelClass::Classification,
        }
    }

    fn process(&mut self, mut batch: Batch, ctx: &mut RunCtx) -> Vec<Batch> {
        let mut deny_flags = Vec::with_capacity(batch.len());
        if ctx.lanes {
            let lanes = batch.shared_lanes();
            let rows = 0..batch.len();
            self.denies(&batch, &lanes, lanes.tuple_bits(), rows, |d| {
                deny_flags.push(d)
            });
        } else {
            deny_flags.extend(batch.iter().map(|p| self.denies_packet(p)));
        }
        self.denied += deny_flags.iter().filter(|&&d| d).count() as u64;
        if self.enforce {
            let mut i = 0;
            batch.retain(|_| {
                let d = deny_flags[i];
                i += 1;
                !d
            });
        }
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new(
            "firewall-filter",
            self.acl.config_hash() ^ self.enforce as u64,
        )
    }

    fn work(&self) -> WorkProfile {
        // Decision-tree classification: cost grows sublinearly with rule
        // count (tree depth + node cache misses). Aimed at the paper's
        // Figure 17 FastClick drop (-38 % of throughput at 1 000 rules,
        // -84 % at 10 000), it yields -24 % / -69 % (`results/fig17.json`);
        // ROADMAP item 14 replaces it with a counted charge. The host's
        // prefix index (`AclTable`) is not what this prices, on purpose.
        WorkProfile::per_packet(100.0 + 1.17 * (self.acl.len() as f64).powf(0.7))
    }

    fn verdict_capable(&self) -> bool {
        true
    }

    fn flow_verdict(&self, pkt: &Packet) -> Option<FlowVerdict> {
        // Note: the `denied` telemetry counter only advances in `process`,
        // i.e. with the flow cache off or on its fallback; cached hits and
        // misses bypass it by design (GraphStats stay exact).
        Some(self.verdict(self.denies_packet(pkt)))
    }

    fn flow_verdicts(
        &self,
        batch: &Batch,
        lanes: &HeaderLanes,
        rows: &[u32],
        out: &mut Vec<FlowVerdict>,
    ) -> bool {
        // Only the asked-for tuple rows go through the batch sweep.
        let mut selected = vec![0u64; lanes.tuple_bits().len()];
        for &r in rows {
            if lanes.tuple_mask()[r as usize] {
                nfc_packet::simd::set_bit(&mut selected, r as usize);
            }
        }
        let rows = rows.iter().map(|&r| r as usize);
        self.denies(batch, lanes, &selected, rows, |d| out.push(self.verdict(d)));
        true
    }
}

// ---------------------------------------------------------------------
// Session logging
// ---------------------------------------------------------------------

/// Connection state tracked for one session in the [`SessionLog`] table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SessionEntry {
    pub(crate) packets: u64,
    pub(crate) bytes: u64,
    pub(crate) denied: bool,
    pub(crate) closed: bool,
}

/// Stateful session-logging firewall element (NetScreen/ASA-style
/// built / teardown / deny records).
///
/// Tracks every 5-tuple flow in a [`ClockTable`] and cuts a structured
/// [`SessionRecord`] when a session is **built** (first packet of a
/// flow), **torn down** (TCP FIN or RST observed), or **denied** (the
/// flow matched a deny rule in the optional ACL). Records carry
/// packet/byte totals and are buffered inside the element — the
/// runtime drains them via [`Element::take_session_records`] and turns
/// each one into a `session`-category telemetry event.
///
/// With `enforce = false` (the default, matching the paper's
/// never-drop firewall measurement setup) denied flows are recorded
/// but forwarded, so egress is bit-identical with and without the
/// element's observability consumers armed. Sessions evicted from the
/// CLOCK table lose their teardown record (the table has no
/// remove-on-close; closed entries are reused in place and a later
/// packet of the same flow reopens the session with a fresh `built`).
#[derive(Debug, Clone)]
pub struct SessionLog {
    table: ClockTable<FlowKey, SessionEntry>,
    deny: Option<Arc<AclTable>>,
    records: Vec<SessionRecord>,
    dropped_records: u64,
    enforce: bool,
    cfg: u64,
}

impl SessionLog {
    /// Most records buffered between runtime drains; beyond this the
    /// oldest are dropped (counted in [`SessionLog::dropped_records`]).
    pub const MAX_RECORDS: usize = 4096;

    /// Creates a session log tracking up to `capacity` concurrent
    /// sessions, optionally classifying flows against a deny ACL.
    pub fn new(capacity: usize, deny: Option<Arc<AclTable>>) -> Self {
        let cfg = match &deny {
            Some(acl) => acl.config_hash() ^ capacity as u64,
            None => config_hash(&capacity.to_le_bytes()),
        };
        SessionLog {
            table: ClockTable::with_capacity(capacity),
            deny,
            records: Vec::new(),
            dropped_records: 0,
            enforce: false,
            cfg,
        }
    }

    /// Makes deny-classified flows actually drop (changes the action
    /// profile from read-header to read-header+drop).
    pub fn enforcing(mut self) -> Self {
        self.enforce = true;
        self
    }

    /// Sessions currently tracked.
    pub fn table_size(&self) -> usize {
        self.table.len()
    }

    /// Records dropped because the buffer overflowed between drains.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    fn push_record(&mut self, state: SessionState, flow: u32, packets: u64, bytes: u64) {
        if self.records.len() == Self::MAX_RECORDS {
            self.records.remove(0);
            self.dropped_records += 1;
        }
        self.records.push(SessionRecord {
            state,
            flow,
            packets,
            bytes,
        });
    }

    /// Whether this packet's flow matches a deny rule.
    fn denied(&self, pkt: &Packet) -> bool {
        match &self.deny {
            Some(acl) => pkt
                .five_tuple()
                .map(|t| acl.classify(&t).action == Action::Deny)
                .unwrap_or(false),
            None => false,
        }
    }
}

impl Element for SessionLog {
    fn name(&self) -> &str {
        "session-log"
    }

    fn class(&self) -> ElementClass {
        // Stateful: per-flow counters make the element ineligible for
        // the flow cache, so every packet takes the slow path and the
        // record stream is identical with the cache on or off.
        ElementClass::Stateful
    }

    fn actions(&self) -> ElementActions {
        let a = ElementActions::read_header();
        if self.enforce {
            a.with_drop()
        } else {
            a
        }
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let mut deny_flags = self.enforce.then(|| Vec::with_capacity(batch.len()));
        let mut cuts: Vec<(SessionState, u32, u64, u64)> = Vec::new();
        for p in batch.iter() {
            // Non-IP / non-UDP-TCP packets carry no session key; they
            // pass through uncounted (and unenforced).
            let Ok(key) = FlowKey::of(p) else {
                if let Some(flags) = deny_flags.as_mut() {
                    flags.push(false);
                }
                continue;
            };
            let flow = key.hash();
            let hash = u64::from(flow);
            let wire = p.len() as u64;
            let fin = p
                .tcp()
                .map(|t| t.flags & (tcp_flags::FIN | tcp_flags::RST) != 0)
                .unwrap_or(false);
            let denied_now = self.denied(p);
            let entry_denied;
            match self.table.get_mut(hash, &key) {
                Some(entry) if !entry.closed => {
                    entry.packets += 1;
                    entry.bytes += wire;
                    entry_denied = entry.denied;
                    // Denied sessions already cut their one deny record;
                    // later packets are counted silently.
                    if fin && !entry.denied {
                        entry.closed = true;
                        cuts.push((SessionState::Teardown, flow, entry.packets, entry.bytes));
                    }
                }
                Some(entry) => {
                    // A packet after teardown reopens the session with a
                    // fresh built (the table has no remove; closed
                    // entries are reused in place).
                    entry_denied = denied_now;
                    entry.packets = 1;
                    entry.bytes = wire;
                    entry.denied = denied_now;
                    entry.closed = fin && !denied_now;
                    cuts.push((SessionState::Built, flow, 1, wire));
                    if denied_now {
                        cuts.push((SessionState::Deny, flow, 1, wire));
                    } else if fin {
                        // Degenerate single-packet session: built and
                        // torn down by the same packet.
                        cuts.push((SessionState::Teardown, flow, 1, wire));
                    }
                }
                None => {
                    entry_denied = denied_now;
                    self.table.insert(
                        hash,
                        key,
                        SessionEntry {
                            packets: 1,
                            bytes: wire,
                            denied: denied_now,
                            closed: fin && !denied_now,
                        },
                    );
                    cuts.push((SessionState::Built, flow, 1, wire));
                    if denied_now {
                        // Deny follows its built so the validator's
                        // "teardown/deny after built" invariant holds.
                        cuts.push((SessionState::Deny, flow, 1, wire));
                    } else if fin {
                        cuts.push((SessionState::Teardown, flow, 1, wire));
                    }
                }
            }
            if let Some(flags) = deny_flags.as_mut() {
                flags.push(entry_denied);
            }
        }
        for (state, flow, packets, bytes) in cuts {
            self.push_record(state, flow, packets, bytes);
        }
        if let Some(flags) = deny_flags {
            let mut i = 0;
            batch.retain(|_| {
                let d = flags[i];
                i += 1;
                !d
            });
        }
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("session-log", self.cfg ^ self.enforce as u64)
    }

    fn work(&self) -> WorkProfile {
        // One CLOCK-table probe plus counter bumps per packet.
        WorkProfile::per_packet(80.0)
    }

    fn state_bytes(&self) -> usize {
        // FlowKey + SessionEntry + table slot overhead per session.
        self.table.len() * 72
    }

    fn take_session_records(&mut self) -> Vec<SessionRecord> {
        std::mem::take(&mut self.records)
    }
}

// ---------------------------------------------------------------------
// NAT
// ---------------------------------------------------------------------

/// Size of the NAT's public port pool, `10_000..=65_535`.
const NAT_PORTS: usize = (u16::MAX - 10_000) as usize + 1;

/// Source NAT with a dynamic connection table (stateful; Table II: header
/// write, no drop).
///
/// Outbound packets (not from the public IP) get their source rewritten to
/// `public_ip:allocated_port`; packets addressed to the public IP are
/// translated back. Checksums are fixed incrementally.
#[derive(Debug, Clone)]
pub struct Nat {
    public_ip: [u8; 4],
    next_port: u16,
    by_inside: HashMap<FiveTuple, u16>,
    by_port: HashMap<u16, FiveTuple>,
}

impl Nat {
    /// Creates a NAT translating to `public_ip`.
    pub fn new(public_ip: [u8; 4]) -> Self {
        Nat {
            public_ip,
            next_port: 10_000,
            by_inside: HashMap::new(),
            by_port: HashMap::new(),
        }
    }

    /// Active translations.
    pub fn table_size(&self) -> usize {
        self.by_inside.len()
    }

    fn alloc_port(&mut self, inside: FiveTuple) -> u16 {
        if let Some(&p) = self.by_inside.get(&inside) {
            return p;
        }
        let mut port = self.next_port;
        if self.by_port.len() >= NAT_PORTS {
            // Pool exhausted: recycle the translation holding the next
            // port in round-robin order instead of searching forever.
            if let Some(old) = self.by_port.remove(&port) {
                self.by_inside.remove(&old);
            }
        }
        while self.by_port.contains_key(&port) {
            port = port.wrapping_add(1).max(10_000);
        }
        self.next_port = port.wrapping_add(1).max(10_000);
        self.by_inside.insert(inside, port);
        self.by_port.insert(port, inside);
        port
    }

    fn rewrite_src(pkt: &mut nfc_packet::Packet, new_ip: [u8; 4], new_port: u16) {
        let Ok(mut ip) = pkt.ipv4() else { return };
        let old_ip = u32::from_be_bytes(ip.src);
        let new_ip_u = u32::from_be_bytes(new_ip);
        ip.src = new_ip;
        ip.checksum = checksum::update32(ip.checksum, old_ip, new_ip_u);
        pkt.set_ipv4(&ip);
        if let Ok(mut udp) = pkt.udp() {
            let old_port = udp.src_port;
            udp.src_port = new_port;
            if udp.checksum != 0 {
                udp.checksum = checksum::update32(udp.checksum, old_ip, new_ip_u);
                udp.checksum = checksum::update16(udp.checksum, old_port, new_port);
            }
            let _ = pkt.set_udp(&udp);
        } else if let Ok(mut tcp) = pkt.tcp() {
            let old_port = tcp.src_port;
            tcp.src_port = new_port;
            tcp.checksum = checksum::update32(tcp.checksum, old_ip, new_ip_u);
            tcp.checksum = checksum::update16(tcp.checksum, old_port, new_port);
            let _ = pkt.set_tcp(&tcp);
        }
    }

    fn rewrite_dst(pkt: &mut nfc_packet::Packet, new_ip: [u8; 4], new_port: u16) {
        let Ok(mut ip) = pkt.ipv4() else { return };
        let old_ip = u32::from_be_bytes(ip.dst);
        let new_ip_u = u32::from_be_bytes(new_ip);
        ip.dst = new_ip;
        ip.checksum = checksum::update32(ip.checksum, old_ip, new_ip_u);
        pkt.set_ipv4(&ip);
        if let Ok(mut udp) = pkt.udp() {
            let old_port = udp.dst_port;
            udp.dst_port = new_port;
            if udp.checksum != 0 {
                udp.checksum = checksum::update32(udp.checksum, old_ip, new_ip_u);
                udp.checksum = checksum::update16(udp.checksum, old_port, new_port);
            }
            let _ = pkt.set_udp(&udp);
        } else if let Ok(mut tcp) = pkt.tcp() {
            let old_port = tcp.dst_port;
            tcp.dst_port = new_port;
            tcp.checksum = checksum::update32(tcp.checksum, old_ip, new_ip_u);
            tcp.checksum = checksum::update16(tcp.checksum, old_port, new_port);
            let _ = pkt.set_tcp(&tcp);
        }
    }
}

impl Element for Nat {
    fn name(&self) -> &str {
        "nat"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Stateful
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header().with_header_write()
    }

    fn process(&mut self, mut batch: Batch, ctx: &mut RunCtx) -> Vec<Batch> {
        let public = self.public_ip;
        if ctx.lanes {
            // Lanes replace the per-packet tuple re-parse; translation
            // still goes through the shared rewrite helpers so the bytes
            // on the wire (and port-allocation order) are identical.
            let lanes = batch.shared_lanes();
            for (i, p) in batch.iter_mut().enumerate() {
                let tuple = if lanes.tuple_mask()[i] {
                    FiveTuple {
                        src: IpAddr::V4(Ipv4Addr::from(lanes.src_ip()[i])),
                        dst: IpAddr::V4(Ipv4Addr::from(lanes.dst_ip()[i])),
                        src_port: lanes.src_port()[i],
                        dst_port: lanes.dst_port()[i],
                        proto: lanes.proto()[i],
                    }
                } else {
                    match p.five_tuple() {
                        Ok(t) => t,
                        Err(_) => continue,
                    }
                };
                let dst_is_public = matches!(tuple.dst, IpAddr::V4(d) if d.octets() == public);
                if dst_is_public {
                    if let Some(inside) = self.by_port.get(&tuple.dst_port).copied() {
                        let IpAddr::V4(orig_src) = inside.src else {
                            continue;
                        };
                        Self::rewrite_dst(p, orig_src.octets(), inside.src_port);
                    }
                } else {
                    let port = self.alloc_port(tuple);
                    Self::rewrite_src(p, public, port);
                }
            }
            return vec![batch];
        }
        for p in batch.iter_mut() {
            let Ok(tuple) = p.five_tuple() else { continue };
            let dst_is_public = matches!(tuple.dst, IpAddr::V4(d) if d.octets() == public);
            if dst_is_public {
                // Return traffic: translate back if we own the port.
                if let Some(inside) = self.by_port.get(&tuple.dst_port).copied() {
                    let IpAddr::V4(orig_src) = inside.src else {
                        continue;
                    };
                    Self::rewrite_dst(p, orig_src.octets(), inside.src_port);
                }
            } else {
                let port = self.alloc_port(tuple);
                Self::rewrite_src(p, public, port);
            }
        }
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("nat", config_hash(&self.public_ip))
    }

    fn work(&self) -> WorkProfile {
        // Flow-table probe plus header rewrite and checksum fixups.
        WorkProfile::per_packet(70.0)
    }

    fn state_bytes(&self) -> usize {
        // Both direction maps: 5-tuple + port + map overhead per entry.
        self.by_inside.len() * 64 + self.by_port.len() * 48
    }
}

// ---------------------------------------------------------------------
// Load balancer, probe, proxy, WAN optimizer
// ---------------------------------------------------------------------

/// L4 load balancer: consistent-hash packets across `n` backends
/// (read-only per Table II — steering, not rewriting).
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    name: String,
    backends: usize,
}

impl LoadBalancer {
    /// Creates a balancer with `backends` output ports.
    ///
    /// # Panics
    ///
    /// Panics if `backends == 0`.
    pub fn new(name: impl Into<String>, backends: usize) -> Self {
        assert!(backends > 0, "need at least one backend");
        LoadBalancer {
            name: name.into(),
            backends,
        }
    }

    /// Backend of `p` from its parsed headers.
    fn backend(&self, p: &Packet) -> usize {
        let h = p
            .five_tuple()
            .map(|t| t.symmetric_hash())
            .unwrap_or(p.meta.flow_hash);
        (h as usize) % self.backends
    }

    /// Backend of row `i` (packet `p`) hashed off the columns —
    /// `symmetric_hash_v4` is the same FNV-1a fold
    /// `FiveTuple::symmetric_hash` computes; rows outside the tuple mask
    /// take [`Self::backend`].
    fn backend_row(&self, lanes: &HeaderLanes, i: usize, p: &Packet) -> usize {
        if !lanes.tuple_mask()[i] {
            return self.backend(p);
        }
        let h = nfc_packet::flow::symmetric_hash_v4(
            lanes.src_ip()[i],
            lanes.dst_ip()[i],
            lanes.src_port()[i],
            lanes.dst_port()[i],
            lanes.proto()[i],
        );
        (h as usize) % self.backends
    }
}

impl Element for LoadBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> ElementClass {
        ElementClass::Classifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header()
    }

    fn n_outputs(&self) -> usize {
        self.backends
    }

    fn process(&mut self, mut batch: Batch, ctx: &mut RunCtx) -> Vec<Batch> {
        let n = self.backends;
        if ctx.lanes {
            let lanes = batch.shared_lanes();
            let routes: Vec<usize> = batch
                .iter()
                .enumerate()
                .map(|(i, p)| self.backend_row(&lanes, i, p))
                .collect();
            return batch.split_by(n, |i, _| routes[i]);
        }
        batch.split_by(n, |_, p| self.backend(p))
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("load-balancer", self.backends as u64)
    }

    fn work(&self) -> WorkProfile {
        WorkProfile::per_packet(35.0)
    }

    fn verdict_capable(&self) -> bool {
        true
    }

    fn flow_verdict(&self, pkt: &Packet) -> Option<FlowVerdict> {
        Some(FlowVerdict::Forward {
            port: self.backend(pkt),
        })
    }

    fn flow_verdicts(
        &self,
        batch: &Batch,
        lanes: &HeaderLanes,
        rows: &[u32],
        out: &mut Vec<FlowVerdict>,
    ) -> bool {
        out.extend(rows.iter().map(|&row| {
            let i = row as usize;
            let p = batch.get(i).expect("row within the batch");
            FlowVerdict::Forward {
                port: self.backend_row(lanes, i, p),
            }
        }));
        true
    }
}

/// Passive traffic probe: per-flow packet/byte accounting (Table II row 1:
/// header read only).
#[derive(Debug, Clone, Default)]
pub struct Probe {
    flows: HashMap<u32, (u64, u64)>,
}

impl Probe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        Probe::default()
    }

    /// Number of distinct flows observed.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Total packets observed.
    pub fn total_packets(&self) -> u64 {
        self.flows.values().map(|(p, _)| p).sum()
    }
}

impl Element for Probe {
    fn name(&self) -> &str {
        "probe"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Inspector
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header()
    }

    fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        for p in batch.iter() {
            let e = self.flows.entry(p.meta.flow_hash).or_insert((0, 0));
            e.0 += 1;
            e.1 += p.len() as u64;
        }
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("probe", 0)
    }

    fn work(&self) -> WorkProfile {
        WorkProfile::per_packet(20.0)
    }
}

/// Application proxy: rewrites a fixed-length token in the payload
/// (Table II: reads header+payload, writes payload only, no resize).
///
/// Finds `needle` in the payload and overwrites it in place with
/// `replacement` (padded/truncated to the needle's length), the way a
/// header-rewriting proxy patches `Host:` values.
#[derive(Debug, Clone)]
pub struct Proxy {
    needle: Vec<u8>,
    replacement: Vec<u8>,
    rewrites: u64,
}

impl Proxy {
    /// Creates a proxy rewriting `needle` to `replacement` (same length,
    /// padded with spaces).
    ///
    /// # Panics
    ///
    /// Panics if `needle` is empty.
    pub fn new(needle: impl Into<Vec<u8>>, replacement: impl Into<Vec<u8>>) -> Self {
        let needle = needle.into();
        assert!(!needle.is_empty(), "needle must be non-empty");
        let mut replacement = replacement.into();
        replacement.resize(needle.len(), b' ');
        Proxy {
            needle,
            replacement,
            rewrites: 0,
        }
    }

    /// Rewrites performed so far.
    pub fn rewrites(&self) -> u64 {
        self.rewrites
    }
}

impl Element for Proxy {
    fn name(&self) -> &str {
        "proxy"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Modifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_all().with_payload_write()
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let needle = self.needle.clone();
        let replacement = self.replacement.clone();
        let mut rewrites = 0u64;
        for p in batch.iter_mut() {
            if let Ok(payload) = p.l4_payload_mut() {
                if let Some(pos) = payload
                    .windows(needle.len())
                    .position(|w| w == needle.as_slice())
                {
                    payload[pos..pos + needle.len()].copy_from_slice(&replacement);
                    rewrites += 1;
                }
            }
        }
        self.rewrites += rewrites;
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        let mut cfg = self.needle.clone();
        cfg.extend_from_slice(&self.replacement);
        ElementSignature::new("proxy", config_hash(&cfg))
    }

    fn work(&self) -> WorkProfile {
        WorkProfile::new(60.0, 2.0)
    }
}

/// WAN optimizer: payload deduplication (Table II: reads and writes header
/// and payload, adds/removes bytes, may drop).
///
/// The first occurrence of a payload passes through and is cached; repeats
/// are replaced by a 12-byte dedup token (shrinking the packet); a payload
/// repeated more than `drop_after` times within the cache window is
/// suppressed entirely.
#[derive(Debug, Clone)]
pub struct WanOptimizer {
    cache: ClockTable<u32, u32>,
    cache_cap: usize,
    drop_after: u32,
    dedup_hits: u64,
}

impl WanOptimizer {
    /// Creates an optimizer with the given cache capacity and suppression
    /// threshold.
    pub fn new(cache_cap: usize, drop_after: u32) -> Self {
        WanOptimizer {
            cache: ClockTable::with_capacity(cache_cap),
            cache_cap,
            drop_after,
            dedup_hits: 0,
        }
    }

    /// Number of deduplicated payloads so far.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }
}

impl Element for WanOptimizer {
    fn name(&self) -> &str {
        "wan-optimizer"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Stateful
    }

    fn actions(&self) -> ElementActions {
        ElementActions {
            reads_header: true,
            reads_payload: true,
            writes_header: true,
            writes_payload: true,
            resizes: true,
            may_drop: true,
        }
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let mut keep = Vec::with_capacity(batch.len());
        for p in batch.iter_mut() {
            let Ok(payload) = p.l4_payload() else {
                keep.push(true);
                continue;
            };
            if payload.len() < 16 {
                keep.push(true);
                continue;
            }
            let h = nfc_packet::flow::fnv1a(payload);
            // Bounded CLOCK cache: old fingerprints are evicted one at a
            // time under pressure instead of flushing the whole window,
            // and new payloads are always admitted.
            let count = match self.cache.get_mut(u64::from(h), &h) {
                Some(count) => {
                    *count += 1;
                    *count
                }
                None => {
                    self.cache.insert(u64::from(h), h, 1);
                    1
                }
            };
            if count == 1 {
                keep.push(true);
            } else if count <= self.drop_after {
                self.dedup_hits += 1;
                let mut token = Vec::with_capacity(12);
                token.extend_from_slice(b"DDUP");
                token.extend_from_slice(&h.to_be_bytes());
                token.extend_from_slice(&count.to_be_bytes());
                let _ = p.replace_l4_payload(&token);
                keep.push(true);
            } else {
                self.dedup_hits += 1;
                keep.push(false);
            }
        }
        let mut i = 0;
        batch.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new(
            "wan-optimizer",
            (self.cache_cap as u64) << 32 | u64::from(self.drop_after),
        )
    }

    fn work(&self) -> WorkProfile {
        // Payload hashing walks every byte.
        WorkProfile::new(80.0, 1.5)
    }

    fn state_bytes(&self) -> usize {
        // Fingerprint + hit count + generation stamp + CLOCK bit per entry.
        self.cache.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{synth, Rule};
    use crate::lpm::RouteV4;
    use nfc_packet::Packet;

    fn ctx() -> RunCtx {
        RunCtx::default()
    }

    fn pkt(payload: &[u8]) -> Packet {
        Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, 9], 4444, 80, payload)
    }

    fn one(p: Packet) -> Batch {
        [p].into_iter().collect()
    }

    #[test]
    fn session_log_cuts_built_teardown_and_deny_records() {
        let deny_rule = Rule {
            src: (0, 0),
            dst: (0, 0),
            sport: (0, u16::MAX),
            dport: (6666, 6666),
            proto: None,
            action: Action::Deny,
        };
        let mut el = SessionLog::new(
            1024,
            Some(Arc::new(AclTable::new(vec![deny_rule], Action::Allow))),
        );

        // UDP flow: two packets, one session, one built record.
        let udp = || Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, 9], 4444, 80, b"abc");
        el.process(one(udp()), &mut ctx());
        el.process(one(udp()), &mut ctx());
        let recs = el.take_session_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].state, SessionState::Built);
        assert_eq!(recs[0].packets, 1);
        assert_eq!(recs[0].bytes, udp().len() as u64);
        // Drained: the buffer is empty until something new happens.
        assert!(el.take_session_records().is_empty());

        // TCP flow: data, data, FIN → teardown carries totals; a packet
        // after teardown reopens the session with a fresh built.
        let tcp = |flags| Packet::ipv4_tcp([10, 0, 0, 2], [172, 16, 0, 9], 5555, 443, b"xy", flags);
        el.process(one(tcp(tcp_flags::ACK)), &mut ctx());
        el.process(one(tcp(tcp_flags::ACK)), &mut ctx());
        el.process(one(tcp(tcp_flags::FIN | tcp_flags::ACK)), &mut ctx());
        el.process(one(tcp(tcp_flags::SYN)), &mut ctx());
        let recs = el.take_session_records();
        let states: Vec<_> = recs.iter().map(|r| r.state).collect();
        assert_eq!(
            states,
            vec![
                SessionState::Built,
                SessionState::Teardown,
                SessionState::Built
            ]
        );
        assert_eq!(recs[1].packets, 3, "teardown carries session totals");
        assert_eq!(recs[1].bytes, 3 * tcp(0).len() as u64);
        assert_eq!(recs[2].packets, 1, "reopen restarts the counters");

        // Denied flow: deny follows its built; later packets of the
        // denied flow are counted silently (one deny per flow).
        let bad = || Packet::ipv4_udp([10, 0, 0, 3], [172, 16, 0, 9], 7777, 6666, b"zz");
        el.process(one(bad()), &mut ctx());
        el.process(one(bad()), &mut ctx());
        let recs = el.take_session_records();
        let states: Vec<_> = recs.iter().map(|r| r.state).collect();
        assert_eq!(states, vec![SessionState::Built, SessionState::Deny]);
        assert_eq!(recs[0].flow, recs[1].flow);
        assert_eq!(el.table_size(), 3);
        assert!(el.state_bytes() > 0);
    }

    #[test]
    fn session_log_forwards_everything_unless_enforcing() {
        let deny_all = Arc::new(AclTable::new(vec![Rule::any(Action::Deny)], Action::Allow));
        let mut passive = SessionLog::new(64, Some(Arc::clone(&deny_all)));
        let mut enforcing = SessionLog::new(64, Some(deny_all)).enforcing();
        let batch = || -> Batch {
            (0..4)
                .map(|i| {
                    Packet::ipv4_udp([10, 0, 0, i], [172, 16, 0, 9], 1000 + i as u16, 80, b"p")
                })
                .collect()
        };
        // Passive (the paper's never-drop setup): egress is the ingress.
        let out = passive.process(batch(), &mut ctx());
        assert_eq!(out[0].len(), 4);
        assert!(!passive.actions().may_drop);
        // Enforcing: denied flows drop, and the action profile says so.
        let out = enforcing.process(batch(), &mut ctx());
        assert!(out[0].is_empty());
        assert!(enforcing.actions().may_drop);
        // Non-IP-session packets (no 5-tuple key) always pass.
        let raw: Batch = [Packet::from_bytes(vec![0u8; 64])].into_iter().collect();
        let out = enforcing.process(raw, &mut ctx());
        assert_eq!(out[0].len(), 1);
    }

    #[test]
    fn ip_lookup_annotates_and_drops() {
        let routes = vec![RouteV4 {
            prefix: u32::from_be_bytes([172, 16, 0, 0]),
            len: 12,
            next_hop: 7,
        }];
        let table = Arc::new(Dir24_8::from_routes(&routes, 16));
        let mut el = IpLookup::new(table, 1);
        let out = el.process(one(pkt(b"x")), &mut ctx());
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0].get(0).unwrap().meta.anno[ANNO_NEXT_HOP], 8);
        // Unroutable destination is dropped.
        let unroutable = Packet::ipv4_udp([1, 1, 1, 1], [9, 9, 9, 9], 1, 2, b"");
        let out = el.process(one(unroutable), &mut ctx());
        assert!(out[0].is_empty());
    }

    #[test]
    fn mac_rewrite_uses_next_hop() {
        let mut el = MacRewrite::new(MacAddr([2, 0, 0, 0, 0, 0xAA]));
        let mut p = pkt(b"");
        p.meta.anno[ANNO_NEXT_HOP] = 8;
        let out = el.process(one(p), &mut ctx());
        let eth = out[0].get(0).unwrap().ethernet().unwrap();
        assert_eq!(eth.src, MacAddr([2, 0, 0, 0, 0, 0xAA]));
        assert_eq!(eth.dst, MacAddr([0x02, 0, 0, 0, 0, 8]));
    }

    #[test]
    fn ipsec_roundtrip_restores_payload() {
        let sa = IpsecSa::example();
        let mut enc = IpsecEncrypt::new(sa.clone());
        let mut dec = IpsecDecrypt::new(sa);
        let payload = b"top secret application data";
        let out = enc.process(one(pkt(payload)), &mut ctx());
        let encrypted = out[0].get(0).unwrap().clone();
        assert_ne!(encrypted.l4_payload().unwrap(), payload);
        assert_eq!(
            encrypted.l4_payload().unwrap().len(),
            ESP_HDR_LEN + payload.len() + ESP_TAG_LEN
        );
        let out = dec.process(one(encrypted), &mut ctx());
        assert_eq!(out[0].get(0).unwrap().l4_payload().unwrap(), payload);
        assert_eq!(dec.auth_failures(), 0);
    }

    #[test]
    fn ipsec_decrypt_rejects_tampering() {
        let sa = IpsecSa::example();
        let mut enc = IpsecEncrypt::new(sa.clone());
        let mut dec = IpsecDecrypt::new(sa);
        let out = enc.process(one(pkt(b"payload-bytes-here")), &mut ctx());
        let mut tampered = out[0].get(0).unwrap().clone();
        let off = tampered.l4_payload_offset().unwrap() + ESP_HDR_LEN;
        tampered.data_mut()[off] ^= 0xFF;
        let out = dec.process(one(tampered), &mut ctx());
        assert!(out[0].is_empty());
        assert_eq!(dec.auth_failures(), 1);
    }

    #[test]
    fn ipsec_decrypt_rejects_every_single_bit_flip() {
        let sa = IpsecSa::example();
        let mut enc = IpsecEncrypt::new(sa.clone());
        let mut dec = IpsecDecrypt::new(sa);
        let plain = pkt(b"payload-bytes-here");
        let out = enc.process(one(plain.clone()), &mut ctx());
        let sealed = out[0].get(0).unwrap().clone();
        // Every bit of the SPI, of one ciphertext byte and of the tag.
        let esp = sealed.l4_payload_offset().unwrap();
        let tag = sealed.len() - ESP_TAG_LEN;
        let bytes = (esp..esp + 4)
            .chain([esp + ESP_HDR_LEN + 3])
            .chain(tag..sealed.len());
        let mut flips = 0;
        for byte in bytes {
            for bit in 0..8 {
                let mut tampered = sealed.clone();
                tampered.data_mut()[byte] ^= 1 << bit;
                let out = dec.process(one(tampered), &mut ctx());
                flips += 1;
                assert!(out[0].is_empty(), "byte {byte} bit {bit} got through");
                assert_eq!(dec.auth_failures(), flips);
            }
        }
        assert_eq!(flips, (4 + 1 + 12) * 8);
        // The packet all those copies were made from still verifies.
        let out = dec.process(one(sealed), &mut ctx());
        assert_eq!(out[0].get(0), Some(&plain));
        assert_eq!(dec.auth_failures(), flips);
    }

    #[test]
    fn ipsec_encrypt_equals_the_spelled_out_encapsulation() {
        let sa = IpsecSa::example();
        let payload: Vec<u8> = (0..1318).map(|i| (i * 31) as u8).collect();
        let mut frames = [
            pkt(&payload),
            pkt(b""),
            Packet::ipv4_tcp([10, 0, 0, 1], [10, 0, 0, 2], 5, 443, &payload[..77], 0x18),
            Packet::ipv6_udp([3; 16], [4; 16], 9, 53, &payload[..64]),
        ];
        for (i, f) in frames.iter_mut().enumerate() {
            f.meta.seq = i as u64;
        }
        let mut enc = IpsecEncrypt::new(sa.clone());
        // The input frames stay shared with `frames`, as they are with the
        // IDS branch of a re-organized chain.
        let sealed = enc.process(frames.iter().cloned().collect(), &mut ctx());
        let (aes, hmac) = (Aes128::new(&sa.aes_key), HmacSha1Key::new(&sa.hmac_key));
        for (i, (frame, sealed)) in frames.iter().zip(sealed[0].iter()).enumerate() {
            let seq = i as u64 + 1;
            let mut body = frame.l4_payload().unwrap().to_vec();
            aes.ctr_apply(sa.nonce, seq, &mut body);
            let mut esp = sa.spi.to_be_bytes().to_vec();
            esp.extend_from_slice(&(seq as u32).to_be_bytes());
            esp.extend_from_slice(&seq.to_be_bytes());
            esp.extend_from_slice(&body);
            let tag = hmac.tag(&esp);
            esp.extend_from_slice(&tag[..ESP_TAG_LEN]);
            let mut want = frame.clone();
            want.replace_l4_payload(&esp).unwrap();
            assert_eq!(sealed.data(), want.data(), "frame {i}");
            // The other owner of the input buffer still reads plaintext.
            assert!(!sealed.shares_buffer(frame));
            assert_eq!(frame.buffer_refcount(), 1);
        }
        assert_eq!(frames[0].l4_payload().unwrap(), &payload[..]);
        let mut dec = IpsecDecrypt::new(sa);
        let opened = dec.process(sealed.into_iter().next().unwrap(), &mut ctx());
        assert!(opened[0].iter().eq(frames.iter()));
        assert_eq!(dec.auth_failures(), 0);
    }

    #[test]
    fn ipsec_encrypt_forwards_what_it_cannot_encapsulate() {
        let whole = pkt(&[0x5A; 64]);
        // Cut inside the UDP header: there is no payload slot to replace.
        let cut_at = whole.l4_payload_offset().unwrap() - 2;
        let cut = Packet::from_bytes(whole.data()[..cut_at].to_vec());
        // 28 bytes of ESP would push the IP length past 16 bits.
        let jumbo = pkt(&[0; 65_500]);
        let mut arp = vec![0u8; 60];
        arp[12..14].copy_from_slice(&[0x08, 0x06]);
        let arp = Packet::from_bytes(arp);
        let mut enc = IpsecEncrypt::new(IpsecSa::example());
        let batch = [cut.clone(), jumbo.clone(), arp.clone(), whole].into_iter();
        let out = enc.process(batch.collect(), &mut ctx());
        for (i, refused) in [cut, jumbo, arp].iter().enumerate() {
            assert_eq!(out[0].get(i), Some(refused));
            assert!(out[0].get(i).unwrap().shares_buffer(refused));
        }
        assert!(out[0].get(3).unwrap().l4_payload().unwrap().len() > 64);
    }

    #[test]
    fn ipsec_carve_matches_a_serial_seal_at_2_and_8_workers() {
        use nfc_click::ElementGraph;
        use nfc_packet::batch::BatchLineage;
        let full = pkt(&[0x3C; 1318]); // a 1 360 B frame
        let cut_at = full.l4_payload_offset().unwrap() - 2;
        let cut = Packet::from_bytes(full.data()[..cut_at].to_vec());
        let jumbo = pkt(&[0; 65_500]);
        // `n` frames (every 10th a CoW clone of its predecessor's buffer,
        // plus a cut frame and a jumbo where asked), with a lineage that
        // must come back unchanged.
        let batch = |n: usize, refused: bool| -> Batch {
            let mut b: Batch = (0..n)
                .map(|i| match i {
                    3 if refused => cut.clone(),
                    7 if refused => jumbo.clone(),
                    _ => pkt(&[i as u8; 1318]),
                })
                .collect();
            for i in (10..n).step_by(10) {
                let shared = b.get(i - 1).unwrap().clone();
                *b.get_mut(i).unwrap() = shared;
            }
            for (i, p) in b.iter_mut().enumerate() {
                p.meta.seq = 1000 + i as u64;
            }
            b.lineage = BatchLineage {
                splits: 2,
                merges: 1,
            };
            b
        };
        let seal = |input: &Batch, exec: ExecMode| {
            let mut g = ElementGraph::new();
            let enc = g.add(IpsecEncrypt::new(IpsecSa::example()));
            let mut run = g.compile().unwrap();
            run.set_exec_mode(exec);
            let out: Vec<Batch> = run
                .push(enc, input.clone())
                .into_iter()
                .map(|e| e.batch)
                .collect();
            (out, run.stats().clone())
        };
        // 24 frames: below two chunks' worth; with a jumbo, or 50 frames:
        // two chunks; 256 with refused frames: more chunks than workers.
        for (n, refused, chunks) in [
            (0, false, 0),
            (24, false, 0),
            (24, true, 2),
            (50, false, 2),
            (256, true, 12),
        ] {
            let input = batch(n, refused);
            let (want, want_stats) = seal(&input, ExecMode::Serial);
            assert_eq!(carve_chunks(&input, ExecMode::Serial), 0);
            for threads in [2, 8] {
                let exec = ExecMode::Parallel { threads };
                assert_eq!(carve_chunks(&input, exec), chunks, "{n} frames");
                let (got, stats) = seal(&input, exec);
                assert_eq!(got, want, "{n} frames, {threads} workers");
                assert!(got.iter().all(|b| b.lineage == input.lineage));
                assert_eq!(stats, want_stats);
            }
            // Every other owner of an input buffer still reads plaintext.
            assert_eq!(input, batch(n, refused));
        }
    }

    #[test]
    fn ipsec_seals_a_packet_alike_whatever_it_sealed_before() {
        // Beside a dropper, the gateway seals packets the sequential chain
        // never shows it; a survivor's bytes must not depend on them.
        let mut a = pkt(b"first");
        let mut b = pkt(b"second");
        (a.meta.seq, b.meta.seq) = (7, 8);
        let mut both = IpsecEncrypt::new(IpsecSa::example());
        let mut alone = IpsecEncrypt::new(IpsecSa::example());
        let out = both.process([a, b.clone()].into_iter().collect(), &mut ctx());
        let solo = alone.process(one(b), &mut ctx());
        assert_eq!(out[0].get(1), solo[0].get(0));
        let sealed = solo[0].get(0).unwrap().l4_payload().unwrap();
        assert_eq!(sealed[4..8], 9u32.to_be_bytes(), "ingress seq + 1");
    }

    #[test]
    fn ipsec_decrypt_rejects_wrong_spi() {
        let mut enc = IpsecEncrypt::new(IpsecSa::example());
        let mut other = IpsecSa::example();
        other.spi += 1;
        let mut dec = IpsecDecrypt::new(other);
        let out = enc.process(one(pkt(b"data")), &mut ctx());
        // Same keys, different SPI: HMAC still passes, SPI check must fire.
        let out = dec.process(out.into_iter().next().unwrap(), &mut ctx());
        assert!(out[0].is_empty());
    }

    #[test]
    fn ids_alert_vs_drop_modes() {
        let ac = Arc::new(AhoCorasick::new(["MALWARE"]));
        let dfas = Arc::new(Vec::new());
        let mut alert = IdsMatch::new(ac.clone(), dfas.clone(), IdsMode::Alert, 1);
        let mut ips = IdsMatch::new(ac, dfas, IdsMode::Drop, 1);
        let bad = pkt(b"xxMALWARExx");
        let good = pkt(b"all quiet here");
        let out = alert.process(
            [bad.clone(), good.clone()].into_iter().collect(),
            &mut ctx(),
        );
        assert_eq!(out[0].len(), 2);
        assert_eq!(alert.alerts(), 1);
        let out = ips.process([bad, good].into_iter().collect(), &mut ctx());
        assert_eq!(out[0].len(), 1);
    }

    #[test]
    fn ids_dfa_rules_fire() {
        let ac = Arc::new(AhoCorasick::new(Vec::<&str>::new()));
        let dfas = Arc::new(vec![Dfa::compile(r"id=\d+").unwrap()]);
        let mut ids = IdsMatch::new(ac, dfas, IdsMode::Alert, 2);
        ids.process(one(pkt(b"GET /x?id=42")), &mut ctx());
        assert_eq!(ids.alerts(), 1);
    }

    #[test]
    fn firewall_counts_without_enforcement() {
        let acl = Arc::new(AclTable::new(vec![Rule::any(Action::Deny)], Action::Allow));
        let mut fw = FirewallFilter::new(acl.clone(), false);
        let out = fw.process(one(pkt(b"x")), &mut ctx());
        assert_eq!(out[0].len(), 1); // not dropped
        assert_eq!(fw.denied(), 1);
        let mut fw = FirewallFilter::new(acl, true);
        let out = fw.process(one(pkt(b"x")), &mut ctx());
        assert!(out[0].is_empty());
    }

    #[test]
    fn firewall_cost_grows_with_rules() {
        let small = FirewallFilter::new(
            Arc::new(AclTable::new(synth::generate(200, 1), Action::Allow)),
            false,
        );
        let big = FirewallFilter::new(
            Arc::new(AclTable::new(synth::generate(10_000, 1), Action::Allow)),
            false,
        );
        assert!(big.work().per_packet > 4.0 * small.work().per_packet);
    }

    #[test]
    fn nat_translates_and_untranslates() {
        let mut nat = Nat::new([203, 0, 113, 1]);
        let inside = pkt(b"hello");
        let orig_tuple = inside.five_tuple().unwrap();
        let out = nat.process(one(inside), &mut ctx());
        let translated = out[0].get(0).unwrap().clone();
        let t = translated.five_tuple().unwrap();
        assert_eq!(t.src, IpAddr::V4([203, 0, 113, 1].into()));
        assert_ne!(t.src_port, orig_tuple.src_port);
        assert_eq!(nat.table_size(), 1);
        // IPv4 header checksum still verifies after rewrite.
        let hdr = &translated.data()[14..34];
        assert_eq!(checksum::fold(checksum::sum(hdr, 0)), 0xFFFF);
        // Return traffic to the public ip/port maps back.
        let reply = Packet::ipv4_udp([172, 16, 0, 9], [203, 0, 113, 1], 80, t.src_port, b"re");
        let out = nat.process(one(reply), &mut ctx());
        let back = out[0].get(0).unwrap().five_tuple().unwrap();
        assert_eq!(back.dst, orig_tuple.src);
        assert_eq!(back.dst_port, orig_tuple.src_port);
    }

    #[test]
    fn nat_recycles_ports_once_the_pool_is_full() {
        let mut nat = Nat::new([203, 0, 113, 1]);
        let flows = NAT_PORTS + 1;
        for chunk in (0..flows).collect::<Vec<_>>().chunks(256) {
            let batch: Batch = chunk
                .iter()
                .map(|&i| {
                    Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, 1], 1024 + i as u16, 80, b"")
                })
                .collect();
            assert_eq!(nat.process(batch, &mut ctx())[0].len(), chunk.len());
        }
        assert_eq!(nat.table_size(), NAT_PORTS);
        // The flow past the pool took the first port handed out, so the
        // first flow's translation is gone and its return traffic stays
        // untranslated.
        assert_eq!(nat.by_port[&10_000].src_port, 1024 + NAT_PORTS as u16);
        assert!(nat.by_port.values().all(|t| t.src_port != 1024));
    }

    #[test]
    fn nat_reuses_mapping_per_flow() {
        let mut nat = Nat::new([203, 0, 113, 1]);
        let a = pkt(b"1");
        let b = pkt(b"2");
        let out1 = nat.process(one(a), &mut ctx());
        let out2 = nat.process(one(b), &mut ctx());
        assert_eq!(
            out1[0].get(0).unwrap().udp().unwrap().src_port,
            out2[0].get(0).unwrap().udp().unwrap().src_port
        );
        assert_eq!(nat.table_size(), 1);
    }

    #[test]
    fn load_balancer_is_flow_sticky_and_total_preserving() {
        let mut lb = LoadBalancer::new("lb", 4);
        let batch: Batch = (0..32)
            .map(|i| {
                Packet::ipv4_udp(
                    [10, 0, 0, (i % 8) as u8 + 1],
                    [172, 16, 0, 1],
                    1000 + i,
                    80,
                    b"",
                )
            })
            .collect();
        let out = lb.process(batch, &mut ctx());
        assert_eq!(out.iter().map(Batch::len).sum::<usize>(), 32);
        // Both directions of a flow land on the same backend.
        let fwd = Packet::ipv4_tcp([1, 1, 1, 1], [2, 2, 2, 2], 50, 80, b"", 0);
        let rev = Packet::ipv4_tcp([2, 2, 2, 2], [1, 1, 1, 1], 80, 50, b"", 0);
        let port_of = |p: Packet, lb: &mut LoadBalancer| {
            let out = lb.process(one(p), &mut ctx());
            out.iter().position(|b| !b.is_empty()).unwrap()
        };
        assert_eq!(port_of(fwd, &mut lb), port_of(rev, &mut lb));
    }

    #[test]
    fn probe_accounts_flows() {
        let mut probe = Probe::new();
        let mut a = pkt(b"a");
        a.meta.flow_hash = 1;
        let mut b = pkt(b"b");
        b.meta.flow_hash = 2;
        let mut c = pkt(b"c");
        c.meta.flow_hash = 1;
        probe.process([a, b, c].into_iter().collect(), &mut ctx());
        assert_eq!(probe.flow_count(), 2);
        assert_eq!(probe.total_packets(), 3);
    }

    #[test]
    fn proxy_rewrites_in_place() {
        let mut proxy = Proxy::new(&b"Host: internal.example"[..], &b"Host: edge.example"[..]);
        let p = pkt(b"GET / HTTP/1.1\r\nHost: internal.example\r\n");
        let len_before = p.len();
        let out = proxy.process(one(p), &mut ctx());
        let q = out[0].get(0).unwrap();
        assert_eq!(q.len(), len_before); // no resize
        let body = q.l4_payload().unwrap();
        assert!(body.windows(18).any(|w| w == b"Host: edge.example"));
        assert_eq!(proxy.rewrites(), 1);
    }

    #[test]
    fn wan_optimizer_dedups_and_suppresses() {
        let mut wan = WanOptimizer::new(1024, 3);
        let payload = vec![0x42u8; 64];
        let mk = || pkt(&payload);
        // First: passes unchanged.
        let out = wan.process(one(mk()), &mut ctx());
        assert_eq!(out[0].get(0).unwrap().l4_payload().unwrap(), &payload[..]);
        // Second & third: replaced by token.
        let out = wan.process(one(mk()), &mut ctx());
        assert_eq!(out[0].get(0).unwrap().l4_payload().unwrap().len(), 12);
        let out = wan.process(one(mk()), &mut ctx());
        assert_eq!(out[0].len(), 1);
        // Fourth: suppressed.
        let out = wan.process(one(mk()), &mut ctx());
        assert!(out[0].is_empty());
        assert_eq!(wan.dedup_hits(), 3);
    }

    #[test]
    fn wan_optimizer_evicts_instead_of_flushing() {
        // A tiny cache under pressure from many distinct payloads must
        // keep admitting new fingerprints (bounded eviction), where the
        // old implementation flushed the whole window at capacity.
        let mut wan = WanOptimizer::new(4, 3);
        for i in 0u8..32 {
            let payload = vec![i; 64];
            let out = wan.process(one(pkt(&payload)), &mut ctx());
            // Every first occurrence passes through unchanged.
            assert_eq!(out[0].get(0).unwrap().l4_payload().unwrap(), &payload[..]);
        }
        // A payload repeated back-to-back still dedups under pressure:
        // its fingerprint was just admitted, so the second copy tokens.
        let payload = vec![0xEEu8; 64];
        let out = wan.process(one(pkt(&payload)), &mut ctx());
        assert_eq!(out[0].get(0).unwrap().l4_payload().unwrap(), &payload[..]);
        let out = wan.process(one(pkt(&payload)), &mut ctx());
        assert_eq!(out[0].get(0).unwrap().l4_payload().unwrap().len(), 12);
        assert_eq!(wan.dedup_hits(), 1);
    }

    #[test]
    fn table2_action_profiles() {
        // The element-level action profiles must reproduce the paper's
        // Table II rows.
        let probe = Probe::new();
        assert_eq!(probe.actions(), ElementActions::read_header());

        let acl = Arc::new(AclTable::new(vec![], Action::Allow));
        let fw = FirewallFilter::new(acl, false);
        assert_eq!(fw.actions(), ElementActions::read_header());

        let nat = Nat::new([1, 1, 1, 1]);
        assert!(nat.actions().writes_header && !nat.actions().writes_payload);
        assert!(!nat.actions().may_drop);

        let lb = LoadBalancer::new("lb", 2);
        assert_eq!(lb.actions(), ElementActions::read_header());

        let ids = IdsMatch::new(
            Arc::new(AhoCorasick::new(["X"])),
            Arc::new(vec![]),
            IdsMode::Drop,
            0,
        );
        let a = ids.actions();
        assert!(a.reads_header && a.reads_payload && a.may_drop);
        assert!(!a.writes_header && !a.writes_payload);

        let proxy = Proxy::new(&b"a"[..], &b"b"[..]);
        let a = proxy.actions();
        assert!(a.reads_payload && a.writes_payload && !a.writes_header && !a.resizes);

        let wan = WanOptimizer::new(16, 1);
        let a = wan.actions();
        assert!(a.writes_header && a.writes_payload && a.resizes && a.may_drop);
    }

    // -----------------------------------------------------------------
    // SoA header-lane differential tests: every lane-enabled element must
    // produce bit-identical output (and identical state) to the
    // per-packet path on mixed v4/v6/garbage traffic.
    // -----------------------------------------------------------------

    fn lanes_ctx() -> RunCtx {
        RunCtx {
            lanes: true,
            ..RunCtx::default()
        }
    }

    /// Mixed traffic: v4 UDP (varied tuples), v4 TCP, v6 UDP, raw junk.
    fn mixed_traffic() -> Batch {
        let mut b = Batch::new();
        for i in 0..8u8 {
            b.push(Packet::ipv4_udp(
                [10, 0, i, 1],
                [172, 16, 0, 9 + i],
                4000 + u16::from(i),
                80,
                b"lane",
            ));
        }
        b.push(Packet::ipv4_tcp(
            [10, 1, 2, 3],
            [172, 16, 5, 5],
            5555,
            443,
            b"tcp payload",
            0x18,
        ));
        b.push(Packet::ipv6_udp(
            [0x20, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            [0x20, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
            6666,
            53,
            b"six",
        ));
        b.push(Packet::from_bytes(vec![0xEE; 24]));
        b
    }

    #[test]
    fn ip_lookup_lanes_match_per_packet() {
        let routes = vec![RouteV4 {
            prefix: u32::from_be_bytes([172, 16, 0, 0]),
            len: 12,
            next_hop: 7,
        }];
        let table = Arc::new(Dir24_8::from_routes(&routes, 16));
        let mut scalar = IpLookup::new(Arc::clone(&table), 1);
        let mut lanes = IpLookup::new(table, 1);
        let out_s = scalar.process(mixed_traffic(), &mut ctx());
        let out_l = lanes.process(mixed_traffic(), &mut lanes_ctx());
        assert_eq!(out_s, out_l);
        // v6 + junk are dropped, all v4 routed.
        assert_eq!(out_l[0].len(), 9);
    }

    #[test]
    fn firewall_lanes_match_per_packet() {
        let rules = synth::generate(64, 7);
        let acl = Arc::new(AclTable::new(rules, Action::Allow));
        let mut scalar = FirewallFilter::new(Arc::clone(&acl), true);
        let mut lanes = FirewallFilter::new(acl, true);
        let out_s = scalar.process(mixed_traffic(), &mut ctx());
        let out_l = lanes.process(mixed_traffic(), &mut lanes_ctx());
        assert_eq!(out_s, out_l);
        assert_eq!(scalar.denied(), lanes.denied());
        // Tuple-less junk is always denied; the v6 UDP packet has a
        // valid tuple and goes through the fallback classifier.
        assert!(lanes.denied() >= 1);
    }

    #[test]
    fn load_balancer_lanes_match_per_packet() {
        let mut scalar = LoadBalancer::new("lb", 5);
        let mut lanes = LoadBalancer::new("lb", 5);
        let out_s = scalar.process(mixed_traffic(), &mut ctx());
        let out_l = lanes.process(mixed_traffic(), &mut lanes_ctx());
        assert_eq!(out_s, out_l);
        let spread = out_l.iter().filter(|b| !b.is_empty()).count();
        assert!(spread >= 2, "hashes should spread across backends");
    }

    #[test]
    fn nat_lanes_match_per_packet() {
        let mut scalar = Nat::new([203, 0, 113, 1]);
        let mut lanes = Nat::new([203, 0, 113, 1]);
        let out_s = scalar.process(mixed_traffic(), &mut ctx());
        let out_l = lanes.process(mixed_traffic(), &mut lanes_ctx());
        assert_eq!(out_s, out_l);
        assert_eq!(scalar.state_bytes(), lanes.state_bytes());
        // Return traffic translates back identically too.
        let ret = |b: &Vec<Batch>| -> Batch {
            b[0].iter()
                .filter_map(|p| {
                    let t = p.five_tuple().ok()?;
                    let IpAddr::V4(src) = t.src else { return None };
                    let IpAddr::V4(dst) = t.dst else { return None };
                    Some(Packet::ipv4_udp(
                        dst.octets(),
                        src.octets(),
                        t.dst_port,
                        t.src_port,
                        b"back",
                    ))
                })
                .collect()
        };
        let back_s = scalar.process(ret(&out_s), &mut ctx());
        let back_l = lanes.process(ret(&out_l), &mut lanes_ctx());
        assert_eq!(back_s, back_l);
        // Checksums survive both directions of lane-driven rewriting.
        for p in back_l[0].iter() {
            if let Ok(ip) = p.ipv4() {
                let mut copy = ip;
                assert_eq!(copy.compute_checksum(), ip.checksum);
            }
        }
    }

    mod lane_proptests {
        use super::*;
        use nfc_click::{ElementGraph, FlowTraces};
        use proptest::prelude::*;

        /// Random traffic mixing v4 UDP/TCP, v6 UDP and junk, with
        /// flow-key memos pre-warmed on a random subset (mid-batch CoW
        /// interactions come for free: the scalar and lane runs each
        /// start from CoW clones of the same buffers).
        fn build_batch(rows: &[(u8, u8, u8, u16, u16)], memo_seed: u64) -> Batch {
            let mut b: Batch = rows
                .iter()
                .map(|&(k, a, c, sp, dp)| match k % 4 {
                    0 => Packet::ipv4_udp([10, a, c, 1], [172, 16, a, c], sp, dp, b"u"),
                    1 => Packet::ipv4_tcp([10, a, 1, c], [192, 168, a, c], sp, dp, b"t", 0x10),
                    2 => {
                        let mut src = [0u8; 16];
                        let mut dst = [0u8; 16];
                        src[0] = 0x20;
                        src[15] = a;
                        dst[0] = 0x20;
                        dst[15] = c;
                        Packet::ipv6_udp(src, dst, sp, dp, b"s")
                    }
                    _ => Packet::from_bytes(vec![a; 4 + (c as usize % 40)]),
                })
                .collect();
            for (i, p) in b.iter_mut().enumerate() {
                if memo_seed >> (i % 64) & 1 == 1 {
                    let _ = p.flow_key();
                }
            }
            b
        }

        /// Traffic for the verdict properties: UDP / TCP / ICMP over
        /// IPv4, IPv6 UDP, a non-IP frame, and UDP frames cut inside the
        /// L4 and inside the L3 header — drawn from a small address and
        /// port space so one batch repeats flows.
        fn verdict_batch(rows: &[(u8, u8, u8, u16, u16)]) -> Batch {
            rows.iter()
                .enumerate()
                .map(|(i, &(kind, a, c, sp, dp))| {
                    let (a, c) = (a % 8, c % 2);
                    let (sp, dp) = (1000 + sp % 2, if dp % 2 == 0 { 80 } else { 40000 });
                    let udp = Packet::ipv4_udp([10, a, c, 1], [172, 16 + a, a, c], sp, dp, b"udp!");
                    let mut p = match kind {
                        0 | 1 => udp,
                        2 => Packet::ipv4_tcp([10, a, 1, c], [192, 168, a, c], sp, dp, b"t", 0x10),
                        3 => {
                            let mut icmp =
                                Packet::ipv4_udp([10, a, c, 1], [8, 8, a, c], sp, dp, b"i");
                            let mut ip = icmp.ipv4().expect("built as IPv4");
                            ip.protocol = 1;
                            ip.compute_checksum();
                            icmp.set_ipv4(&ip);
                            icmp
                        }
                        4 => {
                            let (mut src, mut dst) = ([0u8; 16], [0u8; 16]);
                            (src[0], src[15], dst[0], dst[15]) = (0x20, a, 0x20, c);
                            Packet::ipv6_udp(src, dst, sp, dp, b"s")
                        }
                        5 => Packet::from_bytes(vec![a; 60]),
                        6 => Packet::from_bytes(udp.data()[..38].to_vec()),
                        _ => Packet::from_bytes(udp.data()[..20 + usize::from(a)].to_vec()),
                    };
                    p.meta.seq = i as u64;
                    p.meta.flow_hash = u32::from(a) * 31 + u32::from(c);
                    p
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every lane-enabled header-only element produces output
            /// (and state) bit-identical to its per-packet path on
            /// arbitrary mixed traffic.
            #[test]
            fn all_header_elements_lanes_match_scalar(
                rows in collection::vec(
                    (0u8..4, any::<u8>(), any::<u8>(), 1u16..u16::MAX, 1u16..u16::MAX),
                    0..32,
                ),
                memo_seed in any::<u64>(),
                acl_seed in any::<u64>(),
            ) {
                let batch = build_batch(&rows, memo_seed);

                let rules = synth::generate(32, acl_seed);
                let acl = Arc::new(AclTable::new(rules, Action::Allow));
                let mut fw_s = FirewallFilter::new(Arc::clone(&acl), true);
                let mut fw_l = FirewallFilter::new(acl, true);
                prop_assert_eq!(
                    fw_s.process(batch.clone(), &mut ctx()),
                    fw_l.process(batch.clone(), &mut lanes_ctx())
                );
                prop_assert_eq!(fw_s.denied(), fw_l.denied());

                let routes = vec![RouteV4 {
                    prefix: u32::from_be_bytes([10, 0, 0, 0]),
                    len: 8,
                    next_hop: 3,
                }];
                let table = Arc::new(Dir24_8::from_routes(&routes, 16));
                let mut rt_s = IpLookup::new(Arc::clone(&table), 1);
                let mut rt_l = IpLookup::new(table, 1);
                prop_assert_eq!(
                    rt_s.process(batch.clone(), &mut ctx()),
                    rt_l.process(batch.clone(), &mut lanes_ctx())
                );

                let mut lb_s = LoadBalancer::new("lb", 7);
                let mut lb_l = LoadBalancer::new("lb", 7);
                prop_assert_eq!(
                    lb_s.process(batch.clone(), &mut ctx()),
                    lb_l.process(batch.clone(), &mut lanes_ctx())
                );

                let mut nat_s = Nat::new([203, 0, 113, 7]);
                let mut nat_l = Nat::new([203, 0, 113, 7]);
                prop_assert_eq!(
                    nat_s.process(batch.clone(), &mut ctx()),
                    nat_l.process(batch, &mut lanes_ctx())
                );
                prop_assert_eq!(nat_s.state_bytes(), nat_l.state_bytes());
            }

            /// The ACL index and the wide-word (SWAR) kernels inside the
            /// lane sweeps must be bit-identical to the per-packet
            /// reference on arbitrary batches: ragged (non-multiple-of-8)
            /// sizes, invalid rows interleaved (v6 / junk outside the
            /// masks), memoized +
            /// CoW-shared buffers, and mid-batch CoW mutations between
            /// stages. Output batches, element state and write-back
            /// scatters all compared via full batch equality.
            #[test]
            fn simd_lane_kernels_match_scalar_lanes(
                rows in collection::vec(
                    (0u8..4, any::<u8>(), any::<u8>(), 1u16..u16::MAX, 1u16..u16::MAX),
                    0..40,
                ),
                memo_seed in any::<u64>(),
                mutate_seed in any::<u64>(),
                acl_seed in any::<u64>(),
            ) {
                let mut batch = build_batch(&rows, memo_seed);
                // Mid-batch CoW mutation: rewrite a few rows through the
                // per-packet setters after memoization, so the two runs
                // start from partially-diverged shared buffers.
                let shadow = batch.clone();
                for (i, p) in batch.iter_mut().enumerate() {
                    if mutate_seed >> (i % 64) & 1 == 1 {
                        if let Ok(mut ip) = p.ipv4() {
                            ip.ttl = ip.ttl.wrapping_add(1) | 1;
                            ip.compute_checksum();
                            p.set_ipv4(&ip);
                        }
                    }
                }
                drop(shadow);

                // 160 rules => both UDP/TCP partitions multi-chunk.
                let rules = synth::generate(160, acl_seed);
                let acl = Arc::new(AclTable::new(rules, Action::Allow));
                let mut fw_s = FirewallFilter::new(Arc::clone(&acl), true);
                let mut fw_l = FirewallFilter::new(acl, true);
                let fw_out = fw_l.process(batch.clone(), &mut lanes_ctx());
                prop_assert_eq!(&fw_out, &fw_s.process(batch.clone(), &mut ctx()));
                prop_assert_eq!(fw_l.denied(), fw_s.denied());

                let routes = vec![
                    RouteV4 {
                        prefix: u32::from_be_bytes([10, 0, 0, 0]),
                        len: 8,
                        next_hop: 3,
                    },
                    RouteV4 {
                        prefix: u32::from_be_bytes([192, 168, 0, 0]),
                        len: 16,
                        next_hop: 9,
                    },
                ];
                let table = Arc::new(Dir24_8::from_routes(&routes, 16));
                let mut rt_s = IpLookup::new(Arc::clone(&table), 1);
                let mut rt_l = IpLookup::new(table, 1);
                prop_assert_eq!(
                    rt_l.process(batch.clone(), &mut lanes_ctx()),
                    rt_s.process(batch.clone(), &mut ctx())
                );

                // Chained: the firewall's surviving batch feeds the
                // router, exercising the wide sweeps over an already
                // retained/mutated batch.
                if let Some(fwd) = fw_out.into_iter().next() {
                    let mut rt_l2 = IpLookup::new(
                        Arc::new(Dir24_8::from_routes(&[RouteV4 {
                            prefix: u32::from_be_bytes([10, 0, 0, 0]),
                            len: 8,
                            next_hop: 1,
                        }], 16)),
                        1,
                    );
                    let mut rt_s2 = rt_l2.clone();
                    prop_assert_eq!(
                        rt_l2.process(fwd.clone(), &mut lanes_ctx()),
                        rt_s2.process(fwd, &mut ctx())
                    );
                }
            }

            /// Verdict columns are the scalar verdicts: per element,
            /// `flow_verdicts(rows)[k]` ≡ `flow_verdict(batch[rows[k]])`,
            /// and per graph — the catalog firewall (enforcing or not), a
            /// bare `IpLookup`, a load balancer — `trace_flows(rows)[k]`
            /// ≡ `trace_flow(batch[rows[k]])`, for arbitrary row subsets
            /// of traffic that repeats flows and includes everything the
            /// lanes do not cover.
            #[test]
            fn verdict_columns_match_scalar_verdicts(
                rows in collection::vec(
                    (0u8..8, any::<u8>(), any::<u8>(), any::<u16>(), any::<u16>()),
                    0..48,
                ),
                pick in any::<u64>(),
                acl_seed in any::<u64>(),
                enforce in any::<bool>(),
                backends in 1usize..9,
            ) {
                let batch = verdict_batch(&rows);
                let mut sub: Vec<u32> = (0..batch.len() as u32)
                    .filter(|r| pick >> (r % 64) & 1 == 1)
                    .collect();
                let by = pick as usize % sub.len().max(1);
                sub.rotate_left(by);
                let all: Vec<u32> = (0..batch.len() as u32).collect();

                // One deny rule that bites this traffic ahead of rules
                // that mostly do not.
                let mut rules = vec![Rule {
                    dst: (u32::from_be_bytes([172, 16, 0, 0]), 14),
                    dport: (0, 32767),
                    ..Rule::any(Action::Deny)
                }];
                rules.extend(synth::generate(96, acl_seed));
                // 0.0.0.0/1 also covers the zeroed lanes of rows the
                // IPv4 mask excludes, which must stay unroutable.
                let routes = [
                    ([0, 0, 0, 0], 1, 1),
                    ([10, 0, 0, 0], 8, 3),
                    ([172, 16, 0, 0], 12, 5),
                    ([192, 168, 0, 0], 16, 9),
                ]
                .map(|(prefix, len, next_hop)| RouteV4 {
                    prefix: u32::from_be_bytes(prefix),
                    len,
                    next_hop,
                });
                let lookup = IpLookup::new(Arc::new(Dir24_8::from_routes(&routes, 16)), 1);
                let mut bare_lookup = ElementGraph::new();
                bare_lookup.add(lookup);
                let graphs = [
                    crate::Nf::firewall_with("fw", rules, enforce).into_graph(),
                    bare_lookup,
                    crate::Nf::load_balancer("lb", backends).into_graph(),
                ];
                let lanes = batch.header_lanes();
                let mut traces = FlowTraces::default();
                for graph in graphs {
                    let entry = graph.entries()[0];
                    let run = graph.compile().expect("verdict-capable graph");
                    prop_assert!(run.flow_cacheable());
                    for rows in [&all, &sub] {
                        let rec = &mut nfc_telemetry::Recorder::disabled();
                        prop_assert!(run.trace_flows(entry, &batch, &lanes, rows, &mut traces, rec));
                        prop_assert_eq!(traces.len(), rows.len());
                        for (k, &row) in rows.iter().enumerate() {
                            let scalar = run.trace_flow(entry, batch.get(row as usize).unwrap());
                            prop_assert_eq!(Some(&**traces.path(k)), scalar.as_ref(), "row {}", row);
                        }
                        for id in run.graph().node_ids() {
                            let el = run.graph().element(id);
                            let mut column = Vec::new();
                            prop_assert!(el.flow_verdicts(&batch, &lanes, rows, &mut column));
                            let scalar: Vec<_> = rows
                                .iter()
                                .map(|&r| el.flow_verdict(batch.get(r as usize).unwrap()).unwrap())
                                .collect();
                            prop_assert_eq!(column, scalar, "{}", el.name());
                        }
                    }
                }
            }
        }
    }
}
