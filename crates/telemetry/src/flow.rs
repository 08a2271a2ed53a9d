//! Flow forensics plane: deterministic per-flow sampling and the
//! breach-triggered flight recorder.
//!
//! The [`FlowSampler`] selects flows by a pure function of the RSS
//! hash (`hash % rate == 0`), so the same flows are sampled on every
//! server of a cluster, on every run, and on both sides of an on/off
//! differential — no per-packet state, no randomness. Sampled flows
//! get a [`FlowPoint`](crate::EventKind::FlowPoint) instant at every
//! pipeline touchpoint (ingress, lane gather, cache hit/miss, stage,
//! kernel, shard routing, migration, merge, egress); `nfc-trace flow`
//! stitches the instants back into one causal timeline.
//!
//! The [`FlightRecorder`] keeps a bounded ring of copies of the most
//! recent flow-tagged and health events. When the health plane raises
//! `SloBurn` or `ModelDrift`, the ring is dumped to a postmortem
//! Chrome-trace file, so a breach arrives with its evidence attached
//! even when the session only keeps the trace in memory.

use crate::event::Event;
use crate::export;
use std::collections::VecDeque;

/// Environment variable holding the flow-trace sampling rate: `0`/
/// unset disarms, `N` samples flows whose RSS hash satisfies
/// `hash % N == 0` (so `1` traces every flow, `256` roughly 1/256 of
/// flows).
pub const FLOW_TRACE_ENV: &str = "NFC_FLOW_TRACE";

/// Environment variable naming the flight-recorder dump path stem;
/// dumps are written as `<stem>.<reason>.json` (uniquified when the
/// file already exists). Defaults to [`DEFAULT_FLIGHT_STEM`].
pub const FLIGHT_ENV: &str = "NFC_FLIGHT";

/// Default flight-recorder dump path stem.
pub const DEFAULT_FLIGHT_STEM: &str = "nfc_flight";

/// Default number of events retained by a [`FlightRecorder`] ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Deterministic hash-mod flow sampler.
///
/// Sampling is a pure function of the flow's RSS hash, so the decision
/// is identical across workers, servers, runs, and the armed/disarmed
/// differential — the sampled set is a property of the traffic, not of
/// the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowSampler {
    rate: u32,
}

impl FlowSampler {
    /// A sampler tracing flows whose hash satisfies `hash % rate == 0`;
    /// `rate == 0` disarms the sampler entirely.
    pub fn new(rate: u32) -> Self {
        FlowSampler { rate }
    }

    /// The disarmed sampler (samples nothing, costs one branch).
    pub fn disarmed() -> Self {
        FlowSampler { rate: 0 }
    }

    /// Resolves the sampling rate from [`FLOW_TRACE_ENV`]: unset or an
    /// off-word (empty, `0`, `off`, `false`, `no`) disarms; an on-word
    /// (`1`, `on`, `true`, `yes`) traces every flow; a number `N` samples
    /// `hash % N == 0`.
    pub fn from_env() -> Self {
        match std::env::var(FLOW_TRACE_ENV) {
            Ok(v) => FlowSampler::new(parse_rate(&v)),
            Err(_) => FlowSampler::disarmed(),
        }
    }

    /// The configured sampling rate (`0` = disarmed).
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// Whether any flow can be sampled.
    #[inline]
    pub fn armed(&self) -> bool {
        self.rate != 0
    }

    /// Whether the flow with this RSS hash is traced.
    #[inline]
    pub fn sampled(&self, hash: u32) -> bool {
        self.rate != 0 && hash.is_multiple_of(self.rate)
    }
}

/// Parses a [`FLOW_TRACE_ENV`]-style value into a sampling rate.
pub fn parse_rate(value: &str) -> u32 {
    match crate::switch_word(value) {
        Some(on) => u32::from(on),
        None => value.trim().parse().unwrap_or(0),
    }
}

/// Bounded ring of recent flow-tagged and health events, dumped to a
/// postmortem trace file on an SLO breach or a model-drift raise.
///
/// The ring holds *copies* of events already recorded for the main
/// trace, so a dump never steals evidence from it; it only guarantees
/// the evidence survives when the trace is not exported or the main
/// ring has already overwritten it.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<Event>,
    capacity: usize,
    stem: String,
    /// Total events ever observed (`seen - ring.len()` were evicted).
    seen: u64,
    /// Reasons already dumped; a flood of identical breaches produces
    /// one postmortem, not one file per offending epoch.
    dumped_reasons: Vec<&'static str>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events, dumping to
    /// `<stem>.<reason>.json`.
    pub fn new(capacity: usize, stem: impl Into<String>) -> Self {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            stem: stem.into(),
            seen: 0,
            dumped_reasons: Vec::new(),
        }
    }

    /// A recorder with the default capacity and the stem from
    /// [`FLIGHT_ENV`] (falling back to [`DEFAULT_FLIGHT_STEM`]).
    pub fn from_env() -> Self {
        let stem = std::env::var(FLIGHT_ENV)
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| DEFAULT_FLIGHT_STEM.to_string());
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY, stem)
    }

    /// Records one event copy, evicting the oldest at capacity.
    pub fn record(&mut self, ev: Event) {
        debug_assert!(
            ev.kind.in_vocabulary(),
            "label outside its vocabulary: {ev:?}"
        );
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(ev);
        self.seen += 1;
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Writes the retained ring as a Chrome-trace file named
    /// `<stem>.<reason>.json` (suffix-uniquified if that file already
    /// exists) and returns the path; `None` when the ring is empty.
    /// Repeated breaches with the same reason are collapsed into the
    /// first dump; pass a fresh reason (e.g. `manual`) to force another
    /// file.
    pub fn dump(&mut self, reason: &'static str) -> std::io::Result<Option<String>> {
        if self.ring.is_empty() || self.dumped_reasons.contains(&reason) {
            return Ok(None);
        }
        let events: Vec<Event> = self.ring.iter().cloned().collect();
        let body = export::chrome_trace(&events, self.seen - self.ring.len() as u64);
        let mut path = format!("{}.{reason}.json", self.stem);
        let mut suffix = 1u32;
        while std::path::Path::new(&path).exists() {
            path = format!("{}.{reason}.{suffix}.json", self.stem);
            suffix += 1;
        }
        std::fs::write(&path, body)?;
        self.dumped_reasons.push(reason);
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn flow_event(flow: u32, at: f64) -> Event {
        Event {
            wall_ns: 0,
            wall_dur_ns: 0,
            sim: Some(crate::SimStamp {
                start_ns: at,
                end_ns: at,
            }),
            track: 1,
            batch: 1,
            kind: EventKind::FlowPoint {
                flow,
                point: "ingress",
                server: 0,
                packets: 1,
            },
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_hash() {
        let s = FlowSampler::new(256);
        assert!(s.armed());
        for hash in [0u32, 256, 512, 0x4000_0000] {
            assert!(s.sampled(hash));
        }
        for hash in [1u32, 255, 257, 0x4000_0001] {
            assert!(!s.sampled(hash));
        }
        // Rate 1 traces everything; rate 0 nothing.
        assert!(FlowSampler::new(1).sampled(12345));
        assert!(!FlowSampler::disarmed().sampled(0));
        assert!(!FlowSampler::disarmed().armed());
    }

    #[test]
    fn rate_parsing_matches_env_conventions() {
        assert_eq!(parse_rate(""), 0);
        assert_eq!(parse_rate("0"), 0);
        assert_eq!(parse_rate("off"), 0);
        assert_eq!(parse_rate("on"), 1);
        assert_eq!(parse_rate("TRUE"), 1);
        assert_eq!(parse_rate("256"), 256);
        assert_eq!(parse_rate(" 64 "), 64);
        assert_eq!(parse_rate("garbage"), 0);
    }

    #[test]
    fn flight_ring_evicts_oldest_and_dumps_once_per_reason() {
        let dir = std::env::temp_dir().join(format!("nfc_flight_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let stem = dir.join("flight").to_string_lossy().into_owned();
        let mut fr = FlightRecorder::new(4, &stem);
        assert!(fr.is_empty());
        // Nothing retained yet: a breach produces no dump.
        assert_eq!(fr.dump("slo_burn").expect("io"), None);
        for i in 0..6 {
            fr.record(flow_event(7, i as f64 * 10.0));
        }
        assert_eq!(fr.len(), 4);

        let path = fr.dump("slo_burn").expect("io").expect("dumped");
        assert!(std::path::Path::new(&path).exists());
        let body = std::fs::read_to_string(&path).expect("readable");
        assert!(body.contains("flow_ingress"), "{body}");
        // Oldest two evicted: the retained window starts at t=20 ns.
        assert!(body.contains("\"dropped\":2"), "{body}");
        assert!(!body.contains("\"ts\":0.01,") && body.contains("\"ts\":0.02,"));
        // Same reason again: collapsed. New reason: a second file.
        assert_eq!(fr.dump("slo_burn").expect("io"), None);
        let second = fr.dump("manual").expect("io").expect("dumped");
        assert_ne!(path, second);
        assert!(std::path::Path::new(&second).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
