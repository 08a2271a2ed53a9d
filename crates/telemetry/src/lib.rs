//! `nfc-telemetry`: zero-overhead tracing, histograms, and trace export
//! for the NFCompass runtime.
//!
//! The crate provides three layers:
//!
//! 1. **Per-worker event rings** ([`Recorder`]) — single-owner bounded
//!    buffers of typed [`Event`]s (stage/element spans, batch
//!    split/merge, flow-cache hit/miss/invalidation, GPU kernel
//!    launch/teardown, SM occupancy, partition decisions) carrying both
//!    wall-clock and simulated-time stamps. Ownership replaces locking:
//!    each worker records into its own ring and rings are merged in
//!    deterministic input order after the parallel section joins.
//! 2. **Histograms and counters** in the in-memory [`MemorySink`] —
//!    [`QuantileSketch`]es (p50/p95/p99/p999 within [`SKETCH_ALPHA`] =
//!    1% relative error, the one quantile structure in the workspace)
//!    and monotonic counters.
//! 3. **Exporters** — Chrome-trace-format JSONL (loadable in
//!    `chrome://tracing` / Perfetto) and a Prometheus-style text
//!    snapshot, plus the `nfc-trace` CLI in `nfc-bench`.
//! 4. **Attribution analyses** ([`attr`]) — pure functions over an
//!    event stream: per-batch latency decomposition into
//!    compute/transfer/queue/drain/merge-wait buckets (joined via the
//!    [`Event::batch`] lineage tag), per-epoch critical-path
//!    extraction, folded flame stacks, and trace-driven re-fitting of
//!    the calibration constants.
//!
//! Telemetry is **off by default**. It is enabled per run via
//! `Deployment::with_telemetry` or the [`TELEMETRY_ENV`] environment
//! variable, and the disabled path costs one branch per instrumentation
//! point (no clock reads, no allocation). Recording never perturbs
//! determinism: egress bytes, `GraphStats`, and simulated timings are
//! bit-identical with telemetry on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod event;
pub mod export;
pub mod flow;
pub mod health;
pub mod ring;
pub mod sink;
pub mod sketch;

pub use attr::{
    attribution, batch_rows, calibrate, critical_paths, folded_stacks, folded_stacks_wall, whatif,
    AttributionReport, BatchRow, Buckets, CalibAnchors, CalibEstimate, EpochPath, PathSegment,
    WhatIfEpoch, WhatIfReport,
};
pub use event::{
    wall_now_ns, Event, EventKind, SimStamp, DUMP_REASONS, FLOW_POINTS, PARTITION_ALGOS,
    SESSION_STATES, SLO_OBJECTIVES,
};
pub use flow::{
    FlightRecorder, FlowSampler, DEFAULT_FLIGHT_CAPACITY, DEFAULT_FLIGHT_STEM, FLIGHT_ENV,
    FLOW_TRACE_ENV,
};
pub use health::{DriftVerdict, DriftWatchdog, HealthState, SloSpec, SloVerdict, SLO_ENV};
pub use ring::{Recorder, DEFAULT_RING_CAPACITY};
pub use sink::{HistogramSummary, MemorySink, Telemetry, TelemetryHandle, TelemetrySummary};
pub use sketch::{QuantileSketch, SKETCH_ALPHA};

/// Environment variable controlling the default telemetry mode (read by
/// [`TelemetryMode::auto`]): unset or an off-word (empty, `0`, `off`,
/// `false`, `no`) → off; an on-word (`1`, `on`, `true`, `yes`) or
/// `mem`/`memory` → in-memory aggregation only; any
/// other value → export path (Chrome trace, or a Prometheus snapshot
/// when it ends in `.prom`).
pub const TELEMETRY_ENV: &str = "NFC_TELEMETRY";

/// What a telemetry session should collect and where it should go.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No collection; every handle and recorder is a no-op (default).
    #[default]
    Off,
    /// Collect events/counters/histograms in memory and attach a
    /// `TelemetrySummary` to the run outcome, but write no files.
    Memory,
    /// Like [`TelemetryMode::Memory`], plus export on finish: a
    /// Prometheus text snapshot when `path` ends in `.prom`, otherwise
    /// a Chrome-trace JSONL. Concurrent runs uniquify the path
    /// (`stem.N.ext`).
    Export {
        /// Destination file path.
        path: String,
    },
}

impl TelemetryMode {
    /// Resolves the mode from [`TELEMETRY_ENV`].
    pub fn auto() -> Self {
        match std::env::var(TELEMETRY_ENV) {
            Ok(v) => TelemetryMode::parse(&v),
            Err(_) => TelemetryMode::Off,
        }
    }

    /// Parses an env-style value (see [`TELEMETRY_ENV`]).
    pub fn parse(value: &str) -> Self {
        let v = value.trim();
        match switch_word(v) {
            Some(false) => TelemetryMode::Off,
            Some(true) => TelemetryMode::Memory,
            None if v.eq_ignore_ascii_case("mem") || v.eq_ignore_ascii_case("memory") => {
                TelemetryMode::Memory
            }
            None => TelemetryMode::Export {
                path: v.to_string(),
            },
        }
    }

    /// True unless the mode is [`TelemetryMode::Off`].
    pub fn is_on(&self) -> bool {
        !matches!(self, TelemetryMode::Off)
    }
}

/// The on/off vocabulary shared by every `NFC_*` switch: empty, `0`,
/// `off`, `false` and `no` are `Some(false)`; `1`, `on`, `true` and `yes`
/// are `Some(true)`, ignoring case and surrounding whitespace; anything
/// else is `None`, for the caller to read as a value of its own.
pub(crate) fn switch_word(value: &str) -> Option<bool> {
    const OFF: [&str; 5] = ["", "0", "off", "false", "no"];
    const ON: [&str; 4] = ["1", "on", "true", "yes"];
    let v = value.trim();
    if OFF.iter().any(|w| v.eq_ignore_ascii_case(w)) {
        Some(false)
    } else if ON.iter().any(|w| v.eq_ignore_ascii_case(w)) {
        Some(true)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_switch_word_means_the_same_to_every_parser() {
        for off in ["", " ", "0", "off", "OFF", "false", "False", "no", " NO "] {
            assert_eq!(switch_word(off), Some(false), "{off:?}");
            assert_eq!(TelemetryMode::parse(off), TelemetryMode::Off, "{off:?}");
            assert_eq!(flow::parse_rate(off), 0, "{off:?}");
            assert_eq!(SloSpec::parse(off), None, "{off:?}");
        }
        for on in ["1", "on", "ON", "true", "True", "yes", " YES "] {
            assert_eq!(switch_word(on), Some(true), "{on:?}");
            assert_eq!(TelemetryMode::parse(on), TelemetryMode::Memory, "{on:?}");
            assert_eq!(flow::parse_rate(on), 1, "{on:?}");
            // An SLO needs at least one `key=value`: a bare on-word arms
            // nothing.
            assert_eq!(SloSpec::parse(on), None, "{on:?}");
        }
        for value in ["mem", "256", "p99_ns=1000", "trace.json"] {
            assert_eq!(switch_word(value), None, "{value:?}");
        }
        assert_eq!(flow::parse_rate("256"), 256);
        assert!(SloSpec::parse("p99_ns=1000").is_some());
    }

    #[test]
    fn mode_parsing_matches_env_conventions() {
        assert_eq!(TelemetryMode::parse(""), TelemetryMode::Off);
        assert_eq!(TelemetryMode::parse("0"), TelemetryMode::Off);
        assert_eq!(TelemetryMode::parse("OFF"), TelemetryMode::Off);
        assert_eq!(TelemetryMode::parse("false"), TelemetryMode::Off);
        assert_eq!(TelemetryMode::parse("1"), TelemetryMode::Memory);
        assert_eq!(TelemetryMode::parse("mem"), TelemetryMode::Memory);
        assert_eq!(
            TelemetryMode::parse("trace.json"),
            TelemetryMode::Export {
                path: "trace.json".into()
            }
        );
        assert_eq!(
            TelemetryMode::parse(" snap.prom "),
            TelemetryMode::Export {
                path: "snap.prom".into()
            }
        );
        assert!(!TelemetryMode::Off.is_on());
        assert!(TelemetryMode::Memory.is_on());
    }
}
