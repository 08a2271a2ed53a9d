//! Live SLO evaluation and cost-model drift detection.
//!
//! [`SloSpec`] declares the service-level objectives for a deployment
//! (end-to-end p99 latency ceiling, chain throughput floor, batch drop
//! budget) plus the evaluation cadence. It parses from the `NFC_SLO`
//! environment variable so existing binaries (`figures`, examples)
//! grow a health plane without code changes.
//!
//! [`HealthState`] implements multi-window burn-rate detection, the
//! standard SRE alerting construct: each epoch contributes a "bad
//! fraction" per objective (share of batches over the latency ceiling,
//! epochs under the throughput floor, dropped-batch share), and the
//! burn rate over a window is `mean(bad fraction) / error budget`. An
//! objective is **breached** only when both a fast window (reacts in
//! a few epochs) and a slow window (suppresses blips) burn at or above
//! the threshold — the fast window gives low detection latency, the
//! slow window gives low false-positive rate.
//!
//! [`DriftWatchdog`] closes the loop on the cost model itself: every
//! attributed batch compares the model-predicted busy time
//! (compute + transfer, i.e. exactly the span durations the calibrated
//! constants generate) against the observed end-to-end latency. The
//! per-epoch median of the `observed / predicted` ratio is a robust
//! residual; when it exceeds the configured ceiling for
//! `hysteresis` consecutive epochs, a `ModelDrift` signal is raised so
//! the controller can re-partition or re-calibrate.
//!
//! Everything here is engine-independent plain state: the runtime owns
//! the instances, feeds them deterministic simulated-time quantities,
//! and emits `health`-category telemetry instants from the verdicts.

use crate::sketch::QuantileSketch;
use std::collections::VecDeque;

/// Environment variable holding the SLO spec for [`SloSpec::from_env`].
pub const SLO_ENV: &str = "NFC_SLO";

/// Error budget backing the latency burn rate: a p99 objective allows
/// 1% of batches over the ceiling.
pub const LATENCY_BUDGET: f64 = 0.01;

/// Error budget backing the throughput burn rate: up to 10% of epochs
/// may dip under the floor before the budget is consumed at rate 1.
pub const THROUGHPUT_BUDGET: f64 = 0.10;

/// Service-level objectives plus evaluation cadence for one
/// deployment. Objectives left at `0` are unset and never evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// End-to-end per-batch p99 latency ceiling in nanoseconds
    /// (`0` = unset).
    pub p99_latency_ns: f64,
    /// Chain throughput floor in Gbps, measured per epoch over the
    /// simulated timeline (`0` = unset).
    pub min_throughput_gbps: f64,
    /// Fraction of batches allowed to be tail-dropped (`0` = unset;
    /// use a small value such as `1e-6` for "effectively none").
    pub drop_budget: f64,
    /// Health-evaluation epoch length in batches, in every kind of run:
    /// the health plane counts its own epochs, independent of the
    /// adaptive controller's cadence.
    pub epoch_batches: usize,
    /// Fast burn window in epochs.
    pub fast_window_epochs: usize,
    /// Slow burn window in epochs.
    pub slow_window_epochs: usize,
    /// Burn-rate threshold; both windows must burn at or above this
    /// for a breach.
    pub burn_threshold: f64,
    /// Model-drift ceiling on `median(observed/predicted) - 1`.
    pub drift_threshold: f64,
    /// Consecutive epochs over the drift ceiling before `ModelDrift`
    /// raises.
    pub drift_hysteresis_epochs: usize,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            p99_latency_ns: 0.0,
            min_throughput_gbps: 0.0,
            drop_budget: 0.0,
            epoch_batches: 16,
            fast_window_epochs: 2,
            slow_window_epochs: 8,
            burn_threshold: 1.0,
            drift_threshold: 0.5,
            drift_hysteresis_epochs: 2,
        }
    }
}

impl SloSpec {
    /// Parses a comma-separated `key=value` spec, e.g.
    /// `p99_ns=2500000,tput_gbps=10,drops=0.01,epoch=8,drift=0.5`.
    ///
    /// Keys: `p99_ns`, `tput_gbps`, `drops`, `epoch`, `fast`, `slow`,
    /// `burn`, `drift`, `drift_epochs`. Off-words (empty, `0`, `off`,
    /// `false`, `no`) yield `None`; unknown
    /// keys or unparsable values also yield `None` so a typo disables
    /// the health plane loudly (no events at all) rather than silently
    /// evaluating a half-understood spec.
    pub fn parse(raw: &str) -> Option<SloSpec> {
        if crate::switch_word(raw) == Some(false) {
            return None;
        }
        let mut spec = SloSpec::default();
        let mut any = false;
        for part in raw.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=')?;
            let v: f64 = value.trim().parse().ok()?;
            if !v.is_finite() || v < 0.0 {
                return None;
            }
            match key.trim() {
                "p99_ns" => spec.p99_latency_ns = v,
                "tput_gbps" => spec.min_throughput_gbps = v,
                "drops" => spec.drop_budget = v,
                "epoch" => spec.epoch_batches = (v as usize).max(1),
                "fast" => spec.fast_window_epochs = (v as usize).max(1),
                "slow" => spec.slow_window_epochs = (v as usize).max(1),
                "burn" => spec.burn_threshold = v,
                "drift" => spec.drift_threshold = v,
                "drift_epochs" => spec.drift_hysteresis_epochs = (v as usize).max(1),
                _ => return None,
            }
            any = true;
        }
        if !any {
            return None;
        }
        spec.slow_window_epochs = spec.slow_window_epochs.max(spec.fast_window_epochs);
        Some(spec)
    }

    /// Reads the spec from the `NFC_SLO` environment variable.
    pub fn from_env() -> Option<SloSpec> {
        std::env::var(SLO_ENV).ok().and_then(|v| SloSpec::parse(&v))
    }
}

/// One objective's burn state at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloVerdict {
    /// Objective name: `"p99_latency"`, `"throughput"`, or `"drops"`.
    pub objective: &'static str,
    /// Burn rate over the fast window (`1.0` = consuming budget
    /// exactly at the sustainable rate).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// True when both windows burn at or above the threshold.
    pub breached: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct EpochRecord {
    latency_bad: f64,
    tput_bad: f64,
    drop_bad: f64,
}

/// Multi-window burn-rate evaluator over per-epoch bad fractions.
#[derive(Debug, Clone)]
pub struct HealthState {
    spec: SloSpec,
    window: VecDeque<EpochRecord>,
    // Current-epoch accumulators.
    batches: u64,
    over_latency: u64,
    dropped: u64,
    bytes: u64,
    first_arrival_ns: f64,
    last_completed_ns: f64,
}

impl HealthState {
    /// A fresh evaluator for `spec`.
    pub fn new(spec: SloSpec) -> Self {
        HealthState {
            spec,
            window: VecDeque::new(),
            batches: 0,
            over_latency: 0,
            dropped: 0,
            bytes: 0,
            first_arrival_ns: f64::INFINITY,
            last_completed_ns: 0.0,
        }
    }

    /// The spec this evaluator runs against.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Accounts one completed batch on the simulated timeline.
    pub fn observe_batch(&mut self, e2e_ns: f64, bytes: u64, arrival_ns: f64, completed_ns: f64) {
        self.batches += 1;
        self.bytes += bytes;
        if self.spec.p99_latency_ns > 0.0 && e2e_ns > self.spec.p99_latency_ns {
            self.over_latency += 1;
        }
        self.first_arrival_ns = self.first_arrival_ns.min(arrival_ns);
        self.last_completed_ns = self.last_completed_ns.max(completed_ns);
    }

    /// Accounts one tail-dropped batch.
    pub fn observe_drop(&mut self) {
        self.dropped += 1;
    }

    /// Closes the current epoch: folds the accumulators into the burn
    /// windows and returns one verdict per configured objective
    /// (empty when the epoch saw no traffic at all).
    pub fn epoch(&mut self) -> Vec<SloVerdict> {
        if self.batches == 0 && self.dropped == 0 {
            return Vec::new();
        }
        let mut rec = EpochRecord::default();
        if self.batches > 0 {
            rec.latency_bad = self.over_latency as f64 / self.batches as f64;
            let span_ns = self.last_completed_ns - self.first_arrival_ns;
            if self.spec.min_throughput_gbps > 0.0 && span_ns > 0.0 {
                // bytes * 8 / ns == bits / ns == Gbps.
                let tput_gbps = self.bytes as f64 * 8.0 / span_ns;
                if tput_gbps < self.spec.min_throughput_gbps {
                    rec.tput_bad = 1.0;
                }
            }
        } else {
            // Every batch in the epoch dropped: worst case everywhere.
            rec.latency_bad = 1.0;
            rec.tput_bad = 1.0;
        }
        rec.drop_bad = self.dropped as f64 / (self.batches + self.dropped) as f64;
        self.window.push_back(rec);
        while self.window.len() > self.spec.slow_window_epochs {
            self.window.pop_front();
        }
        self.batches = 0;
        self.over_latency = 0;
        self.dropped = 0;
        self.bytes = 0;
        self.first_arrival_ns = f64::INFINITY;
        self.last_completed_ns = 0.0;

        let mut out = Vec::new();
        if self.spec.p99_latency_ns > 0.0 {
            out.push(self.verdict("p99_latency", |r| r.latency_bad, LATENCY_BUDGET));
        }
        if self.spec.min_throughput_gbps > 0.0 {
            out.push(self.verdict("throughput", |r| r.tput_bad, THROUGHPUT_BUDGET));
        }
        if self.spec.drop_budget > 0.0 {
            out.push(self.verdict("drops", |r| r.drop_bad, self.spec.drop_budget));
        }
        out
    }

    fn verdict(
        &self,
        objective: &'static str,
        bad: impl Fn(&EpochRecord) -> f64,
        budget: f64,
    ) -> SloVerdict {
        let burn_over = |n: usize| -> f64 {
            let taken = n.min(self.window.len());
            if taken == 0 || budget <= 0.0 {
                return 0.0;
            }
            let sum: f64 = self.window.iter().rev().take(taken).map(&bad).sum();
            sum / taken as f64 / budget
        };
        let fast_burn = burn_over(self.spec.fast_window_epochs);
        let slow_burn = burn_over(self.spec.slow_window_epochs);
        SloVerdict {
            objective,
            fast_burn,
            slow_burn,
            breached: fast_burn >= self.spec.burn_threshold
                && slow_burn >= self.spec.burn_threshold,
        }
    }
}

/// One epoch's drift verdict from the [`DriftWatchdog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftVerdict {
    /// Median `observed / predicted` latency ratio this epoch.
    pub ratio: f64,
    /// Mean model-predicted latency over the epoch's batches, ns.
    pub predicted_ns: f64,
    /// Mean observed latency over the epoch's batches, ns.
    pub observed_ns: f64,
    /// Relative drift: `max(0, ratio - 1)`.
    pub drift: f64,
    /// True when the drift exceeded the ceiling for the configured
    /// number of consecutive epochs.
    pub raised: bool,
}

/// Per-epoch watchdog comparing model-predicted against observed batch
/// latency.
#[derive(Debug, Clone)]
pub struct DriftWatchdog {
    threshold: f64,
    hysteresis: usize,
    streak: usize,
    epoch_ratios: QuantileSketch,
    /// Current-epoch sums behind the verdict's means.
    epoch_predicted: f64,
    epoch_observed: f64,
    ratios: QuantileSketch,
}

impl DriftWatchdog {
    /// A watchdog raising after `hysteresis` consecutive epochs whose
    /// median residual exceeds `threshold`.
    pub fn new(threshold: f64, hysteresis: usize) -> Self {
        DriftWatchdog {
            threshold,
            hysteresis: hysteresis.max(1),
            streak: 0,
            epoch_ratios: QuantileSketch::new(),
            epoch_predicted: 0.0,
            epoch_observed: 0.0,
            ratios: QuantileSketch::new(),
        }
    }

    /// Streams one batch's predicted-vs-observed pair into both the
    /// current epoch's sketch and the run-cumulative [`Self::ratios`].
    /// Degenerate pairs (no prediction, non-finite observation) are
    /// skipped everywhere, means included.
    pub fn observe(&mut self, predicted_ns: f64, observed_ns: f64) {
        if predicted_ns <= 0.0 || !observed_ns.is_finite() {
            return;
        }
        let ratio = observed_ns / predicted_ns;
        self.epoch_ratios.record(ratio);
        self.ratios.record(ratio);
        self.epoch_predicted += predicted_ns;
        self.epoch_observed += observed_ns;
    }

    /// Every `observed / predicted` ratio streamed so far, across
    /// epochs — the residual distribution the health gauges export.
    pub fn ratios(&self) -> &QuantileSketch {
        &self.ratios
    }

    /// Closes the epoch: returns the median-residual verdict, or
    /// `None` when no batches were attributed this epoch (the streak
    /// is held, not reset, across empty epochs).
    pub fn epoch(&mut self) -> Option<DriftVerdict> {
        let n = self.epoch_ratios.count() as f64;
        if n == 0.0 {
            return None;
        }
        let ratio = self.epoch_ratios.quantile(0.5);
        let predicted_ns = std::mem::take(&mut self.epoch_predicted) / n;
        let observed_ns = std::mem::take(&mut self.epoch_observed) / n;
        self.epoch_ratios = QuantileSketch::new();
        let drift = (ratio - 1.0).max(0.0);
        if drift > self.threshold {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        Some(DriftVerdict {
            ratio,
            predicted_ns,
            observed_ns,
            drift,
            raised: self.streak >= self.hysteresis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency_spec() -> SloSpec {
        SloSpec {
            p99_latency_ns: 1_000.0,
            min_throughput_gbps: 1.0,
            drop_budget: 0.05,
            epoch_batches: 4,
            fast_window_epochs: 2,
            slow_window_epochs: 4,
            burn_threshold: 1.0,
            ..SloSpec::default()
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let spec =
            SloSpec::parse("p99_ns=2500000, tput_gbps=10, drops=0.01, epoch=8, drift=0.4").unwrap();
        assert_eq!(spec.p99_latency_ns, 2_500_000.0);
        assert_eq!(spec.min_throughput_gbps, 10.0);
        assert_eq!(spec.drop_budget, 0.01);
        assert_eq!(spec.epoch_batches, 8);
        assert_eq!(spec.drift_threshold, 0.4);

        assert!(SloSpec::parse("").is_none());
        assert!(SloSpec::parse("off").is_none());
        assert!(SloSpec::parse("0").is_none());
        assert!(SloSpec::parse("p99_ns=abc").is_none());
        assert!(SloSpec::parse("p99_ns=-1").is_none());
        assert!(SloSpec::parse("bogus_key=1").is_none());
        assert!(SloSpec::parse("p99_ns").is_none());
        // Slow window can never be shorter than fast.
        let spec = SloSpec::parse("p99_ns=1,fast=6,slow=2").unwrap();
        assert_eq!(spec.slow_window_epochs, 6);
    }

    #[test]
    fn healthy_traffic_never_breaches() {
        let mut hs = HealthState::new(latency_spec());
        for epoch in 0..6 {
            for b in 0..4u64 {
                let t = (epoch * 4 + b) as f64 * 100.0;
                // Well under the 1000 ns ceiling, high throughput.
                hs.observe_batch(500.0, 100_000, t, t + 50.0);
            }
            let verdicts = hs.epoch();
            assert_eq!(verdicts.len(), 3);
            for v in &verdicts {
                assert!(!v.breached, "{v:?}");
                assert_eq!(v.fast_burn, 0.0, "{v:?}");
            }
        }
    }

    #[test]
    fn sustained_latency_violation_breaches_both_windows() {
        let mut hs = HealthState::new(latency_spec());
        let mut breached_at = None;
        for epoch in 0..4 {
            for b in 0..4u64 {
                let t = (epoch * 4 + b) as f64 * 100.0;
                // Every batch over the ceiling: bad fraction 1.0,
                // burn rate 1.0 / 0.01 = 100x.
                hs.observe_batch(5_000.0, 100_000, t, t + 50.0);
            }
            let verdicts = hs.epoch();
            let lat = verdicts.iter().find(|v| v.objective == "p99_latency");
            let lat = lat.expect("latency objective configured");
            assert!(lat.fast_burn > 1.0);
            if lat.breached && breached_at.is_none() {
                breached_at = Some(epoch);
            }
        }
        assert!(
            breached_at.is_some() && breached_at.unwrap() <= 1,
            "sustained violation must breach within the fast window: {breached_at:?}"
        );
    }

    #[test]
    fn single_epoch_blip_does_not_breach_slow_window() {
        let mut spec = latency_spec();
        spec.slow_window_epochs = 8;
        spec.fast_window_epochs = 1;
        let mut hs = HealthState::new(spec);
        // Seven healthy epochs...
        for epoch in 0..7 {
            for b in 0..4u64 {
                let t = (epoch * 4 + b) as f64 * 100.0;
                hs.observe_batch(500.0, 100_000, t, t + 50.0);
            }
            hs.epoch();
        }
        // ...then one bad epoch: fast window burns, slow window
        // (1/8 bad, burn 12.5x vs 100x threshold scale) also burns
        // here because the budget is tiny — but with a burn threshold
        // of 20 the slow window correctly suppresses the blip.
        let mut hs2 = HealthState::new(SloSpec {
            burn_threshold: 20.0,
            ..spec
        });
        for epoch in 0..7 {
            for b in 0..4u64 {
                let t = (epoch * 4 + b) as f64 * 100.0;
                hs2.observe_batch(500.0, 100_000, t, t + 50.0);
            }
            hs2.epoch();
        }
        for b in 0..4u64 {
            let t = (7 * 4 + b) as f64 * 100.0;
            hs2.observe_batch(5_000.0, 100_000, t, t + 50.0);
        }
        let verdicts = hs2.epoch();
        let lat = verdicts
            .iter()
            .find(|v| v.objective == "p99_latency")
            .unwrap();
        assert!(lat.fast_burn >= 20.0, "fast window sees the blip: {lat:?}");
        assert!(
            !lat.breached,
            "slow window must suppress a one-epoch blip: {lat:?}"
        );
    }

    #[test]
    fn drops_and_throughput_objectives_fire() {
        let mut hs = HealthState::new(latency_spec());
        for epoch in 0..3 {
            for b in 0..2u64 {
                let t = (epoch * 4 + b) as f64 * 1_000.0;
                // 100 bytes over 1000 ns = 0.8 Gbps < 1 Gbps floor.
                hs.observe_batch(500.0, 100, t, t + 1_000.0);
                hs.observe_drop();
            }
            let verdicts = hs.epoch();
            let tput = verdicts.iter().find(|v| v.objective == "throughput");
            assert!(tput.unwrap().fast_burn > 0.0);
            let drops = verdicts.iter().find(|v| v.objective == "drops").unwrap();
            // Half the batches dropped against a 5% budget: burn 10x.
            assert!((drops.fast_burn - 10.0).abs() < 1e-9, "{drops:?}");
            if epoch >= 1 {
                assert!(drops.breached);
            }
        }
    }

    #[test]
    fn all_dropped_epoch_counts_as_worst_case() {
        let mut hs = HealthState::new(latency_spec());
        hs.observe_drop();
        hs.observe_drop();
        let verdicts = hs.epoch();
        for v in &verdicts {
            assert!(v.fast_burn > 0.0, "{v:?}");
        }
        // An epoch with no traffic at all yields no verdicts.
        assert!(hs.epoch().is_empty());
    }

    #[test]
    fn drift_watchdog_needs_sustained_drift() {
        let mut wd = DriftWatchdog::new(0.5, 2);
        // Healthy epochs: observed ~= predicted.
        for _ in 0..3 {
            for _ in 0..8 {
                wd.observe(1_000.0, 1_100.0);
            }
            let v = wd.epoch().unwrap();
            assert!(!v.raised, "{v:?}");
            assert!(v.drift < 0.2);
        }
        // Model suddenly off by 2x: first epoch starts the streak,
        // second raises.
        for epoch in 0..2 {
            for _ in 0..8 {
                wd.observe(1_000.0, 2_200.0);
            }
            let v = wd.epoch().unwrap();
            assert_eq!(v.raised, epoch == 1, "{v:?}");
            assert!(v.drift > 1.0);
            assert_eq!((v.predicted_ns, v.observed_ns), (1_000.0, 2_200.0));
        }
        // A healthy epoch resets the streak.
        for _ in 0..8 {
            wd.observe(1_000.0, 1_000.0);
        }
        assert!(!wd.epoch().unwrap().raised);
        // Residuals accumulate across epochs in the cumulative sketch.
        assert_eq!(wd.ratios().count(), 48);
        // Empty epoch yields no verdict and keeps the streak.
        assert!(wd.epoch().is_none());
    }

    #[test]
    fn drift_ignores_degenerate_predictions() {
        let mut wd = DriftWatchdog::new(0.5, 1);
        wd.observe(0.0, 1_000.0);
        wd.observe(-5.0, 1_000.0);
        wd.observe(1_000.0, f64::NAN);
        assert!(wd.epoch().is_none());
    }
}
