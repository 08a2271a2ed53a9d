//! Change detection with hysteresis and cooldown.
//!
//! The detector compares each epoch's signature against the *reference*
//! signature captured when the current plan was adopted. A plan change
//! is proposed only when the relative drift of some stage metric stays
//! above the threshold for `hysteresis_epochs` consecutive epochs
//! (filtering one-epoch noise bursts) and at least `cooldown_epochs`
//! have passed since the last swap (bounding the re-partition rate, so
//! the reconfiguration cost the swap charges on the simulated timeline
//! can always be amortized).

use crate::signature::{StageSignature, WorkloadSignature};

/// Why the detector proposed a re-partition.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerReason {
    /// Stage index (branch-major) with the largest drift.
    pub stage: usize,
    /// Metric that drifted most.
    pub metric: &'static str,
    /// Relative drift of that metric against the reference.
    pub drift: f64,
}

impl TriggerReason {
    /// Compact human-readable form, used in telemetry events and traces.
    pub fn summary(&self) -> String {
        format!(
            "{} drift {:.2} @ stage {}",
            self.metric, self.drift, self.stage
        )
    }
}

/// The detector's verdict for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Keep the current plan.
    Hold,
    /// Re-run the partitioner (fast path now, refinement in background).
    Trigger(TriggerReason),
}

/// An externally-computed drift signal fed into the detector alongside
/// the workload metrics: the health plane's SLO burn-rate breaches and
/// cost-model drift verdicts arrive this way, so "p99 is burning
/// budget" and "the model is off by 30%" share the same hysteresis and
/// cooldown as "the traffic shifted".
///
/// `drift` is on the detector's relative-drift scale (compared against
/// the same threshold as the workload metrics); callers normalize
/// before feeding, e.g. the runtime forwards an SLO breach as its
/// fast-window burn rate and a drift verdict as its relative residual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSignal {
    /// Signal label (e.g. `slo:p99_latency`, `model_drift`).
    pub metric: &'static str,
    /// Drift magnitude on the detector's relative scale.
    pub drift: f64,
}

/// Relative-drift change detector with hysteresis and cooldown.
#[derive(Debug, Clone)]
pub struct ChangeDetector {
    threshold: f64,
    hysteresis_epochs: usize,
    cooldown_epochs: usize,
    streak: usize,
    cooldown_left: usize,
}

/// One drift dimension: label, signature accessor, and an absolute
/// floor so near-zero references don't produce infinite relative drift.
type DriftMetric = (&'static str, fn(&StageSignature) -> f64, f64);

/// Metrics participating in drift detection.
const DRIFT_METRICS: &[DriftMetric] = &[
    ("cpu_ns", |s| s.cpu_ns, 500.0),
    ("kernel_ns", |s| s.kernel_ns, 500.0),
    ("batch_fill", |s| s.batch_fill, 0.05),
    ("pkt_bytes", |s| s.mean_pkt_bytes, 32.0),
    ("match_factor", |s| s.match_factor, 0.25),
    ("divergence", |s| s.divergence, 0.1),
    ("sm_occupancy", |s| s.sm_occupancy, 0.05),
    ("cache_hit_rate", |s| s.cache_hit_rate, 0.1),
];

impl ChangeDetector {
    /// Creates a detector; `hysteresis_epochs` is clamped to ≥ 1.
    pub fn new(threshold: f64, hysteresis_epochs: usize, cooldown_epochs: usize) -> Self {
        ChangeDetector {
            threshold,
            hysteresis_epochs: hysteresis_epochs.max(1),
            cooldown_epochs,
            streak: 0,
            cooldown_left: 0,
        }
    }

    /// Largest relative drift between `cur` and `reference` over every
    /// stage and metric.
    pub fn drift(cur: &WorkloadSignature, reference: &WorkloadSignature) -> TriggerReason {
        let mut worst = TriggerReason {
            stage: 0,
            metric: "none",
            drift: 0.0,
        };
        for (i, (c, r)) in cur.stages.iter().zip(reference.stages.iter()).enumerate() {
            for (name, get, floor) in DRIFT_METRICS {
                let base = get(r).abs().max(*floor);
                let d = (get(c) - get(r)).abs() / base;
                if d > worst.drift {
                    worst = TriggerReason {
                        stage: i,
                        metric: name,
                        drift: d,
                    };
                }
            }
        }
        worst
    }

    /// Feeds one epoch's drift verdict through hysteresis + cooldown.
    /// Call [`ChangeDetector::swapped`] when the runtime actually adopts
    /// a new plan.
    pub fn observe(&mut self, cur: &WorkloadSignature, reference: &WorkloadSignature) -> Decision {
        self.observe_with(cur, reference, &[])
    }

    /// Like [`ChangeDetector::observe`], but the worst drift is taken
    /// over the workload metrics *and* the supplied health signals, so
    /// SLO-burn and model-drift triggers share one streak and one
    /// cooldown with workload-shift triggers (at most one re-partition
    /// per cooldown window, whatever fired it).
    pub fn observe_with(
        &mut self,
        cur: &WorkloadSignature,
        reference: &WorkloadSignature,
        signals: &[HealthSignal],
    ) -> Decision {
        let mut worst = Self::drift(cur, reference);
        for s in signals {
            if s.drift.is_finite() && s.drift > worst.drift {
                worst = TriggerReason {
                    stage: 0,
                    metric: s.metric,
                    drift: s.drift,
                };
            }
        }
        self.gate(worst)
    }

    /// Feeds one epoch's worst drift, however it was measured (the
    /// rack's load imbalance uses this too), through cooldown and
    /// hysteresis; a drift not above the threshold, NaN included, resets
    /// the streak.
    pub fn gate(&mut self, worst: TriggerReason) -> Decision {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            self.streak = 0;
            return Decision::Hold;
        }
        if worst.drift > self.threshold {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        if self.streak >= self.hysteresis_epochs {
            self.streak = 0;
            Decision::Trigger(worst)
        } else {
            Decision::Hold
        }
    }

    /// Notes that a swap happened: arms the cooldown.
    pub fn swapped(&mut self) {
        self.cooldown_left = self.cooldown_epochs;
        self.streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::StageSignature;

    fn sig(cpu: f64) -> WorkloadSignature {
        WorkloadSignature {
            stages: vec![StageSignature {
                cpu_ns: cpu,
                ..Default::default()
            }],
        }
    }

    #[test]
    fn hysteresis_requires_consecutive_epochs() {
        let mut d = ChangeDetector::new(0.3, 2, 0);
        let reference = sig(10_000.0);
        assert_eq!(d.observe(&sig(20_000.0), &reference), Decision::Hold);
        // A quiet epoch resets the streak.
        assert_eq!(d.observe(&sig(10_000.0), &reference), Decision::Hold);
        assert_eq!(d.observe(&sig(20_000.0), &reference), Decision::Hold);
        match d.observe(&sig(20_000.0), &reference) {
            Decision::Trigger(r) => {
                assert_eq!(r.metric, "cpu_ns");
                assert!(r.drift > 0.9);
            }
            Decision::Hold => panic!("two consecutive drifting epochs must trigger"),
        }
    }

    #[test]
    fn cooldown_suppresses_retriggers() {
        let mut d = ChangeDetector::new(0.3, 1, 3);
        let reference = sig(10_000.0);
        assert!(matches!(
            d.observe(&sig(30_000.0), &reference),
            Decision::Trigger(_)
        ));
        d.swapped();
        for _ in 0..3 {
            assert_eq!(d.observe(&sig(30_000.0), &reference), Decision::Hold);
        }
        assert!(matches!(
            d.observe(&sig(30_000.0), &reference),
            Decision::Trigger(_)
        ));
    }

    #[test]
    fn small_noise_never_triggers() {
        let mut d = ChangeDetector::new(0.3, 1, 0);
        let reference = sig(10_000.0);
        for i in 0..50 {
            let jitter = 1.0 + 0.1 * ((i % 5) as f64 - 2.0) / 2.0; // ±10 %
            assert_eq!(
                d.observe(&sig(10_000.0 * jitter), &reference),
                Decision::Hold
            );
        }
    }

    #[test]
    fn drift_floors_near_zero_references() {
        let reference = sig(0.0);
        let worst = ChangeDetector::drift(&sig(100.0), &reference);
        assert!(worst.drift.is_finite());
    }

    #[test]
    fn health_signals_share_streak_and_cooldown() {
        let mut d = ChangeDetector::new(0.3, 2, 2);
        let reference = sig(10_000.0);
        let steady = sig(10_000.0);
        let burn = [HealthSignal {
            metric: "slo:p99_latency",
            drift: 5.0,
        }];
        // Signals alone build the streak even with steady traffic.
        assert_eq!(d.observe_with(&steady, &reference, &burn), Decision::Hold);
        match d.observe_with(&steady, &reference, &burn) {
            Decision::Trigger(r) => {
                assert_eq!(r.metric, "slo:p99_latency");
                assert_eq!(r.drift, 5.0);
            }
            Decision::Hold => panic!("sustained health signal must trigger"),
        }
        // The shared cooldown suppresses both signal- and workload-
        // driven triggers after a swap.
        d.swapped();
        assert_eq!(d.observe_with(&steady, &reference, &burn), Decision::Hold);
        assert_eq!(
            d.observe_with(&sig(40_000.0), &reference, &burn),
            Decision::Hold
        );
        // A quiet epoch (no signal, steady traffic) resets the streak.
        assert_eq!(d.observe_with(&steady, &reference, &burn), Decision::Hold);
        assert_eq!(d.observe_with(&steady, &reference, &[]), Decision::Hold);
        assert_eq!(d.observe_with(&steady, &reference, &burn), Decision::Hold);
        // The larger of workload drift and signal drift wins the label.
        match d.observe_with(&sig(100_000.0), &reference, &burn) {
            Decision::Trigger(r) => assert_eq!(r.metric, "cpu_ns"),
            Decision::Hold => panic!("streak complete, must trigger"),
        }
        // Non-finite signals are ignored.
        let nan = [HealthSignal {
            metric: "model_drift",
            drift: f64::NAN,
        }];
        assert_eq!(d.observe_with(&steady, &reference, &nan), Decision::Hold);
    }
}
