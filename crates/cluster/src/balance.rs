//! Cluster-level shard rebalancing: per-server workload signatures roll
//! up to one controller that moves ring vnodes from the hottest server
//! to the coldest.
//!
//! The controller measures a *cluster* quantity, the ratio of the
//! hottest server's windowed load to the cluster mean, and feeds it to
//! the single-box gate, [`ChangeDetector::gate`], for the threshold,
//! hysteresis and cooldown. Acting on it is loss-free by construction:
//! shard moves happen between batches (never with a batch in flight),
//! state migration is charged on the simulated timeline over the
//! inter-server links, and both ends' flow-cache generations are bumped
//! so no stale verdict survives the ownership change.

use nfc_control::{ChangeDetector, Decision, TriggerReason};

/// Configuration for the cluster rebalancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Cluster batches per observation epoch (min 1).
    pub epoch_batches: usize,
    /// Trigger when `max_load / mean_load` exceeds this (e.g. `1.25`).
    pub imbalance_threshold: f64,
    /// Consecutive breached epochs required before acting.
    pub hysteresis_epochs: usize,
    /// Epochs to hold after a move before acting again.
    pub cooldown_epochs: usize,
    /// Ring vnodes shed per move.
    pub vnodes_per_move: usize,
}

impl RebalanceConfig {
    /// Observation only: epochs tick and loads are rolled up, but no
    /// move is ever suggested (the static-map baseline and the N=1
    /// differential oracle).
    pub fn disabled() -> Self {
        RebalanceConfig {
            epoch_batches: 16,
            imbalance_threshold: f64::INFINITY,
            hysteresis_epochs: 2,
            cooldown_epochs: 2,
            vnodes_per_move: 1,
        }
    }

    /// True when the threshold can ever trip.
    pub fn is_enabled(&self) -> bool {
        self.imbalance_threshold.is_finite()
    }
}

/// A suggested shard move: shed vnodes from `from` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// Hottest server (sheds vnodes).
    pub from: u32,
    /// Coldest server (receives them).
    pub to: u32,
}

/// Rolls per-server epoch loads into rebalance decisions.
#[derive(Debug, Clone)]
pub struct ClusterController {
    /// The imbalance gate; `None` when rebalancing is disabled.
    gate: Option<ChangeDetector>,
    epoch: u64,
    moves: u64,
}

impl ClusterController {
    /// Controller with the given configuration.
    pub fn new(cfg: RebalanceConfig) -> Self {
        let gate = cfg.is_enabled().then(|| {
            ChangeDetector::new(
                cfg.imbalance_threshold,
                cfg.hysteresis_epochs,
                cfg.cooldown_epochs,
            )
        });
        ClusterController {
            gate,
            epoch: 0,
            moves: 0,
        }
    }

    /// Epochs observed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Moves suggested so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Closes one epoch with per-server windowed loads (any monotone
    /// busy-time proxy; the cluster runtime feeds signature busy-ns).
    /// Returns a move when the imbalance has persisted past hysteresis
    /// and the cooldown has expired. A rack of fewer than two servers,
    /// or a disabled controller, counts the epoch and nothing else.
    pub fn observe(&mut self, loads: &[f64]) -> Option<ShardMove> {
        self.epoch += 1;
        let gate = self.gate.as_mut().filter(|_| loads.len() >= 2)?;
        let (mv, imbalance) = imbalance(loads);
        let reason = TriggerReason {
            stage: mv.from as usize,
            metric: "imbalance",
            drift: imbalance,
        };
        match gate.gate(reason) {
            Decision::Hold => None,
            Decision::Trigger(_) => {
                gate.swapped();
                self.moves += 1;
                Some(mv)
            }
        }
    }
}

/// The hottest and coldest servers of one epoch (the first of equals)
/// and the hottest load over the mean, the quantity the gate compares
/// with [`RebalanceConfig::imbalance_threshold`]. A rack with no
/// positive mean load (idle, or NaN) or no distinct coldest server
/// measures `-inf`, which never breaches; an unbounded hot server over
/// an unbounded mean (∞/∞) measures `+inf`, which always does.
fn imbalance(loads: &[f64]) -> (ShardMove, f64) {
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    let (mut hot, mut hot_load, mut cold, mut cold_load) = (0, f64::MIN, 0, f64::MAX);
    for (i, &l) in loads.iter().enumerate() {
        if l > hot_load {
            (hot, hot_load) = (i, l);
        }
        if l < cold_load {
            (cold, cold_load) = (i, l);
        }
    }
    let ratio = hot_load / mean;
    let drift = if mean.is_nan() || mean <= 0.0 || hot == cold {
        f64::NEG_INFINITY
    } else if ratio.is_nan() {
        f64::INFINITY
    } else {
        ratio
    };
    let (from, to) = (hot as u32, cold as u32);
    (ShardMove { from, to }, drift)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RebalanceConfig {
        RebalanceConfig {
            epoch_batches: 4,
            imbalance_threshold: 1.25,
            hysteresis_epochs: 2,
            cooldown_epochs: 2,
            vnodes_per_move: 1,
        }
    }

    #[test]
    fn trips_only_after_hysteresis() {
        let mut c = ClusterController::new(cfg());
        let skew = [10.0, 1.0, 1.0, 1.0];
        assert_eq!(c.observe(&skew), None, "first breach arms only");
        assert_eq!(
            c.observe(&skew),
            Some(ShardMove { from: 0, to: 1 }),
            "second consecutive breach acts"
        );
    }

    #[test]
    fn balanced_load_resets_the_streak() {
        let mut c = ClusterController::new(cfg());
        let skew = [10.0, 1.0];
        let even = [5.0, 5.0];
        assert_eq!(c.observe(&skew), None);
        assert_eq!(c.observe(&even), None, "breach streak reset");
        assert_eq!(c.observe(&skew), None, "needs two consecutive again");
    }

    #[test]
    fn cooldown_suppresses_back_to_back_moves() {
        let mut c = ClusterController::new(cfg());
        let skew = [10.0, 1.0, 1.0];
        c.observe(&skew);
        assert!(c.observe(&skew).is_some());
        assert_eq!(c.observe(&skew), None, "cooling");
        assert_eq!(c.observe(&skew), None, "cooling");
        c.observe(&skew); // re-arm
        assert!(c.observe(&skew).is_some(), "acts again after cooldown");
        assert_eq!(c.moves(), 2);
    }

    /// The controller as it stood with its own streak and cooldown, kept
    /// as the oracle for the decisions it now takes through the shared
    /// gate.
    struct Standalone {
        cfg: RebalanceConfig,
        breach_streak: usize,
        cooldown: usize,
    }

    impl Standalone {
        fn observe(&mut self, loads: &[f64]) -> Option<ShardMove> {
            if loads.len() < 2 || !self.cfg.is_enabled() {
                return None;
            }
            if self.cooldown > 0 {
                self.cooldown -= 1;
                return None;
            }
            let mean = loads.iter().sum::<f64>() / loads.len() as f64;
            if mean <= 0.0 || mean.is_nan() {
                self.breach_streak = 0;
                return None;
            }
            let (hot, hot_load) =
                loads
                    .iter()
                    .copied()
                    .enumerate()
                    .fold(
                        (0, f64::MIN),
                        |acc, (i, l)| if l > acc.1 { (i, l) } else { acc },
                    );
            let (cold, _) = loads
                .iter()
                .copied()
                .enumerate()
                .fold(
                    (0, f64::MAX),
                    |acc, (i, l)| if l < acc.1 { (i, l) } else { acc },
                );
            if hot_load / mean <= self.cfg.imbalance_threshold || hot == cold {
                self.breach_streak = 0;
                return None;
            }
            self.breach_streak += 1;
            if self.breach_streak < self.cfg.hysteresis_epochs.max(1) {
                return None;
            }
            self.breach_streak = 0;
            self.cooldown = self.cfg.cooldown_epochs;
            Some(ShardMove {
                from: hot as u32,
                to: cold as u32,
            })
        }
    }

    /// Load corners: zero of both signs, negative, equal, NaN and
    /// unbounded values, and a sum that overflows.
    const LOADS: [f64; 11] = [
        0.0,
        -0.0,
        1.0,
        1.0,
        5.0,
        10.0,
        -3.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
    ];

    /// Thresholds: negative, zero, ordinary, and the disabled ones.
    const THRESHOLDS: [f64; 8] = [
        -1.0,
        0.0,
        1.0,
        1.05,
        1.25,
        f64::INFINITY,
        f64::NAN,
        f64::NEG_INFINITY,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// For any configuration and any sequence of epochs, drawn from
        /// a pool of three load vectors (so breaches repeat) of zero to
        /// five servers mixing the corners with ordinary loads, the
        /// controller suggests exactly the moves the standalone one did.
        #[test]
        fn decisions_equal_the_standalone_controller_on_any_loads(
            threshold in 0usize..THRESHOLDS.len(),
            hysteresis in 0usize..4,
            cooldown in 0usize..4,
            pool in proptest::collection::vec(
                proptest::collection::vec((0usize..LOADS.len() + 4, 0.0f64..20.0), 0..6),
                3..4,
            ),
            epochs in proptest::collection::vec(0usize..3, 1..40),
        ) {
            let cfg = RebalanceConfig {
                imbalance_threshold: THRESHOLDS[threshold],
                hysteresis_epochs: hysteresis,
                cooldown_epochs: cooldown,
                ..cfg()
            };
            let pool: Vec<Vec<f64>> = pool
                .iter()
                .map(|v| v.iter().map(|&(k, x)| LOADS.get(k).copied().unwrap_or(x)).collect())
                .collect();
            let mut c = ClusterController::new(cfg);
            let mut oracle = Standalone {
                cfg,
                breach_streak: 0,
                cooldown: 0,
            };
            let mut moves = 0;
            for (e, &i) in epochs.iter().enumerate() {
                let want = oracle.observe(&pool[i]);
                moves += u64::from(want.is_some());
                proptest::prop_assert_eq!(c.observe(&pool[i]), want, "epoch {} loads {:?}", e, &pool[i]);
            }
            proptest::prop_assert_eq!(c.epoch(), epochs.len() as u64);
            proptest::prop_assert_eq!(c.moves(), moves);
        }
    }

    #[test]
    fn disabled_and_degenerate_inputs_never_trip() {
        let mut c = ClusterController::new(RebalanceConfig::disabled());
        for _ in 0..10 {
            assert_eq!(c.observe(&[100.0, 1.0]), None);
        }
        let mut c = ClusterController::new(cfg());
        assert_eq!(c.observe(&[5.0]), None, "one server cannot rebalance");
        assert_eq!(c.observe(&[0.0, 0.0]), None, "idle cluster holds");
    }
}
