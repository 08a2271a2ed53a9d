//! Cluster-level shard rebalancing: per-server workload signatures roll
//! up to one controller that moves ring vnodes from the hottest server
//! to the coldest.
//!
//! The detector mirrors the single-box adaptive controller's shape —
//! threshold, hysteresis, cooldown — but watches a *cluster* quantity:
//! the ratio of the hottest server's windowed load to the cluster mean.
//! Acting on it is loss-free by construction: shard moves happen between
//! batches (never with a batch in flight), state migration is charged on
//! the simulated timeline over the inter-server links, and both ends'
//! flow-cache generations are bumped so no stale verdict survives the
//! ownership change.

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
    cfg: RebalanceConfig,
    epoch: u64,
    breach_streak: usize,
    cooldown: usize,
    moves: u64,
}

impl ClusterController {
    /// Controller with the given configuration.
    pub fn new(cfg: RebalanceConfig) -> Self {
        ClusterController {
            cfg,
            epoch: 0,
            breach_streak: 0,
            cooldown: 0,
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
    /// and the cooldown has expired.
    pub fn observe(&mut self, loads: &[f64]) -> Option<ShardMove> {
        self.epoch += 1;
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
        self.moves += 1;
        Some(ShardMove {
            from: hot as u32,
            to: cold as u32,
        })
    }
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
