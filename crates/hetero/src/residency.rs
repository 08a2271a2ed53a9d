//! SM-residency model for persistent kernels.
//!
//! NFCompass keeps "a portion of GPU threads continuously running" — a
//! persistent kernel per offloading stage. Those kernels are not free to
//! multiply: each one pins thread blocks onto streaming multiprocessors
//! for its whole lifetime, and a Titan X has only [`GpuSpec::sm_count`]
//! SMs per device. This module makes that capacity a first-class
//! constraint:
//!
//! * [`slot_demand`] converts a stage's in-flight packet load into the
//!   number of SM slots its persistent kernel must hold
//!   ([`calib::GPU_THREADS_PER_SM`] resident threads per slot).
//! * [`bin_pack`] places kernel demands onto the device complex with a
//!   first-fit-decreasing heuristic; demands that fit nowhere become
//!   [`Placement::Spill`] and the allocator must degrade those stages to
//!   launch-per-batch dispatch instead of adopting an oversubscribed
//!   plan. It decides *which* kernels are resident; [`spread_pack`] —
//!   the one packer deployments run — then decides *where*, balancing
//!   that same set across devices.
//! * [`pressure_multiplier`] charges the co-residency cost on kernel
//!   time once a device's slots pass half utilization
//!   ([`calib::GPU_RESIDENCY_PRESSURE`]).

use crate::calib;
use crate::platform::GpuSpec;

/// SM slots a persistent kernel needs to keep `gpu_packets_per_batch`
/// packets in flight: one slot per [`calib::GPU_THREADS_PER_SM`] resident
/// threads, minimum one slot (a resident kernel always holds at least
/// one block).
pub fn slot_demand(gpu_packets_per_batch: usize) -> usize {
    gpu_packets_per_batch
        .div_ceil(calib::GPU_THREADS_PER_SM)
        .max(1)
}

/// Kernel-time multiplier for a device at the given SM-slot
/// `utilization` (0–1). Identity at or below half utilization; linear in
/// the oversubscription beyond it, reaching
/// `1 + `[`calib::GPU_RESIDENCY_PRESSURE`] at a fully packed device.
pub fn pressure_multiplier(utilization: f64) -> f64 {
    if utilization <= 0.5 {
        1.0
    } else {
        1.0 + calib::GPU_RESIDENCY_PRESSURE * (utilization.min(1.0) - 0.5) / 0.5
    }
}

/// Where one persistent kernel ended up after bin-packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Kernel is resident on `device`, holding `slots` SM slots.
    Resident {
        /// Device index (0-based).
        device: usize,
        /// SM slots held on that device.
        slots: usize,
    },
    /// No device had capacity: the stage must fall back to
    /// launch-per-batch dispatch.
    Spill,
}

/// Outcome of packing a set of kernel slot demands onto the devices.
#[derive(Debug, Clone)]
pub struct ResidencyPlan {
    /// Placement per demand, in input order.
    pub placements: Vec<Placement>,
    /// Remaining free slots per device after packing.
    pub free: Vec<usize>,
    /// SM slots per device ([`GpuSpec::sm_count`]).
    pub capacity: usize,
}

impl ResidencyPlan {
    /// SM slots in use on `device`.
    pub fn device_slots_used(&self, device: usize) -> usize {
        self.capacity - self.free.get(device).copied().unwrap_or(self.capacity)
    }

    /// Slot utilization of `device`, 0–1.
    pub fn device_utilization(&self, device: usize) -> f64 {
        self.device_slots_used(device) as f64 / self.capacity.max(1) as f64
    }

    /// Number of demands that could not be placed.
    pub fn spilled(&self) -> usize {
        self.placements
            .iter()
            .filter(|p| matches!(p, Placement::Spill))
            .count()
    }

    /// Number of demands granted residency.
    pub fn resident(&self) -> usize {
        self.placements.len() - self.spilled()
    }
}

/// First-fit-decreasing bin-pack of per-kernel SM-slot `demands` onto
/// the device complex: demands are placed largest-first, each on the
/// first device with enough free slots. Deterministic (stable order for
/// equal demands) so repeated planning over the same profile yields the
/// same placement. Demands wider than one device's whole SM array can
/// never be resident and always spill.
pub fn bin_pack(demands: &[usize], gpu: &GpuSpec) -> ResidencyPlan {
    let capacity = gpu.sm_count;
    let mut free = vec![capacity; gpu.count.max(1)];
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(demands[i]));
    let mut placements = vec![Placement::Spill; demands.len()];
    for &i in &order {
        let d = demands[i];
        if let Some(dev) = free.iter().position(|&f| f >= d) {
            free[dev] -= d;
            placements[i] = Placement::Resident {
                device: dev,
                slots: d,
            };
        }
    }
    ResidencyPlan {
        placements,
        free,
        capacity,
    }
}

/// Pressure-aware spread pack, the packer deployments run: admits
/// exactly the kernels [`bin_pack`] admits (FFD maximizes the resident
/// set, so the never-oversubscribe spill rule is byte-for-byte the FFD
/// one), then re-places them largest-first, each on the *least-loaded*
/// device that still fits it (worst-fit decreasing, ties to the lowest
/// device index).
///
/// [`pressure_multiplier`] is non-decreasing in device utilization with
/// a knee at 50%, so for a homogeneous device complex the placement
/// minimizing the peak utilization also minimizes the worst co-residency
/// multiplier any kernel pays — FFD instead drives device 0 through the
/// knee while its peers idle. Balanced placement can, in adversarial
/// demand mixes, fail to re-fit a set FFD packed exactly (worst-fit
/// fragments differently); in that case the FFD placement is returned
/// unchanged, so the spread plan never spills more than FFD.
pub fn spread_pack(demands: &[usize], gpu: &GpuSpec) -> ResidencyPlan {
    let ffd = bin_pack(demands, gpu);
    let capacity = gpu.sm_count;
    let mut order: Vec<usize> = (0..demands.len())
        .filter(|&i| matches!(ffd.placements[i], Placement::Resident { .. }))
        .collect();
    order.sort_by_key(|&i| std::cmp::Reverse(demands[i]));
    let mut used = vec![0usize; gpu.count.max(1)];
    let mut placements = vec![Placement::Spill; demands.len()];
    for &i in &order {
        let d = demands[i];
        let Some(dev) = (0..used.len())
            .filter(|&dev| used[dev] + d <= capacity)
            .min_by_key(|&dev| used[dev])
        else {
            return ffd;
        };
        used[dev] += d;
        placements[i] = Placement::Resident {
            device: dev,
            slots: d,
        };
    }
    ResidencyPlan {
        placements,
        free: used.iter().map(|&u| capacity - u).collect(),
        capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;

    fn gpu() -> GpuSpec {
        PlatformConfig::hpca18().gpu
    }

    #[test]
    fn slot_demand_rounds_up_with_floor_of_one() {
        assert_eq!(slot_demand(0), 1);
        assert_eq!(slot_demand(1), 1);
        assert_eq!(slot_demand(128), 1);
        assert_eq!(slot_demand(129), 2);
        assert_eq!(slot_demand(256), 2);
        // A full device's worth of lanes: 3072 / 128 = all 24 SMs.
        assert_eq!(slot_demand(3072), gpu().sm_count);
    }

    #[test]
    fn pack_within_capacity_is_fully_resident() {
        let plan = bin_pack(&[2, 2, 2, 2], &gpu());
        assert_eq!(plan.spilled(), 0);
        assert_eq!(plan.resident(), 4);
        // Everything fits on device 0.
        assert!(plan
            .placements
            .iter()
            .all(|p| matches!(p, Placement::Resident { device: 0, .. })));
        assert_eq!(plan.device_slots_used(0), 8);
    }

    #[test]
    fn oversubscription_spills_and_never_exceeds_capacity() {
        // 4 × 16 slots = 64 demanded, 2 × 24 = 48 available: two fit
        // (one per device), two spill.
        let plan = bin_pack(&[16, 16, 16, 16], &gpu());
        assert_eq!(plan.resident(), 2);
        assert_eq!(plan.spilled(), 2);
        for d in 0..2 {
            assert!(plan.device_slots_used(d) <= plan.capacity);
        }
    }

    #[test]
    fn demand_wider_than_a_device_always_spills() {
        let plan = bin_pack(&[25], &gpu());
        assert_eq!(plan.spilled(), 1);
    }

    #[test]
    fn ffd_packs_large_first_for_better_fit() {
        // Sorted placement lets [20, 4, 4, 20] fit exactly; first-fit in
        // input order would strand a 20.
        let plan = bin_pack(&[4, 20, 4, 20], &gpu());
        assert_eq!(plan.spilled(), 0);
        assert_eq!(plan.device_slots_used(0) + plan.device_slots_used(1), 48);
    }

    #[test]
    fn spread_balances_across_devices() {
        // FFD piles all four demands on device 0 (16/24 slots, through
        // the pressure knee); spread splits them 8/8 and stays free.
        let ffd = bin_pack(&[4, 4, 4, 4], &gpu());
        assert_eq!(ffd.device_slots_used(0), 16);
        assert!(pressure_multiplier(ffd.device_utilization(0)) > 1.0);
        let plan = spread_pack(&[4, 4, 4, 4], &gpu());
        assert_eq!(plan.spilled(), 0);
        assert_eq!(plan.device_slots_used(0), 8);
        assert_eq!(plan.device_slots_used(1), 8);
        assert_eq!(pressure_multiplier(plan.device_utilization(0)), 1.0);
        assert_eq!(pressure_multiplier(plan.device_utilization(1)), 1.0);
    }

    #[test]
    fn spread_keeps_ffd_spill_rule() {
        // Same oversubscribed set as the FFD test: the resident set (and
        // therefore the spill count) must match FFD exactly.
        let plan = spread_pack(&[16, 16, 16, 16], &gpu());
        assert_eq!(plan.resident(), 2);
        assert_eq!(plan.spilled(), 2);
        assert_eq!(plan.device_slots_used(0), 16);
        assert_eq!(plan.device_slots_used(1), 16);
        let plan = spread_pack(&[25], &gpu());
        assert_eq!(plan.spilled(), 1);
    }

    #[test]
    fn spread_never_raises_peak_utilization_above_ffd() {
        // Deterministic pseudo-random demand mixes: same resident count
        // as FFD, and the peak device utilization (the pressure driver)
        // never exceeds FFD's.
        let g = gpu();
        let mut state = 0x9e37_79b9_u64;
        for _ in 0..500 {
            let mut demands = Vec::new();
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let n = 1 + (state >> 33) as usize % 8;
            for _ in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                demands.push(1 + (state >> 40) as usize % 24);
            }
            let ffd = bin_pack(&demands, &g);
            let spread = spread_pack(&demands, &g);
            assert_eq!(spread.resident(), ffd.resident(), "demands {demands:?}");
            let peak = |p: &ResidencyPlan| {
                (0..g.count)
                    .map(|d| p.device_utilization(d))
                    .fold(0.0f64, f64::max)
            };
            assert!(
                peak(&spread) <= peak(&ffd) + 1e-12,
                "demands {demands:?}: spread peak {} > ffd peak {}",
                peak(&spread),
                peak(&ffd)
            );
        }
    }

    #[test]
    fn spread_falls_back_to_ffd_when_balancing_strands_a_kernel() {
        // [13, 11, 9, 9, 6] totals 48: FFD packs it exactly
        // (13+11 / 9+9+6) but worst-fit placement strands the final 6
        // (13+9 = 22 free 2, 11+9 = 20 free 4). The fallback must return
        // the full FFD placement rather than spill.
        let plan = spread_pack(&[13, 11, 9, 9, 6], &gpu());
        assert_eq!(plan.spilled(), 0);
        let ffd = bin_pack(&[13, 11, 9, 9, 6], &gpu());
        assert_eq!(plan.placements, ffd.placements);
    }

    #[test]
    fn pressure_is_free_below_half_utilization() {
        assert_eq!(pressure_multiplier(0.0), 1.0);
        assert_eq!(pressure_multiplier(0.5), 1.0);
        assert!(pressure_multiplier(0.75) > 1.0);
        let full = pressure_multiplier(1.0);
        assert!((full - (1.0 + calib::GPU_RESIDENCY_PRESSURE)).abs() < 1e-12);
    }
}
