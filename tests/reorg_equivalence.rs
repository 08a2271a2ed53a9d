//! The orchestrator's branch assignment is well formed for any chain.
//! That re-organised and synthesised chains process packets exactly like
//! the sequential chain is checked end to end, through a `Deployment`,
//! by `tests/reference_differential.rs`.

use nfc_core::orchestrator::ReorgSfc;
use nfc_core::Sfc;
use nfc_nf::Nf;
use proptest::prelude::*;

thread_local! {
    /// The NFs the generator draws chains from, built once: the analysis
    /// reads only their action profiles and statefulness.
    static NF_POOL: [Nf; 7] = [
        Nf::firewall("fw", 100, 1),
        Nf::ids("ids"),
        Nf::dpi("dpi"),
        Nf::probe("probe"),
        Nf::load_balancer("lb", 2),
        Nf::proxy("proxy"),
        Nf::nat("nat", [203, 0, 113, 1]),
    ];
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Branch assignment is always a permutation preserving in-branch
    /// order, and effective length never exceeds the chain length.
    #[test]
    fn branch_assignment_is_well_formed(
        picks in proptest::collection::vec(0usize..7, 1..7),
        width in 1usize..6,
    ) {
        let nfs = NF_POOL.with(|pool| picks.iter().map(|&k| pool[k].clone()).collect());
        let sfc = Sfc::new("prop", nfs);
        let plan = ReorgSfc::analyze(&sfc, width);
        let mut all: Vec<usize> = plan.branches().iter().flatten().copied().collect();
        for b in plan.branches() {
            prop_assert!(b.windows(2).all(|w| w[0] < w[1]), "order in {b:?}");
        }
        all.sort_unstable();
        prop_assert_eq!(all, (0..picks.len()).collect::<Vec<_>>());
        prop_assert!(plan.width() <= width.max(1));
        prop_assert!(plan.effective_length() <= picks.len());
    }
}
