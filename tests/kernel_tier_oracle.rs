//! Whole-pipeline kernel-tier oracle.
//!
//! The kernels crate proves its production bodies bit-identical to the
//! reference bodies at the function level
//! (`dcl_kernels/tests/tier_equivalence.rs`) and against brute force
//! (`dcl_derand/tests/digit_dp_oracle.rs`); this suite closes the loop at
//! the system level: **every scenario in the workspace produces an
//! identical [`Report`]** — colors, metrics, extras, everything `PartialEq`
//! sees — under both kernel tiers. This is the end-to-end statement of the
//! float-association rule, and the only check that the drivers honour the
//! `EdgeDpCache` contract (monotone slices, nothing above the current
//! slice changes while it is current): swapping the reference bodies for
//! the prefix-cached incremental digit DP and the four-lane argmin fold is
//! unobservable from outside the process.

use distributed_coloring::graphs::generators;
use distributed_coloring::kernels::{clear_active_tier, set_active_tier, KernelTier};
use distributed_coloring::runner::Report;
use distributed_coloring::scenarios;
use distributed_coloring::{Backend, ExecConfig};
use proptest::prelude::*;

/// Runs every scenario on `graph` under `exec` and returns the per-scenario
/// outcomes (scenario name plus `Ok(Report)` / error string).
fn run_all(
    graph: &distributed_coloring::graphs::Graph,
    exec: &ExecConfig,
) -> Vec<(String, Result<Report, String>)> {
    scenarios::all()
        .iter()
        .map(|s| {
            (
                s.name().to_string(),
                s.run(graph, exec).map_err(|e| e.to_string()),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All six scenarios × both tiers × both backends: bit-identical
    /// reports (or identical typed rejections).
    #[test]
    fn every_scenario_is_tier_invariant(
        n in 8usize..40,
        p in 0.08f64..0.35,
        seed in any::<u64>(),
        threads in 2usize..=4,
    ) {
        let g = generators::gnp(n, p, seed);
        for backend in [Backend::Sequential, Backend::Parallel(threads)] {
            let exec = ExecConfig::default().with_backend(backend);
            let per_tier: Vec<_> = KernelTier::all()
                .iter()
                .map(|&tier| {
                    set_active_tier(tier);
                    run_all(&g, &exec)
                })
                .collect();
            clear_active_tier();

            let anchor = &per_tier[0];
            for (tier, outcomes) in KernelTier::all().iter().zip(&per_tier) {
                prop_assert_eq!(
                    outcomes,
                    anchor,
                    "tier {} diverged from reference under {:?}",
                    tier.name(),
                    backend
                );
            }
        }
    }
}

/// The structured graph families the sweeps actually use stay
/// tier-invariant too (the gnp property above covers the irregular case).
#[test]
fn structured_families_are_tier_invariant() {
    let graphs = [
        ("ring", generators::ring(24)),
        ("power_law", generators::power_law(32, 2.5, 4.0, 7)),
    ];
    let exec = ExecConfig::default();
    for (label, g) in &graphs {
        let anchor = {
            set_active_tier(KernelTier::Reference);
            run_all(g, &exec)
        };
        set_active_tier(KernelTier::Incremental);
        let got = run_all(g, &exec);
        assert_eq!(got, anchor, "{label} diverged under the incremental tier");
        clear_active_tier();
    }
}
