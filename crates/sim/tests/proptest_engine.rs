//! Engine-level backend-equivalence properties: the model-violation panics
//! raised by [`NeighborTopology`]'s addressing check fire with the identical
//! payload under `Backend::Sequential` and `Backend::Parallel` (the pool
//! re-raises the lowest-indexed panicking job, so the observed message is
//! deterministic — `DESIGN.md` §5.1).

use dcl_graphs::generators;
use dcl_par::Backend;
use dcl_sim::{BandwidthCap, NeighborTopology, RoundEngine, SendPolicy, SimMetrics};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs one round in which `sender_node` messages `target` (plus every node
/// messaging its real neighbors, so the parallel fan-out has genuine work on
/// every chunk) and returns the panic message, if any.
fn round_panic_message(
    backend: Backend,
    g: &dcl_graphs::Graph,
    sender_node: usize,
    target: usize,
) -> Option<String> {
    let topo = NeighborTopology::new(g);
    let mut engine = RoundEngine::new(backend);
    let mut metrics = SimMetrics::default();
    let result = catch_unwind(AssertUnwindSafe(|| {
        engine.message_round(
            &topo,
            BandwidthCap::two_words(),
            SendPolicy::Strict,
            &mut metrics,
            |v| {
                let mut msgs: Vec<(usize, u64)> = g
                    .neighbors(v)
                    .iter()
                    .map(|&u| (u, (v + u) as u64))
                    .collect();
                if v == sender_node {
                    msgs.push((target, 7));
                }
                msgs
            },
        )
    }));
    result.err().map(|payload| {
        dcl_par::panic_message(&*payload)
            .unwrap_or("<non-string panic payload>")
            .to_string()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A send to a non-neighbor panics with the identical message under both
    /// backends; the same round without the violation delivers identical
    /// inboxes and metrics.
    #[test]
    fn non_neighbor_rejection_is_backend_identical(
        n in 6usize..80,
        p in 0.05f64..0.4,
        seed in any::<u64>(),
        threads in 2usize..6,
        pick in any::<u64>(),
    ) {
        let g = generators::gnp(n, p, seed);
        // Deterministically pick a non-adjacent ordered pair (u, w).
        let mut non_edge = None;
        'outer: for off in 0..n {
            let u = (pick as usize + off) % n;
            for w in 0..n {
                if w != u && !g.has_edge(u, w) {
                    non_edge = Some((u, w));
                    break 'outer;
                }
            }
        }
        prop_assume!(non_edge.is_some()); // complete graphs have no non-edge
        let (u, w) = non_edge.unwrap();

        let seq = round_panic_message(Backend::Sequential, &g, u, w);
        let par = round_panic_message(Backend::Parallel(threads), &g, u, w);
        let expected = format!("node {u} attempted to send to non-neighbor {w}");
        prop_assert_eq!(seq.as_deref(), Some(expected.as_str()));
        prop_assert_eq!(seq, par, "backends observed different rejection payloads");

        // Control: the violation-free round is bit-identical across backends.
        let topo = NeighborTopology::new(&g);
        let clean = |v: usize| -> Vec<(usize, u64)> {
            g.neighbors(v).iter().map(|&x| (x, (v * n + x) as u64)).collect()
        };
        let mut seq_engine = RoundEngine::new(Backend::Sequential);
        let mut par_engine = RoundEngine::new(Backend::Parallel(threads));
        let mut seq_metrics = SimMetrics::default();
        let mut par_metrics = SimMetrics::default();
        let cap = BandwidthCap::two_words();
        let a = seq_engine.message_round(&topo, cap, SendPolicy::Strict, &mut seq_metrics, clean);
        let b = par_engine.message_round(&topo, cap, SendPolicy::Strict, &mut par_metrics, clean);
        if a != b || seq_metrics != par_metrics {
            return Err(TestCaseError::Fail(
                "clean round diverged between backends".into(),
            ));
        }
    }
}
