//! Golden pin of the three segmented-derandomization drivers.
//!
//! The CONGESTED CLIQUE driver (Theorem 1.3), MPC with linear memory
//! (Theorem 1.4) and MPC with sublinear memory plus the Lemma 4.2 finisher
//! (Theorem 1.5) all fix their shared seeds through
//! `dcl_coloring::derand_step::fix_seed_by_segments`. Any change to that
//! routine or to the scores the drivers feed it must leave every coloring
//! and every cost counter bit-identical; this file commits one FNV-1a
//! digest of `(colors, metrics, iteration counts)` per driver and graph.
//! A digest mismatch means the derandomization picked a different seed
//! somewhere, which is a behaviour change, not noise: the runs are
//! deterministic.

use distributed_coloring::clique::coloring::{clique_color, CliqueColoringConfig};
use distributed_coloring::coloring::instance::ListInstance;
use distributed_coloring::graphs::{generators, validation, Graph};
use distributed_coloring::mpc::coloring::{mpc_color_linear, mpc_color_sublinear};

/// The scenario's default memory exponent for sublinear MPC.
const ALPHA: f64 = 0.6;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp-24", generators::gnp(24, 0.25, 1)),
        ("gnp-48", generators::gnp(48, 0.15, 2)),
        ("regular-64", generators::random_regular(64, 6, 3)),
        ("power-law-72", generators::power_law(72, 2.5, 5.0, 4)),
        ("gnp-96", generators::gnp(96, 0.08, 5)),
        ("ring-40", generators::ring(40)),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn words(mut self, words: impl IntoIterator<Item = u64>) -> Self {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        self
    }
}

/// `(graph, clique, mpc-linear, mpc-sublinear)` digests.
const GOLDEN: [(&str, u64, u64, u64); 6] = [
    (
        "gnp-24",
        0x3fdf8bc1b2772aea,
        0xe85692546a0726da,
        0x11204f8221e497bc,
    ),
    (
        "gnp-48",
        0x698785bbd2a6dc9b,
        0x92973d670d37a4fe,
        0xad8bd3abc1ea0744,
    ),
    (
        "regular-64",
        0x13af4828c5977059,
        0x24aa9a0cb04c8c82,
        0x2cd87178e5b8c25f,
    ),
    (
        "power-law-72",
        0x568dbf17e409baf6,
        0x12d00f632a2925c5,
        0xb75a116c1ca5ab98,
    ),
    (
        "gnp-96",
        0x8fbeface1e9e346b,
        0x398983695f859439,
        0x1e597b06b7250dfc,
    ),
    (
        "ring-40",
        0xf80897850d214772,
        0x359c16d5f127c581,
        0x2466bc982ff55b59,
    ),
];

#[test]
fn segment_drivers_match_the_golden_digests() {
    let mut finisher_runs = 0;
    let mut actual = Vec::with_capacity(GOLDEN.len());
    for (name, g) in graphs() {
        let inst = ListInstance::degree_plus_one(g.clone());

        let clique = clique_color(&inst, &CliqueColoringConfig::default());
        assert_eq!(validation::check_proper(&g, &clique.colors), None, "{name}");
        let m = clique.metrics;
        let clique_digest = Fnv::new()
            .words(clique.colors.iter().copied())
            .words([m.rounds, m.messages, m.bits, u64::from(m.max_message_bits)])
            .words([clique.iterations as u64, clique.collected_nodes as u64])
            .0;

        let mut mpc_digests = [0u64; 2];
        for (slot, run) in [mpc_color_linear(&inst), mpc_color_sublinear(&inst, ALPHA)]
            .into_iter()
            .enumerate()
        {
            assert_eq!(validation::check_proper(&g, &run.colors), None, "{name}");
            if slot == 1 && run.finisher_iterations > 0 {
                finisher_runs += 1;
            }
            let m = run.metrics;
            mpc_digests[slot] = Fnv::new()
                .words(run.colors.iter().copied())
                .words([m.rounds, m.messages, m.words, m.max_storage_words as u64])
                .words([run.iterations as u64, run.finisher_iterations as u64])
                .words([run.machines as u64, run.memory_words as u64])
                .0;
        }
        actual.push((name, clique_digest, mpc_digests[0], mpc_digests[1]));
    }
    assert!(
        finisher_runs > 0,
        "no graph reached the Lemma 4.2 finisher; the pin would not cover it"
    );
    assert_eq!(
        actual, GOLDEN,
        "digest drift in (graph, clique, mpc-linear, mpc-sublinear)"
    );
}
