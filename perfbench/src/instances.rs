//! Seeded instance sets: which graphs each workload colors.
//!
//! A workload's instance set is a fixed table of `(scenario, graph class,
//! n)` slots; `--seed` draws each slot's random graph. Keeping the shapes
//! fixed and seeding only the edges keeps the per-pass cost steady across
//! seeds while still giving every seed its own inputs.

use crate::stats::mix;
use dcl_graphs::{generators, Graph};

/// The random graph families the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Erdős–Rényi `G(n, d/n)`.
    Gnp(u32),
    /// Union of `d` random perfect matchings.
    Expander(u32),
    /// Chung–Lu power law, exponent 2.5, average degree `d`.
    PowerLaw(u32),
    /// Uniform random `d`-regular graph.
    RandomRegular(u32),
}

impl Class {
    /// Short name used in output files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Class::Gnp(_) => "gnp",
            Class::Expander(_) => "expander",
            Class::PowerLaw(_) => "power_law",
            Class::RandomRegular(_) => "random_regular",
        }
    }

    /// Draws the graph on `n` nodes from `seed`.
    #[must_use]
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        match self {
            Class::Gnp(d) => generators::gnp(n, f64::from(d) / n as f64, seed),
            Class::Expander(d) => generators::expander(n, d as usize, seed),
            Class::PowerLaw(d) => generators::power_law(n, 2.5, f64::from(d), seed),
            Class::RandomRegular(d) => generators::random_regular(n, d as usize, seed),
        }
    }
}

/// One slot of a workload's instance table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Registered scenario name (see `dcl_service::scenario_names`).
    pub scenario: &'static str,
    /// Graph family.
    pub class: Class,
    /// Node count.
    pub n: usize,
}

/// A generated instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The slot it was drawn for.
    pub spec: Spec,
    /// The graph seed actually used.
    pub graph_seed: u64,
    /// The graph.
    pub graph: Graph,
}

/// Whether the Δ-coloring scenario can color `g`: Brooks' theorem needs
/// `Δ ≥ 3` and no component that is a `(Δ+1)`-clique. Slots for that
/// scenario redraw until this holds, so no seed makes an operation fail.
#[must_use]
pub fn brooks_colorable(g: &Graph) -> bool {
    let delta = g.max_degree();
    if delta < 3 {
        return false;
    }
    let mut seen = vec![false; g.n()];
    for s in g.nodes() {
        if seen[s] {
            continue;
        }
        seen[s] = true;
        let mut stack = vec![s];
        let (mut size, mut full) = (0, true);
        while let Some(v) = stack.pop() {
            size += 1;
            full &= g.degree(v) == delta;
            for &u in g.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        if full && size == delta + 1 {
            return false;
        }
    }
    true
}

/// Draws slot `index` of a table from `seed`.
#[must_use]
pub fn draw(spec: Spec, seed: u64, index: usize) -> Instance {
    let mut attempt = 0u64;
    loop {
        let graph_seed = mix(seed, (index as u64) << 8 | attempt);
        let graph = spec.class.generate(spec.n, graph_seed);
        if spec.scenario != "delta" || brooks_colorable(&graph) {
            return Instance {
                spec,
                graph_seed,
                graph,
            };
        }
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_per_seed_and_differ_across_seeds() {
        let spec = Spec {
            scenario: "congest",
            class: Class::Gnp(6),
            n: 64,
        };
        let a = draw(spec, 1, 0);
        let b = draw(spec, 1, 0);
        let c = draw(spec, 2, 0);
        assert_eq!(a.graph, b.graph);
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn brooks_check_rejects_cliques_and_low_degree() {
        assert!(!brooks_colorable(&generators::complete(5)));
        assert!(!brooks_colorable(&generators::ring(7)));
        assert!(brooks_colorable(&generators::grid(4, 4)));
    }
}
