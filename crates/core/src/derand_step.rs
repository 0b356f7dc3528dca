//! The derandomized one-bit prefix extension (Lemma 2.6).
//!
//! One phase fixes the next bit of every node's color prefix such that
//!
//! ```text
//! Σ_u Φ_ℓ(u)  ≤  Σ_u Φ_{ℓ-1}(u) + n/⌈log C⌉            (Equation 5)
//! ```
//!
//! and no candidate set becomes empty. The phase derandomizes the biased-coin
//! process of Lemma 2.3 with the method of conditional expectations: the
//! shared seed of the coin family is fixed bit by bit; for each seed bit,
//! every node computes the conditional expectation of its potential for both
//! candidate values (`x⁰_v`, `x¹_v` in the paper), the two sums are
//! aggregated over the BFS tree toward the leader, the leader picks the
//! smaller side and broadcasts the chosen bit. One seed bit therefore costs
//! `O(D)` rounds; a whole phase costs `O(D · seed_len)` plus two real
//! neighbor-exchange rounds.
//!
//! Per the substitution documented in `DESIGN.md` §2.1, the coin family is
//! the slice-independent inner-product family with seed length
//! `b · (⌈log₂ K⌉ + 1)` (the paper's Theorem 2.4 family achieves
//! `2 · max{log K, b}` but has no efficiently computable conditional
//! expectations); all potential invariants are preserved with
//! `ε = 2^{-b}`.
//!
//! The CONGESTED CLIQUE and MPC drivers derandomize the same coin family a
//! whole segment at a time instead: [`fix_seed_by_segments`] takes the
//! argmin over all `2^λ` values of the next `λ` seed bits, so a seed costs
//! `⌈seed_len / λ⌉` segment steps rather than `seed_len` bit steps. A
//! driver states its candidate score as digit-DP [`DpQuery`] terms (the
//! local work of its responsible nodes or machines) plus a `combine` over
//! their values (the leader's deterministic reduce). The routine evaluates
//! the queries incrementally: per segment it builds each query's DP state
//! over the untouched digits above the segment and compiles the fixed
//! digits below it once, and per candidate it resumes only the touched
//! digits (`dcl_kernels::digit_dp::segment`; `DESIGN.md` §2.6).

use crate::instance::ListInstance;
use crate::prefix::PrefixState;
use dcl_congest::bfs::BfsForest;
use dcl_congest::network::Network;
use dcl_congest::tree::{aggregate_vec_forest_charged, broadcast_forest_charged};
use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{coin_threshold, BitForm, PackedForms, SliceFamily};
use dcl_kernels::digit_dp::segment::{JointSplit, MarginalSplit};
use dcl_kernels::digit_dp::EdgeDpCache;
use dcl_sim::Pool;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Outcome of one derandomized phase.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// `Σ Φ` before the phase.
    pub potential_before: f64,
    /// `Σ Φ` after the phase.
    pub potential_after: f64,
    /// Seed length used (bits fixed by conditional expectations).
    pub seed_len: usize,
}

/// Conditional expectations of one conflict edge for one seed bit:
/// `[x⁰ share of u, x⁰ share of v, x¹ share of u, x¹ share of v]`.
///
/// This is the dominant work of the whole algorithm (every conflict edge ×
/// every seed bit × both candidate values). In the real CONGEST network each
/// *node* evaluates its incident edges locally and simultaneously, so the
/// simulator farms the per-edge evaluations out to the backend's pool; the
/// caller replays the returned contributions in edge order on one thread,
/// which keeps the float association — and hence every leader decision
/// downstream — bit-identical to the sequential backend.
///
/// The numeric work lives in `dcl_kernels::digit_dp::edge_shares_cached`;
/// here we only resolve the
/// seed layout: the candidate-value overrides for position `slice` of each
/// endpoint's form vector. `cache` is this edge's persistent DP prefix
/// state — the seed bits `j` arrive in index order, which is exactly the
/// monotone schedule the incremental tier's cache contract requires (see
/// `dcl_derand::slice` module docs); under a forced reference tier the
/// cache is ignored and the reference body runs.
#[allow(clippy::too_many_arguments)]
#[inline]
fn edge_shares(
    family: &SliceFamily,
    forms: &[Vec<BitForm>],
    psi: &[u64],
    thresholds: &[u64],
    k0_inv: &[f64],
    k1_inv: &[f64],
    j: usize,
    slice: usize,
    u: usize,
    v: usize,
    cache: &mut EdgeDpCache,
) -> [f64; 4] {
    let fu = &forms[u];
    let fv = &forms[v];
    let over_u = [
        family.form_with_fix(fu[slice], psi[u], j, false),
        family.form_with_fix(fu[slice], psi[u], j, true),
    ];
    let over_v = [
        family.form_with_fix(fv[slice], psi[v], j, false),
        family.form_with_fix(fv[slice], psi[v], j, true),
    ];
    dcl_kernels::digit_dp::edge_shares_cached(
        cache,
        fu,
        over_u,
        thresholds[u],
        k0_inv[u],
        k1_inv[u],
        fv,
        over_v,
        thresholds[v],
        k0_inv[v],
        k1_inv[v],
        slice,
    )
}

/// Per-conflict-edge scratch that survives the whole phase: the
/// incremental tier's DP prefix cache plus the share slot the parallel
/// path writes results into (a flat buffer instead of per-chunk `Vec`
/// churn — the same fix the aggregation `vectors` buffer got).
struct EdgeScratch {
    cache: EdgeDpCache,
    share: [f64; 4],
}

/// Accuracy parameter `b` such that `ε = 2^{-b} ≤ 1/(10 · Δ · ⌈log C⌉ ·
/// extra)`; `extra = Δ+1` is the MIS-avoidance variant of Section 4.
#[must_use]
pub fn accuracy_bits(max_degree: usize, color_bits: u32, extra: u64) -> u32 {
    let target = 10u64
        .saturating_mul(max_degree.max(1) as u64)
        .saturating_mul(u64::from(color_bits.max(1)))
        .saturating_mul(extra.max(1));
    let b = 64 - (target - 1).leading_zeros();
    assert!(
        b <= 48,
        "accuracy parameter b = {b} unreasonably large; check instance parameters"
    );
    b.max(1)
}

/// One digit-DP term of a segment score: a probability over the shared
/// seed that only reads the coin forms of the nodes it names. Each node
/// `v` draws `z_v = h(psi[v])` from the coin family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpQuery {
    /// `Pr[z_u < a ∧ z_v < c]`.
    Joint {
        /// First node.
        u: usize,
        /// Threshold of `z_u` (up to `2^b` inclusive).
        a: u64,
        /// Second node.
        v: usize,
        /// Threshold of `z_v` (up to `2^b` inclusive).
        c: u64,
    },
    /// `Pr[z_v < t]`.
    Marginal {
        /// The node.
        v: usize,
        /// Threshold (up to `2^b` inclusive).
        t: u64,
    },
}

impl DpQuery {
    /// The four joint-CDF corners of `Pr[z_u ∈ [ul, uh) ∧ z_v ∈ [vl, vh)]`
    /// in the order [`dcl_kernels::digit_dp::segment::interval`] combines
    /// them.
    #[must_use]
    pub fn interval_corners(
        u: usize,
        [ul, uh]: [u64; 2],
        v: usize,
        [vl, vh]: [u64; 2],
    ) -> [Self; 4] {
        let joint = |a, c| DpQuery::Joint { u, a, v, c };
        [joint(uh, vh), joint(ul, vh), joint(uh, vl), joint(ul, vl)]
    }

    fn nodes(self) -> [usize; 2] {
        match self {
            DpQuery::Joint { u, v, .. } => [u, v],
            DpQuery::Marginal { v, .. } => [v, v],
        }
    }
}

/// A [`DpQuery`] split around the current segment: its prefix state and
/// compiled suffix, resumed per candidate over the touched digits.
enum SplitQuery {
    Joint(usize, usize, JointSplit),
    Marginal(usize, MarginalSplit),
}

impl SplitQuery {
    fn new(query: DpQuery, forms: &[PackedForms], lo: usize, hi: usize) -> Self {
        match query {
            DpQuery::Joint { u, a, v, c } => {
                SplitQuery::Joint(u, v, JointSplit::new(&forms[u], a, &forms[v], c, lo, hi))
            }
            DpQuery::Marginal { v, t } => {
                SplitQuery::Marginal(v, MarginalSplit::new(&forms[v], t, lo, hi))
            }
        }
    }

    #[inline]
    fn resume(&self, forms: &[PackedForms]) -> f64 {
        match self {
            SplitQuery::Joint(u, v, split) => split.resume(&forms[*u], &forms[*v]),
            SplitQuery::Marginal(v, split) => split.resume(&forms[*v]),
        }
    }
}

/// How a candidate rewrites one touched slice of one node: the slice's
/// form with every segment bit fixed to 0, and the candidate bits whose
/// value flips its offset. Fixing a seed bit clears the same mask or `s`
/// bit whatever its value and XORs the value into the offset only when
/// the node's input selects it, so candidate `c` yields
/// `form` with `offset ^= parity(c & flips)`.
struct SlicePatch {
    node: usize,
    slice: usize,
    form: BitForm,
    flips: u64,
}

impl SlicePatch {
    #[inline]
    fn form_for(&self, cand: usize) -> BitForm {
        let mut form = self.form;
        form.offset ^= (cand as u64 & self.flips).count_ones() & 1 == 1;
        form
    }
}

/// Per-worker candidate scratch, reused across candidates and segments:
/// the forms with the candidate's touched slices patched in, and the query
/// values handed to `combine`.
struct Scratch {
    forms: Vec<PackedForms>,
    values: Vec<f64>,
}

/// A free scratch slot. At most one candidate runs per pool worker, so
/// with one slot per worker a `try_lock` always succeeds; every candidate
/// rewrites what it reads, so which slot it gets cannot change a value.
fn claim(slots: &[Mutex<Scratch>]) -> MutexGuard<'_, Scratch> {
    slots
        .iter()
        .find_map(|slot| slot.try_lock().ok())
        .unwrap_or_else(|| slots[0].lock().unwrap_or_else(PoisonError::into_inner))
}

/// Fixes every bit of `family`'s shared seed, `λ` bits at a time, by
/// minimizing a candidate score — the segment-parallel derandomization of
/// the CONGESTED CLIQUE and MPC drivers (Section 4; `DESIGN.md` §2.6).
///
/// The seed is walked in segments `[start, min(start + λ, seed_len))`.
/// Candidate `c` of a segment sets seed bit `start + i` to bit `i` of `c`.
/// A candidate's score is `combine(values)`, where `values[k]` is the
/// probability `queries[k]` under the seed fixed so far plus the
/// candidate's bits: the queries are the local work of the responsible
/// nodes or machines, `combine` the deterministic reduce at the leader or
/// machine 0. All `2^λ` candidates are scored through `pool`, the lowest
/// score wins and ties go to the lowest candidate
/// ([`dcl_sim::argmin_f64`]), so the seed is bit-identical across backends
/// whenever `combine` is a deterministic function of the values. The
/// winning bits are then fixed in the seed and the forms the next segment
/// starts from.
///
/// Each value equals the scalar digit DP on the candidate's forms bit for
/// bit, but is computed incrementally
/// ([`dcl_kernels::digit_dp::segment`]): per segment, every query's DP
/// state over the untouched digits above the segment and its compiled
/// suffix over the fixed digits below are built once; per candidate, only
/// the touched slices of the queried nodes are patched and only those
/// digits are resumed. Debug builds check that contract against a full
/// per-candidate recomputation of every active node's forms.
///
/// Rounds are the caller's: `seed_len.div_ceil(λ)` segments times the
/// host model's per-segment cost.
///
/// # Panics
///
/// Panics if `lambda` is 0, `psi` and `active` differ in length, or a
/// query names an inactive node.
pub fn fix_seed_by_segments<C>(
    pool: Option<&Pool>,
    family: &SliceFamily,
    psi: &[u64],
    active: &[bool],
    lambda: u32,
    queries: &[DpQuery],
    combine: C,
) -> PartialSeed
where
    C: Fn(&[f64]) -> f64 + Sync,
{
    assert!(lambda >= 1, "segment length must be at least one bit");
    assert_eq!(psi.len(), active.len(), "psi and mask lengths differ");
    let mut queried = vec![false; active.len()];
    for node in queries.iter().flat_map(|q| q.nodes()) {
        assert!(active[node], "query reads inactive node {node}");
        queried[node] = true;
    }
    let seed_len = family.seed_len();
    let mut seed = PartialSeed::new(seed_len);
    let empty = PackedForms::from_forms(&[]);
    let mut forms: Vec<PackedForms> = psi
        .iter()
        .zip(active)
        .map(|(&x, &on)| {
            if on {
                family.packed_forms_for(&seed, x)
            } else {
                empty.clone()
            }
        })
        .collect();
    let workers = pool.map_or(1, Pool::threads);
    let mut slots: Vec<Mutex<Scratch>> = (0..workers)
        .map(|_| {
            Mutex::new(Scratch {
                forms: Vec::new(),
                values: vec![0.0; queries.len()],
            })
        })
        .collect();
    let mut splits: Vec<SplitQuery> = Vec::with_capacity(queries.len());
    let mut patches: Vec<SlicePatch> = Vec::new();
    let mut start = 0usize;
    while start < seed_len {
        let end = (start + lambda as usize).min(seed_len);
        // The segment touches slices hi .. lo; below are fixed, above free.
        let hi = family.slice_of_seed_bit(start) as usize;
        let lo = family.slice_of_seed_bit(end - 1) as usize + 1;
        splits.clear();
        splits.extend(queries.iter().map(|&q| SplitQuery::new(q, &forms, lo, hi)));
        patches.clear();
        for v in (0..forms.len()).filter(|&v| queried[v]) {
            for slice in hi..lo {
                let mut form = forms[v].form(slice);
                let mut flips = 0u64;
                for (offset, j) in (start..end).enumerate() {
                    if family.slice_of_seed_bit(j) as usize == slice {
                        let zero = family.form_with_fix(form, psi[v], j, false);
                        let one = family.form_with_fix(form, psi[v], j, true);
                        flips |= u64::from(zero.offset != one.offset) << offset;
                        form = zero;
                    }
                }
                patches.push(SlicePatch {
                    node: v,
                    slice,
                    form,
                    flips,
                });
            }
        }
        for slot in &mut slots {
            slot.get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .forms
                .clone_from(&forms);
        }
        // Seed bit `start + offset` takes bit `offset` of the candidate.
        let apply = |forms: &mut [PackedForms], cand: usize| {
            for (offset, j) in (start..end).enumerate() {
                let bit = cand >> offset & 1 == 1;
                for ((f, &x), &on) in forms.iter_mut().zip(psi).zip(active) {
                    if on {
                        family.update_packed_on_fix(f, x, j, bit);
                    }
                }
            }
        };
        let (_, winner) = dcl_sim::argmin_f64(pool, 1 << (end - start), |cand| {
            let mut slot = claim(&slots);
            let Scratch {
                forms: scratch,
                values,
            } = &mut *slot;
            for patch in &patches {
                scratch[patch.node].set_form(patch.slice, patch.form_for(cand));
            }
            #[cfg(debug_assertions)]
            {
                let mut full = forms.clone();
                apply(&mut full, cand);
                for (v, (f, base)) in full.iter().zip(&forms).enumerate() {
                    for i in (0..f.digits()).filter(|i| !(hi..lo).contains(i)) {
                        debug_assert_eq!(
                            f.form(i),
                            base.form(i),
                            "segment {start}..{end} changed node {v}'s digit {i} outside \
                             the touched slices {hi}..{lo}"
                        );
                    }
                    if queried[v] {
                        for i in hi..lo {
                            debug_assert_eq!(f.form(i), scratch[v].form(i), "node {v} digit {i}");
                        }
                    }
                }
            }
            for (value, split) in values.iter_mut().zip(&splits) {
                *value = split.resume(scratch);
            }
            combine(values)
        });
        apply(&mut forms, winner);
        for (offset, j) in (start..end).enumerate() {
            seed.fix(j, winner >> offset & 1 == 1);
        }
        start = end;
    }
    seed
}

/// Runs one derandomized prefix-extension phase for all active nodes.
///
/// `psi` must be a proper coloring of the instance graph restricted to the
/// active nodes (the symmetry-breaking input of Lemma 2.1) with values below
/// `psi_palette`; `b` is the coin accuracy from [`accuracy_bits`].
///
/// # Panics
///
/// Panics if called on a completed [`PrefixState`] or if `psi` values exceed
/// the palette.
pub fn derandomized_phase(
    net: &mut Network<'_>,
    forest: &BfsForest,
    instance: &ListInstance,
    state: &mut PrefixState,
    psi: &[u64],
    psi_palette: u64,
    b: u32,
) -> PhaseOutcome {
    let n = instance.graph().n();
    let potential_before = state.total_potential();
    let m = (64 - psi_palette.saturating_sub(1).leading_zeros()).max(1);
    let family = SliceFamily::new(m, b);
    let seed_len = family.seed_len();

    // --- Local setup: k0/k1 splits and coin thresholds. -------------------
    // Inactive nodes keep k = 0, which `recip_batch` maps to 0.0 — the same
    // no-share sentinel the per-node branch produced.
    let mut k0 = vec![0usize; n];
    let mut k1 = vec![0usize; n];
    let mut thresholds = vec![0u64; n];
    for v in 0..n {
        if !state.is_active(v) {
            continue;
        }
        assert!(psi[v] < psi_palette, "psi value out of palette at node {v}");
        let split = state.split(instance, v);
        let total = (split.k0 + split.k1) as u64;
        thresholds[v] = coin_threshold(split.k1 as u64, total, b);
        k0[v] = split.k0;
        k1[v] = split.k1;
    }
    let mut k0_inv = vec![0.0f64; n];
    let mut k1_inv = vec![0.0f64; n];
    dcl_kernels::ratio::recip_batch(&k0, &mut k0_inv);
    dcl_kernels::ratio::recip_batch(&k1, &mut k1_inv);

    // One real round: neighbors learn (k1, |L|) — everything they need to
    // evaluate the survival probability of the shared edge (they already
    // know ψ of their neighbors from the setup round of the partial
    // coloring).
    let _ = net.fragmented_broadcast_round(|v| {
        if state.is_active(v) {
            Some((thresholds[v], state.candidate_count(v) as u64))
        } else {
            None
        }
    });

    // --- Method of conditional expectations over the seed bits. -----------
    let trees = forest.trees.len();
    let mut seeds: Vec<PartialSeed> = (0..trees).map(|_| PartialSeed::new(seed_len)).collect();
    // Cached affine forms per node (all start identical per ψ; we keep them
    // per node for branch-free updates).
    let mut forms: Vec<Vec<BitForm>> = (0..n)
        .map(|v| {
            if state.is_active(v) {
                family.forms_for(&seeds[forest.component[v]], psi[v])
            } else {
                Vec::new()
            }
        })
        .collect();
    let edges = state.conflict_edges();
    // Per-edge scratch allocated once per phase. The caches make each
    // seed-bit evaluation replay only the current slice's digits (the
    // tentpole speedup); the share slots give the parallel path a flat
    // output buffer. `map_chunks_with` hands each worker exclusive access
    // to its chunk of scratch at the same deterministic boundaries as
    // `map_chunks`, so results stay independent of the worker count.
    let mut scratch: Vec<EdgeScratch> = edges
        .iter()
        .map(|_| EdgeScratch {
            cache: EdgeDpCache::new(),
            share: [0.0; 4],
        })
        .collect();

    let mut x0 = vec![0.0f64; n];
    let mut x1 = vec![0.0f64; n];
    // Reused aggregation buffer: rebuilding n two-element vectors per seed
    // bit costs ~10⁹ allocations on a 10⁵-node run and dominates RSS via
    // allocator churn.
    let mut vectors: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0, 0.0]).collect();
    // Reused per-tree decision buffer (same churn argument, one per bit).
    let mut choices = vec![false; trees];
    for j in 0..seed_len {
        x0.iter_mut().for_each(|x| *x = 0.0);
        x1.iter_mut().for_each(|x| *x = 0.0);
        let slice = family.slice_of_seed_bit(j) as usize;
        match net.pool() {
            Some(pool) => {
                pool.map_chunks_with(&mut scratch, |range, chunk| {
                    for (e, sc) in range.zip(chunk.iter_mut()) {
                        let (u, v) = edges[e];
                        sc.share = edge_shares(
                            &family,
                            &forms,
                            psi,
                            &thresholds,
                            &k0_inv,
                            &k1_inv,
                            j,
                            slice,
                            u,
                            v,
                            &mut sc.cache,
                        );
                    }
                });
                // Replay in edge order on one thread: float association —
                // and every leader decision downstream — stays bit-identical
                // to the sequential backend.
                for (&(u, v), sc) in edges.iter().zip(&scratch) {
                    x0[u] += sc.share[0];
                    x0[v] += sc.share[1];
                    x1[u] += sc.share[2];
                    x1[v] += sc.share[3];
                }
            }
            None => {
                for (&(u, v), sc) in edges.iter().zip(scratch.iter_mut()) {
                    let s = edge_shares(
                        &family,
                        &forms,
                        psi,
                        &thresholds,
                        &k0_inv,
                        &k1_inv,
                        j,
                        slice,
                        u,
                        v,
                        &mut sc.cache,
                    );
                    x0[u] += s[0];
                    x0[v] += s[1];
                    x1[u] += s[2];
                    x1[v] += s[3];
                }
            }
        }
        // Aggregate [Σ x⁰, Σ x¹] per component over the BFS forest, pick the
        // smaller side at each leader, broadcast the chosen bit back.
        for v in 0..n {
            vectors[v][0] = x0[v];
            vectors[v][1] = x1[v];
        }
        let sums = aggregate_vec_forest_charged(net, forest, &vectors, 2);
        for (c, s) in choices.iter_mut().zip(sums.iter()) {
            *c = s[1] < s[0];
        }
        let delivered = broadcast_forest_charged(net, forest, &choices);
        for (t, &bit) in choices.iter().enumerate() {
            seeds[t].fix(j, bit);
        }
        for v in 0..n {
            if state.is_active(v) {
                let bit = delivered[v];
                family.update_forms_on_fix(&mut forms[v], psi[v], j, bit);
            }
        }
    }

    // --- Apply the fully derandomized coins. -------------------------------
    for v in 0..n {
        if !state.is_active(v) {
            continue;
        }
        let mut z = 0u64;
        for (i, form) in forms[v].iter().enumerate() {
            debug_assert!(form.is_known(), "seed fully fixed implies known forms");
            z |= u64::from(form.offset) << i;
        }
        let bit = z < thresholds[v];
        state.extend(instance, v, bit);
    }
    // One real round: exchange the chosen bit so both endpoints of every
    // conflict edge learn whether the edge survived.
    let _ = net.fragmented_broadcast_round(|v| if state.is_active(v) { Some(1u8) } else { None });
    state.finish_phase();

    PhaseOutcome {
        potential_before,
        potential_after: state.total_potential(),
        seed_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::linial_from_ids;
    use dcl_congest::bfs::build_bfs_forest;
    use dcl_graphs::generators;

    /// Runs all phases on a fresh degree+1 instance; returns (state, traces).
    fn run_all_phases(g: dcl_graphs::Graph) -> (ListInstance, PrefixState, Vec<PhaseOutcome>, u64) {
        let n = g.n();
        let inst = ListInstance::degree_plus_one(g);
        let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
        let forest = build_bfs_forest(&mut net);
        let lin = linial_from_ids(&mut net);
        let mut state = PrefixState::new(&inst, &vec![true; n]);
        let b = accuracy_bits(inst.graph().max_degree(), inst.color_bits(), 1);
        let mut outcomes = Vec::new();
        for _ in 0..inst.color_bits() {
            outcomes.push(derandomized_phase(
                &mut net,
                &forest,
                &inst,
                &mut state,
                &lin.colors,
                lin.palette,
                b,
            ));
        }
        let rounds = net.rounds();
        (inst, state, outcomes, rounds)
    }

    #[test]
    fn accuracy_bits_formula() {
        // 10·4·3 = 120 → b = 7 (2^7 = 128 ≥ 120).
        assert_eq!(accuracy_bits(4, 3, 1), 7);
        // MIS-avoidance adds the (Δ+1) factor: 10·4·3·5 = 600 → b = 10.
        assert_eq!(accuracy_bits(4, 3, 5), 10);
        // Degenerate inputs are guarded.
        assert_eq!(accuracy_bits(0, 0, 0), 4); // 10 → 2^4
    }

    #[test]
    fn each_phase_respects_the_potential_budget() {
        for seed in 0..4 {
            let g = generators::gnp(28, 0.2, seed);
            let n = g.n();
            let (inst, _, outcomes, _) = run_all_phases(g);
            let budget = n as f64 / f64::from(inst.color_bits());
            for (i, o) in outcomes.iter().enumerate() {
                assert!(
                    o.potential_after <= o.potential_before + budget + 1e-6,
                    "seed {seed} phase {i}: {} -> {} exceeds budget {budget}",
                    o.potential_before,
                    o.potential_after
                );
            }
        }
    }

    #[test]
    fn final_potential_at_most_two_n() {
        for seed in 0..4 {
            let g = generators::gnp(26, 0.25, seed + 10);
            let n = g.n();
            let (_, state, _, _) = run_all_phases(g);
            assert!(
                state.total_potential() <= 2.0 * n as f64 + 1e-6,
                "seed {seed}: final potential {}",
                state.total_potential()
            );
        }
    }

    #[test]
    fn candidate_sets_never_empty_and_all_bits_fixed() {
        let g = generators::random_regular(30, 4, 3);
        let (inst, state, _, _) = run_all_phases(g);
        assert!(state.is_complete());
        for v in 0..30 {
            assert_eq!(state.candidate_count(v), 1);
            let c = state.candidate_color(&inst, v);
            assert!(inst.list(v).contains(&c));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g1 = generators::gnp(24, 0.3, 7);
        let g2 = generators::gnp(24, 0.3, 7);
        let (inst1, state1, _, rounds1) = run_all_phases(g1);
        let (_, state2, _, rounds2) = run_all_phases(g2);
        for v in 0..24 {
            assert_eq!(
                state1.candidate_color(&inst1, v),
                state2.candidate_color(&inst1, v),
                "node {v} diverged"
            );
        }
        assert_eq!(rounds1, rounds2);
    }

    #[test]
    fn round_cost_scales_with_seed_and_tree_height() {
        // Path graph: D = n-1 dominates. One phase ≈ seed_len·(2·height+1).
        let g = generators::path(16);
        let inst = ListInstance::degree_plus_one(g);
        let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
        let forest = build_bfs_forest(&mut net);
        let lin = linial_from_ids(&mut net);
        let mut state = PrefixState::new(&inst, &[true; 16]);
        let b = accuracy_bits(2, inst.color_bits(), 1);
        let before = net.rounds();
        let out = derandomized_phase(
            &mut net,
            &forest,
            &inst,
            &mut state,
            &lin.colors,
            lin.palette,
            b,
        );
        let used = net.rounds() - before;
        let height = u64::from(forest.max_height());
        let expected = out.seed_len as u64 * (2 * height + 1) + 2;
        assert_eq!(used, expected);
    }

    /// Values of `queries` on `forms` by the full scalar digit DP — the
    /// naive evaluation the incremental routine must reproduce.
    fn full_values(forms: &[PackedForms], queries: &[DpQuery]) -> Vec<f64> {
        use dcl_kernels::digit_dp::scalar;
        queries
            .iter()
            .map(|&q| match q {
                DpQuery::Joint { u, a, v, c } => scalar::prob_joint_lt(&forms[u], a, &forms[v], c),
                DpQuery::Marginal { v, t } => scalar::prob_lt(&forms[v], t),
            })
            .collect()
    }

    /// The segment loop as it stood before the incremental split: clone
    /// every node's forms per candidate, apply the candidate, run the full
    /// DP for every query.
    fn naive_fix_seed(
        family: &SliceFamily,
        psi: &[u64],
        active: &[bool],
        lambda: u32,
        queries: &[DpQuery],
        combine: impl Fn(&[f64]) -> f64 + Sync,
    ) -> PartialSeed {
        let seed_len = family.seed_len();
        let mut seed = PartialSeed::new(seed_len);
        let mut forms: Vec<PackedForms> = psi
            .iter()
            .zip(active)
            .map(|(&x, &on)| {
                if on {
                    family.packed_forms_for(&seed, x)
                } else {
                    PackedForms::from_forms(&[])
                }
            })
            .collect();
        let mut start = 0usize;
        while start < seed_len {
            let end = (start + lambda as usize).min(seed_len);
            let apply = |forms: &mut [PackedForms], cand: usize| {
                for (offset, j) in (start..end).enumerate() {
                    for ((f, &x), &on) in forms.iter_mut().zip(psi).zip(active) {
                        if on {
                            family.update_packed_on_fix(f, x, j, cand >> offset & 1 == 1);
                        }
                    }
                }
            };
            let (_, winner) = dcl_sim::argmin_f64(None, 1 << (end - start), |cand| {
                let mut scratch = forms.clone();
                apply(&mut scratch, cand);
                combine(&full_values(&scratch, queries))
            });
            apply(&mut forms, winner);
            for (offset, j) in (start..end).enumerate() {
                seed.fix(j, winner >> offset & 1 == 1);
            }
            start = end;
        }
        seed
    }

    /// Candidate score over a ring of the active nodes: the probability
    /// that both endpoints flip the same coin, edge weight `1 + i/8`. The
    /// queries are every node's marginal, then every ring edge's joint.
    fn ring_score(active: &[bool], t: u64) -> (Vec<DpQuery>, impl Fn(&[f64]) -> f64 + Sync) {
        let on: Vec<usize> = (0..active.len()).filter(|&v| active[v]).collect();
        let mut queries: Vec<DpQuery> = on.iter().map(|&v| DpQuery::Marginal { v, t }).collect();
        queries.extend(on.iter().enumerate().map(|(i, &u)| DpQuery::Joint {
            u,
            a: t,
            v: on[(i + 1) % on.len()],
            c: t,
        }));
        let k = on.len();
        let combine = move |values: &[f64]| {
            let (marginals, joints) = values.split_at(k);
            let mut total = 0.0;
            for (i, &p11) in joints.iter().enumerate() {
                let (px, py) = (marginals[i], marginals[(i + 1) % k]);
                let p00 = (1.0 - px - py + p11).max(0.0);
                total += (p00 + p11) * (1.0 + i as f64 / 8.0);
            }
            total
        };
        (queries, combine)
    }

    #[test]
    fn one_segment_finds_the_lowest_global_argmin() {
        // seed_len = 2 · (2 + 1) = 6: all 64 seeds are scored exhaustively.
        let family = SliceFamily::new(2, 2);
        let seed_len = family.seed_len();
        let psi = [0u64, 1, 2, 3, 1];
        let active = [true, true, false, true, true];
        let t = coin_threshold(1, 2, 2);
        let (queries, combine) = ring_score(&active, t);
        // A fully fixed seed makes every coin certain, so many seeds tie:
        // the lowest one must win.
        let mut best = (f64::INFINITY, 0u64);
        let mut scores = Vec::new();
        for value in 0..1u64 << seed_len {
            let seed = PartialSeed::from_u64(seed_len, value);
            let forms: Vec<PackedForms> = psi
                .iter()
                .zip(&active)
                .map(|(&x, &on)| {
                    if on {
                        family.packed_forms_for(&seed, x)
                    } else {
                        PackedForms::from_forms(&[])
                    }
                })
                .collect();
            let s = combine(&full_values(&forms, &queries));
            if s < best.0 {
                best = (s, value);
            }
            scores.push(s);
        }
        assert!(scores.iter().filter(|&&s| s == best.0).count() > 1);
        let expected = PartialSeed::from_u64(seed_len, best.1);
        for lambda in [seed_len as u32, seed_len as u32 + 3] {
            let seed =
                fix_seed_by_segments(None, &family, &psi, &active, lambda, &queries, &combine);
            assert_eq!(seed, expected, "lambda {lambda}");
        }
    }

    #[test]
    fn segments_are_bit_identical_across_backends() {
        let family = SliceFamily::new(4, 3);
        let psi: Vec<u64> = (0..12).map(|v| (v * 5 + 3) % 16).collect();
        let active: Vec<bool> = (0..12).map(|v| v % 5 != 2).collect();
        let t = coin_threshold(2, 5, 3);
        let (queries, combine) = ring_score(&active, t);
        let pool = dcl_sim::Pool::new(2);
        for lambda in 1..=3 {
            let sequential =
                fix_seed_by_segments(None, &family, &psi, &active, lambda, &queries, &combine);
            let pooled = fix_seed_by_segments(
                Some(&pool),
                &family,
                &psi,
                &active,
                lambda,
                &queries,
                &combine,
            );
            assert!(sequential.is_complete(), "lambda {lambda}");
            assert_eq!(sequential, pooled, "lambda {lambda}");
        }
    }

    #[test]
    fn incremental_segments_match_the_naive_reference() {
        // m + 1 = 4 seed bits per slice, so every λ ∉ {1, 2, 4} has
        // segments straddling a slice boundary. The interval corners cover
        // thresholds 0 and 2^b; the combine mixes joints and marginals.
        let family = SliceFamily::new(3, 4);
        let full = 1u64 << 4;
        let psi: Vec<u64> = (0..9).map(|v| (v * 3 + 1) % 8).collect();
        let active: Vec<bool> = (0..9).map(|v| v != 4).collect();
        let on: Vec<usize> = (0..9).filter(|&v| active[v]).collect();
        let bounds = [0, 5, 11, full];
        let mut queries = Vec::new();
        for (i, &u) in on.iter().enumerate() {
            let v = on[(i + 3) % on.len()];
            for d in 0..3 {
                let (ul, uh) = (bounds[d], bounds[d + 1]);
                let (vl, vh) = (bounds[(d + i) % 3], bounds[(d + i) % 3 + 1]);
                queries.extend(DpQuery::interval_corners(u, [ul, uh], v, [vl, vh]));
            }
            queries.push(DpQuery::Marginal {
                v: u,
                t: 3 + i as u64,
            });
        }
        let combine = |values: &[f64]| {
            values.chunks(13).fold(0.0, |total, group| {
                let (corners, marginal) = group.split_at(12);
                let conflict = corners
                    .as_chunks::<4>()
                    .0
                    .iter()
                    .fold(0.0, |s, &j| s + dcl_kernels::digit_dp::segment::interval(j));
                total + conflict * (1.0 + marginal[0])
            })
        };
        let pools = [dcl_sim::Pool::new(2), dcl_sim::Pool::new(3)];
        for lambda in 1..=7 {
            let naive = naive_fix_seed(&family, &psi, &active, lambda, &queries, combine);
            assert!(naive.is_complete());
            // The scores must actually discriminate between candidates.
            assert_ne!(naive, PartialSeed::from_u64(family.seed_len(), 0));
            let sequential =
                fix_seed_by_segments(None, &family, &psi, &active, lambda, &queries, combine);
            assert_eq!(sequential, naive, "lambda {lambda}");
            for pool in &pools {
                let pooled = fix_seed_by_segments(
                    Some(pool),
                    &family,
                    &psi,
                    &active,
                    lambda,
                    &queries,
                    combine,
                );
                assert_eq!(pooled, naive, "lambda {lambda}, {} workers", pool.threads());
            }
        }
    }

    #[test]
    fn works_on_disconnected_graphs() {
        let g = dcl_graphs::Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let (inst, state, outcomes, _) = run_all_phases(g);
        assert!(state.is_complete());
        for o in &outcomes {
            assert!(o.potential_after <= o.potential_before + 6.0 / 2.0 + 1e-9);
        }
        for v in 0..6 {
            let c = state.candidate_color(&inst, v);
            assert!(inst.list(v).contains(&c));
        }
    }
}
