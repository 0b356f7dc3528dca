//! Scalar-SoA tier: the same DP on the `Soa` layout.
//!
//! Bit-identity argument: per digit, the five-case split is resolved by
//! integer bit tests on the `known`/`offset` bitsets, and the nonzero pmf
//! entries are emitted **in ascending pmf-index order** — exactly the
//! entries the reference's `idx 0..4, skip prob == 0` loop visits, in the
//! same order. The transition body is the reference's inner loop verbatim,
//! so every accumulator sees the same float operations in the same order.
//! What this tier removes is overhead *around* the float ops: the
//! per-position override branch (pre-applied by `Soa::pack`), the
//! `PairDist` enum and its `[f64; 4]` pmf materialization, and the
//! zero-probability float compares.

use super::Soa;
use crate::forms::BitForm;

/// Marginal digit DP on a packed input. Same op sequence as the reference
/// ([`super::reference::prob_lt_override`]); the override is already packed.
/// `t` may be `2^b` (inclusive) → 1.
#[must_use]
pub fn prob_lt(s: &Soa, t: u64) -> f64 {
    if t >= 1 << s.b {
        return 1.0;
    }
    let mut st = [1.0f64, 0.0f64];
    for i in (0..s.b).rev() {
        marg_step(&mut st, s, t, i);
    }
    st[1]
}

/// One marginal DP step at digit `i` on the state `[p_eq, p_lt]` — the
/// reference loop body, verbatim.
#[inline]
pub(crate) fn marg_step(st: &mut [f64; 2], s: &Soa, t: u64, i: usize) {
    let p1 = s.prob_one(i);
    if t >> i & 1 == 1 {
        st[1] += st[0] * (1.0 - p1);
        st[0] *= p1;
    } else {
        st[0] *= 1.0 - p1;
    }
}

/// Joint digit DP on packed inputs: `Pr[z_x < t_x ∧ z_y < t_y]`, with the
/// reference's guard clauses for thresholds equal to `2^b`.
#[must_use]
pub fn prob_joint_lt(sx: &Soa, t_x: u64, sy: &Soa, t_y: u64) -> f64 {
    debug_assert_eq!(sx.b, sy.b, "inputs must share the output width");
    let b = sx.b;
    let full = 1u64 << b;
    if t_x >= full && t_y >= full {
        return 1.0;
    }
    if t_x >= full {
        return prob_lt(sy, t_y);
    }
    if t_y >= full {
        return prob_lt(sx, t_x);
    }
    let mut st = [1.0f64, 0.0, 0.0, 0.0];
    for i in (0..b).rev() {
        joint_step(&mut st, sx, t_x, sy, t_y, i);
    }
    st[3]
}

/// One joint DP step at digit `i` on the state `[ee, el, le, ll]` (`e` =
/// equal so far, `l` = already less, first letter for `x`).
#[inline]
pub(crate) fn joint_step(st: &mut [f64; 4], sx: &Soa, t_x: u64, sy: &Soa, t_y: u64, i: usize) {
    let [ee, el, le, ll] = *st;
    let tbx = t_x >> i & 1;
    let tby = t_y >> i & 1;
    let kx = sx.known >> i & 1 == 1;
    let ky = sy.known >> i & 1 == 1;
    let ox = sx.offset >> i & 1;
    let oy = sy.offset >> i & 1;
    // The nonzero pmf entries `(bx, by, prob)` in ascending pmf-index
    // (`bx<<1|by`) order — the exact visit order of the reference loop.
    let mut entries = [(0u64, 0u64, 0.0f64); 4];
    let count = match (kx, ky) {
        (true, true) => {
            entries[0] = (ox, oy, 1.0);
            1
        }
        (true, false) => {
            entries[0] = (ox, 0, 0.5);
            entries[1] = (ox, 1, 0.5);
            2
        }
        (false, true) => {
            entries[0] = (0, oy, 0.5);
            entries[1] = (1, oy, 0.5);
            2
        }
        (false, false) => {
            if sx.masks[i] == sy.masks[i] {
                let d = ox ^ oy;
                entries[0] = (0, d, 0.5);
                entries[1] = (1, 1 ^ d, 0.5);
                2
            } else {
                entries[0] = (0, 0, 0.25);
                entries[1] = (0, 1, 0.25);
                entries[2] = (1, 0, 0.25);
                entries[3] = (1, 1, 0.25);
                4
            }
        }
    };
    let (mut nee, mut nel, mut nle, mut nll) = (0.0, 0.0, 0.0, 0.0);
    for &(bx, by, prob) in &entries[..count] {
        let cx = bx.cmp(&tbx);
        let cy = by.cmp(&tby);
        use std::cmp::Ordering::*;
        match (cx, cy) {
            (Greater, _) | (_, Greater) => {}
            (Equal, Equal) => nee += ee * prob,
            (Equal, Less) => nel += ee * prob,
            (Less, Equal) => nle += ee * prob,
            (Less, Less) => nll += ee * prob,
        }
        match cx {
            Greater => {}
            Equal => nel += el * prob,
            Less => nll += el * prob,
        }
        match cy {
            Greater => {}
            Equal => nle += le * prob,
            Less => nll += le * prob,
        }
        nll += ll * prob;
    }
    *st = [nee, nel, nle, nll];
}

/// Coin probabilities on packed inputs; the combine replays the reference
/// order (`p11`, `px`, `py`, then the clamped differences).
#[must_use]
pub(crate) fn joint_coin_probs(sx: &Soa, t_x: u64, sy: &Soa, t_y: u64) -> [f64; 4] {
    let p11 = prob_joint_lt(sx, t_x, sy, t_y);
    let px = prob_lt(sx, t_x);
    let py = prob_lt(sy, t_y);
    let p10 = (px - p11).max(0.0);
    let p01 = (py - p11).max(0.0);
    let p00 = (1.0 - px - py + p11).max(0.0);
    [p00, p01, p10, p11]
}

/// Edge aggregation: pack each endpoint once per candidate (the override
/// differs between candidates), then run the three DPs per candidate in
/// reference order.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn edge_shares(
    forms_u: &[BitForm],
    over_u: [BitForm; 2],
    t_u: u64,
    k0_inv_u: f64,
    k1_inv_u: f64,
    forms_v: &[BitForm],
    over_v: [BitForm; 2],
    t_v: u64,
    k0_inv_v: f64,
    k1_inv_v: f64,
    slice: usize,
) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    for cand in [false, true] {
        let su = Soa::pack(forms_u, Some((slice, over_u[usize::from(cand)])));
        let sv = Soa::pack(forms_v, Some((slice, over_v[usize::from(cand)])));
        let p = joint_coin_probs(&su, t_u, &sv, t_v);
        let share_u = p[3] * k1_inv_u + p[0] * k0_inv_u;
        let share_v = p[3] * k1_inv_v + p[0] * k0_inv_v;
        let base = if cand { 2 } else { 0 };
        out[base] = share_u;
        out[base + 1] = share_v;
    }
    out
}

/// Interval probability: pack both endpoints once, reuse across the four
/// CDF corners, combine in the fixed order.
#[must_use]
pub fn joint_interval(
    forms_u: &[BitForm],
    ul: u64,
    uh: u64,
    forms_v: &[BitForm],
    vl: u64,
    vh: u64,
) -> f64 {
    let su = Soa::pack(forms_u, None);
    let sv = Soa::pack(forms_v, None);
    joint_interval_packed(&su, ul, uh, &sv, vl, vh)
}

/// Interval probability on inputs the caller keeps packed (the clique/MPC
/// drivers' SoA scratch): the four CDF corners and the fixed combine,
/// without the per-call pack.
#[must_use]
pub fn joint_interval_packed(su: &Soa, ul: u64, uh: u64, sv: &Soa, vl: u64, vh: u64) -> f64 {
    let j = |a: u64, b: u64| prob_joint_lt(su, a, sv, b);
    super::segment::interval([j(uh, vh), j(ul, vh), j(uh, vl), j(ul, vl)])
}
