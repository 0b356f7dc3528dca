//! The digit DPs on the struct-of-arrays layout ([`PackedForms`]).
//!
//! Bit-identity argument: per digit, the five-case split is resolved by
//! integer bit tests on the `known`/`offset` bitsets, and the nonzero pmf
//! entries are emitted **in ascending pmf-index order** — exactly the
//! entries the reference's `idx 0..4, skip prob == 0` loop visits, in the
//! same order. The transition body is the reference's inner loop verbatim,
//! so every accumulator sees the same float operations in the same order.
//! What this layout removes is overhead *around* the float ops: the
//! per-position override branch (the caller updates the packed form in
//! place), the `PairDist` enum and its `[f64; 4]` pmf materialization, and
//! the zero-probability float compares.

use super::PackedForms;

/// Marginal digit DP on a packed input. Same op sequence as the reference
/// ([`super::reference::prob_lt_override`]); the override is already packed.
/// `t` may be `2^b` (inclusive) → 1.
#[must_use]
pub fn prob_lt(s: &PackedForms, t: u64) -> f64 {
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
pub(crate) fn marg_step(st: &mut [f64; 2], s: &PackedForms, t: u64, i: usize) {
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
pub fn prob_joint_lt(sx: &PackedForms, t_x: u64, sy: &PackedForms, t_y: u64) -> f64 {
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
///
/// Always inlined: under plain `#[inline]` LLVM outlines this step from
/// the per-digit loops of [`prob_joint_lt`] and `segment::JointSplit::new`,
/// which measured ~6% fewer `derand-segment` colorings per second on a
/// 2-vCPU x86_64 VM.
#[inline(always)]
pub(crate) fn joint_step(
    st: &mut [f64; 4],
    sx: &PackedForms,
    t_x: u64,
    sy: &PackedForms,
    t_y: u64,
    i: usize,
) {
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
pub fn joint_coin_probs(sx: &PackedForms, t_x: u64, sy: &PackedForms, t_y: u64) -> [f64; 4] {
    let p11 = prob_joint_lt(sx, t_x, sy, t_y);
    let px = prob_lt(sx, t_x);
    let py = prob_lt(sy, t_y);
    let p10 = (px - p11).max(0.0);
    let p01 = (py - p11).max(0.0);
    let p00 = (1.0 - px - py + p11).max(0.0);
    [p00, p01, p10, p11]
}
