//! SIMD tier: independent DP instances paired into SSE2 lanes.
//!
//! The float-association rule forbids vectorizing *within* one DP (the
//! digit recurrence is a serial dependency chain), so this tier vectorizes
//! *across* instances: the two candidate values of a seed bit
//! (`edge_shares`), the two marginals of an edge
//! (`joint_coin_probs`), and the CDF corners of an interval
//! (`joint_interval`) each run as one two-lane DP. Per-lane SSE2
//! arithmetic is IEEE-identical to the scalar ops, and case masks are
//! applied bitwise: a masked-out contribution adds `+0.0`, which preserves
//! the accumulator bits because every state and term is finite and
//! non-negative (the accumulators start at `+0.0` and only ever add
//! probabilities). The reference's `prob == 0 → skip` shortcut likewise
//! becomes an explicit `+0.0` add. SSE2 is part of the x86_64 baseline
//! ABI, so the lane kernels compile unconditionally there and the
//! `unsafe` at each call site discharges trivially (the feature is always
//! present); every other architecture delegates to the
//! [`scalar`] tier.

use super::{scalar, Soa};
use crate::forms::BitForm;

/// Coin probabilities: the joint DP runs scalar (one instance), the two
/// marginals pair into lanes.
#[must_use]
pub(crate) fn joint_coin_probs(sx: &Soa, t_x: u64, sy: &Soa, t_y: u64) -> [f64; 4] {
    #[cfg(target_arch = "x86_64")]
    {
        let full = 1u64 << sx.b;
        if t_x < full && t_y < full {
            let p11 = scalar::prob_joint_lt(sx, t_x, sy, t_y);
            // SAFETY: SSE2 is part of the x86_64 baseline ABI.
            let [px, py] = unsafe { x86::marginal2(sx, t_x, sy, t_y) };
            let p10 = (px - p11).max(0.0);
            let p01 = (py - p11).max(0.0);
            let p00 = (1.0 - px - py + p11).max(0.0);
            return [p00, p01, p10, p11];
        }
    }
    scalar::joint_coin_probs(sx, t_x, sy, t_y)
}

/// Edge aggregation: the two candidates' joint DPs run as one two-lane DP,
/// then the four marginals as two two-lane DPs. The per-candidate combine
/// uses only `p11` and `p00`, exactly as the reference shares do.
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
    #[cfg(target_arch = "x86_64")]
    {
        let full = 1u64 << forms_u.len();
        if t_u < full && t_v < full {
            let su0 = Soa::pack(forms_u, Some((slice, over_u[0])));
            let su1 = Soa::pack(forms_u, Some((slice, over_u[1])));
            let sv0 = Soa::pack(forms_v, Some((slice, over_v[0])));
            let sv1 = Soa::pack(forms_v, Some((slice, over_v[1])));
            // SAFETY: SSE2 is part of the x86_64 baseline ABI.
            let (p11, px, py) = unsafe {
                (
                    x86::joint2(&su0, t_u, &sv0, t_v, &su1, t_u, &sv1, t_v),
                    x86::marginal2(&su0, t_u, &su1, t_u),
                    x86::marginal2(&sv0, t_v, &sv1, t_v),
                )
            };
            let mut out = [0.0f64; 4];
            for cand in 0..2 {
                let p00 = (1.0 - px[cand] - py[cand] + p11[cand]).max(0.0);
                out[2 * cand] = p11[cand] * k1_inv_u + p00 * k0_inv_u;
                out[2 * cand + 1] = p11[cand] * k1_inv_v + p00 * k0_inv_v;
            }
            return out;
        }
    }
    scalar::edge_shares(
        forms_u, over_u, t_u, k0_inv_u, k1_inv_u, forms_v, over_v, t_v, k0_inv_v, k1_inv_v, slice,
    )
}

/// Interval probability: in-range CDF corners pair into two-lane joint DPs
/// (a threshold at `2^b` resolves to 1 or a marginal, as in the reference
/// guards); the combine order is fixed.
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

/// [`joint_interval`] on inputs the caller keeps packed.
#[must_use]
pub fn joint_interval_packed(su: &Soa, ul: u64, uh: u64, sv: &Soa, vl: u64, vh: u64) -> f64 {
    #[cfg(not(target_arch = "x86_64"))]
    {
        scalar::joint_interval_packed(su, ul, uh, sv, vl, vh)
    }
    #[cfg(target_arch = "x86_64")]
    {
        let full = 1u64 << su.b;
        let corners = [(uh, vh), (ul, vh), (uh, vl), (ul, vl)];
        let mut j = [0.0f64; 4];
        let mut pending = [0usize; 4];
        let mut np = 0;
        for (idx, &(a, c)) in corners.iter().enumerate() {
            if a >= full && c >= full {
                j[idx] = 1.0;
            } else if a >= full {
                j[idx] = scalar::prob_lt(sv, c);
            } else if c >= full {
                j[idx] = scalar::prob_lt(su, a);
            } else {
                pending[np] = idx;
                np += 1;
            }
        }
        let mut k = 0;
        while k + 1 < np {
            let (i0, i1) = (pending[k], pending[k + 1]);
            // SAFETY: SSE2 is part of the x86_64 baseline ABI.
            let r = unsafe {
                x86::joint2(
                    su,
                    corners[i0].0,
                    sv,
                    corners[i0].1,
                    su,
                    corners[i1].0,
                    sv,
                    corners[i1].1,
                )
            };
            j[i0] = r[0];
            j[i1] = r[1];
            k += 2;
        }
        if k < np {
            let idx = pending[k];
            j[idx] = scalar::prob_joint_lt(su, corners[idx].0, sv, corners[idx].1);
        }
        super::segment::interval(j)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::{pmf_at, Soa};
    use std::arch::x86_64::{
        __m128d, _mm_add_pd, _mm_and_pd, _mm_andnot_pd, _mm_cmpeq_pd, _mm_cmplt_pd, _mm_cvtsd_f64,
        _mm_mul_pd, _mm_or_pd, _mm_set1_pd, _mm_set_pd, _mm_setzero_pd, _mm_sub_pd,
        _mm_unpackhi_pd,
    };

    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(lo: f64, hi: f64) -> __m128d {
        _mm_set_pd(hi, lo)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn unpack(v: __m128d) -> [f64; 2] {
        [_mm_cvtsd_f64(v), _mm_cvtsd_f64(_mm_unpackhi_pd(v, v))]
    }

    /// Two independent marginal DPs, one per lane. Preconditions: equal
    /// digit counts, both thresholds `< 2^b` (guards resolved by callers).
    #[must_use]
    #[target_feature(enable = "sse2")]
    pub(super) fn marginal2(s0: &Soa, t0: u64, s1: &Soa, t1: u64) -> [f64; 2] {
        debug_assert_eq!(s0.b, s1.b);
        debug_assert!(t0 < 1 << s0.b && t1 < 1 << s1.b);
        let one = _mm_set1_pd(1.0);
        let mut p_eq = one;
        let mut p_lt = _mm_setzero_pd();
        for i in (0..s0.b).rev() {
            let p1 = lanes(s0.prob_one(i), s1.prob_one(i));
            let one_m = _mm_sub_pd(one, p1);
            // Lane mask: threshold bit i set. Encoded as 0.0/1.0 and
            // compared in f64 (SSE2 has no 64-bit integer compare).
            let tb = lanes((t0 >> i & 1) as f64, (t1 >> i & 1) as f64);
            let m = _mm_cmpeq_pd(tb, one);
            // tbit=1 lanes: p_lt += p_eq·(1−p1); p_eq ← p_eq·p1.
            // tbit=0 lanes: p_lt += +0.0;        p_eq ← p_eq·(1−p1).
            let lt_term = _mm_mul_pd(p_eq, one_m);
            p_lt = _mm_add_pd(p_lt, _mm_and_pd(lt_term, m));
            p_eq = _mm_or_pd(
                _mm_and_pd(_mm_mul_pd(p_eq, p1), m),
                _mm_andnot_pd(m, lt_term),
            );
        }
        unpack(p_lt)
    }

    /// Two independent joint DPs, one per lane: lane `l` computes
    /// `Pr[z_{x_l} < tx_l ∧ z_{y_l} < ty_l]`. Preconditions as above for
    /// all four thresholds.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    #[target_feature(enable = "sse2")]
    pub(super) fn joint2(
        sx0: &Soa,
        tx0: u64,
        sy0: &Soa,
        ty0: u64,
        sx1: &Soa,
        tx1: u64,
        sy1: &Soa,
        ty1: u64,
    ) -> [f64; 2] {
        let b = sx0.b;
        debug_assert!(sy0.b == b && sx1.b == b && sy1.b == b);
        debug_assert!(tx0 < 1 << b && ty0 < 1 << b && tx1 < 1 << b && ty1 < 1 << b);
        let mut ee = _mm_set1_pd(1.0);
        let mut el = _mm_setzero_pd();
        let mut le = _mm_setzero_pd();
        let mut ll = _mm_setzero_pd();
        for i in (0..b).rev() {
            let q0 = pmf_at(sx0, sy0, i);
            let q1 = pmf_at(sx1, sy1, i);
            let tbx = lanes((tx0 >> i & 1) as f64, (tx1 >> i & 1) as f64);
            let tby = lanes((ty0 >> i & 1) as f64, (ty1 >> i & 1) as f64);
            let mut nee = _mm_setzero_pd();
            let mut nel = _mm_setzero_pd();
            let mut nle = _mm_setzero_pd();
            let mut nll = _mm_setzero_pd();
            // pmf index order 0..4, as in the reference loop; zero-prob
            // entries contribute +0.0 instead of being skipped.
            for idx in 0..4usize {
                let bx = _mm_set1_pd((idx >> 1) as f64);
                let by = _mm_set1_pd((idx & 1) as f64);
                let p = lanes(q0[idx], q1[idx]);
                let x_eq = _mm_cmpeq_pd(bx, tbx);
                let x_lt = _mm_cmplt_pd(bx, tbx);
                let y_eq = _mm_cmpeq_pd(by, tby);
                let y_lt = _mm_cmplt_pd(by, tby);
                // Step A: route ee·p by (cx, cy); Greater lanes match no
                // mask and add +0.0 everywhere.
                let ee_p = _mm_mul_pd(ee, p);
                nee = _mm_add_pd(nee, _mm_and_pd(ee_p, _mm_and_pd(x_eq, y_eq)));
                nel = _mm_add_pd(nel, _mm_and_pd(ee_p, _mm_and_pd(x_eq, y_lt)));
                nle = _mm_add_pd(nle, _mm_and_pd(ee_p, _mm_and_pd(x_lt, y_eq)));
                nll = _mm_add_pd(nll, _mm_and_pd(ee_p, _mm_and_pd(x_lt, y_lt)));
                // Step B: route el·p by cx.
                let el_p = _mm_mul_pd(el, p);
                nel = _mm_add_pd(nel, _mm_and_pd(el_p, x_eq));
                nll = _mm_add_pd(nll, _mm_and_pd(el_p, x_lt));
                // Step C: route le·p by cy.
                let le_p = _mm_mul_pd(le, p);
                nle = _mm_add_pd(nle, _mm_and_pd(le_p, y_eq));
                nll = _mm_add_pd(nll, _mm_and_pd(le_p, y_lt));
                // Step D: ll stays ll.
                nll = _mm_add_pd(nll, _mm_mul_pd(ll, p));
            }
            ee = nee;
            el = nel;
            le = nle;
            ll = nll;
        }
        unpack(ll)
    }
}
