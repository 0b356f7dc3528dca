//! Family 1: the Lemma 2.6 pair-probability digit DP and its per-edge
//! aggregation.
//!
//! This is ~90% of Theorem 1.1 runtime: every conflict edge × every seed
//! bit × both candidate values runs the exact `O(b)` digit DP over the
//! joint distribution of two hash outputs. The public functions here are
//! the dispatch layer; the four tiers live in the submodules:
//!
//! - [`mod@reference`] — `SliceFamily::{prob_lt_override,
//!   prob_joint_lt_override, joint_coin_probs_override}` and the drivers'
//!   edge aggregation, moved verbatim from `dcl_derand::slice` /
//!   `dcl_core::derand_step`.
//! - [`scalar`] — the forms repacked once per call into an SoA batch
//!   ([`PackedForms`]: `mask` array + `known`/`offset` bitsets), the
//!   per-digit case split resolved by integer bit tests, and the DP
//!   transition replaying the reference's float operations in the
//!   reference's order — bit-identical by construction, with no allocation
//!   and no per-position override branch.
//! - [`simd`] — independent DP instances paired into SSE2 lanes (the two
//!   candidate values of one seed bit, the two marginals of one edge, the
//!   CDF corners of one interval). Per-lane IEEE ops equal the scalar ops;
//!   masked-out contributions add `+0.0`, which preserves accumulator bits
//!   because every term is finite and non-negative. Off x86_64 the tier
//!   falls back to [`scalar`].
//! - [`incremental`] — stateful prefix-cached evaluation for callers that
//!   fix seed bits in the monotone slice schedule ([`EdgeDpCache`]): the
//!   DP state over the leading digits `b-1..s+1` is invariant for the
//!   whole window of slice `s`, so each evaluation replays only the
//!   overridden digit plus the trailing `s` digits, in the reference
//!   association order. Bit-identical because the cached prefix is a
//!   literal memo of the reference computation's first `b-1-s` steps.
//!
//! Outside the tier dispatch, [`segment`] splits the scalar DPs around
//! one seed segment (prefix over the untouched high digits, resume over
//! the touched ones, compiled suffix over the fixed low digits) for the
//! segmented seed fixing of the CONGESTED CLIQUE and MPC drivers.
//!
//! Thresholds may be up to `2^b` *inclusive* (the reference's guard
//! clauses); `b` is the forms-slice length, at most 63 (`SliceFamily`
//! enforces this upstream).

use crate::forms::{BitForm, PairDist};
use crate::tier::{family_tier, KernelFamily, KernelTier};

pub mod incremental;
pub mod reference;
pub mod scalar;
pub mod segment;
pub mod simd;

pub use incremental::EdgeDpCache;

#[inline]
fn tier() -> KernelTier {
    family_tier(KernelFamily::DigitDp)
}

/// SoA repack of one input's `b` bit forms: the free-variable masks as an
/// array, the known/offset/s-free flags as bitsets. The scalar and SIMD
/// tiers read digits from this layout with integer bit tests instead of
/// per-position struct loads, and the drivers keep one `PackedForms` per
/// node updated in place across seed fixes
/// (`SliceFamily::update_packed_on_fix`), so the per-call pack loop
/// disappears from the hot path.
#[derive(Debug, Clone)]
pub struct PackedForms {
    /// Number of digits (= forms.len()).
    pub(crate) b: usize,
    /// `masks[i]` = free positions of `r_i` where the input has a 1 bit.
    pub(crate) masks: [u64; 64],
    /// Bit `i` set iff form `i` is fully determined.
    pub(crate) known: u64,
    /// Bit `i` = offset of form `i`.
    pub(crate) offset: u64,
    /// Bit `i` set iff form `i`'s `s` bit is still free. Not read by the
    /// DP (it folds into `known`), but needed to reconstruct the
    /// [`BitForm`] at a position for in-place updates.
    pub(crate) s_free: u64,
}

/// Internal alias: the submodules predate the public name.
pub(crate) use PackedForms as Soa;

impl PackedForms {
    pub(crate) fn pack(forms: &[BitForm], over: Option<(usize, BitForm)>) -> PackedForms {
        debug_assert!(forms.len() < 64, "digit DP supports at most 63 digits");
        let mut s = PackedForms {
            b: forms.len(),
            masks: [0; 64],
            known: 0,
            offset: 0,
            s_free: 0,
        };
        for (i, form) in forms.iter().enumerate() {
            let f = match over {
                Some((oi, o)) if oi == i => o,
                _ => *form,
            };
            s.masks[i] = f.mask;
            if f.is_known() {
                s.known |= 1 << i;
            }
            if f.offset {
                s.offset |= 1 << i;
            }
            if f.s_free {
                s.s_free |= 1 << i;
            }
        }
        s
    }

    /// Packs `forms` (index `i` = output bit `i`). Panics in debug builds
    /// when `forms.len() ≥ 64`.
    #[must_use]
    pub fn from_forms(forms: &[BitForm]) -> PackedForms {
        PackedForms::pack(forms, None)
    }

    /// Number of digits.
    #[must_use]
    pub fn digits(&self) -> usize {
        self.b
    }

    /// The bit form at position `i`, reconstructed from the bitsets.
    #[must_use]
    pub fn form(&self, i: usize) -> BitForm {
        debug_assert!(i < self.b, "digit index out of range");
        BitForm {
            offset: self.offset >> i & 1 == 1,
            mask: self.masks[i],
            s_free: self.s_free >> i & 1 == 1,
        }
    }

    /// Replaces the form at position `i` — the O(1) counterpart of
    /// repacking after `SliceFamily::update_forms_on_fix`.
    pub fn set_form(&mut self, i: usize, f: BitForm) {
        debug_assert!(i < self.b, "digit index out of range");
        let bit = 1u64 << i;
        self.masks[i] = f.mask;
        self.known = self.known & !bit | u64::from(f.is_known()) << i;
        self.offset = self.offset & !bit | u64::from(f.offset) << i;
        self.s_free = self.s_free & !bit | u64::from(f.s_free) << i;
    }

    /// Marginal probability that digit `i` equals 1 — same values as
    /// [`BitForm::prob_one`], read from the bitsets.
    #[inline]
    pub(crate) fn prob_one(&self, i: usize) -> f64 {
        if self.known >> i & 1 == 1 {
            if self.offset >> i & 1 == 1 {
                1.0
            } else {
                0.0
            }
        } else {
            0.5
        }
    }
}

/// The joint pmf of digit `i` of the two inputs, `[q00, q01, q10, q11]` —
/// the same five-case split as [`pair_dist_of_forms`], decided from the SoA
/// bitsets.
///
/// [`pair_dist_of_forms`]: crate::forms::pair_dist_of_forms
#[inline]
pub(crate) fn pmf_at(sx: &Soa, sy: &Soa, i: usize) -> [f64; 4] {
    let kx = sx.known >> i & 1 == 1;
    let ky = sy.known >> i & 1 == 1;
    let ox = sx.offset >> i & 1 == 1;
    let oy = sy.offset >> i & 1 == 1;
    let dist = match (kx, ky) {
        (true, true) => PairDist::BothKnown(ox, oy),
        (true, false) => PairDist::FirstKnown(ox),
        (false, true) => PairDist::SecondKnown(oy),
        (false, false) if sx.masks[i] == sy.masks[i] => PairDist::Correlated(ox ^ oy),
        (false, false) => PairDist::Independent,
    };
    dist.pmf()
}

/// `Pr[z < t]` over the free bits of `forms`, with position `i` replaced by
/// `f` when `over = Some((i, f))`. `t` may be `2^b` (inclusive) → 1.
#[must_use]
pub fn prob_lt_override(forms: &[BitForm], over: Option<(usize, BitForm)>, t: u64) -> f64 {
    match tier() {
        KernelTier::Reference => reference::prob_lt_override(forms, over, t),
        // A single marginal DP has nothing to pair into lanes and no state
        // to reuse; the SIMD and incremental tiers share the SoA path.
        KernelTier::Scalar | KernelTier::Simd | KernelTier::Incremental => {
            scalar::prob_lt(&Soa::pack(forms, over), t)
        }
    }
}

/// `Pr[z < t]` without an override.
#[must_use]
pub fn prob_lt(forms: &[BitForm], t: u64) -> f64 {
    prob_lt_override(forms, None, t)
}

/// `Pr[z_x < t_x ∧ z_y < t_y]` over the shared free seed bits, with
/// per-input single-position overrides.
#[must_use]
pub fn prob_joint_lt_override(
    forms_x: &[BitForm],
    over_x: Option<(usize, BitForm)>,
    t_x: u64,
    forms_y: &[BitForm],
    over_y: Option<(usize, BitForm)>,
    t_y: u64,
) -> f64 {
    match tier() {
        KernelTier::Reference => {
            reference::prob_joint_lt_override(forms_x, over_x, t_x, forms_y, over_y, t_y)
        }
        // One joint DP is one instance; pairing happens at the aggregation
        // entry points (edge_shares, joint_interval).
        KernelTier::Scalar | KernelTier::Simd | KernelTier::Incremental => scalar::prob_joint_lt(
            &Soa::pack(forms_x, over_x),
            t_x,
            &Soa::pack(forms_y, over_y),
            t_y,
        ),
    }
}

/// `Pr[z_x < t_x ∧ z_y < t_y]` without overrides.
#[must_use]
pub fn prob_joint_lt(forms_x: &[BitForm], t_x: u64, forms_y: &[BitForm], t_y: u64) -> f64 {
    prob_joint_lt_override(forms_x, None, t_x, forms_y, None, t_y)
}

/// Joint threshold-coin probabilities `[p00, p01, p10, p11]` with per-input
/// single-position overrides.
#[must_use]
pub fn joint_coin_probs_override(
    forms_x: &[BitForm],
    over_x: Option<(usize, BitForm)>,
    t_x: u64,
    forms_y: &[BitForm],
    over_y: Option<(usize, BitForm)>,
    t_y: u64,
) -> [f64; 4] {
    match tier() {
        KernelTier::Reference => {
            reference::joint_coin_probs_override(forms_x, over_x, t_x, forms_y, over_y, t_y)
        }
        // Stateless call: the incremental tier has no cache here; the
        // scalar path is the measured-fastest stateless evaluation.
        KernelTier::Scalar | KernelTier::Incremental => scalar::joint_coin_probs(
            &Soa::pack(forms_x, over_x),
            t_x,
            &Soa::pack(forms_y, over_y),
            t_y,
        ),
        KernelTier::Simd => simd::joint_coin_probs(
            &Soa::pack(forms_x, over_x),
            t_x,
            &Soa::pack(forms_y, over_y),
            t_y,
        ),
    }
}

/// Joint threshold-coin probabilities without overrides.
#[must_use]
pub fn joint_coin_probs(forms_x: &[BitForm], t_x: u64, forms_y: &[BitForm], t_y: u64) -> [f64; 4] {
    joint_coin_probs_override(forms_x, None, t_x, forms_y, None, t_y)
}

/// [`joint_coin_probs`] on pre-packed inputs — the drivers' scratch forms
/// live in the SoA layout, so no per-call pack happens. Under the
/// `reference` tier this dispatches to the scalar transition, which is
/// proven bit-identical to the reference AoS loop, so `Report` equality
/// across tiers is preserved.
#[must_use]
pub fn joint_coin_probs_packed(sx: &PackedForms, t_x: u64, sy: &PackedForms, t_y: u64) -> [f64; 4] {
    match tier() {
        KernelTier::Reference | KernelTier::Scalar | KernelTier::Incremental => {
            scalar::joint_coin_probs(sx, t_x, sy, t_y)
        }
        KernelTier::Simd => simd::joint_coin_probs(sx, t_x, sy, t_y),
    }
}

/// Conditional expectations of one conflict edge for one seed bit:
/// `[x⁰ share of u, x⁰ share of v, x¹ share of u, x¹ share of v]`.
///
/// `over_u[c]` / `over_v[c]` are the endpoint forms at position `slice`
/// with the seed bit under evaluation fixed to candidate value `c` (the
/// caller computes them via `SliceFamily::form_with_fix`, keeping the
/// kernel independent of the seed layout). This is the innermost function
/// of the whole system — the dominant work of every scenario.
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
    match tier() {
        KernelTier::Reference => reference::edge_shares(
            forms_u, over_u, t_u, k0_inv_u, k1_inv_u, forms_v, over_v, t_v, k0_inv_v, k1_inv_v,
            slice,
        ),
        KernelTier::Scalar => scalar::edge_shares(
            forms_u, over_u, t_u, k0_inv_u, k1_inv_u, forms_v, over_v, t_v, k0_inv_v, k1_inv_v,
            slice,
        ),
        // Stateless call: without a cache the incremental tier uses the
        // candidate-lane SIMD path (measured fastest stateless tier).
        KernelTier::Simd | KernelTier::Incremental => simd::edge_shares(
            forms_u, over_u, t_u, k0_inv_u, k1_inv_u, forms_v, over_v, t_v, k0_inv_v, k1_inv_v,
            slice,
        ),
    }
}

/// [`edge_shares`] with a per-edge DP prefix cache. The Lemma 2.6 drivers
/// own one [`EdgeDpCache`] per conflict edge for the duration of a phase
/// and pass it here per seed bit; under the `incremental` tier the cache
/// skips the invariant leading digits (see [`incremental`]), under every
/// other tier the cache is ignored and the stateless [`edge_shares`] of
/// that tier runs — so forcing a tier still exercises that tier's code.
///
/// Contract (checked in debug builds): the caller fixes seed bits in
/// monotone slice order and reuses one cache per (edge, thresholds) pair;
/// forms at positions `> slice` must not change while `slice` is current.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn edge_shares_cached(
    cache: &mut EdgeDpCache,
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
    match tier() {
        KernelTier::Incremental => incremental::edge_shares(
            cache, forms_u, over_u, t_u, k0_inv_u, k1_inv_u, forms_v, over_v, t_v, k0_inv_v,
            k1_inv_v, slice,
        ),
        _ => edge_shares(
            forms_u, over_u, t_u, k0_inv_u, k1_inv_u, forms_v, over_v, t_v, k0_inv_v, k1_inv_v,
            slice,
        ),
    }
}

/// `Pr[z_u ∈ [ul, uh) ∧ z_v ∈ [vl, vh)]` by inclusion–exclusion over the
/// joint CDF, in the fixed combine order
/// `(J(uh,vh) − J(ul,vh) − J(uh,vl) + J(ul,vl)).max(0)` — the order both
/// the CONGESTED CLIQUE driver and the MPC finisher used before the
/// extraction, so the kernel serves both call sites bit-identically.
#[must_use]
pub fn joint_interval(
    forms_u: &[BitForm],
    ul: u64,
    uh: u64,
    forms_v: &[BitForm],
    vl: u64,
    vh: u64,
) -> f64 {
    match tier() {
        KernelTier::Reference => reference::joint_interval(forms_u, ul, uh, forms_v, vl, vh),
        KernelTier::Scalar => scalar::joint_interval(forms_u, ul, uh, forms_v, vl, vh),
        KernelTier::Simd | KernelTier::Incremental => {
            simd::joint_interval(forms_u, ul, uh, forms_v, vl, vh)
        }
    }
}

/// [`joint_interval`] on pre-packed inputs. The clique/MPC drivers keep
/// their per-candidate scratch forms packed and call this once per digit
/// interval, eliminating the two `PackedForms::pack` loops per call that
/// used to dominate the segmented-derandomization profile. Bit-identity
/// across tiers holds as for [`joint_coin_probs_packed`].
#[must_use]
pub fn joint_interval_packed(
    su: &PackedForms,
    ul: u64,
    uh: u64,
    sv: &PackedForms,
    vl: u64,
    vh: u64,
) -> f64 {
    match tier() {
        KernelTier::Reference | KernelTier::Scalar => {
            scalar::joint_interval_packed(su, ul, uh, sv, vl, vh)
        }
        KernelTier::Simd | KernelTier::Incremental => {
            simd::joint_interval_packed(su, ul, uh, sv, vl, vh)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forms::pair_dist_of_forms;
    use crate::tier::{clear_active_tier, set_active_tier};

    fn form(offset: bool, mask: u64, s_free: bool) -> BitForm {
        BitForm {
            offset,
            mask,
            s_free,
        }
    }

    fn sample_forms() -> (Vec<BitForm>, Vec<BitForm>) {
        let fx = vec![
            form(false, 0b0110, false),
            form(true, 0, false),
            form(false, 0, true),
            form(true, 0b1000, true),
        ];
        let fy = vec![
            form(true, 0b0110, false),
            form(false, 0b0001, false),
            form(true, 0, true),
            form(false, 0b1000, true),
        ];
        (fx, fy)
    }

    #[test]
    fn all_tiers_agree_on_sample() {
        let (fx, fy) = sample_forms();
        let anchor = reference::prob_joint_lt_override(&fx, None, 11, &fy, None, 6);
        for t in KernelTier::all() {
            set_active_tier(t);
            assert_eq!(
                prob_joint_lt(&fx, 11, &fy, 6).to_bits(),
                anchor.to_bits(),
                "tier {}",
                t.name()
            );
            assert_eq!(
                joint_coin_probs(&fx, 11, &fy, 6).map(f64::to_bits),
                reference::joint_coin_probs_override(&fx, None, 11, &fy, None, 6).map(f64::to_bits),
                "tier {}",
                t.name()
            );
        }
        clear_active_tier();
    }

    #[test]
    fn guards_handle_inclusive_thresholds() {
        let (fx, fy) = sample_forms();
        for t in KernelTier::all() {
            set_active_tier(t);
            assert_eq!(prob_joint_lt(&fx, 16, &fy, 16), 1.0);
            assert_eq!(prob_lt(&fx, 16), 1.0);
            assert_eq!(
                prob_joint_lt(&fx, 16, &fy, 5).to_bits(),
                prob_lt(&fy, 5).to_bits()
            );
            assert_eq!(
                prob_joint_lt(&fx, 7, &fy, 16).to_bits(),
                prob_lt(&fx, 7).to_bits()
            );
        }
        clear_active_tier();
    }

    #[test]
    fn pmf_at_matches_pair_dist_of_forms() {
        let (fx, fy) = sample_forms();
        let sx = Soa::pack(&fx, None);
        let sy = Soa::pack(&fy, None);
        for i in 0..fx.len() {
            assert_eq!(
                pmf_at(&sx, &sy, i),
                pair_dist_of_forms(fx[i], fy[i]).pmf(),
                "digit {i}"
            );
        }
    }

    #[test]
    fn packed_form_roundtrip_and_set() {
        let (fx, fy) = sample_forms();
        let mut packed = PackedForms::from_forms(&fx);
        assert_eq!(packed.digits(), fx.len());
        for (i, &f) in fx.iter().enumerate() {
            assert_eq!(packed.form(i), f, "position {i}");
        }
        // Overwrite every position with fy's form; the result must equal a
        // fresh pack of fy, including the known-bit recomputation.
        for (i, &f) in fy.iter().enumerate() {
            packed.set_form(i, f);
        }
        let fresh = PackedForms::from_forms(&fy);
        assert_eq!(packed.known, fresh.known);
        assert_eq!(packed.offset, fresh.offset);
        assert_eq!(packed.s_free, fresh.s_free);
        assert_eq!(packed.masks, fresh.masks);
    }

    #[test]
    fn packed_entry_points_match_aos() {
        let (fx, fy) = sample_forms();
        let sx = PackedForms::from_forms(&fx);
        let sy = PackedForms::from_forms(&fy);
        for t in KernelTier::all() {
            set_active_tier(t);
            for (tx, ty) in [(11u64, 6u64), (16, 6), (3, 16), (16, 16), (0, 9)] {
                assert_eq!(
                    joint_coin_probs_packed(&sx, tx, &sy, ty).map(f64::to_bits),
                    joint_coin_probs(&fx, tx, &fy, ty).map(f64::to_bits),
                    "tier {} t=({tx},{ty})",
                    t.name()
                );
            }
            for (ul, uh, vl, vh) in [(2u64, 9u64, 1u64, 7u64), (0, 16, 3, 12), (5, 5, 0, 16)] {
                assert_eq!(
                    joint_interval_packed(&sx, ul, uh, &sy, vl, vh).to_bits(),
                    joint_interval(&fx, ul, uh, &fy, vl, vh).to_bits(),
                    "tier {} interval ({ul},{uh})x({vl},{vh})",
                    t.name()
                );
            }
        }
        clear_active_tier();
    }
}
