//! The Lemma 2.6 pair-probability digit DP and its per-edge aggregation.
//!
//! This is ~90% of Theorem 1.1 runtime: every conflict edge × every seed
//! bit × both candidate values runs the exact `O(b)` digit DP over the
//! joint distribution of two hash outputs. The public functions here pick
//! the body; the bodies live in the submodules:
//!
//! - [`mod@reference`] — `SliceFamily::{prob_lt_override,
//!   prob_joint_lt_override, joint_coin_probs_override}` and the drivers'
//!   edge aggregation, moved verbatim from `dcl_derand::slice` /
//!   `dcl_core::derand_step`. The stateless array-of-structs entry points
//!   ([`prob_lt`], [`prob_joint_lt`], [`joint_coin_probs`],
//!   [`edge_shares`] and their `_override` forms) are these bodies: none
//!   has a hot caller.
//! - [`scalar`] — the same DPs on the struct-of-arrays layout
//!   ([`PackedForms`]: `mask` array + `known`/`offset` bitsets), the
//!   per-digit case split resolved by integer bit tests, and the DP
//!   transition replaying the reference's float operations in the
//!   reference's order — bit-identical by construction.
//!   [`joint_coin_probs_packed`] runs it, and [`segment`] resumes its
//!   per-digit steps.
//! - [`incremental`] — stateful prefix-cached evaluation for callers that
//!   fix seed bits in the monotone slice schedule ([`EdgeDpCache`]): the
//!   DP state over the leading digits `b-1..s+1` is invariant for the
//!   whole window of slice `s`, so each evaluation replays only the
//!   overridden digit plus the trailing `s` digits, in the reference
//!   association order. Bit-identical because the cached prefix is a
//!   literal memo of the reference computation's first `b-1-s` steps.
//!   [`edge_shares_cached`] runs it unless the `reference` tier is forced
//!   — the only digit-DP call that reads the tier switch.
//! - [`segment`] — the SoA DPs split around one seed segment (prefix over
//!   the untouched high digits, resume over the touched ones, compiled
//!   suffix over the fixed low digits) for the segmented seed fixing of
//!   the CONGESTED CLIQUE and MPC drivers.
//!
//! Thresholds may be up to `2^b` *inclusive* (the reference's guard
//! clauses); `b` is the forms-slice length, at most 63 (`SliceFamily`
//! enforces this upstream).

use crate::forms::BitForm;
use crate::tier::{active_tier, KernelTier};

pub mod incremental;
pub mod reference;
pub mod scalar;
pub mod segment;

pub use incremental::EdgeDpCache;
pub use reference::{
    edge_shares, joint_coin_probs_override, prob_joint_lt_override, prob_lt_override,
};

/// SoA repack of one input's `b` bit forms: the free-variable masks as an
/// array, the known/offset/s-free flags as bitsets. The [`scalar`] and
/// [`segment`] DPs read digits from this layout with integer bit tests
/// instead of per-position struct loads, and the drivers keep one
/// `PackedForms` per node updated in place across seed fixes
/// (`SliceFamily::update_packed_on_fix`), so no per-call pack loop runs on
/// the hot path.
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

impl PackedForms {
    /// Packs `forms` (index `i` = output bit `i`). Panics in debug builds
    /// when `forms.len() ≥ 64`.
    #[must_use]
    pub fn from_forms(forms: &[BitForm]) -> PackedForms {
        debug_assert!(forms.len() < 64, "digit DP supports at most 63 digits");
        let mut s = PackedForms {
            b: forms.len(),
            masks: [0; 64],
            known: 0,
            offset: 0,
            s_free: 0,
        };
        for (i, &f) in forms.iter().enumerate() {
            s.set_form(i, f);
        }
        s
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

/// `Pr[z < t]` without an override.
#[must_use]
pub fn prob_lt(forms: &[BitForm], t: u64) -> f64 {
    prob_lt_override(forms, None, t)
}

/// `Pr[z_x < t_x ∧ z_y < t_y]` without overrides.
#[must_use]
pub fn prob_joint_lt(forms_x: &[BitForm], t_x: u64, forms_y: &[BitForm], t_y: u64) -> f64 {
    prob_joint_lt_override(forms_x, None, t_x, forms_y, None, t_y)
}

/// Joint threshold-coin probabilities without overrides.
#[must_use]
pub fn joint_coin_probs(forms_x: &[BitForm], t_x: u64, forms_y: &[BitForm], t_y: u64) -> [f64; 4] {
    joint_coin_probs_override(forms_x, None, t_x, forms_y, None, t_y)
}

/// [`joint_coin_probs`] on pre-packed inputs: the SoA body
/// ([`scalar::joint_coin_probs`]), proven bit-identical to the reference.
#[must_use]
pub fn joint_coin_probs_packed(sx: &PackedForms, t_x: u64, sy: &PackedForms, t_y: u64) -> [f64; 4] {
    scalar::joint_coin_probs(sx, t_x, sy, t_y)
}

/// [`edge_shares`] with a per-edge DP prefix cache — the innermost function
/// of the whole system. The Lemma 2.6 drivers own one [`EdgeDpCache`] per
/// conflict edge for the duration of a phase and pass it here per seed
/// bit. Under the default `incremental` tier the cache skips the invariant
/// leading digits (see [`incremental`]); under a forced `reference` tier
/// the cache is ignored and the reference body runs.
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
    match active_tier() {
        KernelTier::Incremental => incremental::edge_shares(
            cache, forms_u, over_u, t_u, k0_inv_u, k1_inv_u, forms_v, over_v, t_v, k0_inv_v,
            k1_inv_v, slice,
        ),
        KernelTier::Reference => reference::edge_shares(
            forms_u, over_u, t_u, k0_inv_u, k1_inv_u, forms_v, over_v, t_v, k0_inv_v, k1_inv_v,
            slice,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn cached_edge_shares_agree_under_both_tiers() {
        let (fx, fy) = sample_forms();
        let over_u = [form(false, 0, false), form(true, 0, false)];
        let over_v = [form(true, 0, false), form(false, 0, false)];
        for slice in 0..fx.len() {
            let anchor = reference::edge_shares(
                &fx, over_u, 11, 0.25, 0.5, &fy, over_v, 6, 0.125, 0.2, slice,
            );
            for t in KernelTier::all() {
                set_active_tier(t);
                let mut cache = EdgeDpCache::new();
                let got = edge_shares_cached(
                    &mut cache, &fx, over_u, 11, 0.25, 0.5, &fy, over_v, 6, 0.125, 0.2, slice,
                );
                assert_eq!(
                    got.map(f64::to_bits),
                    anchor.map(f64::to_bits),
                    "tier {} slice {slice}",
                    t.name()
                );
            }
        }
        clear_active_tier();
    }

    #[test]
    fn guards_handle_inclusive_thresholds() {
        let (fx, fy) = sample_forms();
        let (sx, sy) = (PackedForms::from_forms(&fx), PackedForms::from_forms(&fy));
        assert_eq!(prob_joint_lt(&fx, 16, &fy, 16), 1.0);
        assert_eq!(scalar::prob_joint_lt(&sx, 16, &sy, 16), 1.0);
        assert_eq!(prob_lt(&fx, 16), 1.0);
        assert_eq!(scalar::prob_lt(&sx, 16), 1.0);
        assert_eq!(
            prob_joint_lt(&fx, 16, &fy, 5).to_bits(),
            prob_lt(&fy, 5).to_bits()
        );
        assert_eq!(
            scalar::prob_joint_lt(&sx, 7, &sy, 16).to_bits(),
            prob_lt(&fx, 7).to_bits()
        );
    }

    #[test]
    fn pmf_at_matches_pair_dist_of_forms() {
        // One joint step from `[ee, el, le, ll] = [1, 0, 0, 0]` with both
        // threshold digits set lands the digit's pmf in the state as
        // `[q11, q10, q01, q00]`, so the SoA case split is read off exactly.
        // The pairs cover all five `PairDist` cases.
        let free = |offset, mask| form(offset, mask, false);
        let known = |offset| form(offset, 0, false);
        let pairs = [
            (known(true), known(false)),
            (known(false), free(false, 0b01)),
            (free(true, 0b01), known(true)),
            (free(false, 0b11), free(true, 0b11)),
            (form(true, 0, true), form(true, 0, true)),
            (free(false, 0b01), free(false, 0b10)),
        ];
        let (fx, fy): (Vec<BitForm>, Vec<BitForm>) = pairs.into_iter().unzip();
        let (sx, sy) = (PackedForms::from_forms(&fx), PackedForms::from_forms(&fy));
        for i in 0..fx.len() {
            let mut st = [1.0, 0.0, 0.0, 0.0];
            scalar::joint_step(&mut st, &sx, 1 << i, &sy, 1 << i, i);
            let [q00, q01, q10, q11] = crate::forms::pair_dist_of_forms(fx[i], fy[i]).pmf();
            assert_eq!(st, [q11, q10, q01, q00], "digit {i}");
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
        for (tx, ty) in [(11u64, 6u64), (16, 6), (3, 16), (16, 16), (0, 9)] {
            assert_eq!(
                joint_coin_probs_packed(&sx, tx, &sy, ty).map(f64::to_bits),
                joint_coin_probs(&fx, tx, &fy, ty).map(f64::to_bits),
                "t=({tx},{ty})"
            );
        }
        for (ul, uh, vl, vh) in [(2u64, 9u64, 1u64, 7u64), (0, 16, 3, 12), (5, 5, 0, 16)] {
            let j = |a: u64, b: u64| scalar::prob_joint_lt(&sx, a, &sy, b);
            let packed = segment::interval([j(uh, vh), j(ul, vh), j(uh, vl), j(ul, vl)]);
            assert_eq!(
                packed.to_bits(),
                reference::joint_interval(&fx, ul, uh, &fy, vl, vh).to_bits(),
                "interval ({ul},{uh})x({vl},{vh})"
            );
        }
    }
}
