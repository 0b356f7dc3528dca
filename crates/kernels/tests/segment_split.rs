//! The segment split of the digit DPs against the unsplit scalar DPs.
//!
//! `digit_dp::segment` splits the joint and marginal DPs around one seed
//! segment: a prefix over the untouched digits `≥ lo` built from the
//! segment's base forms, a resume over the touched digits `hi .. lo` of a
//! candidate's forms, and a compiled suffix over the known digits `< hi`.
//! For every split of every drawn input, that composition must equal the
//! unsplit scalar DP on the candidate's forms bit for bit — including
//! thresholds `0` and `2^b`, equal masks, and the fallback where a digit
//! below `hi` is not known (no suffix is compiled then). The four-corner
//! interval combine must also equal the reference interval
//! (`reference::joint_interval`).

use dcl_kernels::digit_dp::segment::{interval, JointSplit, MarginalSplit};
use dcl_kernels::digit_dp::{reference, scalar, PackedForms};
use dcl_kernels::BitForm;
use proptest::prelude::*;

/// One digit of a same-slice form pair from raw generator words: known
/// with probability 1/4, otherwise free with independent 4-bit masks, or
/// equal masks when `corr` is set (the correlated case).
fn digit_pair(raw: u64, corr: bool) -> (BitForm, BitForm) {
    let known = raw & 3 == 0;
    let s_free = !known && raw >> 2 & 1 == 1;
    let (mx, my) = if known {
        (0, 0)
    } else {
        let mx = raw >> 3 & 0xf;
        (mx, if corr { mx } else { raw >> 7 & 0xf })
    };
    // A free form needs a free variable: fall back to a free `s` bit.
    let s_free = s_free || (!known && (mx == 0 || my == 0));
    let form = |offset: bool, mask: u64| BitForm {
        offset,
        mask,
        s_free,
    };
    (form(raw >> 11 & 1 == 1, mx), form(raw >> 12 & 1 == 1, my))
}

/// A known digit pair with the given offsets.
fn known_pair(raw: u64) -> (BitForm, BitForm) {
    let form = |offset: bool| BitForm {
        offset,
        mask: 0,
        s_free: false,
    };
    (form(raw & 1 == 1), form(raw >> 1 & 1 == 1))
}

/// `b` digit pairs: digits below `floor` known, the rest drawn by
/// [`digit_pair`] (so some of them may be known too).
fn draw_forms(b: usize, floor: usize, raws: &[u64], corr: u64) -> (Vec<BitForm>, Vec<BitForm>) {
    (0..b)
        .map(|i| {
            if i < floor {
                known_pair(raws[i])
            } else {
                digit_pair(raws[i], corr >> i & 1 == 1)
            }
        })
        .unzip()
}

/// Thresholds in `0 ..= 2^b`, biased toward the edge cases `0` and `2^b`.
fn threshold(raw: u64, b: usize) -> u64 {
    let full = 1u64 << b;
    match raw % 8 {
        0 => 0,
        1 => full,
        _ => (raw >> 3) % (full + 1),
    }
}

/// `base` with the digits `hi .. lo` taken from `alt`: a candidate's forms,
/// which differ from the segment base only on the touched digits.
fn candidate(base: &[BitForm], alt: &[BitForm], lo: usize, hi: usize) -> PackedForms {
    let forms: Vec<BitForm> = (0..base.len())
        .map(|i| {
            if (hi..lo).contains(&i) {
                alt[i]
            } else {
                base[i]
            }
        })
        .collect();
    PackedForms::from_forms(&forms)
}

/// The unpacked forms of `packed`, for the array-of-structs reference.
fn forms_of(packed: &PackedForms) -> Vec<BitForm> {
    (0..packed.digits()).map(|i| packed.form(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// prefix(base) + resume(candidate) + compiled suffix equals the
    /// unsplit scalar DP on the candidate, for every split `hi ≤ lo`.
    #[test]
    fn split_equals_the_unsplit_scalar_dp(
        b in 1usize..=16,
        floor_raw in any::<u64>(),
        raws in proptest::collection::vec(any::<u64>(), 16),
        alt_raws in proptest::collection::vec(any::<u64>(), 16),
        corr in any::<u64>(),
        ts in any::<u64>(),
        same_t in any::<bool>(),
    ) {
        let floor = (floor_raw % (b as u64 + 1)) as usize;
        let (bx, by) = draw_forms(b, floor, &raws, corr);
        let (ax, ay) = draw_forms(b, 0, &alt_raws, corr >> 16);
        let t_x = threshold(ts, b);
        let t_y = if same_t { t_x } else { threshold(ts >> 32, b) };
        let (px, py) = (PackedForms::from_forms(&bx), PackedForms::from_forms(&by));
        for lo in 0..=b {
            for hi in 0..=lo {
                let (cx, cy) = (candidate(&bx, &ax, lo, hi), candidate(&by, &ay, lo, hi));
                let joint = JointSplit::new(&px, t_x, &py, t_y, lo, hi).resume(&cx, &cy);
                prop_assert_eq!(
                    joint.to_bits(),
                    scalar::prob_joint_lt(&cx, t_x, &cy, t_y).to_bits(),
                    "joint, split {}..{}, t = ({}, {})", hi, lo, t_x, t_y
                );
                let marginal = MarginalSplit::new(&px, t_x, lo, hi).resume(&cx);
                prop_assert_eq!(
                    marginal.to_bits(),
                    scalar::prob_lt(&cx, t_x).to_bits(),
                    "marginal, split {}..{}, t = {}", hi, lo, t_x
                );
            }
        }
    }

    /// The fallback: a digit below `hi` is not known, so no suffix is
    /// compiled and the resume runs down to digit 0.
    #[test]
    fn split_falls_back_when_a_low_digit_is_free(
        b in 2usize..=16,
        raws in proptest::collection::vec(any::<u64>(), 16),
        alt_raws in proptest::collection::vec(any::<u64>(), 16),
        free_raw in any::<u64>(),
        ts in any::<u64>(),
    ) {
        let (mut bx, by) = draw_forms(b, b, &raws, 0);
        let (ax, ay) = draw_forms(b, 0, &alt_raws, 0);
        // Digit `free` of x is free in the base, below every `hi` tried.
        let free = (free_raw % (b as u64 - 1)) as usize;
        bx[free] = BitForm { offset: false, mask: 0b1, s_free: true };
        let (t_x, t_y) = (threshold(ts, b), threshold(ts >> 32, b));
        let (px, py) = (PackedForms::from_forms(&bx), PackedForms::from_forms(&by));
        for lo in free + 1..=b {
            for hi in free + 1..=lo {
                let (cx, cy) = (candidate(&bx, &ax, lo, hi), candidate(&by, &ay, lo, hi));
                prop_assert_eq!(
                    JointSplit::new(&px, t_x, &py, t_y, lo, hi).resume(&cx, &cy).to_bits(),
                    scalar::prob_joint_lt(&cx, t_x, &cy, t_y).to_bits(),
                    "joint fallback, split {}..{}", hi, lo
                );
                prop_assert_eq!(
                    MarginalSplit::new(&px, t_x, lo, hi).resume(&cx).to_bits(),
                    scalar::prob_lt(&cx, t_x).to_bits(),
                    "marginal fallback, split {}..{}", hi, lo
                );
            }
        }
    }

    /// The four-corner combine over split corners equals the reference
    /// interval on the candidate's forms.
    #[test]
    fn interval_combine_matches_reference(
        b in 1usize..=16,
        floor_raw in any::<u64>(),
        raws in proptest::collection::vec(any::<u64>(), 16),
        alt_raws in proptest::collection::vec(any::<u64>(), 16),
        corr in any::<u64>(),
        bounds in any::<u64>(),
        split_raw in any::<u64>(),
    ) {
        let floor = (floor_raw % (b as u64 + 1)) as usize;
        let (bx, by) = draw_forms(b, floor, &raws, corr);
        let (ax, ay) = draw_forms(b, 0, &alt_raws, corr >> 16);
        let lo = (split_raw % (b as u64 + 1)) as usize;
        let hi = ((split_raw >> 8) % (lo as u64 + 1)) as usize;
        let mut u = [threshold(bounds, b), threshold(bounds >> 16, b)];
        let mut v = [threshold(bounds >> 32, b), threshold(bounds >> 48, b)];
        u.sort_unstable();
        v.sort_unstable();
        let (px, py) = (PackedForms::from_forms(&bx), PackedForms::from_forms(&by));
        let (cx, cy) = (candidate(&bx, &ax, lo, hi), candidate(&by, &ay, lo, hi));
        let corner = |a: u64, c: u64| JointSplit::new(&px, a, &py, c, lo, hi).resume(&cx, &cy);
        let combined = interval([
            corner(u[1], v[1]),
            corner(u[0], v[1]),
            corner(u[1], v[0]),
            corner(u[0], v[0]),
        ]);
        let (fx, fy) = (forms_of(&cx), forms_of(&cy));
        let oracle = reference::joint_interval(&fx, u[0], u[1], &fy, v[0], v[1]);
        prop_assert_eq!(
            combined.to_bits(),
            oracle.to_bits(),
            "interval [{}, {}) x [{}, {}), split {}..{}",
            u[0], u[1], v[0], v[1], hi, lo
        );
    }
}
