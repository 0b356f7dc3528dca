//! `argmin` over `f64` scores with lowest-index tie-break.
//!
//! The contract (pinned by `tests/argmin_contract.rs` here and in
//! `dcl_sim`): the result is `(best_score, best_index)` under strict `<`
//! from the seed `(f64::INFINITY, 0)` — the lowest index wins exact ties,
//! `NaN` never wins (strict `<` is false), and an empty or all-`NaN` input
//! returns `(f64::INFINITY, 0)`. Every leader decision in every scenario
//! rides on this reduction, so both bodies must agree bitwise.
//!
//! The production body ([`scalar`]) folds four interleaved accumulator
//! lanes (index classes `i mod 4`) and merges them in lane order with the
//! lexicographic rule `(v < best) ∨ (v = best ∧ i < best_i)`; trailing
//! elements fold after the merge with strict `<`. This is equivalent to
//! the reference scan: each lane retains the lowest index attaining its
//! lane minimum, the merge picks the lowest index attaining the global
//! minimum, and the remainder holds strictly larger indices. The `=`
//! comparison also makes the `±0.0` equality class tie-break by index,
//! matching the scan (which keeps the first-seen zero of either sign).

use crate::tier::{active_tier, KernelTier};

/// Argmin over a score slice. Returns `(f64::INFINITY, 0)` for an empty
/// slice. Runs the four-lane [`scalar`] fold, or the [`reference()`] scan
/// when the reference tier is forced.
#[must_use]
pub fn argmin_f64(scores: &[f64]) -> (f64, usize) {
    match active_tier() {
        KernelTier::Reference => reference(scores),
        KernelTier::Incremental => scalar(scores),
    }
}

/// The original sequential scan, moved verbatim from
/// `dcl_sim::argmin_f64`'s inner loop.
#[must_use]
pub fn reference(scores: &[f64]) -> (f64, usize) {
    let mut best = (f64::INFINITY, 0usize);
    for (i, &s) in scores.iter().enumerate() {
        if s < best.0 {
            best = (s, i);
        }
    }
    best
}

/// Four-accumulator unrolled scan: a strict-`<` fold per index class
/// `i mod 4`, the lane-order merge, then the tail. Allocation-free.
#[must_use]
pub fn scalar(scores: &[f64]) -> (f64, usize) {
    let chunks = scores.len() / 4 * 4;
    let mut lanes = [(f64::INFINITY, 0usize); 4];
    let mut i = 0;
    while i < chunks {
        for l in 0..4 {
            let s = scores[i + l];
            if s < lanes[l].0 {
                lanes[l] = (s, i + l);
            }
        }
        i += 4;
    }
    let mut best = (f64::INFINITY, 0usize);
    for (v, i) in lanes {
        if v < best.0 || (v == best.0 && i < best.1) {
            best = (v, i);
        }
    }
    // Tail indices exceed every lane index, so strict `<` suffices.
    for (off, &s) in scores[chunks..].iter().enumerate() {
        if s < best.0 {
            best = (s, chunks + off);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_all_nan() {
        for f in [reference, scalar, argmin_f64] {
            assert_eq!(f(&[]), (f64::INFINITY, 0));
            let (v, i) = f(&[f64::NAN; 9]);
            assert!(v.is_infinite() && v > 0.0);
            assert_eq!(i, 0);
        }
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let scores = [3.0, 1.0, 2.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0];
        for f in [reference, scalar, argmin_f64] {
            assert_eq!(f(&scores), (1.0, 1));
        }
    }

    #[test]
    fn signed_zero_ties_keep_first_seen_value() {
        let scores = [2.0, 0.0, -0.0, 1.0, -0.0, 0.0, 4.0, 9.0, 9.0];
        let anchor = reference(&scores);
        assert_eq!(anchor.1, 1);
        for f in [scalar, argmin_f64] {
            let got = f(&scores);
            assert_eq!(got.1, anchor.1);
            assert_eq!(got.0.to_bits(), anchor.0.to_bits());
        }
    }

    #[test]
    fn minimum_in_tail_wins() {
        let mut scores = vec![5.0; 13];
        scores[12] = -1.0;
        for f in [reference, scalar, argmin_f64] {
            assert_eq!(f(&scores), (-1.0, 12));
        }
    }

    #[test]
    fn fold_matches_scan_at_every_length_and_position() {
        // Every lane/tail boundary up to three full chunks plus a tail: the
        // minimum alone, tied with a later copy, and behind a leading NaN.
        for len in 1..=15usize {
            for pos in 0..len {
                let mut scores: Vec<f64> = (0..len).map(|i| 10.0 + (i % 3) as f64).collect();
                scores[pos] = -2.0;
                let want = (-2.0, pos);
                assert_eq!(scalar(&scores), want, "len {len} pos {pos}");
                for later in pos + 1..len {
                    let mut tied = scores.clone();
                    tied[later] = -2.0;
                    assert_eq!(scalar(&tied), want, "len {len} tie {pos},{later}");
                }
                if pos > 0 {
                    scores[0] = f64::NAN;
                    assert_eq!(scalar(&scores), want, "len {len} pos {pos} after NaN");
                    assert_eq!(reference(&scores), want);
                }
            }
        }
    }
}
