//! The `argmin_f64` contract, pinned as tests.
//!
//! Every driver's candidate-selection loop (CONGEST seed bits, CONGESTED
//! CLIQUE colors, MPC colors) funnels through [`dcl_sim::argmin_f64`], so
//! its exact semantics are part of the cross-model determinism story:
//!
//! 1. the **lowest index wins ties** — candidate order is significant and
//!    must not depend on backend or kernel tier;
//! 2. **NaN never wins** — a poisoned score must not hijack the schedule;
//! 3. the result is **identical across `Backend::{Sequential, Parallel}`**
//!    and across both kernel tiers, for arbitrary score vectors.

use dcl_kernels::{clear_active_tier, set_active_tier, KernelTier};
use dcl_par::Pool;
use dcl_sim::argmin_f64;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Tier forcing mutates one process-global; serialize around it.
fn lock_tier() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` once per tier and restores the default dispatch afterwards.
fn per_tier<T>(mut f: impl FnMut() -> T) -> [T; 2] {
    let _guard = lock_tier();
    let out = KernelTier::all().map(|tier| {
        set_active_tier(tier);
        f()
    });
    clear_active_tier();
    out
}

#[test]
fn lowest_index_wins_ties() {
    let scores = [5.0, 2.0, 2.0, 7.0, 2.0];
    for tier_result in per_tier(|| argmin_f64(None, scores.len(), |i| scores[i])) {
        assert_eq!(tier_result, (2.0, 1));
    }
}

#[test]
fn nan_never_wins() {
    // NaN-only input keeps the (INFINITY, 0) identity; mixed input skips
    // the NaNs entirely, wherever they sit.
    for tier_result in per_tier(|| {
        let all_nan = argmin_f64(None, 3, |_| f64::NAN);
        let nan_first = [f64::NAN, 4.0, 3.0];
        let nan_mid = [3.0, f64::NAN, 4.0];
        (
            all_nan,
            argmin_f64(None, 3, |i| nan_first[i]),
            argmin_f64(None, 3, |i| nan_mid[i]),
        )
    }) {
        let (all_nan, first, mid) = tier_result;
        assert_eq!(
            (all_nan.0.to_bits(), all_nan.1),
            (f64::INFINITY.to_bits(), 0)
        );
        assert_eq!(first, (3.0, 2));
        assert_eq!(mid, (3.0, 0));
    }
}

#[test]
fn empty_input_is_the_infinity_identity() {
    for (m, i) in per_tier(|| argmin_f64(None, 0, |_| 0.0)) {
        assert_eq!((m.to_bits(), i), (f64::INFINITY.to_bits(), 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential and parallel backends agree bit for bit, under every
    /// kernel tier, on adversarial score vectors (exact ties via
    /// quantization, NaN, infinities, signed zeros).
    #[test]
    fn backends_and_tiers_agree(
        raw in collection::vec((0u8..8, 0.0f64..1.0), 0..64),
        threads in 2usize..=4,
    ) {
        let scores: Vec<f64> = raw
            .iter()
            .map(|&(code, v)| match code {
                4 => f64::NAN,
                5 => f64::INFINITY,
                6 => 0.0,
                7 => -0.0,
                _ => (v * 8.0).floor() / 8.0,
            })
            .collect();
        let pool = Pool::new(threads);

        let results = per_tier(|| {
            let seq = argmin_f64(None, scores.len(), |i| scores[i]);
            let par = argmin_f64(Some(&pool), scores.len(), |i| scores[i]);
            ((seq.0.to_bits(), seq.1), (par.0.to_bits(), par.1))
        });
        for (tier, (seq, par)) in KernelTier::all().iter().zip(&results) {
            prop_assert_eq!(seq, par, "backend divergence under tier {}", tier.name());
        }
        let anchor = results[0];
        for r in &results {
            prop_assert_eq!(*r, anchor, "tier divergence");
        }

        // The winner is a real argmin: no score is strictly smaller, and
        // no earlier index achieves the same minimum. (With no score below
        // the INFINITY identity the fold never moves and idx stays 0.)
        let (min, idx) = results[0].0;
        let min = f64::from_bits(min);
        if scores.iter().any(|&s| s < f64::INFINITY) {
            prop_assert!(scores.iter().all(|&s| s.is_nan() || s >= min));
            prop_assert!(scores[..idx].iter().all(|&s| s.is_nan() || s > min));
            prop_assert!(scores[idx] == min);
        } else {
            prop_assert_eq!((min.to_bits(), idx), (f64::INFINITY.to_bits(), 0));
        }
    }
}
