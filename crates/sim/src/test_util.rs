//! Test helpers (feature `test-util`).
//!
//! The three per-model `tests/backend_equivalence.rs` suites assert the same
//! contract — the parallel backend produces bit-identical results to the
//! sequential one — over model-specific runners. These helpers hold the
//! shared assertion scaffolding; each model's suite shrinks to the runner
//! closures plus the instance strategies.
//!
//! Helpers return `Result<(), String>` rather than panicking so the
//! `proptest!` suites can surface the generated inputs on failure
//! (`.map_err(TestCaseError::Fail)`).
//!
//! [`expect_budget_violation`] stands in for `#[should_panic]`, which only
//! matches string payloads.

use crate::budget::BudgetViolation;
use dcl_par::Backend;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f`, which must raise a [`BudgetViolation`], and returns it.
pub fn expect_budget_violation<R>(f: impl FnOnce() -> R) -> BudgetViolation {
    let payload = catch_unwind(AssertUnwindSafe(f))
        .err()
        .expect("expected a budget violation, but the call returned");
    match payload.downcast::<BudgetViolation>() {
        Ok(violation) => *violation,
        Err(other) => panic!(
            "expected a budget violation, got {:?}",
            dcl_par::panic_message(&*other)
        ),
    }
}

/// Runs `run` under the sequential backend and under `Parallel(threads)` and
/// asserts the outputs are identical (the determinism contract of
/// `DESIGN.md` §5.1). Returns the sequential output for follow-up checks
/// (e.g. proper-coloring validation).
pub fn assert_backend_equivalent<R, F>(threads: usize, run: F) -> Result<R, String>
where
    R: PartialEq + Debug,
    F: Fn(Backend) -> R,
{
    let seq = run(Backend::Sequential);
    let par = run(Backend::Parallel(threads));
    if seq != par {
        return Err(format!(
            "parallel backend ({threads} threads) diverged from sequential:\n  seq: {seq:?}\n  par: {par:?}"
        ));
    }
    Ok(seq)
}

/// Drives `rounds` paired simulator rounds via `step` (which must execute
/// one round on the sequential simulator and one on the parallel simulator
/// and return both inbox sets), asserting the inboxes match each round.
/// Compare final metrics afterwards with [`assert_eq_sides`].
pub fn assert_round_equivalence<I, S>(rounds: usize, mut step: S) -> Result<(), String>
where
    I: PartialEq + Debug,
    S: FnMut() -> (I, I),
{
    for r in 0..rounds {
        let (seq, par) = step();
        if seq != par {
            return Err(format!("round {r}: inboxes diverged between backends"));
        }
    }
    Ok(())
}

/// Asserts one paired observation (metrics, final inboxes, …) matches
/// between the sequential and parallel sides.
pub fn assert_eq_sides<T>(label: &str, seq: T, par: T) -> Result<(), String>
where
    T: PartialEq + Debug,
{
    if seq != par {
        return Err(format!(
            "{label} diverged between backends:\n  seq: {seq:?}\n  par: {par:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_runs_pass_and_return_the_sequential_result() {
        let out = assert_backend_equivalent(3, |b| b.threads() >= 1).unwrap();
        assert!(out);
    }

    #[test]
    fn divergent_runs_report_both_sides() {
        let err = assert_backend_equivalent(2, |b| b.threads()).unwrap_err();
        assert!(err.contains("seq: 1"));
        assert!(err.contains("par: 2"));
    }

    #[test]
    fn round_equivalence_flags_the_failing_round() {
        let mut n = 0u32;
        let err = assert_round_equivalence(3, || {
            n += 1;
            (n, if n == 2 { 99 } else { n })
        })
        .unwrap_err();
        assert!(err.contains("round 1"));
    }

    #[test]
    fn eq_sides_labels_the_divergence() {
        assert!(assert_eq_sides("metrics", 1, 1).is_ok());
        let err = assert_eq_sides("metrics", 1, 2).unwrap_err();
        assert!(err.contains("metrics diverged"));
    }
}
