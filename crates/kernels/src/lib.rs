//! Numeric kernels for the simulator's hot loops.
//!
//! ~90% of Theorem 1.1 runtime is the Lemma 2.6 per-edge
//! conditional-expectation loop; the rest of the budget is dominated by the
//! drivers' `argmin_f64` candidate selection and the wire-accounting
//! arithmetic. This crate owns those numeric families as *kernels*: one
//! **reference** body per kernel — the code exactly as it lived at its
//! original call site, moved verbatim, the semantic anchor — and at most
//! one **production** body proven bit-identical to it:
//!
//! - the digit DP's SoA evaluation ([`digit_dp::scalar`]) on
//!   [`digit_dp::PackedForms`], which the segmented seed fixing
//!   ([`digit_dp::segment`]) resumes and `joint_coin_probs_packed` runs;
//! - the per-edge DP prefix cache ([`digit_dp::incremental`]): callers
//!   following the monotone seed schedule carry a per-edge
//!   [`digit_dp::EdgeDpCache`], so each seed-bit evaluation replays only
//!   the overridden digit and the trailing digits instead of the full
//!   width;
//! - the four-lane `argmin` fold ([`argmin::scalar`]).
//!
//! Kernels whose measured production body is the reference one (the
//! stateless array-of-structs digit-DP entry points, the bit-accounting
//! and ratio arithmetic) have only that body.
//!
//! # The float-association rule
//!
//! Every body must produce **bit-identical** `f64` results, not merely
//! approximately equal ones: the whole system is property-tested
//! bit-identical across backends, bandwidth caps, and transports, and the
//! kernels tier must not be the layer that breaks that contract. The rule
//! that makes this possible: *a body may reorder independent work, but
//! never the accumulation order of any single float accumulator*. The SoA
//! and incremental digit DPs replay the reference's float operations in
//! the reference's order; `argmin` merges its lanes in a defined
//! lane-order combine. `tests/tier_equivalence.rs` compares each
//! production body with its reference directly, and the facade's
//! `kernel_tier_oracle.rs` checks the whole pipeline.
//!
//! # The tier switch
//!
//! [`tier::active_tier`] is [`KernelTier::Incremental`] unless
//! [`tier::set_active_tier`] or `DCL_KERNEL_TIER=reference|incremental`
//! forces a tier. Only `digit_dp::edge_shares_cached` and
//! `argmin::argmin_f64` read it; under `reference` they run the reference
//! bodies, which is how the whole-pipeline oracle checks that the drivers
//! honour the `EdgeDpCache` contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod argmin;
pub mod bits;
pub mod digit_dp;
pub mod forms;
pub mod ratio;
pub mod tier;

pub use forms::{pair_dist_of_forms, BitForm, PairDist};
pub use tier::{active_tier, clear_active_tier, set_active_tier, KernelTier};
