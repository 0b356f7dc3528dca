//! The kernel tier switch: `incremental` (the default) or `reference`.
//!
//! The decision order is
//!
//! 1. [`set_active_tier`] — an explicit in-process override (tests force
//!    each tier this way without re-spawning); [`clear_active_tier`]
//!    removes it;
//! 2. the `DCL_KERNEL_TIER` environment variable (`reference` or
//!    `incremental`), read once on first use;
//! 3. [`KernelTier::Incremental`].
//!
//! Only two kernels read the switch: `digit_dp::edge_shares_cached` and
//! `argmin::argmin_f64`. Forcing `reference` runs the verbatim reference
//! bodies there, so the whole-pipeline oracle (`tests/kernel_tier_oracle.rs`
//! in the facade crate) checks end to end that the drivers honour the
//! `EdgeDpCache` contract: every `Report` must equal the reference run's.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which body the tier-reading kernels run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// The original call-site code, moved verbatim. Semantic anchor.
    Reference,
    /// The production bodies: the per-edge DP prefix cache
    /// (`digit_dp::incremental`) and the four-lane argmin fold.
    /// Bit-identical to [`KernelTier::Reference`].
    Incremental,
}

impl KernelTier {
    /// Stable lower-case name (`"reference"`, `"incremental"`) — the same
    /// spelling `DCL_KERNEL_TIER` accepts and bench/MachineProfile headers
    /// record.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            KernelTier::Reference => "reference",
            KernelTier::Incremental => "incremental",
        }
    }

    /// The tier spelled `name` (see [`KernelTier::name`]), or `None` for
    /// any other string.
    #[must_use]
    pub fn from_name(name: &str) -> Option<KernelTier> {
        KernelTier::all().into_iter().find(|t| t.name() == name)
    }

    /// Both tiers, reference first. Drives tier-matrix tests.
    #[must_use]
    pub const fn all() -> [KernelTier; 2] {
        [KernelTier::Reference, KernelTier::Incremental]
    }

    fn from_u8(v: u8) -> Option<KernelTier> {
        match v {
            1 => Some(KernelTier::Reference),
            2 => Some(KernelTier::Incremental),
            _ => None,
        }
    }

    const fn as_u8(self) -> u8 {
        match self {
            KernelTier::Reference => 1,
            KernelTier::Incremental => 2,
        }
    }
}

/// 0 = no override; otherwise `KernelTier::as_u8` of the forced tier.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// 0 = env not read yet; `NO_ENV` = read, unset; otherwise the tier.
static ENV: AtomicU8 = AtomicU8::new(0);
const NO_ENV: u8 = u8::MAX;

fn tier_from_env() -> Option<KernelTier> {
    match ENV.load(Ordering::Relaxed) {
        0 => {}
        NO_ENV => return None,
        v => return KernelTier::from_u8(v),
    }
    let decided = std::env::var("DCL_KERNEL_TIER").ok().map(|raw| {
        KernelTier::from_name(&raw).unwrap_or_else(|| {
            panic!("DCL_KERNEL_TIER must be one of reference|incremental, got {raw:?}")
        })
    });
    // A racing first-use stores an identically-derived value.
    ENV.store(decided.map_or(NO_ENV, KernelTier::as_u8), Ordering::Relaxed);
    decided
}

/// The tier in effect: [`set_active_tier`] wins over `DCL_KERNEL_TIER`,
/// which wins over the default [`KernelTier::Incremental`].
#[must_use]
pub fn active_tier() -> KernelTier {
    KernelTier::from_u8(ACTIVE.load(Ordering::Relaxed))
        .or_else(tier_from_env)
        .unwrap_or(KernelTier::Incremental)
}

/// Forces `tier` for the rest of the process (until the next call or
/// [`clear_active_tier`]). Test-matrix entry point: the tier oracle runs
/// each scenario once per tier in a single process through this.
pub fn set_active_tier(tier: KernelTier) {
    ACTIVE.store(tier.as_u8(), Ordering::Relaxed);
}

/// Removes the in-process override, restoring `DCL_KERNEL_TIER` (if set)
/// or the default.
pub fn clear_active_tier() {
    ACTIVE.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(KernelTier::Reference.name(), "reference");
        assert_eq!(KernelTier::Incremental.name(), "incremental");
    }

    #[test]
    fn from_name_roundtrips_and_rejects_unknown() {
        for t in KernelTier::all() {
            assert_eq!(KernelTier::from_name(t.name()), Some(t));
        }
        // The deleted tiers' names and near-misses are not tiers.
        for bad in ["scalar", "simd", "avx2", "", "Reference", " incremental"] {
            assert_eq!(KernelTier::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn set_active_tier_wins_over_default() {
        for t in KernelTier::all() {
            set_active_tier(t);
            assert_eq!(active_tier(), t);
        }
        clear_active_tier();
    }

    #[test]
    fn u8_roundtrip() {
        for t in KernelTier::all() {
            assert_eq!(KernelTier::from_u8(t.as_u8()), Some(t));
        }
        assert_eq!(KernelTier::from_u8(0), None);
        assert_eq!(KernelTier::from_u8(9), None);
    }
}
