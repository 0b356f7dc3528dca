//! The affine bit forms and pair distributions the digit DP consumes.
//!
//! Moved verbatim from `dcl_derand::slice` (which re-exports them, so
//! existing imports keep working): the kernels crate sits *below*
//! `dcl_derand` in the dependency order, and the DP bodies need these types
//! without a cycle.

/// Affine form of one output bit over the free seed bits of its slice:
/// `bit = offset ⊕ ⟨free r-vars selected by mask⟩ (⊕ s if s_free)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitForm {
    /// XOR of all already-fixed contributions.
    pub offset: bool,
    /// Free positions of `r_i` where the input has a 1 bit.
    pub mask: u64,
    /// Whether `s_i` is still free.
    pub s_free: bool,
}

impl BitForm {
    /// Whether the bit's value is fully determined.
    pub fn is_known(&self) -> bool {
        self.mask == 0 && !self.s_free
    }

    /// Marginal probability that the bit equals 1.
    pub fn prob_one(&self) -> f64 {
        if self.is_known() {
            if self.offset {
                1.0
            } else {
                0.0
            }
        } else {
            0.5
        }
    }
}

/// Joint distribution of a pair of output bits at one position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairDist {
    /// Both bits determined.
    BothKnown(bool, bool),
    /// First bit determined, second uniform.
    FirstKnown(bool),
    /// Second bit determined, first uniform.
    SecondKnown(bool),
    /// First uniform; second = first ⊕ d.
    Correlated(bool),
    /// Jointly uniform on `{0,1}²`.
    Independent,
}

impl PairDist {
    /// Joint pmf as `[q00, q01, q10, q11]` (`q_{uv}` = Pr\[first = u, second = v\]).
    pub fn pmf(&self) -> [f64; 4] {
        match *self {
            PairDist::BothKnown(a, b) => {
                let mut q = [0.0; 4];
                q[(usize::from(a) << 1) | usize::from(b)] = 1.0;
                q
            }
            PairDist::FirstKnown(a) => {
                let mut q = [0.0; 4];
                q[usize::from(a) << 1] = 0.5;
                q[(usize::from(a) << 1) | 1] = 0.5;
                q
            }
            PairDist::SecondKnown(b) => {
                let mut q = [0.0; 4];
                q[usize::from(b)] = 0.5;
                q[2 | usize::from(b)] = 0.5;
                q
            }
            PairDist::Correlated(d) => {
                let mut q = [0.0; 4];
                q[usize::from(d)] = 0.5; // first = 0, second = d
                q[2 | usize::from(!d)] = 0.5; // first = 1, second = !d
                q
            }
            PairDist::Independent => [0.25; 4],
        }
    }
}

/// Joint distribution of two bit forms *from the same slice* (i.e. sharing
/// the slice's free variables under one partial seed).
#[must_use]
pub fn pair_dist_of_forms(fx: BitForm, fy: BitForm) -> PairDist {
    debug_assert_eq!(
        fx.s_free, fy.s_free,
        "forms must come from the same slice and seed"
    );
    match (fx.is_known(), fy.is_known()) {
        (true, true) => PairDist::BothKnown(fx.offset, fy.offset),
        (true, false) => PairDist::FirstKnown(fx.offset),
        (false, true) => PairDist::SecondKnown(fy.offset),
        (false, false) => {
            // Same slice ⇒ the `s_i` coefficient is identical in both forms,
            // so the affine forms coincide as linear maps iff the r-masks do.
            if fx.mask == fy.mask {
                PairDist::Correlated(fx.offset ^ fy.offset)
            } else {
                PairDist::Independent
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREE: BitForm = BitForm {
        offset: false,
        mask: 0b10,
        s_free: false,
    };

    fn known(offset: bool) -> BitForm {
        BitForm {
            offset,
            mask: 0,
            s_free: false,
        }
    }

    #[test]
    fn pmfs_are_distributions() {
        for dist in [
            PairDist::BothKnown(true, false),
            PairDist::FirstKnown(true),
            PairDist::SecondKnown(false),
            PairDist::Correlated(true),
            PairDist::Independent,
        ] {
            let q = dist.pmf();
            assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-15);
            assert!(q.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn pair_dist_case_split() {
        assert_eq!(
            pair_dist_of_forms(known(true), known(false)),
            PairDist::BothKnown(true, false)
        );
        assert_eq!(
            pair_dist_of_forms(known(true), FREE),
            PairDist::FirstKnown(true)
        );
        assert_eq!(
            pair_dist_of_forms(FREE, known(false)),
            PairDist::SecondKnown(false)
        );
        assert_eq!(pair_dist_of_forms(FREE, FREE), PairDist::Correlated(false));
        let other = BitForm {
            offset: true,
            mask: 0b01,
            s_free: false,
        };
        assert_eq!(pair_dist_of_forms(FREE, other), PairDist::Independent);
    }
}
