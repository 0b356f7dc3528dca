//! The scalar digit DPs split around one seed segment — the kernel of the
//! segmented seed fixing in the CONGESTED CLIQUE and MPC drivers.
//!
//! # The split
//!
//! The drivers fix the shared seed `λ` bits at a time, slices from the
//! least significant up, and score all `2^λ` values of the segment. A
//! segment only touches the slices (= digits) `hi .. lo`, where `hi` is the
//! slice of its first seed bit and `lo` is one above the slice of its last.
//! The DP walks digits from the most significant down, so it splits into
//! three parts:
//!
//! - a **prefix** over digits `b-1 ..= lo`, which no seed bit has touched
//!   yet: the state after them is the same for every candidate and is
//!   built once per segment ([`JointSplit::new`], [`MarginalSplit::new`]);
//! - a **resume** over the touched digits `lo-1 ..= hi`, the only work
//!   that differs between candidates ([`JointSplit::resume`],
//!   [`MarginalSplit::resume`]);
//! - a **compiled suffix** for digits `hi-1 ..= 0`. Every seed bit of those
//!   slices is fixed, so both inputs' digits there are known.
//!
//! # Why the compiled suffix is bit-identical
//!
//! With both digits known the pmf has one entry of probability `1.0`, so a
//! DP step multiplies by exactly `1.0` and adds into accumulators that
//! start at exactly `+0.0`. Every state value is a finite non-negative
//! sum, so `0.0 + x = x`, `x · 1.0 = x` and `x + 0.0 = x` hold bit for bit:
//! the only float operations with an effect are additions of two incoming
//! values. Which incoming values reach the final `ll`, and in which
//! association, depends only on the digit at which each input first
//! differs from its threshold — which makes the suffix one of six fixed
//! trees of at most three additions over the four incoming state values
//! (`Tail`). Evaluating that tree replays the loop's additions in the
//! loop's association. The marginal suffix is the one-addition case
//! `p_lt + p_eq` or nothing.
//!
//! The prefix and resume reuse the SoA DP's per-digit steps, so the
//! whole split replays [`prob_joint_lt`](super::scalar::prob_joint_lt) /
//! [`prob_lt`](super::scalar::prob_lt)
//! operation for operation (`tests/segment_split.rs` checks this with
//! `to_bits`). When a digit below `hi` is not known for both inputs, no
//! suffix is compiled and the resume walks down to digit 0 instead.

use super::scalar::{joint_step, marg_step};
use super::PackedForms;

/// `Pr[z_u ∈ [ul, uh) ∧ z_v ∈ [vl, vh)]` from its four joint-CDF corners
/// `[J(uh, vh), J(ul, vh), J(uh, vl), J(ul, vl)]`, by inclusion–exclusion
/// in the one combine order every interval caller uses.
#[inline]
#[must_use]
pub fn interval(j: [f64; 4]) -> f64 {
    (j[0] - j[1] - j[2] + j[3]).max(0.0)
}

/// Bits `0 .. hi` set.
#[inline]
fn low_mask(hi: usize) -> u64 {
    (1u64 << hi) - 1
}

/// The highest digit below `hi` where the known digits `z` differ from
/// `t`, if `z < t` there — i.e. the digit at which the input becomes less
/// than its threshold. `None` when it stays equal or becomes greater.
#[inline]
fn becomes_less(z: u64, t: u64, hi: usize) -> Option<u32> {
    let diff = (z ^ t) & low_mask(hi);
    if diff == 0 {
        return None;
    }
    let top = 63 - diff.leading_zeros();
    (t >> top & 1 == 1).then_some(top)
}

/// Compiled joint suffix: which incoming state values `[ee, el, le, ll]`
/// reach the final `ll` over the known digits, in the DP's association.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// Neither input becomes less: `ll`. Also the fallback, where the
    /// resume already ran down to digit 0.
    Ll,
    /// Only `x` becomes less: `el + ll`.
    El,
    /// Only `y` becomes less: `le + ll`.
    Le,
    /// Both become less at the same digit: `((ee + el) + le) + ll`.
    Same,
    /// `x` becomes less at a higher digit than `y`: `(ee + le) + (el + ll)`.
    XFirst,
    /// `y` becomes less at a higher digit than `x`: `(ee + el) + (le + ll)`.
    YFirst,
}

impl Tail {
    #[inline]
    fn eval(self, [ee, el, le, ll]: [f64; 4]) -> f64 {
        match self {
            Tail::Ll => ll,
            Tail::El => el + ll,
            Tail::Le => le + ll,
            Tail::Same => ee + el + le + ll,
            Tail::XFirst => (ee + le) + (el + ll),
            Tail::YFirst => (ee + el) + (le + ll),
        }
    }
}

/// The joint suffix over digits `hi-1 ..= 0`, or `None` when one of them
/// is not known for both inputs.
fn compile_tail(sx: &PackedForms, t_x: u64, sy: &PackedForms, t_y: u64, hi: usize) -> Option<Tail> {
    let low = low_mask(hi);
    if sx.known & sy.known & low != low {
        return None;
    }
    let tail = match (
        becomes_less(sx.offset, t_x, hi),
        becomes_less(sy.offset, t_y, hi),
    ) {
        (None, None) => Tail::Ll,
        (Some(_), None) => Tail::El,
        (None, Some(_)) => Tail::Le,
        (Some(dx), Some(dy)) => match dx.cmp(&dy) {
            std::cmp::Ordering::Equal => Tail::Same,
            std::cmp::Ordering::Greater => Tail::XFirst,
            std::cmp::Ordering::Less => Tail::YFirst,
        },
    };
    Some(tail)
}

/// `Pr[z < t]` split around one segment: the prefix state over digits
/// `≥ lo` plus the compiled suffix below `hi`, ready to be resumed over
/// the touched digits of each candidate's forms.
#[derive(Debug, Clone, Copy)]
pub struct MarginalSplit {
    t: u64,
    /// `[p_eq, p_lt]` after the digits `≥ lo` (`[0, 1]` when `t ≥ 2^b`).
    state: [f64; 2],
    /// The resume walks digits `lo-1 ..= stop`.
    lo: usize,
    stop: usize,
    /// Compiled suffix: whether `p_eq` is added into `p_lt`.
    add_eq: bool,
}

impl MarginalSplit {
    /// Builds the prefix over digits `≥ lo` of `s` and compiles the suffix
    /// below `hi` (`hi ≤ lo ≤ b`). `s` must agree with every form later
    /// passed to [`MarginalSplit::resume`] outside the digits `hi .. lo`.
    #[must_use]
    pub fn new(s: &PackedForms, t: u64, lo: usize, hi: usize) -> Self {
        debug_assert!(hi <= lo && lo <= s.b, "split {hi}..{lo} outside 0..{}", s.b);
        if t >= 1 << s.b {
            // The scalar guard: a saturated threshold is certain.
            return MarginalSplit {
                t,
                state: [0.0, 1.0],
                lo: 0,
                stop: 0,
                add_eq: false,
            };
        }
        let mut state = [1.0f64, 0.0f64];
        for i in (lo..s.b).rev() {
            marg_step(&mut state, s, t, i);
        }
        let known = s.known & low_mask(hi) == low_mask(hi);
        MarginalSplit {
            t,
            state,
            lo,
            stop: if known { hi } else { 0 },
            add_eq: known && becomes_less(s.offset, t, hi).is_some(),
        }
    }

    /// `Pr[z < t]` for one candidate's forms `s`: only the digits
    /// `hi .. lo` (all digits below `lo` in the fallback) are read.
    #[inline]
    #[must_use]
    pub fn resume(&self, s: &PackedForms) -> f64 {
        let mut st = self.state;
        for i in (self.stop..self.lo).rev() {
            marg_step(&mut st, s, self.t, i);
        }
        if self.add_eq {
            st[1] + st[0]
        } else {
            st[1]
        }
    }
}

/// `Pr[z_x < t_x ∧ z_y < t_y]` split around one segment (see the module
/// docs). A saturated threshold reduces to the other input's marginal, as
/// in [`prob_joint_lt`](super::scalar::prob_joint_lt).
#[derive(Debug, Clone, Copy)]
pub struct JointSplit(JointKind);

#[derive(Debug, Clone, Copy)]
enum JointKind {
    Joint {
        t_x: u64,
        t_y: u64,
        /// `[ee, el, le, ll]` after the digits `≥ lo`.
        state: [f64; 4],
        lo: usize,
        stop: usize,
        tail: Tail,
    },
    /// `t_x ≥ 2^b`: the value is `Pr[z_y < t_y]` (1 if both saturate).
    OnlyY(MarginalSplit),
    /// `t_y ≥ 2^b`: the value is `Pr[z_x < t_x]`.
    OnlyX(MarginalSplit),
}

impl JointSplit {
    /// Builds the prefix over digits `≥ lo` of `sx`, `sy` and compiles the
    /// suffix below `hi` (`hi ≤ lo ≤ b`). The inputs must agree with every
    /// pair later passed to [`JointSplit::resume`] outside the digits
    /// `hi .. lo`.
    #[must_use]
    pub fn new(
        sx: &PackedForms,
        t_x: u64,
        sy: &PackedForms,
        t_y: u64,
        lo: usize,
        hi: usize,
    ) -> Self {
        debug_assert_eq!(sx.b, sy.b, "inputs must share the output width");
        debug_assert!(
            hi <= lo && lo <= sx.b,
            "split {hi}..{lo} outside 0..{}",
            sx.b
        );
        let full = 1u64 << sx.b;
        if t_x >= full {
            return JointSplit(JointKind::OnlyY(MarginalSplit::new(sy, t_y, lo, hi)));
        }
        if t_y >= full {
            return JointSplit(JointKind::OnlyX(MarginalSplit::new(sx, t_x, lo, hi)));
        }
        let mut state = [1.0f64, 0.0, 0.0, 0.0];
        for i in (lo..sx.b).rev() {
            joint_step(&mut state, sx, t_x, sy, t_y, i);
        }
        let (stop, tail) = match compile_tail(sx, t_x, sy, t_y, hi) {
            Some(tail) => (hi, tail),
            None => (0, Tail::Ll),
        };
        JointSplit(JointKind::Joint {
            t_x,
            t_y,
            state,
            lo,
            stop,
            tail,
        })
    }

    /// `Pr[z_x < t_x ∧ z_y < t_y]` for one candidate's forms: only the
    /// digits `hi .. lo` (all digits below `lo` in the fallback) are read.
    #[inline]
    #[must_use]
    pub fn resume(&self, sx: &PackedForms, sy: &PackedForms) -> f64 {
        match self.0 {
            JointKind::Joint {
                t_x,
                t_y,
                state,
                lo,
                stop,
                tail,
            } => {
                let mut st = state;
                for i in (stop..lo).rev() {
                    joint_step(&mut st, sx, t_x, sy, t_y, i);
                }
                tail.eval(st)
            }
            JointKind::OnlyY(m) => m.resume(sy),
            JointKind::OnlyX(m) => m.resume(sx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forms::BitForm;

    fn known(bits: u64, b: usize) -> Vec<BitForm> {
        (0..b)
            .map(|i| BitForm {
                offset: bits >> i & 1 == 1,
                mask: 0,
                s_free: false,
            })
            .collect()
    }

    /// Each compiled tree against the loop it replaces, on incoming states
    /// where the association shows: every mix of `0`, `1` and half an ulp
    /// of `1`, whose sums round differently per order. (Reachable DP states
    /// with small `b` are short dyadic fractions whose sums are exact in
    /// any order, so end-to-end tests cannot see the association.)
    #[test]
    fn tail_trees_replay_the_loop_association() {
        let values = [0.0, f64::EPSILON / 2.0, 1.0];
        let states: Vec<[f64; 4]> = (0..81)
            .map(|k: usize| [k % 3, k / 3 % 3, k / 9 % 3, k / 27].map(|d| values[d]))
            .collect();
        let mut shapes = Vec::new();
        for h in 1..=3usize {
            let n = 1u64 << h;
            for (ox, oy) in (0..n).flat_map(|x| (0..n).map(move |y| (x, y))) {
                let (sx, sy) = (
                    PackedForms::from_forms(&known(ox, h)),
                    PackedForms::from_forms(&known(oy, h)),
                );
                for (t_x, t_y) in (0..n).flat_map(|x| (0..n).map(move |y| (x, y))) {
                    let tail = compile_tail(&sx, t_x, &sy, t_y, h).expect("all digits known");
                    shapes.push(tail);
                    for &state in &states {
                        let mut st = state;
                        for i in (0..h).rev() {
                            joint_step(&mut st, &sx, t_x, &sy, t_y, i);
                        }
                        assert_eq!(
                            tail.eval(state).to_bits(),
                            st[3].to_bits(),
                            "{tail:?}, z = ({ox}, {oy}), t = ({t_x}, {t_y}), state {state:?}"
                        );
                    }
                }
            }
        }
        for tail in [
            Tail::Ll,
            Tail::El,
            Tail::Le,
            Tail::Same,
            Tail::XFirst,
            Tail::YFirst,
        ] {
            assert!(shapes.contains(&tail), "{tail:?} never exercised");
        }
    }
}
