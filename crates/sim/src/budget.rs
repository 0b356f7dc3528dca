//! Typed model-budget violations (`DESIGN.md` §2.3): the payload the
//! simulators raise when a run leaves the model's resource bounds, which
//! `dcl_runner::run_protected` recovers as `RunError::Budget`.

use std::fmt;

/// One violated model resource budget. [`Display`](fmt::Display) renders
/// the simulators' historical assertion text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetViolation {
    /// A message wider than the bandwidth cap under the strict send policy.
    Bandwidth {
        /// Model name ("CONGEST", "clique", …).
        model: &'static str,
        /// Width of the offending message in bits.
        bits: u32,
        /// The cap in bits.
        cap: u32,
    },
    /// An MPC machine sent more than its word budget in one round.
    MpcSend {
        /// The sending machine.
        machine: usize,
        /// The per-round send budget in words.
        budget: usize,
    },
    /// An MPC machine received more than its word budget in one round.
    MpcReceive {
        /// The receiving machine.
        machine: usize,
        /// The per-round receive budget in words.
        budget: usize,
    },
    /// An MPC machine declared more resident storage than its memory.
    MpcMemory {
        /// The machine.
        machine: usize,
        /// Declared storage in words.
        words: usize,
        /// The memory bound in words.
        budget: usize,
    },
    /// A clique node sent more than `n` messages in one Lenzen routing.
    LenzenSend {
        /// The sending node.
        node: usize,
    },
    /// A clique node received more than `n` messages in one Lenzen routing.
    LenzenReceive {
        /// The receiving node.
        node: usize,
    },
}

impl BudgetViolation {
    /// Raises the violation as a typed panic payload (`panic_any`); cold,
    /// so each check stays a single comparison on the hot path.
    #[cold]
    pub fn raise(self) -> ! {
        std::panic::panic_any(self)
    }
}

impl fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetViolation::Bandwidth { model, bits, cap } => {
                write!(
                    f,
                    "message of {bits} bits exceeds {model} cap of {cap} bits"
                )
            }
            BudgetViolation::MpcSend { machine, budget } => {
                write!(
                    f,
                    "machine {machine} exceeded its send budget of {budget} words"
                )
            }
            BudgetViolation::MpcReceive { machine, budget } => {
                write!(
                    f,
                    "machine {machine} exceeded its receive budget of {budget} words"
                )
            }
            BudgetViolation::MpcMemory {
                machine,
                words,
                budget,
            } => write!(
                f,
                "machine {machine} stores {words} words, exceeding its memory of {budget}"
            ),
            BudgetViolation::LenzenSend { node } => {
                write!(f, "node {node} exceeds the Lenzen send budget")
            }
            BudgetViolation::LenzenReceive { node } => {
                write!(f, "node {node} exceeds the Lenzen receive budget")
            }
        }
    }
}

impl std::error::Error for BudgetViolation {}
