//! The [`RunError`] type: every way a scenario run can fail, as one enum
//! behind [`std::error::Error`].

use crate::scenario::{Model, Scenario};
use dcl_graphs::{Graph, GraphError};
use dcl_par::{panic_message, JobPanic};
use dcl_sim::{BudgetViolation, ExecConfig, TransportError};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Unified error type of the runner front door.
///
/// The per-crate error types are wrapped losslessly: [`GraphError`] and
/// [`JobPanic`] as typed variants, scenario rejections (e.g.
/// `dcl_delta::DeltaError`) as a boxed [`std::error::Error`] that can be
/// recovered intact via [`RunError::rejection`] or
/// [`std::error::Error::source`]. Model-budget violations (MPC word budgets,
/// bandwidth caps, Lenzen routing) are typed [`BudgetViolation`] panic
/// payloads in the simulators — see the panic contract in `DESIGN.md` §2.3 —
/// and are only materialized as the [`RunError::Budget`] variant when a run
/// goes through [`run_protected`].
#[derive(Debug)]
#[non_exhaustive]
pub enum RunError {
    /// The input graph itself was invalid (construction error).
    Graph(GraphError),
    /// A backend pool job panicked (typed payload from
    /// [`dcl_par::Pool::try_run`]).
    Job(JobPanic),
    /// The scenario rejected the input as unsolvable — e.g. a Brooks
    /// obstruction for the Δ-coloring scenario. The concrete per-crate error
    /// is preserved and downcastable via [`RunError::rejection`].
    Rejected {
        /// [`Scenario::name`] of the rejecting scenario.
        scenario: String,
        /// The original typed error, behind `std::error::Error`.
        source: Box<dyn Error + Send + Sync + 'static>,
    },
    /// A model resource budget was violated (MPC send/receive/memory word
    /// budgets, bandwidth caps, Lenzen routing). Produced by
    /// [`run_protected`] from the simulators' typed [`BudgetViolation`]
    /// panic payloads.
    Budget {
        /// Model whose budget was violated.
        model: Model,
        /// The violation the simulator raised.
        violation: BudgetViolation,
    },
    /// The byte-transport tier failed — a peer disconnected mid-round or a
    /// frame violated the framing protocol. The simulators raise these as
    /// typed [`TransportError`] panic payloads (the round APIs are
    /// infallible by design), and [`run_protected`] recovers the original
    /// value losslessly.
    Transport(TransportError),
    /// The pipeline panicked for any other reason (progress-bug safety
    /// nets). Produced by [`run_protected`].
    Panic {
        /// [`Scenario::name`] of the panicking scenario.
        scenario: String,
        /// The panic payload rendered as a string.
        message: String,
    },
}

impl RunError {
    /// Wraps a scenario rejection, preserving the concrete error for
    /// [`RunError::rejection`] downcasts.
    pub fn rejected<E>(scenario: &str, source: E) -> Self
    where
        E: Error + Send + Sync + 'static,
    {
        RunError::Rejected {
            scenario: scenario.to_string(),
            source: Box::new(source),
        }
    }

    /// The concrete rejection error, if this is a [`RunError::Rejected`] of
    /// type `E` — e.g. `err.rejection::<dcl_delta::DeltaError>()`.
    pub fn rejection<E: Error + 'static>(&self) -> Option<&E> {
        match self {
            RunError::Rejected { source, .. } => source.downcast_ref(),
            _ => None,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Graph(e) => write!(f, "invalid input graph: {e}"),
            RunError::Job(p) => write!(f, "backend {p}"),
            RunError::Rejected { scenario, source } => {
                write!(f, "scenario '{scenario}' rejected the input: {source}")
            }
            RunError::Budget { model, violation } => {
                write!(f, "{model} resource budget violated: {violation}")
            }
            RunError::Transport(e) => write!(f, "transport failure: {e}"),
            RunError::Panic { scenario, message } => {
                write!(f, "scenario '{scenario}' panicked: {message}")
            }
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Graph(e) => Some(e),
            RunError::Job(p) => Some(p),
            RunError::Rejected { source, .. } => Some(source.as_ref()),
            RunError::Transport(e) => Some(e),
            RunError::Budget { violation, .. } => Some(violation),
            RunError::Panic { .. } => None,
        }
    }
}

impl From<GraphError> for RunError {
    fn from(e: GraphError) -> Self {
        RunError::Graph(e)
    }
}

impl From<JobPanic> for RunError {
    fn from(p: JobPanic) -> Self {
        RunError::Job(p)
    }
}

impl From<TransportError> for RunError {
    fn from(e: TransportError) -> Self {
        RunError::Transport(e)
    }
}

/// Runs `scenario` with a panic shield: the simulators' typed payloads come
/// back as [`RunError::Transport`] and [`RunError::Budget`], and any other
/// panic (the progress-bug safety nets, addressing asserts) as
/// [`RunError::Panic`], instead of unwinding through the caller. Results of
/// non-panicking runs are identical to calling [`Scenario::run`] directly.
pub fn run_protected(
    scenario: &dyn Scenario,
    graph: &Graph,
    exec: &ExecConfig,
) -> Result<crate::Report, RunError> {
    match catch_unwind(AssertUnwindSafe(|| scenario.run(graph, exec))) {
        Ok(result) => result,
        Err(payload) => {
            // The infallible round APIs raise transport failures and model
            // budget violations as typed payloads (`panic_any`); every other
            // panic is a string message.
            if let Some(e) = payload.downcast_ref::<TransportError>() {
                return Err(RunError::Transport(e.clone()));
            }
            if let Some(violation) = payload.downcast_ref::<BudgetViolation>() {
                return Err(RunError::Budget {
                    model: scenario.model(),
                    violation: *violation,
                });
            }
            Err(RunError::Panic {
                scenario: scenario.name().to_string(),
                message: panic_message(&*payload)
                    .unwrap_or("<non-string panic payload>")
                    .to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Report;
    use dcl_graphs::generators;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct DemoRejection(&'static str);

    impl fmt::Display for DemoRejection {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "demo rejection: {}", self.0)
        }
    }

    impl Error for DemoRejection {}

    struct Panicking(&'static str);

    impl Scenario for Panicking {
        fn name(&self) -> &str {
            "panicking"
        }
        fn model(&self) -> Model {
            Model::Mpc
        }
        fn run(&self, _: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
            panic!("{}", self.0);
        }
    }

    struct Violating(BudgetViolation);

    impl Scenario for Violating {
        fn name(&self) -> &str {
            "violating"
        }
        fn model(&self) -> Model {
            Model::Mpc
        }
        fn run(&self, _: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
            self.0.raise();
        }
    }

    #[test]
    fn rejection_is_downcastable_losslessly() {
        let err = RunError::rejected("demo", DemoRejection("odd cycle"));
        assert_eq!(
            err.rejection::<DemoRejection>(),
            Some(&DemoRejection("odd cycle"))
        );
        assert!(err.rejection::<GraphError>().is_none());
        assert!(err.to_string().contains("demo rejection: odd cycle"));
        assert!(err.source().is_some(), "rejection keeps its source chain");
    }

    #[test]
    fn graph_and_job_errors_wrap_with_source() {
        let e: RunError = GraphError::SelfLoop(3).into();
        assert!(matches!(e, RunError::Graph(GraphError::SelfLoop(3))));
        assert!(e.to_string().contains("self loop"));
        assert!(e.source().is_some());
    }

    #[test]
    fn run_protected_types_budget_violations_and_panics() {
        let g = generators::ring(4);
        let exec = ExecConfig::default();
        // Every variant comes back as `Budget`, renders the simulators'
        // assertion text and keeps the violation on the source chain.
        for (violation, text) in [
            (
                BudgetViolation::MpcSend {
                    machine: 0,
                    budget: 400,
                },
                "machine 0 exceeded its send budget of 400 words",
            ),
            (
                BudgetViolation::MpcReceive {
                    machine: 2,
                    budget: 400,
                },
                "machine 2 exceeded its receive budget of 400 words",
            ),
            (
                BudgetViolation::MpcMemory {
                    machine: 1,
                    words: 99,
                    budget: 80,
                },
                "machine 1 stores 99 words, exceeding its memory of 80",
            ),
            (
                BudgetViolation::Bandwidth {
                    model: "CONGEST",
                    bits: 200,
                    cap: 128,
                },
                "message of 200 bits exceeds CONGEST cap of 128 bits",
            ),
            (
                BudgetViolation::LenzenSend { node: 4 },
                "node 4 exceeds the Lenzen send budget",
            ),
            (
                BudgetViolation::LenzenReceive { node: 5 },
                "node 5 exceeds the Lenzen receive budget",
            ),
        ] {
            let err = run_protected(&Violating(violation), &g, &exec).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("MPC resource budget violated: {text}")
            );
            let source = err
                .source()
                .and_then(|s| s.downcast_ref::<BudgetViolation>());
            assert_eq!(source, Some(&violation));
            match err {
                RunError::Budget {
                    model,
                    violation: v,
                } => {
                    assert_eq!(model, Model::Mpc);
                    assert_eq!(v, violation);
                }
                other => panic!("{text:?}: expected Budget, got {other:?}"),
            }
        }
        // String panics are `Panic`, whatever they say: the drivers'
        // progress-bug safety nets and the budget texts phrased as strings.
        for message in [
            "iteration cap 40 exceeded with 3 nodes uncolored — progress bug",
            "iteration cap exceeded — progress bug",
            "class 3 exceeded the iteration cap",
            "linear MPC coloring failed to make progress",
            "machine 0 exceeded its send budget of 400 words",
            "machine 1 stores 99 words, exceeding its memory of 80",
            "message of 200 bits exceeds CONGEST cap of 128 bits",
            "node 4 exceeds the Lenzen send budget",
        ] {
            let other = run_protected(&Panicking(message), &g, &exec);
            match other {
                Err(RunError::Panic {
                    scenario,
                    message: m,
                }) => {
                    assert_eq!(scenario, "panicking");
                    assert_eq!(m, message);
                }
                other => panic!("{message:?}: expected Panic, got {other:?}"),
            }
        }
    }

    struct TransportPanicking;

    impl Scenario for TransportPanicking {
        fn name(&self) -> &str {
            "transport-panicking"
        }
        fn model(&self) -> Model {
            Model::Congest
        }
        fn run(&self, _: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
            std::panic::panic_any(TransportError::Disconnected {
                from: 3,
                to: 7,
                detail: String::from("peer closed the stream"),
            });
        }
    }

    #[test]
    fn run_protected_recovers_transport_errors_losslessly() {
        let g = generators::ring(4);
        let err = run_protected(&TransportPanicking, &g, &ExecConfig::default()).unwrap_err();
        match &err {
            RunError::Transport(TransportError::Disconnected { from, to, detail }) => {
                assert_eq!((*from, *to), (3, 7));
                assert_eq!(detail, "peer closed the stream");
            }
            other => panic!("expected Transport, got {other:?}"),
        }
        assert!(err.to_string().contains("transport failure"));
        assert!(err.source().is_some(), "transport keeps its source chain");
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: Error>(_: &E) {}
        assert_error(&RunError::rejected("x", DemoRejection("y")));
    }
}
