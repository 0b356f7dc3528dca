//! Integration tests for `run_protected`: drive the *real* simulator checks
//! (not hand-built payloads) through the panic shield and check they come
//! out as the contract of `DESIGN.md` §2.3 promises — model-budget
//! violations become `RunError::Budget` carrying the exact typed
//! `BudgetViolation`, addressing asserts and progress-bug safety nets
//! become `RunError::Panic`, transport failures `RunError::Transport`.

use distributed_coloring::clique::network::CliqueNetwork;
use distributed_coloring::congest::network::Network;
use distributed_coloring::graphs::{generators, Graph};
use distributed_coloring::mpc::Mpc;
use distributed_coloring::runner::{run_protected, Model, Report, RunError, Scenario};
use distributed_coloring::scenarios::CongestScenario;
use distributed_coloring::sim::BudgetViolation;
use distributed_coloring::{Backend, ExecConfig, TransportError, TransportSpec};

/// Sends one message far over the strict CONGEST cap — the real
/// `SimMetrics::account` check fires.
struct OversizedSend;

impl Scenario for OversizedSend {
    fn name(&self) -> &str {
        "oversized-send"
    }
    fn model(&self) -> Model {
        Model::Congest
    }
    fn run(&self, g: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
        // A u64 payload is 64 bits > the 8-bit cap: the strict
        // (non-fragmented) round panics with the model's cap assertion.
        let mut net = Network::new(g, 8);
        let _ = net.round(|v| {
            g.neighbors(v)
                .iter()
                .map(|&u| (u, u64::MAX))
                .collect::<Vec<_>>()
        });
        unreachable!("the cap assertion fires first");
    }
}

/// Declares more resident storage than the MPC memory bound allows — the
/// real `Mpc::assert_storage` check fires.
struct MemoryOverflow;

impl Scenario for MemoryOverflow {
    fn name(&self) -> &str {
        "memory-overflow"
    }
    fn model(&self) -> Model {
        Model::Mpc
    }
    fn run(&self, _: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
        let mut mpc = Mpc::new(2, 10);
        mpc.assert_storage(0, 10_000);
        unreachable!("the storage assertion fires first");
    }
}

/// Exceeds the per-machine send budget of a real `Mpc::round`.
struct SendBudgetOverflow;

impl Scenario for SendBudgetOverflow {
    fn name(&self) -> &str {
        "send-budget-overflow"
    }
    fn model(&self) -> Model {
        Model::Mpc
    }
    fn run(&self, _: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
        let mut mpc = Mpc::new(2, 4); // budget = slack 4 × 4 words = 16
        let _ = mpc.round(|machine| {
            if machine == 0 {
                (0..100u64).map(|x| (1usize, x)).collect()
            } else {
                Vec::new()
            }
        });
        unreachable!("the send-budget check fires first");
    }
}

/// One node of a 256-ring oversends under `Backend::Parallel(2)`: the cap
/// check fires inside a pool job (the ring spans four 64-node chunks), so
/// the violation reaches the shield only through the pool's resume.
struct ParallelOversizedSend;

impl Scenario for ParallelOversizedSend {
    fn name(&self) -> &str {
        "parallel-oversized-send"
    }
    fn model(&self) -> Model {
        Model::Congest
    }
    fn run(&self, g: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
        let mut net = Network::with_backend(g, 8, Backend::Parallel(2));
        let _ = net.round(|v| {
            if v == 200 {
                vec![(201, u64::MAX)]
            } else {
                Vec::new()
            }
        });
        unreachable!("the cap check fires first");
    }
}

/// Node 0 of a 4-clique routes five messages through Lenzen routing, one
/// more than its send budget of `n`.
struct LenzenSendOverflow;

impl Scenario for LenzenSendOverflow {
    fn name(&self) -> &str {
        "lenzen-send-overflow"
    }
    fn model(&self) -> Model {
        Model::CongestedClique
    }
    fn run(&self, _: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
        let mut net = CliqueNetwork::with_default_cap(4);
        let _ = net.lenzen_route((0..5u32).map(|x| (0, 1 + x as usize % 3, x)).collect());
        unreachable!("the Lenzen send budget fires first");
    }
}

/// Node 0 of an 8-ring messages node 4, which is not its neighbor: an
/// addressing assert, not a budget violation.
struct NonNeighborSend;

impl Scenario for NonNeighborSend {
    fn name(&self) -> &str {
        "non-neighbor-send"
    }
    fn model(&self) -> Model {
        Model::Congest
    }
    fn run(&self, g: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
        let mut net = Network::new(g, 100);
        let _ = net.round(|v| if v == 0 { vec![(4, 1u32)] } else { Vec::new() });
        unreachable!("the addressing assert fires first");
    }
}

/// Runs one real TCP round to establish the socket links, then tears down
/// one endpoint and sends again — the dial is refused and the transport
/// raises its typed error through the infallible round API.
struct DroppedPeer;

impl Scenario for DroppedPeer {
    fn name(&self) -> &str {
        "dropped-peer"
    }
    fn model(&self) -> Model {
        Model::Congest
    }
    fn run(&self, g: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
        let exec = ExecConfig::default().with_transport(TransportSpec::Tcp);
        let mut net = Network::from_exec(g, 100, &exec);
        let talk = |v: usize| {
            g.neighbors(v)
                .iter()
                .map(|&u| (u, (v + u) as u64))
                .collect::<Vec<_>>()
        };
        let _ = net.round(talk); // all links come up
        net.close_transport_endpoint(0); // node 0 vanishes mid-protocol
        let _ = net.round(talk);
        unreachable!("sending to the dropped peer raises the transport error");
    }
}

fn ring() -> Graph {
    generators::ring(8)
}

/// Runs `scenario` on `g` through the shield and returns the violation of
/// the `Budget` error it must produce, after checking the model.
fn budget_violation(scenario: &dyn Scenario, g: &Graph, model: Model) -> BudgetViolation {
    match run_protected(scenario, g, &ExecConfig::default()) {
        Err(RunError::Budget {
            model: m,
            violation,
        }) => {
            assert_eq!(m, model);
            violation
        }
        other => panic!("{}: expected Budget, got {other:?}", scenario.name()),
    }
}

#[test]
fn real_cap_violation_classifies_as_budget() {
    let err = run_protected(&OversizedSend, &ring(), &ExecConfig::default()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "CONGEST resource budget violated: message of 64 bits exceeds CONGEST cap of 8 bits"
    );
    match err {
        RunError::Budget { model, violation } => {
            assert_eq!(model, Model::Congest);
            assert_eq!(
                violation,
                BudgetViolation::Bandwidth {
                    model: "CONGEST",
                    bits: 64,
                    cap: 8
                }
            );
        }
        other => panic!("expected Budget, got {other:?}"),
    }
}

#[test]
fn real_mpc_memory_violation_classifies_as_budget() {
    assert_eq!(
        budget_violation(&MemoryOverflow, &ring(), Model::Mpc),
        BudgetViolation::MpcMemory {
            machine: 0,
            words: 10_000,
            budget: 40
        }
    );
}

#[test]
fn real_mpc_send_budget_violation_classifies_as_budget() {
    assert_eq!(
        budget_violation(&SendBudgetOverflow, &ring(), Model::Mpc),
        BudgetViolation::MpcSend {
            machine: 0,
            budget: 16
        }
    );
}

#[test]
fn parallel_cap_violation_survives_the_pool_resume() {
    assert_eq!(
        budget_violation(
            &ParallelOversizedSend,
            &generators::ring(256),
            Model::Congest
        ),
        BudgetViolation::Bandwidth {
            model: "CONGEST",
            bits: 64,
            cap: 8
        }
    );
}

#[test]
fn real_lenzen_send_budget_violation_classifies_as_budget() {
    assert_eq!(
        budget_violation(&LenzenSendOverflow, &ring(), Model::CongestedClique),
        BudgetViolation::LenzenSend { node: 0 }
    );
}

/// Addressing asserts are string panics: a non-neighbor send is `Panic`.
#[test]
fn non_neighbor_send_classifies_as_panic() {
    let err = run_protected(&NonNeighborSend, &ring(), &ExecConfig::default()).unwrap_err();
    match err {
        RunError::Panic { scenario, message } => {
            assert_eq!(scenario, "non-neighbor-send");
            assert_eq!(message, "node 0 attempted to send to non-neighbor 4");
        }
        other => panic!("expected Panic, got {other:?}"),
    }
}

/// A real driver progress-cap panic (Theorem 1.1 with an impossible
/// iteration budget) must classify as `Panic`, not `Budget`.
#[test]
fn real_iteration_cap_panic_classifies_as_panic() {
    let scenario = CongestScenario::with_config(
        distributed_coloring::coloring::CongestColoringConfig::default()
            .with_max_iterations(Some(0)),
    );
    let err = run_protected(&scenario, &ring(), &ExecConfig::default()).unwrap_err();
    match err {
        RunError::Panic { scenario, message } => {
            assert_eq!(scenario, "congest");
            assert!(message.contains("iteration cap"), "{message}");
        }
        other => panic!("expected Panic, got {other:?}"),
    }
}

/// A dropped TCP peer surfaces as the typed `RunError::Transport` with the
/// original `TransportError` intact on the source chain — and the run
/// returns promptly (the socket tier's deadlines bound every read and
/// accept), it never hangs.
#[test]
fn dropped_tcp_peer_classifies_as_transport_error() {
    let err = run_protected(&DroppedPeer, &ring(), &ExecConfig::default()).unwrap_err();
    match &err {
        RunError::Transport(e) => {
            assert!(
                matches!(e, TransportError::Disconnected { .. }),
                "expected a disconnection, got {e:?}"
            );
            assert!(
                e.to_string().contains("disconnected"),
                "the error names the failure: {e}"
            );
        }
        other => panic!("expected Transport, got {other:?}"),
    }
    assert!(err.to_string().contains("transport failure"), "{err}");
    let source = std::error::Error::source(&err).expect("transport keeps its source");
    assert!(
        source.downcast_ref::<TransportError>().is_some(),
        "the concrete TransportError survives losslessly"
    );
}

/// The shield is transparent for successful runs: same report as a direct
/// call.
#[test]
fn run_protected_is_transparent_on_success() {
    let g = ring();
    let scenario = CongestScenario::default();
    let shielded = run_protected(&scenario, &g, &ExecConfig::default()).unwrap();
    let direct = scenario.run(&g, &ExecConfig::default()).unwrap();
    assert_eq!(shielded, direct);
}
