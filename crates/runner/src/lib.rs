//! One front door for every coloring pipeline in the workspace.
//!
//! The repo ships five pipelines from the PODC 2020 paper and its
//! successors — CONGEST `(Δ+1)` (Theorem 1.1), decomposition polylog
//! (Corollary 1.2), CONGESTED CLIQUE (Theorem 1.3), MPC (Theorems 1.4/1.5)
//! and the Δ-coloring scenario (Halldórsson–Maus 2024) — which historically
//! each had a differently-shaped entry point. This crate unifies them
//! behind three types:
//!
//! - [`Scenario`] — `run(&self, &Graph, &ExecConfig) -> Result<Report,
//!   RunError>` plus [`Scenario::name`]/[`Scenario::model`] metadata. The
//!   pipelines implement it in their home crates as thin adapters over the
//!   existing public entry points (which stay public); the facade gathers
//!   them under `distributed_coloring::scenarios`.
//! - [`Report`] — the unified result: colors, [`dcl_sim::SimMetrics`], and
//!   a palette-size/proper-ness summary with scenario-specific counters in
//!   [`Report::extras`].
//! - [`RunError`] — every failure as one `std::error::Error` enum that
//!   wraps the per-crate error types losslessly ([`dcl_graphs::GraphError`],
//!   [`dcl_par::JobPanic`], scenario rejections such as
//!   `dcl_delta::DeltaError` recoverable via [`RunError::rejection`], and —
//!   through [`run_protected`] — the simulators' typed
//!   [`dcl_sim::BudgetViolation`] and [`dcl_sim::TransportError`] panic
//!   payloads).
//!
//! The [`wire`] module adds wire-serializable forms of both result types
//! ([`WireReport`], [`WireRunError`]) so the service tier can ship them over
//! sockets with the shared [`dcl_sim::Wire`] codec.
//!
//! On top sits the declarative sweep harness: [`Runner`] drives one
//! scenario over a [`GraphSpec`] × [`CapSpec`] × [`dcl_par::Backend`] grid
//! (the loops the experiment bins used to hand-roll) and returns a
//! [`Sweep`] of per-cell reports; [`Table`]/[`baseline_json`] turn sweeps
//! into the committed machine-profile baselines (`BENCH_experiments.json`).
//!
//! Adding a scenario is one trait impl plus one registration — the worked
//! example lives in `DESIGN.md` §2.3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod scenario;
pub mod sweep;
pub mod table;
pub mod wire;

pub use dcl_sim::{TransportError, TransportSpec};
pub use error::{run_protected, RunError};
pub use scenario::{Model, Report, Scenario};
pub use sweep::{CapSpec, Cell, GraphSpec, Runner, Sweep};
pub use table::{baseline_json, MachineProfile, Table};
pub use wire::{RunErrorKind, WireReport, WireRunError};
