//! Wire-serializable forms of [`Report`] and [`RunError`].
//!
//! The service tier (`dcl_service`) ships run results over sockets, which
//! needs both types as plain data. [`Report`] is almost that already — only
//! its `&'static str` extras keys need owning — but [`RunError`] wraps live
//! trait objects ([`std::error::Error`] sources, panic payload renderings)
//! that cannot cross a byte stream losslessly. The wire forms here keep
//! exactly what a remote caller can act on: every field of the report
//! bit-for-bit ([`WireReport::matches`] pins that), and for errors the
//! variant kind plus the full `Display` rendering (which already embeds the
//! source chain's messages).

use crate::error::RunError;
use crate::scenario::{Model, Report};
use dcl_sim::{SimMetrics, Wire};
use std::fmt;

/// [`Model`] crosses the wire as a one-byte tag in declaration order.
impl Wire for Model {
    fn wire_bits(&self) -> u32 {
        8
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Model::Congest => 0,
            Model::CongestedClique => 1,
            Model::Mpc => 2,
        };
        tag.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_decode(buf)? {
            0 => Some(Model::Congest),
            1 => Some(Model::CongestedClique),
            2 => Some(Model::Mpc),
            _ => None,
        }
    }
}

/// A [`Report`] as plain owned data, field for field.
///
/// The only representational difference is the extras keys: `&'static str`
/// in [`Report`] (they come from string literals in the pipelines), owned
/// [`String`]s here. [`WireReport::matches`] compares a wire report against
/// a locally produced [`Report`] across every field — the service
/// determinism suite uses it to pin "served result ≡ direct run".
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// [`Report::scenario`].
    pub scenario: String,
    /// [`Report::model`].
    pub model: Model,
    /// [`Report::colors`].
    pub colors: Vec<u64>,
    /// [`Report::palette`].
    pub palette: u64,
    /// [`Report::colors_used`].
    pub colors_used: usize,
    /// [`Report::proper`].
    pub proper: bool,
    /// [`Report::metrics`].
    pub metrics: SimMetrics,
    /// [`Report::extras`], with owned keys.
    pub extras: Vec<(String, u64)>,
}

impl From<&Report> for WireReport {
    fn from(report: &Report) -> Self {
        WireReport {
            scenario: report.scenario.clone(),
            model: report.model,
            colors: report.colors.clone(),
            palette: report.palette,
            colors_used: report.colors_used,
            proper: report.proper,
            metrics: report.metrics,
            extras: report
                .extras
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

impl WireReport {
    /// Whether this wire report equals `report` in every field (extras
    /// compared as `(key, value)` pairs in order).
    pub fn matches(&self, report: &Report) -> bool {
        self.scenario == report.scenario
            && self.model == report.model
            && self.colors == report.colors
            && self.palette == report.palette
            && self.colors_used == report.colors_used
            && self.proper == report.proper
            && self.metrics == report.metrics
            && self.extras.len() == report.extras.len()
            && self
                .extras
                .iter()
                .zip(report.extras.iter())
                .all(|((wk, wv), &(k, v))| wk == k && *wv == v)
    }
}

impl Wire for WireReport {
    fn wire_bits(&self) -> u32 {
        self.scenario.wire_bits()
            + self.model.wire_bits()
            + self.colors.wire_bits()
            + self.palette.wire_bits()
            + self.colors_used.wire_bits()
            + self.proper.wire_bits()
            + self.metrics.wire_bits()
            + self.extras.wire_bits()
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.scenario.wire_encode(out);
        self.model.wire_encode(out);
        self.colors.wire_encode(out);
        self.palette.wire_encode(out);
        self.colors_used.wire_encode(out);
        self.proper.wire_encode(out);
        self.metrics.wire_encode(out);
        self.extras.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        Some(WireReport {
            scenario: String::wire_decode(buf)?,
            model: Model::wire_decode(buf)?,
            colors: Vec::wire_decode(buf)?,
            palette: u64::wire_decode(buf)?,
            colors_used: usize::wire_decode(buf)?,
            proper: bool::wire_decode(buf)?,
            metrics: SimMetrics::wire_decode(buf)?,
            extras: Vec::wire_decode(buf)?,
        })
    }
}

/// Which [`RunError`] variant a [`WireRunError`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunErrorKind {
    /// [`RunError::Graph`].
    Graph,
    /// [`RunError::Job`].
    Job,
    /// [`RunError::Rejected`].
    Rejected,
    /// [`RunError::Budget`].
    Budget,
    /// [`RunError::Transport`].
    Transport,
    /// [`RunError::Panic`].
    Panic,
}

impl fmt::Display for RunErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RunErrorKind::Graph => "graph",
            RunErrorKind::Job => "job",
            RunErrorKind::Rejected => "rejected",
            RunErrorKind::Budget => "budget",
            RunErrorKind::Transport => "transport",
            RunErrorKind::Panic => "panic",
        };
        write!(f, "{name}")
    }
}

/// [`RunErrorKind`] crosses the wire as a one-byte tag in declaration order.
impl Wire for RunErrorKind {
    fn wire_bits(&self) -> u32 {
        8
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            RunErrorKind::Graph => 0,
            RunErrorKind::Job => 1,
            RunErrorKind::Rejected => 2,
            RunErrorKind::Budget => 3,
            RunErrorKind::Transport => 4,
            RunErrorKind::Panic => 5,
        };
        tag.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_decode(buf)? {
            0 => Some(RunErrorKind::Graph),
            1 => Some(RunErrorKind::Job),
            2 => Some(RunErrorKind::Rejected),
            3 => Some(RunErrorKind::Budget),
            4 => Some(RunErrorKind::Transport),
            5 => Some(RunErrorKind::Panic),
            _ => None,
        }
    }
}

/// A [`RunError`] flattened to what survives a byte stream: the variant
/// [`RunErrorKind`] and the full `Display` rendering (which embeds the
/// messages of the wrapped source chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRunError {
    /// Which variant the original error was.
    pub kind: RunErrorKind,
    /// The original error's `Display` rendering.
    pub message: String,
}

impl From<&RunError> for WireRunError {
    fn from(err: &RunError) -> Self {
        let kind = match err {
            RunError::Graph(_) => RunErrorKind::Graph,
            RunError::Job(_) => RunErrorKind::Job,
            RunError::Rejected { .. } => RunErrorKind::Rejected,
            RunError::Budget { .. } => RunErrorKind::Budget,
            RunError::Transport(_) => RunErrorKind::Transport,
            RunError::Panic { .. } => RunErrorKind::Panic,
        };
        WireRunError {
            kind,
            message: err.to_string(),
        }
    }
}

impl fmt::Display for WireRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "remote run failed ({}): {}", self.kind, self.message)
    }
}

impl std::error::Error for WireRunError {}

impl Wire for WireRunError {
    fn wire_bits(&self) -> u32 {
        self.kind.wire_bits() + self.message.wire_bits()
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.kind.wire_encode(out);
        self.message.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        Some(WireRunError {
            kind: RunErrorKind::wire_decode(buf)?,
            message: String::wire_decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::{generators, GraphError};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        assert!(value.wire_bits() > 0, "every wire form has nonzero width");
        let mut bytes = Vec::new();
        value.wire_encode(&mut bytes);
        let mut view = bytes.as_slice();
        assert_eq!(T::wire_decode(&mut view), Some(value));
        assert!(view.is_empty(), "decode must consume the whole encoding");
    }

    fn demo_report() -> Report {
        let g = generators::ring(4);
        Report::build(
            "demo",
            Model::CongestedClique,
            &g,
            3,
            vec![0, 1, 0, 2],
            SimMetrics {
                rounds: 5,
                messages: 40,
                bits: 1200,
                max_message_bits: 96,
            },
        )
        .with_extra("iterations", 7)
        .with_extra("flips", 0)
    }

    #[test]
    fn model_and_kind_tags_roundtrip_and_reject_unknown() {
        for model in [Model::Congest, Model::CongestedClique, Model::Mpc] {
            roundtrip(model);
        }
        for kind in [
            RunErrorKind::Graph,
            RunErrorKind::Job,
            RunErrorKind::Rejected,
            RunErrorKind::Budget,
            RunErrorKind::Transport,
            RunErrorKind::Panic,
        ] {
            roundtrip(kind);
        }
        assert_eq!(Model::wire_decode(&mut [9u8].as_slice()), None);
        assert_eq!(RunErrorKind::wire_decode(&mut [9u8].as_slice()), None);
    }

    #[test]
    fn wire_report_roundtrips_and_matches_its_source() {
        let report = demo_report();
        let wire = WireReport::from(&report);
        assert!(wire.matches(&report));
        roundtrip(wire.clone());

        // Any field drift breaks the match.
        let mut other = report.clone();
        other.extras[0].1 += 1;
        assert!(!wire.matches(&other));
        let mut other = report.clone();
        other.colors[2] ^= 1;
        assert!(!wire.matches(&other));
    }

    #[test]
    fn wire_run_error_keeps_kind_and_rendering() {
        let err = RunError::Graph(GraphError::SelfLoop(3));
        let wire = WireRunError::from(&err);
        assert_eq!(wire.kind, RunErrorKind::Graph);
        assert_eq!(wire.message, err.to_string());
        assert!(wire.to_string().contains("remote run failed (graph)"));
        roundtrip(wire);

        let budget = RunError::Budget {
            model: Model::Mpc,
            violation: dcl_sim::BudgetViolation::MpcSend {
                machine: 0,
                budget: 16,
            },
        };
        let wire = WireRunError::from(&budget);
        assert_eq!(wire.kind, RunErrorKind::Budget);
        // The rendered message is the wire payload: pin it byte for byte.
        assert_eq!(
            wire.message,
            "MPC resource budget violated: machine 0 exceeded its send budget of 16 words"
        );
        roundtrip(wire);
    }

    #[test]
    fn truncated_encodings_decode_to_none_not_panics() {
        let wire = WireReport::from(&demo_report());
        let mut bytes = Vec::new();
        wire.wire_encode(&mut bytes);
        for cut in 0..bytes.len() {
            assert_eq!(WireReport::wire_decode(&mut &bytes[..cut]), None);
        }
    }
}
