//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names and units; `BENCHMARK.json` at the repository root lists the same
//! names (a test pins the two together). A run fills a [`Values`] map and
//! [`RunResult::line`] prints exactly the catalogue's metrics for the mode.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed by every untraced (`--trace 0`) run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("colorings_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ok_frac", "frac"),
    ("rounds", "count"),
    ("messages", "count"),
    ("bits", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced (`--trace 1`) run. A layer a
/// workload does not exercise reads 0 (see `perfbench/README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.generate_ms", "ms"),
    ("runner.congest.ms", "ms"),
    ("runner.congest.rounds", "count"),
    ("runner.decomp.ms", "ms"),
    ("runner.decomp.rounds", "count"),
    ("runner.delta.ms", "ms"),
    ("runner.delta.rounds", "count"),
    ("runner.clique.ms", "ms"),
    ("runner.clique.rounds", "count"),
    ("runner.mpc-linear.ms", "ms"),
    ("runner.mpc-linear.rounds", "count"),
    ("runner.mpc-sublinear.ms", "ms"),
    ("runner.mpc-sublinear.rounds", "count"),
    ("core.linial.ms", "ms"),
    ("core.linial.rounds", "count"),
    ("sim.round_us", "us"),
    ("sim.message_ns", "ns"),
    ("decomp.decompose.ms", "ms"),
    ("decomp.decompose.rounds", "count"),
    ("kernels.edge_shares_cached.ns", "ns"),
    ("kernels.edge_shares.ns", "ns"),
    ("kernels.joint_coin_probs_packed.ns", "ns"),
    ("kernels.argmin_f64.ns", "ns"),
    ("delta.kempe_flips", "count"),
    ("delta.greedy_recolored", "count"),
    ("clique.collected_nodes", "count"),
    ("mpc.finisher_iterations", "count"),
    ("mpc.max_storage_words", "count"),
    ("transport.local.round_us", "us"),
    ("transport.channel.round_us", "us"),
    ("transport.tcp.round_us", "us"),
    ("transport.tcp.frames", "count"),
    ("transport.tcp.wire_bytes", "bytes"),
    ("transport.tcp.overhead_ms", "ms"),
    ("wire.report_encode_us", "us"),
    ("wire.report_decode_us", "us"),
    ("proto.request_bytes", "bytes"),
    ("client.bytes_sent", "bytes"),
    ("client.bytes_received", "bytes"),
    ("service.direct_ms", "ms"),
    ("service.overhead_ms.p50", "ms"),
    ("service.overhead_ms.p90", "ms"),
    ("service.op_ms.p50", "ms"),
    ("service.op_ms.p90", "ms"),
    ("service.op_ms.p99", "ms"),
    ("service.max_rate_rps", "1/s"),
    ("service.busy", "count"),
    ("service.timed_out", "count"),
    ("loadgen.lag_ms.p90", "ms"),
    ("op_ms.samples", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Whether every checked output was correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (invalid colorings, run errors, refusals).
    pub failed: u64,
    /// Whether `metrics` holds the per-layer (traced) set.
    pub traced: bool,
    /// Every measured value, end-to-end and per-layer.
    pub metrics: Values,
}

impl RunResult {
    /// The catalogue for this run's mode.
    #[must_use]
    pub fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and every
    /// catalogue metric with its unit (a per-layer metric the run did not
    /// measure reads 0).
    ///
    /// # Errors
    ///
    /// If an end-to-end metric is missing or any value is not finite.
    pub fn line(&self) -> Result<String, String> {
        let mut m = String::new();
        for (i, &(name, unit)) in self.catalogue().iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if self.traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        ))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
    }

    #[test]
    fn result_line_prints_every_metric_and_refuses_gaps() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            traced: true,
            metrics: Values::new(),
        };
        let line = r.line().unwrap();
        for &(name, unit) in PER_LAYER {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 0.0, \"unit\": \"{unit}\"}}"
            )));
        }
        r.traced = false;
        assert!(r.line().is_err(), "untraced runs must measure every metric");
        r.metrics.insert("setup_s", f64::NAN);
        assert!(r.line().is_err());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
