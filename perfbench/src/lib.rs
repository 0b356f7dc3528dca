//! The repository benchmark: seeded closed-loop workloads over the
//! coloring pipelines, end-to-end metrics from untraced runs and per-layer
//! metrics (including the transport and service layers) from a traced run. See `perfbench/README.md` for the workloads, the
//! metric-to-layer map and how to run it.

#![forbid(unsafe_code)]

pub mod closed;
pub mod instances;
pub mod metrics;
pub mod probes;
pub mod service;
pub mod stats;
pub mod trace;

use dcl_runner::Report;
use instances::{Class, Spec};
use metrics::{RunResult, Values};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["congest-mix", "derand-segment"];

/// Set-ups at the start of a run; one more precedes every measured pass.
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Instance sizes: the benchmark proper, or the tiny smoke size the
/// benchmark's own tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Every `n` divided by 8 (at least 12), for tests.
    Smoke,
}

impl Scale {
    /// `n` at this scale.
    #[must_use]
    pub fn n(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Smoke => (n / 8).max(12),
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced end-to-end run.
    pub trace: bool,
    /// Instance sizes.
    pub scale: Scale,
}

impl Options {
    /// The measurement budget as a [`Duration`].
    #[must_use]
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }

    /// Operations an untraced run completes at the least (the percentile
    /// needs ten samples beyond p90).
    #[must_use]
    pub fn min_ops(&self) -> usize {
        match self.scale {
            Scale::Full => 100,
            Scale::Smoke => 10,
        }
    }
}

/// What a run leaves behind besides its result line.
#[derive(Debug)]
pub struct Outcome {
    /// The result line's content.
    pub result: RunResult,
    /// Human-readable notes (sample counts, per-rate tables), one per line.
    pub notes: Vec<String>,
    /// Per-instance digests of the reference outputs.
    pub digests: Vec<String>,
    /// The measured operation latencies in ms, in completion order.
    pub latencies_ms: Vec<f64>,
    /// The traced run's spans.
    pub tracer: Tracer,
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or an environment failure (e.g. the service
/// probe cannot bind); incorrect outputs are reported in the result, not
/// here.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    closed::run(&closed::workload(&opts.workload, opts.scale)?, opts)
}

/// An instance table of `slots` slots. Slot `k` takes scenario
/// `k % scenarios.len()`; that scenario's `j`-th slot takes graph family
/// `j % classes.len()` and a node count spread log-uniformly over the
/// scenario's `[lo, hi]` by the golden-ratio sequence, so every scenario
/// and family sees small and large graphs.
#[must_use]
pub fn table(
    scenarios: &[(&'static str, usize, usize)],
    classes: &[Class],
    slots: usize,
    scale: Scale,
) -> Vec<Spec> {
    (0..slots)
        .map(|k| {
            let (scenario, lo, hi) = scenarios[k % scenarios.len()];
            let j = k / scenarios.len();
            let spread = ((j + 1) as f64 * 0.618_033_988_749_895).fract();
            let n = (lo as f64 * (hi as f64 / lo as f64).powf(spread)).round() as usize;
            Spec {
                scenario,
                class: classes[j % classes.len()],
                n: scale.n(n).min(n),
            }
        })
        .collect()
}

/// Draws every slot and times it; returns the instances and the
/// generation time in ms. Each draw is a `graphs.generate` span of op `op`.
pub fn generate(
    specs: &[Spec],
    seed: u64,
    op: u64,
    tr: &mut Tracer,
) -> (Vec<instances::Instance>, f64) {
    let t = Instant::now();
    let out = specs
        .iter()
        .enumerate()
        .map(|(i, &spec)| tr.span("graphs.generate", op, |_| instances::draw(spec, seed, i)))
        .collect();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// FNV-1a digest of a report's colors and simulator counters.
#[must_use]
pub fn digest(report: &Report) -> u64 {
    let m = &report.metrics;
    let words = report.colors.iter().copied().chain([
        m.rounds,
        m.messages,
        m.bits,
        u64::from(m.max_message_bits),
    ]);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One instance's line in the output file: its slot, graph seed, cost
/// counters and the digest of its reference report.
#[must_use]
pub fn digest_line(instance: &instances::Instance, report: &Report) -> String {
    format!(
        "{} {} n={} delta={} graph_seed={} rounds={} messages={} digest={:016x}",
        instance.spec.scenario,
        instance.spec.class.name(),
        instance.graph.n(),
        instance.graph.max_degree(),
        instance.graph_seed,
        report.metrics.rounds,
        report.metrics.messages,
        digest(report)
    )
}

/// Adds the reports' cost totals (`rounds`, `messages`, `bits`, the
/// per-scenario `runner.*.rounds`) and report extras to `v`.
pub fn add_report_totals(reports: &[Report], v: &mut Values) {
    for r in reports {
        *v.entry("rounds").or_default() += r.metrics.rounds as f64;
        *v.entry("messages").or_default() += r.metrics.messages as f64;
        *v.entry("bits").or_default() += r.metrics.bits as f64;
        let key = format!("runner.{}.rounds", r.scenario);
        if let Some(&(name, _)) = metrics::PER_LAYER.iter().find(|(name, _)| *name == key) {
            *v.entry(name).or_default() += r.metrics.rounds as f64;
        }
        for (key, name) in [
            ("kempe_flips", "delta.kempe_flips"),
            ("greedy_recolored", "delta.greedy_recolored"),
            ("collected_nodes", "clique.collected_nodes"),
            ("finisher_iterations", "mpc.finisher_iterations"),
        ] {
            *v.entry(name).or_default() += r.extra(key).unwrap_or(0) as f64;
        }
        let words = r.extra("max_storage_words").unwrap_or(0) as f64;
        let e = v.entry("mpc.max_storage_words").or_default();
        *e = e.max(words);
    }
}

/// The span name of a direct run of `scenario` (`runner.<scenario>`).
#[must_use]
pub fn runner_span(scenario: &str) -> String {
    format!("runner.{scenario}")
}

/// Fills `runner.<scenario>.ms` from the median `runner.<scenario>` span.
pub fn add_runner_ms(tr: &Tracer, v: &mut Values) {
    let names = tr.durations_ms();
    for &(metric, _) in metrics::PER_LAYER {
        if let Some(scenario) = metric
            .strip_prefix("runner.")
            .and_then(|m| m.strip_suffix(".ms"))
        {
            if let Some(d) = names.get(runner_span(scenario).as_str()) {
                v.insert(metric, stats::median(d));
            }
        }
    }
}
