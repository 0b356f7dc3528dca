//! The benchmark's own checks, on the tiny smoke size: every named metric
//! prints with its unit, the per-scenario round counts add up, the cost
//! counters repeat exactly, and traced spans nest.

use dcl_perfbench::metrics::{END_TO_END, PER_LAYER};
use dcl_perfbench::{run, Options, Outcome, Scale, WORKLOADS};
use std::sync::OnceLock;

/// Per workload: an untraced run, a second untraced run of the same seed,
/// and a traced run.
struct Runs {
    workload: &'static str,
    plain: Outcome,
    again: Outcome,
    traced: Outcome,
}

fn smoke(workload: &str, trace: bool) -> Outcome {
    let opts = Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Smoke,
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload} smoke run failed: {e}"))
}

fn runs() -> &'static [Runs] {
    static RUNS: OnceLock<Vec<Runs>> = OnceLock::new();
    RUNS.get_or_init(|| {
        WORKLOADS
            .iter()
            .map(|&workload| Runs {
                workload,
                plain: smoke(workload, false),
                again: smoke(workload, false),
                traced: smoke(workload, true),
            })
            .collect()
    })
}

#[test]
fn every_named_metric_prints_with_its_unit() {
    for r in runs() {
        for (outcome, catalogue) in [(&r.plain, END_TO_END), (&r.traced, PER_LAYER)] {
            let line = outcome.result.line().expect("a printable result");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for &(name, unit) in catalogue {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{}: {name} missing", r.workload));
                let rest = &line[at + needle.len()..];
                assert!(
                    rest.contains(&format!("\"unit\": \"{unit}\"}}")),
                    "{}: {name}",
                    r.workload
                );
            }
        }
        assert_eq!(
            r.plain.result.failed, 0,
            "{}: no operation may fail",
            r.workload
        );
        assert!(
            r.plain.result.correct && r.traced.result.correct,
            "{}",
            r.workload
        );
        for &(name, _) in END_TO_END {
            assert!(
                r.plain.result.metrics[name] > 0.0,
                "{}: {name} must not be 0",
                r.workload
            );
        }
    }
}

#[test]
fn runner_rounds_sum_to_rounds() {
    for r in runs() {
        let m = &r.traced.result.metrics;
        let per_scenario: f64 = PER_LAYER
            .iter()
            .filter(|(name, _)| name.starts_with("runner.") && name.ends_with(".rounds"))
            .map(|(name, _)| m.get(name).copied().unwrap_or(0.0))
            .sum();
        assert!(per_scenario > 0.0, "{}", r.workload);
        assert_eq!(
            per_scenario, r.plain.result.metrics["rounds"],
            "{}",
            r.workload
        );
    }
}

#[test]
fn cost_counters_and_digests_repeat_exactly() {
    for r in runs() {
        for name in ["rounds", "messages", "bits"] {
            assert_eq!(
                r.plain.result.metrics[name], r.again.result.metrics[name],
                "{}: {name}",
                r.workload
            );
            assert_eq!(
                r.plain.result.metrics[name], r.traced.result.metrics[name],
                "{}: {name}",
                r.workload
            );
        }
        assert_eq!(r.plain.digests, r.traced.digests, "{}", r.workload);
    }
}

#[test]
fn traced_spans_nest_inside_their_parents() {
    for r in runs() {
        let spans = r.traced.tracer.spans();
        assert!(!spans.is_empty(), "{}", r.workload);
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{}: {} escapes {}",
                    r.workload,
                    s.name,
                    parent.name
                );
                assert_eq!(
                    parent.op, s.op,
                    "{}: a span shares its parent's op id",
                    r.workload
                );
                child_ns[p] += s.duration_ns();
            }
        }
        for (s, kids) in spans.iter().zip(child_ns) {
            assert!(
                kids <= s.duration_ns(),
                "{}: {} has negative self time",
                r.workload,
                s.name
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
    for w in WORKLOADS {
        assert!(
            compact.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "workload {w}"
        );
    }
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            compact.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "metric {name} ({unit}) is not in BENCHMARK.json"
        );
    }
    let metrics = compact.matches("\"unit\":").count();
    assert_eq!(
        metrics,
        END_TO_END.len() + PER_LAYER.len(),
        "no extra metrics"
    );
}

#[test]
fn congest_mix_traced_run_probes_every_layer() {
    let r = runs()
        .iter()
        .find(|r| r.workload == "congest-mix")
        .expect("congest-mix ran");
    let m = &r.traced.result.metrics;
    for name in [
        "graphs.generate_ms",
        "core.linial.ms",
        "sim.round_us",
        "decomp.decompose.ms",
        "kernels.edge_shares_cached.ns",
        "kernels.argmin_f64.ns",
        "transport.local.round_us",
        "transport.channel.round_us",
        "transport.tcp.frames",
        "transport.tcp.wire_bytes",
        "service.op_ms.p50",
        "service.max_rate_rps",
        "service.direct_ms",
        "client.bytes_sent",
        "wire.report_encode_us",
        "proto.request_bytes",
    ] {
        assert!(
            m.get(name).copied().unwrap_or(0.0) > 0.0,
            "{name} was not measured"
        );
    }
}
