//! `perfbench`: the repository benchmark's command line.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload congest-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints notes, the machine profile and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; writes the same plus per-instance digests (and, traced, every
//! span) to `perfbench/out/<workload>-seed<seed>-trace<0|1>.json`. Exits
//! non-zero without a result line on bad arguments or a failed run.

use dcl_perfbench::{run, Options, Scale, WORKLOADS};
use dcl_runner::MachineProfile;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match outcome.result.line() {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let machine = MachineProfile::current().json_object();
    let path = format!(
        "{}/out/{}-seed{}-trace{}.json",
        env!("CARGO_MANIFEST_DIR"),
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let spans = if opts.trace {
        outcome.tracer.spans_json()
    } else {
        "[]".to_string()
    };
    let digests: Vec<String> = outcome.digests.iter().map(|d| format!("\"{d}\"")).collect();
    let latencies: Vec<String> = outcome
        .latencies_ms
        .iter()
        .map(|l| format!("{l:.4}"))
        .collect();
    let notes: Vec<String> = outcome.notes.iter().map(|d| format!("\"{d}\"")).collect();
    let file = format!(
        "{{\n  \"machine\": {machine},\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"result\": {line},\n  \"notes\": [{}],\n  \"digests\": [\n    {}\n  ],\n  \"latencies_ms\": [{}],\n  \"spans\": {spans}\n}}\n",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        notes.join(", "),
        digests.join(",\n    "),
        latencies.join(", ")
    );
    let written = std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&path, file));
    if let Err(e) = written {
        eprintln!("perfbench: writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("# machine: {machine}");
    println!("{line}");
    ExitCode::SUCCESS
}
