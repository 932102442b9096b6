//! End-to-end collector benchmark: seeded rows → `Client::encode_batch`
//! → an in-process `ldp_server::Server` on loopback → snapshot / query
//! → `PipelineAccumulator::from_state` → `finalize` → every k-way
//! marginal. See `README.md` beside this crate for the workloads, the
//! metrics and how to read a traced run.
//!
//! Usage: `collector-bench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--spans-out <file>]`. The last line of standard
//! output is the result as one JSON object; the exit code is 0 only
//! when every output check passed and no operation failed.

mod checks;
mod cpu;
mod load;
mod metrics;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

struct Args {
    config: run::Config,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(workload::find(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        config: run::Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
        spans_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("collector-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    eprintln!(
        "collector-bench: workload {} seed {} seconds {} trace {}",
        cfg.workload.name,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let outcome = run::run(cfg);
    for line in &outcome.notes {
        eprintln!("{line}");
    }
    if let Some(path) = &args.spans_out {
        let written = std::fs::File::create(path)
            .and_then(|f| outcome.tracer.write_tsv(std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("collector-bench: cannot write spans to {path}: {e}");
        }
    }
    for e in &outcome.errors {
        eprintln!("FAILED: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        metrics::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
