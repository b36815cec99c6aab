//! The fagin-topk benchmark: one command runs one named workload from a
//! seed, checks every answer against the oracle, and prints every metric
//! by name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! (written to `perfbench/out/`) and reports the per-layer metrics. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod drive;
mod exec;
mod oracle;
mod replay;
mod suite;
mod trace;
mod util;

use std::path::Path;
use std::process::ExitCode;

use suite::{Run, Served};

/// The end-to-end metrics the JSON line carries, on every workload.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "lat_p50_ms",
    "lat_p99_ms",
    "qps",
    "cost_per_query",
    "peak_rss_mb",
];

/// The per-layer metrics a traced run reports, with their units. A layer a
/// workload does not use reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p99", "ms"),
    ("serve.hit_frac", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.warm_frac", "ratio"),
    ("serve.cold_frac", "ratio"),
    ("serve.degraded_frac", "ratio"),
    ("serve.rejected", "count"),
    ("core.plan_us_p50", "us"),
    ("core.self_ms_p50.ta", "ms"),
    ("core.self_ms_p99.ta", "ms"),
    ("core.self_ms_p50.nra", "ms"),
    ("core.self_ms_p99.nra", "ms"),
    ("core.self_ms_p50.ca", "ms"),
    ("core.self_ms_p99.ca", "ms"),
    ("core.rounds_per_query", "count"),
    ("core.bound_evals_per_query", "count"),
    ("core.peak_buffer", "count"),
    ("core.anytime_overrun_ms_p99", "ms"),
    ("middleware.sorted_per_query", "count"),
    ("middleware.random_per_query", "count"),
    ("middleware.calls_per_query", "count"),
    ("middleware.access_ms_p50", "ms"),
    ("middleware.ns_per_access", "ns"),
    ("store.write_s", "s"),
    ("store.open_s", "s"),
    ("store.bytes_per_entry", "B"),
    ("remote.requests_per_query", "count"),
    ("remote.rtt_us_p50", "us"),
    ("remote.rtt_us_p99", "us"),
    ("remote.retries", "count"),
    ("workloads.gen_s", "s"),
    ("load.gen_lag_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 4] = [
    "engine-direct",
    "serve-zipf",
    "deadline-degrade",
    "remote-mmap",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// A finite number for JSON (`NaN`/`inf` never appear in the output).
fn num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new("perfbench/out");
    let run: Run = match args.workload.as_str() {
        "engine-direct" => suite::engine_direct(args.seed, args.seconds, args.trace),
        "serve-zipf" => suite::served(
            Served::ServeZipf,
            args.seed,
            args.seconds,
            args.trace,
            out_dir,
        ),
        "deadline-degrade" => suite::served(
            Served::DeadlineDegrade,
            args.seed,
            args.seconds,
            args.trace,
            out_dir,
        ),
        _ => suite::served(
            Served::RemoteMmap,
            args.seed,
            args.seconds,
            args.trace,
            out_dir,
        ),
    };

    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    for (name, value, unit) in &run.e2e {
        println!("metric {name} {value} {unit}");
    }
    let mut metrics = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = num(run.layer.get(name).copied().unwrap_or(0.0));
            println!("metric {name} {value} {unit}");
            metrics.push((name, value, unit));
        }
        println!(
            "check access counts: {} replayed runs compared with the untraced run, {} wrong answers or mismatches",
            run.compared, run.wrong
        );
        if let Some(spans) = &run.spans {
            // One file per workload, overwritten by the next traced run.
            let path = out_dir.join(format!("{}.spans.tsv", args.workload));
            match spans.write(&path) {
                Ok(()) => println!("spans {} written to {}", spans.spans.len(), path.display()),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
        }
    } else {
        for name in END_TO_END {
            let &(_, value, unit) = run
                .e2e
                .iter()
                .find(|m| m.0 == name)
                .expect("every workload reports every end-to-end metric");
            metrics.push((name, num(value), unit));
        }
    }
    let correct = run.wrong == 0 && run.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} wrong answers or access-count mismatches in {} requests",
            run.wrong, run.attempted
        );
        ExitCode::FAILURE
    }
}
