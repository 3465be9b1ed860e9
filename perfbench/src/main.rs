//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan_large|serve_small|lora_vectors|fleet_faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs generated from the seed, checks every
//! output, and prints one JSON line last: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`, which also
//! writes the span file `perfbench/out/spans-<workload>-<seed>.json`).
//! See `perfbench/README.md`.

mod chain;
mod check;
mod inputs;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Run;
use std::time::Instant;
use trace::Tracer;

/// Host threads of the library's work pool in every run.
const POOL_THREADS: &str = "2";

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // The pool sizes itself from this variable on first use, which is
    // after this point: nothing has touched the library yet.
    std::env::set_var("RAYON_NUM_THREADS", POOL_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut run = Run::default();
    match args.workload.as_str() {
        "plan_large" => workloads::plan_large(&args, &mut run, &mut tracer),
        "serve_small" => workloads::serve_small(&args, &mut run, &mut tracer),
        "lora_vectors" => workloads::lora_vectors(&args, &mut run, &mut tracer),
        "fleet_faults" => workloads::fleet_faults(&args, &mut run, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    if args.trace {
        run.sim_layers();
        run.span_layers(&tracer);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.json",
            args.workload, args.seed
        ));
        if let Err(e) = tracer.write_json(&path, &args.workload, args.seed) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    println!("{}", run.result_json(args.trace));
}
