//! rsdc benchmark: two served decision streams and a durable tick loop.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --rsdc BIN --workdir DIR`
//!
//! `--trace 0` measures the end-to-end metrics (tracing off); `--trace 1`
//! replays the same generated inputs through each layer's public calls
//! with spans on and reports the per-layer metrics. The last stdout line
//! is the JSON summary; the full result, host block included, is also
//! written under `DIR/results/`.

mod durable;
mod gen;
mod host;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use std::path::PathBuf;

/// Everything a workload run needs from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rsdc: PathBuf,
    pub workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {key}"))
    };
    let num = |key: &str| -> Result<u64, String> {
        get(key)?.parse().map_err(|e| format!("bad {key}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
        rsdc: get("--rsdc")?.into(),
        workdir: get("--workdir")?.into(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    host::allowed_cpus();
    let mut report = Report::new(&args);
    let outcome = match args.workload.as_str() {
        "serve-binary-policy" => serve::run(&serve::BINARY_POLICY, &args, &mut report),
        "serve-jsonl-control" => serve::run(&serve::JSONL_CONTROL, &args, &mut report),
        "durable-ticks" => durable::run(&args, &mut report),
        other => Err(format!(
            "unknown workload {other:?} (serve-binary-policy, serve-jsonl-control, durable-ticks)"
        )),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    if let Err(e) = report.finish(&args) {
        eprintln!("perfbench: writing results: {e}");
        std::process::exit(1);
    }
}
