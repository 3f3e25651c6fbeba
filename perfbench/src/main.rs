//! The repository benchmark: three workloads (`infer`, `dslam`, `fleet`)
//! driven through the workspace's public APIs. Prints end-to-end metrics,
//! or with `--trace 1` per-layer metrics, as one JSON line on stdout.
//!
//! ```text
//! inca-perfbench --workload <infer|dslam|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod dslam;
mod fleet;
mod infer;
mod report;
mod timed;

use report::{END_TO_END, PER_LAYER};

fn arg(args: &[String], flag: &str) -> Result<String, String> {
    let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
    args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    arg(args, flag)?.parse().map_err(|_| format!("bad value for {flag}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let parsed = (|| -> Result<_, String> {
        let workload = arg(&args, "--workload")?;
        let seed: u64 = parse(&args, "--seed")?;
        let seconds: f64 = parse(&args, "--seconds")?;
        let trace: u8 = parse(&args, "--trace")?;
        if seconds.is_nan() || seconds <= 0.0 || trace > 1 {
            return Err("--seconds must be positive and --trace 0 or 1".into());
        }
        Ok((workload, seed, seconds, trace == 1))
    })();
    let (workload, seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("inca-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match workload.as_str() {
        "infer" => infer::run(seed, seconds, trace),
        "dslam" => dslam::run(seed, seconds, trace),
        "fleet" => fleet::run(seed, seconds, trace),
        other => {
            eprintln!("inca-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    let line =
        if trace { outcome.to_json(&PER_LAYER, true) } else { outcome.to_json(&END_TO_END, false) };
    println!("{line}");
}
