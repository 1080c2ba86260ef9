//! Command line of the benchmark.
//!
//! ```text
//! sapred-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sapred-perfbench pin <from-seed> <to-seed>
//! ```
//!
//! The first form runs one workload and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`. An
//! untraced run measures in child processes of this binary, which it starts
//! with `--part <i>` (see `parts`). The second form prints the `pins.txt`
//! lines for a range of seeds.

use std::path::PathBuf;
use std::process::ExitCode;

use sapred_perfbench::metrics::{END_TO_END, PER_LAYER};
use sapred_perfbench::{fingerprint, parts, run, Config, WORKLOADS};

/// Where runs leave checkpoint files and span logs, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: sapred-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     sapred-perfbench pin <from-seed> <to-seed>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("pin") {
        pin(&args[1..])
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut part) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            "--part" => &mut part,
            other => return Err(format!("unknown flag `{other}`")),
        };
        *slot = Some(value.clone());
    }
    let workload = workload.ok_or("--workload is required")?;
    let cfg = Config {
        seed: seed.ok_or("--seed is required")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds
            .ok_or("--seconds is required")?
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        traced: match trace.as_deref().unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        out_dir: PathBuf::from(OUT_DIR),
    };
    if part.is_some() {
        if cfg.traced {
            return Err("--part runs untraced".into());
        }
        println!("{}", parts::line(&run(&workload, &cfg)?)?);
        return Ok(());
    }
    let outcome = if cfg.traced { run(&workload, &cfg)? } else { parts::run(&workload, &cfg)? };
    let (spec, all) = if cfg.traced { (PER_LAYER, false) } else { (END_TO_END, true) };
    let metrics = outcome.values.to_json(spec, all)?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    Ok(())
}

fn pin(args: &[String]) -> Result<(), String> {
    let [from, to] = args else { return Err("pin needs <from-seed> <to-seed>".into()) };
    let from: u64 = from.parse().map_err(|e| format!("from-seed: {e}"))?;
    let to: u64 = to.parse().map_err(|e| format!("to-seed: {e}"))?;
    for seed in from..=to {
        for w in WORKLOADS {
            println!("{w} {seed} {:#018x}", fingerprint(w, seed)?);
        }
    }
    Ok(())
}
