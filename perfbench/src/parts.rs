//! Untraced runs measure in several processes, one after another.
//!
//! On a shared machine a process's speed depends on where its memory
//! landed as well as on what its neighbours do: back-to-back processes
//! running the same simulation differ by up to 30 %, while simulations
//! within one process stay within a few percent of each other. So an
//! untraced run splits its measured time over [`PARTS`] child processes of
//! the benchmark binary, started one at a time, each setting up and
//! measuring on its own, and reports the median of their figures.

use std::process::{Command, Stdio};

use crate::metrics::{median, Values, END_TO_END};
use crate::{Config, Outcome};

/// Child processes per untraced run.
pub const PARTS: usize = 5;

/// Shortest measured phase handed to a part: it still runs one operation.
const MIN_PART_S: f64 = 1e-3;

/// What one part reports to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    /// Operations attempted in the part.
    pub attempted: u64,
    /// Operations that failed in the part.
    pub failed: u64,
    /// Seconds the part spent in measured operations.
    pub measured_s: f64,
    /// The fingerprint the part's first checked output produced.
    pub fingerprint: Option<u64>,
    /// End-to-end metric values, in [`END_TO_END`] order.
    pub values: Vec<f64>,
}

/// The line a part prints last on standard output:
/// `part attempted=… failed=… measured_s=… fingerprint=… <metric>=…`.
///
/// # Errors
/// An end-to-end metric the part did not measure.
pub fn line(outcome: &Outcome) -> Result<String, String> {
    let mut out = format!(
        "part attempted={} failed={} measured_s={} fingerprint={}",
        outcome.attempted,
        outcome.failed,
        outcome.measured_s,
        outcome.fingerprint.map_or_else(|| "none".into(), |f| format!("{f:#x}")),
    );
    for (name, _) in END_TO_END {
        let v =
            outcome.values.get(name).ok_or_else(|| format!("metric `{name}` was not measured"))?;
        out.push_str(&format!(" {name}={v}"));
    }
    Ok(out)
}

/// Parse a [`line`].
///
/// # Errors
/// Anything but a complete part line.
pub fn parse(line: &str) -> Result<Part, String> {
    let mut fields = line.split_whitespace();
    if fields.next() != Some("part") {
        return Err(format!("not a part line: `{line}`"));
    }
    let pairs: Vec<(&str, &str)> = fields.filter_map(|f| f.split_once('=')).collect();
    let get = |key: &str| {
        pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or(format!("no `{key}` in `{line}`"))
    };
    let num = |key: &str| -> Result<f64, String> {
        get(key)?.parse::<f64>().map_err(|e| format!("`{key}` in `{line}`: {e}"))
    };
    let int = |key: &str| -> Result<u64, String> {
        get(key)?.parse::<u64>().map_err(|e| format!("`{key}` in `{line}`: {e}"))
    };
    let fingerprint = match get("fingerprint")? {
        "none" => None,
        hex => Some(
            u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                .map_err(|e| format!("fingerprint in `{line}`: {e}"))?,
        ),
    };
    Ok(Part {
        attempted: int("attempted")?,
        failed: int("failed")?,
        measured_s: num("measured_s")?,
        fingerprint,
        values: END_TO_END.iter().map(|(name, _)| num(name)).collect::<Result<_, _>>()?,
    })
}

/// Run `workload` untraced as [`PARTS`] child processes of this binary,
/// one after another. Part `i` measures until the parts so far have spent
/// `i / PARTS` of `--seconds` in measured operations, and at least one
/// operation. Counts add up; each end-to-end metric is the median over the
/// parts. A part that dies or prints no part line counts as one failed
/// operation, and so does a part whose fingerprint differs from the
/// first part's.
///
/// # Errors
/// No part produced a result.
pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    if !crate::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {:?})",
            crate::WORKLOADS
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let (mut attempted, mut failed, mut measured) = (0u64, 0u64, 0.0f64);
    let mut parts: Vec<Part> = Vec::with_capacity(PARTS);
    for i in 1..=PARTS {
        let budget = (cfg.seconds * i as f64 / PARTS as f64 - measured).max(MIN_PART_S);
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
            .args(["--seconds", &budget.to_string(), "--trace", "0", "--part", &i.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start part {i}: {e}"));
        let part = output.and_then(|out| {
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.lines().last() {
                Some(last) if out.status.success() => {
                    // Each part's figures, for a look at the spread within a run.
                    eprintln!("{last}");
                    parse(last)
                }
                _ => Err(format!("part {i} ended with {} and no part line", out.status)),
            }
        });
        match part {
            Ok(p) => {
                attempted += p.attempted;
                failed += p.failed;
                measured += p.measured_s;
                parts.push(p);
            }
            Err(e) => {
                attempted += 1;
                failed += 1;
                eprintln!("check failed: {e}");
            }
        }
    }
    let first = parts.first().ok_or("no part produced a result")?;
    // Outputs repeat across processes too, pinned seed or not.
    attempted += 1;
    if parts.iter().any(|p| p.fingerprint != first.fingerprint) {
        failed += 1;
        let seen: Vec<_> = parts.iter().map(|p| p.fingerprint).collect();
        eprintln!("check failed: {workload} seed {}: parts disagree: {seen:x?}", cfg.seed);
    }
    let mut values = Values::default();
    for (k, (name, _)) in END_TO_END.iter().enumerate() {
        values.set(name, median(&parts.iter().map(|p| p.values[k]).collect::<Vec<_>>()));
    }
    Ok(Outcome { attempted, failed, measured_s: measured, fingerprint: first.fingerprint, values })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_lines_round_trip() {
        let mut values = Values::default();
        for (k, (name, _)) in END_TO_END.iter().enumerate() {
            values.set(name, 0.1 + k as f64 * 1234.5678);
        }
        let outcome = Outcome {
            attempted: 12,
            failed: 1,
            measured_s: 4.75,
            fingerprint: Some(0xdead),
            values,
        };
        let part = parse(&line(&outcome).unwrap()).unwrap();
        assert_eq!((part.attempted, part.failed, part.measured_s), (12, 1, 4.75));
        assert_eq!(part.fingerprint, Some(0xdead));
        let expected: Vec<f64> =
            END_TO_END.iter().map(|(n, _)| outcome.values.get(n).unwrap()).collect();
        assert_eq!(part.values, expected);
        let none = Outcome { fingerprint: None, ..outcome };
        assert_eq!(parse(&line(&none).unwrap()).unwrap().fingerprint, None);
    }

    #[test]
    fn incomplete_part_lines_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("{\"correct\": true}").is_err());
        assert!(parse("part attempted=1 failed=0 measured_s=1 fingerprint=none").is_err());
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            measured_s: 1.0,
            fingerprint: None,
            values: Values::default(),
        };
        assert!(line(&outcome).is_err());
    }
}
