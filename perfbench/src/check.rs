//! Output checks: report fingerprints, pinned values and the tally of
//! checked operations.
//!
//! `pins.txt` records, per workload and seed, the fingerprint a correct
//! build produces. A seed without a pin is still checked for run-to-run
//! identity within the invocation. Regenerate the file with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- pin <from> <to>`
//! only when a change is meant to alter simulated results.

use sapred_bench::fleet::fnv1a;
use sapred_cluster::{QueryId, SimReport};

use crate::trace::{OracleStats, PickStats};

/// FNV-1a over `words`, each as 8 little-endian bytes.
pub fn hash_words(words: &[u64]) -> u64 {
    fnv1a(&words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
}

/// Fingerprint of a simulation: the makespan bits, each query's finish
/// bits, and every fault and admission statistic.
pub fn report_fingerprint(r: &SimReport) -> u64 {
    let ids = |w: &mut Vec<u64>, qs: &[QueryId]| {
        w.push(qs.len() as u64);
        w.extend(qs.iter().map(|q| q.0 as u64));
    };
    let mut w = vec![r.makespan.to_bits(), r.queries.len() as u64];
    for q in &r.queries {
        w.extend([q.finish.to_bits(), u64::from(q.failed)]);
    }
    let f = &r.faults;
    w.extend(
        [
            f.task_failures,
            f.tasks_killed,
            f.node_crashes,
            f.nodes_blacklisted,
            f.lost_maps,
            f.speculative_launches,
            f.speculative_wins,
            f.retries_scheduled,
            f.recovery_count,
        ]
        .map(|v| v as u64),
    );
    w.extend([f.recovery_latency_sum.to_bits(), f.recovery_latency_max.to_bits()]);
    ids(&mut w, &f.failed_queries);
    let a = &r.admission;
    w.extend([a.queries_shed, a.resubmissions, a.max_active].map(|v| v as u64));
    ids(&mut w, &a.queries_rejected);
    ids(&mut w, &a.deadline_misses);
    hash_words(&w)
}

/// Fingerprint of the per-layer counts of a traced run — what the wrappers
/// counted plus the engine's profiler counters — which must repeat exactly
/// from run to run.
pub fn count_fingerprint(picks: &PickStats, oracle: &OracleStats, counters: &[u64]) -> u64 {
    let mut w = vec![
        picks.picks,
        picks.hits,
        picks.candidates,
        oracle.predicts,
        oracle.observes,
        oracle.snapshots,
    ];
    w.extend_from_slice(counters);
    hash_words(&w)
}

const PINS: &str = include_str!("../pins.txt");

/// The pinned fingerprint of `workload` at `seed`, if one is recorded.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    PINS.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, v) = (it.next()?, it.next()?, it.next()?);
        if w != workload || s.parse::<u64>().ok()? != seed {
            return None;
        }
        u64::from_str_radix(v.trim_start_matches("0x"), 16).ok()
    })
}

/// Tally of checked operations. A failed check is reported on stderr and
/// counted; the run carries on so every mismatch shows.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed or did not match.
    pub failed: u64,
}

impl Tally {
    /// Count one operation that succeeded iff `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Check `value` against the pin of `workload` at `seed`, or, without
    /// a pin, against the first value seen in this invocation (`first`).
    pub fn check_pinned(&mut self, workload: &str, seed: u64, first: &mut Option<u64>, value: u64) {
        let expected = pinned(workload, seed).or(*first).unwrap_or(value);
        first.get_or_insert(value);
        self.check(value == expected, || {
            format!("{workload} seed {seed}: fingerprint {value:#018x}, expected {expected:#018x}")
        });
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_parse_and_every_workload_is_pinned_at_seed_1() {
        for w in crate::WORKLOADS {
            assert!(pinned(w, 1).is_some(), "{w} has no pin at seed 1");
        }
        assert_eq!(pinned("no_such_workload", 1), None);
    }

    #[test]
    fn unpinned_values_must_repeat() {
        let mut t = Tally::default();
        let mut first = None;
        t.check_pinned("no_such_workload", 1, &mut first, 5);
        t.check_pinned("no_such_workload", 1, &mut first, 5);
        assert_eq!(t.failed, 0);
        t.check_pinned("no_such_workload", 1, &mut first, 6);
        assert_eq!((t.attempted, t.failed), (3, 1));
    }
}
