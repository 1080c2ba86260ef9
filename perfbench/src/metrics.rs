//! Metric names, units, the result line, sample statistics and memory
//! readings.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run of every workload.
/// `ops_per_s` counts query submissions (`predict_stream`), simulated task
/// attempts (`sim_*`) and fleet cells (`fleet_sweep`); a latency sample is
/// one query submission, one whole simulation and one whole sweep.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A layer that does not
/// run on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("relation.dbgen_s", "s"),
    ("core.train_s", "s"),
    ("workload.gen_s", "s"),
    ("setup.warm_s", "s"),
    ("query.parse_s", "s"),
    ("query.analyze_s", "s"),
    ("plan.compile_s", "s"),
    ("plan.jobs", "count"),
    ("selectivity.estimate_s", "s"),
    ("selectivity.jobs", "count"),
    ("predict.predict_s", "s"),
    ("sched.picks", "count"),
    ("sched.pick_s", "s"),
    ("sched.candidates_scanned", "count"),
    ("sched.candidates_per_pick", "count"),
    ("sched.pick_hit_ratio", "ratio"),
    ("engine.events", "count"),
    ("engine.queue_ops", "count"),
    ("engine.queue_peak_depth", "count"),
    ("engine.view_updates", "count"),
    ("engine.dispatch_decisions", "count"),
    ("engine.tasks_launched", "count"),
    ("engine.arena_bytes_peak", "bytes"),
    ("engine.arena_slots_recycled", "count"),
    ("engine.self_s", "s"),
    ("oracle.calls", "count"),
    ("oracle.predict_s", "s"),
    ("ckpt.writes", "count"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.overhead_s", "s"),
    ("fault.task_failures", "count"),
    ("fault.retries", "count"),
    ("fault.tasks_killed", "count"),
    ("fault.lost_maps", "count"),
    ("fault.spec_launches", "count"),
    ("fault.spec_win_ratio", "ratio"),
    ("admission.shed", "count"),
    ("admission.resubmissions", "count"),
    ("admission.rejected", "count"),
    ("admission.deadline_misses", "count"),
    ("admission.max_active", "count"),
    ("fleet.cells_run", "count"),
    ("fleet.cells_failed", "count"),
    ("mem.setup_rss_mb", "MB"),
    ("mem.run_growth_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
    ("check.error_rate", "ratio"),
    ("quality.card_mare", "ratio"),
    ("quality.sim_mean_response_s", "sim_s"),
    ("quality.sim_makespan_s", "sim_s"),
];

/// Named metric values collected by a run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name` to `value`.
    ///
    /// # Panics
    /// If `name` is not a declared metric: a typo must not silently vanish
    /// from the result line.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric `{name}`"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if it was set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line's `metrics` object over `spec`, in `spec` order.
    /// End-to-end metrics must all be set; per-layer metrics that were not
    /// set are layers the workload does not run and read 0.
    ///
    /// # Errors
    /// A missing end-to-end metric, or any value that is not finite.
    pub fn to_json(&self, spec: &[(&str, &str)], require_all: bool) -> Result<String, String> {
        let mut parts = Vec::with_capacity(spec.len());
        for (name, unit) in spec {
            let value = match self.0.get(name) {
                Some(v) => *v,
                None if require_all => return Err(format!("metric `{name}` was not measured")),
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Nearest-rank quantile of `samples` (sorted in place), `q` in `[0, 1]`.
pub fn quantile<T: Copy + Into<f64>>(samples: &mut [T], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| (*a).into().total_cmp(&(*b).into()));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1].into()
}

/// The highest of p99, p90 and p50 of `samples` that has at least ten
/// samples beyond it: p99 from 1000 samples, p90 from 100, else the median.
pub fn tail<T: Copy + Into<f64>>(samples: &mut [T]) -> f64 {
    let n = samples.len() as f64;
    let q = [0.99, 0.9].into_iter().find(|q| (1.0 - q) * n >= 10.0 - 1e-9).unwrap_or(0.5);
    quantile(samples, q)
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5)
}

/// Arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// A `/proc/self/status` field in MB (`VmHWM`, `VmRSS`); 0 where the file
/// is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM")
}

/// Current resident set of this process, MB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS")
}

/// `latency_p50_ms` and `latency_tail_ms` from `samples` in units of
/// `unit_s` seconds; the sample count goes to stderr.
pub fn set_latencies<T: Copy + Into<f64>>(values: &mut Values, samples: &mut [T], unit_s: f64) {
    eprintln!("latency samples: {}", samples.len());
    values.set("latency_p50_ms", quantile(samples, 0.5) * unit_s * 1e3);
    values.set("latency_tail_ms", tail(samples) * unit_s * 1e3);
}

/// The memory metrics both kinds of run report from a `peak` reading of
/// [`peak_rss_mb`]: `peak_rss_mb` end-to-end, `mem.*` per layer.
pub fn set_memory(values: &mut Values, traced: bool, setup_rss_mb: f64, peak: f64) {
    if traced {
        values.set("mem.setup_rss_mb", setup_rss_mb);
        values.set("mem.run_growth_mb", (peak - setup_rss_mb).max(0.0));
    } else {
        values.set("peak_rss_mb", peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        let mut many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&mut many), 990.0);
        let mut some: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut some), 90.0);
        assert_eq!(tail(&mut v), 3.0);
    }

    #[test]
    fn unset_end_to_end_metric_is_an_error() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        assert!(v.to_json(END_TO_END, true).is_err());
        let json = v.to_json(PER_LAYER, false).unwrap();
        assert!(json.contains("\"sched.picks\": {\"value\": 0, \"unit\": \"count\"}"));
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = json.split(&format!("\"{section}\": [")).nth(1).expect("section present");
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest =
                            entry.split(&format!("\"{key}\": \"")).nth(1).expect("field present");
                        rest[..rest.find('"').expect("string closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
            spec.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn memory_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(rss_mb() > 0.0);
        }
    }
}
