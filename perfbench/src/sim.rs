//! `sim_backlog` and `sim_history`: whole simulations of the synthetic
//! dispatch workload, timed end to end.
//!
//! One operation for `ops_per_s` is one simulated task attempt (retries and
//! speculative clones included): a unit of the input, so the rate does not
//! move when the engine changes how many internal events it needs. The
//! latencies are those of whole simulations.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sapred_bench::dispatch_workload;
use sapred_bench::fleet::{SchedKind, FAULT_SEED_SALT};
use sapred_cluster::job::SimQuery;
use sapred_cluster::sched::Scheduler;
use sapred_cluster::{FaultPlan, FrozenOracle, NodeCrash, SimReport, Simulator};
use sapred_core::Framework;
use sapred_obs::profile::Counter;
use sapred_obs::{NullProfiler, NullSink, SpanProfiler};

use crate::check::{count_fingerprint, report_fingerprint, Tally};
use crate::metrics::{mean, median, peak_rss_mb, rss_mb, set_latencies, set_memory, Values};
use crate::trace::{
    OracleStats, PickStats, SharedLog, TimedOracle, TimedScheduler, TraceCtx, NO_SPAN,
};
use crate::{repeat_setup, secs, trim_heap, unpanic, Config, Outcome, SETUP_WINDOW};

/// One simulation workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Workload name (also its key in `pins.txt`).
    pub name: &'static str,
    /// `dispatch_workload(queries, jobs, maps, reduces)`.
    pub shape: (usize, usize, usize, usize),
    /// Scheduling policy.
    pub policy: SchedKind,
    /// Inject the seeded fault plan of [`fault_plan`].
    pub faults: bool,
    /// Write a checkpoint every this many events.
    pub ckpt_every: Option<u64>,
}

/// About a thousand runnable jobs back up, so SWRD's pick scans them all.
pub const BACKLOG: SimSpec = SimSpec {
    name: "sim_backlog",
    shape: (2000, 5, 40, 10),
    policy: SchedKind::Swrd,
    faults: false,
    ckpt_every: None,
};

/// A long run with few queries: the event core, the attempt registry and
/// checkpoint writes dominate while picks stay small.
pub const HISTORY: SimSpec = SimSpec {
    name: "sim_history",
    shape: (100, 5, 1600, 400),
    policy: SchedKind::Fifo,
    faults: true,
    ckpt_every: Some(800_000),
};

/// The fault plan of fault-injecting workloads: 2 % transient task
/// failures, one transient node crash, speculation on. Six attempts per task
/// keep queries from being abandoned, so every run finishes its workload.
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        task_fail_prob: 0.02,
        max_attempts: 6,
        node_crashes: vec![NodeCrash::transient(3, 600.0, 300.0)],
        speculative: true,
        seed: seed ^ FAULT_SEED_SALT,
        ..FaultPlan::default()
    }
}

/// A configured simulator for `spec` at `seed`, checkpointing to `ckpt`
/// when the spec asks for it.
pub fn simulator<S: Scheduler>(
    spec: &SimSpec,
    sched: S,
    seed: u64,
    ckpt: Option<&Path>,
) -> Simulator<S> {
    let fw = Framework::new();
    let mut cluster = fw.cluster;
    cluster.seed = seed;
    let mut sim = Simulator::new(cluster, fw.cost, sched);
    if spec.faults {
        sim = sim.with_faults(fault_plan(seed));
    }
    match (spec.ckpt_every, ckpt) {
        (Some(every), Some(path)) => sim.checkpoint_every_events(every, path),
        _ => sim,
    }
}

/// One simulation's wall time and the wrappers' counts (zero untraced).
struct Rep {
    wall: f64,
    /// Task attempts simulated (0 when the run failed).
    attempts: usize,
    /// The report, kept for the most recent simulation only so memory does
    /// not grow with the number of simulations a run fits.
    report: Option<SimReport>,
    picks: PickStats,
    oracle: OracleStats,
    counters: [u64; Counter::ALL.len()],
}

/// Run one simulation, untraced (`log` is `None`) or through the timing
/// wrappers with spans under a `sim.run` root.
fn run_rep<S: Scheduler>(
    spec: &SimSpec,
    sched: S,
    seed: u64,
    queries: &[SimQuery],
    ckpt: Option<&Path>,
    log: Option<(&SharedLog, u32)>,
) -> (Rep, Result<SimReport, String>) {
    let Some((log, run)) = log else {
        let mut sim = simulator(spec, sched, seed, ckpt);
        let start = Instant::now();
        let report = unpanic(|| {
            sim.try_run_profiled(queries, &mut NullSink, &mut FrozenOracle, &NullProfiler)
                .map_err(|e| e.to_string())
        });
        let rep = Rep {
            wall: secs(start),
            attempts: 0,
            report: None,
            picks: PickStats::default(),
            oracle: OracleStats::default(),
            counters: [0; Counter::ALL.len()],
        };
        return (rep, report);
    };
    let root = log.borrow_mut().open("sim.run", NO_SPAN, run);
    let ctx = TraceCtx { log: log.clone(), parent: root, run };
    let mut sim = simulator(spec, TimedScheduler::new(sched, ctx.clone()), seed, ckpt);
    let mut oracle = TimedOracle::new(FrozenOracle, ctx);
    let prof = SpanProfiler::new();
    let start = Instant::now();
    let report = unpanic(|| {
        sim.try_run_profiled(queries, &mut NullSink, &mut oracle, &prof).map_err(|e| e.to_string())
    });
    let end = Instant::now();
    log.borrow_mut().close(root, "sim.run", start, end);
    let mut counters = [0; Counter::ALL.len()];
    for (slot, &c) in counters.iter_mut().zip(Counter::ALL.iter()) {
        *slot = prof.counter(c);
    }
    let rep = Rep {
        wall: end.duration_since(start).as_secs_f64(),
        attempts: 0,
        report: None,
        picks: sim.scheduler.stats,
        oracle: oracle.stats(),
        counters,
    };
    (rep, report)
}

/// Repeated simulations of one workload at one seed, with their checks.
struct Runs<'a, S> {
    spec: &'a SimSpec,
    sched: S,
    seed: u64,
    queries: &'a [SimQuery],
    tally: Tally,
    /// First fingerprint seen, for seeds without a pin.
    first: Option<u64>,
    /// Simulations run so far; the run id of the next one.
    count: u32,
}

impl<S: Scheduler + Copy> Runs<'_, S> {
    /// Repeat simulations until `deadline` (at least once), checking each
    /// and calling `between` after each.
    fn until(
        &mut self,
        deadline: Instant,
        ckpt: Option<&Path>,
        log: Option<&SharedLog>,
        between: &mut dyn FnMut(),
    ) -> Vec<Rep> {
        let name = self.spec.name;
        let mut out: Vec<Rep> = Vec::new();
        while out.is_empty() || Instant::now() < deadline {
            // Only the latest report is kept, and not while the next
            // simulation runs, so memory does not depend on how many
            // simulations fit in the run.
            if let Some(prev) = out.last_mut() {
                prev.report = None;
            }
            let (mut rep, result) = run_rep(
                self.spec,
                self.sched,
                self.seed,
                self.queries,
                ckpt,
                log.map(|l| (l, self.count)),
            );
            self.count += 1;
            match result {
                Ok(report) => {
                    let fingerprint = report_fingerprint(&report);
                    self.tally.check_pinned(name, self.seed, &mut self.first, fingerprint);
                    self.tally.check(report.queries.iter().all(|q| !q.failed), || {
                        format!("{name}: a query was abandoned")
                    });
                    rep.attempts = report.total_attempts();
                    rep.report = Some(report);
                }
                Err(e) => self.tally.check(false, || format!("{name}: run failed: {e}")),
            }
            if let Some(prev) = out.first() {
                // Per-layer counts repeat exactly from run to run.
                self.tally.check(layer_counts(prev) == layer_counts(&rep), || {
                    format!("{name}: per-layer counts differ between runs")
                });
            }
            out.push(rep);
            between();
            // Hand free pages back between simulations, so what the set-up
            // windows allocated does not stay resident.
            trim_heap();
        }
        out
    }
}

fn layer_counts(rep: &Rep) -> u64 {
    count_fingerprint(&rep.picks, &rep.oracle, &rep.counters)
}

/// Fingerprint of one untraced, checkpoint-free simulation of `spec`.
///
/// # Errors
/// The run failed.
pub fn fingerprint(spec: &SimSpec, seed: u64) -> Result<u64, String> {
    let (q, j, m, r) = spec.shape;
    let queries = dispatch_workload(q, j, m, r);
    let report = with_sched!(spec.policy, |s| run_rep(spec, s, seed, &queries, None, None).1);
    report.map(|r| report_fingerprint(&r))
}

/// Run a simulation workload.
pub fn run(spec: &SimSpec, cfg: &Config) -> Outcome {
    with_sched!(spec.policy, |s| run_with(spec, s, cfg))
}

fn run_with<S: Scheduler + Copy>(spec: &SimSpec, sched: S, cfg: &Config) -> Outcome {
    // Set-up: generate the workload for one window, and keep the last; more
    // windows follow the untraced simulations.
    let (q, j, m, r) = spec.shape;
    let window = || {
        let (queries, times) = repeat_setup(SETUP_WINDOW, || {
            let start = Instant::now();
            let queries = dispatch_workload(q, j, m, r);
            (queries, secs(start))
        });
        (queries, mean(&times))
    };
    let (queries, first) = window();
    let mut setups = vec![first];
    let setup_rss = rss_mb();

    let ckpt: Option<PathBuf> = spec.ckpt_every.map(|_| {
        std::fs::create_dir_all(&cfg.out_dir).expect("create the output directory");
        cfg.out_dir.join(format!("{}-{}.ckpt", spec.name, std::process::id()))
    });
    let mut runs = Runs {
        spec,
        sched,
        seed: cfg.seed,
        queries: &queries,
        tally: Tally::default(),
        first: None,
        count: 0,
    };
    // `peak_rss_mb` is read after the first simulation: a process that has
    // freed a large mapping lets glibc serve later large allocations from
    // the heap, which raises the peak of every later simulation by ~15 %,
    // so a reading at the end would depend on how many simulations fit.
    let mut first_peak = None;
    let plain = runs.until(cfg.deadline(), ckpt.as_deref(), None, &mut || {
        first_peak.get_or_insert_with(peak_rss_mb);
        setups.push(window().1);
    });
    let mut walls: Vec<f64> = plain.iter().map(|r| r.wall).collect();
    let mut values = Values::default();

    if !cfg.traced {
        let attempts = plain.iter().map(|r| r.attempts as f64).find(|&a| a > 0.0).unwrap_or(0.0);
        values.set("setup_s", median(&setups));
        values.set("ops_per_s", attempts * walls.len() as f64 / walls.iter().sum::<f64>());
        set_latencies(&mut values, &mut walls, 1.0);
        set_memory(&mut values, false, setup_rss, first_peak.unwrap_or_else(peak_rss_mb));
        remove(ckpt.as_deref());
        return Outcome {
            attempted: runs.tally.attempted,
            failed: runs.tally.failed,
            measured_s: walls.iter().sum(),
            fingerprint: runs.first,
            values,
        };
    }

    let log = SharedLog::default();
    let traced = runs.until(cfg.deadline(), ckpt.as_deref(), Some(&log), &mut || {});
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall).collect();
    let last = traced.last().expect("at least one traced run");
    values.set("workload.gen_s", median(&setups));
    set_layers(&mut values, last);
    values.set("trace.overhead_ratio", median(&traced_walls) / median(&walls));
    if spec.ckpt_every.is_some() {
        // The companion: the same traced runs with checkpoints off.
        let companion_deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 4.0);
        let companion = runs.until(companion_deadline, None, Some(&log), &mut || {});
        let companion_walls: Vec<f64> = companion.iter().map(|r| r.wall).collect();
        values.set("ckpt.writes", last.oracle.snapshots as f64);
        values.set("ckpt.bytes", last.counters[Counter::CheckpointBytes as usize] as f64);
        values.set("ckpt.overhead_s", median(&traced_walls) - median(&companion_walls));
    }
    values.set("check.error_rate", runs.tally.error_rate());
    set_memory(&mut values, true, setup_rss, peak_rss_mb());
    remove(ckpt.as_deref());
    if let Err(e) = log
        .borrow()
        .write_jsonl(&cfg.out_dir.join(format!("{}-{}.spans.jsonl", spec.name, cfg.seed)))
    {
        eprintln!("could not write the span log: {e}");
    }
    Outcome {
        attempted: runs.tally.attempted,
        failed: runs.tally.failed,
        measured_s: walls.iter().chain(&traced_walls).sum(),
        fingerprint: runs.first,
        values,
    }
}

fn remove(path: Option<&Path>) {
    if let Some(p) = path {
        let _ = std::fs::remove_file(p);
    }
}

/// The per-layer metrics of one traced simulation.
fn set_layers(values: &mut Values, rep: &Rep) {
    set_engine_layers(values, &rep.picks, &rep.oracle, &rep.counters, rep.wall);
    if let Some(report) = &rep.report {
        set_outcome_layers(values, std::slice::from_ref(report));
    }
}

/// Scheduler, engine and oracle metrics from the wrappers' counts and the
/// engine's profiler counters over `wall` seconds of simulation.
pub fn set_engine_layers(
    values: &mut Values,
    picks: &PickStats,
    oracle: &OracleStats,
    counters: &[u64],
    wall: f64,
) {
    let c = |counter: Counter| counters[counter as usize] as f64;
    values.set("sched.picks", picks.picks as f64);
    values.set("sched.pick_s", picks.est_secs());
    values.set("sched.candidates_scanned", picks.candidates as f64);
    values.set("sched.candidates_per_pick", ratio(picks.candidates, picks.picks));
    values.set("sched.pick_hit_ratio", ratio(picks.hits, picks.picks));
    values.set("engine.events", c(Counter::EventsProcessed));
    values.set("engine.queue_ops", c(Counter::EventQueueOps));
    values.set("engine.queue_peak_depth", c(Counter::QueuePeakDepth));
    values.set("engine.view_updates", c(Counter::SchedulerViewUpdates));
    values.set("engine.dispatch_decisions", c(Counter::DispatchDecisions));
    values.set("engine.tasks_launched", c(Counter::TasksLaunched));
    values.set("engine.arena_bytes_peak", c(Counter::ArenaBytesPeak));
    values.set("engine.arena_slots_recycled", c(Counter::ArenaSlotsRecycled));
    values.set("engine.self_s", (wall - picks.est_secs() - oracle.est_secs()).max(0.0));
    values.set("oracle.calls", oracle.calls() as f64);
    values.set("oracle.predict_s", oracle.est_secs());
}

/// Fault, admission and simulated-time metrics, summed (or, for
/// high-water marks and simulated times, maxed and averaged) over reports.
pub fn set_outcome_layers(values: &mut Values, reports: &[SimReport]) {
    let sum = |f: &dyn Fn(&SimReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
    let launches = sum(&|r| r.faults.speculative_launches);
    values.set("fault.task_failures", sum(&|r| r.faults.task_failures));
    values.set("fault.retries", sum(&|r| r.faults.retries_scheduled));
    values.set("fault.tasks_killed", sum(&|r| r.faults.tasks_killed));
    values.set("fault.lost_maps", sum(&|r| r.faults.lost_maps));
    values.set("fault.spec_launches", launches);
    values.set(
        "fault.spec_win_ratio",
        if launches > 0.0 { sum(&|r| r.faults.speculative_wins) / launches } else { 0.0 },
    );
    values.set("admission.shed", sum(&|r| r.admission.queries_shed));
    values.set("admission.resubmissions", sum(&|r| r.admission.resubmissions));
    values.set("admission.rejected", sum(&|r| r.admission.queries_rejected.len()));
    values.set("admission.deadline_misses", sum(&|r| r.admission.deadline_misses.len()));
    values.set(
        "admission.max_active",
        reports.iter().map(|r| r.admission.max_active).max().unwrap_or(0) as f64,
    );
    let n = reports.len().max(1) as f64;
    values.set(
        "quality.sim_mean_response_s",
        reports.iter().map(SimReport::mean_response).sum::<f64>() / n,
    );
    values.set("quality.sim_makespan_s", reports.iter().map(|r| r.makespan).sum::<f64>() / n);
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
