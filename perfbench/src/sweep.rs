//! `fleet_sweep`: `sapred_bench::fleet::run_fleet` over a scheduler ×
//! fault × admission × seed grid, on one worker.
//!
//! One operation for `ops_per_s` is one fleet cell (a whole short
//! simulation); the latencies are those of whole sweeps, aggregation and
//! report serialization included.
//!
//! `run_fleet` builds its schedulers itself, so the traced run replays the
//! grid cell by cell through the same public pieces (`FleetGrid` seeds,
//! fault plans and admission configs, `dispatch_workload`, `Simulator`)
//! with the timing wrappers in place, assembles a `FleetReport` from the
//! replayed cells and checks that its bytes equal `run_fleet`'s.

use std::time::Instant;

use sapred_bench::dispatch_workload;
use sapred_bench::fleet::{
    bench_grid, fnv1a, run_fleet, FleetCell, FleetCoord, FleetGrid, FleetReport, WorkloadSpec,
};
use sapred_cluster::sched::Scheduler;
use sapred_cluster::{FrozenOracle, SimReport, Simulator};
use sapred_core::Framework;
use sapred_obs::profile::Counter;
use sapred_obs::{NullSink, SpanProfiler};

use crate::check::{count_fingerprint, Tally};
use crate::metrics::{mean, median, peak_rss_mb, rss_mb, set_latencies, set_memory, Values};
use crate::sim::{set_engine_layers, set_outcome_layers};
use crate::trace::{
    OracleStats, PickStats, SharedLog, TimedOracle, TimedScheduler, TraceCtx, NO_SPAN,
};
use crate::{repeat_setup, secs, trim_heap, unpanic, Config, Outcome, SETUP_WINDOW};

/// Seed replicas per grid point: 3 schedulers × 3 fault levels × 2
/// admission configs × this many cells per sweep.
pub const SEEDS: usize = 40;

/// The swept grid at `seed`, with `seeds` seed replicas.
pub fn grid(seed: u64, seeds: usize) -> FleetGrid {
    bench_grid(3, 3, 2, seeds, WorkloadSpec::uniform(60, 3, 12, 4), seed)
}

/// One sweep: the hash of the report's bytes, and the report.
fn sweep(grid: &FleetGrid) -> Result<(u64, FleetReport), String> {
    let report = run_fleet(grid, 1)?;
    Ok((fnv1a(report.to_json().as_bytes()), report))
}

/// Hash of the sweep report at `seed`.
///
/// # Errors
/// The grid is invalid.
pub fn fingerprint(seed: u64) -> Result<u64, String> {
    sweep(&grid(seed, SEEDS)).map(|(hash, _)| hash)
}

/// Per-cell wrapper counts of a replayed sweep.
#[derive(Default)]
struct Replay {
    report_hash: u64,
    wall: f64,
    picks: PickStats,
    oracle: OracleStats,
    counters: [u64; Counter::ALL.len()],
    reports: Vec<SimReport>,
    /// Cells whose simulation panicked or erred.
    failed: Vec<String>,
}

impl Replay {
    fn counts(&self) -> u64 {
        count_fingerprint(&self.picks, &self.oracle, &self.counters)
    }
}

fn replay_cell<S: Scheduler>(
    sched: S,
    grid: &FleetGrid,
    c: &FleetCoord,
    ctx: TraceCtx,
    replay: &mut Replay,
) -> FleetCell {
    let w = &grid.workloads[c.workload];
    let queries = dispatch_workload(w.n_queries, w.jobs, w.maps, w.reduces);
    let fw = Framework::new();
    let mut cluster = fw.cluster;
    cluster.seed = grid.cell_seed(c);
    let mut sim = Simulator::new(cluster, fw.cost, TimedScheduler::new(sched, ctx.clone()))
        .with_faults(grid.cell_fault_plan(c))
        .with_admission(grid.cell_admission(c));
    let mut oracle = TimedOracle::new(FrozenOracle, ctx);
    let prof = SpanProfiler::new();
    let result = unpanic(|| {
        sim.try_run_profiled(&queries, &mut NullSink, &mut oracle, &prof).map_err(|e| e.to_string())
    });
    // A failed cell carries zero counters, as `run_fleet` records it.
    let mut counters = [0; Counter::ALL.len()];
    if result.is_ok() {
        for ((slot, total), &counter) in
            counters.iter_mut().zip(replay.counters.iter_mut()).zip(Counter::ALL.iter())
        {
            *slot = prof.counter(counter);
            // High-water marks combine by maximum, everything else by sum.
            *total = match counter {
                Counter::QueuePeakDepth | Counter::ArenaBytesPeak => (*total).max(*slot),
                _ => *total + *slot,
            };
        }
    }
    replay.picks += sim.scheduler.stats;
    replay.oracle += oracle.stats();
    let label = grid.coord_label(c);
    let outcome = match result {
        Ok(report) => {
            let summary = report.cell_summary();
            replay.reports.push(report);
            Ok(summary)
        }
        Err(e) => {
            replay.failed.push(format!("{label}: {e}"));
            Err(e)
        }
    };
    FleetCell { coord: *c, label, cell_seed: grid.cell_seed(c), outcome, counters }
}

/// Replay the grid cell by cell through the timing wrappers.
fn replay(grid: &FleetGrid, log: &SharedLog, run: u32) -> Replay {
    let mut out = Replay::default();
    let root = log.borrow_mut().open("fleet.sweep", NO_SPAN, run);
    let start = Instant::now();
    let mut cells = Vec::new();
    for c in grid.coords() {
        let cell_start = Instant::now();
        let id = log.borrow_mut().open("fleet.cell", root, run);
        let ctx = TraceCtx { log: log.clone(), parent: id, run };
        let cell =
            with_sched!(grid.schedulers[c.sched], |s| replay_cell(s, grid, &c, ctx, &mut out));
        log.borrow_mut().close(id, "fleet.cell", cell_start, Instant::now());
        cells.push(cell);
    }
    let report = FleetReport { grid: grid.clone(), cells };
    out.report_hash = fnv1a(report.to_json().as_bytes());
    let end = Instant::now();
    log.borrow_mut().close(root, "fleet.sweep", start, end);
    out.wall = end.duration_since(start).as_secs_f64();
    out
}

/// Run the fleet workload.
pub fn run(cfg: &Config) -> Outcome {
    // Set-up: build and validate the grid, then one warm sweep of a
    // single-seed grid; for one window, keeping the last grid. More windows
    // follow the untraced sweeps.
    let once = || {
        let start = Instant::now();
        let the_grid = grid(cfg.seed, SEEDS);
        the_grid.validate().expect("the benchmark grid is valid");
        let built = Instant::now();
        let warm = sweep(&grid(cfg.seed, 1)).expect("the warm-up grid is valid");
        assert_eq!(warm.1.failed(), 0, "warm-up sweep has failed cells");
        (the_grid, (built.duration_since(start).as_secs_f64(), secs(built)))
    };
    // Each set-up's grid and warm-sweep times, and each window's mean.
    let (the_grid, mut times) = repeat_setup(SETUP_WINDOW, once);
    let window_mean = |t: &[(f64, f64)]| mean(&t.iter().map(|t| t.0 + t.1).collect::<Vec<_>>());
    let mut setups = vec![window_mean(&times)];
    trim_heap();
    let setup_rss = rss_mb();
    let n_cells = the_grid.n_cells() as f64;

    let mut tally = Tally::default();
    let mut first = None;
    let mut walls = Vec::new();
    let mut last_report = None;
    // `peak_rss_mb` is read after the first sweep, so it does not depend on
    // how many sweeps fit (see `sim::run`).
    let mut first_peak = None;
    let deadline = cfg.deadline();
    while walls.is_empty() || Instant::now() < deadline {
        let start = Instant::now();
        let outcome = sweep(&the_grid);
        walls.push(secs(start));
        first_peak.get_or_insert_with(peak_rss_mb);
        match outcome {
            Ok((hash, report)) => {
                tally.check_pinned("fleet_sweep", cfg.seed, &mut first, hash);
                tally.check(report.failed() == 0, || {
                    format!("fleet_sweep: {} cells failed", report.failed())
                });
                last_report = Some(report);
            }
            Err(e) => tally.check(false, || format!("fleet_sweep: {e}")),
        }
        let window = repeat_setup(SETUP_WINDOW, once).1;
        setups.push(window_mean(&window));
        times.extend(window);
        // Hand free pages back between sweeps, so what the set-up windows
        // allocated does not stay resident.
        trim_heap();
    }
    let gen_s: Vec<f64> = times.iter().map(|t| t.0).collect();
    let warm_s: Vec<f64> = times.iter().map(|t| t.1).collect();

    let mut values = Values::default();
    if !cfg.traced {
        values.set("setup_s", median(&setups));
        values.set("ops_per_s", n_cells * walls.len() as f64 / walls.iter().sum::<f64>());
        set_latencies(&mut values, &mut walls, 1.0);
        set_memory(&mut values, false, setup_rss, first_peak.unwrap_or_else(peak_rss_mb));
        return Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            measured_s: walls.iter().sum(),
            fingerprint: first,
            values,
        };
    }

    let log = SharedLog::default();
    let deadline = cfg.deadline();
    // Only the last replay is kept: its reports alone are tens of MB.
    let mut traced_walls = Vec::new();
    let mut first_counts = None;
    let mut last = None;
    while last.is_none() || Instant::now() < deadline {
        let r = replay(&the_grid, &log, traced_walls.len() as u32);
        for e in &r.failed {
            tally.check(false, || format!("fleet_sweep: replayed cell {e}"));
        }
        tally.check_pinned("fleet_sweep", cfg.seed, &mut first, r.report_hash);
        let counts = *first_counts.get_or_insert(r.counts());
        tally.check(r.counts() == counts, || {
            "fleet_sweep: per-layer counts differ between replays".into()
        });
        traced_walls.push(r.wall);
        last = Some(r);
    }
    let r = last.expect("at least one replay");
    values.set("workload.gen_s", median(&gen_s));
    values.set("setup.warm_s", median(&warm_s));
    set_engine_layers(&mut values, &r.picks, &r.oracle, &r.counters, r.wall);
    set_outcome_layers(&mut values, &r.reports);
    if let Some(report) = &last_report {
        values.set("fleet.cells_run", report.completed() as f64);
        values.set("fleet.cells_failed", report.failed() as f64);
    }
    values.set("trace.overhead_ratio", median(&traced_walls) / median(&walls));
    values.set("check.error_rate", tally.error_rate());
    set_memory(&mut values, true, setup_rss, peak_rss_mb());
    if let Err(e) =
        log.borrow().write_jsonl(&cfg.out_dir.join(format!("fleet_sweep-{}.spans.jsonl", cfg.seed)))
    {
        eprintln!("could not write the span log: {e}");
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        measured_s: walls.iter().chain(&traced_walls).sum(),
        fingerprint: first,
        values,
    }
}
