//! Fleet-simulation tests: the golden single-sim fixture, double-run
//! determinism, coordinate-derived seeding, and the aggregation layer.

use sapred_bench::dispatch_workload;
use sapred_bench::fleet::{
    bench_grid, run_fleet, run_fleet_journaled, AdmissionLevel, FaultLevel, FleetGrid, SchedKind,
    WorkloadSpec,
};
use sapred_cluster::sched::Swrd;
use sapred_cluster::sim::{ShedPolicy, Simulator};
use sapred_obs::{Counter, NullProfiler, SpanProfiler};
use sapred_selectivity::EstimatorKind;

fn tiny_workload() -> WorkloadSpec {
    WorkloadSpec::uniform(5, 2, 4, 2)
}

fn tiny_grid() -> FleetGrid {
    FleetGrid {
        workloads: vec![tiny_workload()],
        schedulers: vec![SchedKind::Swrd, SchedKind::Hcs],
        faults: vec![FaultLevel { task_fail_prob: 0.0 }, FaultLevel { task_fail_prob: 0.08 }],
        admissions: vec![
            AdmissionLevel::off(),
            AdmissionLevel {
                queue_cap: 3,
                deadline: 250.0,
                shed_policy: ShedPolicy::ShedLargestWrd,
            },
        ],
        estimators: vec![EstimatorKind::Histogram],
        seeds: vec![42, 43],
    }
}

/// The golden fixture: a 1-cell fleet must reproduce, bit-for-bit, the
/// summary of a [`Simulator`] run assembled by hand from the same grid
/// accessors. Any hidden dependence on the fleet host (worker threads,
/// profiler plumbing, claim order) would break this.
#[test]
fn one_cell_fleet_reproduces_the_single_sim_report() {
    let w = tiny_workload();
    let grid = FleetGrid {
        workloads: vec![w],
        schedulers: vec![SchedKind::Swrd],
        faults: vec![FaultLevel { task_fail_prob: 0.05 }],
        admissions: vec![AdmissionLevel {
            queue_cap: 4,
            deadline: 300.0,
            shed_policy: ShedPolicy::RejectNewest,
        }],
        estimators: vec![EstimatorKind::Histogram],
        seeds: vec![99],
    };
    let report = run_fleet(&grid, 4).expect("valid grid");
    assert_eq!(report.cells.len(), 1);
    let fleet_summary = report.cells[0].outcome.as_ref().expect("cell completed");

    let coord = grid.coords()[0];
    let queries = dispatch_workload(w.n_queries, w.jobs, w.maps, w.reduces);
    let fw = sapred_core::Framework::new();
    let mut cluster = fw.cluster;
    cluster.seed = grid.cell_seed(&coord);
    let mut sim = Simulator::new(cluster, fw.cost, Swrd)
        .with_faults(grid.cell_fault_plan(&coord))
        .with_admission(grid.cell_admission(&coord));
    let solo = sim.run(&queries).cell_summary();

    assert_eq!(*fleet_summary, solo, "fleet cell diverged from a standalone simulation");
    // Sanity: the fixture actually exercises faults and admission.
    assert!(solo.task_failures > 0, "fixture ran fault-free; raise task_fail_prob");
    assert_eq!(solo.n_queries, w.n_queries);
}

/// Same grid, two runs ⇒ identical aggregate JSON bytes (the ISSUE's
/// determinism pin). Runs at different thread counts to double as an
/// order-independence check.
#[test]
fn double_run_aggregate_json_is_bit_identical() {
    let grid = tiny_grid();
    let first = run_fleet(&grid, 2).expect("valid grid").to_json();
    let second = run_fleet(&grid, 3).expect("valid grid").to_json();
    assert_eq!(first, second, "fleet aggregate JSON is not reproducible");
    sapred_obs::json::validate(&first).expect("aggregate report is well-formed JSON");
}

/// Cell seeds derive from coordinates, not indices: appending a value to
/// one axis must not reseed any pre-existing cell.
#[test]
fn appending_an_axis_value_never_reseeds_existing_cells() {
    let base = tiny_grid();
    let mut extended = base.clone();
    extended.seeds.push(77);
    extended.schedulers.push(SchedKind::Fifo);

    let seeds_of = |grid: &FleetGrid| -> Vec<(String, u64)> {
        grid.coords().iter().map(|c| (grid.coord_label(c), grid.cell_seed(c))).collect()
    };
    let before: std::collections::BTreeMap<_, _> = seeds_of(&base).into_iter().collect();
    let after: std::collections::BTreeMap<_, _> = seeds_of(&extended).into_iter().collect();
    for (label, seed) in &before {
        assert_eq!(after.get(label), Some(seed), "cell {label} was reseeded by an axis append");
    }
    assert!(after.len() > before.len());
}

/// The aggregation layer covers every (axis × axis) combination that has
/// completed cells, and rates stay within sane bounds.
#[test]
fn aggregation_layer_covers_the_grid() {
    let grid = tiny_grid();
    let report = run_fleet(&grid, 0).expect("valid grid");
    assert_eq!(report.completed(), grid.n_cells());
    assert_eq!(report.failed(), 0);

    let surfaces = report.surfaces();
    assert_eq!(surfaces.len(), grid.schedulers.len() * grid.faults.len());
    for p in &surfaces {
        assert_eq!(p.n_cells, grid.workloads.len() * grid.admissions.len() * grid.seeds.len());
        assert!(p.makespan_mean > 0.0 && p.makespan_mean.is_finite());
        assert!(p.makespan_p50 <= p.makespan_p95 && p.makespan_p95 <= p.makespan_p99);
        assert!(p.response_p50 <= p.response_p95 && p.response_p95 <= p.response_p99);
    }

    let frontiers = report.frontiers();
    assert_eq!(frontiers.len(), grid.admissions.len() * grid.faults.len());
    for f in &frontiers {
        for rate in [f.reject_rate, f.miss_rate] {
            assert!((0.0..=1.0).contains(&rate), "per-query rate out of range: {rate}");
        }
        assert!(f.shed_rate >= 0.0 && f.resubmit_rate >= 0.0);
    }

    // The off admission rows shed nothing.
    for f in frontiers.iter().filter(|f| f.admission == "off") {
        assert_eq!((f.shed_rate, f.reject_rate, f.miss_rate), (0.0, 0.0, 0.0));
    }
}

/// An invalid grid is rejected up front, before any cell runs.
#[test]
fn invalid_grids_are_rejected() {
    let mut grid = tiny_grid();
    grid.schedulers.clear();
    assert!(run_fleet(&grid, 1).unwrap_err().contains("scheduler"));

    let mut grid = tiny_grid();
    grid.workloads[0].n_queries = 0;
    assert!(run_fleet(&grid, 1).is_err());

    let mut grid = tiny_grid();
    grid.faults.push(FaultLevel { task_fail_prob: 1.5 });
    assert!(run_fleet(&grid, 1).is_err());
}

/// The bench grid helper clamps its axis counts and stays deterministic.
#[test]
fn bench_grid_shape_and_seeds() {
    let grid = bench_grid(2, 2, 2, 3, tiny_workload(), 17);
    assert_eq!(grid.schedulers, vec![SchedKind::Swrd, SchedKind::Hcs]);
    assert_eq!(grid.faults.len(), 2);
    assert_eq!(grid.admissions.len(), 2);
    assert_eq!(grid.seeds, vec![17, 18, 19]);
    assert_eq!(grid.n_cells(), 2 * 2 * 2 * 3);
    // Oversized axis requests clamp to the rosters.
    let big = bench_grid(99, 99, 99, 1, tiny_workload(), 1);
    assert_eq!(big.schedulers.len(), SchedKind::ALL.len());
    assert_eq!(big.faults.len(), 4);
    assert_eq!(big.admissions.len(), 2);
}

/// The estimator axis: the default histogram entry leaves every legacy
/// label (hence cell seed) untouched, non-default entries tag their cells,
/// and the percolated path is double-run deterministic.
#[test]
fn estimator_axis_extends_the_grid_without_reseeding_it() {
    let base = tiny_grid();
    let mut extended = base.clone();
    extended.estimators.push(EstimatorKind::Sample);
    extended.workloads.push(WorkloadSpec { skew: 1.1, ..tiny_workload() });

    let seeds_of = |grid: &FleetGrid| -> Vec<(String, u64)> {
        grid.coords().iter().map(|c| (grid.coord_label(c), grid.cell_seed(c))).collect()
    };
    let before: std::collections::BTreeMap<_, _> = seeds_of(&base).into_iter().collect();
    let after: std::collections::BTreeMap<_, _> = seeds_of(&extended).into_iter().collect();
    for (label, seed) in &before {
        assert_eq!(after.get(label), Some(seed), "cell {label} was reseeded by the estimator axis");
    }
    // The new cells are tagged: skewed workloads by `z`, non-default
    // estimators by `est=`.
    assert!(after.keys().any(|l| l.contains("z1.1")));
    assert!(after.keys().any(|l| l.contains("|est=sample|")));
    assert!(!before.keys().any(|l| l.contains("est=")));
}

/// The percolated workload (skew > 0 or a non-default estimator) is as
/// deterministic as the dispatch one: same grid, different thread counts,
/// bit-identical aggregate JSON.
#[test]
fn percolated_cells_are_deterministic_and_estimator_sensitive() {
    let grid = FleetGrid {
        workloads: vec![WorkloadSpec { n_queries: 3, jobs: 2, maps: 4, reduces: 2, skew: 1.2 }],
        schedulers: vec![SchedKind::Swrd],
        faults: vec![FaultLevel { task_fail_prob: 0.0 }],
        admissions: vec![AdmissionLevel::off()],
        estimators: vec![EstimatorKind::Histogram, EstimatorKind::Sample, EstimatorKind::Catalog],
        seeds: vec![7],
    };
    let first = run_fleet(&grid, 1).expect("valid grid");
    let second = run_fleet(&grid, 3).expect("valid grid");
    assert_eq!(first.to_json(), second.to_json(), "percolated fleet is not reproducible");
    assert_eq!(first.failed(), 0, "percolated cells failed");

    // Estimator choice must reach the schedule: with skewed join keys the
    // three estimators' predictions differ, so the per-cell summaries do.
    let summaries: Vec<_> =
        first.cells.iter().map(|c| *c.outcome.as_ref().expect("completed")).collect();
    assert_eq!(summaries.len(), 3);
    assert!(
        summaries.windows(2).any(|w| w[0] != w[1]),
        "all estimators produced identical schedules on a skewed workload"
    );
}

/// An empty estimator axis is a validation error, like any other axis.
#[test]
fn empty_estimator_axis_is_rejected() {
    let mut grid = tiny_grid();
    grid.estimators.clear();
    assert!(run_fleet(&grid, 1).unwrap_err().contains("estimator"));

    let mut grid = tiny_grid();
    grid.workloads[0].skew = f64::NAN;
    assert!(run_fleet(&grid, 1).unwrap_err().contains("skew"));
}

// --- Crash-tolerant journaled sweeps -----------------------------------

fn journal_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sapred-fleet-journal-{}-{name}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// A journaled sweep's report must be byte-identical to the plain sweep's,
/// at different thread counts — the journal is pure bookkeeping.
#[test]
fn journaled_sweep_report_is_byte_identical_to_plain_sweep() {
    let grid = tiny_grid();
    let plain = run_fleet(&grid, 2).expect("valid grid").to_json();
    let path = journal_dir("plain").join("journal.jsonl");
    let prof = NullProfiler;
    let journaled =
        run_fleet_journaled(&grid, 3, &path, false, &prof).expect("valid grid").to_json();
    assert_eq!(plain, journaled, "journal bookkeeping leaked into the report");
}

/// Kill-and-resume equivalence at the library layer: truncate a finished
/// journal to its first k cells (exactly what a SIGKILL mid-sweep leaves
/// behind), resume, and require the byte-identical report. The resumed
/// sweep must adopt exactly k cells (observed via `CellsResumed`).
#[test]
fn resuming_a_truncated_journal_reproduces_the_report_byte_for_byte() {
    let grid = tiny_grid();
    let n_cells = grid.coords().len();
    let path = journal_dir("resume").join("journal.jsonl");
    let full =
        run_fleet_journaled(&grid, 1, &path, false, &NullProfiler).expect("valid grid").to_json();

    let text = std::fs::read_to_string(&path).expect("journal exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), n_cells + 1, "header plus one line per cell");

    for keep in [0, 1, n_cells / 2, n_cells - 1] {
        let mut torn: String = lines[..=keep].join("\n");
        torn.push('\n');
        std::fs::write(&path, torn).expect("write truncated journal");

        let prof = SpanProfiler::new();
        let resumed =
            run_fleet_journaled(&grid, 2, &path, true, &prof).expect("resume succeeds").to_json();
        assert_eq!(full, resumed, "resume from {keep} journaled cells diverged");
        assert_eq!(
            prof.counter(Counter::CellsResumed),
            keep as u64,
            "resume should adopt exactly the journaled cells"
        );
    }
}

/// `--resume` against a journal from a *different* grid must fail loudly,
/// naming the journal, never silently mix cells.
#[test]
fn resume_with_mismatched_grid_is_rejected() {
    let grid = tiny_grid();
    let path = journal_dir("mismatch").join("journal.jsonl");
    run_fleet_journaled(&grid, 1, &path, false, &NullProfiler).expect("valid grid");

    let mut other = tiny_grid();
    other.seeds.push(44);
    let err = run_fleet_journaled(&other, 1, &path, true, &NullProfiler).unwrap_err();
    assert!(err.contains("different grid"), "unexpected error: {err}");
    assert!(err.contains("journal"), "error should name the journal file: {err}");
}

/// Without `--resume`, an existing journal is overwritten, not adopted.
#[test]
fn fresh_journaled_sweep_overwrites_a_stale_journal() {
    let grid = tiny_grid();
    let path = journal_dir("overwrite").join("journal.jsonl");
    run_fleet_journaled(&grid, 1, &path, false, &NullProfiler).expect("valid grid");
    let prof = SpanProfiler::new();
    run_fleet_journaled(&grid, 1, &path, false, &prof).expect("valid grid");
    assert_eq!(prof.counter(Counter::CellsResumed), 0, "fresh sweep must not resume");
}
