//! The timing wrappers must be invisible to the simulation: a wrapped run
//! produces the same report fingerprint as an unwrapped one, for every
//! scheduler, with and without faults.

use sapred_bench::dispatch_workload;
use sapred_bench::fleet::SchedKind;
use sapred_cluster::sched::{Fifo, Hcs, Hfs, Scheduler, Srt, Swrd};
use sapred_cluster::{FrozenOracle, SimReport};
use sapred_obs::profile::Counter;
use sapred_obs::{Event, NullSink, RecordingSink, SpanProfiler};
use sapred_perfbench::check::report_fingerprint;
use sapred_perfbench::sim::{simulator, SimSpec};
use sapred_perfbench::trace::{SharedLog, TimedOracle, TimedScheduler, TraceCtx, NO_SPAN};

const SMALL: SimSpec = SimSpec {
    name: "small",
    shape: (40, 3, 16, 4),
    policy: SchedKind::Fifo,
    faults: false,
    ckpt_every: None,
};

fn plain<S: Scheduler>(sched: S, faults: bool) -> SimReport {
    let (q, j, m, r) = SMALL.shape;
    let spec = SimSpec { faults, ..SMALL };
    simulator(&spec, sched, 11, None).run(&dispatch_workload(q, j, m, r))
}

/// A fresh span log and a context under its `sim.run` root.
fn ctx() -> (SharedLog, TraceCtx) {
    let log = SharedLog::default();
    let root = log.borrow_mut().open("sim.run", NO_SPAN, 0);
    let ctx = TraceCtx { log: log.clone(), parent: root, run: 0 };
    (log, ctx)
}

fn wrapped<S: Scheduler>(sched: S, faults: bool) -> SimReport {
    let (q, j, m, r) = SMALL.shape;
    let spec = SimSpec { faults, ..SMALL };
    let (log, ctx) = ctx();
    let mut sim = simulator(&spec, TimedScheduler::new(sched, ctx.clone()), 11, None);
    let mut oracle = TimedOracle::new(FrozenOracle, ctx);
    let prof = SpanProfiler::new();
    let report =
        sim.run_profiled(&dispatch_workload(q, j, m, r), &mut NullSink, &mut oracle, &prof);
    // The wrappers saw every call the engine made.
    assert_eq!(sim.scheduler.stats.picks, prof.counter(Counter::DispatchDecisions));
    assert!(sim.scheduler.stats.timed > 0 && oracle.stats().timed > 0);
    assert!(oracle.stats().predicts >= 2 * (q * j) as u64);
    assert_eq!(log.borrow().total("sched.pick").count, sim.scheduler.stats.timed);
    report
}

fn same<S: Scheduler + Copy>(sched: S) {
    for faults in [false, true] {
        let (a, b) = (plain(sched, faults), wrapped(sched, faults));
        assert_eq!(
            report_fingerprint(&a),
            report_fingerprint(&b),
            "{} faults={faults}",
            sched.name()
        );
        if faults {
            assert!(a.faults.task_failures > 0, "the fault plan must inject failures");
        }
    }
}

#[test]
fn wrapped_runs_match_unwrapped_runs_for_every_scheduler() {
    same(Swrd);
    same(Hcs);
    same(Hfs);
    same(Fifo);
    same(Srt);
}

#[test]
fn wrapped_oracle_counts_every_checkpoint() {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let spec = SimSpec { faults: true, ckpt_every: Some(500), ..SMALL };
    let (q, j, m, r) = SMALL.shape;
    let queries = dispatch_workload(q, j, m, r);
    let mut sink = RecordingSink::new();
    let (_log, ctx) = ctx();
    let mut oracle = TimedOracle::new(FrozenOracle, ctx);
    let report = simulator(&spec, Fifo, 11, Some(&path)).run_profiled(
        &queries,
        &mut sink,
        &mut oracle,
        &SpanProfiler::new(),
    );
    let written = sink.count(|e| matches!(e, Event::CheckpointWritten { .. })) as u64;
    assert!(written > 1);
    assert_eq!(oracle.stats().snapshots, written);
    // Checkpointing does not change the simulation.
    assert_eq!(report_fingerprint(&report), report_fingerprint(&plain(Fifo, true)));
    std::fs::remove_dir_all(&dir).unwrap();
}
