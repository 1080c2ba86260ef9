//! Property tests for the incremental dispatch state: on random DAG
//! workloads, the materialized runnable view and per-query aggregates must
//! equal a from-scratch rebuild after every event and before every pick
//! ([`DispatchMode::Crosscheck`] asserts exactly that inside the engine),
//! and the checked run must produce a bit-identical report to an unchecked
//! one — for every scheduler. For keyed policies Crosscheck also checks the
//! pick index and its head against the policy's own `pick` scan.

use proptest::prelude::*;
use sapred_cluster::{
    ClusterConfig, CostModel, DispatchMode, FaultPlan, Fifo, Hcs, HcsQueues, Hfs, JobPrediction,
    NodeCrash, Scheduler, SimJob, SimQuery, Simulator, Srt, Swrd, TaskKind, TaskSpec,
};
use sapred_plan::dag::JobCategory;

const MB: f64 = 1024.0 * 1024.0;

fn task(kind: TaskKind, bytes: f64) -> TaskSpec {
    TaskSpec {
        bytes_in: bytes,
        bytes_out: bytes / 2.0,
        category: JobCategory::Extract,
        kind,
        p: 0.5,
    }
}

/// One job descriptor: (maps, reduces, map_time, reduce_time, dep selector).
type JobSpec = (usize, usize, f64, f64, u64);

fn query_strategy() -> impl Strategy<Value = SimQuery> {
    (
        prop::collection::vec((1usize..5, 0usize..3, 0.5f64..8.0, 0.5f64..8.0, 0u64..1000), 1..4),
        0.0f64..10.0,
    )
        .prop_map(|(specs, arrival): (Vec<JobSpec>, f64)| {
            let jobs = specs
                .iter()
                .enumerate()
                .map(|(i, &(maps, reduces, map_t, reduce_t, sel))| SimJob {
                    id: sapred_cluster::JobId(i),
                    // Roughly a third of non-root jobs are independent
                    // roots; the rest depend on a pseudo-random earlier job,
                    // so chains, diamonds and forests all occur.
                    deps: if i == 0 || sel % 3 == 0 {
                        vec![]
                    } else {
                        vec![sapred_cluster::JobId(sel as usize % i)]
                    },
                    category: JobCategory::Extract,
                    maps: vec![task(TaskKind::Map, (32.0 + map_t * 16.0) * MB); maps],
                    reduces: vec![task(TaskKind::Reduce, 32.0 * MB); reduces],
                    prediction: JobPrediction { map_task_time: map_t, reduce_task_time: reduce_t },
                })
                .collect();
            SimQuery { name: "q".into(), arrival, jobs }
        })
}

fn workload_strategy() -> impl Strategy<Value = Vec<SimQuery>> {
    prop::collection::vec(query_strategy(), 1..4).prop_map(|mut qs| {
        for (i, q) in qs.iter_mut().enumerate() {
            q.name = format!("q{i}");
        }
        qs
    })
}

/// Small cluster so containers stay contended and the dispatch loop makes
/// real choices (a cluster larger than the workload never queues anything).
fn config() -> ClusterConfig {
    ClusterConfig { nodes: 2, containers_per_node: 3, ..Default::default() }
}

fn check_one<S: Scheduler + Clone>(
    s: S,
    queries: &[SimQuery],
    plan: &FaultPlan,
) -> Result<(), TestCaseError> {
    // Crosscheck panics inside the engine the moment the materialized state
    // diverges from the from-scratch rebuild, event by event.
    let checked = Simulator::new(config(), CostModel::default(), s.clone())
        .with_dispatch(DispatchMode::Crosscheck)
        .with_faults(plan.clone())
        .run(queries);
    let plain =
        Simulator::new(config(), CostModel::default(), s).with_faults(plan.clone()).run(queries);
    // And the end-to-end reports agree bit-for-bit.
    prop_assert_eq!(checked.makespan.to_bits(), plain.makespan.to_bits());
    prop_assert_eq!(&checked.queries, &plain.queries);
    prop_assert_eq!(&checked.jobs, &plain.jobs);
    prop_assert_eq!(&checked.faults, &plain.faults);
    Ok(())
}

fn check_all(queries: &[SimQuery], plan: &FaultPlan) -> Result<(), TestCaseError> {
    check_one(Fifo, queries, plan)?;
    check_one(Hcs, queries, plan)?;
    check_one(Hfs, queries, plan)?;
    check_one(Swrd, queries, plan)?;
    check_one(Srt, queries, plan)?;
    check_one(HcsQueues::new(vec![0.6, 0.3, 0.1]), queries, plan)?;
    Ok(())
}

/// Random fault plans: transient task failures, an optional transient
/// node crash, speculation on or off.
fn fault_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        0.0f64..0.15,
        prop::option::of((0usize..2, 2.0f64..40.0, 2.0f64..25.0)),
        any::<bool>(),
        0u64..1_000_000,
    )
        .prop_map(|(fail_prob, crash, speculative, seed)| FaultPlan {
            task_fail_prob: fail_prob,
            max_attempts: 20,
            node_crashes: crash
                .map(|(n, at, d)| vec![NodeCrash::transient(n, at, d)])
                .unwrap_or_default(),
            speculative,
            seed,
            ..FaultPlan::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_state_matches_reference_for_random_dags(queries in workload_strategy()) {
        check_all(&queries, &FaultPlan::none())?;
    }

    #[test]
    fn incremental_state_matches_reference_under_faults(
        queries in workload_strategy(),
        plan in fault_plan_strategy(),
    ) {
        // Kills, retries, claw-backs and abandonment all mutate the
        // dispatch state through resync paths that the fault-free property
        // never exercises — the materialized view must still match the
        // reference on every event.
        check_all(&queries, &plan)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hfs_index_crosscheck_holds_under_random_fault_plans(
        queries in prop::collection::vec(query_strategy(), 2..7),
        plan in fault_plan_strategy(),
    ) {
        // HFS keys on each job's running count, so its pick index re-keys
        // on every dispatch and completion, and fault paths (kills,
        // requeues, claw-backs) move those counts in bulk. More queries
        // than the shared properties use keep several jobs runnable at
        // once, so the heap has real reordering to do.
        check_one(Hfs, &queries, &plan)?;
    }
}
