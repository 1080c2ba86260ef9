//! Shared setup helpers for the benchmark harness. Every bench target
//! regenerates one table or figure of the paper (see DESIGN.md §5) by
//! printing the reproduced rows during setup, then times a representative
//! kernel under Criterion.

pub mod fleet;
pub mod harness;
pub mod journal;
pub mod report;

use sapred_cluster::{JobPrediction, SimJob, SimQuery, TaskKind, TaskSpec};
use sapred_core::framework::{Framework, Predictor};
use sapred_core::training::{fit_models, run_population, split_train_test, QueryRun};
use sapred_plan::dag::JobCategory;
use sapred_workload::pool::DbPool;
use sapred_workload::population::{generate_population, PopulationConfig};

/// The paper's testbed configuration (9 nodes × 12 containers, 256 MB
/// blocks, 1 GB per reducer).
pub fn paper_framework() -> Framework {
    Framework::new()
}

/// A training population at the paper's scales (1–100 GB + 150–400 GB
/// scale-out). `n_queries = 1000` matches §5.1.
pub fn paper_population(n_queries: usize, seed: u64) -> PopulationConfig {
    PopulationConfig {
        n_queries,
        scales_gb: vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
        scale_out_gb: vec![150.0, 200.0, 400.0],
        seed,
    }
}

/// Everything the accuracy/prediction benches need: the executed runs, the
/// train/test split indices and a fitted predictor.
pub struct Trained {
    pub fw: Framework,
    pub pool: DbPool,
    pub runs: Vec<QueryRun>,
    pub predictor: Predictor,
}

/// A synthetic dispatch-stress workload: `n_queries` chained-DAG queries of
/// `jobs_per_query` jobs, each with `maps_per_job` map and `reduces_per_job`
/// reduce tasks, staggered Poisson-ish arrivals and varied per-job
/// predictions (so SWRD/SRT rank queries non-trivially). Deterministic —
/// no RNG — so every run of a shape sees the exact same input. 200/5/80/20
/// gives the 10⁵-task workload of the `dispatch` bench suite.
pub fn dispatch_workload(
    n_queries: usize,
    jobs_per_query: usize,
    maps_per_job: usize,
    reduces_per_job: usize,
) -> Vec<SimQuery> {
    const MB: f64 = 1024.0 * 1024.0;
    let task = |kind: TaskKind, bytes: f64| TaskSpec {
        bytes_in: bytes,
        bytes_out: bytes / 2.0,
        category: JobCategory::Extract,
        kind,
        p: 0.5,
    };
    (0..n_queries)
        .map(|qi| SimQuery {
            name: format!("q{qi}"),
            arrival: qi as f64 * 0.37,
            jobs: (0..jobs_per_query)
                .map(|j| SimJob {
                    id: sapred_cluster::JobId(j),
                    deps: if j == 0 { vec![] } else { vec![sapred_cluster::JobId(j - 1)] },
                    category: JobCategory::Extract,
                    maps: vec![task(TaskKind::Map, 256.0 * MB); maps_per_job],
                    reduces: vec![task(TaskKind::Reduce, 64.0 * MB); reduces_per_job],
                    prediction: JobPrediction {
                        map_task_time: 2.0 + ((qi * 7 + j * 3) % 11) as f64 * 0.5,
                        reduce_task_time: 1.0 + ((qi * 5 + j) % 7) as f64 * 0.5,
                    },
                })
                .collect(),
        })
        .collect()
}

/// Run the population and fit models (the full §5.1 pipeline).
pub fn train(n_queries: usize, seed: u64) -> Trained {
    let fw = paper_framework();
    let config = paper_population(n_queries, seed);
    let mut pool = DbPool::new(seed);
    let pop = generate_population(&config, &mut pool);
    let runs = run_population(&pop, &mut pool, &fw).expect("population runs");
    let (train_set, _) = split_train_test(&runs);
    let models = fit_models(&train_set, &fw).expect("models fit");
    let predictor = Predictor::new(models, fw);
    Trained { fw, pool, runs, predictor }
}
