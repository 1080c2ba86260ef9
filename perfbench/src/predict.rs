//! `predict_stream`: the paper's submit-time path, one caller in a closed
//! loop. Each operation takes one TPC-H/DS template query text through
//! parse → analyze → compile → selectivity estimate → per-job prediction
//! (Eq. 8–9) and query WRD (Eq. 10). The engine does not run.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sapred_core::training::{fit_models, run_population, split_train_test};
use sapred_core::{Framework, Predictor, QuerySemantics};
use sapred_plan::compile::compile;
use sapred_plan::ground_truth::execute_dag;
use sapred_query::{analyze, parse};
use sapred_relation::gen::Database;
use sapred_selectivity::estimator::{estimate_dag_with, TableAccess};
use sapred_workload::pool::DbPool;
use sapred_workload::population::{generate_population, PopulationConfig};
use sapred_workload::templates::Template;

use crate::check::{hash_words, pinned, Tally};
use crate::metrics::{median, peak_rss_mb, rss_mb, set_latencies, set_memory, Values};
use crate::trace::{SpanLog, NO_SPAN};
use crate::{repeat_setup, secs, unpanic, Config, Outcome, SETUP_PREDICT};

/// Database scales (GB) the texts are drawn over.
pub const SCALES: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

/// Distinct query texts generated per run.
pub const TEXTS: usize = 100_000;

/// Queries the population training runs on.
pub const TRAIN_QUERIES: usize = 120;

/// Texts submitted once during set-up, so caches and allocators are warm.
pub const WARM: usize = 2_000;

/// Texts whose estimates are checked against executed ground truth for
/// `quality.card_mare` (after the measured phase, untimed).
pub const MARE_TEXTS: usize = 200;

/// Latency samples kept from the measured phase (the most recent ones).
pub const LATENCY_CAP: usize = 1 << 22;

/// Salt of the text generator's RNG stream, kept apart from the
/// population's.
const TEXT_SALT: u64 = 0x7e57_5eed;

/// One generated query text.
pub struct Text {
    /// Index into [`SCALES`].
    pub scale: usize,
    /// Template name (the compiled DAG's name).
    pub name: &'static str,
    /// The SQL.
    pub sql: String,
}

/// Everything set-up produces.
pub struct Setup {
    /// Databases at every scale of [`SCALES`].
    pub pool: DbPool,
    /// The framework configuration.
    pub fw: Framework,
    /// Trained models bound to `fw`.
    pub predictor: Predictor,
    /// The query texts, in submission order.
    pub texts: Vec<Text>,
}

impl Setup {
    fn db(&self, text: &Text) -> &Database {
        self.pool.peek(SCALES[text.scale]).expect("every scale is generated during set-up")
    }
}

/// Set-up stage timings, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Database generation.
    pub dbgen: f64,
    /// Population run and model fit.
    pub train: f64,
    /// Query-text generation.
    pub gen: f64,
    /// Warm pass.
    pub warm: f64,
}

impl SetupTimes {
    /// All of set-up.
    pub fn total(&self) -> f64 {
        self.dbgen + self.train + self.gen + self.warm
    }
}

/// The SQL templates (all but the hand-built Q17).
pub fn sql_templates() -> Vec<Template> {
    Template::all().iter().copied().filter(|t| *t != Template::Q17SmallQuantity).collect()
}

/// Generate databases, train the models and generate the texts at `seed`.
///
/// # Panics
/// If training fails: without a predictor there is nothing to measure.
pub fn setup(seed: u64, texts: usize) -> (Setup, SetupTimes) {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let mut pool = DbPool::new(seed);
    for s in SCALES {
        pool.get(s);
    }
    times.dbgen = secs(start);

    let start = Instant::now();
    let fw = Framework::new();
    let population = PopulationConfig {
        n_queries: TRAIN_QUERIES,
        scales_gb: SCALES.to_vec(),
        scale_out_gb: vec![],
        seed,
    };
    let pop = generate_population(&population, &mut pool);
    let runs = run_population(&pop, &mut pool, &fw).expect("the training population runs");
    let (train, _) = split_train_test(&runs);
    let models = fit_models(&train, &fw).expect("the models fit");
    let predictor = Predictor::new(models, fw);
    times.train = secs(start);

    let start = Instant::now();
    let templates = sql_templates();
    let mut rng = StdRng::seed_from_u64(seed ^ TEXT_SALT);
    let texts = (0..texts)
        .map(|_| {
            let template = templates[rng.gen_range(0..templates.len())];
            let scale = rng.gen_range(0..SCALES.len());
            let db = pool.peek(SCALES[scale]).expect("generated above");
            Text { scale, name: template.name(), sql: template.sql(db, &mut rng) }
        })
        .collect();
    times.gen = secs(start);

    let setup = Setup { pool, fw, predictor, texts };
    let start = Instant::now();
    for text in setup.texts.iter().take(WARM) {
        let _ = submit(&setup, text);
    }
    times.warm = secs(start);
    (setup, times)
}

/// What one submission produced.
pub struct Submitted {
    /// The percolated DAG and its estimates.
    pub semantics: QuerySemantics,
    /// Per-job task-time predictions.
    pub predictions: Vec<sapred_cluster::JobPrediction>,
    /// Query WRD.
    pub wrd: f64,
}

/// The submit-time path, untraced.
pub fn submit(setup: &Setup, text: &Text) -> Result<Submitted, String> {
    let semantics =
        setup.fw.percolate_sql(text.name, &text.sql, setup.db(text)).map_err(|e| e.to_string())?;
    let predictions = setup.predictor.predictions(&semantics);
    let wrd = setup.predictor.query_wrd(&semantics);
    Ok(Submitted { semantics, predictions, wrd })
}

/// The submit-time path with a span per stage under a `predict.submit`
/// root.
pub fn submit_traced(
    setup: &Setup,
    text: &Text,
    log: &mut SpanLog,
    run: u32,
) -> Result<Submitted, String> {
    let db = setup.db(text);
    let t0 = Instant::now();
    let root = log.open("predict.submit", NO_SPAN, run);
    let query = parse(&text.sql).map_err(|e| e.to_string());
    let t1 = Instant::now();
    log.record("query.parse", t0, t1, root, run);
    let analyzed = analyze(&query?, db.catalog(), db).map_err(|e| e.to_string());
    let t2 = Instant::now();
    log.record("query.analyze", t1, t2, root, run);
    let dag = compile(text.name, &analyzed?);
    let t3 = Instant::now();
    log.record("plan.compile", t2, t3, root, run);
    let estimates =
        estimate_dag_with(&dag, db.catalog(), Some(db as &dyn TableAccess), &setup.fw.est_config);
    let t4 = Instant::now();
    log.record("selectivity.estimate", t3, t4, root, run);
    let semantics = QuerySemantics { dag, estimates };
    let predictions = setup.predictor.predictions(&semantics);
    let wrd = setup.predictor.query_wrd(&semantics);
    let t5 = Instant::now();
    log.record("predict.predict", t4, t5, root, run);
    log.close(root, "predict.submit", t0, t5);
    Ok(Submitted { semantics, predictions, wrd })
}

/// One estimate per job, every estimated size finite and non-negative (a
/// predicate that selects nothing, e.g. a date window ending at day 0,
/// correctly estimates 0 bytes downstream), every task-time prediction
/// finite and positive (a map-only job's reduce time is exactly 0), and
/// the WRD finite and positive.
pub fn well_formed(s: &Submitted) -> bool {
    let pos = |v: f64| v.is_finite() && v > 0.0;
    let size = |v: f64| v.is_finite() && v >= 0.0;
    s.semantics.estimates.len() == s.semantics.dag.len()
        && s.semantics.estimates.iter().all(|e| size(e.d_in) && size(e.d_med) && size(e.d_out))
        && s.semantics.dag.jobs().iter().zip(&s.predictions).all(|(job, p)| {
            pos(p.map_task_time)
                && if job.kind.has_reduce() {
                    pos(p.reduce_task_time)
                } else {
                    p.reduce_task_time == 0.0
                }
        })
        && pos(s.wrd)
}

/// Mean absolute relative error of estimated against executed `d_out`
/// over the first [`MARE_TEXTS`] texts, and a fingerprint of those texts'
/// predictions, WRDs and the MARE itself.
pub fn card_mare(setup: &Setup) -> Result<(f64, u64), String> {
    let (mut sum, mut n) = (0.0, 0usize);
    let mut words = Vec::new();
    for text in setup.texts.iter().take(MARE_TEXTS) {
        let s = submit(setup, text)?;
        let actuals = execute_dag(&s.semantics.dag, setup.db(text), setup.fw.est_config.block_size);
        for (est, act) in s.semantics.estimates.iter().zip(&actuals) {
            if act.d_out > 0.0 {
                sum += (est.d_out - act.d_out).abs() / act.d_out;
                n += 1;
            }
        }
        words.push(s.wrd.to_bits());
        for p in &s.predictions {
            words.extend([p.map_task_time.to_bits(), p.reduce_task_time.to_bits()]);
        }
    }
    let mare = if n == 0 { 0.0 } else { sum / n as f64 };
    words.push(mare.to_bits());
    Ok((mare, hash_words(&words)))
}

/// Compute `card_mare` and check its fingerprint against the pin, or, for a
/// seed without one, against the first computation in this run (`first`).
fn check_mare(tally: &mut Tally, setup: &Setup, seed: u64, first: &mut Option<u64>) -> Option<f64> {
    match card_mare(setup) {
        Ok((mare, fingerprint)) => {
            tally.check_pinned("predict_stream", seed, first, fingerprint);
            Some(mare)
        }
        Err(e) => {
            tally.check(false, || format!("predict_stream: ground-truth pass failed: {e}"));
            None
        }
    }
}

/// Run the prediction workload.
pub fn run(cfg: &Config) -> Outcome {
    let (setup, setups) = repeat_setup(SETUP_PREDICT, || self::setup(cfg.seed, TEXTS));
    // The latency buffer is allocated and written before the memory
    // reading, so `peak_rss_mb` does not grow with throughput; past its
    // capacity the newest samples overwrite the oldest.
    // (A non-zero fill, so the pages are written, not lazily zeroed.)
    let mut lat_ns = vec![u32::MAX; LATENCY_CAP];
    let setup_rss = rss_mb();
    let mut tally = Tally::default();

    // Measured phase: submit texts in order, cycling, until the deadline.
    let deadline = cfg.deadline();
    let start = Instant::now();
    let (mut end, mut submitted) = (start, 0usize);
    for text in setup.texts.iter().cycle() {
        let t0 = Instant::now();
        let out = unpanic(|| submit(&setup, text));
        end = Instant::now();
        lat_ns[submitted % LATENCY_CAP] =
            end.duration_since(t0).as_nanos().min(u32::MAX.into()) as u32;
        submitted += 1;
        check_submission(&mut tally, text, &out);
        if end >= deadline {
            break;
        }
    }
    let measured_s = end.duration_since(start).as_secs_f64();
    let plain_per_query = measured_s / submitted as f64;

    let mut values = Values::default();
    let mut first_mare = None;
    let mare = check_mare(&mut tally, &setup, cfg.seed, &mut first_mare);
    if cfg.traced {
        traced(cfg, &setup, &mut tally, &mut values, plain_per_query);
    }
    // Without a pin the check above compared the fingerprint with itself;
    // a second computation after the run makes it a run-to-run check.
    if pinned("predict_stream", cfg.seed).is_none() {
        check_mare(&mut tally, &setup, cfg.seed, &mut first_mare);
    }
    set_memory(&mut values, cfg.traced, setup_rss, peak_rss_mb());

    let stage = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    if cfg.traced {
        values.set("relation.dbgen_s", stage(|t| t.dbgen));
        values.set("core.train_s", stage(|t| t.train));
        values.set("workload.gen_s", stage(|t| t.gen));
        values.set("setup.warm_s", stage(|t| t.warm));
        values.set("check.error_rate", tally.error_rate());
        if let Some(mare) = mare {
            values.set("quality.card_mare", mare);
        }
    } else {
        values.set("setup_s", stage(SetupTimes::total));
        values.set("ops_per_s", 1.0 / plain_per_query);
        set_latencies(&mut values, &mut lat_ns[..submitted.min(LATENCY_CAP)], 1e-9);
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        measured_s,
        fingerprint: first_mare,
        values,
    }
}

/// Traced phase: whole passes over the texts until the deadline, a span per
/// stage per query; the per-layer figures are per pass.
fn traced(
    cfg: &Config,
    setup: &Setup,
    tally: &mut Tally,
    values: &mut Values,
    plain_per_query: f64,
) {
    let mut log = SpanLog::new();
    let (mut passes, mut jobs, mut estimates) = (0u64, 0u64, 0u64);
    let traced_start = Instant::now();
    let deadline = cfg.deadline();
    while passes == 0 || Instant::now() < deadline {
        for (i, text) in setup.texts.iter().enumerate() {
            let run = (passes as usize * setup.texts.len() + i) as u32;
            let out = unpanic(|| submit_traced(setup, text, &mut log, run));
            if let Ok(s) = &out {
                jobs += s.semantics.dag.len() as u64;
                estimates += s.semantics.estimates.len() as u64;
            }
            check_submission(tally, text, &out);
        }
        passes += 1;
    }
    let traced_per_query = secs(traced_start) / (passes as f64 * setup.texts.len() as f64);
    let per_pass = |name: &str| log.total(name).secs() / passes as f64;
    values.set("query.parse_s", per_pass("query.parse"));
    values.set("query.analyze_s", per_pass("query.analyze"));
    values.set("plan.compile_s", per_pass("plan.compile"));
    values.set("plan.jobs", (jobs / passes) as f64);
    values.set("selectivity.estimate_s", per_pass("selectivity.estimate"));
    values.set("selectivity.jobs", (estimates / passes) as f64);
    values.set("predict.predict_s", per_pass("predict.predict"));
    values.set("trace.overhead_ratio", traced_per_query / plain_per_query);
    if let Err(e) =
        log.write_jsonl(&cfg.out_dir.join(format!("predict_stream-{}.spans.jsonl", cfg.seed)))
    {
        eprintln!("could not write the span log: {e}");
    }
}

fn check_submission(tally: &mut Tally, text: &Text, out: &Result<Submitted, String>) {
    match out {
        Ok(s) => tally.check(well_formed(s), || {
            format!(
                "predict_stream: ill-formed output for {}: {:?} {:?} wrd {}",
                text.sql, s.semantics.estimates, s.predictions, s.wrd
            )
        }),
        Err(e) => tally.check(false, || format!("predict_stream: {} failed: {e}", text.sql)),
    }
}
