//! The dispatch path: the materialized runnable set, per-query demand
//! aggregates (WRD / critical path / running counts) derived from live
//! [`DemandOracle`](super::DemandOracle) predictions, and the
//! [`DispatchMode::Crosscheck`] oracle that re-derives both from scratch.

use crate::job::{JobPrediction, SimQuery};
use crate::sched::RunnableJob;

use super::state::{JobTable, QueryState};
use sapred_obs::{JobId, QueryId};

/// Whether the engine checks its scheduler view against a from-scratch
/// rebuild. The view itself is always the incremental one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Materialized scheduling state, updated in O(affected jobs) per
    /// event. The default.
    #[default]
    Incremental,
    /// Run incrementally but re-derive the view from scratch
    /// ([`collect_runnable`] and [`query_demand`]) after every event and
    /// before every scheduler pick, panicking on any divergence (including
    /// f64 score bits). O(Σ jobs) per check; used by the cross-check tests.
    Crosscheck,
}

/// Per-query aggregates the schedulers consume through [`RunnableJob`].
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct QueryAgg {
    /// Remaining WRD (Eq. 10) over unfinished jobs.
    pub(super) wrd: f64,
    /// Remaining critical-path time over the unfinished DAG.
    pub(super) crit: f64,
    /// Running tasks across all of the query's jobs.
    pub(super) running: usize,
}

/// Materialized scheduling state for the incremental dispatch path: the
/// runnable-job set (sorted by `(query, job)`, the same order
/// [`collect_runnable`] produces) plus per-query aggregates. Updated in
/// O(affected jobs) on each `Submit`/`TaskDone`/dispatch instead of being
/// recomputed from every job of every query once per free container.
pub(super) struct DispatchState {
    pub(super) aggs: Vec<QueryAgg>,
    pub(super) runnable: Vec<RunnableJob>,
    /// Scratch for the critical-path pass (avoids a per-event allocation).
    pub(super) scratch: Vec<f64>,
    pub(super) containers: usize,
}

impl DispatchState {
    pub(super) fn new(n_queries: usize, containers: usize) -> Self {
        Self {
            aggs: vec![QueryAgg::default(); n_queries],
            runnable: Vec::new(),
            scratch: Vec::new(),
            containers,
        }
    }

    pub(super) fn position(&self, q: usize, j: usize) -> Result<usize, usize> {
        self.runnable.binary_search_by_key(&(q, j), |r| (r.query.into(), r.job.into()))
    }

    /// Recompute query `qi`'s WRD and critical path (O(its jobs)) and push
    /// the new aggregates into its runnable entries. Called for the one
    /// query an event touched; `running` is maintained separately because
    /// it also changes on dispatch, where WRD/crit do not.
    pub(super) fn refresh_query(
        &mut self,
        queries: &[SimQuery],
        jobs: &JobTable,
        preds: &[Vec<JobPrediction>],
        qi: usize,
    ) {
        let q = &queries[qi];
        if self.scratch.len() < q.jobs.len() {
            self.scratch.resize(q.jobs.len(), 0.0);
        }
        let (wrd, crit) = query_demand(q, qi, jobs, &preds[qi], self.containers, &mut self.scratch);
        self.aggs[qi].wrd = wrd;
        self.aggs[qi].crit = crit;
        self.sync_entries(qi);
    }

    /// Copy query `qi`'s aggregates into its runnable entries (contiguous
    /// in the sorted set).
    pub(super) fn sync_entries(&mut self, qi: usize) {
        let agg = self.aggs[qi];
        let start = self.runnable.partition_point(|r| r.query < QueryId(qi));
        for r in self.runnable[start..].iter_mut().take_while(|r| r.query == QueryId(qi)) {
            r.query_wrd = agg.wrd;
            r.query_time = agg.crit;
            r.query_running = agg.running;
        }
    }

    /// A job entered the runnable set (submitted, or its reduces unlocked).
    pub(super) fn insert_job(
        &mut self,
        queries: &[SimQuery],
        jobs: &JobTable,
        qi: usize,
        j: usize,
    ) {
        let i = jobs.idx(qi, j);
        let pending_reduces =
            if jobs.reduces_unlocked[i] { jobs.counts[i].pending_reduces } else { 0 };
        if jobs.counts[i].pending_maps == 0 && pending_reduces == 0 {
            return;
        }
        let entry = RunnableJob {
            query: QueryId(qi),
            job: JobId(j),
            submit_time: jobs.submit_time[i],
            arrival: queries[qi].arrival,
            pending_maps: jobs.counts[i].pending_maps,
            pending_reduces,
            running: jobs.counts[i].running_maps + jobs.counts[i].running_reduces,
            query_wrd: self.aggs[qi].wrd,
            query_time: self.aggs[qi].crit,
            query_running: self.aggs[qi].running,
        };
        match self.position(qi, j) {
            Ok(_) => unreachable!("job {qi}/{j} already runnable"),
            Err(at) => self.runnable.insert(at, entry),
        }
    }

    /// A task of `(qi, j)` was dispatched: bump running counts and drop the
    /// job from the set once nothing is left to launch.
    pub(super) fn on_dispatch(&mut self, jobs: &JobTable, qi: usize, j: usize) {
        self.aggs[qi].running += 1;
        self.sync_entries(qi);
        let at = self.position(qi, j).expect("dispatched job is runnable");
        let i = jobs.idx(qi, j);
        let pending_reduces =
            if jobs.reduces_unlocked[i] { jobs.counts[i].pending_reduces } else { 0 };
        if jobs.counts[i].pending_maps == 0 && pending_reduces == 0 {
            self.runnable.remove(at);
        } else {
            let r = &mut self.runnable[at];
            r.pending_maps = jobs.counts[i].pending_maps;
            r.pending_reduces = pending_reduces;
            r.running = jobs.counts[i].running_maps + jobs.counts[i].running_reduces;
        }
    }

    /// A task of `(qi, j)` finished: refresh the query's demand, and
    /// re-admit the job if this completion unlocked its reduce phase.
    pub(super) fn on_task_done(
        &mut self,
        queries: &[SimQuery],
        jobs: &JobTable,
        preds: &[Vec<JobPrediction>],
        qi: usize,
        j: usize,
    ) {
        self.aggs[qi].running -= 1;
        let i = jobs.idx(qi, j);
        if let Ok(at) = self.position(qi, j) {
            // Still runnable (more tasks of the same phase pending).
            let r = &mut self.runnable[at];
            r.pending_maps = jobs.counts[i].pending_maps;
            r.pending_reduces =
                if jobs.reduces_unlocked[i] { jobs.counts[i].pending_reduces } else { 0 };
            r.running = jobs.counts[i].running_maps + jobs.counts[i].running_reduces;
        } else if jobs.reduces_unlocked[i]
            && jobs.counts[i].pending_reduces > 0
            && jobs.finished[i].is_none()
        {
            // This completion was the last map: the reduce wave unlocks.
            self.insert_job(queries, jobs, qi, j);
        }
        self.refresh_query(queries, jobs, preds, qi);
    }

    /// Rebuild query `qi`'s aggregates and runnable entries wholesale from
    /// its job states. Fault events (kills, requeues, map claw-backs,
    /// query abandonment) can flip several of the query's jobs in and out
    /// of the runnable set at once, which the single-job update paths
    /// above don't model; this is the O(its jobs) recovery path. Produces
    /// exactly the entries [`collect_runnable`] would — same order, same
    /// aggregate bits — so Crosscheck holds under faults too.
    pub(super) fn resync_query(
        &mut self,
        queries: &[SimQuery],
        jobs: &JobTable,
        preds: &[Vec<JobPrediction>],
        qi: usize,
    ) {
        let q = &queries[qi];
        if self.scratch.len() < q.jobs.len() {
            self.scratch.resize(q.jobs.len(), 0.0);
        }
        let (wrd, crit) = query_demand(q, qi, jobs, &preds[qi], self.containers, &mut self.scratch);
        let base = jobs.query_range(qi).start;
        self.aggs[qi] = QueryAgg { wrd, crit, running: query_running(jobs, qi) };
        let agg = self.aggs[qi];
        let start = self.runnable.partition_point(|r| r.query < QueryId(qi));
        let end =
            start + self.runnable[start..].iter().take_while(|r| r.query == QueryId(qi)).count();
        let mut entries = Vec::new();
        for j in &q.jobs {
            let i = base + j.id.0;
            if !jobs.submitted[i] || jobs.finished[i].is_some() {
                continue;
            }
            let pending_reduces =
                if jobs.reduces_unlocked[i] { jobs.counts[i].pending_reduces } else { 0 };
            if jobs.counts[i].pending_maps == 0 && pending_reduces == 0 {
                continue;
            }
            entries.push(RunnableJob {
                query: QueryId(qi),
                job: j.id,
                submit_time: jobs.submit_time[i],
                arrival: q.arrival,
                pending_maps: jobs.counts[i].pending_maps,
                pending_reduces,
                running: jobs.counts[i].running_maps + jobs.counts[i].running_reduces,
                query_wrd: agg.wrd,
                query_time: agg.crit,
                query_running: agg.running,
            });
        }
        self.runnable.splice(start..end, entries);
    }

    /// Drop an abandoned query from the runnable set entirely.
    pub(super) fn remove_query(&mut self, qi: usize) {
        let start = self.runnable.partition_point(|r| r.query < QueryId(qi));
        let end =
            start + self.runnable[start..].iter().take_while(|r| r.query == QueryId(qi)).count();
        self.runnable.drain(start..end);
        self.aggs[qi] = QueryAgg::default();
    }

    /// Panic unless the materialized state matches a from-scratch rebuild
    /// bit-for-bit (f64 fields included — the scores recorded in obs
    /// decision events must be identical, not merely close): the runnable
    /// set against [`collect_runnable`], and every live query's aggregates
    /// against [`query_demand`]. The second check covers queries with no
    /// runnable entry, whose WRD admission's `ShedLargestWrd` still reads.
    pub(super) fn crosscheck(
        &self,
        queries: &[SimQuery],
        jobs: &JobTable,
        preds: &[Vec<JobPrediction>],
        qstate: &[QueryState],
        when: &str,
    ) {
        let reference = collect_runnable(queries, jobs, preds, self.containers);
        assert_eq!(
            self.runnable, reference,
            "incremental dispatch state diverged from collect_runnable ({when})"
        );
        for (qi, q) in queries.iter().enumerate() {
            // An abandoned query's aggregates are cleared with its entries.
            if qstate[qi].failed {
                continue;
            }
            let mut acc = vec![0.0f64; q.jobs.len()];
            let (wrd, crit) = query_demand(q, qi, jobs, &preds[qi], self.containers, &mut acc);
            let running = query_running(jobs, qi);
            let agg = self.aggs[qi];
            assert!(
                agg.wrd.to_bits() == wrd.to_bits()
                    && agg.crit.to_bits() == crit.to_bits()
                    && agg.running == running,
                "incremental aggregates of query {qi} diverged from query_demand ({when}): \
                 maintained {agg:?}, expected wrd {wrd}, crit {crit}, running {running}"
            );
        }
    }
}

/// Running tasks across all of query `qi`'s jobs (for queue-share
/// accounting).
fn query_running(jobs: &JobTable, qi: usize) -> usize {
    jobs.counts[jobs.query_range(qi)].iter().map(|c| c.running_maps + c.running_reduces).sum()
}

/// Per-query demand aggregates: remaining WRD (Eq. 10) and remaining
/// critical-path time over the unfinished DAG.
///
/// Shared by the from-scratch reference ([`collect_runnable`]) and the
/// incremental [`DispatchState`] so both paths perform the identical
/// floating-point operations in the identical order — scheduler scores
/// derived from these must match bit-for-bit, not merely approximately.
///
/// `acc` is caller-provided scratch of length ≥ `q.jobs.len()`; every slot
/// that is read is written first (jobs are topologically ordered with
/// backward deps), so it needs no clearing between calls.
pub(super) fn query_demand(
    q: &SimQuery,
    qi: usize,
    jobs: &JobTable,
    preds: &[JobPrediction],
    containers: usize,
    acc: &mut [f64],
) -> (f64, f64) {
    let range = jobs.query_range(qi);
    // Per-query column windows: one bounds check each here instead of one
    // per element access below (this is the hottest loop of the SWRD
    // dispatch path — it runs once per event over every job of the query).
    let finished = &jobs.finished[range.clone()];
    let counts = &jobs.counts[range];
    let c = containers.max(1) as f64;
    // One fused forward pass (jobs are topologically ordered, so the
    // critical path needs no second sweep): each unfinished job's
    // remaining predicted processing time feeds the WRD sum (Eq. 10)
    // as-is and the critical path spread over the containers. `rem` is
    // the exact expression both aggregates historically computed
    // separately, so reusing it keeps the f64 bits identical.
    let mut wrd = 0.0f64;
    let mut crit = 0.0f64;
    for j in &q.jobs {
        let i = j.id.0;
        let own = if finished[i].is_some() {
            0.0
        } else {
            let rem = preds[i].map_task_time * (j.maps.len() - counts[i].done_maps) as f64
                + preds[i].reduce_task_time * (j.reduces.len() - counts[i].done_reduces) as f64;
            wrd += rem;
            rem / c
        };
        let dep_max = j.deps.iter().map(|&d| acc[d.0]).fold(0.0, f64::max);
        acc[i] = dep_max + own;
        crit = crit.max(acc[i]);
    }
    (wrd, crit)
}

/// Build the full runnable view from scratch. This is the executable
/// specification of what schedulers see: O(Σ jobs) per call, checked
/// against before every pick under [`DispatchMode::Crosscheck`]. The
/// incremental path maintains the identical view (same entries, same
/// order, same aggregate bits) without the rebuild.
pub(super) fn collect_runnable(
    queries: &[SimQuery],
    jobs: &JobTable,
    preds: &[Vec<JobPrediction>],
    containers: usize,
) -> Vec<RunnableJob> {
    let mut out = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let mut acc = vec![0.0f64; q.jobs.len()];
        let (wrd, crit) = query_demand(q, qi, jobs, &preds[qi], containers, &mut acc);
        let base = jobs.query_range(qi).start;
        let running = query_running(jobs, qi);
        for j in &q.jobs {
            let i = base + j.id.0;
            if !jobs.submitted[i] || jobs.finished[i].is_some() {
                continue;
            }
            let pending_reduces =
                if jobs.reduces_unlocked[i] { jobs.counts[i].pending_reduces } else { 0 };
            if jobs.counts[i].pending_maps == 0 && pending_reduces == 0 {
                continue;
            }
            out.push(RunnableJob {
                query: QueryId(qi),
                job: j.id,
                submit_time: jobs.submit_time[i],
                arrival: q.arrival,
                pending_maps: jobs.counts[i].pending_maps,
                pending_reduces,
                running: jobs.counts[i].running_maps + jobs.counts[i].running_reduces,
                query_wrd: wrd,
                query_time: crit,
                query_running: running,
            });
        }
    }
    out
}
