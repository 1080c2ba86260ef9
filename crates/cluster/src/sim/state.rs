//! Core simulation state: the event types, and the per-job / per-query
//! bookkeeping every other `sim` submodule (engine, dispatch, recovery,
//! report) operates on.

use crate::job::TaskKind;
use sapred_obs::TaskPhase;

pub(super) fn phase_of(kind: TaskKind) -> TaskPhase {
    match kind {
        TaskKind::Map => TaskPhase::Map,
        TaskKind::Reduce => TaskPhase::Reduce,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Event {
    /// A query arrives: submit its root jobs.
    Arrival { q: usize },
    /// A job becomes visible to the scheduler.
    Submit { q: usize, j: usize },
    /// Attempt `attempt` (index into the attempt registry) finishes,
    /// releasing its container slot. The exact f64 duration the heap
    /// scheduled lives in the registry as its bit pattern
    /// ([`f64::to_bits`]) so the recorded stats match the schedule
    /// bit-for-bit. Ignored if the attempt was killed in the meantime
    /// (lazy invalidation: cheaper than deleting from the event heap).
    TaskDone { attempt: usize },
    /// Attempt `attempt` fails mid-run (scheduled at dispatch when the
    /// fault RNG says this attempt dies). Ignored if already killed.
    TaskFailed { attempt: usize },
    /// A failed task's backoff elapsed: re-enter the runnable set.
    Retry { q: usize, j: usize, kind: TaskKind, spec_idx: usize },
    /// Scheduled node outage `crash` (index into the plan's crash list)
    /// takes effect.
    NodeDown { crash: usize },
    /// A crashed node recovers. `epoch` guards against stale events.
    NodeUp { node: usize, epoch: u64 },
    /// Admission deadline check at `arrival + deadline`: kill the query if
    /// it is still unfinished. Ignored if it already terminated.
    DeadlineCheck { q: usize },
    /// A shed query's resubmission backoff elapsed: retry admission.
    /// Ignored if the query terminated (deadline kill) while waiting.
    Resubmit { q: usize },
}

/// Cold per-spec lists of one job (retry queues, attempt budgets,
/// disruption clocks, map-output placement). Kept out of the hot
/// [`JobTable`] columns: the dispatch scans never touch them.
#[derive(Debug, Clone, Default)]
pub(super) struct JobLists {
    /// Spec indices of failed/lost tasks awaiting relaunch; popped before
    /// fresh `next_map`/`next_reduce` indices at dispatch.
    pub(super) retry_maps: Vec<usize>,
    pub(super) retry_reduces: Vec<usize>,
    /// Per-spec attempt counts, for the max-attempts budget.
    pub(super) map_attempt_no: Vec<usize>,
    pub(super) reduce_attempt_no: Vec<usize>,
    /// Per-spec first-disruption time, for recovery-latency stats; cleared
    /// on successful completion.
    pub(super) map_fail_since: Vec<Option<f64>>,
    pub(super) reduce_fail_since: Vec<Option<f64>>,
    /// Node that holds each completed map's output (the winning attempt's
    /// node), for the lost-map-output rule on node crashes.
    pub(super) map_node: Vec<Option<usize>>,
}

/// A job's task-count state, packed into one 64-byte record so the
/// dispatch and task-completion hot paths touch a single cache line per
/// job instead of eight. Every event handler reads or writes most of
/// these together; splitting them into eight separate columns made each
/// touched job cost eight scattered cache lines (measurably slower than
/// the old per-job struct). Fields keep the exact types the old per-job
/// struct used, so all arithmetic over them is bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct JobCounts {
    pub(super) pending_maps: usize,
    pub(super) running_maps: usize,
    pub(super) done_maps: usize,
    pub(super) pending_reduces: usize,
    pub(super) running_reduces: usize,
    pub(super) done_reduces: usize,
    /// Next fresh map / reduce spec index to hand out at dispatch.
    pub(super) next_map: usize,
    pub(super) next_reduce: usize,
}

/// A job's report accumulators (attempt/completion totals and winning
/// task-time sums), packed for the same cache-line reason as
/// [`JobCounts`]: they are updated together once per task completion.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct JobStats {
    pub(super) map_time_sum: f64,
    pub(super) reduce_time_sum: f64,
    pub(super) map_attempts_total: usize,
    pub(super) reduce_attempts_total: usize,
    pub(super) map_completions: usize,
    pub(super) reduce_completions: usize,
}

/// Per-job bookkeeping as a struct-of-arrays: one flat arena over every
/// `(query, job)` pair, indexed by `offsets[q] + j`. The dispatch hot
/// loops ([`query_demand`], `collect_runnable`) scan the demand columns
/// (`finished` plus the packed [`JobCounts`] records) contiguously instead of striding through a 28-field struct
/// behind a `Vec<Vec<_>>` double indirection; the cold per-spec lists
/// live separately in [`JobLists`].
///
/// Column types match the old per-job struct fields exactly, so every
/// arithmetic expression over them is bit-identical to the pre-SoA
/// engine — the layout changed, the values did not.
///
/// [`query_demand`]: super::dispatch::query_demand
#[derive(Debug, Clone, Default)]
pub(super) struct JobTable {
    /// Arena start of each query's jobs; `offsets[nq]` = total jobs.
    offsets: Vec<usize>,
    pub(super) submitted: Vec<bool>,
    pub(super) submit_time: Vec<f64>,
    pub(super) started: Vec<Option<f64>>,
    pub(super) finished: Vec<Option<f64>>,
    /// Task-count state, one [`JobCounts`] (a single cache line) per job.
    pub(super) counts: Vec<JobCounts>,
    /// Report accumulators, one [`JobStats`] per job.
    pub(super) stats: Vec<JobStats>,
    pub(super) reduces_unlocked: Vec<bool>,
    /// Whether `pending_reduces` has been initialized (exactly once — a
    /// node crash can re-lock the reduce wave by clawing back completed
    /// maps, and re-initializing on the second unlock would double-count
    /// reduces already done or running).
    pub(super) reduces_initialized: Vec<bool>,
    /// Cold per-spec lists, parallel to the columns above.
    pub(super) lists: Vec<JobLists>,
}

impl JobTable {
    /// Build the table for `job_counts[q]` jobs per query, all columns at
    /// their defaults.
    pub(super) fn new(job_counts: impl Iterator<Item = usize>) -> Self {
        let mut offsets = vec![0usize];
        for n in job_counts {
            offsets.push(offsets.last().unwrap() + n);
        }
        let total = *offsets.last().unwrap();
        Self {
            offsets,
            submitted: vec![false; total],
            submit_time: vec![0.0; total],
            started: vec![None; total],
            finished: vec![None; total],
            counts: vec![JobCounts::default(); total],
            stats: vec![JobStats::default(); total],
            reduces_unlocked: vec![false; total],
            reduces_initialized: vec![false; total],
            lists: (0..total).map(|_| JobLists::default()).collect(),
        }
    }

    /// Arena index of job `j` of query `q`.
    #[inline]
    pub(super) fn idx(&self, q: usize, j: usize) -> usize {
        debug_assert!(j < self.offsets[q + 1] - self.offsets[q]);
        self.offsets[q] + j
    }

    /// Arena index range covering query `q`'s jobs.
    #[inline]
    pub(super) fn query_range(&self, q: usize) -> std::ops::Range<usize> {
        self.offsets[q]..self.offsets[q + 1]
    }

    /// Reset job `i` to the default (never-submitted) state — the SoA
    /// equivalent of overwriting the old per-job struct with `default()`,
    /// used when admission evicts a not-yet-started query.
    pub(super) fn reset_job(&mut self, i: usize) {
        self.submitted[i] = false;
        self.submit_time[i] = 0.0;
        self.started[i] = None;
        self.finished[i] = None;
        self.counts[i] = JobCounts::default();
        self.stats[i] = JobStats::default();
        self.reduces_unlocked[i] = false;
        self.reduces_initialized[i] = false;
        self.lists[i] = JobLists::default();
    }
}

#[derive(Debug, Clone, Default)]
pub(super) struct QueryState {
    pub(super) jobs_done: usize,
    pub(super) started: Option<f64>,
    pub(super) finished: Option<f64>,
    pub(super) failed: bool,
    /// Whether the query currently holds an admission slot. Set on
    /// (re-)admission, cleared on eviction and on every terminal
    /// transition; stale in-flight `Submit` events from an evicted
    /// admission epoch are neutralized by checking this flag.
    pub(super) admitted: bool,
    /// How many times the query has been shed and resubmitted.
    pub(super) resubmits: usize,
}
