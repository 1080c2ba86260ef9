//! Schedulers: job-level FIFO / Capacity / Fair, and the paper's
//! query-level SWRD (Smallest Weighted Resource Demand first, §4.3).
//!
//! The engine asks for one choice per free container: which runnable job
//! should receive it. A policy whose order is a fixed total order over
//! per-job fields exposes it as a [`PickKey`] through
//! [`Scheduler::pick_key`]; the engine then keeps its runnable jobs in an
//! index ordered by that key and hands out the index head, O(log n) per
//! update instead of an O(n) scan per pick. Policies without such a key
//! ([`HcsQueues`], any wrapper that does not forward `pick_key`) are
//! consulted through [`Scheduler::pick`] with the whole runnable set. For
//! keyed policies `pick` stays the specification the index is checked
//! against. A job never has pending maps and pending reduces at the same
//! time (reduces unlock when the map phase completes), so the choice of
//! task kind is implied.

use crate::job::TaskKind;
use sapred_obs::{JobId, QueryId};

/// A scheduler's view of one runnable job (has at least one pending task).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnableJob {
    /// Owning query's id.
    pub query: QueryId,
    /// Job id within the query's DAG.
    pub job: JobId,
    /// When Hive submitted this job to the cluster.
    pub submit_time: f64,
    /// When the owning query arrived.
    pub arrival: f64,
    /// Map tasks not yet dispatched.
    pub pending_maps: usize,
    /// Reduce tasks not yet dispatched (0 until the map phase ends).
    pub pending_reduces: usize,
    /// Currently running tasks of this job.
    pub running: usize,
    /// Remaining Weighted Resource Demand of the owning *query* (Eq. 10),
    /// from percolated predictions. Zero when prediction is disabled.
    pub query_wrd: f64,
    /// Remaining critical-path time of the owning query (predicted job
    /// processing times along the unfinished DAG), used by [`Srt`].
    pub query_time: f64,
    /// Total running tasks of the owning query (all jobs), used by
    /// [`HcsQueues`] for per-queue share accounting.
    pub query_running: usize,
}

impl RunnableJob {
    /// The task kind this job would run next.
    pub fn next_kind(&self) -> TaskKind {
        if self.pending_reduces > 0 {
            TaskKind::Reduce
        } else {
            TaskKind::Map
        }
    }
}

/// The engine's ask: which runnable job gets the next free container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskChoice {
    /// Chosen query.
    pub query: QueryId,
    /// Chosen job id within the query.
    pub job: JobId,
    /// Task kind to launch (implied by the job's phase).
    pub kind: TaskKind,
}

impl From<&RunnableJob> for TaskChoice {
    fn from(j: &RunnableJob) -> Self {
        TaskChoice { query: j.query, job: j.job, kind: j.next_kind() }
    }
}

/// A keyed policy's rank of one runnable job: lexicographic order on keys
/// is exactly the order of the policy's [`Scheduler::pick`] comparator,
/// tie-breaks included, so the smallest key is the job `pick` returns.
/// Unused trailing slots are zero.
pub type PickKey = [u64; 5];

/// Map `x` to a `u64` whose unsigned order is [`f64::total_cmp`] order:
/// negative values (sign bit set, NaNs included) have every bit flipped,
/// non-negative ones only the sign bit. Total over all bit patterns, so a
/// NaN score sorts exactly where `total_cmp` puts it.
pub fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

use total_order_bits as tob;

/// Scheduling policy.
pub trait Scheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &'static str;
    /// Choose a job for the next free container, or `None` to leave it idle.
    ///
    /// The engine calls this once per free container, with every runnable
    /// job, only for policies without a [`pick_key`](Scheduler::pick_key)
    /// (and for the FIFO fallback of degraded mode). For keyed policies it
    /// is the reference the engine's index is crosschecked against.
    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice>;
    /// The policy's order as a key function, when `pick` is "the runnable
    /// job with the smallest key" for a key computed from that job alone.
    /// The engine then takes the head of an index ordered by this key
    /// instead of calling `pick`. Defaults to `None` (always call `pick`),
    /// which is also what a wrapper that does not forward it gets.
    fn pick_key(&self) -> Option<fn(&RunnableJob) -> PickKey> {
        None
    }
    /// The policy's primary ranking score for `job` — **lower wins** for
    /// every built-in policy. Recorded in observability decision events
    /// ([`sapred_obs::Event::Decision`]) so traces show *why* a candidate
    /// won. Ties are broken by secondary keys inside [`Scheduler::pick`];
    /// the score only captures the leading key (e.g. the owning query's WRD
    /// for [`Swrd`]). Defaults to `0.0` for score-free policies.
    fn score(&self, job: &RunnableJob) -> f64 {
        let _ = job;
        0.0
    }
}

/// The shared (submit_time, query, job) tie-break chain.
///
/// All float keys across the schedulers compare with [`f64::total_cmp`]:
/// a NaN score (e.g. a corrupted prediction percolating into a query's
/// WRD) sorts deterministically *after* every real number instead of
/// panicking the dispatch loop mid-run.
fn submit_order(a: &RunnableJob, b: &RunnableJob) -> std::cmp::Ordering {
    a.submit_time.total_cmp(&b.submit_time).then(a.query.cmp(&b.query)).then(a.job.cmp(&b.job))
}

/// Query-arrival FIFO: containers go to the earliest-arrived query's jobs
/// first (job submit order within a query). A simple query-aware baseline —
/// it avoids cross-query interleaving but ignores resource demand.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        runnable
            .iter()
            .min_by(|a, b| {
                a.arrival
                    .total_cmp(&b.arrival)
                    .then(a.query.cmp(&b.query))
                    .then(a.submit_time.total_cmp(&b.submit_time))
                    .then(a.job.cmp(&b.job))
            })
            .map(TaskChoice::from)
    }

    fn score(&self, job: &RunnableJob) -> f64 {
        job.arrival
    }

    fn pick_key(&self) -> Option<fn(&RunnableJob) -> PickKey> {
        Some(|j| [tob(j.arrival), j.query.0 as u64, tob(j.submit_time), j.job.0 as u64, 0])
    }
}

/// Hadoop Capacity Scheduler (single queue, the paper's configuration):
/// jobs are served strictly in *job submission* order with greedy backfill.
/// Because a DAG's downstream jobs are submitted only when their parents
/// finish, jobs of later queries routinely overtake them — the resource
/// thrashing of paper §2.1 (Figs. 1–2).
#[derive(Debug, Default, Clone, Copy)]
pub struct Hcs;

impl Scheduler for Hcs {
    fn name(&self) -> &'static str {
        "HCS"
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        runnable.iter().min_by(|a, b| submit_order(a, b)).map(TaskChoice::from)
    }

    fn score(&self, job: &RunnableJob) -> f64 {
        job.submit_time
    }

    fn pick_key(&self) -> Option<fn(&RunnableJob) -> PickKey> {
        Some(|j| [tob(j.submit_time), j.query.0 as u64, j.job.0 as u64, 0, 0])
    }
}

/// Hadoop Fair Scheduler: every active job gets an equal share of
/// containers; each free container goes to the runnable job with the fewest
/// running tasks. Resources are divided thinly across all jobs (§2.1).
#[derive(Debug, Default, Clone, Copy)]
pub struct Hfs;

impl Scheduler for Hfs {
    fn name(&self) -> &'static str {
        "HFS"
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        runnable
            .iter()
            .min_by(|a, b| a.running.cmp(&b.running).then(submit_order(a, b)))
            .map(TaskChoice::from)
    }

    fn score(&self, job: &RunnableJob) -> f64 {
        job.running as f64
    }

    fn pick_key(&self) -> Option<fn(&RunnableJob) -> PickKey> {
        Some(|j| [j.running as u64, tob(j.submit_time), j.query.0 as u64, j.job.0 as u64, 0])
    }
}

/// The paper's case-study scheduler (§4.3): queries are ranked by their
/// remaining Weighted Resource Demand; all containers go to the
/// smallest-WRD query first (job submit order within the query). Requires
/// the percolated per-task time predictions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Swrd;

impl Scheduler for Swrd {
    fn name(&self) -> &'static str {
        "SWRD"
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        runnable
            .iter()
            .min_by(|a, b| {
                a.query_wrd
                    .total_cmp(&b.query_wrd)
                    .then(a.arrival.total_cmp(&b.arrival))
                    .then(a.query.cmp(&b.query))
                    .then(submit_order(a, b))
            })
            .map(TaskChoice::from)
    }

    fn score(&self, job: &RunnableJob) -> f64 {
        job.query_wrd
    }

    fn pick_key(&self) -> Option<fn(&RunnableJob) -> PickKey> {
        Some(|j| {
            [tob(j.query_wrd), tob(j.arrival), j.query.0 as u64, tob(j.submit_time), j.job.0 as u64]
        })
    }
}

/// The multi-queue Hadoop Capacity Scheduler: queries are hashed onto
/// queues, each queue has a guaranteed share of the container pool, and
/// free containers go to the most under-served queue (lowest
/// running-to-capacity ratio) with FIFO job order inside the queue. With a
/// single queue this degenerates to [`Hcs`]. The paper's testbed uses the
/// default single-queue configuration; this variant exists to show the
/// thrashing of §2.1 is not an artifact of that choice.
#[derive(Debug, Clone)]
pub struct HcsQueues {
    capacities: Vec<f64>,
    /// Reusable per-queue running-count scratch, one slot per queue.
    running: Vec<usize>,
    /// Reusable per-queue "has a runnable job" scratch, filled by the same
    /// counting pass.
    has_work: Vec<bool>,
    /// Generation stamp per query id: a query was counted this pick iff
    /// its stamp equals `gen`. "Clearing" between picks is the O(1) `gen`
    /// bump below — no per-dispatch buffer wipe, no hash-set allocation.
    seen_gen: Vec<u64>,
    gen: u64,
}

impl HcsQueues {
    /// Create with one guaranteed share per queue.
    ///
    /// # Panics
    /// Panics if `capacities` is empty or has non-positive entries.
    pub fn new(capacities: Vec<f64>) -> Self {
        assert!(!capacities.is_empty(), "need at least one queue");
        assert!(capacities.iter().all(|&c| c > 0.0), "capacities must be positive");
        let n = capacities.len();
        Self {
            capacities,
            running: vec![0; n],
            has_work: vec![false; n],
            seen_gen: Vec::new(),
            gen: 0,
        }
    }

    fn queue_of(&self, query: usize) -> usize {
        query % self.capacities.len()
    }
}

impl Scheduler for HcsQueues {
    fn name(&self) -> &'static str {
        "HCS-queues"
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        // Running tasks per queue (each query counted once), and which
        // queues have runnable work at all. The engine hands us the
        // runnable view sorted by (query, job), so queries are
        // contiguous; a last-seen check dedupes in O(n). The
        // (unsorted-caller) general case is guarded by generation stamps:
        // a query counts only when its stamp trails the pick's generation,
        // replacing the per-call HashSet allocation with a reusable buffer
        // that clears by bumping `gen`.
        let n = self.capacities.len();
        self.gen += 1;
        self.running.iter_mut().for_each(|r| *r = 0);
        self.has_work.iter_mut().for_each(|h| *h = false);
        let mut last: Option<usize> = None;
        for r in runnable {
            let q: usize = r.query.into();
            if last == Some(q) {
                continue;
            }
            last = Some(q);
            if q >= self.seen_gen.len() {
                self.seen_gen.resize(q + 1, 0);
            }
            if self.seen_gen[q] != self.gen {
                self.seen_gen[q] = self.gen;
                let qi = self.queue_of(q);
                self.running[qi] += r.query_running;
                self.has_work[qi] = true;
            }
        }
        // Most under-served queue that has pending work.
        let best_queue = (0..n).filter(|&q| self.has_work[q]).min_by(|&a, &b| {
            let ra = self.running[a] as f64 / self.capacities[a];
            let rb = self.running[b] as f64 / self.capacities[b];
            ra.total_cmp(&rb).then(a.cmp(&b))
        })?;
        runnable
            .iter()
            .filter(|r| self.queue_of(r.query.into()) == best_queue)
            .min_by(|a, b| submit_order(a, b))
            .map(TaskChoice::from)
    }

    // Queue-relative ranking has no single scalar; the within-queue FIFO
    // key is still the most informative per-candidate number.
    fn score(&self, job: &RunnableJob) -> f64 {
        job.submit_time
    }
}

/// Smallest-Remaining-Time-first at the query level: like SWRD but ranking
/// queries by their predicted remaining *critical-path time* instead of
/// their Weighted Resource Demand. The paper argues (§4.3) that temporal
/// demand alone is not enough — a query's WRD also captures how many
/// containers it will occupy; the A4 ablation compares the two directly.
#[derive(Debug, Default, Clone, Copy)]
pub struct Srt;

impl Scheduler for Srt {
    fn name(&self) -> &'static str {
        "SRT"
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        runnable
            .iter()
            .min_by(|a, b| {
                a.query_time
                    .total_cmp(&b.query_time)
                    .then(a.arrival.total_cmp(&b.arrival))
                    .then(a.query.cmp(&b.query))
                    .then(submit_order(a, b))
            })
            .map(TaskChoice::from)
    }

    fn score(&self, job: &RunnableJob) -> f64 {
        job.query_time
    }

    fn pick_key(&self) -> Option<fn(&RunnableJob) -> PickKey> {
        Some(|j| {
            [
                tob(j.query_time),
                tob(j.arrival),
                j.query.0 as u64,
                tob(j.submit_time),
                j.job.0 as u64,
            ]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(query: usize, job_id: usize, submit: f64, arrival: f64) -> RunnableJob {
        RunnableJob {
            query: QueryId(query),
            job: JobId(job_id),
            submit_time: submit,
            arrival,
            pending_maps: 3,
            pending_reduces: 0,
            running: 0,
            query_wrd: 100.0,
            query_time: 50.0,
            query_running: 0,
        }
    }

    #[test]
    fn fifo_prefers_oldest_query() {
        let mut s = Fifo;
        // Query 1 arrived later but its job was submitted earlier.
        let r = vec![job(0, 1, 10.0, 0.0), job(1, 0, 5.0, 2.0)];
        let c = s.pick(&r).unwrap();
        assert_eq!(c.query, QueryId(0));
    }

    #[test]
    fn hcs_prefers_earliest_submitted_job() {
        let mut s = Hcs;
        let r = vec![job(0, 1, 10.0, 0.0), job(1, 0, 5.0, 2.0)];
        let c = s.pick(&r).unwrap();
        assert_eq!(c.query, QueryId(1), "HCS follows job submit order, not query arrival");
    }

    #[test]
    fn hfs_balances_running_counts() {
        let mut s = Hfs;
        let mut a = job(0, 0, 0.0, 0.0);
        a.running = 5;
        let b = job(1, 0, 1.0, 1.0);
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(1));
    }

    #[test]
    fn swrd_prefers_smallest_demand() {
        let mut s = Swrd;
        let mut a = job(0, 0, 0.0, 0.0);
        a.query_wrd = 500.0;
        let mut b = job(1, 0, 1.0, 1.0);
        b.query_wrd = 50.0;
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(1));
    }

    #[test]
    fn hcs_queues_serves_the_underserved_queue() {
        // Two queues, equal capacity. Query 0 (queue 0) already has 10
        // running tasks; query 1 (queue 1) has none: queue 1 wins even
        // though query 0's job was submitted earlier.
        let mut s = HcsQueues::new(vec![0.5, 0.5]);
        let mut a = job(0, 0, 0.0, 0.0);
        a.query_running = 10;
        let b = job(1, 0, 5.0, 5.0);
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(1));
        // With capacities 10:1, queue 0 is under-served even at 8 running.
        let mut s = HcsQueues::new(vec![10.0, 1.0]);
        let mut a = job(0, 0, 0.0, 0.0);
        a.query_running = 8;
        let mut b = job(1, 0, 5.0, 5.0);
        b.query_running = 1;
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(0));
    }

    #[test]
    fn hcs_queues_generation_scratch_matches_hashset_reference() {
        // The generation-stamped scratch must reproduce the retired
        // HashSet dedup exactly — same counting, same pick — including on
        // unsorted views where a query's entries are not contiguous, and
        // across repeated picks (stale stamps from earlier generations
        // must not leak into later ones).
        fn reference_pick(capacities: &[f64], runnable: &[RunnableJob]) -> Option<TaskChoice> {
            let n = capacities.len();
            let queue_of = |query: usize| query % n;
            let mut running = vec![0usize; n];
            let mut last: Option<usize> = None;
            let mut seen: std::collections::HashSet<usize> = std::collections::HashSet::new();
            for r in runnable {
                if last == Some(r.query.into()) {
                    continue;
                }
                last = Some(r.query.into());
                if seen.insert(r.query.into()) {
                    running[queue_of(r.query.into())] += r.query_running;
                }
            }
            let best_queue = (0..n)
                .filter(|&q| runnable.iter().any(|r| queue_of(r.query.into()) == q))
                .min_by(|&a, &b| {
                    let ra = running[a] as f64 / capacities[a];
                    let rb = running[b] as f64 / capacities[b];
                    ra.total_cmp(&rb).then(a.cmp(&b))
                })?;
            runnable
                .iter()
                .filter(|r| queue_of(r.query.into()) == best_queue)
                .min_by(|a, b| submit_order(a, b))
                .map(TaskChoice::from)
        }

        let capacities = vec![3.0, 1.0, 2.0];
        let mut s = HcsQueues::new(capacities.clone());
        // Deterministic pseudo-random views: query ids deliberately
        // repeated and non-contiguous, varying running counts.
        let mut x = 11u64;
        for round in 0..50 {
            let mut r = Vec::new();
            for k in 0..(1 + round % 7) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let q = (x >> 33) as usize % 9;
                let mut j = job(q, k, (x % 97) as f64, 0.0);
                j.query_running = (x % 13) as usize;
                r.push(j);
            }
            let got = s.pick(&r);
            let want = reference_pick(&capacities, &r);
            assert_eq!(
                got.map(|c| (c.query, c.job, c.kind)),
                want.map(|c| (c.query, c.job, c.kind)),
                "round {round}: scratch dedup diverged from HashSet reference"
            );
        }
    }

    #[test]
    fn hcs_queues_single_queue_matches_hcs() {
        let r = vec![job(0, 1, 10.0, 0.0), job(1, 0, 5.0, 2.0)];
        let a = HcsQueues::new(vec![1.0]).pick(&r).unwrap();
        let b = Hcs.pick(&r).unwrap();
        assert_eq!((a.query, a.job), (b.query, b.job));
    }

    #[test]
    fn srt_prefers_smallest_remaining_time() {
        let mut s = Srt;
        let mut a = job(0, 0, 0.0, 0.0);
        a.query_time = 500.0;
        a.query_wrd = 1.0; // would win under SWRD
        let mut b = job(1, 0, 1.0, 1.0);
        b.query_time = 5.0;
        b.query_wrd = 1000.0;
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(1));
    }

    #[test]
    fn reduce_kind_when_reduces_pending() {
        let mut s = Fifo;
        let mut a = job(0, 0, 0.0, 0.0);
        a.pending_maps = 0;
        a.pending_reduces = 2;
        let c = s.pick(&[a]).unwrap();
        assert_eq!(c.kind, TaskKind::Reduce);
    }

    #[test]
    fn scores_expose_each_policy_primary_key() {
        let mut a = job(0, 0, 3.0, 1.0);
        a.running = 4;
        a.query_wrd = 77.0;
        a.query_time = 9.0;
        assert_eq!(Fifo.score(&a), 1.0);
        assert_eq!(Hcs.score(&a), 3.0);
        assert_eq!(Hfs.score(&a), 4.0);
        assert_eq!(Swrd.score(&a), 77.0);
        assert_eq!(Srt.score(&a), 9.0);
        assert_eq!(HcsQueues::new(vec![1.0]).score(&a), 3.0);
    }

    #[test]
    fn picked_candidate_has_minimal_score() {
        // For every score-driven policy, the picked job's score is the
        // minimum over the runnable set (ties broken by secondary keys).
        let mut r = vec![job(0, 0, 3.0, 1.0), job(1, 0, 1.0, 2.0), job(2, 0, 2.0, 0.5)];
        r[0].query_wrd = 30.0;
        r[1].query_wrd = 10.0;
        r[2].query_wrd = 20.0;
        r[0].query_time = 8.0;
        r[1].query_time = 12.0;
        r[2].query_time = 4.0;
        r[1].running = 6;

        fn check<S: Scheduler>(mut s: S, r: &[RunnableJob]) {
            let c = s.pick(r).unwrap();
            let chosen = r.iter().find(|j| (j.query, j.job) == (c.query, c.job)).unwrap();
            let min = r.iter().map(|j| s.score(j)).fold(f64::INFINITY, f64::min);
            assert!(s.score(chosen) <= min, "{}: {} > {min}", s.name(), s.score(chosen));
        }
        check(Fifo, &r);
        check(Hcs, &r);
        check(Hfs, &r);
        check(Swrd, &r);
        check(Srt, &r);
    }

    #[test]
    fn nan_scores_cannot_panic_a_pick() {
        // A NaN in any float key (a corrupted prediction percolating into
        // WRD, an uninitialized time) must degrade to "sorts last", never
        // panic the dispatch loop. Exercise every policy with NaN in every
        // float field of one candidate.
        let mut poisoned = job(0, 0, f64::NAN, f64::NAN);
        poisoned.query_wrd = f64::NAN;
        poisoned.query_time = f64::NAN;
        let clean = job(1, 0, 2.0, 2.0);

        fn check<S: Scheduler>(mut s: S, r: &[RunnableJob]) {
            let c = s.pick(r).expect("NaN keys must not panic or empty the pick");
            assert_eq!(c.query, QueryId(1), "{}: NaN sorts after real keys", s.name());
        }
        check(Fifo, &[poisoned, clean]);
        check(Hcs, &[poisoned, clean]);
        check(Hfs, &[poisoned, clean]);
        check(Swrd, &[poisoned, clean]);
        check(Srt, &[poisoned, clean]);
        // Single queue: both candidates share it, so the NaN-keyed
        // within-queue ordering is what decides.
        check(HcsQueues::new(vec![1.0]), &[poisoned, clean]);

        // All-NaN candidate sets still produce a deterministic pick.
        let twin = { job(1, 0, f64::NAN, f64::NAN) };
        let mut twin = twin;
        twin.query_wrd = f64::NAN;
        twin.query_time = f64::NAN;
        for r in [&[poisoned, twin][..], &[twin, poisoned][..]] {
            assert_eq!(Swrd.pick(r).unwrap().query, QueryId(0));
            assert_eq!(Srt.pick(r).unwrap().query, QueryId(0));
            assert_eq!(Fifo.pick(r).unwrap().query, QueryId(0));
        }
    }

    #[test]
    fn total_order_bits_matches_total_cmp() {
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff8_0000_0000_0001), // negative NaN with payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            xs.push(f64::from_bits(x));
        }
        for a in &xs {
            for b in &xs {
                assert_eq!(
                    total_order_bits(*a).cmp(&total_order_bits(*b)),
                    a.total_cmp(b),
                    "{a:e} ({:#x}) vs {b:e} ({:#x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_runnable_gives_none() {
        assert!(Fifo.pick(&[]).is_none());
        assert!(Hcs.pick(&[]).is_none());
        assert!(Hfs.pick(&[]).is_none());
        assert!(Swrd.pick(&[]).is_none());
        assert!(Srt.pick(&[]).is_none());
        assert!(HcsQueues::new(vec![1.0]).pick(&[]).is_none());
    }
}
