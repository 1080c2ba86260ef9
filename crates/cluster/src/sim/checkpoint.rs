//! Engine checkpoints: versioned, checksummed binary snapshots of a
//! mid-run [`Simulator`].
//!
//! A checkpoint serializes the *complete* mutable run state — the event
//! queue (sequence counter, arena slab, freelist, and index heap), the
//! struct-of-arrays job/attempt/query state, admission and fault
//! bookkeeping, both RNG streams, and the oracle's opaque state blob —
//! such that restoring it and finishing the run reproduces the
//! uninterrupted run's report and event stream bit-for-bit (the golden
//! fixtures and the kill-and-resume differential harness pin this).
//!
//! What is *not* serialized is deliberately re-derivable: interned query
//! names come from the workload, and the materialized
//! [`DispatchState`](super::dispatch::DispatchState) is rebuilt by the
//! same `resync_query` sweep the engine uses to recover from fault events,
//! which produces bit-identical aggregates and runnable entries by
//! construction.
//!
//! ## Format (`sapred-ckpt/v1`)
//!
//! ```text
//! magic    b"sapred-ckpt/v1\n"          15 bytes
//! length   payload byte count           u64 LE
//! checksum FNV-1a 64 of the payload     u64 LE
//! payload  context fingerprint + state  little-endian, hand-rolled
//! ```
//!
//! The payload opens with a context fingerprint over everything the
//! snapshot does **not** carry but correctness depends on: cluster config,
//! cost model, scheduler name, fault plan, admission config, and the full
//! workload shape (task specs included). Restoring against a different
//! context fails with [`CheckpointError::ContextMismatch`] instead of
//! silently diverging.
//! Every single-byte corruption of a blob is caught: payload flips break
//! the checksum, header flips break the magic, the length, or the
//! checksum itself; hand-crafted blobs that *re-checksum* corrupted
//! payloads are caught by structural validation (freelist/heap walks,
//! index bounds, poisoned-tag checks).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use rand::rngs::StdRng;

use crate::job::{SimQuery, TaskKind};
use crate::sched::Scheduler;
use sapred_obs::hash::{fnv1a, fnv1a_extend, FNV1A_OFFSET};
use sapred_obs::QueryId;
use sapred_plan::JobCategory;

use super::admission::{AdmissionStats, ShedPolicy};
use super::arena::{ArenaQueue, NIL};
use super::dispatch::DispatchState;
use super::engine::{RunState, Simulator};
use super::oracle::DemandOracle;
use super::recovery::{Attempt, FaultState};
use super::state::{Event, JobTable, QueryState};

/// Magic header of a `sapred-ckpt/v1` checkpoint blob.
pub(super) const MAGIC: &[u8] = b"sapred-ckpt/v1\n";

/// Why a checkpoint blob could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes do not start with the `sapred-ckpt/v1` magic header —
    /// not a checkpoint, or a different format version.
    BadMagic,
    /// The blob ends before the declared payload does (or a field read
    /// ran off the end of the payload).
    Truncated,
    /// The payload's FNV-1a checksum does not match the header — the blob
    /// was corrupted after it was written.
    ChecksumMismatch {
        /// Checksum declared in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        found: u64,
    },
    /// The snapshot was taken under a different configuration (cluster
    /// config, cost model, scheduler, fault plan, admission, or workload)
    /// than the one restoring it.
    ContextMismatch {
        /// Fingerprint of the restoring simulator's context.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The payload checksummed clean but failed structural validation
    /// (corrupted freelist, poisoned slab tag, out-of-range index, …).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => {
                write!(f, "not a sapred-ckpt/v1 checkpoint (bad magic header)")
            }
            CheckpointError::Truncated => {
                write!(f, "checkpoint truncated: payload ends before its declared length")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: header declares {expected:#018x}, \
                 payload hashes to {found:#018x}"
            ),
            CheckpointError::ContextMismatch { expected, found } => write!(
                f,
                "checkpoint context mismatch: snapshot was taken under fingerprint \
                 {found:#018x}, restoring simulator has {expected:#018x} \
                 (different config, scheduler, fault plan, or workload)"
            ),
            CheckpointError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---------------------------------------------------------------------
// FNV-1a 64 (the frame checksum is `fnv1a` over the payload).

/// Incremental FNV-1a 64 over typed fields (the context fingerprint).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV1A_OFFSET)
    }

    fn u8(&mut self, v: u8) {
        self.0 = fnv1a_extend(self.0, &[v]);
    }

    fn u64(&mut self, v: u64) {
        self.0 = fnv1a_extend(self.0, &v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.0 = fnv1a_extend(self.0, s.as_bytes());
        self.u8(0xff); // separator: "ab","c" must not hash like "a","bc"
    }
}

// ---------------------------------------------------------------------
// Little-endian field writer / checked reader.

/// Byte-oriented little-endian writer the checkpoint payload is built
/// with. Shared with the arena and oracle serialization code.
pub(super) struct Writer {
    out: Vec<u8>,
}

impl Writer {
    pub(super) fn new() -> Self {
        Self { out: Vec::new() }
    }

    pub(super) fn finish(self) -> Vec<u8> {
        self.out
    }

    pub(super) fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub(super) fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(super) fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(super) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(super) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(super) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(super) fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    pub(super) fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.usize(x);
            }
            None => self.u8(0),
        }
    }

    /// Length-prefixed raw bytes.
    pub(super) fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.out.extend_from_slice(b);
    }
}

/// Checked little-endian reader over a checkpoint payload. Every read is
/// bounds-checked ([`CheckpointError::Truncated`]) and every decoded
/// discriminant is validated ([`CheckpointError::Corrupt`]), so a
/// corrupted-but-rechecksummed blob fails with a typed error rather than
/// a panic or garbage state.
pub(super) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(super) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.data.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(super) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(super) fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(super) fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub(super) fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?)
            .map_err(|_| CheckpointError::Corrupt("usize field exceeds platform width".into()))
    }

    pub(super) fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(super) fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Corrupt(format!("bool field holds {b}"))),
        }
    }

    pub(super) fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        Ok(if self.bool()? { Some(self.f64()?) } else { None })
    }

    pub(super) fn opt_usize(&mut self) -> Result<Option<usize>, CheckpointError> {
        Ok(if self.bool()? { Some(self.usize()?) } else { None })
    }

    /// Read a collection length, rejecting counts that could not possibly
    /// fit in the remaining payload (`min_elem` bytes per element) so a
    /// corrupted length cannot drive a huge allocation.
    pub(super) fn vec_len(&mut self, min_elem: usize) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        let need = n.checked_mul(min_elem.max(1)).ok_or(CheckpointError::Truncated)?;
        if self.pos.checked_add(need).is_none_or(|end| end > self.data.len()) {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }

    /// Length-prefixed raw bytes.
    pub(super) fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.vec_len(1)?;
        self.take(n)
    }

    /// Assert the payload was fully consumed (trailing garbage = corrupt).
    pub(super) fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.data.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Context fingerprint.

fn category_u8(c: JobCategory) -> u8 {
    match c {
        JobCategory::Extract => 0,
        JobCategory::Groupby => 1,
        JobCategory::Join => 2,
    }
}

fn kind_u8(k: TaskKind) -> u8 {
    match k {
        TaskKind::Map => 0,
        TaskKind::Reduce => 1,
    }
}

/// Fingerprint everything a snapshot depends on but does not carry: if
/// any of it differs at restore time, the serialized state is meaningless
/// (different event meanings, different RNG consumption, different task
/// durations) and restore must be refused.
pub(super) fn context_fingerprint<S: Scheduler>(sim: &Simulator<S>, queries: &[SimQuery]) -> u64 {
    let mut h = Fnv::new();
    // Cluster config.
    h.usize(sim.config.nodes);
    h.usize(sim.config.containers_per_node);
    h.f64(sim.config.bytes_per_reducer);
    h.usize(sim.config.max_reducers);
    h.f64(sim.config.submit_overhead);
    h.u64(sim.config.seed);
    // Ground-truth cost model.
    h.f64(sim.cost.task_base);
    h.f64(sim.cost.read_rate);
    h.f64(sim.cost.map_cpu_rate);
    h.f64(sim.cost.write_rate);
    h.f64(sim.cost.shuffle_rate);
    h.f64(sim.cost.reduce_cpu_rate);
    h.f64(sim.cost.sort_coeff);
    h.f64(sim.cost.join_out_surcharge);
    h.f64(sim.cost.noise_sigma);
    h.f64(sim.cost.contention_coeff);
    h.f64(sim.cost.straggler_prob);
    h.f64(sim.cost.straggler_factor);
    // Policy. (The dispatch mode is not part of the context: Crosscheck
    // only checks the state Incremental maintains, so a snapshot taken
    // under either restores under either.)
    h.str(sim.scheduler.name());
    // Fault plan.
    h.f64(sim.faults.task_fail_prob);
    h.usize(sim.faults.max_attempts);
    h.f64(sim.faults.backoff_base);
    h.f64(sim.faults.backoff_cap);
    h.usize(sim.faults.node_crashes.len());
    for nc in &sim.faults.node_crashes {
        h.usize(nc.node.0);
        h.f64(nc.at);
        h.f64(nc.down_for);
    }
    h.usize(sim.faults.blacklist_after);
    h.bool(sim.faults.speculative);
    h.f64(sim.faults.spec_fraction);
    h.u64(sim.faults.seed);
    // Admission config.
    h.usize(sim.admission.queue_cap);
    h.f64(sim.admission.deadline);
    h.u8(match sim.admission.shed_policy {
        ShedPolicy::RejectNewest => 0,
        ShedPolicy::ShedLargestWrd => 1,
    });
    h.usize(sim.admission.max_resubmits);
    h.f64(sim.admission.resubmit_base);
    h.f64(sim.admission.resubmit_cap);
    // Workload: names, arrivals, DAG shape, task specs, frozen predictions.
    h.usize(queries.len());
    for q in queries {
        h.str(&q.name);
        h.f64(q.arrival);
        h.usize(q.jobs.len());
        for j in &q.jobs {
            h.usize(j.id.0);
            h.usize(j.deps.len());
            for d in &j.deps {
                h.usize(d.0);
            }
            h.u8(category_u8(j.category));
            h.f64(j.prediction.map_task_time);
            h.f64(j.prediction.reduce_task_time);
            for list in [&j.maps, &j.reduces] {
                h.usize(list.len());
                for t in list {
                    h.f64(t.bytes_in);
                    h.f64(t.bytes_out);
                    h.u8(category_u8(t.category));
                    h.u8(kind_u8(t.kind));
                    h.f64(t.p);
                }
            }
        }
    }
    h.0
}

// ---------------------------------------------------------------------
// Encode.

/// Serialize the complete run state into a framed `sapred-ckpt/v1` blob.
pub(super) fn encode<S: Scheduler>(
    sim: &Simulator<S>,
    queries: &[SimQuery],
    rs: &RunState,
    oracle: &dyn DemandOracle,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(context_fingerprint(sim, queries));
    // Scalars.
    w.f64(rs.now);
    w.u64(rs.events_processed);
    w.usize(rs.done_queries);
    w.usize(rs.active);
    w.bool(rs.degraded);
    w.u64(rs.rng.state());
    w.u64(rs.fault_rng.state());
    // Event queue (sequence counter + arena).
    rs.queue.checkpoint(&mut w);
    // Job table, one record per (query, job) arena slot.
    let total: usize = queries.iter().map(|q| q.jobs.len()).sum();
    w.usize(total);
    for i in 0..total {
        w.bool(rs.jobs.submitted[i]);
        w.f64(rs.jobs.submit_time[i]);
        w.opt_f64(rs.jobs.started[i]);
        w.opt_f64(rs.jobs.finished[i]);
        let c = &rs.jobs.counts[i];
        w.usize(c.pending_maps);
        w.usize(c.running_maps);
        w.usize(c.done_maps);
        w.usize(c.pending_reduces);
        w.usize(c.running_reduces);
        w.usize(c.done_reduces);
        w.usize(c.next_map);
        w.usize(c.next_reduce);
        let s = &rs.jobs.stats[i];
        w.f64(s.map_time_sum);
        w.f64(s.reduce_time_sum);
        w.usize(s.map_attempts_total);
        w.usize(s.reduce_attempts_total);
        w.usize(s.map_completions);
        w.usize(s.reduce_completions);
        w.bool(rs.jobs.reduces_unlocked[i]);
        w.bool(rs.jobs.reduces_initialized[i]);
        let l = &rs.jobs.lists[i];
        w.usize(l.retry_maps.len());
        for &m in &l.retry_maps {
            w.usize(m);
        }
        w.usize(l.retry_reduces.len());
        for &m in &l.retry_reduces {
            w.usize(m);
        }
        w.usize(l.map_attempt_no.len());
        for &n in &l.map_attempt_no {
            w.usize(n);
        }
        w.usize(l.reduce_attempt_no.len());
        for &n in &l.reduce_attempt_no {
            w.usize(n);
        }
        w.usize(l.map_fail_since.len());
        for &t in &l.map_fail_since {
            w.opt_f64(t);
        }
        w.usize(l.reduce_fail_since.len());
        for &t in &l.reduce_fail_since {
            w.opt_f64(t);
        }
        w.usize(l.map_node.len());
        for &n in &l.map_node {
            w.opt_usize(n);
        }
    }
    // Per-query state.
    for qs in &rs.qstate {
        w.usize(qs.jobs_done);
        w.opt_f64(qs.started);
        w.opt_f64(qs.finished);
        w.bool(qs.failed);
        w.bool(qs.admitted);
        w.usize(qs.resubmits);
    }
    // Live prediction matrix.
    for qp in &rs.preds {
        for p in qp {
            w.f64(p.map_task_time);
            w.f64(p.reduce_task_time);
        }
    }
    // Fault and recovery state: the attempt registry…
    let n_attempts = rs.fr.attempts.len();
    w.usize(n_attempts);
    for id in 0..n_attempts {
        let a = rs.fr.attempts.get(id);
        w.usize(a.q);
        w.usize(a.j);
        w.u8(kind_u8(a.kind));
        w.usize(a.spec_idx);
        w.usize(a.slot);
        w.f64(a.start);
        w.u64(a.duration_bits);
        w.f64(a.sched_end);
        w.usize(a.attempt_no);
        w.bool(a.speculative);
        w.bool(a.counted);
        w.u32(a.partner.map_or(NIL, |p| p as u32));
        w.bool(a.alive);
    }
    // …slot occupancy and node health…
    for &s in &rs.fr.slot_attempt {
        w.opt_usize(s);
    }
    for &b in &rs.fr.crashed {
        w.bool(b);
    }
    for &b in &rs.fr.blacklisted {
        w.bool(b);
    }
    for &n in &rs.fr.node_failures {
        w.usize(n);
    }
    for &e in &rs.fr.node_epoch {
        w.u64(e);
    }
    // …and the fault stats that end up in the report.
    let fs = &rs.fr.stats;
    w.usize(fs.task_failures);
    w.usize(fs.tasks_killed);
    w.usize(fs.node_crashes);
    w.usize(fs.nodes_blacklisted);
    w.usize(fs.lost_maps);
    w.usize(fs.speculative_launches);
    w.usize(fs.speculative_wins);
    w.usize(fs.retries_scheduled);
    w.usize(fs.recovery_count);
    w.f64(fs.recovery_latency_sum);
    w.f64(fs.recovery_latency_max);
    w.usize(fs.failed_queries.len());
    for q in &fs.failed_queries {
        w.usize(q.0);
    }
    // Admission stats.
    let ads = &rs.admission_stats;
    w.usize(ads.queries_shed);
    w.usize(ads.queries_rejected.len());
    for q in &ads.queries_rejected {
        w.usize(q.0);
    }
    w.usize(ads.resubmissions);
    w.usize(ads.deadline_misses.len());
    for q in &ads.deadline_misses {
        w.usize(q.0);
    }
    w.usize(ads.max_active);
    // Free container slots, smallest-first (the heap's internal layout is
    // unobservable; sorted order restores an equivalent heap).
    let mut slots: Vec<usize> = rs.free_slots.iter().map(|r| r.0).collect();
    slots.sort_unstable();
    w.usize(slots.len());
    for s in slots {
        w.usize(s);
    }
    // The oracle's opaque state (empty for stateless oracles).
    w.bytes(&oracle.snapshot_state());

    // Frame it.
    let payload = w.finish();
    let mut out = Vec::with_capacity(MAGIC.len() + 16 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------
// Decode.

/// Validate one decoded per-spec list length: empty before the job is
/// submitted (or after an admission eviction reset), exactly the spec
/// count afterwards.
fn check_list_len(what: &str, got: usize, specs: usize, i: usize) -> Result<(), CheckpointError> {
    if got == 0 || got == specs {
        Ok(())
    } else {
        Err(CheckpointError::Corrupt(format!(
            "job {i}: {what} holds {got} entries, expected 0 or {specs}"
        )))
    }
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

/// Restore a framed `sapred-ckpt/v1` blob into a [`RunState`], rebuilding
/// the derived state (dispatch aggregates, interned names) and restoring
/// the oracle's opaque state. Fails with a typed [`CheckpointError`] on
/// any framing, checksum, context, or structural problem.
pub(super) fn decode<S: Scheduler>(
    sim: &Simulator<S>,
    queries: &[SimQuery],
    bytes: &[u8],
    oracle: &mut dyn DemandOracle,
) -> Result<RunState, CheckpointError> {
    // Frame.
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let rest = &bytes[MAGIC.len()..];
    if rest.len() < 16 {
        return Err(CheckpointError::Truncated);
    }
    let declared_len = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
    let declared_sum = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
    let payload = &rest[16..];
    if (payload.len() as u64) < declared_len {
        return Err(CheckpointError::Truncated);
    }
    if payload.len() as u64 > declared_len {
        return Err(corrupt(format!(
            "{} bytes after the declared payload end",
            payload.len() as u64 - declared_len
        )));
    }
    let found_sum = fnv1a(payload);
    if found_sum != declared_sum {
        return Err(CheckpointError::ChecksumMismatch { expected: declared_sum, found: found_sum });
    }

    let mut r = Reader::new(payload);
    let found_ctx = r.u64()?;
    let expected_ctx = context_fingerprint(sim, queries);
    if found_ctx != expected_ctx {
        return Err(CheckpointError::ContextMismatch { expected: expected_ctx, found: found_ctx });
    }

    let nq = queries.len();
    let nodes = sim.config.nodes;
    let containers = sim.config.total_containers();

    // Scalars.
    let now = r.f64()?;
    let events_processed = r.u64()?;
    let done_queries = r.usize()?;
    let active = r.usize()?;
    if done_queries > nq || active > nq {
        return Err(corrupt("done/active query counts exceed the workload size"));
    }
    let degraded = r.bool()?;
    let rng = StdRng::from_state(r.u64()?);
    let fault_rng = StdRng::from_state(r.u64()?);

    // Event queue.
    let queue = ArenaQueue::restore(&mut r)?;

    // Job table.
    let total: usize = queries.iter().map(|q| q.jobs.len()).sum();
    if r.usize()? != total {
        return Err(corrupt("job-table size does not match the workload shape"));
    }
    let mut jobs = JobTable::new(queries.iter().map(|q| q.jobs.len()));
    let spec_counts: Vec<(usize, usize)> = queries
        .iter()
        .flat_map(|q| q.jobs.iter().map(|j| (j.maps.len(), j.reduces.len())))
        .collect();
    for (i, &(n_maps, n_reduces)) in spec_counts.iter().enumerate() {
        jobs.submitted[i] = r.bool()?;
        jobs.submit_time[i] = r.f64()?;
        jobs.started[i] = r.opt_f64()?;
        jobs.finished[i] = r.opt_f64()?;
        let c = &mut jobs.counts[i];
        c.pending_maps = r.usize()?;
        c.running_maps = r.usize()?;
        c.done_maps = r.usize()?;
        c.pending_reduces = r.usize()?;
        c.running_reduces = r.usize()?;
        c.done_reduces = r.usize()?;
        c.next_map = r.usize()?;
        c.next_reduce = r.usize()?;
        if c.done_maps > n_maps || c.next_map > n_maps {
            return Err(corrupt(format!("job {i}: map counters exceed its {n_maps} tasks")));
        }
        if c.done_reduces > n_reduces || c.next_reduce > n_reduces {
            return Err(corrupt(format!("job {i}: reduce counters exceed its {n_reduces} tasks")));
        }
        let s = &mut jobs.stats[i];
        s.map_time_sum = r.f64()?;
        s.reduce_time_sum = r.f64()?;
        s.map_attempts_total = r.usize()?;
        s.reduce_attempts_total = r.usize()?;
        s.map_completions = r.usize()?;
        s.reduce_completions = r.usize()?;
        jobs.reduces_unlocked[i] = r.bool()?;
        jobs.reduces_initialized[i] = r.bool()?;
        let read_idx_vec = |r: &mut Reader<'_>, bound: usize, what: &str| {
            let n = r.vec_len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let x = r.usize()?;
                if x >= bound {
                    return Err(corrupt(format!("job {i}: {what} entry {x} out of range")));
                }
                v.push(x);
            }
            Ok(v)
        };
        let l_retry_maps = read_idx_vec(&mut r, n_maps.max(1), "retry_maps")?;
        let l_retry_reduces = read_idx_vec(&mut r, n_reduces.max(1), "retry_reduces")?;
        let l = &mut jobs.lists[i];
        l.retry_maps = l_retry_maps;
        l.retry_reduces = l_retry_reduces;
        let n = r.vec_len(8)?;
        check_list_len("map_attempt_no", n, n_maps, i)?;
        l.map_attempt_no = (0..n).map(|_| r.usize()).collect::<Result<_, _>>()?;
        let n = r.vec_len(8)?;
        check_list_len("reduce_attempt_no", n, n_reduces, i)?;
        l.reduce_attempt_no = (0..n).map(|_| r.usize()).collect::<Result<_, _>>()?;
        let n = r.vec_len(1)?;
        check_list_len("map_fail_since", n, n_maps, i)?;
        l.map_fail_since = (0..n).map(|_| r.opt_f64()).collect::<Result<_, _>>()?;
        let n = r.vec_len(1)?;
        check_list_len("reduce_fail_since", n, n_reduces, i)?;
        l.reduce_fail_since = (0..n).map(|_| r.opt_f64()).collect::<Result<_, _>>()?;
        let n = r.vec_len(1)?;
        check_list_len("map_node", n, n_maps, i)?;
        l.map_node = (0..n)
            .map(|_| {
                let v = r.opt_usize()?;
                if v.is_some_and(|node| node >= nodes) {
                    return Err(corrupt(format!("job {i}: map_node references a missing node")));
                }
                Ok(v)
            })
            .collect::<Result<_, _>>()?;
    }

    // Per-query state.
    let mut qstate = Vec::with_capacity(nq);
    for (qi, query) in queries.iter().enumerate() {
        let qs = QueryState {
            jobs_done: r.usize()?,
            started: r.opt_f64()?,
            finished: r.opt_f64()?,
            failed: r.bool()?,
            admitted: r.bool()?,
            resubmits: r.usize()?,
        };
        if qs.jobs_done > query.jobs.len() {
            return Err(corrupt(format!("query {qi}: jobs_done exceeds its job count")));
        }
        qstate.push(qs);
    }

    // Live prediction matrix.
    let mut preds = Vec::with_capacity(nq);
    for q in queries {
        let mut qp = Vec::with_capacity(q.jobs.len());
        for _ in 0..q.jobs.len() {
            qp.push(crate::job::JobPrediction {
                map_task_time: r.f64()?,
                reduce_task_time: r.f64()?,
            });
        }
        preds.push(qp);
    }

    // Fault state.
    let n_attempts = r.vec_len(8)?;
    let mut fr = FaultState::new(nodes, containers);
    for id in 0..n_attempts {
        let q = r.usize()?;
        let j = r.usize()?;
        let kind = match r.u8()? {
            0 => TaskKind::Map,
            1 => TaskKind::Reduce,
            k => return Err(corrupt(format!("attempt {id}: task kind {k}"))),
        };
        let spec_idx = r.usize()?;
        let slot = r.usize()?;
        let start = r.f64()?;
        let duration_bits = r.u64()?;
        let sched_end = r.f64()?;
        let attempt_no = r.usize()?;
        let speculative = r.bool()?;
        let counted = r.bool()?;
        let partner_raw = r.u32()?;
        let alive = r.bool()?;
        if q >= nq || j >= queries[q].jobs.len() {
            return Err(corrupt(format!("attempt {id}: references job {j} of query {q}")));
        }
        let n_specs = match kind {
            TaskKind::Map => queries[q].jobs[j].maps.len(),
            TaskKind::Reduce => queries[q].jobs[j].reduces.len(),
        };
        if spec_idx >= n_specs {
            return Err(corrupt(format!("attempt {id}: spec index {spec_idx} out of range")));
        }
        if slot >= containers {
            return Err(corrupt(format!("attempt {id}: container slot {slot} out of range")));
        }
        if partner_raw != NIL && partner_raw as usize >= n_attempts {
            return Err(corrupt(format!("attempt {id}: partner {partner_raw} out of range")));
        }
        fr.attempts.push(Attempt {
            q,
            j,
            kind,
            spec_idx,
            slot,
            start,
            duration_bits,
            sched_end,
            attempt_no,
            speculative,
            counted,
            partner: (partner_raw != NIL).then_some(partner_raw as usize),
            alive,
        });
    }
    for slot in 0..containers {
        let a = r.opt_usize()?;
        if a.is_some_and(|id| id >= n_attempts) {
            return Err(corrupt(format!("slot {slot}: occupying attempt out of range")));
        }
        fr.slot_attempt[slot] = a;
    }
    for n in 0..nodes {
        fr.crashed[n] = r.bool()?;
    }
    for n in 0..nodes {
        fr.blacklisted[n] = r.bool()?;
    }
    for n in 0..nodes {
        fr.node_failures[n] = r.usize()?;
    }
    for n in 0..nodes {
        fr.node_epoch[n] = r.u64()?;
    }
    fr.stats.task_failures = r.usize()?;
    fr.stats.tasks_killed = r.usize()?;
    fr.stats.node_crashes = r.usize()?;
    fr.stats.nodes_blacklisted = r.usize()?;
    fr.stats.lost_maps = r.usize()?;
    fr.stats.speculative_launches = r.usize()?;
    fr.stats.speculative_wins = r.usize()?;
    fr.stats.retries_scheduled = r.usize()?;
    fr.stats.recovery_count = r.usize()?;
    fr.stats.recovery_latency_sum = r.f64()?;
    fr.stats.recovery_latency_max = r.f64()?;
    let n = r.vec_len(8)?;
    fr.stats.failed_queries = (0..n)
        .map(|_| {
            let q = r.usize()?;
            if q >= nq {
                return Err(corrupt("failed-query id out of range"));
            }
            Ok(QueryId(q))
        })
        .collect::<Result<_, _>>()?;

    // Admission stats.
    let mut admission_stats = AdmissionStats::default();
    let read_query_vec = |r: &mut Reader<'_>| {
        let n = r.vec_len(8)?;
        (0..n)
            .map(|_| {
                let q = r.usize()?;
                if q >= nq {
                    return Err(corrupt("admission query id out of range"));
                }
                Ok(QueryId(q))
            })
            .collect::<Result<Vec<_>, _>>()
    };
    admission_stats.queries_shed = r.usize()?;
    admission_stats.queries_rejected = read_query_vec(&mut r)?;
    admission_stats.resubmissions = r.usize()?;
    admission_stats.deadline_misses = read_query_vec(&mut r)?;
    admission_stats.max_active = r.usize()?;

    // Free slots.
    let n = r.vec_len(8)?;
    let mut prev: Option<usize> = None;
    let mut free_slots: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(n);
    for _ in 0..n {
        let s = r.usize()?;
        if s >= containers {
            return Err(corrupt(format!("free slot {s} out of range")));
        }
        if prev.is_some_and(|p| p >= s) {
            return Err(corrupt("free-slot list is not strictly ascending"));
        }
        prev = Some(s);
        free_slots.push(Reverse(s));
    }

    // Oracle state.
    let oracle_blob = r.bytes()?;
    oracle
        .restore_state(oracle_blob)
        .map_err(|e| corrupt(format!("oracle state rejected: {e}")))?;
    r.expect_end()?;

    // Queued events must reference state that exists.
    for (_, seq, e) in queue.live_events() {
        if seq >= queue.seq() {
            return Err(corrupt("queued event sequence number exceeds the counter"));
        }
        let ok = match e {
            Event::Arrival { q } | Event::DeadlineCheck { q } | Event::Resubmit { q } => q < nq,
            Event::Submit { q, j } | Event::Retry { q, j, .. } => {
                q < nq && j < queries[q].jobs.len()
            }
            Event::TaskDone { attempt } | Event::TaskFailed { attempt } => attempt < n_attempts,
            Event::NodeDown { crash } => crash < sim.faults.node_crashes.len(),
            Event::NodeUp { node, .. } => node < nodes,
        };
        if !ok {
            return Err(corrupt(format!("queued event {e:?} references out-of-range state")));
        }
    }

    // Rebuild the derived state: interned names and the materialized
    // dispatch view. `resync_query` recomputes each query's aggregates and
    // runnable entries from the restored job table exactly as the engine's
    // fault-recovery path does, so the rebuilt view is bit-identical to
    // the one the snapshotted run was using.
    let names: Vec<std::sync::Arc<str>> =
        queries.iter().map(|q| std::sync::Arc::from(q.name.as_str())).collect();
    let mut dstate = DispatchState::new(nq, containers);
    for qi in 0..nq {
        dstate.resync_query(queries, &jobs, &preds, qi);
    }

    Ok(RunState {
        queue,
        jobs,
        qstate,
        preds,
        fr,
        free_slots,
        now,
        done_queries,
        active,
        degraded,
        admission_stats,
        rng,
        fault_rng,
        dstate,
        names,
        events_processed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_every_field_kind() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.usize(42);
        w.f64(-0.0);
        w.bool(true);
        w.bool(false);
        w.opt_f64(Some(f64::NAN));
        w.opt_f64(None);
        w.opt_usize(Some(9));
        w.opt_usize(None);
        w.bytes(b"abc");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert!(r.opt_f64().unwrap().unwrap().is_nan());
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.opt_usize().unwrap(), Some(9));
        assert_eq!(r.opt_usize().unwrap(), None);
        assert_eq!(r.bytes().unwrap(), b"abc");
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_bad_bools_and_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), Err(CheckpointError::Truncated));
        let mut r = Reader::new(&[9]);
        assert!(matches!(r.bool(), Err(CheckpointError::Corrupt(_))));
        let r = Reader::new(&[0]);
        assert!(matches!(r.expect_end(), Err(CheckpointError::Corrupt(_))));
        // A length that cannot fit in the remaining bytes is refused
        // before any allocation happens.
        let mut w = Writer::new();
        w.usize(u32::MAX as usize);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.vec_len(8), Err(CheckpointError::Truncated));
    }

    #[test]
    fn error_display_names_the_problem() {
        let cases: [(CheckpointError, &str); 5] = [
            (CheckpointError::BadMagic, "magic"),
            (CheckpointError::Truncated, "truncated"),
            (CheckpointError::ChecksumMismatch { expected: 1, found: 2 }, "checksum"),
            (CheckpointError::ContextMismatch { expected: 1, found: 2 }, "context"),
            (CheckpointError::Corrupt("freelist cycle".into()), "freelist cycle"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e} should mention {needle}");
        }
    }
}
