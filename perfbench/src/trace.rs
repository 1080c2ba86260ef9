//! In-memory spans and the timing wrappers a traced run puts around each
//! layer's public entry points.
//!
//! Spans carry a name, start and end (ns since the log was created), the id
//! of the span that caused them, and a run id shared by every span of one
//! operation. They stay in memory and are written out once, when the run
//! ends. Past [`SPAN_CAP`] spans only the per-name totals keep growing.
//!
//! [`TimedScheduler`] and [`TimedOracle`] forward every method unchanged to
//! the wrapped policy or oracle. They count every call and read the clock
//! on every [`SAMPLE_EVERY`]-th one only: one clock read costs tens of ns,
//! which would otherwise be a visible share of a cheap pick.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use sapred_cluster::job::{JobPrediction, SimJob};
use sapred_cluster::sched::{RunnableJob, Scheduler, TaskChoice};
use sapred_cluster::{DemandOracle, QuarantineRecord, QueryId};

/// The wrappers time one call in this many.
pub const SAMPLE_EVERY: u64 = 16;

/// Spans kept in memory per run of the benchmark.
pub const SPAN_CAP: usize = 1 << 17;

/// Parent id of a root span (and the id of a span past the cap).
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `query.parse`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Id of the causing span, or [`NO_SPAN`].
    pub parent: u32,
    /// Operation (query, simulation, sweep) the span belongs to.
    pub run: u32,
}

/// Per-name count and summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans recorded under the name.
    pub count: u64,
    /// Their summed duration, ns.
    pub ns: u64,
}

impl Total {
    /// Summed duration in seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// The in-memory span store of one benchmark run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, Total>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), dropped: 0, totals: BTreeMap::new() }
    }

    /// Record a span that ran from `start` to `end`; returns its id
    /// ([`NO_SPAN`] once the log is full — the totals still count it).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        run: u32,
    ) -> u32 {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let total = self.totals.entry(name).or_default();
        total.count += 1;
        total.ns += end_ns - start_ns;
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return NO_SPAN;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, run });
        (self.spans.len() - 1) as u32
    }

    /// Open a span that its children will name as their parent; finish it
    /// with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, run: u32) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, run)
    }

    /// Give a span opened with [`SpanLog::open`] its real extent.
    pub fn close(&mut self, id: u32, name: &'static str, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        // `open` counted a zero-length span; add the real length.
        self.totals.entry(name).or_default().ns += end_ns - start_ns;
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
    }

    /// Count and summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The spans kept in memory.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines, one per span, then one line of
    /// per-name totals.
    ///
    /// # Errors
    /// Any I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) },
                s.run
            )?;
        }
        let totals: Vec<String> = self
            .totals
            .iter()
            .map(|(n, t)| format!("\"{n}\":{{\"count\":{},\"ns\":{}}}", t.count, t.ns))
            .collect();
        writeln!(out, "{{\"totals\":{{{}}},\"dropped\":{}}}", totals.join(","), self.dropped)?;
        out.flush()
    }
}

/// A shared span log, for wrappers owned by the engine.
pub type SharedLog = Rc<RefCell<SpanLog>>;

/// Where a wrapper records its sampled spans.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    /// The log.
    pub log: SharedLog,
    /// Span the wrapped calls hang under (the simulation's root).
    pub parent: u32,
    /// Run id of that simulation.
    pub run: u32,
}

impl TraceCtx {
    fn record(&self, name: &'static str, start: Instant, end: Instant) {
        self.log.borrow_mut().record(name, start, end, self.parent, self.run);
    }
}

/// Counts of a [`TimedScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PickStats {
    /// `pick` calls.
    pub picks: u64,
    /// Picks that returned a job.
    pub hits: u64,
    /// Candidates offered over all picks (every one is scanned by today's
    /// linear-scan policies).
    pub candidates: u64,
    /// Picks whose duration was measured.
    pub timed: u64,
    /// Their summed duration, ns.
    pub timed_ns: u64,
}

/// Scale a sampled duration up to all `calls`.
fn extrapolate(timed_ns: u64, timed: u64, calls: u64) -> f64 {
    if timed == 0 {
        0.0
    } else {
        timed_ns as f64 / timed as f64 * calls as f64 / 1e9
    }
}

impl std::ops::AddAssign for PickStats {
    fn add_assign(&mut self, o: Self) {
        self.picks += o.picks;
        self.hits += o.hits;
        self.candidates += o.candidates;
        self.timed += o.timed;
        self.timed_ns += o.timed_ns;
    }
}

impl PickStats {
    /// Estimated seconds spent in `pick`, from the timed sample.
    pub fn est_secs(&self) -> f64 {
        extrapolate(self.timed_ns, self.timed, self.picks)
    }
}

/// A [`Scheduler`] that forwards to `inner` and counts (and samples the
/// duration of) every pick.
#[derive(Debug)]
pub struct TimedScheduler<S> {
    inner: S,
    /// What the wrapper saw so far.
    pub stats: PickStats,
    ctx: TraceCtx,
}

impl<S: Scheduler> TimedScheduler<S> {
    /// Wrap `inner`; sampled picks become spans on `ctx`.
    pub fn new(inner: S, ctx: TraceCtx) -> Self {
        Self { inner, stats: PickStats::default(), ctx }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        self.stats.picks += 1;
        self.stats.candidates += runnable.len() as u64;
        let choice = if self.stats.picks.is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            let choice = self.inner.pick(runnable);
            let end = Instant::now();
            self.stats.timed += 1;
            self.stats.timed_ns += end.duration_since(start).as_nanos() as u64;
            self.ctx.record("sched.pick", start, end);
            choice
        } else {
            self.inner.pick(runnable)
        };
        self.stats.hits += u64::from(choice.is_some());
        choice
    }

    fn score(&self, job: &RunnableJob) -> f64 {
        self.inner.score(job)
    }
}

/// Counts of a [`TimedOracle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// `predict` calls.
    pub predicts: u64,
    /// `observe_job_done` calls.
    pub observes: u64,
    /// `snapshot_state` calls: the engine makes one per checkpoint it
    /// encodes.
    pub snapshots: u64,
    /// Predict calls whose duration was measured.
    pub timed: u64,
    /// Their summed duration, ns.
    pub timed_ns: u64,
}

impl std::ops::AddAssign for OracleStats {
    fn add_assign(&mut self, o: Self) {
        self.predicts += o.predicts;
        self.observes += o.observes;
        self.snapshots += o.snapshots;
        self.timed += o.timed;
        self.timed_ns += o.timed_ns;
    }
}

impl OracleStats {
    /// Every call into the oracle's prediction and feedback hooks.
    pub fn calls(&self) -> u64 {
        self.predicts + self.observes
    }

    /// Estimated seconds spent in `predict`, from the timed sample.
    pub fn est_secs(&self) -> f64 {
        extrapolate(self.timed_ns, self.timed, self.predicts)
    }
}

/// A [`DemandOracle`] that forwards every hook to `inner` and counts (and
/// samples the duration of) its calls.
#[derive(Debug)]
pub struct TimedOracle<O> {
    inner: O,
    stats: OracleStats,
    /// `snapshot_state` takes `&self`, so its count lives apart.
    snapshots: Cell<u64>,
    ctx: TraceCtx,
}

impl<O: DemandOracle> TimedOracle<O> {
    /// Wrap `inner`; sampled predictions become spans on `ctx`.
    pub fn new(inner: O, ctx: TraceCtx) -> Self {
        Self { inner, stats: OracleStats::default(), snapshots: Cell::new(0), ctx }
    }

    /// What the wrapper saw so far.
    pub fn stats(&self) -> OracleStats {
        OracleStats { snapshots: self.snapshots.get(), ..self.stats }
    }
}

impl<O: DemandOracle> DemandOracle for TimedOracle<O> {
    fn predict(&mut self, query: QueryId, job: &SimJob) -> JobPrediction {
        self.stats.predicts += 1;
        if !self.stats.predicts.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.predict(query, job);
        }
        let start = Instant::now();
        let prediction = self.inner.predict(query, job);
        let end = Instant::now();
        self.stats.timed += 1;
        self.stats.timed_ns += end.duration_since(start).as_nanos() as u64;
        self.ctx.record("oracle.predict", start, end);
        prediction
    }

    fn observe_job_done(
        &mut self,
        query: QueryId,
        job: &SimJob,
        actual: JobPrediction,
        t: f64,
    ) -> bool {
        self.stats.observes += 1;
        self.inner.observe_job_done(query, job, actual, t)
    }

    fn trust(&self) -> f64 {
        self.inner.trust()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn take_quarantines(&mut self) -> Vec<QuarantineRecord> {
        self.inner.take_quarantines()
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.snapshots.set(self.snapshots.get() + 1);
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_past_the_cap_still_count() {
        let mut log = SpanLog::new();
        let t = Instant::now();
        for _ in 0..SPAN_CAP + 3 {
            log.record("x", t, t, NO_SPAN, 0);
        }
        assert_eq!(log.spans().len(), SPAN_CAP);
        assert_eq!(log.total("x").count, (SPAN_CAP + 3) as u64);
        assert_eq!(log.record("x", t, t, NO_SPAN, 0), NO_SPAN);
    }

    #[test]
    fn open_span_is_named_before_its_children() {
        let mut log = SpanLog::new();
        let start = Instant::now();
        let root = log.open("run", NO_SPAN, 7);
        let child = log.record("child", start, Instant::now(), root, 7);
        log.close(root, "run", start, Instant::now());
        assert_eq!(log.spans()[child as usize].parent, root);
        assert_eq!(log.spans()[root as usize].run, 7);
        assert_eq!(log.total("run").count, 1);
    }

    #[test]
    fn extrapolation_scales_the_sample() {
        let s = PickStats { picks: 160, hits: 0, candidates: 0, timed: 10, timed_ns: 1_000 };
        assert!((s.est_secs() - 16e-6).abs() < 1e-12);
        assert_eq!(PickStats::default().est_secs(), 0.0);
    }
}
