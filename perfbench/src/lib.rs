//! The repository benchmark for `sapred`.
//!
//! Four workloads drive the public API of the workspace crates from one
//! process each:
//!
//! * [`predict`] — `predict_stream`: query text → parse → analyze →
//!   compile → selectivity estimate → Eq. 8–10 prediction and WRD, one
//!   caller in a closed loop;
//! * [`sim`] — `sim_backlog` (SWRD over a deep runnable backlog) and
//!   `sim_history` (a long FIFO run with faults, speculation and periodic
//!   checkpoints);
//! * [`sweep`] — `fleet_sweep`: `sapred_bench::fleet::run_fleet` over a
//!   scheduler × fault × admission × seed grid on one worker.
//!
//! An untraced run reports the end-to-end metrics of [`metrics::END_TO_END`];
//! a traced run (`--trace 1`) times each layer from outside through the
//! wrappers in [`trace`] and reports [`metrics::PER_LAYER`]. Every run checks
//! its outputs ([`check`]) and counts mismatches as failed operations.

/// Evaluate `$body` with `$s` bound to the scheduler `$kind` names, so each
/// policy gets its own monomorphized simulation, as in `run_fleet`.
macro_rules! with_sched {
    ($kind:expr, |$s:ident| $body:expr) => {
        match $kind {
            ::sapred_bench::fleet::SchedKind::Swrd => {
                let $s = ::sapred_cluster::sched::Swrd;
                $body
            }
            ::sapred_bench::fleet::SchedKind::Hcs => {
                let $s = ::sapred_cluster::sched::Hcs;
                $body
            }
            ::sapred_bench::fleet::SchedKind::Hfs => {
                let $s = ::sapred_cluster::sched::Hfs;
                $body
            }
            ::sapred_bench::fleet::SchedKind::Fifo => {
                let $s = ::sapred_cluster::sched::Fifo;
                $body
            }
            ::sapred_bench::fleet::SchedKind::Srt => {
                let $s = ::sapred_cluster::sched::Srt;
                $body
            }
        }
    };
}

pub mod check;
pub mod metrics;
pub mod parts;
pub mod predict;
pub mod sim;
pub mod sweep;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use metrics::Values;

/// How long a run times its set-up in one go. The machine's speed drifts
/// over seconds, so on `sim_*` and `fleet_sweep` set-up is timed in windows
/// spread through the run — one before the measured phase, then one after
/// each simulation or sweep — and `setup_s` is the median of the samples
/// the windows give (and of that over the parts of an untraced run, see
/// [`parts`]).
#[derive(Debug, Clone, Copy)]
pub struct SetupWindow {
    /// Fewest set-ups in the window.
    pub reps: usize,
    /// Set-up repeats until the window has lasted at least this long.
    pub min_s: f64,
}

/// What one benchmark invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured phase; a traced run gives half of it to the
    /// untraced baseline and half to the traced phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub traced: bool,
    /// Directory for checkpoint files and the span log.
    pub out_dir: PathBuf,
}

impl Config {
    /// The deadline of a phase starting now: `seconds`, or half of it in a
    /// traced run, which measures twice.
    pub fn deadline(&self) -> Instant {
        let phase = if self.traced { self.seconds / 2.0 } else { self.seconds };
        Instant::now() + Duration::from_secs_f64(phase)
    }
}

/// What a workload hands back to `main`: its operation counts and the
/// metrics of the requested kind.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed or whose output check did not match.
    pub failed: u64,
    /// Seconds spent in measured operations (set-up windows excluded).
    pub measured_s: f64,
    /// The first checked output's fingerprint, which every other part of
    /// an untraced run must reproduce.
    pub fingerprint: Option<u64>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub values: Values,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["predict_stream", "sim_backlog", "sim_history", "fleet_sweep"];

/// Run one workload by name.
///
/// # Errors
/// An unknown workload name.
pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "predict_stream" => Ok(predict::run(cfg)),
        "sim_backlog" => Ok(sim::run(&sim::BACKLOG, cfg)),
        "sim_history" => Ok(sim::run(&sim::HISTORY, cfg)),
        "fleet_sweep" => Ok(sweep::run(cfg)),
        other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    }
}

/// The fingerprint `pins.txt` records for `workload` at `seed`: the
/// ground-truth pass of `predict_stream`, one untraced simulation, one
/// fleet sweep.
///
/// # Errors
/// An unknown workload, or a run that failed.
pub fn fingerprint(workload: &str, seed: u64) -> Result<u64, String> {
    match workload {
        "predict_stream" => {
            predict::card_mare(&predict::setup(seed, predict::MARE_TEXTS).0).map(|(_, h)| h)
        }
        "sim_backlog" => sim::fingerprint(&sim::BACKLOG, seed),
        "sim_history" => sim::fingerprint(&sim::HISTORY, seed),
        "fleet_sweep" => sweep::fingerprint(seed),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The set-up windows of `sim_*` and `fleet_sweep`. One set-up takes
/// milliseconds there, so one window's mean set-up time is one sample.
pub const SETUP_WINDOW: SetupWindow = SetupWindow { reps: 3, min_s: 0.1 };

/// The window before the measured phase of `predict_stream`. One set-up
/// takes about 0.4 s there, so each set-up is a sample of its own.
pub const SETUP_PREDICT: SetupWindow = SetupWindow { reps: 3, min_s: 0.0 };

/// Repeat a set-up for one `window`. `once` returns what it built and its
/// timings; the last build is kept (each earlier one is dropped before the
/// next starts) along with every repetition's timings.
pub fn repeat_setup<T, M>(window: SetupWindow, mut once: impl FnMut() -> (T, M)) -> (T, Vec<M>) {
    let start = Instant::now();
    let (mut built, mut times) = (None, Vec::new());
    while times.len() < window.reps || secs(start) < window.min_s {
        drop(built.take());
        let (b, t) = once();
        built = Some(b);
        times.push(t);
    }
    (built.expect("set up at least once"), times)
}

/// Run `f`, turning a panic into an error, so a panicking operation is
/// counted as failed instead of ending the run without a result line.
pub fn unpanic<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into()))
    })
}

/// Hand the heap's free pages back to the system (glibc `malloc_trim`), so
/// what a process allocates next, and so its peak RSS, does not depend on
/// how earlier work fragmented the heap. A no-op elsewhere.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases memory
        // the allocator holds free.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
