//! Process-global hot-path metrics for the annealer and worker pool.
//!
//! The SA inner loop and the pool's task plumbing cannot thread an
//! `Arc<Registry>` through their (deliberately `Copy`) option structs
//! without changing public APIs, so their instrumentation lands in
//! `const`-initialized statics instead. Everything here is cumulative
//! over the process lifetime and monotone; consumers (the service's
//! `metrics` op, `telemetry_bench`) report values, never reset them —
//! assertions against these metrics should therefore check deltas or
//! monotonicity, not absolute counts.
//!
//! The annealer records its per-run aggregates **once at the end of a
//! run** (a handful of relaxed adds per `simulated_annealing` call),
//! never inside the sweep loop: the hot path itself stays untouched,
//! which is how solver output stays bit-identical with telemetry on or
//! off (property-tested in `tests/telemetry_identity.rs`).

use crate::counter::Counter;
use crate::events::EventLog;
use crate::hist::Histogram;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Completed simulated-annealing driver invocations (full or delta).
/// Each invocation is one *restart* in the paper's restart-TTS sense
/// (Fig. 10): solvers reach a target confidence by re-running the
/// annealer under fresh seeds, and this counts those re-runs.
pub static SA_RUNS: Counter = Counter::new();
/// Total SA sweeps (iterations) across all runs.
pub static SA_SWEEPS: Counter = Counter::new();
/// Total accepted Metropolis moves across all runs.
pub static SA_ACCEPTS: Counter = Counter::new();

/// Tasks executed by `fan_out_ordered` workers.
pub static POOL_TASKS: Counter = Counter::new();
/// Per-task execution time, nanoseconds.
pub static POOL_TASK_NS: Histogram = Histogram::new();
/// Time a finished item waited before the in-order fold consumed it,
/// nanoseconds — the reorder-window backpressure signal.
pub static POOL_FOLD_WAIT_NS: Histogram = Histogram::new();

/// Per-worker slots for fold contributions (worker index mod 64).
const WORKER_SLOTS: usize = 64;
static WORKER_FOLDS: [AtomicU64; WORKER_SLOTS] = [const { AtomicU64::new(0) }; WORKER_SLOTS];
/// High-water mark of worker indices seen (bounds the snapshot).
static WORKER_SEEN: AtomicUsize = AtomicUsize::new(0);

/// Credits one folded item to `worker`.
#[inline]
pub fn record_worker_fold(worker: usize) {
    WORKER_FOLDS[worker % WORKER_SLOTS].fetch_add(1, Ordering::Relaxed);
    WORKER_SEEN.fetch_max((worker % WORKER_SLOTS) + 1, Ordering::Relaxed);
}

/// Fold contributions per worker index, trimmed to the highest worker
/// seen (empty when the pool never ran).
#[must_use]
pub fn worker_folds() -> Vec<u64> {
    let seen = WORKER_SEEN.load(Ordering::Relaxed).min(WORKER_SLOTS);
    WORKER_FOLDS[..seen]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect()
}

/// Sampled SA energy-trajectory trace (kind `"sa_energy"`); fed only
/// when [`sa_trace_interval`] is nonzero.
pub static SA_TRACE: EventLog = EventLog::new(1024);

/// Sweep-sampling interval for the energy trace; 0 disables tracing.
static SA_TRACE_INTERVAL: AtomicU64 = AtomicU64::new(0);

/// Sets the energy-trace sampling interval (record every `n`-th sweep;
/// 0 turns the trace off). Drivers read this **once per run**, so a
/// mid-run change applies from the next run.
pub fn set_sa_trace_interval(n: u64) {
    SA_TRACE_INTERVAL.store(n, Ordering::Relaxed);
}

/// Current energy-trace sampling interval (0 = off).
#[must_use]
pub fn sa_trace_interval() -> u64 {
    SA_TRACE_INTERVAL.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_folds_trim_to_high_water_mark() {
        // Slots well above anything the pool uses in-process, so this
        // test stays independent of other tests exercising the pool.
        record_worker_fold(57);
        record_worker_fold(57);
        record_worker_fold(59);
        let folds = worker_folds();
        assert!(folds.len() >= 60);
        assert!(folds[57] >= 2);
        assert!(folds[59] >= 1);
    }

    #[test]
    fn trace_interval_round_trips() {
        // Restore 0 so concurrent tests never see tracing enabled.
        set_sa_trace_interval(8);
        assert_eq!(sa_trace_interval(), 8);
        set_sa_trace_interval(0);
        assert_eq!(sa_trace_interval(), 0);
    }
}
