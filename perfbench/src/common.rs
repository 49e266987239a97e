//! Pieces every workload shares: the per-workload result, the timed
//! solver wrapper, the process-global hot counters, the daemon's
//! `metrics` op, and the output digest.

use crate::trace::{Span, SpanId, Tracer};
use cnash_core::certificate::Certificate;
use cnash_core::experiment::ReportAccumulator;
use cnash_core::{NashSolver, RunOutcome};
use cnash_game::canonical::Hasher64;
use cnash_game::{BimatrixGame, Game};
use cnash_runtime::spec::GameSpec;
use cnash_runtime::Json;
use cnash_telemetry::hot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Shortest set-up time, s.
    pub setup_s: f64,
    /// Operations per second over the timed phase.
    pub ops_per_s: f64,
    /// Per-operation latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// When the latency samples were taken (start, end).
    pub latency_window: Option<(Instant, Instant)>,
    /// When the throughput was measured (start, end).
    pub rate_window: Option<(Instant, Instant)>,
    /// C-Nash success rate on the workload's games, %.
    pub success_pct: f64,
    /// C-Nash TTS99 in simulated time, µs.
    pub sim_tts99_us: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check, errored or were dropped.
    pub failed: u64,
    /// Digest of the deterministic outputs.
    pub digest: u64,
    /// Games the traced run's layer probe should use.
    pub probe_games: Vec<GameSpec>,
}

/// Inputs of one workload run.
pub struct Ctx<'a> {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time, s.
    pub seconds: f64,
    /// How many times set-up runs (the median is reported).
    pub setups: usize,
    /// Span recorder (disabled in the untraced run).
    pub tracer: &'a Tracer,
}

/// Worker threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `setup` `n` times, tearing down every result but the last, and
/// returns that one with the shortest set-up time. The shared host has
/// slow spells that stretch set-up far more than the timed loops (see
/// `speed.rs`); the shortest of many set-ups is the one no spell hit.
pub fn timed_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut shortest = f64::INFINITY;
    let mut last = None;
    for _ in 0..n.max(1) {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let start = Instant::now();
        last = Some(setup());
        shortest = shortest.min(start.elapsed().as_secs_f64());
    }
    (last.expect("ran at least once"), shortest)
}

/// Re-verifies a run's claimed equilibrium through an independently
/// built certificate; `true` when the claim (if any) holds.
pub fn claim_holds(game: &BimatrixGame, out: &RunOutcome) -> bool {
    if !out.is_equilibrium {
        return true;
    }
    match out.pair() {
        Some((p, q)) => Certificate::build(game, p.clone(), q.clone(), ReportAccumulator::TOL)
            .is_ok_and(|c| c.is_valid()),
        None => false,
    }
}

/// A solver wrapper that times every run from outside, records a span
/// under `span` (child of `parent`), and re-verifies claimed hits.
pub struct Timed<'a> {
    /// The wrapped solver.
    pub inner: &'a dyn NashSolver,
    /// Its bimatrix game (for verification).
    pub game: &'a BimatrixGame,
    /// Span name of one run.
    pub span: &'static str,
    /// Parent span (the batch).
    pub parent: Option<SpanId>,
    /// Request (batch) id.
    pub req: u64,
    /// Recorder.
    pub tracer: &'a Tracer,
    /// Per-run wall times, ms.
    pub latencies_ms: &'a Mutex<Vec<f64>>,
    /// Runs whose claimed equilibrium failed verification.
    pub bad_claims: &'a AtomicU64,
}

impl NashSolver for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn game(&self) -> &dyn Game {
        self.inner.game()
    }

    fn run(&self, seed: u64) -> RunOutcome {
        let start = Instant::now();
        let out = self.inner.run(seed);
        let end = Instant::now();
        self.latencies_ms
            .lock()
            .expect("latency log poisoned")
            .push(end.duration_since(start).as_secs_f64() * 1e3);
        self.tracer.record(Span {
            name: self.span,
            start_ns: self.tracer.ns_at(start),
            end_ns: self.tracer.ns_at(end),
            parent: self.parent,
            req: self.req,
            count: 1,
        });
        let ok = if self.tracer.enabled() {
            self.tracer
                .time("core.verify", self.parent, self.req, 1, || {
                    claim_holds(self.game, &out)
                })
        } else {
            claim_holds(self.game, &out)
        };
        if !ok {
            self.bad_claims.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// A snapshot of the process-global annealer and pool counters.
#[derive(Debug, Clone, Copy)]
pub struct Hot {
    sa_runs: u64,
    sa_sweeps: u64,
    sa_accepts: u64,
    task_count: u64,
    task_sum_ns: u64,
    wait_count: u64,
    wait_sum_ns: u64,
}

impl Hot {
    /// Reads the counters now.
    pub fn now() -> Hot {
        let task = hot::POOL_TASK_NS.snapshot();
        let wait = hot::POOL_FOLD_WAIT_NS.snapshot();
        Hot {
            sa_runs: hot::SA_RUNS.get(),
            sa_sweeps: hot::SA_SWEEPS.get(),
            sa_accepts: hot::SA_ACCEPTS.get(),
            task_count: task.count,
            task_sum_ns: task.sum,
            wait_count: wait.count,
            wait_sum_ns: wait.sum,
        }
    }

    /// Annealer sweeps since `before`.
    pub fn sweeps_since(&self, before: &Hot) -> u64 {
        self.sa_sweeps - before.sa_sweeps
    }

    /// Pool task time (ns) since `before`.
    pub fn task_ns_since(&self, before: &Hot) -> u64 {
        self.task_sum_ns - before.task_sum_ns
    }

    /// Sets the annealer and pool layer values from the deltas since
    /// `before`. `sa_time_ns` is the time spent annealing, when known.
    pub fn record_since(&self, before: &Hot, sa_time_ns: Option<f64>, tracer: &Tracer) {
        let runs = self.sa_runs - before.sa_runs;
        let sweeps = self.sweeps_since(before);
        if runs > 0 && sweeps > 0 {
            tracer.set("anneal.iters_per_run", sweeps as f64 / runs as f64);
            tracer.set(
                "anneal.accept_ratio",
                (self.sa_accepts - before.sa_accepts) as f64 / sweeps as f64,
            );
            if let Some(ns) = sa_time_ns {
                tracer.set("anneal.ns_per_iter", ns / sweeps as f64);
            }
        }
        let tasks = self.task_count - before.task_count;
        if tasks > 0 {
            tracer.set(
                "runtime.pool_task_us",
                self.task_ns_since(before) as f64 / tasks as f64 / 1e3,
            );
        }
        let waits = self.wait_count - before.wait_count;
        if waits > 0 {
            tracer.set(
                "runtime.fold_wait_us",
                (self.wait_sum_ns - before.wait_sum_ns) as f64 / waits as f64 / 1e3,
            );
        }
    }
}

/// The daemon counters the benchmark reads through the `metrics` op.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonCounters {
    cache_hits: u64,
    cache_misses: u64,
    steals: u64,
    jobs: u64,
    stalls: u64,
    op_solve_p50_ns: f64,
}

impl DaemonCounters {
    /// Fetches the counters over a fresh connection.
    ///
    /// # Errors
    ///
    /// Connection errors or a malformed response.
    pub fn fetch(addr: std::net::SocketAddr) -> Result<DaemonCounters, String> {
        let mut conn =
            cnash_bench::client::ServiceConn::connect(addr).map_err(|e| e.to_string())?;
        let line = conn
            .round_trip(r#"{"op":"metrics","id":"metrics"}"#)
            .map_err(|e| e.to_string())?;
        let doc = Json::parse(&line).map_err(|e| e.to_string())?;
        let metrics = doc.get("metrics").map_err(|e| e.to_string())?;
        let counter = |name: &str| {
            metrics
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(DaemonCounters {
            cache_hits: counter("cache_instance_hits"),
            cache_misses: counter("cache_instance_misses"),
            steals: counter("sched_steals"),
            jobs: counter("sched_jobs_executed"),
            stalls: counter("conn_backpressure_stalls"),
            op_solve_p50_ns: metrics
                .get("histograms")
                .and_then(|h| h.get("op_solve_ns"))
                .and_then(|h| h.get("p50_ns"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        })
    }

    /// Sets the daemon layer values from the deltas since `before`
    /// (the `op_solve_ns` p50 is the daemon's lifetime histogram).
    pub fn record_since(&self, before: &DaemonCounters, tracer: &Tracer) {
        let ratio = |hit: u64, miss: u64| {
            let total = hit + miss;
            (total > 0).then(|| hit as f64 / total as f64)
        };
        if let Some(r) = ratio(
            self.cache_hits - before.cache_hits,
            self.cache_misses - before.cache_misses,
        ) {
            tracer.set("cache.hit_ratio", r);
        }
        tracer.set("sched.steals", (self.steals - before.steals) as f64);
        tracer.set("sched.jobs_executed", (self.jobs - before.jobs) as f64);
        tracer.set(
            "conn.backpressure_stalls",
            (self.stalls - before.stalls) as f64,
        );
        tracer.set("service.op_solve_p50_us", self.op_solve_p50_ns / 1e3);
    }
}

/// Accumulates the deterministic outputs of a run into one digest.
#[derive(Debug, Default)]
pub struct Digest(Hasher64);

impl Digest {
    /// Adds one output record.
    pub fn add(&mut self, record: &str) {
        self.0.write_str(record);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}
