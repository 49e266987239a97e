//! The scheduler behind the service: one FIFO job queue served by a
//! fixed set of worker threads.
//!
//! Every solve job is pushed onto one shared [`WorkQueue`] (the pool
//! primitive from `cnash-runtime`), and each of the `S` workers pops
//! the oldest queued job whenever it is idle. So a job never waits
//! behind a long one while another worker sits idle. The queue's mutex
//! is held only to push or pop one job, far shorter than a solve (the
//! daemon-side `op_solve_ns` p50 under `service_load` is ~250 µs), so
//! the workers do not contend on it.
//!
//! Jobs are opaque closures: response ordering is the connection
//! layer's concern (each job sends its result into the connection's
//! reorder buffer), which keeps the scheduler deterministic-agnostic —
//! any worker interleaving yields the same per-connection output.
//!
//! Shutdown closes the queue; workers finish the jobs already running,
//! drain what was queued (each queued job observes the cancelled token
//! and reports a cancelled batch quickly) and exit.

use cnash_runtime::pool::effective_threads;
use cnash_runtime::WorkQueue;
use cnash_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of scheduled work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued job and, when telemetry is enabled, the instant it was
/// pushed.
struct Queued {
    job: Job,
    pushed: Option<Instant>,
}

/// Telemetry handles shared by the submit path and every worker.
///
/// The depth gauge counts jobs *queued but not yet started*: `inc` on
/// a successful push, `dec` the moment a worker pops the job. `wait`
/// records each job's time from push to pop; `executed` counts the
/// jobs workers have run, bumped as each one starts: a job delivers its
/// own response before it returns, so a count taken after the run could
/// lag a `stats` or `metrics` reply that follows that response.
#[derive(Debug)]
struct SchedTelemetry {
    depth: Arc<Gauge>,
    wait: Arc<Histogram>,
    executed: Arc<Counter>,
}

/// One job queue served by a fixed set of worker threads.
pub struct Scheduler {
    queue: Arc<WorkQueue<Queued>>,
    workers: Vec<JoinHandle<()>>,
    telemetry: Arc<SchedTelemetry>,
}

impl Scheduler {
    /// Spawns `shards` workers (`0` = one per available core) over one
    /// job queue. Its instruments live in `registry` under the stable
    /// names `sched_queue_depth`, `sched_queue_wait_ns` and
    /// `sched_jobs_executed`.
    pub fn new(shards: usize, registry: &Registry) -> Self {
        let telemetry = Arc::new(SchedTelemetry {
            depth: registry.gauge("sched_queue_depth"),
            wait: registry.histogram("sched_queue_wait_ns"),
            executed: registry.counter("sched_jobs_executed"),
        });
        let queue = Arc::new(WorkQueue::new());
        let workers = (0..effective_threads(shards))
            .map(|me| {
                let queue = Arc::clone(&queue);
                let telemetry = Arc::clone(&telemetry);
                std::thread::Builder::new()
                    .name(format!("cnash-worker-{me}"))
                    .spawn(move || worker_loop(&queue, &telemetry))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self {
            queue,
            workers,
            telemetry,
        }
    }

    /// Number of workers.
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Total jobs run by the workers, each counted as it starts.
    pub fn jobs_executed(&self) -> u64 {
        self.telemetry.executed.get()
    }

    /// Queues a job for the next idle worker.
    ///
    /// # Errors
    ///
    /// Returns the job back if the scheduler is shut down.
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        // Gauge up *before* the push: a worker may pop the job
        // immediately, and its `dec` must never observe the gauge
        // before our `inc` (the depth would transiently read −1).
        self.telemetry.depth.inc();
        let pushed = cnash_telemetry::enabled().then(Instant::now);
        self.queue.push(Queued { job, pushed }).map_err(|queued| {
            self.telemetry.depth.dec();
            queued.job
        })
    }

    /// Closes the queue and joins the workers once queued work has
    /// drained.
    pub fn shutdown(self) {
        self.queue.close();
        for w in self.workers {
            w.join().expect("scheduler worker panicked");
        }
    }
}

/// Runs one job with panic isolation: a panicking job must not kill
/// its worker — the daemon would lose that worker for good, and with
/// one worker every later job would hang in the queue. The job's own
/// response-channel send is lost on panic; the connection layer guards
/// against that with its own `catch_unwind` around the solve.
fn run_isolated(job: Job) {
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
        eprintln!("cnash-service: a scheduled job panicked; worker continues");
    }
}

fn worker_loop(queue: &WorkQueue<Queued>, telemetry: &SchedTelemetry) {
    while let Some(Queued { job, pushed }) = queue.pop() {
        telemetry.depth.dec();
        if let Some(pushed) = pushed {
            telemetry
                .wait
                .record(u64::try_from(pushed.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        telemetry.executed.inc();
        run_isolated(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_everything_across_shards() {
        let sched = Scheduler::new(3, &Registry::new());
        assert_eq!(sched.shard_count(), 3);
        let (tx, rx) = mpsc::channel();
        for k in 0..50usize {
            let tx = tx.clone();
            sched
                .submit(Box::new(move || tx.send(k).unwrap()))
                .unwrap_or_else(|_| panic!("open scheduler accepts work"));
        }
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        sched.shutdown();
    }

    #[test]
    fn slow_jobs_do_not_hold_up_the_queue_behind_them() {
        // Every fourth job is slow; everything queued behind one must
        // still complete on the other workers.
        let sched = Scheduler::new(4, &Registry::new());
        let (tx, rx) = mpsc::channel();
        for k in 0..16usize {
            let tx = tx.clone();
            sched
                .submit(Box::new(move || {
                    if k % 4 == 0 {
                        std::thread::sleep(Duration::from_millis(40));
                    }
                    tx.send(k).unwrap();
                }))
                .unwrap_or_else(|_| panic!("open scheduler accepts work"));
        }
        drop(tx);
        let mut count = 0;
        while rx.recv_timeout(Duration::from_secs(5)).is_ok() {
            count += 1;
        }
        assert_eq!(count, 16);
        sched.shutdown();
    }

    #[test]
    fn an_idle_worker_starts_the_next_job_at_once() {
        // Job A pins one of two workers. Once job B has finished, the
        // other worker is idle, so job C must start at once, never
        // queued behind A. The minimum over five tries keeps a
        // descheduled test thread from failing the assertion.
        let sched = Scheduler::new(2, &Registry::new());
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let (started_tx, started) = mpsc::channel::<Instant>();
            let (release_a, a_gate) = mpsc::channel::<()>();
            let a_started = started_tx.clone();
            sched
                .submit(Box::new(move || {
                    a_started.send(Instant::now()).unwrap();
                    a_gate.recv().unwrap();
                }))
                .unwrap_or_else(|_| panic!("open scheduler accepts work"));
            started.recv().unwrap();
            let (b_done_tx, b_done) = mpsc::channel();
            sched
                .submit(Box::new(move || b_done_tx.send(()).unwrap()))
                .unwrap_or_else(|_| panic!("open scheduler accepts work"));
            b_done.recv().unwrap();
            let submitted = Instant::now();
            sched
                .submit(Box::new(move || started_tx.send(Instant::now()).unwrap()))
                .unwrap_or_else(|_| panic!("open scheduler accepts work"));
            let c_started = started.recv_timeout(Duration::from_secs(10)).unwrap();
            best = best.min(c_started.saturating_duration_since(submitted));
            release_a.send(()).unwrap();
        }
        assert!(
            best < Duration::from_millis(10),
            "job C waited {best:?} with a worker idle"
        );
        sched.shutdown();
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_shard() {
        let sched = Scheduler::new(1, &Registry::new()); // one worker: it must survive
        let (tx, rx) = mpsc::channel();
        sched
            .submit(Box::new(|| panic!("job blew up")))
            .unwrap_or_else(|_| panic!("open scheduler accepts work"));
        sched
            .submit(Box::new(move || tx.send(42u32).unwrap()))
            .unwrap_or_else(|_| panic!("open scheduler accepts work"));
        // The job after the panicking one still runs on the same worker.
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(42));
        sched.shutdown(); // and shutdown joins cleanly (no poisoned worker)
    }

    #[test]
    fn telemetry_accounts_for_every_job_and_settles_to_empty_queues() {
        let registry = Registry::new();
        let sched = Scheduler::new(2, &registry);
        let (tx, rx) = mpsc::channel();
        for k in 0..20usize {
            let tx = tx.clone();
            sched
                .submit(Box::new(move || tx.send(k).unwrap()))
                .unwrap_or_else(|_| panic!("open scheduler accepts work"));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 20);
        assert!(sched.jobs_executed() <= 20);
        sched.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sched_jobs_executed"], 20);
        // One queue-wait sample per executed job.
        assert_eq!(snap.histograms["sched_queue_wait_ns"].count, 20);
        // Every queued job was consumed: the depth gauge settles at 0.
        assert_eq!(snap.gauges["sched_queue_depth"], 0);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let sched = Scheduler::new(2, &Registry::new());
        let (tx, rx) = mpsc::channel();
        for k in 0..8usize {
            let tx = tx.clone();
            sched
                .submit(Box::new(move || tx.send(k).unwrap()))
                .unwrap_or_else(|_| panic!("open scheduler accepts work"));
        }
        drop(tx);
        sched.shutdown();
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>(), "queued work drained");
    }
}
