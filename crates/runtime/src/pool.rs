//! Self-scheduling worker pool with ordered, cancellable delivery.
//!
//! The pool fans an indexed set of independent work items across OS
//! threads. Idle workers claim the next unclaimed index from a shared
//! atomic counter (self-scheduling — the degenerate but optimal form of
//! work stealing for independent equal-right items), so load balances
//! automatically however long individual items run. At one thread the
//! items run on the calling thread: no thread is spawned and no channel
//! is built.
//!
//! Results are delivered to the caller's sink **in index order**
//! regardless of completion order, which is what makes downstream
//! floating-point aggregation bit-identical at any thread count.

use std::collections::{BTreeMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// A cooperative cancellation flag shared between the scheduler, its
/// workers, and — for portfolios — sibling jobs.
///
/// Tokens form a hierarchy: [`CancelToken::child`] derives a token that
/// observes its parent's cancellation but whose own [`cancel`]
/// (triggered, e.g., by a batch's verified early stop) never propagates
/// *upward*. A long-running service hands every batch a child of its
/// shutdown token: shutdown still cancels every in-flight batch, while
/// one batch stopping early cannot leak cancellation into unrelated
/// jobs sharing the root.
///
/// [`cancel`]: CancelToken::cancel
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Box<CancelToken>>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled root token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives a child token: cancelled when either its own
    /// [`CancelToken::cancel`] fires or any ancestor cancels; its own
    /// cancellation is invisible to the parent and to siblings.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Box::new(self.clone())),
        }
    }

    /// Broadcasts cancellation to every holder of this token and to its
    /// descendants (never to ancestors).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested here or on an ancestor.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

#[derive(Debug)]
struct WorkQueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking FIFO queue shared by a fixed set of workers — the
/// service scheduler's job queue.
///
/// Workers block on [`WorkQueue::pop`] and take the oldest item first.
/// [`WorkQueue::close`] wakes every blocked worker so the workers can
/// drain and exit on shutdown; items already queued at close time
/// remain poppable (drain semantics), only new pushes are refused.
#[derive(Debug)]
pub struct WorkQueue<T> {
    state: Mutex<WorkQueueState<T>>,
    cv: Condvar,
}

impl<T> WorkQueue<T> {
    /// Creates an empty, open queue.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(WorkQueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues an item at the back and wakes one blocked worker.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("work queue poisoned");
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        self.cv.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    ///
    /// Returns `None` once the queue is closed *and* drained. A closed
    /// queue with items left keeps handing them out.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("work queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).expect("work queue poisoned");
        }
    }

    /// Closes the queue: further pushes fail, blocked workers wake, and
    /// already-queued items remain consumable until drained.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("work queue poisoned");
        state.closed = true;
        self.cv.notify_all();
    }
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Picks a worker count: the explicit request, clamped to at least one
/// thread, or all available cores when `requested` is 0.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Executes `work(0..total)` on `threads` workers, delivering results to
/// `sink` in strict index order.
///
/// `sink` returning [`ControlFlow::Break`] stops the batch: the token is
/// cancelled, workers stop claiming new indices, and any result with a
/// higher index is discarded. Because delivery is in index order, every
/// index below the break point has already been delivered — the caller
/// observes a deterministic prefix `0..=k` of the work, independent of
/// thread count and scheduling.
///
/// An externally cancelled `cancel` token likewise stops claiming; the
/// sink then sees some prefix of the work (deterministic in length only
/// for a given interleaving — external cancellation is inherently
/// timing-dependent).
///
/// Returns the number of items delivered to the sink.
///
/// When `threads` resolves to one worker, the items run on the calling
/// thread: no thread is spawned, no channel is built, and each result
/// is delivered as soon as it is computed.
///
/// Telemetry: per-task execution time and the delay between an item
/// finishing and the in-order fold consuming it are recorded into
/// [`cnash_telemetry::hot`] (`POOL_TASK_NS`, `POOL_FOLD_WAIT_NS`),
/// along with task and per-worker fold counts. The one-worker path
/// folds every item the moment it finishes, so it records no fold
/// wait. Timing is skipped entirely when telemetry is disabled, and
/// nothing recorded feeds back into scheduling — delivery order (and
/// thus every folded result) is identical with telemetry on or off.
pub fn fan_out_ordered<T: Send>(
    total: usize,
    threads: usize,
    cancel: &CancelToken,
    work: impl Fn(usize) -> T + Sync,
    mut sink: impl FnMut(usize, T) -> ControlFlow<()>,
) -> usize {
    if total == 0 {
        return 0;
    }
    let timing_on = cnash_telemetry::enabled();
    let threads = effective_threads(threads).min(total);
    if threads == 1 {
        let mut delivered = 0usize;
        for k in 0..total {
            if cancel.is_cancelled() {
                break;
            }
            let (item, _) = run_counted(&work, k, timing_on);
            delivered += 1;
            cnash_telemetry::hot::record_worker_fold(0);
            if sink(k, item).is_break() {
                cancel.cancel();
                break;
            }
        }
        return delivered;
    }
    // Bound the reorder buffer: workers stop claiming indices more than
    // `window` ahead of the fold watermark, so a single slow item keeps
    // at most O(window) undelivered results in memory, not O(total).
    let window = (threads * 8).max(64);
    let next = AtomicUsize::new(0);
    let watermark = AtomicUsize::new(0);
    let mut delivered = 0usize;

    std::thread::scope(|scope| {
        // Each result carries its producing worker and (when telemetry
        // is on) its completion instant, so the fold can credit the
        // worker and measure how long the item sat in the reorder
        // buffer.
        let (tx, rx) = mpsc::channel::<(usize, T, usize, Option<Instant>)>();
        for worker in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let watermark = &watermark;
            let work = &work;
            let cancel = cancel.clone();
            scope.spawn(move || {
                loop {
                    if cancel.is_cancelled() {
                        break;
                    }
                    // Wait (briefly) while the next unclaimed index is
                    // outside the fold window. Indices inside the window
                    // are always claimable, so the watermark item itself
                    // is never starved and the watermark keeps advancing.
                    if next.load(Ordering::Relaxed)
                        >= watermark.load(Ordering::Relaxed).saturating_add(window)
                    {
                        std::thread::yield_now();
                        continue;
                    }
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= total {
                        break;
                    }
                    let (item, done) = run_counted(work, k, timing_on);
                    // The aggregator may have hung up after a break;
                    // losing the send is fine then.
                    if tx.send((k, item, worker, done)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // Reorder completion-order arrivals into index order.
        let mut pending: BTreeMap<usize, (T, usize, Option<Instant>)> = BTreeMap::new();
        let mut next_fold = 0usize;
        'recv: for (k, item, worker, done) in rx {
            pending.insert(k, (item, worker, done));
            while let Some((item, worker, done)) = pending.remove(&next_fold) {
                let idx = next_fold;
                next_fold += 1;
                watermark.store(next_fold, Ordering::Relaxed);
                delivered += 1;
                cnash_telemetry::hot::record_worker_fold(worker);
                if let Some(done) = done {
                    cnash_telemetry::hot::POOL_FOLD_WAIT_NS
                        .record(u64::try_from(done.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
                if sink(idx, item).is_break() {
                    cancel.cancel();
                    break 'recv;
                }
            }
        }
        // Receiver dropped here: workers unblock on send errors (and the
        // cancelled flag) and the scope joins them.
    });
    delivered
}

/// Runs item `k`, counting it into `POOL_TASKS` and, when `timing_on`,
/// its execution time into `POOL_TASK_NS`. Returns the result and, when
/// timed, the instant it finished.
fn run_counted<T>(work: &impl Fn(usize) -> T, k: usize, timing_on: bool) -> (T, Option<Instant>) {
    let started = timing_on.then(Instant::now);
    let item = work(k);
    cnash_telemetry::hot::POOL_TASKS.inc();
    let done = started.map(|s| {
        cnash_telemetry::hot::POOL_TASK_NS
            .record(u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Instant::now()
    });
    (item, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn delivers_every_index_in_order() {
        for threads in [1, 2, 8] {
            let cancel = CancelToken::new();
            let mut seen = Vec::new();
            let n = fan_out_ordered(
                100,
                threads,
                &cancel,
                |k| k * 3,
                |k, v| {
                    seen.push((k, v));
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(n, 100);
            assert_eq!(seen.len(), 100);
            for (i, (k, v)) in seen.iter().enumerate() {
                assert_eq!(*k, i);
                assert_eq!(*v, i * 3);
            }
        }
    }

    #[test]
    fn break_stops_after_exact_prefix() {
        for threads in [1, 3, 8] {
            let cancel = CancelToken::new();
            let mut seen = Vec::new();
            let n = fan_out_ordered(
                1000,
                threads,
                &cancel,
                |k| k,
                |_, v| {
                    seen.push(v);
                    if v == 17 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(n, 18, "threads={threads}");
            assert_eq!(seen, (0..=17).collect::<Vec<_>>());
            assert!(cancel.is_cancelled());
        }
    }

    #[test]
    fn slow_head_item_does_not_deadlock_the_window() {
        // Item 0 finishes long after the rest: claiming must pause at
        // the window bound and resume once the head folds, still
        // delivering everything in order.
        let cancel = CancelToken::new();
        let mut seen = Vec::new();
        let n = fan_out_ordered(
            500,
            4,
            &cancel,
            |k| {
                if k == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                k
            },
            |_, v| {
                seen.push(v);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(n, 500);
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn external_cancel_stops_claiming() {
        for threads in [1, 4] {
            let cancel = CancelToken::new();
            cancel.cancel();
            let n = fan_out_ordered(
                50,
                threads,
                &cancel,
                |k| k,
                |_, _| ControlFlow::Continue(()),
            );
            assert_eq!(n, 0, "threads={threads}: a cancelled token claims nothing");
        }
    }

    #[test]
    fn one_thread_runs_every_item_on_the_caller() {
        let caller = std::thread::current().id();
        let cancel = CancelToken::new();
        let n = fan_out_ordered(
            20,
            1,
            &cancel,
            |_| std::thread::current().id(),
            |k, id| {
                assert_eq!(id, caller, "item {k} ran off the calling thread");
                ControlFlow::Continue(())
            },
        );
        assert_eq!(n, 20);
    }

    #[test]
    fn child_tokens_inherit_downward_but_never_leak_upward() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        let grandchild = a.child();
        // A child cancelling itself (an early-stopping batch) is
        // invisible to the root and to siblings...
        a.cancel();
        assert!(a.is_cancelled());
        assert!(grandchild.is_cancelled(), "descendants observe it");
        assert!(!root.is_cancelled());
        assert!(!b.is_cancelled());
        // ...while the root cancelling (service shutdown) reaches every
        // descendant.
        root.cancel();
        assert!(b.is_cancelled());
        // Clones share the flag; children do not.
        let c = CancelToken::new();
        let clone = c.clone();
        clone.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn work_queue_pop_is_fifo_and_drains_after_close() {
        let q = WorkQueue::new();
        for k in 0..4 {
            q.push(k).unwrap();
        }
        q.close();
        assert_eq!(q.push(9), Err(9), "closed queue refuses new work");
        // Drain semantics: items queued before close stay consumable,
        // oldest first.
        for k in 0..4 {
            assert_eq!(q.pop(), Some(k));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn work_queue_close_wakes_blocked_owners_and_drains() {
        let q = Arc::new(WorkQueue::<u32>::new());
        let spawn_waiter = || {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        let waiter = spawn_waiter();
        q.push(7).unwrap();
        assert_eq!(waiter.join().unwrap(), Some(7));

        let waiters = [spawn_waiter(), spawn_waiter()];
        // Let both waiters block first; a waiter that reaches `pop`
        // after the close returns `None` all the same.
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), None);
        }
    }

    #[test]
    fn work_queue_concurrent_pops_lose_nothing() {
        let q = Arc::new(WorkQueue::new());
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut taken = Vec::new();
                    while let Some(v) = q.pop() {
                        taken.push(v);
                    }
                    taken
                })
            })
            .collect();
        for k in 0..200u32 {
            q.push(k).unwrap();
        }
        q.close();
        let mut all: Vec<u32> = workers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_is_a_noop() {
        let cancel = CancelToken::new();
        let n = fan_out_ordered(
            0,
            4,
            &cancel,
            |k| k,
            |_, _: usize| ControlFlow::Continue(()),
        );
        assert_eq!(n, 0);
    }
}
