//! The TCP front-end: a single-threaded nonblocking reactor driving
//! every connection's state machine, plus the solve executor gluing
//! protocol → cache → scheduler → runtime.
//!
//! # Reactor architecture
//!
//! One `cnash-reactor` thread owns the listener, every connection
//! socket and the [`Poller`] (epoll on Linux). Per readiness tick it:
//!
//! 1. accepts new connections (dropping them over
//!    [`ServiceConfig::max_connections`]),
//! 2. reads ready connections through an incremental [`LineFramer`],
//!    turning complete lines into response slots or scheduler jobs,
//! 3. applies solve completions (scheduler workers push results into a
//!    shared queue and nudge the [`Waker`]),
//! 4. advances each connection's reorder buffer — responses stream
//!    back **in request order** regardless of worker interleaving — and
//!    writes as much as the kernel accepts into the socket.
//!
//! Responses the kernel will not take queue in a bounded per-connection
//! [`WriteQueue`]: past the soft limit the reactor **stops reading**
//! that connection (backpressure — a slow reader throttles itself, not
//! the daemon), and past the hard cap the connection is dropped and
//! counted (`conn_overflow_dropped`). Shutdown is graceful: the
//! listener closes first, in-flight jobs drain (the shutdown signal
//! cancels their batches, so they finish fast), queued responses flush,
//! and only then do sockets close — bounded by
//! [`ServiceConfig::drain_ms`].

use crate::cache::InstanceCache;
use crate::framing::{overflow_verdict, FramedLine, LineFramer, QueueVerdict, WriteQueue};
use crate::protocol::{self, Request, TruthPolicy};
use crate::reactor::{drain_wakeups, waker_fd, PollEvent, Poller, Waker};
use crate::sched::Scheduler;
use crate::store::{self, SolutionStore};
use cnash_runtime::report::game_report_json;
use cnash_runtime::spec::JobSpec;
use cnash_runtime::{BatchRunner, CancelToken, Json};
use cnash_telemetry::{Counter, Gauge, Histogram, Registry, TelemetrySpan};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on one request line; longer lines get one error response
/// and are discarded through their terminating newline.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the waker's receive end.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// One `read` call's buffer.
const READ_CHUNK: usize = 16 * 1024;
/// Per-connection read budget per readiness tick — a firehose client
/// cannot starve its peers for longer than this.
const READ_BUDGET: usize = 64 * 1024;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address. Port `0` asks the OS for an ephemeral port —
    /// read the actual one from [`ServiceHandle::addr`].
    pub addr: String,
    /// Scheduler workers (`0` = one per available core). Each worker
    /// runs one solve at a time on its own thread.
    pub shards: usize,
    /// Open-connection cap; connections accepted past it are closed
    /// immediately and counted under `conn_rejected`.
    pub max_connections: usize,
    /// Write-queue depth (bytes) past which the reactor stops reading
    /// the connection until the queue drains below half this limit.
    pub write_queue_soft_limit: usize,
    /// Write-queue depth (bytes) past which the connection is dropped
    /// and counted under `conn_overflow_dropped`. Only responses to
    /// already-accepted requests (in-flight solves) can push the queue
    /// beyond the soft limit, so this bounds per-connection memory at
    /// roughly `hard limit + one maximal response`.
    pub write_queue_hard_limit: usize,
    /// Graceful-shutdown budget: how long the reactor waits for
    /// in-flight jobs to drain and queued responses to flush before
    /// force-closing the stragglers.
    pub drain_ms: u64,
    /// Optional `SO_SNDBUF` clamp for accepted connections. `None`
    /// leaves the kernel's autotuning (tens of MB per connection on
    /// loopback); a value bounds kernel memory per connection and makes
    /// the reactor's write-queue backpressure engage early instead of
    /// hiding behind kernel buffering.
    pub send_buffer_bytes: Option<usize>,
    /// Optional path of a persistent [`SolutionStore`] log. When set,
    /// the daemon warm-boots from it (one scan on open), answers repeat
    /// solves from disk with a `"cache":"disk"` provenance field, and
    /// appends every fresh solve's deterministic payload. `None` (the
    /// default) keeps the service fully in-memory and its wire output
    /// byte-identical to pre-store builds.
    pub store_path: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            shards: 0,
            max_connections: 4096,
            write_queue_soft_limit: 256 * 1024,
            write_queue_hard_limit: 8 * 1024 * 1024,
            drain_ms: 5_000,
            send_buffer_bytes: None,
            store_path: None,
        }
    }
}

/// A signal that shuts the daemon down from any thread (idempotent).
#[derive(Clone)]
pub struct ShutdownSignal {
    cancel: CancelToken,
    fired: Arc<AtomicBool>,
    waker: Waker,
}

impl ShutdownSignal {
    /// Requests shutdown: cancels in-flight batches (they observe the
    /// token and finish fast) and wakes the reactor, which stops
    /// accepting, drains, flushes and exits.
    pub fn fire(&self) {
        if self.fired.swap(true, Ordering::SeqCst) {
            return;
        }
        self.cancel.cancel();
        self.waker.wake();
    }

    fn is_fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }
}

/// A running service instance.
pub struct ServiceHandle {
    addr: SocketAddr,
    signal: ShutdownSignal,
    reactor: JoinHandle<()>,
    registry: Arc<Registry>,
    store: Option<Arc<SolutionStore>>,
}

impl ServiceHandle {
    /// The bound address (with the OS-chosen port when the config asked
    /// for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's telemetry registry (per-op latency histograms,
    /// connection gauges, scheduler gauges, cache counters) — what the
    /// `metrics` op and `serviced --metrics-file` snapshot.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The persistent solution store the daemon serves from, when one
    /// was configured via [`ServiceConfig::store_path`].
    pub fn store(&self) -> Option<&Arc<SolutionStore>> {
        self.store.as_ref()
    }

    /// A clonable handle that can shut the daemon down.
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.signal.clone()
    }

    /// Blocks until the daemon exits (a `shutdown` request, or
    /// [`ShutdownSignal::fire`]).
    pub fn join(self) {
        self.reactor.join().expect("reactor panicked");
    }

    /// Fires shutdown and waits for exit.
    pub fn stop(self) {
        self.signal.fire();
        self.join();
    }
}

/// Binds the listener and spawns the daemon: scheduler workers plus the
/// reactor thread owning every socket.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the errno
/// of the poller/waker setup.
pub fn serve(config: ServiceConfig) -> io::Result<ServiceHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (waker, wake_rx) = Waker::new()?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    poller.register(waker_fd(&wake_rx), TOKEN_WAKER, true, false)?;

    let signal = ShutdownSignal {
        cancel: CancelToken::new(),
        fired: Arc::new(AtomicBool::new(false)),
        waker,
    };
    let registry = Arc::new(Registry::new());
    let cache = Arc::new(InstanceCache::with_registry(&registry));
    let store = config
        .store_path
        .as_deref()
        .map(|path| SolutionStore::open_with_registry(path, &registry).map(Arc::new))
        .transpose()?;
    let scheduler = Scheduler::new(config.shards, &registry);
    let reactor = Reactor {
        listener,
        wake_rx,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        drain_deadline: None,
        ctx: Ctx {
            poller,
            config,
            cache,
            store: store.clone(),
            scheduler,
            registry: Arc::clone(&registry),
            signal: signal.clone(),
            completions: Arc::new(Mutex::new(Vec::new())),
            metrics: ServiceMetrics::new(&registry),
            draining: false,
        },
    };
    let thread = std::thread::Builder::new()
        .name("cnash-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ServiceHandle {
        addr,
        signal,
        reactor: thread,
        registry,
        store,
    })
}

/// Connection-layer instruments, registered under stable names.
struct ServiceMetrics {
    /// Gauge: currently open connections.
    conn_open: Arc<Gauge>,
    /// Gauge: bytes queued across every connection's write queue.
    conn_write_queue_bytes: Arc<Gauge>,
    /// Connections the kernel handed to `accept` (including rejects).
    conn_accepted: Arc<Counter>,
    /// Connections closed for any reason (EOF, shutdown, drop).
    conn_closed: Arc<Counter>,
    /// Accepted connections closed immediately: over
    /// `max_connections`, or arriving during drain.
    conn_rejected: Arc<Counter>,
    /// Connections dropped for exceeding the write-queue hard cap.
    conn_overflow_dropped: Arc<Counter>,
    /// Times a connection's reads were paused at the soft limit.
    conn_backpressure_stalls: Arc<Counter>,
    op_ping: Arc<Histogram>,
    op_solve: Arc<Histogram>,
    op_stats: Arc<Histogram>,
    op_metrics: Arc<Histogram>,
}

impl ServiceMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            conn_open: registry.gauge("conn_open"),
            conn_write_queue_bytes: registry.gauge("conn_write_queue_bytes"),
            conn_accepted: registry.counter("conn_accepted"),
            conn_closed: registry.counter("conn_closed"),
            conn_rejected: registry.counter("conn_rejected"),
            conn_overflow_dropped: registry.counter("conn_overflow_dropped"),
            conn_backpressure_stalls: registry.counter("conn_backpressure_stalls"),
            op_ping: registry.histogram("op_ping_ns"),
            op_solve: registry.histogram("op_solve_ns"),
            op_stats: registry.histogram("op_stats_ns"),
            op_metrics: registry.histogram("op_metrics_ns"),
        }
    }
}

/// One request's place in the response stream. Everything is plain
/// data resolved on the reactor thread at emission time — `stats` and
/// `metrics` must observe every earlier response, which is exactly
/// when the reorder buffer reaches their sequence number.
enum Slot {
    /// A finished response.
    Ready(Json),
    /// `stats`, computed at emission (payload: request id).
    Stats(Json),
    /// `metrics`, computed at emission (payload: request id).
    Metrics(Json),
    /// `shutdown`: emit the acknowledgement, close this connection
    /// once it flushes, and fire the daemon-wide shutdown.
    Shutdown(Json),
}

/// A solve finished on some worker: `(connection token, seq, response)`.
type Completion = (u64, u64, Json);

/// Why a connection is being closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// Stream complete (EOF + drained), shutdown flush, or drain end.
    Done,
    /// Write-queue hard cap exceeded.
    Overflow,
    /// The socket failed mid-write or lost its poller registration.
    Torn,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    token: u64,
    framer: LineFramer,
    wq: WriteQueue,
    /// Out-of-order response slots awaiting their turn.
    pending: BTreeMap<u64, Slot>,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number to emit into the write queue.
    next_emit: u64,
    /// Solve jobs submitted to the scheduler, not yet completed.
    in_flight: usize,
    /// EOF observed (or the read side failed).
    read_closed: bool,
    /// A shutdown acknowledgement is queued: close once flushed.
    close_after_flush: bool,
    /// Reads paused by write-queue backpressure.
    paused: bool,
    /// Interest currently registered with the poller.
    want_read: bool,
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, fd: RawFd, token: u64) -> Self {
        Self {
            stream,
            fd,
            token,
            framer: LineFramer::new(MAX_LINE_BYTES),
            wq: WriteQueue::new(),
            pending: BTreeMap::new(),
            next_seq: 0,
            next_emit: 0,
            in_flight: 0,
            read_closed: false,
            close_after_flush: false,
            paused: false,
            want_read: true,
            want_write: false,
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

/// Everything the per-connection logic needs besides the connection
/// map itself — split out so `&mut Conn` (borrowed from the map) and
/// `&mut Ctx` can coexist.
struct Ctx {
    poller: Poller,
    config: ServiceConfig,
    cache: Arc<InstanceCache>,
    store: Option<Arc<SolutionStore>>,
    scheduler: Scheduler,
    registry: Arc<Registry>,
    signal: ShutdownSignal,
    completions: Arc<Mutex<Vec<Completion>>>,
    metrics: ServiceMetrics,
    draining: bool,
}

/// The event loop's owner: sockets, connection map, drain clock.
struct Reactor {
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    drain_deadline: Option<Instant>,
    ctx: Ctx,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(256);
        loop {
            // Draining polls on a short leash so the deadline fires
            // even with no socket activity; otherwise block freely —
            // completions and shutdown arrive through the waker.
            let timeout = self.ctx.draining.then(|| Duration::from_millis(20));
            if let Err(e) = self.ctx.poller.wait(&mut events, timeout) {
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                break; // the poller itself failed: nothing left to drive
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => drain_wakeups(&self.wake_rx),
                    token => self.conn_ready(token, ev),
                }
            }
            self.apply_completions();
            if self.ctx.signal.is_fired() && !self.ctx.draining {
                self.begin_drain();
            }
            if self.ctx.draining {
                if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    for token in self.conns.keys().copied().collect::<Vec<_>>() {
                        self.close_conn(token, Close::Done);
                    }
                }
                if self.conns.is_empty() {
                    break;
                }
            }
        }
        for token in self.conns.keys().copied().collect::<Vec<_>>() {
            self.close_conn(token, Close::Done);
        }
        // Queued jobs observe the cancelled token and finish fast;
        // their completions have nowhere to go and are dropped.
        self.ctx.scheduler.shutdown();
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.ctx.metrics.conn_accepted.inc();
                    let over_cap = self.conns.len() >= self.ctx.config.max_connections;
                    if self.ctx.draining || self.ctx.signal.is_fired() || over_cap {
                        self.ctx.metrics.conn_rejected.inc();
                        continue; // dropping the stream closes it
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.ctx.metrics.conn_rejected.inc();
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    if let Some(bytes) = self.ctx.config.send_buffer_bytes {
                        let _ = crate::reactor::set_send_buffer(fd, bytes);
                    }
                    let token = self.next_token;
                    if self.ctx.poller.register(fd, token, true, false).is_err() {
                        self.ctx.metrics.conn_rejected.inc();
                        continue;
                    }
                    self.next_token += 1;
                    self.conns.insert(token, Conn::new(stream, fd, token));
                    self.ctx.metrics.conn_open.inc();
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: PollEvent) {
        let verdict = match self.conns.get_mut(&token) {
            None => return, // stale event for an already-closed conn
            Some(conn) => {
                if ev.readable {
                    self.ctx.read_input(conn);
                }
                self.ctx.after_progress(conn)
            }
        };
        if let Some(close) = verdict {
            self.close_conn(token, close);
        }
    }

    fn apply_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut queue = self
                .ctx
                .completions
                .lock()
                .expect("completion queue poisoned");
            std::mem::take(&mut *queue)
        };
        for (token, seq, response) in batch {
            let verdict = match self.conns.get_mut(&token) {
                None => continue, // the connection was dropped mid-solve
                Some(conn) => {
                    conn.in_flight -= 1;
                    conn.pending.insert(seq, Slot::Ready(response));
                    self.ctx.after_progress(conn)
                }
            };
            if let Some(close) = verdict {
                self.close_conn(token, close);
            }
        }
    }

    fn begin_drain(&mut self) {
        self.ctx.draining = true;
        self.drain_deadline =
            Some(Instant::now() + Duration::from_millis(self.ctx.config.drain_ms));
        let _ = self.ctx.poller.deregister(self.listener.as_raw_fd());
        // Re-evaluate every connection under drain rules: reads stop,
        // idle connections close now, busy ones close once their
        // in-flight responses flush.
        for token in self.conns.keys().copied().collect::<Vec<_>>() {
            let verdict = match self.conns.get_mut(&token) {
                None => continue,
                Some(conn) => self.ctx.after_progress(conn),
            };
            if let Some(close) = verdict {
                self.close_conn(token, close);
            }
        }
    }

    fn close_conn(&mut self, token: u64, close: Close) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.ctx.poller.deregister(conn.fd);
        let metrics = &self.ctx.metrics;
        metrics
            .conn_write_queue_bytes
            .add(-(conn.wq.bytes() as i64));
        metrics.conn_open.dec();
        metrics.conn_closed.inc();
        if close == Close::Overflow {
            metrics.conn_overflow_dropped.inc();
        }
        // Dropping `conn.stream` closes the socket (FIN, or RST for an
        // overflow drop with unread input — either way the client sees
        // the connection end).
    }
}

impl Ctx {
    /// Reads and processes as much input as budget, backpressure and
    /// the kernel allow.
    fn read_input(&mut self, conn: &mut Conn) {
        if conn.read_closed || conn.paused || conn.close_after_flush || self.draining {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = READ_BUDGET;
        'tick: while budget > 0 {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    conn.framer.extend(&chunk[..n]);
                    while let Some(line) = conn.framer.next_line() {
                        self.process_line(conn, line);
                        if conn.close_after_flush {
                            break 'tick; // requests after shutdown are not served
                        }
                    }
                    // Checking between chunks bounds the queue overshoot
                    // to one chunk's worth of requests.
                    if conn.wq.bytes() > self.config.write_queue_soft_limit {
                        break;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read_closed = true;
                    break;
                }
            }
        }
    }

    /// Parses one framed line into a response slot or a scheduler job.
    fn process_line(&mut self, conn: &mut Conn, line: FramedLine) {
        let text = match line {
            FramedLine::Oversized => {
                let seq = conn.alloc_seq();
                conn.pending.insert(
                    seq,
                    Slot::Ready(protocol::error_response(
                        &Json::Null,
                        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    )),
                );
                return;
            }
            FramedLine::Line(text) => text,
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return; // blank lines consume no sequence number
        }
        let envelope = protocol::parse_request(trimmed);
        let id = envelope.id;
        let seq = conn.alloc_seq();
        let slot = match envelope.request {
            Err(e) => Slot::Ready(protocol::error_response(&id, &e.message)),
            Ok(Request::Ping) => {
                let span = TelemetrySpan::start(&self.metrics.op_ping);
                let pong = protocol::pong_response(&id);
                span.finish();
                Slot::Ready(pong)
            }
            Ok(Request::Stats) => Slot::Stats(id),
            Ok(Request::Metrics) => Slot::Metrics(id),
            Ok(Request::Shutdown) => Slot::Shutdown(id),
            Ok(Request::Solve { job, truth }) => {
                match self.submit_solve(conn.token, seq, &id, *job, truth) {
                    Ok(()) => {
                        conn.in_flight += 1;
                        return; // the completion queue delivers the slot
                    }
                    Err(error) => Slot::Ready(error),
                }
            }
        };
        conn.pending.insert(seq, slot);
    }

    /// Hands a solve to the scheduler; its completion flows back through
    /// the shared queue + waker.
    fn submit_solve(
        &mut self,
        token: u64,
        seq: u64,
        id: &Json,
        job: JobSpec,
        truth: TruthPolicy,
    ) -> Result<(), Json> {
        let cache = Arc::clone(&self.cache);
        let store = self.store.clone();
        let cancel = self.signal.cancel.clone();
        let sink = Arc::clone(&self.metrics.op_solve);
        let completions = Arc::clone(&self.completions);
        let waker = self.signal.waker.clone();
        let job_id = id.clone();
        self.scheduler
            .submit(Box::new(move || {
                let span = TelemetrySpan::start(&sink);
                // A panicking solve must still produce a response: the
                // reorder buffer cannot advance past a missing sequence
                // number, so a lost response would wedge every later
                // reply on this connection.
                let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    execute_solve(&cache, store.as_deref(), &job, truth, 1, &cancel, &job_id)
                }))
                .unwrap_or_else(|_| {
                    protocol::error_response(&job_id, "internal error: solve panicked")
                });
                span.finish();
                completions
                    .lock()
                    .expect("completion queue poisoned")
                    .push((token, seq, response));
                waker.wake();
            }))
            .map_err(|_| protocol::error_response(id, "service is shutting down"))
    }

    /// Emits every due slot into the write queue. `stats`/`metrics`
    /// are computed here — with all earlier responses resolved — which
    /// preserves the blocking server's lazy-evaluation semantics.
    fn advance_reorder(&mut self, conn: &mut Conn) {
        while !conn.close_after_flush {
            let Some(slot) = conn.pending.remove(&conn.next_emit) else {
                break;
            };
            conn.next_emit += 1;
            let doc = match slot {
                Slot::Ready(doc) => doc,
                Slot::Stats(id) => {
                    let span = TelemetrySpan::start(&self.metrics.op_stats);
                    let mut doc = Json::obj([
                        ("id", id),
                        ("ok", Json::Bool(true)),
                        ("stats", self.cache.stats().to_json()),
                        ("shards", Json::num(self.scheduler.shard_count() as f64)),
                        // Grouped so golden-file tooling can strip the
                        // scheduling-dependent counts in one move.
                        (
                            "scheduler",
                            Json::obj([(
                                "jobs_executed",
                                Json::uint(self.scheduler.jobs_executed()),
                            )]),
                        ),
                    ]);
                    // Present only when a store is configured, so the
                    // no-store golden streams are byte-unchanged.
                    if let (Some(store), Json::Obj(map)) = (&self.store, &mut doc) {
                        map.insert("store".into(), store.stats().to_json());
                    }
                    span.finish();
                    doc
                }
                Slot::Metrics(id) => {
                    let span = TelemetrySpan::start(&self.metrics.op_metrics);
                    let doc = protocol::metrics_response(&id, &self.registry.snapshot());
                    span.finish();
                    doc
                }
                Slot::Shutdown(id) => {
                    // Answer the prefix, then this acknowledgement, then
                    // close — and take the whole daemon down with us.
                    conn.close_after_flush = true;
                    self.signal.fire();
                    protocol::shutdown_response(&id)
                }
            };
            let mut bytes = doc.compact().into_bytes();
            bytes.push(b'\n');
            self.metrics.conn_write_queue_bytes.add(bytes.len() as i64);
            conn.wq.push(bytes);
        }
    }

    /// The per-connection maintenance pass run after any state change:
    /// advance the reorder buffer, flush what the kernel takes, apply
    /// the backpressure verdict, update poller interest, and decide
    /// whether the connection is finished.
    fn after_progress(&mut self, conn: &mut Conn) -> Option<Close> {
        self.advance_reorder(conn);
        match conn.wq.write_to(&mut (&conn.stream)) {
            Ok(n) => self.metrics.conn_write_queue_bytes.add(-(n as i64)),
            Err(_) => return Some(Close::Torn),
        }
        let soft = self.config.write_queue_soft_limit;
        match overflow_verdict(conn.wq.bytes(), soft, self.config.write_queue_hard_limit) {
            QueueVerdict::Drop => return Some(Close::Overflow),
            QueueVerdict::Pause => {
                if !conn.paused {
                    conn.paused = true;
                    self.metrics.conn_backpressure_stalls.inc();
                }
            }
            QueueVerdict::Ok => {
                // Hysteresis: resume reads only once the queue has
                // drained well clear of the limit.
                if conn.paused && conn.wq.bytes() <= soft / 2 {
                    conn.paused = false;
                }
            }
        }
        let idle = conn.in_flight == 0 && conn.pending.is_empty() && conn.wq.is_empty();
        if conn.close_after_flush && conn.wq.is_empty() {
            return Some(Close::Done);
        }
        if idle && (conn.read_closed || self.draining) {
            return Some(Close::Done);
        }
        let want_read =
            !conn.read_closed && !conn.paused && !conn.close_after_flush && !self.draining;
        let want_write = !conn.wq.is_empty();
        if (want_read, want_write) != (conn.want_read, conn.want_write) {
            if self
                .poller
                .reregister(conn.fd, conn.token, want_read, want_write)
                .is_err()
            {
                return Some(Close::Torn);
            }
            conn.want_read = want_read;
            conn.want_write = want_write;
        }
        None
    }
}

/// Runs one solve request to completion and builds its response.
///
/// When a [`SolutionStore`] is supplied, it is consulted *before* the
/// instance cache: a resident record answers the request in O(lookup)
/// — no programming, no anneal — with the stored deterministic payload
/// plus a fresh `id`, a `"cache":"disk"` provenance field and this
/// call's timing fields. A fresh (non-cancelled) solve's payload is
/// appended on the way out, so the next identical request — in this
/// process or any later one — is a disk hit.
///
/// Public because the offline `presolve` sweeper drives this exact
/// function: sweeping through it (rather than a parallel code path)
/// is what makes presolved records byte-identical to what the daemon
/// would have produced live.
///
/// `batch_threads` is the batch's worker count. Every caller passes 1:
/// the daemon's scheduler workers and the sweeper's fan-out already
/// keep every core busy, and at 1 the runs execute on the calling
/// thread.
pub fn execute_solve(
    cache: &InstanceCache,
    store: Option<&SolutionStore>,
    job: &JobSpec,
    truth: TruthPolicy,
    batch_threads: usize,
    cancel: &CancelToken,
    id: &Json,
) -> Json {
    let start = Instant::now();
    let game = match job.game.build() {
        Ok(game) => game,
        Err(e) => return protocol::error_response(id, &e.message),
    };
    // The store key is a pure function of the built game + request
    // knobs, so it can be derived (and answered) before any expensive
    // preparation.
    let store_key = store.map(|s| {
        let key = store::solve_key(&game, job, truth);
        (s, key)
    });
    if let Some((store, key)) = store_key {
        if let Some(payload) = store.lookup(key) {
            // Records are checksummed, so this parse cannot fail short
            // of a key collision; if it somehow does, fall through to a
            // live solve rather than serving garbage.
            if let Ok(Json::Obj(mut map)) = Json::parse(&payload) {
                map.insert("id".into(), id.clone());
                map.insert("cache".into(), Json::str("disk"));
                map.insert(
                    "wall_ms".into(),
                    Json::Num(start.elapsed().as_secs_f64() * 1e3),
                );
                map.insert("program_ms".into(), Json::Num(0.0));
                return Json::Obj(map);
            }
        }
    }
    let prepared = match cache.prepare_with_game(game, &job.solver) {
        Ok(prepared) => prepared,
        Err(e) => return protocol::error_response(id, &e.message),
    };
    let program_ms = start.elapsed().as_secs_f64() * 1e3;

    // `enumerate` on a game past the support-enumeration limit degrades
    // to `skip`, and the response is flagged so clients know their
    // coverage statistics are against an empty ground truth they did not
    // ask for.
    let ground_truth = match truth {
        TruthPolicy::Enumerate => cache.ground_truth(&prepared.game),
        TruthPolicy::Skip => Ok(Arc::default()),
    };
    let degraded = ground_truth.is_err();
    let ground_truth = ground_truth.unwrap_or_default();
    let mut runner = BatchRunner::new(job.runs, job.base_seed).threads(batch_threads);
    runner.early_stop = job.early_stop;
    // A *child* of the daemon's shutdown token: shutdown cancels this
    // batch, but the batch's own early stop (which cancels its token to
    // halt its pool) cannot leak into sibling jobs.
    let batch_token = cancel.child();
    let batch = runner.evaluate_cancellable(prepared.solver.as_ref(), &ground_truth, &batch_token);

    let mut response = Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("label", Json::str(job.label_for(&prepared.game))),
        ("cache_hit", Json::Bool(prepared.cache_hit)),
        ("report", game_report_json(&batch.report)),
        ("scheduled_runs", Json::num(batch.scheduled_runs as f64)),
        ("executed_runs", Json::num(batch.executed_runs as f64)),
        ("stopped_early", Json::Bool(batch.stopped_early)),
        ("cancelled", Json::Bool(batch.cancelled)),
        ("wall_ms", Json::Num(start.elapsed().as_secs_f64() * 1e3)),
        ("program_ms", Json::Num(program_ms)),
    ]);
    // Only present (as `true`) when the degrade actually happened, so
    // existing golden streams are unchanged.
    if degraded {
        if let Json::Obj(map) = &mut response {
            map.insert("ground_truth_degraded".into(), Json::Bool(true));
        }
    }
    // Persist the deterministic payload: the response minus the
    // request-scoped `id` and this call's timing fields. A cancelled
    // batch is a partial result — never recorded.
    if let Some((store, key)) = store_key {
        if !batch.cancelled {
            let mut payload = response.clone();
            protocol::strip_timing(&mut payload);
            if let Json::Obj(map) = &mut payload {
                map.remove("id");
            }
            // Best effort: a full disk degrades the store to a cache,
            // not the solve to an error.
            let _ = store.append(key, &payload.compact());
        }
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for line in lines {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reader = BufReader::new(stream);
        reader.lines().map(|l| l.unwrap()).collect()
    }

    const SOLVE_BOS: &str = r#"{"op":"solve","id":2,"job":{"game":{"builtin":"battle_of_the_sexes"},"solver":{"type":"cnash","preset":"paper","intervals":12,"iterations":1500,"hardware_seed":1},"runs":4,"base_seed":0}}"#;

    #[test]
    fn round_trips_pipelined_requests_in_order() {
        let handle = serve(ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        let responses = send_lines(
            addr,
            &[
                r#"{"op":"ping","id":1}"#,
                SOLVE_BOS,
                SOLVE_BOS.replace(r#""id":2"#, r#""id":3"#).as_str(),
                r#"{"op":"bogus","id":4}"#,
            ],
        );
        assert_eq!(responses.len(), 4);
        let docs: Vec<Json> = responses.iter().map(|l| Json::parse(l).unwrap()).collect();
        // Responses arrive in request order whatever the shard timing.
        for (k, doc) in docs.iter().enumerate() {
            assert_eq!(doc.get("id").unwrap().as_usize().unwrap(), k + 1);
        }
        assert!(docs[0].get("pong").unwrap().as_bool().unwrap());
        for doc in &docs[1..3] {
            assert!(doc.get("ok").unwrap().as_bool().unwrap());
            let report = doc.get("report").unwrap();
            assert_eq!(report.get("runs").unwrap().as_usize().unwrap(), 4);
        }
        // Identical pipelined jobs: single-flight programming means
        // exactly one of the two built the instance — the other hit,
        // whichever shard won the race.
        let hits = docs[1..3]
            .iter()
            .filter(|d| d.get("cache_hit").unwrap().as_bool().unwrap())
            .count();
        assert_eq!(hits, 1);
        assert!(!docs[3].get("ok").unwrap().as_bool().unwrap());
        // The deterministic payloads of identical jobs are identical.
        let mut a = docs[1].clone();
        let mut b = docs[2].clone();
        protocol::strip_timing(&mut a);
        protocol::strip_timing(&mut b);
        if let (Json::Obj(a), Json::Obj(b)) = (&mut a, &mut b) {
            a.remove("id");
            b.remove("id");
            a.remove("cache_hit");
            b.remove("cache_hit");
        }
        assert_eq!(a, b);
        handle.stop();
    }

    #[test]
    fn shutdown_op_terminates_the_daemon_after_answering() {
        let handle = serve(ServiceConfig::default()).unwrap();
        let addr = handle.addr();
        let responses = send_lines(
            addr,
            &[
                r#"{"op":"solve","id":1,"job":{"game":{"builtin":"matching_pennies"},"solver":{"type":"ideal","preset":"ideal","intervals":12,"iterations":1500},"runs":2}}"#,
                r#"{"op":"stats","id":2}"#,
                r#"{"op":"shutdown","id":3}"#,
            ],
        );
        assert_eq!(responses.len(), 3);
        let stats = Json::parse(&responses[1]).unwrap();
        // The stats response post-dates the solve: its counters include
        // the miss.
        assert_eq!(
            stats
                .get("stats")
                .unwrap()
                .get("instance_misses")
                .unwrap()
                .as_usize()
                .unwrap(),
            1
        );
        let bye = Json::parse(&responses[2]).unwrap();
        assert!(bye.get("shutting_down").unwrap().as_bool().unwrap());
        handle.join(); // returns: the daemon exited on its own
    }

    #[test]
    fn metrics_op_reports_per_op_latencies_and_cache_counters() {
        let handle = serve(ServiceConfig::default()).unwrap();
        let responses = send_lines(
            handle.addr(),
            &[
                r#"{"op":"ping","id":1}"#,
                SOLVE_BOS,
                r#"{"op":"metrics","id":3}"#,
            ],
        );
        assert_eq!(responses.len(), 3);
        let ping = Json::parse(&responses[0]).unwrap();
        assert!(ping.get("build").unwrap().get("version").is_ok());
        let doc = Json::parse(&responses[2]).unwrap();
        assert!(doc.get("ok").unwrap().as_bool().unwrap());
        let m = doc.get("metrics").unwrap();
        let counters = m.get("counters").unwrap();
        // One solve, cold cache: exactly one programming miss, and the
        // scheduler executed exactly that one job.
        assert_eq!(
            counters
                .get("cache_instance_misses")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );
        assert_eq!(
            counters
                .get("sched_jobs_executed")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );
        // The connection layer reports itself: this one connection is
        // open and nothing has been dropped or stalled.
        assert_eq!(counters.get("conn_accepted").unwrap().as_u64().unwrap(), 1);
        assert_eq!(
            counters
                .get("conn_overflow_dropped")
                .unwrap()
                .as_u64()
                .unwrap(),
            0
        );
        let gauges = m.get("gauges").unwrap();
        assert_eq!(gauges.get("conn_open").unwrap().as_u64().unwrap(), 1);
        // The metrics snapshot post-dates the emitted ping and solve:
        // both latency histograms hold exactly one observation.
        let hists = m.get("histograms").unwrap();
        for name in ["op_ping_ns", "op_solve_ns"] {
            assert_eq!(
                hists
                    .get(name)
                    .unwrap()
                    .get("count")
                    .unwrap()
                    .as_u64()
                    .unwrap(),
                1,
                "histogram {name}"
            );
        }
        // The solve drove the annealer: the process-global run counter
        // is at least the 4 runs of this batch.
        assert!(counters.get("sa_runs").unwrap().as_u64().unwrap() >= 4);
        handle.stop();
    }

    #[test]
    fn family_games_solve_and_share_the_instance_cache() {
        // A family instance named over the wire and the same game sent
        // again must hit the programmed-instance cache the second time
        // (canonical fingerprints are spec-form independent).
        let handle = serve(ServiceConfig::default()).unwrap();
        let solve = r#"{"op":"solve","id":1,"job":{"game":{"family":{"name":"dominance_solvable","size":3,"seed":5}},"solver":{"type":"cnash","preset":"paper","intervals":12,"iterations":800,"hardware_seed":0},"runs":2}}"#;
        let responses = send_lines(
            handle.addr(),
            &[solve, solve.replace(r#""id":1"#, r#""id":2"#).as_str()],
        );
        assert_eq!(responses.len(), 2);
        let docs: Vec<Json> = responses.iter().map(|l| Json::parse(l).unwrap()).collect();
        for doc in &docs {
            assert!(doc.get("ok").unwrap().as_bool().unwrap(), "{doc:?}");
            let report = doc.get("report").unwrap();
            // Dominance-solvable games have exactly one equilibrium.
            assert_eq!(report.get("target_count").unwrap().as_usize().unwrap(), 1);
        }
        let hits = docs
            .iter()
            .filter(|d| d.get("cache_hit").unwrap().as_bool().unwrap())
            .count();
        assert_eq!(hits, 1, "repeat family request must hit the cache");
        handle.stop();
    }

    #[test]
    fn truth_skip_reports_empty_ground_truth() {
        let handle = serve(ServiceConfig::default()).unwrap();
        let responses = send_lines(
            handle.addr(),
            &[
                r#"{"op":"solve","id":1,"job":{"game":{"random":{"rows":6,"cols":6,"max_payoff":3,"seed":4}},"solver":{"type":"cnash","preset":"paper","intervals":12,"iterations":400,"hardware_seed":0},"runs":2},"ground_truth":"skip"}"#,
            ],
        );
        let doc = Json::parse(&responses[0]).unwrap();
        assert!(doc.get("ok").unwrap().as_bool().unwrap());
        let report = doc.get("report").unwrap();
        assert_eq!(report.get("target_count").unwrap().as_usize().unwrap(), 0);
        // An explicit skip is what the client asked for — not a degrade.
        assert!(doc.opt("ground_truth_degraded").is_none());
        handle.stop();
    }

    #[test]
    fn oversized_enumerate_degrades_to_skip_with_a_flag() {
        // 18 actions per player is past the support-enumeration bound
        // (MAX_ENUM_ACTIONS = 16): the default `enumerate` policy used
        // to panic the solve; it must now degrade to `skip`, answer
        // normally against an empty ground truth, and flag the degrade.
        let handle = serve(ServiceConfig::default()).unwrap();
        let responses = send_lines(
            handle.addr(),
            &[
                r#"{"op":"solve","id":1,"job":{"game":{"random":{"rows":18,"cols":18,"max_payoff":3,"seed":4}},"solver":{"type":"cnash","preset":"paper","intervals":12,"iterations":200,"hardware_seed":0},"runs":1}}"#,
                r#"{"op":"solve","id":2,"job":{"game":{"random":{"rows":4,"cols":4,"max_payoff":3,"seed":4}},"solver":{"type":"cnash","preset":"paper","intervals":12,"iterations":200,"hardware_seed":0},"runs":1}}"#,
            ],
        );
        assert_eq!(responses.len(), 2);
        let big = Json::parse(&responses[0]).unwrap();
        assert!(big.get("ok").unwrap().as_bool().unwrap(), "{big:?}");
        assert!(
            big.get("ground_truth_degraded").unwrap().as_bool().unwrap(),
            "oversized enumerate must be flagged"
        );
        let report = big.get("report").unwrap();
        assert_eq!(report.get("target_count").unwrap().as_usize().unwrap(), 0);
        // An enumerable game keeps the exact path and carries no flag.
        let small = Json::parse(&responses[1]).unwrap();
        assert!(small.get("ok").unwrap().as_bool().unwrap());
        assert!(small.opt("ground_truth_degraded").is_none());
        assert!(
            small
                .get("report")
                .unwrap()
                .get("target_count")
                .unwrap()
                .as_usize()
                .unwrap()
                > 0
        );
        handle.stop();
    }

    #[test]
    fn oversized_request_line_gets_an_error_and_the_connection_survives() {
        let handle = serve(ServiceConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        // A 2 MiB line (twice MAX_LINE_BYTES) followed by a valid ping.
        let big = vec![b'x'; 2 * MAX_LINE_BYTES];
        stream.write_all(&big).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.write_all(b"{\"op\":\"ping\",\"id\":7}\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reader = BufReader::new(stream);
        let responses: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(responses.len(), 2, "{responses:?}");
        let err = Json::parse(&responses[0]).unwrap();
        assert!(!err.get("ok").unwrap().as_bool().unwrap());
        assert!(
            err.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("exceeds"),
            "{err:?}"
        );
        let pong = Json::parse(&responses[1]).unwrap();
        assert_eq!(pong.get("id").unwrap().as_usize().unwrap(), 7);
        assert!(pong.get("pong").unwrap().as_bool().unwrap());
        handle.stop();
    }

    #[test]
    fn zero_dwave_reads_get_an_error_and_the_connection_survives() {
        let handle = serve(ServiceConfig::default()).unwrap();
        let responses = send_lines(
            handle.addr(),
            &[
                r#"{"op":"solve","id":1,"job":{"game":{"builtin":"battle_of_the_sexes"},"solver":{"type":"dwave","model":"2000q","reads_per_run":0},"runs":2,"base_seed":0}}"#,
                SOLVE_BOS,
            ],
        );
        assert_eq!(responses.len(), 2, "{responses:?}");
        let err = Json::parse(&responses[0]).unwrap();
        assert!(!err.get("ok").unwrap().as_bool().unwrap());
        let message = err.get("error").unwrap().as_str().unwrap();
        assert!(message.contains("reads_per_run"), "{message}");
        assert!(!message.contains("panicked"), "{message}");
        let solved = Json::parse(&responses[1]).unwrap();
        assert_eq!(solved.get("id").unwrap().as_usize().unwrap(), 2);
        assert!(solved.get("ok").unwrap().as_bool().unwrap());
        handle.stop();
    }

    #[test]
    fn zero_ideal_intervals_get_an_error_and_the_connection_survives() {
        let handle = serve(ServiceConfig::default()).unwrap();
        let responses = send_lines(
            handle.addr(),
            &[
                r#"{"op":"solve","id":1,"job":{"game":{"builtin":"battle_of_the_sexes"},"solver":{"type":"ideal","preset":"ideal","intervals":0},"runs":2,"base_seed":0}}"#,
                SOLVE_BOS,
            ],
        );
        assert_eq!(responses.len(), 2, "{responses:?}");
        let err = Json::parse(&responses[0]).unwrap();
        assert!(!err.get("ok").unwrap().as_bool().unwrap());
        let message = err.get("error").unwrap().as_str().unwrap();
        assert_eq!(
            message,
            "ideal: invalid configuration: ideal needs intervals > 0"
        );
        let solved = Json::parse(&responses[1]).unwrap();
        assert_eq!(solved.get("id").unwrap().as_usize().unwrap(), 2);
        assert!(solved.get("ok").unwrap().as_bool().unwrap());
        handle.stop();
    }

    #[test]
    fn store_serves_disk_hits_byte_identical_and_survives_restart() {
        let path =
            std::env::temp_dir().join(format!("cnash_server_store_{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = || ServiceConfig {
            store_path: Some(path.to_string_lossy().into_owned()),
            ..ServiceConfig::default()
        };
        // Deterministic payload comparison: everything but the request
        // id, the provenance flag and the timing fields.
        let normalise = |line: &str| {
            let mut doc = Json::parse(line).unwrap();
            protocol::strip_timing(&mut doc);
            if let Json::Obj(map) = &mut doc {
                map.remove("id");
                map.remove("cache");
            }
            doc.compact()
        };

        let handle = serve(config()).unwrap();
        let addr = handle.addr();
        // Separate connections so the repeat request cannot race the
        // cold solve across shards.
        let cold = send_lines(addr, &[SOLVE_BOS]);
        let warm = send_lines(addr, &[SOLVE_BOS, r#"{"op":"stats","id":9}"#]);
        let cold_doc = Json::parse(&cold[0]).unwrap();
        assert!(cold_doc.get("ok").unwrap().as_bool().unwrap());
        assert!(
            cold_doc.opt("cache").is_none(),
            "cold solve has no provenance flag"
        );
        let warm_doc = Json::parse(&warm[0]).unwrap();
        assert_eq!(warm_doc.get("cache").unwrap().as_str().unwrap(), "disk");
        assert_eq!(
            warm_doc.get("program_ms").unwrap().as_f64().unwrap(),
            0.0,
            "disk hits program nothing"
        );
        assert_eq!(normalise(&cold[0]), normalise(&warm[0]));
        // The stats response gains a store block only on the store path.
        let stats = Json::parse(&warm[1]).unwrap();
        let store_stats = stats.get("store").unwrap();
        assert_eq!(store_stats.get("hits").unwrap().as_u64().unwrap(), 1);
        assert_eq!(store_stats.get("records").unwrap().as_u64().unwrap(), 1);
        assert_eq!(handle.store().unwrap().len(), 1);
        handle.stop();

        // A fresh daemon on the same log warm-boots: the first request
        // of its life is already a disk hit.
        let handle = serve(config()).unwrap();
        assert_eq!(handle.store().unwrap().open_report().records, 1);
        let reborn = send_lines(handle.addr(), &[SOLVE_BOS]);
        let doc = Json::parse(&reborn[0]).unwrap();
        assert_eq!(doc.get("cache").unwrap().as_str().unwrap(), "disk");
        assert_eq!(normalise(&cold[0]), normalise(&reborn[0]));
        handle.stop();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn connection_cap_rejects_the_excess_connection() {
        let handle = serve(ServiceConfig {
            max_connections: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        let keep_a = TcpStream::connect(addr).unwrap();
        let keep_b = TcpStream::connect(addr).unwrap();
        // Let the reactor accept both before the third arrives.
        let mut third = TcpStream::connect(addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The daemon closes the excess connection without a response.
        let mut sink = Vec::new();
        let n = third.read_to_end(&mut sink).unwrap_or(0);
        assert_eq!(n, 0, "rejected connection got bytes: {sink:?}");
        // The two under the cap still work.
        for conn in [keep_a, keep_b] {
            let mut conn = conn;
            conn.write_all(b"{\"op\":\"ping\",\"id\":1}\n").unwrap();
            let mut reader = BufReader::new(conn);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"pong\":true"), "{line}");
        }
        handle.stop();
    }
}
