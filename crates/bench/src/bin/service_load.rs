//! Service connection-scale harness: thousands of concurrent pipelined
//! connections against a warm instance cache.
//!
//! `cargo run --release -p cnash-bench --bin service_load -- \
//!      [--conns N] [--per-conn K] [--quick] [--seed S] \
//!      [--addr HOST:PORT] [--out PATH]`
//!
//! Where `service_bench` measures per-request solve latency on one
//! connection, this harness measures the **reactor**: it opens
//! `--conns` connections (default 1000; `--quick` drops to 200 for CI
//! smoke runs), pipelines `--per-conn` identical warm-cache solve
//! requests down each, and drives them all from a single nonblocking
//! event loop — the same `Poller`/`LineFramer` machinery the daemon
//! itself runs on. Every response is matched to its request by the
//! service's request-ordered streaming contract, and the
//! request-written → response-framed latency goes into a
//! `cnash-telemetry` histogram.
//!
//! The cache is warmed with one cold solve before the clock starts, so
//! the measured numbers are connection-layer + scheduler + cache-hit
//! execution — no programming passes.
//!
//! Emits `BENCH_service_load.json` with sustained req/s and
//! p50/p90/p99/p999 latency. Exit status doubles as the CI gate:
//!
//! * exit 2 — usage error, or the harness could not set up (daemon,
//!   connect, warm-up),
//! * exit 1 — dropped responses: a connection died or the run stalled
//!   before every pipelined request was answered,
//! * exit 0 — every request answered; measurements recorded.

use cnash_bench::client::{fail, solve_request, timed_solve, ServiceConn};
use cnash_bench::{usage_lines, Cli};
use cnash_core::report::render_table;
use cnash_runtime::Json;
use cnash_service::framing::{FramedLine, LineFramer};
use cnash_service::reactor::{PollEvent, Poller};
use cnash_service::{serve, ServiceConfig, ServiceHandle};
use cnash_telemetry::Histogram;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

const FLAGS: &[&str] = &[
    "--conns",
    "--per-conn",
    "--quick",
    "--seed",
    "--addr",
    "--out",
    "--help",
];

/// A run with no forward progress for this long is declared stalled and
/// its unanswered requests counted as dropped.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);
/// Connections opened per connect burst (the listener backlog is
/// finite; the reactor drains it between bursts).
const CONNECT_BURST: usize = 100;

/// The warm-cache job every connection pipelines: small enough that the
/// daemon, not the solver, dominates (4×4 random game, one short run).
fn load_request(id: usize, seed: u64) -> String {
    solve_request(id, 4, 150, seed, "service-load-4x4")
}

/// One load connection's state machine: a pre-serialised pipeline of
/// requests on the way out, a line framer on the way back.
struct LoadConn {
    stream: TcpStream,
    framer: LineFramer,
    /// Bytes of the shared request block written so far.
    written: usize,
    /// Send timestamps, filled as `written` crosses request boundaries.
    sent_at: Vec<Instant>,
    /// Responses received (also the index of the next expected one).
    received: usize,
    dead: bool,
}

impl LoadConn {
    fn done(&self, per_conn: usize) -> bool {
        self.dead || self.received == per_conn
    }
}

fn main() {
    let cli = Cli::parse_for(FLAGS);
    if cli.help {
        println!("usage: service_load [flags]");
        print!("{}", usage_lines(Some(FLAGS)));
        println!("exit codes: 0 = all responses received, 1 = dropped responses, 2 = usage/setup");
        return;
    }
    // `--quick` is the CI smoke scale; explicit --conns/--per-conn win.
    let conns = if cli.quick && cli.conns == 1000 {
        200
    } else {
        cli.conns
    };
    let per_conn = if cli.quick && cli.per_conn == 8 {
        4
    } else {
        cli.per_conn
    };

    // In-process daemon unless --addr points at an external one.
    let mut daemon: Option<ServiceHandle> = None;
    let addr: SocketAddr = match &cli.addr {
        Some(addr) => addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .unwrap_or_else(|| fail(&format!("cannot resolve {addr}"))),
        None => {
            let handle = serve(ServiceConfig {
                max_connections: conns + 16,
                ..ServiceConfig::default()
            })
            .unwrap_or_else(|e| fail(&format!("cannot start in-process daemon: {e}")));
            let addr = handle.addr();
            daemon = Some(handle);
            addr
        }
    };

    // Warm the cache so the load phase is pure cache-hit traffic.
    let mut warm = ServiceConn::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    timed_solve(&mut warm, &load_request(0, cli.seed));
    drop(warm);

    // Every connection pipelines the same byte block; per-request send
    // times are recovered from the block's prefix boundaries.
    let mut block: Vec<u8> = Vec::new();
    let mut boundaries: Vec<usize> = Vec::with_capacity(per_conn);
    for k in 0..per_conn {
        block.extend_from_slice(load_request(k + 1, cli.seed).as_bytes());
        block.push(b'\n');
        boundaries.push(block.len());
    }

    eprintln!("opening {conns} connections ({per_conn} pipelined requests each)...");
    let mut poller = Poller::new().unwrap_or_else(|e| fail(&format!("poller: {e}")));
    let mut pool: Vec<LoadConn> = Vec::with_capacity(conns);
    for batch in (0..conns).collect::<Vec<_>>().chunks(CONNECT_BURST) {
        for &k in batch {
            let stream = TcpStream::connect(addr)
                .unwrap_or_else(|e| fail(&format!("connect {k}/{conns} failed: {e}")));
            stream
                .set_nonblocking(true)
                .unwrap_or_else(|e| fail(&format!("set_nonblocking: {e}")));
            let _ = stream.set_nodelay(true);
            poller
                .register(stream.as_raw_fd(), k as u64, true, true)
                .unwrap_or_else(|e| fail(&format!("register: {e}")));
            pool.push(LoadConn {
                stream,
                framer: LineFramer::new(1 << 20),
                written: 0,
                sent_at: Vec::with_capacity(per_conn),
                received: 0,
                dead: false,
            });
        }
        // Let the daemon drain its accept backlog before the next burst.
        std::thread::sleep(Duration::from_millis(2));
    }

    let total_requests = conns * per_conn;
    let latency = Histogram::new();
    let mut completed = 0usize;
    let mut remaining = conns;
    let start = Instant::now();
    let mut last_progress = start;
    let mut last_report = start;
    let mut events: Vec<PollEvent> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 16 * 1024];

    while remaining > 0 {
        if last_progress.elapsed() > STALL_TIMEOUT {
            eprintln!(
                "stalled: no progress for {}s with {remaining} connections outstanding",
                STALL_TIMEOUT.as_secs()
            );
            break;
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap_or_else(|e| fail(&format!("poller wait: {e}")));
        for &ev in &events {
            let conn = &mut pool[ev.token as usize];
            if conn.done(per_conn) {
                continue;
            }
            let mut progressed = false;
            if ev.writable && conn.written < block.len() {
                loop {
                    match (&conn.stream).write(&block[conn.written..]) {
                        Ok(0) => {
                            conn.dead = true;
                            break;
                        }
                        Ok(n) => {
                            let before = conn.written;
                            conn.written += n;
                            progressed = true;
                            // Timestamp every request this write completed.
                            let now = Instant::now();
                            while conn.sent_at.len() < per_conn
                                && boundaries[conn.sent_at.len()] > before
                                && boundaries[conn.sent_at.len()] <= conn.written
                            {
                                conn.sent_at.push(now);
                            }
                            if conn.written == block.len() {
                                break;
                            }
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
            }
            if ev.readable && !conn.dead {
                'read: loop {
                    match (&conn.stream).read(&mut chunk) {
                        Ok(0) => {
                            if conn.received < per_conn {
                                conn.dead = true;
                            }
                            break;
                        }
                        Ok(n) => {
                            conn.framer.extend(&chunk[..n]);
                            let now = Instant::now();
                            while let Some(line) = conn.framer.next_line() {
                                let FramedLine::Line(_) = line else {
                                    conn.dead = true;
                                    break 'read;
                                };
                                if conn.received >= conn.sent_at.len() {
                                    conn.dead = true; // response without a request
                                    break 'read;
                                }
                                let ns = now
                                    .duration_since(conn.sent_at[conn.received])
                                    .as_nanos()
                                    .min(u128::from(u64::MAX))
                                    as u64;
                                latency.record(ns);
                                conn.received += 1;
                                completed += 1;
                                progressed = true;
                            }
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
            }
            if progressed {
                last_progress = Instant::now();
            }
            if conn.done(per_conn) {
                let _ = poller.deregister(conn.stream.as_raw_fd());
                remaining -= 1;
            } else if conn.written == block.len() {
                // Fully sent: drop write interest, keep draining reads.
                let _ = poller.reregister(conn.stream.as_raw_fd(), ev.token, true, false);
            }
        }
        if last_report.elapsed() > Duration::from_secs(2) {
            eprintln!(
                "  {completed}/{total_requests} responses, {remaining} connections outstanding"
            );
            last_report = Instant::now();
        }
    }
    let elapsed = start.elapsed();

    if let Some(handle) = daemon {
        handle.stop();
    }

    let dropped = total_requests - completed;
    let snapshot = latency.snapshot();
    let quantile_ms = |q: f64| snapshot.quantile(q) as f64 / 1e6;
    let req_per_s = completed as f64 / elapsed.as_secs_f64();
    let rows = vec![vec![
        format!("{conns}x{per_conn}"),
        format!("{req_per_s:.0}"),
        format!("{:.2}", quantile_ms(0.50)),
        format!("{:.2}", quantile_ms(0.90)),
        format!("{:.2}", quantile_ms(0.99)),
        format!("{:.2}", quantile_ms(0.999)),
        format!("{dropped}"),
    ]];
    println!(
        "{}",
        render_table(
            "Service load: pipelined warm-cache solves across concurrent connections",
            &[
                "conns x reqs",
                "req/s",
                "p50 ms",
                "p90 ms",
                "p99 ms",
                "p999 ms",
                "dropped"
            ],
            &rows,
        )
    );

    let doc = Json::obj([
        ("bench", Json::str("service_load")),
        ("schema_version", Json::num(1.0)),
        ("mode", Json::str(if cli.quick { "quick" } else { "full" })),
        ("seed", Json::num(cli.seed as f64)),
        (
            "config",
            Json::obj([
                ("conns", Json::num(conns as f64)),
                ("per_conn", Json::num(per_conn as f64)),
                ("total_requests", Json::num(total_requests as f64)),
            ]),
        ),
        (
            "summary",
            Json::obj([
                ("elapsed_s", Json::Num(elapsed.as_secs_f64())),
                ("completed", Json::num(completed as f64)),
                ("dropped", Json::num(dropped as f64)),
                ("req_per_s", Json::Num(req_per_s)),
                ("p50_ms", Json::Num(quantile_ms(0.50))),
                ("p90_ms", Json::Num(quantile_ms(0.90))),
                ("p99_ms", Json::Num(quantile_ms(0.99))),
                ("p999_ms", Json::Num(quantile_ms(0.999))),
            ]),
        ),
    ]);
    let out_path = cli.out.as_deref().unwrap_or("BENCH_service_load.json");
    if let Err(e) = std::fs::write(out_path, doc.pretty()) {
        fail(&format!("cannot write {out_path}: {e}"));
    }
    println!("wrote {out_path}");

    if dropped > 0 {
        eprintln!("FAIL: {dropped}/{total_requests} responses dropped");
        std::process::exit(1);
    }
    println!(
        "{total_requests} responses across {conns} connections in {:.1}s ({req_per_s:.0} req/s), 0 dropped",
        elapsed.as_secs_f64()
    );
}
