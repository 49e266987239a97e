//! Load generation against the daemon: an open loop (requests sent on a
//! fixed-rate schedule whatever the daemon does) and a closed loop
//! (each connection keeps a fixed window of requests in flight).
//!
//! The open loop runs two threads, a sender that sleeps until each
//! request is due and a receiver that reads every connection through
//! one poller, so a response is timestamped when it arrives even while
//! the sender sleeps. Latency is timed from when a request was *due*,
//! so a stalled generator shows up as latency of the requests it held
//! back, and the sender's lateness is reported on its own.

use cnash_service::framing::{FramedLine, LineFramer};
use cnash_service::reactor::{PollEvent, Poller};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// No reply for this long ends a phase; unanswered requests count as
/// dropped.
pub const STALL_TIMEOUT: Duration = Duration::from_secs(20);

/// One answered request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Request index within the phase.
    pub req: usize,
    /// When the request was due (open loop) or handed to the socket
    /// (closed loop).
    pub due: Instant,
    /// When the request was written.
    pub sent: Instant,
    /// When its response line was framed.
    pub recv: Instant,
    /// The response line.
    pub line: String,
}

impl Reply {
    /// Latency from the due time, ms.
    pub fn due_ms(&self) -> f64 {
        self.recv.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// Latency from the actual send, ms.
    pub fn sent_ms(&self) -> f64 {
        self.recv.duration_since(self.sent).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Outcome of one load phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Replies in arrival order.
    pub replies: Vec<Reply>,
    /// Requests sent.
    pub sent: usize,
    /// Requests sent but never answered.
    pub dropped: usize,
    /// When the phase started.
    pub start: Option<Instant>,
    /// When the phase ended.
    pub end: Option<Instant>,
    /// Closed loop only: replies the check rejected (their lines are
    /// not kept, so a long phase holds no response bodies).
    pub rejected: usize,
}

/// Open-loop shape.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Requests per second.
    pub rate: f64,
    /// Connections the requests are spread over, round robin.
    pub conns: usize,
    /// Fault injection: the sender sleeps this long before request `k`.
    pub stall: Option<(usize, Duration)>,
}

impl OpenLoop {
    /// When request `k` is due, relative to the phase start.
    pub fn due(&self, k: usize) -> Duration {
        Duration::from_secs_f64(k as f64 / self.rate)
    }
}

struct Inflight {
    req: usize,
    due: Instant,
    sent: Instant,
}

fn connect(addr: SocketAddr, n: usize) -> io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect()
}

/// Reads every available line of connection `c`, pairing each with the
/// oldest in-flight request of that connection (responses come back in
/// request order). Returns `false` when the connection died.
fn drain(
    stream: &TcpStream,
    framer: &mut LineFramer,
    inflight: &Mutex<VecDeque<Inflight>>,
    out: &mut Vec<Reply>,
) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match (&*stream).read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => {
                framer.extend(&chunk[..n]);
                let now = Instant::now();
                while let Some(line) = framer.next_line() {
                    let FramedLine::Line(line) = line else {
                        return false;
                    };
                    let Some(f) = inflight.lock().expect("inflight poisoned").pop_front() else {
                        return false; // a response without a request
                    };
                    out.push(Reply {
                        req: f.req,
                        due: f.due,
                        sent: f.sent,
                        recv: now,
                        line,
                    });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

fn write_line(mut stream: &TcpStream, bytes: &[u8]) -> io::Result<()> {
    let mut done = 0;
    while done < bytes.len() {
        match stream.write(&bytes[done..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            // The daemon paused reading us (backpressure): wait a beat.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The receiving side of a phase: one poller over every connection.
struct Receiver<'a> {
    streams: &'a [TcpStream],
    inflight: &'a [Mutex<VecDeque<Inflight>>],
    poller: Poller,
    framers: Vec<LineFramer>,
    alive: Vec<bool>,
    events: Vec<PollEvent>,
    last_progress: Instant,
}

impl<'a> Receiver<'a> {
    fn new(
        streams: &'a [TcpStream],
        inflight: &'a [Mutex<VecDeque<Inflight>>],
    ) -> io::Result<Receiver<'a>> {
        let mut poller = Poller::new()?;
        for (i, s) in streams.iter().enumerate() {
            poller.register(s.as_raw_fd(), i as u64, true, false)?;
        }
        Ok(Receiver {
            streams,
            inflight,
            poller,
            framers: streams.iter().map(|_| LineFramer::new(1 << 24)).collect(),
            alive: vec![true; streams.len()],
            events: Vec::new(),
            last_progress: Instant::now(),
        })
    }

    /// Whether the phase should stop waiting: every connection died, or
    /// nothing arrived for [`STALL_TIMEOUT`].
    fn stuck(&self) -> bool {
        !self.alive.iter().any(|&a| a) || self.last_progress.elapsed() > STALL_TIMEOUT
    }

    /// Waits for readiness and appends what arrived; returns the
    /// connections that got replies, with how many each.
    fn poll(&mut self, replies: &mut Vec<Reply>) -> io::Result<Vec<(usize, usize)>> {
        self.poller
            .wait(&mut self.events, Some(Duration::from_millis(50)))?;
        let mut got = Vec::new();
        for ev in &self.events {
            let c = ev.token as usize;
            if !self.alive[c] {
                continue;
            }
            let before = replies.len();
            if !drain(
                &self.streams[c],
                &mut self.framers[c],
                &self.inflight[c],
                replies,
            ) {
                self.alive[c] = false;
                let _ = self.poller.deregister(self.streams[c].as_raw_fd());
            }
            if replies.len() > before {
                self.last_progress = Instant::now();
                got.push((c, replies.len() - before));
            }
        }
        Ok(got)
    }
}

/// Per connection, the requests awaiting a reply, oldest first.
type InflightQueues = Vec<Mutex<VecDeque<Inflight>>>;

fn open_conns(addr: SocketAddr, n: usize) -> io::Result<(Vec<TcpStream>, InflightQueues)> {
    let streams = connect(addr, n)?;
    for s in &streams {
        s.set_nonblocking(true)?;
    }
    let inflight = streams
        .iter()
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    Ok((streams, inflight))
}

fn finish(start: Instant, sent: usize, replies: Vec<Reply>, rejected: usize) -> Phase {
    Phase {
        sent,
        dropped: sent - replies.len().min(sent),
        start: Some(start),
        end: Some(Instant::now()),
        replies,
        rejected,
    }
}

/// Sends `lines` on the open-loop schedule and collects the replies.
///
/// # Errors
///
/// Connection or poller set-up errors.
pub fn open_loop(addr: SocketAddr, shape: OpenLoop, lines: &[String]) -> io::Result<Phase> {
    let (streams, inflight) = open_conns(addr, shape.conns)?;
    let mut receiver = Receiver::new(&streams, &inflight)?;
    let start = Instant::now();
    let (sent, replies) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = 0;
            for (k, line) in lines.iter().enumerate() {
                if let Some((at, pause)) = shape.stall {
                    if at == k {
                        std::thread::sleep(pause);
                    }
                }
                let due = start + shape.due(k);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let c = k % shape.conns;
                let mut bytes = line.clone().into_bytes();
                bytes.push(b'\n');
                // Register before writing, so the reply always finds it.
                inflight[c]
                    .lock()
                    .expect("inflight poisoned")
                    .push_back(Inflight {
                        req: k,
                        due,
                        sent: Instant::now(),
                    });
                if write_line(&streams[c], &bytes).is_err() {
                    break;
                }
                sent += 1;
            }
            sent
        });
        let mut replies = Vec::with_capacity(lines.len());
        let mut result = Ok(());
        while replies.len() < lines.len() && !receiver.stuck() {
            if let Err(e) = receiver.poll(&mut replies) {
                result = Err(e);
                break;
            }
        }
        (
            sender.join().expect("sender panicked"),
            result.map(|()| replies),
        )
    });
    Ok(finish(start, sent, replies?, 0))
}

/// Closed loop: every connection keeps `window` requests in flight and
/// sends the next one as each reply arrives, until `duration` is over;
/// then the outstanding requests drain. `line(k)` builds request `k`;
/// `check` vets each reply, whose line is then dropped.
///
/// # Errors
///
/// Connection or poller set-up errors.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    window: usize,
    duration: Duration,
    line: &dyn Fn(usize) -> String,
    check: &dyn Fn(&Reply) -> bool,
) -> io::Result<Phase> {
    let (streams, inflight) = open_conns(addr, conns)?;
    let mut receiver = Receiver::new(&streams, &inflight)?;
    let start = Instant::now();
    let deadline = start + duration;
    let mut next = 0usize;
    let mut write_failed = false;
    let mut send = |c: usize| {
        if write_failed || Instant::now() >= deadline {
            return;
        }
        let mut bytes = line(next).into_bytes();
        bytes.push(b'\n');
        let now = Instant::now();
        inflight[c]
            .lock()
            .expect("inflight poisoned")
            .push_back(Inflight {
                req: next,
                due: now,
                sent: now,
            });
        match write_line(&streams[c], &bytes) {
            Ok(()) => next += 1,
            Err(_) => write_failed = true,
        }
    };
    for c in 0..conns {
        for _ in 0..window {
            send(c);
        }
    }
    let mut replies = Vec::new();
    let mut rejected = 0;
    loop {
        let outstanding: usize = inflight
            .iter()
            .map(|q| q.lock().expect("inflight poisoned").len())
            .sum();
        if (outstanding == 0 && Instant::now() >= deadline) || receiver.stuck() {
            break;
        }
        let before = replies.len();
        for (c, n) in receiver.poll(&mut replies)? {
            for _ in 0..n {
                send(c);
            }
        }
        for r in &mut replies[before..] {
            if !check(r) {
                rejected += 1;
            }
            r.line = String::new();
        }
    }
    Ok(finish(start, next, replies, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A line echo server on one thread per connection; it stops after
    /// `conns` connections closed.
    fn echo_server(conns: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let workers: Vec<_> = (0..conns)
                .map(|_| {
                    let (stream, _) = listener.accept().unwrap();
                    std::thread::spawn(move || {
                        let mut out = stream.try_clone().unwrap();
                        for line in BufReader::new(stream).lines() {
                            let Ok(line) = line else { break };
                            if out.write_all(format!("{line}\n").as_bytes()).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_generator_stall_counts_against_the_requests_it_delayed() {
        let (addr, server) = echo_server(1);
        let stall = Duration::from_millis(60);
        let shape = OpenLoop {
            rate: 1000.0,
            conns: 1,
            stall: Some((10, stall)),
        };
        let lines: Vec<String> = (0..40).map(|k| format!("{{\"id\":{k}}}")).collect();
        let phase = open_loop(addr, shape, &lines).unwrap();
        server.join().unwrap();
        assert_eq!(phase.sent, 40);
        assert_eq!(phase.dropped, 0);
        let mut by_req = phase.replies.clone();
        by_req.sort_by_key(|r| r.req);
        for (k, r) in by_req.iter().enumerate() {
            assert_eq!(r.req, k);
            assert_eq!(r.line, lines[k], "replies pair with their requests");
        }
        // Request 10 was due at 10 ms but went out after the 60 ms stall:
        // timed from its due time it carries the whole stall, timed from
        // its send it does not.
        let r10 = &by_req[10];
        assert!(r10.late_ms() >= 55.0, "late {}", r10.late_ms());
        assert!(r10.due_ms() >= 55.0, "due latency {}", r10.due_ms());
        assert!(r10.sent_ms() < 30.0, "sent latency {}", r10.sent_ms());
        // Requests due during the stall wait for it, less how far into
        // the stall they were due; requests before it do not.
        assert!(
            by_req[30].due_ms() >= 55.0 - 20.0 - 5.0,
            "{}",
            by_req[30].due_ms()
        );
        assert!(by_req[5].late_ms() < 30.0);
    }

    #[test]
    fn due_times_follow_the_rate() {
        let shape = OpenLoop {
            rate: 250.0,
            conns: 2,
            stall: None,
        };
        assert_eq!(shape.due(0), Duration::ZERO);
        assert_eq!(shape.due(250), Duration::from_secs(1));
        assert_eq!(shape.due(5), Duration::from_millis(20));
    }

    #[test]
    fn closed_loop_keeps_a_window_and_drains() {
        let (addr, server) = echo_server(2);
        let phase = closed_loop(
            addr,
            2,
            3,
            Duration::from_millis(100),
            &|k| format!("{{\"id\":{k}}}"),
            &|r| r.line == format!("{{\"id\":{}}}", r.req),
        )
        .unwrap();
        server.join().unwrap();
        assert!(phase.sent >= 6);
        assert_eq!(phase.dropped, 0);
        assert_eq!(phase.rejected, 0);
        assert_eq!(phase.replies.len(), phase.sent);
    }
}
