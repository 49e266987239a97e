//! A hand-rolled nonblocking readiness layer: the dependency budget is
//! "vendored crates only", so instead of mio/tokio this module speaks
//! to the kernel directly — `epoll(7)`, so Linux only — through four
//! `extern "C"` declarations resolved against the libc the standard
//! library already links.
//!
//! The surface is the minimal readiness API the server's event loop
//! (and the `service_load` harness on the client side) needs:
//!
//! * [`Poller`] — register/re-register/deregister a file descriptor
//!   under a caller-chosen `u64` token, then [`Poller::wait`] for
//!   level-triggered readiness events;
//! * [`Waker`] — a clonable, thread-safe handle that makes a blocked
//!   `wait` return, built on a nonblocking `UnixStream::pair` (the
//!   read end is registered like any other fd; completion callbacks on
//!   scheduler shards hold the write end).
//!
//! Error and hang-up conditions are folded into the readiness flags
//! (`readable`/`writable` both set): the owner's next `read`/`write`
//! observes the failure directly, which keeps the loop's close logic
//! in exactly one place.

#[cfg(not(target_os = "linux"))]
compile_error!("cnash-service's reactor needs Linux epoll");

use std::io::{self, Read, Write};
use std::os::raw::c_int;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (or in an error/hang-up state the next read
    /// will observe).
    pub readable: bool,
    /// The fd is writable (or in an error state the next write will
    /// observe).
    pub writable: bool,
}

/// Clamps an optional timeout to the C `int` milliseconds the kernel
/// APIs take (`-1` = block forever).
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
    }
}

mod sys {
    //! One `epoll` instance holds the interest set in the kernel, so
    //! `wait` is O(ready), not O(registered).

    use super::{timeout_ms, PollEvent};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`. Packed on x86-64, where the kernel ABI
    /// has no padding between the 32-bit mask and the 64-bit payload.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn interest_mask(readable: bool, writable: bool) -> u32 {
        let mut mask = 0;
        if readable {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Readiness multiplexer over one `epoll` instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        scratch: Vec<u64>, // raw epoll_event storage, 12 B each on x86-64
    }

    /// How many events one `wait` call can surface (more stay queued
    /// in the kernel for the next call — level-triggered, nothing is
    /// lost).
    const WAIT_CAPACITY: usize = 256;

    impl Poller {
        /// Creates the kernel `epoll` instance (close-on-exec).
        ///
        /// # Errors
        ///
        /// The `epoll_create1` errno, e.g. fd exhaustion.
        pub fn new() -> io::Result<Self> {
            // SAFETY: no pointers involved; a negative return is errno.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            // Size the scratch area in u64s so alignment is at least
            // that of EpollEvent whatever the arch's layout.
            let words = WAIT_CAPACITY * std::mem::size_of::<EpollEvent>().div_ceil(8);
            Ok(Self {
                epfd,
                scratch: vec![0u64; words],
            })
        }

        fn ctl(&mut self, op: c_int, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Adds `fd` to the interest set under `token`.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` errno (e.g. the fd is already registered).
        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest_mask(readable, writable), token)
        }

        /// Replaces the interest of an already-registered `fd`.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` errno (e.g. the fd was never registered).
        pub fn reregister(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest_mask(readable, writable), token)
        }

        /// Removes `fd` from the interest set.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` errno (e.g. the fd was never registered).
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until at least one registered fd is ready (or the
        /// timeout elapses), filling `out` with the ready set.
        ///
        /// # Errors
        ///
        /// The `epoll_wait` errno; [`io::ErrorKind::Interrupted`] on
        /// `EINTR` — callers should retry.
        pub fn wait(
            &mut self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            out.clear();
            // SAFETY: scratch is u64-aligned (≥ EpollEvent's packed
            // alignment) and sized for WAIT_CAPACITY events.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.scratch.as_mut_ptr().cast::<EpollEvent>(),
                    WAIT_CAPACITY as c_int,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                return Err(io::Error::last_os_error());
            }
            for k in 0..n as usize {
                // SAFETY: the kernel wrote `n` events into scratch.
                let ev = unsafe { *self.scratch.as_ptr().cast::<EpollEvent>().add(k) };
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd came from epoll_create1 and is closed once.
            unsafe { close(self.epfd) };
        }
    }
}

pub use sys::Poller;

/// A clonable handle that makes a blocked [`Poller::wait`] return.
///
/// Built on a nonblocking `UnixStream::pair`: [`Waker::wake`] writes
/// one byte into the pair; the read end is registered with the poller
/// like any other fd and drained with [`drain_wakeups`]. A full pipe
/// means a wake-up is already pending, so a `WouldBlock` on the write
/// is success, not failure.
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Creates the waker and the receive end to register with a poller.
    ///
    /// # Errors
    ///
    /// The `socketpair` / `fcntl` errno.
    pub fn new() -> io::Result<(Self, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Self { tx: Arc::new(tx) }, rx))
    }

    /// Makes the poller's current (or next) `wait` return. Never
    /// blocks; infallible by design (a send failure means the receive
    /// end is gone, i.e. the loop already exited).
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// Drains pending wake-up bytes from a [`Waker`]'s receive end (call
/// when the poller reports it readable, before processing whatever the
/// wake-ups announced — any byte written after the drain triggers a
/// fresh readiness event, so no wake-up is ever lost).
pub fn drain_wakeups(rx: &UnixStream) {
    let mut sink = [0u8; 64];
    loop {
        match (&*rx).read(&mut sink) {
            Ok(0) => return,   // all wakers dropped
            Ok(_) => continue, // keep draining
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return, // WouldBlock: drained
        }
    }
}

/// The raw fd of a waker receive end — what gets registered.
pub fn waker_fd(rx: &UnixStream) -> RawFd {
    rx.as_raw_fd()
}

/// Clamps a socket's kernel send buffer (`SO_SNDBUF`).
///
/// The kernel's autotuned per-connection buffers reach tens of
/// megabytes on loopback; at thousands of connections that is the
/// daemon's memory bill, and it hides slow readers from the
/// application-level backpressure accounting. Clamping makes the
/// kernel hand `WouldBlock` back early so the reactor's own bounded
/// write queue is the buffer of record. (The kernel rounds the value
/// up to its floor and doubles it for bookkeeping overhead.)
///
/// # Errors
///
/// The `setsockopt` errno.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    const SOL_SOCKET: c_int = 1;
    const SO_SNDBUF: c_int = 7;
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> c_int;
    }
    let value: c_int = bytes.min(c_int::MAX as usize) as c_int;
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            std::ptr::from_ref(&value).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn reports_readability_when_bytes_arrive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a short wait times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        client.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn reregister_switches_interest_and_deregister_silences() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.write_all(b"x").unwrap();

        let mut poller = Poller::new().unwrap();
        // Write-only interest: pending input must not surface.
        poller.register(server.as_raw_fd(), 1, false, true).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.writable),
            "only writability may surface: {events:?}"
        );

        poller
            .reregister(server.as_raw_fd(), 1, true, false)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.readable && e.token == 1));

        poller.deregister(server.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd still reported");
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let (waker, rx) = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(waker_fd(&rx), 99, true, false).unwrap();

        // Keep a clone alive across the test: dropping the last write
        // end would hang up the pair and leave `rx` forever readable.
        let keepalive = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
            waker.wake(); // coalesced, not lost
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5), "wake-up arrived");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 99);
        // Both wakes are in before draining (no racing writer left).
        handle.join().unwrap();
        drain_wakeups(&rx);
        // Drained: the next wait times out quietly.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        drop(keepalive);
    }
}
