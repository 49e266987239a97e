//! # cnash-service: the persistent solver daemon
//!
//! Everything below this crate solves *one* batch and exits; this
//! crate is the long-running layer that serves solve traffic
//! continuously — the ROADMAP's service axis:
//!
//! * [`protocol`] — JSON-lines over TCP: `ping` / `solve` / `stats` /
//!   `metrics` / `shutdown` requests, one JSON object per line,
//!   responses streamed back **in request order** per connection;
//! * [`cache`] — the instance cache: programmed bi-crossbars and
//!   S-QUBOs memoized by the game's canonical payoff fingerprint
//!   (`cnash_game::canonical`) plus the programming-relevant config
//!   fingerprints, with single-flight builds and cached ground truth —
//!   repeated and parameter-swept requests skip the `O(n·m)`
//!   mapping/programming path entirely;
//! * [`sched`] — the scheduler: one FIFO job queue (`cnash-runtime`'s
//!   `WorkQueue`) served by a fixed set of worker threads, each running
//!   one solve at a time on its own thread; shutdown drains the queue;
//! * [`reactor`] — the hand-rolled nonblocking readiness layer
//!   (Linux epoll) plus a cross-thread waker;
//! * [`framing`] — incremental line framing and the bounded
//!   per-connection write queue with backpressure verdicts;
//! * [`store`] — the persistent pre-solve store: an append-only,
//!   checksummed record log of deterministic solve payloads keyed by
//!   canonical-game × solver/hardware fingerprints, rebuilt by one
//!   scan on open (corruption is skipped and compacted, never a
//!   crash). With `serviced --store <path>` the daemon warm-boots from
//!   it and answers repeat solves in O(lookup) with a `"cache":"disk"`
//!   provenance flag; the `presolve` sweeper fills it offline;
//! * [`server`] — the single-threaded reactor event loop driving
//!   every connection's state machine (accept, frame, schedule,
//!   reorder, flush, drain) on top of the layers above.
//!
//! The determinism contract extends the runtime's: for a fixed request
//! sequence on one connection, every response payload except the
//! wall-clock fields is bit-identical whatever the worker count or
//! worker interleaving ([`protocol::strip_timing`]
//! removes the wall-clock fields; CI's `service-smoke` job diffs the
//! stripped stream against a golden file).
//!
//! ## Quickstart
//!
//! ```
//! use cnash_service::{serve, ServiceConfig};
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//!
//! let handle = serve(ServiceConfig::default()).unwrap();
//! let mut conn = TcpStream::connect(handle.addr()).unwrap();
//! conn.write_all(
//!     b"{\"op\":\"solve\",\"id\":1,\"job\":{\
//!        \"game\":{\"builtin\":\"matching_pennies\"},\
//!        \"solver\":{\"type\":\"cnash\",\"preset\":\"ideal\",\
//!                    \"intervals\":12,\"iterations\":2000},\
//!        \"runs\":2}}\n",
//! )
//! .unwrap();
//! let mut line = String::new();
//! BufReader::new(conn.try_clone().unwrap()).read_line(&mut line).unwrap();
//! assert!(line.contains("\"ok\":true"));
//! handle.stop();
//! ```

pub mod cache;
pub mod framing;
pub mod protocol;
pub mod reactor;
pub mod sched;
pub mod server;
pub mod store;

pub use cache::{CacheStats, InstanceCache, PreparedJob};
pub use protocol::{strip_timing, Request, TruthPolicy};
pub use sched::Scheduler;
pub use server::{execute_solve, serve, ServiceConfig, ServiceHandle, ShutdownSignal};
pub use store::{solve_key, FsckReport, OpenReport, SolutionStore, StoreStats};
