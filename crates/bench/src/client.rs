//! Client-side plumbing for the solver service's JSON-lines protocol.
//!
//! Shared by the `service_client` CLI, the service bench harnesses
//! (`service_bench`, `store_bench`, `telemetry_bench`, `service_load`)
//! and the repository-root round-trip test: a thin line-framed
//! connection, the golden-file normalisation (strip wall-clock fields,
//! re-serialise canonically), and the benches' request builder and
//! checked solve round trip.

use cnash_runtime::spec::{ConfigSpec, GameSpec, JobSpec, SolverSpec};
use cnash_runtime::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A line-framed connection to the solver service.
pub struct ServiceConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServiceConn {
    /// Connects to the service.
    ///
    /// # Errors
    ///
    /// Propagates resolution/connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { reader, writer })
    }

    /// Sends one request line.
    ///
    /// The line and its newline go out in one write: split in two, the
    /// newline waits on Nagle's algorithm for the ACK of the first
    /// segment, which the peer delays, stalling every serial round trip
    /// by tens of milliseconds.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let line = line.trim();
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.writer.flush()
    }

    /// Receives one response line (`None` on EOF).
    ///
    /// # Errors
    ///
    /// Propagates read errors.
    pub fn recv_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        match self.reader.read_line(&mut line)? {
            0 => Ok(None),
            _ => Ok(Some(line.trim_end().to_string())),
        }
    }

    /// Sends a request and awaits its response (serial mode).
    ///
    /// # Errors
    ///
    /// Errors if the connection drops before the response arrives.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.recv_line()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "service closed the connection before responding",
            )
        })
    }

    /// Half-closes the write side so the service sees EOF and the
    /// remaining responses can be drained with [`ServiceConn::recv_line`].
    pub fn finish_writes(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
    }
}

/// Checks that a response line is what the protocol promises: a single
/// JSON *object*. The `service_client` binary calls this on every
/// received line and exits non-zero on the first violation — a corrupt
/// or truncated line must never be passed downstream as if it were a
/// report.
///
/// # Errors
///
/// Returns a description of why the line is not a protocol response.
pub fn validate_response(line: &str) -> Result<(), String> {
    match Json::parse(line) {
        Ok(Json::Obj(_)) => Ok(()),
        Ok(other) => Err(format!(
            "expected a JSON object, got {}",
            match other {
                Json::Arr(_) => "an array",
                Json::Str(_) => "a string",
                Json::Num(_) => "a number",
                Json::Bool(_) => "a boolean",
                _ => "null",
            }
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Normalises a response line for golden-file comparison: parses it,
/// strips the wall-clock fields (`wall_ms`/`program_ms`), the
/// toolchain-dependent `build` block of a ping, the
/// scheduling-dependent `scheduler` block of a stats response, and the
/// solution-store provenance — the `cache:"disk"` flag on a disk-served
/// solve and the `store` stats block, both of which depend on what a
/// daemon's store happened to hold, not on the request — then
/// re-serialises canonically (sorted keys, compact framing). A
/// store-less daemon's stream normalises to exactly what it did before
/// stores existed, and a disk hit normalises byte-identically to the
/// cold solve it replayed. Unparseable lines pass through untouched so
/// a diff still shows them (the `service_client` binary rejects them
/// via [`validate_response`] before ever getting here).
pub fn normalise_response(line: &str) -> String {
    match Json::parse(line) {
        Ok(mut doc) => {
            cnash_service::strip_timing(&mut doc);
            if let Json::Obj(map) = &mut doc {
                map.remove("build");
                map.remove("scheduler");
                map.remove("cache");
                map.remove("store");
            }
            doc.compact()
        }
        Err(_) => line.to_string(),
    }
}

/// Builds the service benches' `solve` request line: a seeded
/// `size`×`size` random game (payoffs `0..=3`) on the paper-preset
/// C-Nash solver at `iterations` SA steps, one run from `seed`, with
/// ground truth skipped — support enumeration is intractable at bench
/// sizes, and coverage is not what the benches measure.
pub fn solve_request(id: usize, size: usize, iterations: usize, seed: u64, label: &str) -> String {
    let job = JobSpec {
        game: GameSpec::Random {
            rows: size,
            cols: size,
            max_payoff: 3,
            seed,
        },
        solver: SolverSpec::CNash {
            config: ConfigSpec::paper(12).with_iterations(iterations),
            hardware_seed: 0,
        },
        runs: 1,
        base_seed: seed,
        early_stop: None,
        label: Some(label.to_string()),
    };
    Json::obj([
        ("op", Json::str("solve")),
        ("id", Json::num(id as f64)),
        ("job", job.to_json()),
        ("ground_truth", Json::str("skip")),
    ])
    .compact()
}

/// Reports a bench protocol or setup failure on stderr and exits with
/// status 2, the service benches' shared "not a measurement" code.
pub fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(2);
}

/// One checked solve round trip: a dropped connection, an unparseable
/// response, `"ok": false` or a missing `wall_ms` all [`fail`]. Returns
/// the parsed response and its server-reported `wall_ms`.
pub fn timed_solve(conn: &mut ServiceConn, request: &str) -> (Json, f64) {
    let response = conn
        .round_trip(request)
        .unwrap_or_else(|e| fail(&format!("service connection died: {e}")));
    let doc =
        Json::parse(&response).unwrap_or_else(|e| fail(&format!("unparseable response: {e}")));
    if !doc.get("ok").and_then(Json::as_bool).unwrap_or(false) {
        fail(&format!("solve rejected: {response}"));
    }
    let wall = doc
        .get("wall_ms")
        .and_then(Json::as_f64)
        .unwrap_or_else(|e| fail(&format!("response lacks wall_ms: {e}")));
    (doc, wall)
}

/// The `cache_hit` flag of a solve response; a response without one
/// [`fail`]s.
pub fn cache_hit(doc: &Json) -> bool {
    doc.get("cache_hit")
        .and_then(Json::as_bool)
        .unwrap_or_else(|e| fail(&format!("response lacks cache_hit: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_service::{serve, ServiceConfig};

    #[test]
    fn round_trips_against_a_live_service() {
        let handle = serve(ServiceConfig::default()).unwrap();
        let mut conn = ServiceConn::connect(handle.addr()).unwrap();
        let pong = conn.round_trip(r#"{"op":"ping","id":1}"#).unwrap();
        assert!(pong.contains("\"pong\":true"));
        conn.finish_writes();
        assert_eq!(conn.recv_line().unwrap(), None, "EOF after half-close");
        handle.stop();
    }

    #[test]
    fn normalise_strips_wall_clock_and_canonicalises() {
        let raw = r#"{"wall_ms": 3.5, "ok": true, "program_ms": 1.0, "id": 2}"#;
        assert_eq!(normalise_response(raw), r#"{"id":2,"ok":true}"#);
        assert_eq!(normalise_response("garbage"), "garbage");
        // Toolchain- and scheduling-dependent blocks go too.
        let ping = r#"{"id":1,"ok":true,"pong":true,"build":{"version":"0.2.0"}}"#;
        assert_eq!(
            normalise_response(ping),
            r#"{"id":1,"ok":true,"pong":true}"#
        );
        let stats = r#"{"id":2,"ok":true,"scheduler":{"jobs_executed":3},"shards":2}"#;
        assert_eq!(
            normalise_response(stats),
            r#"{"id":2,"ok":true,"shards":2}"#
        );
        // Store provenance goes too: a disk hit normalises to the cold
        // solve it replayed, and store-bearing stats match store-less.
        let disk_hit = r#"{"cache":"disk","id":3,"ok":true,"program_ms":0.0,"wall_ms":0.1}"#;
        assert_eq!(normalise_response(disk_hit), r#"{"id":3,"ok":true}"#);
        let stats = r#"{"id":4,"ok":true,"shards":2,"store":{"hits":7}}"#;
        assert_eq!(
            normalise_response(stats),
            r#"{"id":4,"ok":true,"shards":2}"#
        );
    }

    #[test]
    fn validate_rejects_non_protocol_lines() {
        assert!(validate_response(r#"{"id":1,"ok":true}"#).is_ok());
        // Truncated JSON (a dropped connection mid-line), non-objects
        // and plain garbage are all protocol violations.
        assert!(validate_response(r#"{"id":1,"ok":tr"#).is_err());
        assert!(validate_response("[1,2,3]").is_err());
        assert!(validate_response("42").is_err());
        assert!(validate_response("HTTP/1.1 400 Bad Request").is_err());
    }

    #[test]
    fn dropped_connection_surfaces_as_an_error_not_eof() {
        // A peer that vanishes mid-stream must yield a distinguishable
        // outcome from a clean EOF so the client can exit non-zero with
        // the right message. `round_trip` maps clean EOF to an error
        // too: no response is never success.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            // Accept and immediately drop the socket: the client's read
            // sees EOF before any response arrives.
            let _ = listener.accept().unwrap();
        });
        let mut conn = ServiceConn::connect(addr).unwrap();
        accept.join().unwrap();
        // Depending on timing the OS reports the vanished peer as a
        // clean EOF (mapped to UnexpectedEof) or a connection reset —
        // either way round_trip must be an error, never Ok.
        let err = conn.round_trip(r#"{"op":"ping"}"#).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected error kind: {err:?}"
        );
    }
}
