//! The JSON-lines wire protocol of the solver service.
//!
//! Every request and every response is a single-line JSON object
//! terminated by `\n` ([`Json::compact`] framing). Requests carry an
//! `op` discriminator and an optional client-chosen `id` that the
//! service echoes back verbatim:
//!
//! ```json
//! {"op":"ping","id":1}
//! {"op":"solve","id":2,"job":{...jobs-file job spec...}}
//! {"op":"solve","id":3,"job":{...},"ground_truth":"skip"}
//! {"op":"stats","id":4}
//! {"op":"metrics","id":5}
//! {"op":"shutdown","id":6}
//! ```
//!
//! The `job` payload is exactly one entry of a `cnash-runtime` jobs
//! file ([`JobSpec`]), so every `GameSpec` wire form is addressable —
//! including seeded generator instances (`{"game":{"random":{...}}}`)
//! and structured family instances
//! (`{"game":{"family":{"name":"covariant","size":8,"knob":-50,"seed":3}}}`,
//! see `cnash_game::families`), which the instance cache keys by the
//! *built* game's canonical payoff fingerprint exactly like any other
//! spec form; `ground_truth` selects whether the service
//! enumerates the game's ground-truth equilibria for coverage
//! statistics (`"enumerate"`, the default) or skips enumeration
//! (`"skip"` — the report then has `target_count = 0`).
//!
//! ## Ground-truth degradation (oversized instances)
//!
//! Support enumeration is exponential in the action count and hard-
//! bounded at `cnash_game::support_enum::MAX_ENUM_ACTIONS` (16) actions
//! per player. A `solve` whose game exceeds that bound under the
//! default `"enumerate"` policy is **not** an error: the service
//! automatically degrades the request to `"skip"` and answers normally,
//! adding `"ground_truth_degraded": true` to the solve response. The
//! flag is present **only** when the degrade happened — an explicit
//! `"skip"` request, or an enumerable game, never carries it — so
//! clients that care about exact coverage statistics should check for
//! it: a degraded response's `covered`/`target_count` fields report
//! against an *empty* ground truth the client did not ask for.
//!
//! ## Strict request parsing
//!
//! Request objects are validated **strictly**: any key the selected
//! `op` does not define is an error naming the offending key (e.g.
//! `unknown key \`jobb\` in solve request` — the usual failure is a
//! typo that would otherwise silently fall back to a default). Every
//! op accepts `op` and `id`; `solve` additionally accepts `job` and
//! `ground_truth`. The same policy applies recursively to the `job`
//! payload — `cnash-runtime` rejects unknown keys in game, solver,
//! job and early-stop objects with the same message shape
//! (`Json::expect_keys`). Like every other decode failure the error is
//! reported per-line in an [`Envelope`]; the connection stays up.
//!
//! ## Ordering and determinism
//!
//! Responses on a connection are streamed **in request order**, even
//! though solve jobs execute concurrently across the scheduler's
//! workers. Combined with the runtime's determinism contract (seed-
//! ordered folding), the *deterministic* part of every solve response —
//! everything except the `wall_ms`/`program_ms` wall-clock fields — is
//! a pure function of the request sequence, whatever the worker count,
//! thread count or worker interleaving. [`strip_timing`] removes exactly
//! the wall-clock fields, which is what the golden-file smoke test
//! diffs against.
//!
//! `stats` responses report cache counters at *emission* time (after
//! every earlier response on the connection has been emitted); they are
//! deterministic whenever no later-submitted or concurrent work races
//! them — in particular a `stats` as the final query of a connection.
//!
//! ## Disk provenance (`cache:"disk"`)
//!
//! A daemon started with `--store <path>` answers a repeat `solve` from
//! its persistent solution store (`crate::store`): the response is the
//! stored deterministic payload — byte-identical to what a cold solve
//! would have produced — plus `"cache":"disk"`, a fresh `wall_ms`, and
//! `program_ms` of `0.0` (nothing was programmed). Cold responses never
//! carry a `cache` key, and a store-less daemon's wire output is
//! byte-unchanged, so golden streams only need to strip `cache` (and
//! the timing fields) to compare cold and disk-hit responses. The
//! `cache_hit` boolean inside a disk-served payload refers to the
//! in-memory instance cache *at record time*, not this request.
//!
//! With a store configured, `stats` responses additionally carry a
//! `"store"` block (`hits`/`misses`/`appends`/`records`), and the
//! `metrics` snapshot gains `store_hits`/`store_misses`/`store_appends`
//! counters, a `store_records` gauge and a `store_open_scan_ns`
//! histogram.
//!
//! ## The `metrics` response schema
//!
//! `{"op":"metrics"}` returns the daemon's full telemetry snapshot.
//! The schema below is **stable**: fields are only ever added, never
//! renamed or removed, and all counts are exact JSON integers
//! ([`Json::uint`] — no `f64` precision cliff). Like `stats`, the
//! snapshot is taken at emission time. The names *inside*
//! `counters` / `gauges` / `histograms` are the daemon's instruments
//! and go when an instrument goes (`sched_steals` and the per-shard
//! `sched_queue_depth_<n>` went with the per-shard scheduler queues).
//!
//! ```json
//! {"id":5,"ok":true,"metrics":{
//!   "enabled":true,
//!   "counters":{"cache_instance_hits":63, "op_solve":64, "sa_runs":640, ...},
//!   "gauges":{"sched_queue_depth":0, ...},
//!   "histograms":{"op_solve_ns":{"count":64,"sum_ns":812345678,
//!     "min_ns":901234,"max_ns":55123456,"mean_ns":12692901.2,
//!     "p50_ns":11534335,"p90_ns":23068671,"p99_ns":50331647,"p999_ns":55123456}, ...},
//!   "events":{"dropped":0,"entries":[{"seq":0,"at_us":1754650000000000,
//!     "kind":"...","detail":"..."}]},
//!   "sa_trace":{"dropped":0,"entries":[...]},
//!   "pool_worker_folds":[1024,1019,997,1008]
//! }}
//! ```
//!
//! * `enabled` — the process-wide telemetry switch
//!   ([`cnash_telemetry::enabled`]). Counters keep counting when it is
//!   off; only timing spans and event pushes stop.
//! * `counters` / `gauges` / `histograms` — the daemon registry
//!   (per-op latencies `op_<name>_ns`, scheduler `sched_*`, cache
//!   `cache_*`) merged with the process-global hot-path aggregates
//!   (`sa_runs`, `sa_sweeps`, `sa_accepts`, `pool_tasks`,
//!   `pool_task_ns`, `pool_fold_wait_ns`). Histogram quantiles are the
//!   log-bucketed upper bounds (≤ ~3.2% relative error), clamped to
//!   the observed `max_ns`; `min_ns` is 0 while a histogram is empty.
//! * `events` — the registry event ring, oldest first, with the exact
//!   count of evicted entries; `sa_trace` — the sampled annealer
//!   energy trajectory ring (empty unless sampling is enabled, see
//!   `serviced --sa-trace-interval` /
//!   [`cnash_telemetry::hot::set_sa_trace_interval`]).
//! * `pool_worker_folds` — per-worker-slot fold counts from the
//!   deterministic fold pool, trimmed to the highest slot seen.
//!
//! Because the hot-path aggregates are process-global, embedded
//! daemons sharing one process also share those totals; the
//! registry-backed sections are strictly per-daemon.

use cnash_runtime::spec::JobSpec;
use cnash_runtime::{Json, SpecError};
use cnash_telemetry::{hot, Event, HistSnapshot, RegistrySnapshot};

/// How a solve request obtains ground-truth equilibria.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthPolicy {
    /// Support-enumerate (and cache) the game's equilibria — exact
    /// coverage statistics, intractable for large games.
    Enumerate,
    /// Skip enumeration: `covered`/`target_count` report against an
    /// empty ground truth.
    Skip,
}

/// A parsed service request.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Schedule one batch job.
    Solve {
        /// The job to run.
        job: Box<JobSpec>,
        /// Ground-truth policy.
        truth: TruthPolicy,
    },
    /// Cache / scheduler statistics.
    Stats,
    /// Full telemetry snapshot (see the module docs for the schema).
    Metrics,
    /// Orderly daemon shutdown.
    Shutdown,
}

/// A request line decoded far enough to answer it: the echoed `id` and
/// either the request or the error to report.
#[derive(Debug)]
pub struct Envelope {
    /// The client's `id` node, echoed verbatim (`Json::Null` if absent
    /// or the line was unparseable).
    pub id: Json,
    /// The decoded request.
    pub request: Result<Request, SpecError>,
}

/// Decodes one request line.
///
/// Never fails outright: undecodable lines produce an [`Envelope`]
/// whose `request` is the error to send back, with whatever `id` could
/// still be recovered.
pub(crate) fn parse_request(line: &str) -> Envelope {
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            return Envelope {
                id: Json::Null,
                request: Err(SpecError {
                    message: format!("malformed request line: {e}"),
                }),
            }
        }
    };
    let id = doc.opt("id").cloned().unwrap_or(Json::Null);
    let request = decode(&doc);
    Envelope { id, request }
}

fn decode(doc: &Json) -> Result<Request, SpecError> {
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .map_err(|e| SpecError {
            message: format!("request needs a string `op`: {e}"),
        })?;
    // Unknown keys are rejected naming the key (see the module docs):
    // a typo'd field must not silently act as its default.
    const BARE_KEYS: &[&str] = &["op", "id"];
    match op {
        "ping" => {
            doc.expect_keys("ping request", BARE_KEYS)?;
            Ok(Request::Ping)
        }
        "stats" => {
            doc.expect_keys("stats request", BARE_KEYS)?;
            Ok(Request::Stats)
        }
        "metrics" => {
            doc.expect_keys("metrics request", BARE_KEYS)?;
            Ok(Request::Metrics)
        }
        "shutdown" => {
            doc.expect_keys("shutdown request", BARE_KEYS)?;
            Ok(Request::Shutdown)
        }
        "solve" => {
            doc.expect_keys("solve request", &["op", "id", "job", "ground_truth"])?;
            let job = doc.get("job").map_err(|e| SpecError {
                message: format!("solve request: {e}"),
            })?;
            let truth = match doc.opt("ground_truth").map(Json::as_str).transpose()? {
                None | Some("enumerate") => TruthPolicy::Enumerate,
                Some("skip") => TruthPolicy::Skip,
                Some(other) => {
                    return Err(SpecError {
                        message: format!(
                            "unknown ground_truth policy `{other}` (expected `enumerate` or `skip`)"
                        ),
                    })
                }
            };
            Ok(Request::Solve {
                job: Box::new(JobSpec::from_json(job)?),
                truth,
            })
        }
        other => Err(SpecError {
            message: format!("unknown op `{other}`"),
        }),
    }
}

/// Builds an error response.
pub(crate) fn error_response(id: &Json, message: &str) -> Json {
    Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
    ])
}

/// The daemon's build identity: crate version and the compiler that
/// produced the binary (both captured at compile time).
pub fn build_info() -> Json {
    Json::obj([
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("rustc", Json::str(env!("CNASH_RUSTC_VERSION"))),
    ])
}

/// Builds the `ping` response. Carries the daemon's [`build_info`] so
/// a liveness probe doubles as a version check (golden-file tooling
/// strips the `build` block — it varies with the toolchain).
pub(crate) fn pong_response(id: &Json) -> Json {
    Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("pong", Json::Bool(true)),
        ("build", build_info()),
    ])
}

/// Renders one histogram snapshot in the wire schema (see module
/// docs): exact integer count/sum/min/max plus log-bucketed
/// percentiles, all in nanoseconds.
fn histogram_json(h: &HistSnapshot) -> Json {
    Json::obj([
        ("count", Json::uint(h.count)),
        ("sum_ns", Json::uint(h.sum)),
        ("min_ns", Json::uint(if h.count == 0 { 0 } else { h.min })),
        ("max_ns", Json::uint(h.max)),
        ("mean_ns", Json::num(h.mean())),
        ("p50_ns", Json::uint(h.quantile(0.50))),
        ("p90_ns", Json::uint(h.quantile(0.90))),
        ("p99_ns", Json::uint(h.quantile(0.99))),
        ("p999_ns", Json::uint(h.quantile(0.999))),
    ])
}

/// Renders an event list plus its exact eviction count.
fn events_json(entries: &[Event], dropped: u64) -> Json {
    Json::obj([
        ("dropped", Json::uint(dropped)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("seq", Json::uint(e.seq)),
                            ("at_us", Json::uint(e.at_us)),
                            ("kind", Json::str(e.kind)),
                            ("detail", Json::str(&e.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Builds the `metrics` response from the daemon's registry snapshot,
/// folding in the process-global hot-path aggregates
/// ([`cnash_telemetry::hot`]). The schema is documented (and kept
/// stable) in the module docs.
pub fn metrics_response(id: &Json, snapshot: &RegistrySnapshot) -> Json {
    let mut counters: Vec<(String, Json)> = snapshot
        .counters
        .iter()
        .map(|(name, &v)| (name.clone(), Json::uint(v)))
        .collect();
    for (name, counter) in [
        ("pool_tasks", &hot::POOL_TASKS),
        ("sa_accepts", &hot::SA_ACCEPTS),
        ("sa_runs", &hot::SA_RUNS),
        ("sa_sweeps", &hot::SA_SWEEPS),
    ] {
        counters.push((name.to_string(), Json::uint(counter.get())));
    }
    counters.sort_by(|a, b| a.0.cmp(&b.0));

    let gauges: Vec<(String, Json)> = snapshot
        .gauges
        .iter()
        .map(|(name, &v)| {
            let value = u64::try_from(v).map_or_else(|_| Json::num(v as f64), Json::uint);
            (name.clone(), value)
        })
        .collect();

    let mut histograms: Vec<(String, Json)> = snapshot
        .histograms
        .iter()
        .map(|(name, h)| (name.clone(), histogram_json(h)))
        .collect();
    for (name, hist) in [
        ("pool_fold_wait_ns", &hot::POOL_FOLD_WAIT_NS),
        ("pool_task_ns", &hot::POOL_TASK_NS),
    ] {
        histograms.push((name.to_string(), histogram_json(&hist.snapshot())));
    }
    histograms.sort_by(|a, b| a.0.cmp(&b.0));

    let (trace, trace_dropped) = hot::SA_TRACE.snapshot();
    let metrics = Json::obj([
        ("enabled", Json::Bool(cnash_telemetry::enabled())),
        ("counters", Json::Obj(counters.into_iter().collect())),
        ("gauges", Json::Obj(gauges.into_iter().collect())),
        ("histograms", Json::Obj(histograms.into_iter().collect())),
        (
            "events",
            events_json(&snapshot.events, snapshot.events_dropped),
        ),
        ("sa_trace", events_json(&trace, trace_dropped)),
        (
            "pool_worker_folds",
            Json::Arr(hot::worker_folds().into_iter().map(Json::uint).collect()),
        ),
    ]);
    Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("metrics", metrics),
    ])
}

/// Builds the `shutdown` acknowledgement.
pub(crate) fn shutdown_response(id: &Json) -> Json {
    Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("shutting_down", Json::Bool(true)),
    ])
}

/// Removes the wall-clock fields (`wall_ms`, `program_ms`) from a
/// response, leaving only the deterministic payload — the golden-file
/// normal form (see the module docs).
pub fn strip_timing(response: &mut Json) {
    if let Json::Obj(map) = response {
        map.remove("wall_ms");
        map.remove("program_ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert!(matches!(
            parse_request(r#"{"op":"ping","id":1}"#).request,
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).request,
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics","id":5}"#).request,
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown","id":"bye"}"#).request,
            Ok(Request::Shutdown)
        ));
        let line = r#"{"op":"solve","id":7,"job":{"game":{"builtin":"matching_pennies"},
            "solver":{"type":"ideal","preset":"ideal","intervals":12},"runs":3},
            "ground_truth":"skip"}"#
            .replace('\n', " ");
        let env = parse_request(&line);
        assert_eq!(env.id, Json::num(7.0));
        match env.request {
            Ok(Request::Solve { job, truth }) => {
                assert_eq!(job.runs, 3);
                assert_eq!(truth, TruthPolicy::Skip);
            }
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn recovers_ids_from_bad_requests() {
        let env = parse_request(r#"{"op":"warp","id":9}"#);
        assert_eq!(env.id, Json::num(9.0));
        assert!(env.request.is_err());
        let env = parse_request("not json at all");
        assert_eq!(env.id, Json::Null);
        assert!(env.request.is_err());
        assert!(parse_request(r#"{"op":"solve","id":1}"#).request.is_err());
        assert!(
            parse_request(r#"{"op":"solve","id":1,"job":{},"ground_truth":"maybe"}"#)
                .request
                .is_err()
        );
    }

    #[test]
    fn unknown_request_keys_are_rejected_naming_the_key() {
        let cases = [
            (r#"{"op":"ping","id":1,"pong":true}"#, "pong"),
            (r#"{"op":"stats","verbose":true}"#, "verbose"),
            (r#"{"op":"metrics","id":2,"format":"json"}"#, "format"),
            (r#"{"op":"shutdown","id":3,"force":true}"#, "force"),
            (
                r#"{"op":"solve","id":4,"jobb":{"game":{"builtin":"matching_pennies"}}}"#,
                "jobb",
            ),
        ];
        for (line, key) in cases {
            let err = parse_request(line).request.expect_err(line).message;
            assert!(
                err.contains(&format!("unknown key `{key}`")),
                "{line}: {err}"
            );
        }
        // The strictness recurses into the job payload via the runtime.
        let line = r#"{"op":"solve","id":5,"job":{"game":{"builtin":"matching_pennies"},"solver":{"type":"ideal"},"runz":2}}"#;
        let err = parse_request(line).request.expect_err(line).message;
        assert!(err.contains("unknown key `runz`"), "{err}");
    }

    #[test]
    fn pong_carries_build_info() {
        let pong = pong_response(&Json::num(1.0));
        let build = pong.get("build").unwrap();
        assert_eq!(
            build.get("version").unwrap().as_str().unwrap(),
            env!("CARGO_PKG_VERSION")
        );
        assert!(build
            .get("rustc")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("rustc"));
    }

    #[test]
    fn metrics_response_has_the_documented_shape() {
        let reg = cnash_telemetry::Registry::new();
        reg.counter("op_ping").add(3);
        reg.gauge("sched_queue_depth").set(0);
        reg.histogram("op_solve_ns").record(1500);
        let _ = reg.events().push("smoke", "hello".into());
        let resp = metrics_response(&Json::num(9.0), &reg.snapshot());
        assert_eq!(resp.get("ok").unwrap(), &Json::Bool(true));
        let m = resp.get("metrics").unwrap();
        assert!(matches!(m.get("enabled").unwrap(), Json::Bool(_)));
        let counters = m.get("counters").unwrap();
        assert_eq!(counters.get("op_ping").unwrap().as_u64().unwrap(), 3);
        // The process-global hot aggregates are merged in by name.
        for name in ["sa_runs", "sa_sweeps", "sa_accepts", "pool_tasks"] {
            assert!(
                counters.get(name).unwrap().as_u64().is_ok(),
                "missing {name}"
            );
        }
        assert_eq!(
            m.get("gauges").unwrap().get("sched_queue_depth").unwrap(),
            &Json::uint(0)
        );
        let hist = m.get("histograms").unwrap().get("op_solve_ns").unwrap();
        for key in [
            "count", "sum_ns", "min_ns", "max_ns", "mean_ns", "p50_ns", "p90_ns", "p99_ns",
            "p999_ns",
        ] {
            assert!(hist.get(key).is_ok(), "missing histogram field {key}");
        }
        assert_eq!(hist.get("count").unwrap().as_u64().unwrap(), 1);
        // Quantiles clamp to the observed max: a single observation is
        // every percentile.
        assert_eq!(hist.get("p999_ns").unwrap().as_u64().unwrap(), 1500);
        let events = m.get("events").unwrap();
        assert_eq!(events.get("dropped").unwrap().as_u64().unwrap(), 0);
        let entry = &events.get("entries").unwrap().as_arr().unwrap()[0];
        assert_eq!(entry.get("kind").unwrap().as_str().unwrap(), "smoke");
        assert!(m.get("sa_trace").unwrap().get("dropped").is_ok());
        assert!(m.get("pool_worker_folds").unwrap().as_arr().is_ok());
    }

    #[test]
    fn strip_timing_removes_only_wall_clock_fields() {
        let mut doc = Json::obj([
            ("id", Json::num(1.0)),
            ("wall_ms", Json::Num(12.5)),
            ("program_ms", Json::Num(3.25)),
            ("cache_hit", Json::Bool(true)),
        ]);
        strip_timing(&mut doc);
        assert_eq!(
            doc,
            Json::obj([("id", Json::num(1.0)), ("cache_hit", Json::Bool(true))])
        );
    }
}
