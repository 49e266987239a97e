//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_batch|serve_hot|oracle_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the workload with the span recorder on and
//! prints the per-layer metrics, plus the tracing overhead measured
//! against untraced quarters of the same run. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`; the timed-loop figures in it are scaled to a reference
//! host speed (`speed.rs`), and stderr has them as measured. The line
//! before it carries the output digest. Scratch
//! files go to `.perfbench/` under the working directory. See
//! `perfbench/README.md` for the metric definitions.

mod common;
mod gen;
mod load;
mod oracle;
mod paper_batch;
mod probe;
mod serve;
mod speed;
mod stats;
mod trace;

use common::{Ctx, Measured};
use speed::{Samples, Speed};
use std::path::Path;
use trace::Tracer;

/// One workload of the benchmark.
struct Workload {
    name: &'static str,
    run: fn(&Ctx) -> Measured,
    /// Set-ups per untraced run (the shortest is reported); short
    /// set-ups repeat more, so that some fall outside the host's slow
    /// spells.
    setups: usize,
    /// The percentile `op_tail_ms` reports: the highest that repeats
    /// within a tenth from run to run on this workload, lowered further
    /// when fewer than ten samples would lie beyond it.
    tail_p: f64,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_batch",
        run: paper_batch::run,
        setups: 101,
        tail_p: 99.0,
    },
    // Open-loop p99 follows short queueing bursts and moves by half
    // from run to run; p90 holds.
    Workload {
        name: "serve_hot",
        run: serve::run_hot,
        setups: 15,
        tail_p: 90.0,
    },
    // p99 falls among the few 6×6 games whose exact enumeration solves
    // an LP; p95 holds.
    Workload {
        name: "oracle_sweep",
        run: oracle::run,
        setups: 51,
        tail_p: 95.0,
    },
];

/// Where a per-layer metric's value comes from.
enum Source {
    /// Mean duration per operation of a span, divided into the unit.
    Span(&'static str, f64),
    /// Mean self time of a span, divided into the unit.
    SelfTime(&'static str, f64),
    /// A derived value recorded under the metric's own name.
    Value,
}

const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;

/// The per-layer metrics: name, unit, source.
#[rustfmt::skip]
const LAYERS: &[(&str, &str, Source)] = &[
    ("crossbar.program_ms", "ms", Source::Span("crossbar.program", MS)),
    ("wta.build_us", "us", Source::Span("wta.build", US)),
    ("crossbar.full_eval_ns", "ns", Source::Span("crossbar.full_eval", NS)),
    ("wta.eval_ns", "ns", Source::Span("wta.eval", NS)),
    ("crossbar.delta_step_ns", "ns", Source::Span("crossbar.delta_step", NS)),
    ("anneal.ns_per_iter", "ns", Source::Value),
    ("anneal.iters_per_run", "count", Source::Value),
    ("anneal.accept_ratio", "ratio", Source::Value),
    ("qubo.run_us", "us", Source::Span("qubo.run", US)),
    ("qubo.ns_per_proposal", "ns", Source::Value),
    ("core.run_us", "us", Source::Span("core.run", US)),
    ("core.verify_us", "us", Source::Span("core.verify", US)),
    ("runtime.pool_task_us", "us", Source::Value),
    ("runtime.fold_wait_us", "us", Source::Value),
    ("runtime.batch_overhead_us", "us", Source::SelfTime("runtime.batch_one", US)),
    ("runtime.batch_self_ms", "ms", Source::SelfTime("runtime.batch", MS)),
    ("cache.hit_ratio", "ratio", Source::Value),
    ("cache.prepare_hit_us", "us", Source::Span("cache.prepare_hit", US)),
    ("cache.prepare_miss_ms", "ms", Source::Span("cache.prepare_miss", MS)),
    ("store.open_ms", "ms", Source::Span("store.open", MS)),
    ("store.lookup_us", "us", Source::Span("store.lookup", US)),
    ("store.append_us", "us", Source::Span("store.append", US)),
    ("store.hit_ratio", "ratio", Source::Value),
    ("json.parse_us", "us", Source::Span("json.parse", US)),
    ("json.encode_us", "us", Source::Span("json.encode", US)),
    ("server.execute_us", "us", Source::Span("server.execute", US)),
    ("server.wire_us", "us", Source::Value),
    ("sched.steals", "count", Source::Value),
    ("sched.jobs_executed", "count", Source::Value),
    ("conn.backpressure_stalls", "count", Source::Value),
    ("service.op_solve_p50_us", "us", Source::Value),
    ("game.build_us", "us", Source::Span("game.build", US)),
    ("game.support_enum_ms", "ms", Source::Span("game.support_enum", MS)),
    ("game.lemke_howson_ms", "ms", Source::Span("game.lemke_howson", MS)),
    ("exact.enum_ms", "ms", Source::Span("exact.enum", MS)),
    ("exact.share", "ratio", Source::Value),
    ("client.late_ms", "ms", Source::Value),
    ("trace.overhead_pct", "%", Source::Value),
    ("quality.success_pct", "%", Source::Value),
    ("quality.sim_tts99_us", "us", Source::Value),
];

fn layer_value(tracer: &Tracer, name: &str, source: &Source) -> Option<f64> {
    match source {
        Source::Span(span, unit) => tracer.mean_per_op_ns(span).map(|ns| ns / unit),
        Source::SelfTime(span, unit) => tracer.mean_self_ns(span).map(|ns| ns / unit),
        Source::Value => tracer.value(name),
    }
    .filter(|v| v.is_finite())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value `{value}` for {flag}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => match value.parse() {
                Ok(v) => args.seed = v,
                Err(_) => bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 => args.seconds = v,
                _ => bad(),
            },
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => bad(),
            },
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// One metric of the result line: the value with every digit.
fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() {
    let args = parse_args();
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        usage(&format!("unknown workload `{}`", args.workload));
    };
    let work_dir = Path::new(".perfbench");
    if let Err(e) = std::fs::create_dir_all(work_dir) {
        usage(&format!("cannot create {}: {e}", work_dir.display()));
    }
    let (m, metrics) = if args.trace {
        traced(w, &args, work_dir)
    } else {
        let tracer = Tracer::new(false);
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            setups: w.setups,
            tracer: &tracer,
        };
        let (m, samples) = speed::measure(|| (w.run)(&ctx));
        let metrics = end_to_end(&m, w.tail_p, &samples);
        (m, metrics)
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = m.failed == 0 && m.attempted > 0 && finite;
    println!(
        "perfbench workload={} seed={} trace={} digest={:016x} attempted={} failed={} \
         success_pct={} sim_tts99_us={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        m.digest,
        m.attempted,
        m.failed,
        m.success_pct,
        m.sim_tts99_us
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| metric(n, if v.is_finite() { *v } else { 0.0 }, u))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.attempted.max(1),
        m.failed,
        body.join(",")
    );
}

/// The end-to-end metrics, every timed-loop figure scaled to the
/// reference host speed of the phase that measured it (set-up is the
/// shortest as measured); stderr gets them as measured beside it.
fn end_to_end(
    m: &Measured,
    max_tail_p: f64,
    samples: &Samples,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut sorted = m.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let tail_p = stats::tail_percentile(sorted.len(), max_tail_p);
    let at = |p: f64| {
        if sorted.is_empty() {
            f64::NAN
        } else {
            stats::percentile(&sorted, p)
        }
    };
    let (p50, tail) = (at(50.0), at(tail_p));
    let (latency, rate) = (samples.over(m.latency_window), samples.over(m.rate_window));
    eprintln!(
        "perfbench: {} latency samples, tail at p{tail_p:.2}",
        sorted.len()
    );
    let kernel = |s: &Speed| format!("{:.2} us ({} samples)", s.kernel_ns / 1e3, s.samples);
    eprintln!(
        "perfbench: as measured: setup_s={} ops_per_s={} op_p50_ms={p50} op_tail_ms={tail}; \
         host kernel (reference {:.1} us): latency phase {}, throughput phase {}",
        m.setup_s,
        m.ops_per_s,
        speed::REFERENCE_NS / 1e3,
        kernel(&latency),
        kernel(&rate)
    );
    vec![
        ("setup_s", m.setup_s, "s"),
        ("ops_per_s", rate.rate(m.ops_per_s), "1/s"),
        ("op_p50_ms", latency.time(p50), "ms"),
        ("op_tail_ms", latency.time(tail), "ms"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
    ]
}

/// The traced run: four quarters of the time, untraced, traced, traced,
/// untraced (the order cancels a steady drift in the machine's speed),
/// whose throughput ratio is the tracing overhead; then the layer probe.
fn traced(
    w: &Workload,
    args: &Args,
    work_dir: &Path,
) -> (Measured, Vec<(&'static str, f64, &'static str)>) {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let run = |tracer| {
        (w.run)(&Ctx {
            seed: args.seed,
            seconds: args.seconds / 4.0,
            setups: 1,
            tracer,
        })
    };
    let plain_a = run(&off);
    let traced_a = run(&on);
    let mut m = run(&on);
    let plain_b = run(&off);
    on.set(
        "trace.overhead_pct",
        100.0
            * ((plain_a.ops_per_s + plain_b.ops_per_s) / (traced_a.ops_per_s + m.ops_per_s) - 1.0),
    );
    on.set("quality.success_pct", m.success_pct);
    on.set("quality.sim_tts99_us", m.sim_tts99_us);
    let probe = Tracer::new(true);
    probe::run(&m.probe_games, &probe, work_dir);
    let path = work_dir.join(format!("trace_{}_{}.jsonl", args.workload, args.seed));
    if let Err(e) = on.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let metrics = LAYERS
        .iter()
        .map(|(name, unit, source)| {
            let v = layer_value(&on, name, source)
                .or_else(|| layer_value(&probe, name, source))
                .unwrap_or(f64::NAN);
            (*name, v, *unit)
        })
        .collect();
    for other in [&plain_a, &traced_a, &plain_b] {
        m.attempted += other.attempted;
        m.failed += other.failed;
    }
    (m, metrics)
}
