//! The one BENCH report of the CI bench binaries (`perf`,
//! `service_bench`, `store_bench`, `telemetry_bench`, `service_load`):
//! the layout of a `BENCH_<bench>.json` file, its results table, how a
//! gate is judged, and which exit code a violated gate gives.
//!
//! Every binary writes the same document:
//!
//! ```json
//! {
//!   "bench": "service",
//!   "schema_version": 2,
//!   "mode": "quick",
//!   "seed": 0,
//!   "entries": [
//!     { "layer": "cache", "case": "64x64", "metric": "cold_ms",
//!       "value": 41.7, "unit": "ms", "gate": null },
//!     { "layer": "cache", "case": "64x64", "metric": "speedup",
//!       "value": 17.2, "unit": "x",
//!       "gate": { "op": ">=", "bound": 1.5, "ok": true } }
//!   ]
//! }
//! ```
//!
//! `layer` is one of the repository benchmark's per-layer prefixes
//! (`BENCHMARK.json`): `anneal`, `crossbar`, `qubo`, `cache`, `store`,
//! `telemetry`, `server`. A binary pushes its measurements, calls
//! [`Report::write`], then [`Report::enforce_gates`], so the file is on
//! disk before any gate exit. A violated gate exits 1; correctness
//! failures exit 2 through [`crate::client::fail`].

use crate::client::fail;
use crate::Cli;
use cnash_core::report::render_table;
use cnash_runtime::Json;

/// Version of the BENCH document layout.
const SCHEMA_VERSION: u64 = 2;

/// A bound a recorded value must respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// `value >= bound`.
    AtLeast(f64),
    /// `value <= bound`.
    AtMost(f64),
}

impl Gate {
    /// Whether `value` passes the gate (NaN never does).
    fn holds(self, value: f64) -> bool {
        match self {
            Gate::AtLeast(bound) => value >= bound,
            Gate::AtMost(bound) => value <= bound,
        }
    }

    fn op_bound(self) -> (&'static str, f64) {
        match self {
            Gate::AtLeast(bound) => (">=", bound),
            Gate::AtMost(bound) => ("<=", bound),
        }
    }

    fn text(self) -> String {
        let (op, bound) = self.op_bound();
        format!("{op} {}", format_value(bound))
    }
}

struct Entry {
    layer: &'static str,
    case: String,
    metric: &'static str,
    value: f64,
    unit: &'static str,
    gate: Option<Gate>,
}

impl Entry {
    fn gate_json(&self) -> Json {
        match self.gate {
            None => Json::Null,
            Some(gate) => {
                let (op, bound) = gate.op_bound();
                Json::obj([
                    ("op", Json::str(op)),
                    ("bound", Json::Num(bound)),
                    ("ok", Json::Bool(gate.holds(self.value))),
                ])
            }
        }
    }

    fn failed_gate(&self) -> Option<Gate> {
        self.gate.filter(|g| !g.holds(self.value))
    }

    fn gate_cell(&self) -> String {
        self.gate.map_or_else(String::new, |gate| {
            let verdict = if gate.holds(self.value) { "ok" } else { "FAIL" };
            format!("{} {verdict}", gate.text())
        })
    }
}

/// Integers print bare; other values keep about four significant digits.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// One bench run's measurements, written as a `BENCH_<bench>.json` file.
pub struct Report {
    bench: &'static str,
    title: &'static str,
    quick: bool,
    seed: u64,
    out: String,
    entries: Vec<Entry>,
}

impl Report {
    /// Starts the report of bench `bench`; the table printed by
    /// [`Report::write`] carries `title`. Mode, seed and output path
    /// (`--out`, default `BENCH_<bench>.json`) come from `cli`.
    pub fn new(bench: &'static str, title: &'static str, cli: &Cli) -> Self {
        Self {
            bench,
            title,
            quick: cli.quick,
            seed: cli.seed,
            out: cli
                .out
                .clone()
                .unwrap_or_else(|| format!("BENCH_{bench}.json")),
            entries: Vec::new(),
        }
    }

    /// Records one measured value, gated or not.
    pub fn record(
        &mut self,
        layer: &'static str,
        case: &str,
        metric: &'static str,
        value: f64,
        unit: &'static str,
        gate: Option<Gate>,
    ) {
        self.entries.push(Entry {
            layer,
            case: case.to_string(),
            metric,
            value,
            unit,
            gate,
        });
    }

    /// The BENCH document.
    fn to_json(&self) -> Json {
        let entries = self.entries.iter().map(|e| {
            Json::obj([
                ("layer", Json::str(e.layer)),
                ("case", Json::str(e.case.clone())),
                ("metric", Json::str(e.metric)),
                ("value", Json::Num(e.value)),
                ("unit", Json::str(e.unit)),
                ("gate", e.gate_json()),
            ])
        });
        Json::obj([
            ("bench", Json::str(self.bench)),
            ("schema_version", Json::uint(SCHEMA_VERSION)),
            ("mode", Json::str(if self.quick { "quick" } else { "full" })),
            ("seed", Json::uint(self.seed)),
            ("entries", Json::Arr(entries.collect())),
        ])
    }

    /// Prints the results table and writes the BENCH file; a write
    /// failure [`fail`]s (exit 2).
    pub fn write(&self) {
        let rows: Vec<Vec<String>> = self
            .entries
            .iter()
            .map(|e| {
                vec![
                    e.layer.to_string(),
                    e.case.clone(),
                    e.metric.to_string(),
                    format_value(e.value),
                    e.unit.to_string(),
                    e.gate_cell(),
                ]
            })
            .collect();
        let headers = ["layer", "case", "metric", "value", "unit", "gate"];
        println!("{}", render_table(self.title, &headers, &rows));
        if let Err(e) = std::fs::write(&self.out, self.to_json().pretty()) {
            fail(&format!("cannot write {}: {e}", self.out));
        }
        println!("wrote {}", self.out);
    }

    /// Exits 1 if any gated value violates its gate, naming each one.
    pub fn enforce_gates(&self) {
        let mut failed = false;
        for e in &self.entries {
            if let Some(gate) = e.failed_gate() {
                eprintln!(
                    "FAIL: {} {} {} = {} {}, gate {}",
                    e.layer,
                    e.case,
                    e.metric,
                    format_value(e.value),
                    e.unit,
                    gate.text()
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_judge_both_directions_and_reject_nan() {
        assert!(Gate::AtLeast(1.5).holds(1.5));
        assert!(!Gate::AtLeast(1.5).holds(1.49));
        assert!(Gate::AtMost(0.05).holds(0.0));
        assert!(!Gate::AtMost(0.0).holds(1.0));
        assert!(!Gate::AtLeast(1.0).holds(f64::NAN));
        assert!(!Gate::AtMost(1.0).holds(f64::NAN));
    }

    #[test]
    fn document_has_the_one_schema() {
        let cli = Cli {
            seed: 7,
            quick: true,
            ..Cli::default()
        };
        let mut report = Report::new("service", "t", &cli);
        assert_eq!(report.out, "BENCH_service.json");
        report.record("cache", "64x64", "cold_ms", 40.0, "ms", None);
        report.record(
            "cache",
            "64x64",
            "speedup",
            1.2,
            "x",
            Some(Gate::AtLeast(1.5)),
        );
        let doc = Json::parse(&report.to_json().pretty()).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str().unwrap(), "service");
        assert_eq!(doc.get("schema_version").unwrap().as_u64().unwrap(), 2);
        assert_eq!(doc.get("mode").unwrap().as_str().unwrap(), "quick");
        assert_eq!(doc.get("seed").unwrap().as_u64().unwrap(), 7);
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        let keys = ["layer", "case", "metric", "value", "unit", "gate"];
        for entry in entries {
            entry.expect_keys("entry", &keys).unwrap();
            assert!(keys.iter().all(|k| entry.get(k).is_ok()));
        }
        assert_eq!(entries[0].get("gate").unwrap(), &Json::Null);
        let gate = entries[1].get("gate").unwrap();
        assert_eq!(gate.get("op").unwrap().as_str().unwrap(), ">=");
        assert_eq!(gate.get("bound").unwrap().as_f64().unwrap(), 1.5);
        assert!(!gate.get("ok").unwrap().as_bool().unwrap());
    }
}
