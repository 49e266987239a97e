//! Reproduction binaries and the differential-verification harness.
//!
//! This crate carries two kinds of executables: the **paper-artefact
//! binaries** (Table 1, Figs. 7–10, `batch`, `perf`, the service
//! clients) and the **`diffcheck` differential oracle fuzzer** — the
//! repository's strongest evidence that the analog C-Nash pipeline
//! finds true Nash equilibria. The README's "Reproduction binaries"
//! section lists which binary regenerates which paper artefact; the full
//! correctness chain is documented in `docs/VERIFICATION.md`.
//!
//! # Differential-fuzzing methodology ([`diffcheck`])
//!
//! The harness sweeps a **family × size × seed grid** of structured
//! games (`cnash_game::families` — six GAMUT-style seeded generators —
//! plus a uniform-random baseline column) and checks two layers per
//! grid point, fanned across the `cnash-runtime` worker pool with
//! grid-order folding, so summaries are bit-identical at any thread
//! count:
//!
//! 1. **Oracle self-consistency.** The two exact oracles share no code
//!    (support enumeration, Lemke–Howson). Per point, enumeration must
//!    find at least one equilibrium (Nash's theorem), and every
//!    Lemke–Howson solution must certificate-verify *and* appear in
//!    the enumerated set. Any violation is an `oracle_disagreement` —
//!    a fatal finding against the ground truth itself.
//! 2. **Solver soundness.** Every hardware-solver run that *claims* a
//!    hit is re-verified through an independently computed
//!    `cnash_core::certificate::Certificate`.
//!
//! ## Mismatch taxonomy
//!
//! * **`false_equilibrium`** — a claimed hit the certificate rejects.
//!   The one class that is always a bug; it fails the sweep and is
//!   minimized into a replayable counterexample jobs file.
//! * **missed but allowed** — a run that found nothing. The solvers
//!   are stochastic; misses are counted, never fatal.
//! * **unlisted-valid** — a certificate-valid hit absent from the
//!   enumerated set. Possible on degenerate games whose equilibria
//!   form *continua* a finite enumeration can only sample; each such
//!   hit is matched **structurally** against the oracle's continuum
//!   representatives (support-pair classes,
//!   `cnash_game::SupportClass`) and reported under its class label.
//!   A hit no class explains is counted `unlisted_unclassified` and
//!   gated to zero on the quick grid in CI.
//!
//! # Shared CLI
//!
//! Every binary accepts a subset of one flag table (unsupported flags
//! are rejected, never ignored):
//!
//! * `--runs N` — independent runs per (solver, game) pair (default 500),
//! * `--full` — the paper's full 5000 runs with the paper's iteration
//!   budgets (slow!),
//! * `--seed S` — base RNG seed (default 0),
//! * `--threads T` — worker threads for the parallel runtime
//!   (default 0 = all cores),
//! * `--jobs-file PATH` — run a JSON jobs file through the portfolio
//!   runtime (the `batch` binary) or replay a counterexample
//!   (`diffcheck`),
//! * `--help` — binary-specific usage (for `diffcheck`: including its
//!   exit-code contract).

pub mod client;
pub mod diffcheck;
pub mod report;

use cnash_core::baselines::DWaveNashSolver;
use cnash_core::{CNashConfig, CNashSolver, GameReport, NashSolver};
use cnash_game::games::{paper_benchmarks, PaperBenchmark};
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::Equilibrium;
use cnash_qubo::dwave::DWaveModel;
use cnash_runtime::BatchRunner;

/// One flag of the shared reproduction CLI.
struct FlagSpec {
    name: &'static str,
    /// Placeholder of the flag's value (`None` = boolean switch).
    value: Option<&'static str>,
    help: &'static str,
}

/// The single flag table every reproduction binary shares.
const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--runs",
        value: Some("N"),
        help: "independent runs per (solver, game) pair [500]",
    },
    FlagSpec {
        name: "--seed",
        value: Some("S"),
        help: "base RNG seed [0]",
    },
    FlagSpec {
        name: "--full",
        value: None,
        help: "the paper's full 5000-run budgets (slow!)",
    },
    FlagSpec {
        name: "--threads",
        value: Some("T"),
        help: "worker threads for the parallel runtime [0 = all cores]",
    },
    FlagSpec {
        name: "--jobs-file",
        value: Some("PATH"),
        help: "JSON jobs file to run through the portfolio runtime",
    },
    FlagSpec {
        name: "--quick",
        value: None,
        help: "reduced measurement grid for CI smoke runs (perf binary)",
    },
    FlagSpec {
        name: "--out",
        value: Some("PATH"),
        help: "output path for machine-readable BENCH_*.json artefacts",
    },
    FlagSpec {
        name: "--addr",
        value: Some("HOST:PORT"),
        help: "solver-service address (service_client)",
    },
    FlagSpec {
        name: "--requests",
        value: Some("PATH"),
        help: "JSON-lines request file to stream to the service",
    },
    FlagSpec {
        name: "--conns",
        value: Some("N"),
        help: "concurrent connections to open (service_load) [1000]",
    },
    FlagSpec {
        name: "--per-conn",
        value: Some("K"),
        help: "pipelined requests per connection (service_load) [8]",
    },
    FlagSpec {
        name: "--golden",
        value: None,
        help: "strip wall-clock fields from responses (golden-file diffing)",
    },
    FlagSpec {
        name: "--stats-json",
        value: Some("PATH"),
        help: "after the replay, fetch the daemon's stats and write them to PATH",
    },
    FlagSpec {
        name: "--serial",
        value: None,
        help: "await each response before sending the next request",
    },
    FlagSpec {
        name: "--store",
        value: Some("PATH"),
        help: "persistent solution-store log (presolve, store, store_bench)",
    },
    FlagSpec {
        name: "--emit-requests",
        value: Some("PATH"),
        help: "write the swept jobs as service request lines (presolve)",
    },
    FlagSpec {
        name: "--corrupt",
        value: None,
        help: "test hook: corrupt solver answers to exercise the diffcheck failure path",
    },
    FlagSpec {
        name: "--help",
        value: None,
        help: "print the binary's usage (and exit-code contract) and exit",
    },
];

/// Parsed command-line options of a reproduction binary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cli {
    /// Runs per (solver, game) pair.
    pub runs: usize,
    /// Use the paper's full budgets.
    pub full: bool,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (`0` = all cores).
    pub threads: usize,
    /// Optional JSON jobs file.
    pub jobs_file: Option<String>,
    /// Reduced measurement grid (CI smoke runs).
    pub quick: bool,
    /// Output path for machine-readable BENCH artefacts.
    pub out: Option<String>,
    /// Solver-service address (service binaries).
    pub addr: Option<String>,
    /// JSON-lines request file for the service client.
    pub requests: Option<String>,
    /// Concurrent connections to open (service_load).
    pub conns: usize,
    /// Pipelined requests per connection (service_load).
    pub per_conn: usize,
    /// Strip wall-clock fields from service responses.
    pub golden: bool,
    /// Write the daemon's post-replay stats response to this path.
    pub stats_json: Option<String>,
    /// Await each service response before sending the next request.
    pub serial: bool,
    /// Persistent solution-store log path (store binaries).
    pub store: Option<String>,
    /// Write the swept jobs as service request lines (presolve).
    pub emit_requests: Option<String>,
    /// Corrupt solver answers (diffcheck failure-path test hook).
    pub corrupt: bool,
    /// Print usage and exit (binaries print their own detail text).
    pub help: bool,
}

impl Cli {
    /// Parses `std::env::args`. Unknown flags abort with a usage message.
    pub fn parse() -> Self {
        Self::parse_supporting(None)
    }

    /// Parses `std::env::args` against a restricted flag subset: flags
    /// outside `supported` abort with a usage message listing only the
    /// binary's own flags — a binary never silently ignores an option
    /// that does not apply to it.
    pub fn parse_for(supported: &[&str]) -> Self {
        Self::parse_supporting(Some(supported))
    }

    fn parse_supporting(supported: Option<&[&str]>) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_from_supporting(&args, supported) {
            Ok(cli) => cli,
            Err(msg) => usage(&msg, supported),
        }
    }

    /// Parses an explicit argument list (all flags allowed).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid or unknown flag.
    pub fn parse_from(args: &[String]) -> Result<Self, String> {
        Self::parse_from_supporting(args, None)
    }

    /// Parses an explicit argument list against a flag subset
    /// (`None` = the full table).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid, unknown or
    /// unsupported flag.
    pub fn parse_from_supporting(
        args: &[String],
        supported: Option<&[&str]>,
    ) -> Result<Self, String> {
        let mut cli = Cli {
            runs: 500,
            conns: 1000,
            per_conn: 8,
            ..Cli::default()
        };
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            let spec = FLAGS
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            if let Some(subset) = supported {
                if !subset.contains(&arg) {
                    return Err(format!("flag {arg} is not supported by this binary"));
                }
            }
            let value = if spec.value.is_some() {
                i += 1;
                Some(
                    args.get(i)
                        .ok_or_else(|| format!("{arg} needs a value"))?
                        .as_str(),
                )
            } else {
                None
            };
            let parsed = |v: &str| -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|_| format!("{arg} needs a non-negative integer, got `{v}`"))
            };
            match arg {
                "--runs" => {
                    cli.runs = parsed(value.expect("has value"))? as usize;
                    if cli.runs == 0 {
                        return Err("--runs needs a positive integer".into());
                    }
                }
                "--seed" => cli.seed = parsed(value.expect("has value"))?,
                "--conns" => {
                    cli.conns = parsed(value.expect("has value"))? as usize;
                    if cli.conns == 0 {
                        return Err("--conns needs a positive integer".into());
                    }
                }
                "--per-conn" => {
                    cli.per_conn = parsed(value.expect("has value"))? as usize;
                    if cli.per_conn == 0 {
                        return Err("--per-conn needs a positive integer".into());
                    }
                }
                "--threads" => cli.threads = parsed(value.expect("has value"))? as usize,
                "--full" => cli.full = true,
                "--quick" => cli.quick = true,
                "--golden" => cli.golden = true,
                "--serial" => cli.serial = true,
                "--corrupt" => cli.corrupt = true,
                "--help" => cli.help = true,
                "--jobs-file" => cli.jobs_file = Some(value.expect("has value").to_string()),
                "--out" => cli.out = Some(value.expect("has value").to_string()),
                "--addr" => cli.addr = Some(value.expect("has value").to_string()),
                "--requests" => cli.requests = Some(value.expect("has value").to_string()),
                "--stats-json" => cli.stats_json = Some(value.expect("has value").to_string()),
                "--store" => cli.store = Some(value.expect("has value").to_string()),
                "--emit-requests" => {
                    cli.emit_requests = Some(value.expect("has value").to_string());
                }
                _ => unreachable!("flag table covers every match arm"),
            }
            i += 1;
        }
        if cli.full {
            cli.runs = 5000;
        }
        Ok(cli)
    }

    /// SA iteration budget for a benchmark: the paper's figure when
    /// `--full`, otherwise a 5× reduced budget for turnaround.
    pub fn iterations(&self, bench: &PaperBenchmark) -> usize {
        if self.full {
            bench.paper_iterations
        } else {
            (bench.paper_iterations / 5).max(1000)
        }
    }

    /// The batch runner these options describe.
    pub fn runner(&self) -> BatchRunner {
        BatchRunner::new(self.runs, self.seed).threads(self.threads)
    }
}

/// The flag-table help text for a binary's flag subset (`None` = every
/// flag) — what `usage` prints, exposed so binaries can build their own
/// `--help` output around it.
pub fn usage_lines(supported: Option<&[&str]>) -> String {
    let mut out = String::new();
    for f in FLAGS {
        if let Some(subset) = supported {
            if !subset.contains(&f.name) {
                continue;
            }
        }
        match f.value {
            Some(v) => out.push_str(&format!("  {} {:<9} {}\n", f.name, v, f.help)),
            None => out.push_str(&format!("  {:<18} {}\n", f.name, f.help)),
        }
    }
    out
}

fn usage(msg: &str, supported: Option<&[&str]>) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: <bin> [flags]");
    eprint!("{}", usage_lines(supported));
    std::process::exit(2);
}

/// One benchmark's evaluation bundle: the game, its ground truth and the
/// per-solver reports (C-Nash, D-Wave 2000Q6, Advantage 4.1 — same order
/// as the paper's tables).
pub struct BenchmarkEvaluation {
    /// The benchmark definition.
    pub bench: PaperBenchmark,
    /// Ground-truth equilibria (support enumeration).
    pub ground_truth: Vec<Equilibrium>,
    /// Reports in solver order [C-Nash, 2000Q6, Advantage 4.1].
    pub reports: Vec<GameReport>,
}

/// Runs the full three-solver × three-game evaluation used by Table 1 and
/// Figs. 8–10, fanned across the parallel runtime (`--threads`).
///
/// The aggregates are bit-identical at any thread count (see
/// `cnash_runtime`'s determinism contract), so `--threads` is purely a
/// wall-clock knob.
///
/// # Panics
///
/// Panics if a benchmark game fails to map onto the hardware (cannot
/// happen for the built-in benchmarks).
pub fn evaluate_paper_benchmarks(cli: &Cli) -> Vec<BenchmarkEvaluation> {
    let runner = cli.runner();
    paper_benchmarks()
        .into_iter()
        .map(|bench| {
            let game = bench.game.clone();
            let ground_truth = enumerate_equilibria(&game, 1e-9);
            let cfg = CNashConfig::paper(12).with_iterations(cli.iterations(&bench));
            let cnash =
                CNashSolver::new(&game, cfg, cli.seed).expect("benchmark maps onto hardware");
            let q2000 =
                DWaveNashSolver::new(&game, DWaveModel::dwave_2000q(), 1).expect("integer payoffs");
            let advantage = DWaveNashSolver::new(&game, DWaveModel::advantage_4_1(), 1)
                .expect("integer payoffs");
            let reports = [&cnash as &dyn NashSolver, &q2000, &advantage]
                .into_iter()
                .map(|s| runner.evaluate(s, &ground_truth).report)
                .collect();
            BenchmarkEvaluation {
                bench,
                ground_truth,
                reports,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let cli = Cli::parse_from(&args(&[
            "--runs",
            "12",
            "--seed",
            "9",
            "--threads",
            "4",
            "--jobs-file",
            "jobs.json",
            "--quick",
            "--out",
            "BENCH_sa_hotpath.json",
            "--addr",
            "127.0.0.1:7401",
            "--requests",
            "reqs.jsonl",
            "--conns",
            "64",
            "--per-conn",
            "3",
            "--golden",
            "--stats-json",
            "stats.json",
            "--serial",
            "--corrupt",
            "--store",
            "store.log",
            "--emit-requests",
            "presolved.jsonl",
        ]))
        .unwrap();
        assert_eq!(
            cli,
            Cli {
                runs: 12,
                full: false,
                seed: 9,
                threads: 4,
                jobs_file: Some("jobs.json".into()),
                quick: true,
                out: Some("BENCH_sa_hotpath.json".into()),
                addr: Some("127.0.0.1:7401".into()),
                requests: Some("reqs.jsonl".into()),
                conns: 64,
                per_conn: 3,
                golden: true,
                stats_json: Some("stats.json".into()),
                serial: true,
                corrupt: true,
                store: Some("store.log".into()),
                emit_requests: Some("presolved.jsonl".into()),
                help: false,
            }
        );
    }

    #[test]
    fn help_flag_parses_and_is_subset_gated() {
        let cli = Cli::parse_from(&args(&["--help"])).unwrap();
        assert!(cli.help);
        let cli =
            Cli::parse_from_supporting(&args(&["--help"]), Some(&["--help", "--quick"])).unwrap();
        assert!(cli.help);
        assert!(Cli::parse_from_supporting(&args(&["--help"]), Some(&["--quick"])).is_err());
        // The usage text respects the subset filter.
        let lines = usage_lines(Some(&["--quick", "--help"]));
        assert!(lines.contains("--quick") && lines.contains("--help"));
        assert!(!lines.contains("--runs"));
    }

    #[test]
    fn restricted_binaries_reject_flags_outside_their_subset() {
        let subset: &[&str] = &["--jobs-file", "--threads"];
        let ok = Cli::parse_from_supporting(
            &args(&["--jobs-file", "jobs.json", "--threads", "2"]),
            Some(subset),
        )
        .unwrap();
        assert_eq!(ok.jobs_file.as_deref(), Some("jobs.json"));
        // A flag that exists in the global table but not in this
        // binary's subset is an error, never silently ignored.
        let err = Cli::parse_from_supporting(&args(&["--runs", "5"]), Some(subset)).unwrap_err();
        assert!(err.contains("--runs"), "{err}");
        assert!(err.contains("not supported"), "{err}");
        // Truly unknown flags keep their own message.
        let err = Cli::parse_from_supporting(&args(&["--warp"]), Some(subset)).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn full_overrides_runs() {
        let cli = Cli::parse_from(&args(&["--runs", "7", "--full"])).unwrap();
        assert!(cli.full);
        assert_eq!(cli.runs, 5000);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Cli::parse_from(&args(&["--bogus"])).is_err());
        assert!(Cli::parse_from(&args(&["--runs"])).is_err());
        assert!(Cli::parse_from(&args(&["--runs", "x"])).is_err());
        assert!(Cli::parse_from(&args(&["--runs", "0"])).is_err());
        assert!(Cli::parse_from(&args(&["--seed", "-3"])).is_err());
    }

    #[test]
    fn defaults() {
        let cli = Cli::parse_from(&[]).unwrap();
        assert_eq!(cli.runs, 500);
        assert_eq!(cli.threads, 0);
        assert_eq!(cli.jobs_file, None);
        assert_eq!(cli.conns, 1000);
        assert_eq!(cli.per_conn, 8);
        assert_eq!(cli.store, None);
        assert_eq!(cli.emit_requests, None);
    }

    #[test]
    fn iterations_scaling() {
        let bench = &paper_benchmarks()[0];
        let quick = Cli::parse_from(&args(&["--runs", "10"])).unwrap();
        let full = Cli::parse_from(&args(&["--runs", "10", "--full"])).unwrap();
        assert_eq!(quick.iterations(bench), 2000);
        assert_eq!(full.iterations(bench), 10_000);
    }

    #[test]
    fn evaluation_produces_three_reports_per_game() {
        let cli = Cli {
            runs: 3,
            seed: 1,
            threads: 2,
            ..Cli::default()
        };
        let evals = evaluate_paper_benchmarks(&cli);
        assert_eq!(evals.len(), 3);
        for e in &evals {
            assert_eq!(e.reports.len(), 3);
            assert_eq!(e.reports[0].solver, "C-Nash");
            assert!(!e.ground_truth.is_empty());
        }
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        use cnash_core::ExperimentRunner;
        let game = cnash_game::games::battle_of_the_sexes();
        let truth = enumerate_equilibria(&game, 1e-9);
        let solver =
            CNashSolver::new(&game, CNashConfig::paper(12).with_iterations(2000), 5).expect("maps");
        let sequential = ExperimentRunner::new(8, 5).evaluate(&solver, &truth);
        let cli = Cli {
            runs: 8,
            seed: 5,
            threads: 4,
            ..Cli::default()
        };
        let parallel = cli.runner().evaluate(&solver, &truth).report;
        assert_eq!(parallel, sequential);
    }
}
