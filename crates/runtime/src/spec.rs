//! Serializable instance library: games, solver configurations and job
//! specs as JSON documents.
//!
//! Batches can be described in a JSON *jobs file*, loaded with
//! [`BatchSpec::from_json`], executed on the [`crate::PortfolioRunner`],
//! and dumped back out as machine-readable reports — the interchange
//! format a server frontend or experiment-management tooling would
//! speak. Example jobs file:
//!
//! ```json
//! {
//!   "threads": 8,
//!   "mode": "portfolio",
//!   "jobs": [
//!     {
//!       "game": {"builtin": "battle_of_the_sexes"},
//!       "solver": {"type": "cnash", "preset": "paper", "intervals": 12,
//!                  "iterations": 2000, "hardware_seed": 0},
//!       "runs": 500,
//!       "base_seed": 0,
//!       "early_stop": {"successes": 1}
//!     }
//!   ]
//! }
//! ```

use crate::batch::EarlyStop;
use crate::json::{Json, JsonError};
use crate::portfolio::{PortfolioJob, PortfolioStop};
use cnash_core::baselines::DWaveNashSolver;
use cnash_core::{
    CNashConfig, CNashSolver, CfrConfig, CfrSolver, CoreError, IdealSolver, NashSolver,
    ProgrammedCNash,
};
use cnash_device::corners::ProcessCorner;
use cnash_game::canonical::Hasher64;
use cnash_game::families::Family;
use cnash_game::games;
use cnash_game::generators;
use cnash_game::library;
use cnash_game::support_enum::{enumerate_equilibria, MAX_ENUM_ACTIONS};
use cnash_game::{BimatrixGame, Equilibrium, Matrix};
use cnash_qubo::dwave::DWaveModel;
use cnash_qubo::squbo::{SQubo, SQuboWeights};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Error constructing domain objects from specs (or parsing their JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError {
            message: e.to_string(),
        }
    }
}

impl From<CoreError> for SpecError {
    fn from(e: CoreError) -> Self {
        SpecError {
            message: e.to_string(),
        }
    }
}

fn spec_err<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        message: message.into(),
    })
}

/// The emulated D-Wave device a [`SolverSpec::DWave`] `model` names:
/// `"2000q"` or `"advantage4.1"`.
///
/// # Errors
///
/// Errors on any other name.
pub fn dwave_model(name: &str) -> Result<DWaveModel, SpecError> {
    match name {
        "2000q" => Ok(DWaveModel::dwave_2000q()),
        "advantage4.1" => Ok(DWaveModel::advantage_4_1()),
        other => spec_err(format!("unknown D-Wave model `{other}`")),
    }
}

/// The ground truth of `game` — support enumeration of its equilibria at
/// the workspace tolerance `1e-9` — returned unrun, so a caller can check
/// the bound first and memoize the enumeration.
///
/// # Errors
///
/// Errors naming the support-enumeration limit when either player has
/// more than [`MAX_ENUM_ACTIONS`] actions.
pub fn ground_truth(
    game: &BimatrixGame,
) -> Result<impl FnOnce() -> Vec<Equilibrium> + '_, SpecError> {
    let (n, m) = (game.row_actions(), game.col_actions());
    if n > MAX_ENUM_ACTIONS || m > MAX_ENUM_ACTIONS {
        return spec_err(format!(
            "ground truth: game `{}` is {n}x{m}, past the \
             {MAX_ENUM_ACTIONS}-action support-enumeration limit",
            game.name()
        ));
    }
    Ok(move || enumerate_equilibria(game, 1e-9))
}

/// Encodes a 64-bit seed losslessly: as a JSON number when exactly
/// representable in an `f64`, as a decimal string above 2^53.
fn seed_to_json(v: u64) -> Json {
    if v <= (1u64 << 53) {
        Json::num(v as f64)
    } else {
        Json::str(v.to_string())
    }
}

/// Decodes a seed written by [`seed_to_json`] (number or string form).
fn seed_from_json(json: &Json) -> Result<u64, SpecError> {
    match json {
        Json::Str(s) => s.parse::<u64>().map_err(|_| SpecError {
            message: format!("invalid seed `{s}`"),
        }),
        other => Ok(other.as_u64()?),
    }
}

/// Upper bound on `rows × cols` of a [`GameSpec::Random`] instance
/// (1M cells ≈ 16 MB of payoffs): specs arrive over the wire, and one
/// request must not be able to demand an unbounded allocation.
pub(crate) const MAX_RANDOM_CELLS: usize = 1 << 20;

/// A named entry of the builtin game registry.
pub type BuiltinGame = (&'static str, fn() -> BimatrixGame);

/// The games addressable by name in jobs files.
///
/// Covers the paper's three benchmarks plus the extended library.
pub fn builtin_games() -> Vec<BuiltinGame> {
    vec![
        ("battle_of_the_sexes", games::battle_of_the_sexes),
        ("bird_game", games::bird_game),
        (
            "modified_prisoners_dilemma",
            games::modified_prisoners_dilemma,
        ),
        ("prisoners_dilemma", games::prisoners_dilemma),
        ("matching_pennies", games::matching_pennies),
        ("rock_paper_scissors", games::rock_paper_scissors),
        ("stag_hunt", games::stag_hunt),
        ("hawk_dove", games::hawk_dove),
        ("chicken", library::chicken),
        ("inspection_game", library::inspection_game),
        ("travelers_dilemma_mini", library::travelers_dilemma_mini),
        ("public_goods_binary", library::public_goods_binary),
        (
            "asymmetric_matching_pennies",
            library::asymmetric_matching_pennies,
        ),
        ("deadlock", library::deadlock),
    ]
}

/// A (de)serializable description of a [`BimatrixGame`].
#[derive(Debug, Clone, PartialEq)]
pub enum GameSpec {
    /// A named game from [`builtin_games`].
    Builtin(String),
    /// Explicit payoff matrices.
    Explicit {
        /// Game name (reports).
        name: String,
        /// Row player's payoffs, row-major.
        row_payoffs: Vec<Vec<f64>>,
        /// Column player's payoffs, row-major.
        col_payoffs: Vec<Vec<f64>>,
    },
    /// A seeded random integer game
    /// (`cnash_game::generators::random_integer_game`) — lets jobs files
    /// and service requests name large scaling instances without
    /// shipping `rows × cols` payoff matrices over the wire. The same
    /// `(rows, cols, max_payoff, seed)` always builds the same game, so
    /// instance caches treat it like any other spec form.
    Random {
        /// Row-player actions.
        rows: usize,
        /// Column-player actions.
        cols: usize,
        /// Payoffs are drawn uniformly from `0..=max_payoff`.
        max_payoff: u32,
        /// Generator seed.
        seed: u64,
    },
    /// A structured game-family instance
    /// (`cnash_game::families::Family`) — the GAMUT-style generators
    /// the differential-fuzz harness sweeps. Like [`GameSpec::Random`],
    /// the same `(family, rows, cols, scale, knob, seed)` tuple always
    /// builds the same game, so family instances are first-class
    /// citizens of jobs files, the service protocol and the instance
    /// cache (keys are canonical payoff fingerprints, so a family
    /// instance and the equivalent explicit matrices share a cache
    /// line).
    Family {
        /// Family wire name (`congestion`, `dominance_solvable`,
        /// `covariant`, `sparse`, `degenerate`, `anti_coordination`).
        family: String,
        /// Actions per player when no per-dimension override is given.
        size: usize,
        /// Row-player action count override (`None` = `size`). With
        /// `rows == cols == size` the instance is bit-identical to the
        /// square spec — the generators' draw order is part of the
        /// wire-format contract.
        rows: Option<usize>,
        /// Column-player action count override (`None` = `size`).
        cols: Option<usize>,
        /// Payoff scale (`None` = family default).
        scale: Option<u32>,
        /// Family-specific knob, e.g. correlation ρ percent for
        /// `covariant` (`None` = family default).
        knob: Option<i64>,
        /// Generator seed.
        seed: u64,
    },
}

impl GameSpec {
    /// Captures an existing game as an explicit spec.
    pub fn from_game(game: &BimatrixGame) -> GameSpec {
        let to_rows = |m: &Matrix| (0..m.rows()).map(|i| m.row(i).to_vec()).collect::<Vec<_>>();
        GameSpec::Explicit {
            name: game.name().to_string(),
            row_payoffs: to_rows(game.row_payoffs()),
            col_payoffs: to_rows(game.col_payoffs()),
        }
    }

    /// Instantiates the game.
    ///
    /// # Errors
    ///
    /// Errors on unknown builtin names or malformed matrices.
    pub fn build(&self) -> Result<BimatrixGame, SpecError> {
        match self {
            GameSpec::Builtin(name) => builtin_games()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, f)| f())
                .ok_or(())
                .or_else(|()| spec_err(format!("unknown builtin game `{name}`"))),
            GameSpec::Explicit {
                name,
                row_payoffs,
                col_payoffs,
            } => {
                let m = Matrix::from_rows(row_payoffs).map_err(|e| SpecError {
                    message: format!("row_payoffs: {e}"),
                })?;
                let n = Matrix::from_rows(col_payoffs).map_err(|e| SpecError {
                    message: format!("col_payoffs: {e}"),
                })?;
                BimatrixGame::new(name.clone(), m, n).map_err(|e| SpecError {
                    message: format!("game `{name}`: {e}"),
                })
            }
            GameSpec::Random {
                rows,
                cols,
                max_payoff,
                seed,
            } => {
                // Specs arrive over the wire: bound the allocation
                // before the generator materialises two rows×cols
                // matrices (and before rows*cols could overflow).
                if rows.checked_mul(*cols).is_none_or(|c| c > MAX_RANDOM_CELLS) {
                    return spec_err(format!(
                        "random game: {rows}x{cols} exceeds the {MAX_RANDOM_CELLS}-cell limit"
                    ));
                }
                generators::random_integer_game(*rows, *cols, *max_payoff, *seed).map_err(|e| {
                    SpecError {
                        message: format!("random game: {e}"),
                    }
                })
            }
            GameSpec::Family {
                family,
                size,
                rows,
                cols,
                scale,
                knob,
                seed,
            } => {
                let fam = Family::from_name(family)
                    .ok_or(())
                    .or_else(|()| spec_err(format!("unknown game family `{family}`")))?;
                let rows = rows.unwrap_or(*size);
                let cols = cols.unwrap_or(*size);
                // Same wire-facing allocation bound as Random specs.
                if rows.checked_mul(cols).is_none_or(|c| c > MAX_RANDOM_CELLS) {
                    return spec_err(format!(
                        "family game: {rows}x{cols} exceeds the {MAX_RANDOM_CELLS}-cell limit"
                    ));
                }
                fam.build_rect(
                    rows,
                    cols,
                    scale.unwrap_or_else(|| fam.default_scale()),
                    knob.unwrap_or_else(|| fam.default_knob()),
                    *seed,
                )
                .map_err(|e| SpecError {
                    message: format!("family game `{family}`: {e}"),
                })
            }
        }
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> Json {
        match self {
            GameSpec::Builtin(name) => Json::obj([("builtin", Json::str(name.clone()))]),
            GameSpec::Explicit {
                name,
                row_payoffs,
                col_payoffs,
            } => {
                let mat = |rows: &Vec<Vec<f64>>| {
                    Json::Arr(
                        rows.iter()
                            .map(|r| Json::Arr(r.iter().map(|&v| Json::Num(v)).collect()))
                            .collect(),
                    )
                };
                Json::obj([
                    ("name", Json::str(name.clone())),
                    ("row_payoffs", mat(row_payoffs)),
                    ("col_payoffs", mat(col_payoffs)),
                ])
            }
            GameSpec::Random {
                rows,
                cols,
                max_payoff,
                seed,
            } => Json::obj([(
                "random",
                Json::obj([
                    ("rows", Json::num(*rows as f64)),
                    ("cols", Json::num(*cols as f64)),
                    ("max_payoff", Json::num(*max_payoff)),
                    ("seed", seed_to_json(*seed)),
                ]),
            )]),
            GameSpec::Family {
                family,
                size,
                rows,
                cols,
                scale,
                knob,
                seed,
            } => {
                let mut obj = vec![
                    ("name".to_string(), Json::str(family.clone())),
                    ("size".to_string(), Json::num(*size as f64)),
                ];
                if let Some(r) = rows {
                    obj.push(("rows".into(), Json::num(*r as f64)));
                }
                if let Some(c) = cols {
                    obj.push(("cols".into(), Json::num(*c as f64)));
                }
                if let Some(s) = scale {
                    obj.push(("scale".into(), Json::num(*s)));
                }
                if let Some(k) = knob {
                    obj.push(("knob".into(), Json::num(*k as f64)));
                }
                obj.push(("seed".into(), seed_to_json(*seed)));
                Json::obj([("family", Json::Obj(obj.into_iter().collect()))])
            }
        }
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    ///
    /// Errors on missing keys, wrong node types, or unknown keys (the
    /// error names the offending key — a typo must not silently become
    /// a default).
    pub fn from_json(json: &Json) -> Result<GameSpec, SpecError> {
        if let Some(builtin) = json.opt("builtin") {
            json.expect_keys("builtin game spec", &["builtin"])?;
            return Ok(GameSpec::Builtin(builtin.as_str()?.to_string()));
        }
        if let Some(family) = json.opt("family") {
            json.expect_keys("family game spec", &["family"])?;
            family.expect_keys(
                "family game spec",
                &["name", "size", "rows", "cols", "scale", "knob", "seed"],
            )?;
            let scale = match family.opt("scale") {
                None => None,
                Some(v) => {
                    let s = v.as_usize()?;
                    if s > u32::MAX as usize {
                        return spec_err(format!("family game: scale {s} exceeds {}", u32::MAX));
                    }
                    Some(s as u32)
                }
            };
            let knob = match family.opt("knob") {
                None => None,
                Some(v) => {
                    let raw = v.as_f64()?;
                    if raw.fract() != 0.0 {
                        return spec_err(format!("family game: knob {raw} is not an integer"));
                    }
                    // `i64::MAX as f64` rounds up to exactly 2^63, so
                    // `>=` (not `>`) is what excludes the values whose
                    // `as i64` cast would saturate.
                    if raw >= i64::MAX as f64 || raw < i64::MIN as f64 {
                        return spec_err(format!("family game: knob {raw} is out of range"));
                    }
                    Some(raw as i64)
                }
            };
            return Ok(GameSpec::Family {
                family: family.get("name")?.as_str()?.to_string(),
                size: family.get("size")?.as_usize()?,
                rows: family.opt("rows").map(|v| v.as_usize()).transpose()?,
                cols: family.opt("cols").map(|v| v.as_usize()).transpose()?,
                scale,
                knob,
                seed: family
                    .opt("seed")
                    .map(seed_from_json)
                    .transpose()?
                    .unwrap_or(0),
            });
        }
        if let Some(random) = json.opt("random") {
            json.expect_keys("random game spec", &["random"])?;
            random.expect_keys("random game spec", &["rows", "cols", "max_payoff", "seed"])?;
            let max_payoff = random.get("max_payoff")?.as_usize()?;
            if max_payoff > u32::MAX as usize {
                return spec_err(format!(
                    "random game: max_payoff {max_payoff} exceeds {}",
                    u32::MAX
                ));
            }
            return Ok(GameSpec::Random {
                rows: random.get("rows")?.as_usize()?,
                cols: random.get("cols")?.as_usize()?,
                max_payoff: max_payoff as u32,
                seed: random
                    .opt("seed")
                    .map(seed_from_json)
                    .transpose()?
                    .unwrap_or(0),
            });
        }
        json.expect_keys(
            "explicit game spec",
            &["name", "row_payoffs", "col_payoffs"],
        )?;
        let mat = |key: &str| -> Result<Vec<Vec<f64>>, SpecError> {
            json.get(key)?
                .as_arr()?
                .iter()
                .map(|row| {
                    row.as_arr()?
                        .iter()
                        .map(|v| Ok(v.as_f64()?))
                        .collect::<Result<Vec<f64>, SpecError>>()
                })
                .collect()
        };
        Ok(GameSpec::Explicit {
            name: json.get("name")?.as_str()?.to_string(),
            row_payoffs: mat("row_payoffs")?,
            col_payoffs: mat("col_payoffs")?,
        })
    }
}

/// A (de)serializable description of a [`CNashConfig`].
///
/// Hardware sub-models (crossbar, WTA trees) ride on the named preset —
/// `"ideal"` or `"paper"`, optionally at a process `corner` — with the
/// algorithmic knobs overridable individually.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpec {
    /// `"ideal"` or `"paper"`.
    pub preset: String,
    /// Probability grid intervals.
    pub intervals: u32,
    /// Process corner (paper preset only), e.g. `"tt"`, `"snfp"`.
    pub corner: Option<String>,
    /// SA iterations per run.
    pub iterations: Option<usize>,
    /// Measured-gap hit threshold.
    pub gap_tolerance: Option<f64>,
    /// Route Phase-1 maxima through the WTA model.
    pub use_wta: Option<bool>,
}

impl ConfigSpec {
    /// Spec for the paper's hardware at `intervals` grid intervals.
    pub fn paper(intervals: u32) -> Self {
        Self {
            preset: "paper".into(),
            intervals,
            corner: None,
            iterations: None,
            gap_tolerance: None,
            use_wta: None,
        }
    }

    /// Spec for the idealised pipeline at `intervals` grid intervals.
    pub fn ideal(intervals: u32) -> Self {
        Self {
            preset: "ideal".into(),
            ..Self::paper(intervals)
        }
    }

    /// Returns a copy with an iteration budget override.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Builds the concrete configuration.
    ///
    /// # Errors
    ///
    /// Errors on unknown presets or corners.
    pub fn build(&self) -> Result<CNashConfig, SpecError> {
        let corner = match &self.corner {
            None => None,
            Some(name) => Some(
                ProcessCorner::ALL
                    .into_iter()
                    .find(|c| c.to_string() == *name)
                    .ok_or(())
                    .or_else(|()| spec_err(format!("unknown process corner `{name}`")))?,
            ),
        };
        let mut config = match (self.preset.as_str(), corner) {
            ("ideal", None) => CNashConfig::ideal(self.intervals),
            ("ideal", Some(_)) => return spec_err("the ideal preset has no process corners"),
            ("paper", None) => CNashConfig::paper(self.intervals),
            ("paper", Some(c)) => CNashConfig::paper_at_corner(self.intervals, c),
            (other, _) => return spec_err(format!("unknown preset `{other}`")),
        };
        if let Some(iterations) = self.iterations {
            config.iterations = iterations;
        }
        if let Some(gap) = self.gap_tolerance {
            config.gap_tolerance = gap;
        }
        if let Some(use_wta) = self.use_wta {
            config.use_wta = use_wta;
        }
        Ok(config)
    }

    /// Serialises to JSON (only the explicitly set overrides).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("preset".to_string(), Json::str(self.preset.clone())),
            ("intervals".to_string(), Json::num(self.intervals)),
        ];
        if let Some(c) = &self.corner {
            obj.push(("corner".into(), Json::str(c.clone())));
        }
        if let Some(i) = self.iterations {
            obj.push(("iterations".into(), Json::num(i as f64)));
        }
        if let Some(g) = self.gap_tolerance {
            obj.push(("gap_tolerance".into(), Json::num(g)));
        }
        if let Some(w) = self.use_wta {
            obj.push(("use_wta".into(), Json::Bool(w)));
        }
        Json::Obj(obj.into_iter().collect())
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    ///
    /// Errors on missing keys or wrong node types.
    pub fn from_json(json: &Json) -> Result<ConfigSpec, SpecError> {
        Ok(ConfigSpec {
            preset: json.get("preset")?.as_str()?.to_string(),
            intervals: json.get("intervals")?.as_usize()? as u32,
            corner: json
                .opt("corner")
                .map(|c| Ok::<_, SpecError>(c.as_str()?.to_string()))
                .transpose()?,
            iterations: json.opt("iterations").map(|v| v.as_usize()).transpose()?,
            gap_tolerance: json.opt("gap_tolerance").map(|v| v.as_f64()).transpose()?,
            use_wta: json.opt("use_wta").map(|v| v.as_bool()).transpose()?,
        })
    }
}

/// A (de)serializable description of a solver variant.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverSpec {
    /// The full C-Nash architecture on a silicon instance.
    CNash {
        /// Solver configuration.
        config: ConfigSpec,
        /// Silicon instance seed (device variability, WTA mismatch).
        hardware_seed: u64,
    },
    /// The exact-arithmetic ablation.
    Ideal {
        /// Solver configuration.
        config: ConfigSpec,
    },
    /// The S-QUBO baseline on an emulated D-Wave annealer.
    DWave {
        /// `"2000q"` or `"advantage4.1"`.
        model: String,
        /// Annealer reads per run.
        reads_per_run: usize,
    },
    /// The classical external-sampling CFR baseline
    /// (`cnash_core::CfrSolver`).
    Cfr {
        /// External-sampling iterations per run.
        iterations: usize,
    },
}

/// What a [`SolverSpec`] programs once per game, for every solver built
/// on that game to share: the C-Nash bi-crossbar and WTA trees, or the
/// D-Wave S-QUBO. Opaque: only [`SolverSpec::build_with`] makes and
/// reads it.
#[derive(Debug, Clone)]
pub struct Programmed(Hardware);

#[derive(Debug, Clone)]
enum Hardware {
    CNash(ProgrammedCNash),
    SQubo(Arc<SQubo>),
}

/// The programming step [`SolverSpec::build_with`] hands its memo.
type Program<'a> = &'a dyn Fn() -> Result<Programmed, SpecError>;

impl SolverSpec {
    /// Builds the concrete solver for `game`, programming its hardware
    /// afresh ([`SolverSpec::build_with`] with no memo).
    ///
    /// # Errors
    ///
    /// Same contract as [`SolverSpec::build_with`].
    pub fn build(&self, game: &BimatrixGame) -> Result<Box<dyn NashSolver>, SpecError> {
        self.build_with(game, |_, program| program())
    }

    /// Builds the concrete solver for `game`, getting its programmed
    /// hardware from `memo`.
    ///
    /// `memo(key, program)` returns the instance programmed under `key`:
    /// the result of `program()`, or an earlier one for the same key. The
    /// key hashes everything programming reads — `"cnash"`, the game's
    /// canonical fingerprint, the crossbar's program fingerprint, the WTA
    /// config and the hardware seed; or `"squbo"` and the fingerprint — so
    /// specs that differ only in per-request knobs (iterations, gap
    /// tolerance, WTA routing, D-Wave model or reads) share one key.
    /// `ideal` and `cfr` program nothing and never call `memo`; neither
    /// does a spec whose config or D-Wave model is invalid.
    ///
    /// # Errors
    ///
    /// Errors, prefixed with the solver type (`"cnash: …"`), if the spec
    /// is invalid, the game cannot be mapped onto the hardware model, or
    /// `memo` returns an error.
    pub fn build_with(
        &self,
        game: &BimatrixGame,
        memo: impl FnOnce(u64, Program) -> Result<Programmed, SpecError>,
    ) -> Result<Box<dyn NashSolver>, SpecError> {
        self.instantiate(game, memo).map_err(|e| SpecError {
            message: format!("{}: {}", self.kind(), e.message),
        })
    }

    fn instantiate(
        &self,
        game: &BimatrixGame,
        memo: impl FnOnce(u64, Program) -> Result<Programmed, SpecError>,
    ) -> Result<Box<dyn NashSolver>, SpecError> {
        const KEY_CLASH: &str = "programmed instance of another solver type under this key";
        Ok(match self {
            SolverSpec::CNash {
                config,
                hardware_seed: seed,
            } => {
                let config = config.build()?;
                let key = Hasher64::new()
                    .write_str("cnash")
                    .write_u64(game.canonical_fingerprint())
                    .write_u64(config.crossbar.program_fingerprint())
                    .write_str(&format!("{:?}", config.wta))
                    .write_u64(*seed)
                    .finish();
                let program = || {
                    let hardware = ProgrammedCNash::program(game, &config, *seed)?;
                    Ok(Programmed(Hardware::CNash(hardware)))
                };
                let Programmed(Hardware::CNash(hardware)) = memo(key, &program)? else {
                    return spec_err(KEY_CLASH);
                };
                Box::new(CNashSolver::from_programmed(game, config, hardware)?)
            }
            SolverSpec::Ideal { config } => Box::new(IdealSolver::new(game, config.build()?)?),
            SolverSpec::DWave {
                model,
                reads_per_run: reads,
            } => {
                let model = dwave_model(model)?;
                // Checked before the lookup, like the model, so a
                // rejected budget programs and counts nothing.
                if *reads == 0 {
                    return Err(
                        CoreError::InvalidConfig("dwave needs reads_per_run > 0".into()).into(),
                    );
                }
                let key = Hasher64::new()
                    .write_str("squbo")
                    .write_u64(game.canonical_fingerprint())
                    .finish();
                let program = || {
                    let weights = SQuboWeights::default();
                    let squbo = SQubo::build(game, &weights).map_err(CoreError::from)?;
                    Ok(Programmed(Hardware::SQubo(Arc::new(squbo))))
                };
                let Programmed(Hardware::SQubo(squbo)) = memo(key, &program)? else {
                    return spec_err(KEY_CLASH);
                };
                Box::new(DWaveNashSolver::from_programmed(
                    game, model, *reads, squbo,
                )?)
            }
            SolverSpec::Cfr { iterations } => {
                Box::new(CfrSolver::new(game, CfrConfig::new(*iterations))?)
            }
        })
    }

    /// The solver's `type` tag in JSON.
    fn kind(&self) -> &'static str {
        match self {
            SolverSpec::CNash { .. } => "cnash",
            SolverSpec::Ideal { .. } => "ideal",
            SolverSpec::DWave { .. } => "dwave",
            SolverSpec::Cfr { .. } => "cfr",
        }
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> Json {
        let mut obj = match self {
            SolverSpec::CNash { config, .. } | SolverSpec::Ideal { config } => {
                match config.to_json() {
                    Json::Obj(map) => map,
                    _ => unreachable!("ConfigSpec::to_json returns an object"),
                }
            }
            SolverSpec::DWave { .. } | SolverSpec::Cfr { .. } => BTreeMap::new(),
        };
        obj.insert("type".into(), Json::str(self.kind()));
        let mut set = |key: &str, value| obj.insert(key.into(), value);
        match self {
            SolverSpec::CNash { hardware_seed, .. } => {
                set("hardware_seed", seed_to_json(*hardware_seed))
            }
            SolverSpec::Ideal { .. } => None,
            SolverSpec::DWave {
                model,
                reads_per_run,
            } => {
                set("model", Json::str(model.clone()));
                set("reads_per_run", Json::num(*reads_per_run as f64))
            }
            SolverSpec::Cfr { iterations } => set("iterations", Json::num(*iterations as f64)),
        };
        Json::Obj(obj)
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    ///
    /// Errors on unknown solver types, malformed fields, or unknown
    /// keys (validated per variant, since the `ConfigSpec` fields are
    /// flattened into the same object as the `type` tag).
    pub fn from_json(json: &Json) -> Result<SolverSpec, SpecError> {
        const CONFIG_KEYS: [&str; 6] = [
            "preset",
            "intervals",
            "corner",
            "iterations",
            "gap_tolerance",
            "use_wta",
        ];
        fn with_config<'a>(extra: &[&'a str]) -> Vec<&'a str> {
            let mut keys = vec!["type"];
            keys.extend_from_slice(&CONFIG_KEYS);
            keys.extend_from_slice(extra);
            keys
        }
        match json.get("type")?.as_str()? {
            "cnash" => {
                json.expect_keys("cnash solver spec", &with_config(&["hardware_seed"]))?;
                Ok(SolverSpec::CNash {
                    config: ConfigSpec::from_json(json)?,
                    hardware_seed: json
                        .opt("hardware_seed")
                        .map(seed_from_json)
                        .transpose()?
                        .unwrap_or(0),
                })
            }
            "ideal" => {
                json.expect_keys("ideal solver spec", &with_config(&[]))?;
                Ok(SolverSpec::Ideal {
                    config: ConfigSpec::from_json(json)?,
                })
            }
            "dwave" => {
                json.expect_keys("dwave solver spec", &["type", "model", "reads_per_run"])?;
                Ok(SolverSpec::DWave {
                    model: json.get("model")?.as_str()?.to_string(),
                    reads_per_run: json
                        .opt("reads_per_run")
                        .map(|v| v.as_usize())
                        .transpose()?
                        .unwrap_or(1),
                })
            }
            "cfr" => {
                json.expect_keys("cfr solver spec", &["type", "iterations"])?;
                Ok(SolverSpec::Cfr {
                    iterations: json
                        .opt("iterations")
                        .map(|v| v.as_usize())
                        .transpose()?
                        .unwrap_or_else(|| CfrConfig::default().iterations),
                })
            }
            other => spec_err(format!("unknown solver type `{other}`")),
        }
    }

    /// A short display label for reports.
    pub fn label(&self) -> String {
        match self {
            SolverSpec::CNash { hardware_seed, .. } => format!("cnash(hw{hardware_seed})"),
            SolverSpec::Ideal { .. } => "ideal".to_string(),
            SolverSpec::DWave { model, .. } => format!("dwave({model})"),
            SolverSpec::Cfr { .. } => "cfr".to_string(),
        }
    }
}

/// A (de)serializable batch job: `(game, solver-config, run-budget)`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The instance to solve.
    pub game: GameSpec,
    /// The solver variant to run.
    pub solver: SolverSpec,
    /// Independent runs scheduled.
    pub runs: usize,
    /// First seed of the batch.
    pub base_seed: u64,
    /// Optional early-stop condition.
    pub early_stop: Option<EarlyStop>,
    /// Optional display label (defaults to solver + game).
    pub label: Option<String>,
}

impl JobSpec {
    /// Prepares the job for the portfolio runner: builds the game and
    /// solver and enumerates the ground-truth equilibria.
    ///
    /// # Errors
    ///
    /// Errors if the game or solver cannot be built, or if the game is
    /// past the ground truth's support-enumeration limit.
    pub fn prepare(&self) -> Result<PortfolioJob, SpecError> {
        let game = self.game.build()?;
        let enumerate = ground_truth(&game)?;
        let solver = self.solver.build(&game)?;
        let ground_truth = enumerate();
        Ok(PortfolioJob {
            label: self.label_for(&game),
            solver,
            ground_truth,
            runs: self.runs,
            base_seed: self.base_seed,
            early_stop: self.early_stop,
        })
    }

    /// The job's display label on `game`: the explicit `label`, or
    /// `"<solver label> on <game name>"`.
    pub fn label_for(&self, game: &BimatrixGame) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| format!("{} on {}", self.solver.label(), game.name()))
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("game".to_string(), self.game.to_json()),
            ("solver".to_string(), self.solver.to_json()),
            ("runs".to_string(), Json::num(self.runs as f64)),
            ("base_seed".to_string(), seed_to_json(self.base_seed)),
        ];
        match self.early_stop {
            Some(EarlyStop::Successes(n)) => obj.push((
                "early_stop".into(),
                Json::obj([("successes", Json::num(n as f64))]),
            )),
            Some(EarlyStop::Coverage(n)) => obj.push((
                "early_stop".into(),
                Json::obj([("coverage", Json::num(n as f64))]),
            )),
            None => {}
        }
        if let Some(label) = &self.label {
            obj.push(("label".into(), Json::str(label.clone())));
        }
        Json::Obj(obj.into_iter().collect())
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    ///
    /// Errors on missing keys, malformed fields, or unknown keys.
    pub fn from_json(json: &Json) -> Result<JobSpec, SpecError> {
        json.expect_keys(
            "job spec",
            &["game", "solver", "runs", "base_seed", "early_stop", "label"],
        )?;
        let early_stop = match json.opt("early_stop") {
            None => None,
            Some(stop) => {
                stop.expect_keys("early_stop", &["successes", "coverage"])?;
                if let Some(n) = stop.opt("successes") {
                    Some(EarlyStop::Successes(n.as_usize()?))
                } else if let Some(n) = stop.opt("coverage") {
                    Some(EarlyStop::Coverage(n.as_usize()?))
                } else {
                    return spec_err("early_stop needs `successes` or `coverage`");
                }
            }
        };
        let runs = json.get("runs")?.as_usize()?;
        if runs == 0 {
            return spec_err("runs must be positive");
        }
        Ok(JobSpec {
            game: GameSpec::from_json(json.get("game")?)?,
            solver: SolverSpec::from_json(json.get("solver")?)?,
            runs,
            base_seed: json
                .opt("base_seed")
                .map(seed_from_json)
                .transpose()?
                .unwrap_or(0),
            early_stop,
            label: json
                .opt("label")
                .map(|v| Ok::<_, SpecError>(v.as_str()?.to_string()))
                .transpose()?,
        })
    }
}

/// A whole jobs file: jobs plus execution policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
    /// `FirstTarget` (portfolio) or `Independent` execution.
    pub stop: PortfolioStop,
    /// Worker threads (`0`/absent = all cores).
    pub threads: usize,
}

impl BatchSpec {
    /// Parses a jobs file.
    ///
    /// # Errors
    ///
    /// Errors on malformed JSON, invalid job specs, or unknown keys.
    pub fn from_json(text: &str) -> Result<BatchSpec, SpecError> {
        let doc = Json::parse(text)?;
        doc.expect_keys("jobs file", &["jobs", "mode", "threads"])?;
        let jobs = doc
            .get("jobs")?
            .as_arr()?
            .iter()
            .map(JobSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if jobs.is_empty() {
            return spec_err("jobs file contains no jobs");
        }
        let stop = match doc.opt("mode").map(|m| m.as_str()).transpose()? {
            None | Some("portfolio") => PortfolioStop::FirstTarget,
            Some("independent") => PortfolioStop::Independent,
            Some(other) => return spec_err(format!("unknown mode `{other}`")),
        };
        Ok(BatchSpec {
            jobs,
            stop,
            threads: doc
                .opt("threads")
                .map(|v| v.as_usize())
                .transpose()?
                .unwrap_or(0),
        })
    }

    /// Serialises the jobs file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "mode",
                Json::str(match self.stop {
                    PortfolioStop::FirstTarget => "portfolio",
                    PortfolioStop::Independent => "independent",
                }),
            ),
            ("threads", Json::num(self.threads as f64)),
            (
                "jobs",
                Json::Arr(self.jobs.iter().map(JobSpec::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job() -> JobSpec {
        JobSpec {
            game: GameSpec::Builtin("battle_of_the_sexes".into()),
            solver: SolverSpec::CNash {
                config: ConfigSpec::ideal(12).with_iterations(2000),
                hardware_seed: 3,
            },
            runs: 25,
            base_seed: 7,
            early_stop: Some(EarlyStop::Successes(2)),
            label: None,
        }
    }

    #[test]
    fn job_spec_round_trips_through_json() {
        let spec = BatchSpec {
            jobs: vec![sample_job()],
            stop: PortfolioStop::FirstTarget,
            threads: 4,
        };
        let text = spec.to_json().pretty();
        let again = BatchSpec::from_json(&text).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn explicit_game_round_trips_and_builds() {
        let game = games::matching_pennies();
        let spec = GameSpec::from_game(&game);
        let again = GameSpec::from_json(&Json::parse(&spec.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(spec, again);
        let rebuilt = again.build().unwrap();
        assert_eq!(rebuilt, game);
    }

    #[test]
    fn random_game_spec_round_trips_and_builds_deterministically() {
        let spec = GameSpec::Random {
            rows: 6,
            cols: 4,
            max_payoff: 3,
            seed: 11,
        };
        let again = GameSpec::from_json(&Json::parse(&spec.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(again, spec);
        let a = spec.build().unwrap();
        let b = again.build().unwrap();
        assert_eq!(a, b, "same spec must build the same game");
        assert_eq!((a.row_actions(), a.col_actions()), (6, 4));
        assert!(GameSpec::Random {
            rows: 0,
            cols: 4,
            max_payoff: 3,
            seed: 0
        }
        .build()
        .is_err());
        // Wire-facing bounds: oversized grids (including rows*cols
        // overflow) and out-of-range payoff scales are rejected loudly.
        assert!(GameSpec::Random {
            rows: usize::MAX,
            cols: usize::MAX,
            max_payoff: 3,
            seed: 0
        }
        .build()
        .is_err());
        assert!(GameSpec::Random {
            rows: 2048,
            cols: 2048,
            max_payoff: 3,
            seed: 0
        }
        .build()
        .is_err());
        let oversized = r#"{"random": {"rows": 2, "cols": 2, "max_payoff": 4294967299}}"#;
        assert!(GameSpec::from_json(&Json::parse(oversized).unwrap()).is_err());
    }

    #[test]
    fn family_spec_round_trips_and_builds_deterministically() {
        use cnash_game::families::Family;
        // Defaults elided on the wire round-trip as `None`.
        let minimal = GameSpec::Family {
            family: "covariant".into(),
            size: 3,
            rows: None,
            cols: None,
            scale: None,
            knob: None,
            seed: 9,
        };
        let again =
            GameSpec::from_json(&Json::parse(&minimal.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(again, minimal);
        assert_eq!(minimal.build().unwrap(), again.build().unwrap());

        // Explicit scale and a negative knob survive the wire.
        let full = GameSpec::Family {
            family: "covariant".into(),
            size: 4,
            rows: None,
            cols: None,
            scale: Some(8),
            knob: Some(-75),
            seed: 2,
        };
        let text = full.to_json().pretty();
        let again = GameSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(again, full);
        let game = again.build().unwrap();
        assert_eq!((game.row_actions(), game.col_actions()), (4, 4));
        assert!(game.row_payoffs().is_nonneg_integer(1e-9));

        // Every registry family is reachable by wire name.
        for fam in Family::ALL {
            let spec = GameSpec::Family {
                family: fam.name().into(),
                size: 2,
                rows: None,
                cols: None,
                scale: None,
                knob: None,
                seed: 0,
            };
            assert!(spec.build().is_ok(), "{}", fam.name());
        }

        // Unknown names, oversized grids and bad knobs fail loudly.
        assert!(GameSpec::Family {
            family: "quantum_chess".into(),
            size: 2,
            rows: None,
            cols: None,
            scale: None,
            knob: None,
            seed: 0,
        }
        .build()
        .is_err());
        assert!(GameSpec::Family {
            family: "sparse".into(),
            size: 2048,
            rows: None,
            cols: None,
            scale: None,
            knob: None,
            seed: 0,
        }
        .build()
        .is_err());
        assert!(GameSpec::Family {
            family: "covariant".into(),
            size: 3,
            rows: None,
            cols: None,
            scale: Some(6),
            knob: Some(250),
            seed: 0,
        }
        .build()
        .is_err());
        let fractional = r#"{"family": {"name": "sparse", "size": 2, "knob": 0.5}}"#;
        assert!(GameSpec::from_json(&Json::parse(fractional).unwrap()).is_err());
        // Integral but out-of-i64-range knobs get a range error (not a
        // bogus "not an integer"), and 2^63 exactly must not saturate.
        for bad in [
            r#"{"family": {"name": "sparse", "size": 2, "knob": 1e300}}"#,
            r#"{"family": {"name": "sparse", "size": 2, "knob": 9223372036854775808}}"#,
        ] {
            let err = GameSpec::from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.message.contains("out of range"), "{}", err.message);
        }
        // Oversized scales are rejected by the family itself.
        assert!(GameSpec::Family {
            family: "dominance_solvable".into(),
            size: 3,
            rows: None,
            cols: None,
            scale: Some(u32::MAX),
            knob: None,
            seed: 0,
        }
        .build()
        .is_err());
    }

    #[test]
    fn builtin_registry_builds_every_game() {
        for (name, _) in builtin_games() {
            let game = GameSpec::Builtin(name.to_string()).build().unwrap();
            assert!(game.row_actions() > 0);
        }
    }

    #[test]
    fn config_spec_matches_presets() {
        assert_eq!(
            ConfigSpec::ideal(12).build().unwrap(),
            CNashConfig::ideal(12)
        );
        assert_eq!(
            ConfigSpec::paper(12).build().unwrap(),
            CNashConfig::paper(12)
        );
        let spec = ConfigSpec {
            corner: Some("snfp".into()),
            iterations: Some(777),
            ..ConfigSpec::paper(12)
        };
        let config = spec.build().unwrap();
        assert_eq!(config.iterations, 777);
        assert_eq!(
            config.wta.effective_offset(),
            CNashConfig::paper_at_corner(12, ProcessCorner::Snfp)
                .wta
                .effective_offset()
        );
    }

    #[test]
    fn solver_specs_build_and_run() {
        let game = games::battle_of_the_sexes();
        let specs = [
            SolverSpec::CNash {
                config: ConfigSpec::ideal(12).with_iterations(1000),
                hardware_seed: 0,
            },
            SolverSpec::Ideal {
                config: ConfigSpec::ideal(12).with_iterations(1000),
            },
            SolverSpec::DWave {
                model: "2000q".into(),
                reads_per_run: 1,
            },
            SolverSpec::DWave {
                model: "advantage4.1".into(),
                reads_per_run: 2,
            },
            SolverSpec::Cfr { iterations: 500 },
        ];
        for spec in specs {
            let solver = spec.build(&game).unwrap();
            let out = solver.run(1);
            assert!(out.total_time > 0.0);
            let round =
                SolverSpec::from_json(&Json::parse(&spec.to_json().pretty()).unwrap()).unwrap();
            assert_eq!(round, spec);
        }
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(GameSpec::Builtin("no_such_game".into()).build().is_err());
        assert!(ConfigSpec {
            preset: "quantum".into(),
            ..ConfigSpec::ideal(12)
        }
        .build()
        .is_err());
        assert!(ConfigSpec {
            corner: Some("xx".into()),
            ..ConfigSpec::paper(12)
        }
        .build()
        .is_err());
        assert!(SolverSpec::DWave {
            model: "5000q".into(),
            reads_per_run: 1
        }
        .build(&games::battle_of_the_sexes())
        .is_err());
        assert!(BatchSpec::from_json("{\"jobs\": []}").is_err());
        assert!(BatchSpec::from_json("not json").is_err());
        assert!(BatchSpec::from_json(r#"{"jobs": [{"runs": 0}], "mode": "portfolio"}"#).is_err());
    }

    #[test]
    fn seeds_above_f64_precision_round_trip() {
        // Seeds past 2^53 are not exactly representable as JSON numbers;
        // they must survive a round trip losslessly (string encoding).
        let spec = JobSpec {
            base_seed: u64::MAX - 1,
            solver: SolverSpec::CNash {
                config: ConfigSpec::ideal(12),
                hardware_seed: (1 << 53) + 1,
            },
            ..sample_job()
        };
        let text = spec.to_json().pretty();
        let again = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn rectangular_family_spec_round_trips_and_builds() {
        let rect = GameSpec::Family {
            family: "dominance_solvable".into(),
            size: 3,
            rows: Some(5),
            cols: Some(2),
            scale: None,
            knob: None,
            seed: 4,
        };
        let text = rect.to_json().pretty();
        assert!(text.contains("\"rows\""));
        assert!(text.contains("\"cols\""));
        let again = GameSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(again, rect);
        let game = again.build().unwrap();
        assert_eq!((game.row_actions(), game.col_actions()), (5, 2));

        // A square override is bit-identical to the plain square spec —
        // the draw order is part of the wire contract.
        let square = GameSpec::Family {
            family: "congestion".into(),
            size: 3,
            rows: None,
            cols: None,
            scale: None,
            knob: None,
            seed: 8,
        };
        let overridden = GameSpec::Family {
            family: "congestion".into(),
            size: 3,
            rows: Some(3),
            cols: Some(3),
            scale: None,
            knob: None,
            seed: 8,
        };
        assert_eq!(square.build().unwrap(), overridden.build().unwrap());

        // One-sided overrides keep `size` for the other dimension, and
        // the allocation bound applies to the overridden shape.
        let one_sided = GameSpec::Family {
            family: "sparse".into(),
            size: 2,
            rows: Some(4),
            cols: None,
            scale: None,
            knob: None,
            seed: 0,
        };
        let game = one_sided.build().unwrap();
        assert_eq!((game.row_actions(), game.col_actions()), (4, 2));
        assert!(GameSpec::Family {
            family: "sparse".into(),
            size: 2,
            rows: Some(2048),
            cols: Some(2048),
            scale: None,
            knob: None,
            seed: 0,
        }
        .build()
        .is_err());
    }

    #[test]
    fn unknown_keys_are_rejected_naming_the_key() {
        let cases = [
            (r#"{"builtin": "chicken", "extra": 1}"#, "`extra`"),
            (
                r#"{"family": {"name": "sparse", "size": 2, "siize": 3}}"#,
                "`siize`",
            ),
            (
                r#"{"random": {"rows": 2, "cols": 2, "max_payof": 4}}"#,
                "`max_payof`",
            ),
            (
                r#"{"name": "g", "row_payoffs": [[0]], "col_payoffs": [[0]], "pay": 1}"#,
                "`pay`",
            ),
        ];
        for (text, key) in cases {
            let err = GameSpec::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.message.contains(key), "{}: {}", text, err.message);
            assert!(err.message.contains("unknown key"), "{}", err.message);
        }
        let solver_cases = [
            (r#"{"type": "cfr", "iteratons": 5}"#, "`iteratons`"),
            (
                r#"{"type": "ideal", "preset": "ideal", "intervals": 12, "hardware_seed": 1}"#,
                "`hardware_seed`",
            ),
            (
                r#"{"type": "dwave", "model": "2000q", "preset": "paper"}"#,
                "`preset`",
            ),
            (
                r#"{"type": "cnash", "preset": "ideal", "intervals": 12, "reads_per_run": 1}"#,
                "`reads_per_run`",
            ),
        ];
        for (text, key) in solver_cases {
            let err = SolverSpec::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.message.contains(key), "{}: {}", text, err.message);
        }
        let job = r#"{"jobs": [{"game": {"builtin": "chicken"},
            "solver": {"type": "cfr"}, "runs": 1, "early_stop": {"succeses": 1}}]}"#;
        let err = BatchSpec::from_json(job).unwrap_err();
        assert!(err.message.contains("`succeses`"), "{}", err.message);
        let batch = r#"{"jobs": [{"game": {"builtin": "chicken"},
            "solver": {"type": "cfr"}, "runs": 1}], "threds": 2}"#;
        let err = BatchSpec::from_json(batch).unwrap_err();
        assert!(err.message.contains("`threds`"), "{}", err.message);
    }

    #[test]
    fn cfr_spec_defaults_and_labels() {
        let spec = SolverSpec::from_json(&Json::parse(r#"{"type": "cfr"}"#).unwrap()).unwrap();
        assert_eq!(
            spec,
            SolverSpec::Cfr {
                iterations: CfrConfig::default().iterations
            }
        );
        assert_eq!(spec.label(), "cfr");
        assert!(SolverSpec::Cfr { iterations: 0 }
            .build(&games::battle_of_the_sexes())
            .is_err());
    }

    #[test]
    fn jobs_past_the_enumeration_limit_are_rejected() {
        let job = JobSpec {
            game: GameSpec::Random {
                rows: 4,
                cols: 17,
                max_payoff: 3,
                seed: 0,
            },
            solver: SolverSpec::Cfr { iterations: 10 },
            ..sample_job()
        };
        let err = job.prepare().err().expect("rejected");
        assert_eq!(
            err.message,
            "ground truth: game `random-4x17-seed0` is 4x17, past the \
             16-action support-enumeration limit"
        );
    }

    #[test]
    fn prepared_job_carries_ground_truth() {
        let job = sample_job().prepare().unwrap();
        assert_eq!(job.ground_truth.len(), 3, "BoS has 3 equilibria");
        assert_eq!(job.runs, 25);
        assert!(job.label.contains("cnash"));
    }
}
