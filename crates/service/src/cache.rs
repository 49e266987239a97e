//! The instance cache: memoized programmed hardware and ground truth.
//!
//! Instantiating a solver for a request has two costs that dwarf the
//! per-request state:
//!
//! * **programming** — mapping the game onto the bi-crossbar samples
//!   `O(n·m·I²·t)` devices (C-Nash), and building the Eq. 6 S-QUBO
//!   blows the game up into slack variables (D-Wave baselines);
//! * **ground truth** — support enumeration of the game's equilibria
//!   for coverage statistics.
//!
//! Both are pure functions of the game's *canonical* payoff structure
//! (plus, for programming, the hardware config and silicon seed), so
//! the cache keys them on [`BimatrixGame::canonical_fingerprint`]
//! combined with the programming-relevant config fingerprints.
//! Parameter sweeps that only change per-request knobs — iteration
//! budget, gap tolerance, WTA routing, D-Wave model or read budget,
//! run counts, seeds — all hit the same cache line and skip the
//! `O(n·m)` mapping path entirely.
//!
//! Lookups are **single-flight**: concurrent requests for the same key
//! block on one build (via [`OnceLock`]) instead of programming the
//! same instance twice, so a burst of identical requests does the
//! expensive work exactly once.

use cnash_core::baselines::DWaveNashSolver;
use cnash_core::{CNashSolver, IdealSolver, NashSolver, ProgrammedCNash};
use cnash_game::canonical::Hasher64;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::{BimatrixGame, Equilibrium};
use cnash_qubo::squbo::{SQubo, SQuboWeights};
use cnash_runtime::spec::{dwave_model, GameSpec, SolverSpec};
use cnash_runtime::{Json, SpecError};
use cnash_telemetry::{Counter, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Ground-truth enumeration tolerance (the workspace-wide epsilon used
/// by every evaluation harness).
const TRUTH_TOL: f64 = 1e-9;

#[derive(Debug, Clone)]
enum ProgrammedInstance {
    CNash(ProgrammedCNash),
    SQubo(Arc<SQubo>),
}

type InstanceSlot = Arc<OnceLock<Result<ProgrammedInstance, SpecError>>>;
type TruthSlot = Arc<OnceLock<Arc<Vec<Equilibrium>>>>;

/// A solver materialised for one request.
pub struct PreparedJob {
    /// The built game instance.
    pub game: BimatrixGame,
    /// The solver, ready to run.
    pub solver: Box<dyn NashSolver>,
    /// Whether the programmed instance came out of the cache (always
    /// `false` for solvers with no programming step, e.g. `ideal` or
    /// `cfr`).
    pub cache_hit: bool,
}

/// Counter snapshot of an [`InstanceCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Solve requests served from a cached programmed instance.
    pub instance_hits: u64,
    /// Solve requests that had to program an instance (or that are
    /// uncacheable, e.g. `ideal` solvers).
    pub instance_misses: u64,
    /// Distinct programmed instances held.
    pub instances: u64,
    /// Ground-truth lookups served from cache.
    pub truth_hits: u64,
    /// Ground-truth enumerations performed.
    pub truth_misses: u64,
    /// Distinct ground-truth sets held.
    pub truths: u64,
}

impl CacheStats {
    /// Serialises the snapshot. Counts are emitted as [`Json::uint`] so
    /// long-running daemons report them exactly: the old `as f64` path
    /// silently lost precision past 2^53. The rendered bytes are
    /// unchanged for values below that cliff (integers print as
    /// integers either way).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("instance_hits", Json::uint(self.instance_hits)),
            ("instance_misses", Json::uint(self.instance_misses)),
            ("instances", Json::uint(self.instances)),
            ("truth_hits", Json::uint(self.truth_hits)),
            ("truth_misses", Json::uint(self.truth_misses)),
            ("truths", Json::uint(self.truths)),
        ])
    }
}

/// Default bound on cached programmed instances. Each C-Nash entry
/// pins `O(n·m·I²·t)` device state, so the instance map is the
/// daemon's dominant memory consumer and must not grow with traffic.
pub const DEFAULT_MAX_INSTANCES: usize = 256;
/// Default bound on cached ground-truth sets (equilibria are small).
pub const DEFAULT_MAX_TRUTHS: usize = 4096;

/// Memoizes programmed instances and ground-truth enumerations across
/// requests. Shared (`Arc`) by every connection and scheduler shard.
///
/// Both maps are **bounded**: once a map reaches its capacity, adding
/// a key evicts an arbitrary resident entry (random-replacement —
/// constant-time, no recency bookkeeping on the hot path). Requests
/// already holding an evicted slot keep using it (`Arc`); it is merely
/// no longer findable, so the worst case of eviction is a re-program,
/// never an error.
#[derive(Debug)]
pub struct InstanceCache {
    instances: Mutex<HashMap<u64, InstanceSlot>>,
    truths: Mutex<HashMap<u64, TruthSlot>>,
    max_instances: usize,
    max_truths: usize,
    instance_hits: Arc<Counter>,
    instance_misses: Arc<Counter>,
    truth_hits: Arc<Counter>,
    truth_misses: Arc<Counter>,
}

impl Default for InstanceCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_MAX_INSTANCES, DEFAULT_MAX_TRUTHS)
    }
}

impl InstanceCache {
    /// Creates an empty cache with the default capacity bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache whose hit/miss counters live in
    /// `registry` (as `cache_instance_hits`, `cache_instance_misses`,
    /// `cache_truth_hits`, `cache_truth_misses`), so a metrics snapshot
    /// of the registry sees them without asking the cache.
    pub(crate) fn with_registry(registry: &Registry) -> Self {
        Self {
            instance_hits: registry.counter("cache_instance_hits"),
            instance_misses: registry.counter("cache_instance_misses"),
            truth_hits: registry.counter("cache_truth_hits"),
            truth_misses: registry.counter("cache_truth_misses"),
            ..Self::default()
        }
    }

    /// Creates an empty cache bounded at `max_instances` programmed
    /// instances and `max_truths` ground-truth sets (each clamped to at
    /// least 1).
    pub fn with_capacity(max_instances: usize, max_truths: usize) -> Self {
        Self {
            instances: Mutex::new(HashMap::new()),
            truths: Mutex::new(HashMap::new()),
            max_instances: max_instances.max(1),
            max_truths: max_truths.max(1),
            instance_hits: Arc::new(Counter::new()),
            instance_misses: Arc::new(Counter::new()),
            truth_hits: Arc::new(Counter::new()),
            truth_misses: Arc::new(Counter::new()),
        }
    }

    /// A snapshot of the hit/miss counters and entry counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            instance_hits: self.instance_hits.get(),
            instance_misses: self.instance_misses.get(),
            instances: self.instances.lock().expect("cache poisoned").len() as u64,
            truth_hits: self.truth_hits.get(),
            truth_misses: self.truth_misses.get(),
            truths: self.truths.lock().expect("cache poisoned").len() as u64,
        }
    }

    /// Builds the game and solver for a request, reusing the programmed
    /// instance when an equivalent one is cached.
    ///
    /// # Errors
    ///
    /// Errors on invalid specs or unmappable games. Build errors are
    /// cached too (negative caching): re-requesting a game that cannot
    /// be programmed fails fast instead of re-attempting the mapping.
    pub fn prepare(
        &self,
        game_spec: &GameSpec,
        solver_spec: &SolverSpec,
    ) -> Result<PreparedJob, SpecError> {
        self.prepare_with_game(game_spec.build()?, solver_spec)
    }

    /// [`InstanceCache::prepare`] for a game that is already built —
    /// the solve fast path builds the game once to derive the solution
    /// store key and must not pay (or risk divergence from) a second
    /// `GameSpec::build`.
    ///
    /// # Errors
    ///
    /// Same contract as [`InstanceCache::prepare`].
    pub fn prepare_with_game(
        &self,
        game: BimatrixGame,
        solver_spec: &SolverSpec,
    ) -> Result<PreparedJob, SpecError> {
        let game_fp = game.canonical_fingerprint();
        match solver_spec {
            SolverSpec::CNash {
                config,
                hardware_seed,
            } => {
                let built = config.build().map_err(|e| SpecError {
                    message: format!("cnash: {e}"),
                })?;
                let mut h = Hasher64::new();
                h.write_str("cnash")
                    .write_u64(game_fp)
                    .write_u64(built.crossbar.program_fingerprint())
                    .write_str(&format!("{:?}", built.wta))
                    .write_u64(*hardware_seed);
                let (slot, hit) = self.instance_slot(h.finish());
                let programmed = slot.get_or_init(|| {
                    CNashSolver::new(&game, built, *hardware_seed)
                        .map(|s| ProgrammedInstance::CNash(s.programmed()))
                        .map_err(|e| SpecError {
                            message: format!("cnash: {e}"),
                        })
                });
                // Finding a negatively-cached failure skips the mapping
                // attempt but serves nothing — not a hit.
                let hit = hit && programmed.is_ok();
                self.count_instance(hit);
                let ProgrammedInstance::CNash(parts) = programmed.clone()? else {
                    return Err(SpecError {
                        message: "instance cache key collision (cnash)".into(),
                    });
                };
                let solver =
                    CNashSolver::from_programmed(&game, built, parts).map_err(|e| SpecError {
                        message: format!("cnash: {e}"),
                    })?;
                Ok(PreparedJob {
                    game,
                    solver: Box::new(solver),
                    cache_hit: hit,
                })
            }
            SolverSpec::DWave {
                model,
                reads_per_run,
            } => {
                let device = dwave_model(model)?;
                let mut h = Hasher64::new();
                h.write_str("squbo").write_u64(game_fp);
                let (slot, hit) = self.instance_slot(h.finish());
                let programmed = slot.get_or_init(|| {
                    SQubo::build(&game, &SQuboWeights::default())
                        .map(|s| ProgrammedInstance::SQubo(Arc::new(s)))
                        .map_err(|e| SpecError {
                            message: format!("dwave: {e}"),
                        })
                });
                let hit = hit && programmed.is_ok();
                self.count_instance(hit);
                let ProgrammedInstance::SQubo(squbo) = programmed.clone()? else {
                    return Err(SpecError {
                        message: "instance cache key collision (squbo)".into(),
                    });
                };
                let solver = DWaveNashSolver::from_programmed(&game, device, *reads_per_run, squbo)
                    .map_err(|e| SpecError {
                        message: format!("dwave: {e}"),
                    })?;
                Ok(PreparedJob {
                    game,
                    solver: Box::new(solver),
                    cache_hit: hit,
                })
            }
            SolverSpec::Ideal { config } => {
                // Nothing is programmed: the ideal solver evaluates in
                // software. Counted as a miss (no programming skipped).
                self.count_instance(false);
                let built = config.build().map_err(|e| SpecError {
                    message: format!("ideal: {e}"),
                })?;
                let solver = IdealSolver::new(&game, built);
                Ok(PreparedJob {
                    game,
                    solver: Box::new(solver),
                    cache_hit: false,
                })
            }
            SolverSpec::Cfr { .. } => {
                // CFR runs in software on the bimatrix game — no
                // crossbar, no QUBO, nothing to memoize. Counted as a
                // miss like `ideal`.
                self.count_instance(false);
                let solver = solver_spec.build(&game)?;
                Ok(PreparedJob {
                    game,
                    solver,
                    cache_hit: false,
                })
            }
        }
    }

    /// The (cached) ground-truth equilibria of `game`.
    pub fn ground_truth(&self, game: &BimatrixGame) -> Arc<Vec<Equilibrium>> {
        let key = game.canonical_fingerprint();
        let (slot, hit) = {
            let mut map = self.truths.lock().expect("cache poisoned");
            match map.get(&key) {
                Some(slot) => (Arc::clone(slot), true),
                None => {
                    evict_to_fit(&mut map, self.max_truths, key);
                    let slot: TruthSlot = Arc::new(OnceLock::new());
                    map.insert(key, Arc::clone(&slot));
                    (slot, false)
                }
            }
        };
        if hit {
            self.truth_hits.inc();
        } else {
            self.truth_misses.inc();
        }
        Arc::clone(slot.get_or_init(|| Arc::new(enumerate_equilibria(game, TRUTH_TOL))))
    }

    fn instance_slot(&self, key: u64) -> (InstanceSlot, bool) {
        let mut map = self.instances.lock().expect("cache poisoned");
        match map.get(&key) {
            Some(slot) => (Arc::clone(slot), true),
            None => {
                evict_to_fit(&mut map, self.max_instances, key);
                let slot: InstanceSlot = Arc::new(OnceLock::new());
                map.insert(key, Arc::clone(&slot));
                (slot, false)
            }
        }
    }

    fn count_instance(&self, hit: bool) {
        if hit {
            self.instance_hits.inc();
        } else {
            self.instance_misses.inc();
        }
    }
}

/// Makes room for `incoming` in a bounded map by removing an arbitrary
/// resident entry when the map is at capacity (random replacement —
/// HashMap iteration order is effectively random). In-flight holders of
/// an evicted slot keep their `Arc`; the entry just stops being
/// findable.
fn evict_to_fit<V>(map: &mut HashMap<u64, V>, capacity: usize, incoming: u64) {
    while map.len() >= capacity {
        let Some(&victim) = map.keys().find(|&&k| k != incoming) else {
            return;
        };
        map.remove(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_runtime::ConfigSpec;

    fn cnash_spec(iterations: usize) -> SolverSpec {
        SolverSpec::CNash {
            config: ConfigSpec::paper(12).with_iterations(iterations),
            hardware_seed: 5,
        }
    }

    #[test]
    fn repeat_requests_hit_and_match_cold_runs_bitwise() {
        let cache = InstanceCache::new();
        let game = GameSpec::Builtin("battle_of_the_sexes".into());
        let cold = cache.prepare(&game, &cnash_spec(800)).unwrap();
        assert!(!cold.cache_hit);
        let warm = cache.prepare(&game, &cnash_spec(800)).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(cold.solver.run(3), warm.solver.run(3));
        let stats = cache.stats();
        assert_eq!((stats.instance_hits, stats.instance_misses), (1, 1));
        assert_eq!(stats.instances, 1);
    }

    #[test]
    fn parameter_sweeps_share_one_programmed_instance() {
        let cache = InstanceCache::new();
        let game = GameSpec::Builtin("bird_game".into());
        assert!(!cache.prepare(&game, &cnash_spec(500)).unwrap().cache_hit);
        // Different iteration budget: same programming.
        assert!(cache.prepare(&game, &cnash_spec(900)).unwrap().cache_hit);
        // Different hardware seed: different silicon, new instance.
        let other_seed = SolverSpec::CNash {
            config: ConfigSpec::paper(12),
            hardware_seed: 6,
        };
        assert!(!cache.prepare(&game, &other_seed).unwrap().cache_hit);
        // Different preset (ideal crossbar ≠ paper crossbar): new
        // instance even at the same seed.
        let ideal_hw = SolverSpec::CNash {
            config: ConfigSpec::ideal(12),
            hardware_seed: 5,
        };
        assert!(!cache.prepare(&game, &ideal_hw).unwrap().cache_hit);
        assert_eq!(cache.stats().instances, 3);
    }

    #[test]
    fn equal_payoffs_hit_across_spec_forms() {
        // The same game arriving as a builtin and as explicit matrices
        // must share the cache line: the key is canonical.
        let cache = InstanceCache::new();
        let builtin = GameSpec::Builtin("matching_pennies".into());
        let explicit = GameSpec::from_game(&builtin.build().unwrap());
        assert!(!cache.prepare(&builtin, &cnash_spec(500)).unwrap().cache_hit);
        assert!(
            cache
                .prepare(&explicit, &cnash_spec(500))
                .unwrap()
                .cache_hit
        );
    }

    #[test]
    fn family_specs_share_cache_lines_with_explicit_payoffs() {
        // A GameSpec::Family instance and the explicit capture of the
        // game it builds are the same canonical instance: one
        // programming pass serves both, and different seeds do not.
        let cache = InstanceCache::new();
        let family = GameSpec::Family {
            family: "anti_coordination".into(),
            size: 3,
            rows: None,
            cols: None,
            scale: None,
            knob: None,
            seed: 4,
        };
        let explicit = GameSpec::from_game(&family.build().unwrap());
        assert!(!cache.prepare(&family, &cnash_spec(500)).unwrap().cache_hit);
        assert!(
            cache
                .prepare(&explicit, &cnash_spec(500))
                .unwrap()
                .cache_hit
        );
        let other_seed = GameSpec::Family {
            family: "anti_coordination".into(),
            size: 3,
            rows: None,
            cols: None,
            scale: None,
            knob: None,
            seed: 5,
        };
        assert!(
            !cache
                .prepare(&other_seed, &cnash_spec(500))
                .unwrap()
                .cache_hit
        );
        assert_eq!(cache.stats().instances, 2);
    }

    #[test]
    fn dwave_instances_share_across_models_and_reads() {
        let cache = InstanceCache::new();
        let game = GameSpec::Builtin("prisoners_dilemma".into());
        let spec = |model: &str, reads: usize| SolverSpec::DWave {
            model: model.into(),
            reads_per_run: reads,
        };
        assert!(!cache.prepare(&game, &spec("2000q", 5)).unwrap().cache_hit);
        // Model and read budget are per-request: still the same S-QUBO.
        assert!(
            cache
                .prepare(&game, &spec("advantage4.1", 50))
                .unwrap()
                .cache_hit
        );
        assert!(cache.prepare(&game, &spec("5000x", 1)).is_err());
    }

    #[test]
    fn ideal_is_uncacheable_and_truth_is_cached() {
        let cache = InstanceCache::new();
        let spec = SolverSpec::Ideal {
            config: ConfigSpec::ideal(12),
        };
        let game = GameSpec::Builtin("stag_hunt".into());
        assert!(!cache.prepare(&game, &spec).unwrap().cache_hit);
        assert!(!cache.prepare(&game, &spec).unwrap().cache_hit);
        assert_eq!(cache.stats().instances, 0);

        let g = game.build().unwrap();
        let a = cache.ground_truth(&g);
        let b = cache.ground_truth(&g);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.truth_hits, stats.truth_misses), (1, 1));
    }

    #[test]
    fn cfr_is_uncacheable_and_solves_through_the_trait() {
        let cache = InstanceCache::new();
        let spec = SolverSpec::Cfr { iterations: 4000 };
        let game = GameSpec::Builtin("prisoners_dilemma".into());
        let a = cache.prepare(&game, &spec).unwrap();
        assert!(!a.cache_hit);
        assert!(!cache.prepare(&game, &spec).unwrap().cache_hit);
        assert_eq!(cache.stats().instances, 0, "nothing to memoize");
        let out = a.solver.run(1);
        assert!(out.is_equilibrium, "PD's pure equilibrium is claimable");
    }

    #[test]
    fn unmappable_games_fail_fast_on_repeat() {
        // Non-integer payoffs cannot be programmed; the failure is
        // cached (negative caching) and returned on every retry.
        let cache = InstanceCache::new();
        let game = GameSpec::Explicit {
            name: "frac".into(),
            row_payoffs: vec![vec![0.5, 0.0], vec![0.0, 1.0]],
            col_payoffs: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        };
        assert!(cache.prepare(&game, &cnash_spec(100)).is_err());
        assert!(cache.prepare(&game, &cnash_spec(100)).is_err());
        let stats = cache.stats();
        assert_eq!(stats.instances, 1, "the failed slot is held");
        // Finding the cached failure is not a hit — nothing was served.
        assert_eq!((stats.instance_hits, stats.instance_misses), (0, 2));
    }

    #[test]
    fn registry_backed_counters_are_visible_in_snapshots() {
        let registry = Registry::new();
        let cache = InstanceCache::with_registry(&registry);
        let game = GameSpec::Builtin("battle_of_the_sexes".into());
        assert!(!cache.prepare(&game, &cnash_spec(100)).unwrap().cache_hit);
        assert!(cache.prepare(&game, &cnash_spec(100)).unwrap().cache_hit);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cache_instance_hits"], 1);
        assert_eq!(snap.counters["cache_instance_misses"], 1);
        // The cache's own stats read the same counters.
        let stats = cache.stats();
        assert_eq!((stats.instance_hits, stats.instance_misses), (1, 1));
    }

    #[test]
    fn stats_json_is_exact_past_the_f64_cliff() {
        let stats = CacheStats {
            instance_hits: (1u64 << 53) + 1,
            instance_misses: 0,
            instances: 0,
            truth_hits: 0,
            truth_misses: 0,
            truths: 0,
        };
        let json = stats.to_json();
        assert_eq!(
            json.get("instance_hits").unwrap().as_u64().unwrap(),
            (1u64 << 53) + 1
        );
    }

    #[test]
    fn instance_map_is_bounded_by_eviction() {
        let cache = InstanceCache::with_capacity(2, 4096);
        let spec = SolverSpec::DWave {
            model: "2000q".into(),
            reads_per_run: 1,
        };
        let game = |name: &str| GameSpec::Builtin(name.into());
        for name in ["battle_of_the_sexes", "prisoners_dilemma", "stag_hunt"] {
            assert!(!cache.prepare(&game(name), &spec).unwrap().cache_hit);
        }
        assert_eq!(cache.stats().instances, 2, "capacity holds");
        // Replaying the set stays within capacity and still serves hits
        // for whatever random replacement left resident (evicted keys
        // re-program and may in turn evict — between 1 and 2 of the 3
        // replays can hit, never 0 or 3).
        let hits = ["battle_of_the_sexes", "prisoners_dilemma", "stag_hunt"]
            .iter()
            .filter(|name| cache.prepare(&game(name), &spec).unwrap().cache_hit)
            .count();
        assert!((1..=2).contains(&hits), "hits = {hits}");
        assert_eq!(cache.stats().instances, 2);
    }
}
