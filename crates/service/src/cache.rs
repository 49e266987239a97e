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
//! (plus, for programming, the hardware config and silicon seed). The
//! solver spec defines what is programmed and under which key
//! ([`SolverSpec::build_with`]); this cache only memoizes what the spec
//! programs under that key, and the ground truth under
//! [`BimatrixGame::canonical_fingerprint`]. Parameter sweeps that only
//! change per-request knobs — iteration budget, gap tolerance, WTA
//! routing, D-Wave model or read budget, run counts, seeds — all hit the
//! same cache line and skip the `O(n·m)` mapping path entirely.
//!
//! Lookups are **single-flight**: concurrent requests for the same key
//! block on one build (via [`OnceLock`]) instead of programming the
//! same instance twice, so a burst of identical requests does the
//! expensive work exactly once.

use cnash_core::NashSolver;
use cnash_game::{BimatrixGame, Equilibrium};
use cnash_runtime::spec::{self, Programmed, SolverSpec};
use cnash_runtime::{Json, SpecError};
use cnash_telemetry::{Counter, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type InstanceSlot = Arc<OnceLock<Result<Programmed, SpecError>>>;
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

    /// Builds the solver for a request on an already-built game, reusing
    /// the programmed instance when an equivalent one is cached.
    ///
    /// A spec rejected before the lookup (an invalid config or D-Wave
    /// model, or an `ideal` or `cfr` spec that fails to build) neither
    /// programs nor counts. Every other request counts one hit or miss;
    /// `ideal` and `cfr`, which program nothing, count a miss.
    ///
    /// # Errors
    ///
    /// Errors on invalid specs or unmappable games. Programming errors
    /// are cached too (negative caching): re-requesting a game that
    /// cannot be programmed fails fast instead of re-attempting the
    /// mapping.
    pub fn prepare_with_game(
        &self,
        game: BimatrixGame,
        solver_spec: &SolverSpec,
    ) -> Result<PreparedJob, SpecError> {
        let mut looked_up = None;
        let solver = solver_spec.build_with(&game, |key, program| {
            let (slot, found) = slot(&self.instances, self.max_instances, key);
            let programmed = slot.get_or_init(program).clone();
            // Finding a negatively-cached failure skips the mapping
            // attempt but serves nothing — not a hit.
            looked_up = Some(found && programmed.is_ok());
            programmed
        });
        let hit = looked_up == Some(true);
        if hit {
            self.instance_hits.inc();
        } else if looked_up.is_some() || solver.is_ok() {
            self.instance_misses.inc();
        }
        Ok(PreparedJob {
            game,
            solver: solver?,
            cache_hit: hit,
        })
    }

    /// The (cached) ground-truth equilibria of `game`.
    ///
    /// # Errors
    ///
    /// Errors, before the lookup (nothing counts), when `game` is past
    /// the support-enumeration limit ([`spec::ground_truth`]).
    pub fn ground_truth(&self, game: &BimatrixGame) -> Result<Arc<Vec<Equilibrium>>, SpecError> {
        let enumerate = spec::ground_truth(game)?;
        let key = game.canonical_fingerprint();
        let (slot, hit) = slot(&self.truths, self.max_truths, key);
        if hit {
            self.truth_hits.inc();
        } else {
            self.truth_misses.inc();
        }
        Ok(Arc::clone(slot.get_or_init(|| Arc::new(enumerate()))))
    }
}

/// The slot under `key` in a bounded map, and whether it was resident.
/// A new slot may evict an arbitrary resident entry first (random
/// replacement — HashMap iteration order is effectively random);
/// in-flight holders of an evicted slot keep their `Arc`, the entry just
/// stops being findable.
fn slot<V>(
    map: &Mutex<HashMap<u64, Arc<OnceLock<V>>>>,
    capacity: usize,
    key: u64,
) -> (Arc<OnceLock<V>>, bool) {
    let mut map = map.lock().expect("cache poisoned");
    if let Some(slot) = map.get(&key) {
        return (Arc::clone(slot), true);
    }
    while map.len() >= capacity {
        let Some(&victim) = map.keys().find(|&&k| k != key) else {
            break;
        };
        map.remove(&victim);
    }
    let slot = Arc::new(OnceLock::new());
    map.insert(key, Arc::clone(&slot));
    (slot, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_runtime::{ConfigSpec, GameSpec};

    fn prepare(
        cache: &InstanceCache,
        game: &GameSpec,
        spec: &SolverSpec,
    ) -> Result<PreparedJob, SpecError> {
        cache.prepare_with_game(game.build()?, spec)
    }

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
        let cold = prepare(&cache, &game, &cnash_spec(800)).unwrap();
        assert!(!cold.cache_hit);
        let warm = prepare(&cache, &game, &cnash_spec(800)).unwrap();
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
        assert!(!prepare(&cache, &game, &cnash_spec(500)).unwrap().cache_hit);
        // Different iteration budget: same programming.
        assert!(prepare(&cache, &game, &cnash_spec(900)).unwrap().cache_hit);
        // Different hardware seed: different silicon, new instance.
        let other_seed = SolverSpec::CNash {
            config: ConfigSpec::paper(12),
            hardware_seed: 6,
        };
        assert!(!prepare(&cache, &game, &other_seed).unwrap().cache_hit);
        // Different preset (ideal crossbar ≠ paper crossbar): new
        // instance even at the same seed.
        let ideal_hw = SolverSpec::CNash {
            config: ConfigSpec::ideal(12),
            hardware_seed: 5,
        };
        assert!(!prepare(&cache, &game, &ideal_hw).unwrap().cache_hit);
        assert_eq!(cache.stats().instances, 3);
    }

    #[test]
    fn equal_payoffs_hit_across_spec_forms() {
        // The same game arriving as a builtin and as explicit matrices
        // must share the cache line: the key is canonical.
        let cache = InstanceCache::new();
        let builtin = GameSpec::Builtin("matching_pennies".into());
        let explicit = GameSpec::from_game(&builtin.build().unwrap());
        assert!(
            !prepare(&cache, &builtin, &cnash_spec(500))
                .unwrap()
                .cache_hit
        );
        assert!(
            prepare(&cache, &explicit, &cnash_spec(500))
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
        assert!(
            !prepare(&cache, &family, &cnash_spec(500))
                .unwrap()
                .cache_hit
        );
        assert!(
            prepare(&cache, &explicit, &cnash_spec(500))
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
            !prepare(&cache, &other_seed, &cnash_spec(500))
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
        assert!(!prepare(&cache, &game, &spec("2000q", 5)).unwrap().cache_hit);
        // Model and read budget are per-request: still the same S-QUBO.
        assert!(
            prepare(&cache, &game, &spec("advantage4.1", 50))
                .unwrap()
                .cache_hit
        );
        assert!(prepare(&cache, &game, &spec("5000x", 1)).is_err());
    }

    #[test]
    fn ideal_is_uncacheable_and_truth_is_cached() {
        let cache = InstanceCache::new();
        let spec = SolverSpec::Ideal {
            config: ConfigSpec::ideal(12),
        };
        let game = GameSpec::Builtin("stag_hunt".into());
        assert!(!prepare(&cache, &game, &spec).unwrap().cache_hit);
        assert!(!prepare(&cache, &game, &spec).unwrap().cache_hit);
        assert_eq!(cache.stats().instances, 0);

        let g = game.build().unwrap();
        let a = cache.ground_truth(&g).unwrap();
        let b = cache.ground_truth(&g).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.truth_hits, stats.truth_misses), (1, 1));
    }

    #[test]
    fn truth_past_the_enumeration_limit_errors_before_the_lookup() {
        let cache = InstanceCache::new();
        let game = GameSpec::Random {
            rows: 17,
            cols: 3,
            max_payoff: 3,
            seed: 0,
        };
        let err = cache.ground_truth(&game.build().unwrap()).unwrap_err();
        assert!(err.message.contains("16-action"), "{}", err.message);
        assert_eq!(cache.stats(), InstanceCache::new().stats());
    }

    #[test]
    fn cfr_is_uncacheable_and_solves_through_the_trait() {
        let cache = InstanceCache::new();
        let spec = SolverSpec::Cfr { iterations: 4000 };
        let game = GameSpec::Builtin("prisoners_dilemma".into());
        let a = prepare(&cache, &game, &spec).unwrap();
        assert!(!a.cache_hit);
        assert!(!prepare(&cache, &game, &spec).unwrap().cache_hit);
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
        assert!(prepare(&cache, &game, &cnash_spec(100)).is_err());
        assert!(prepare(&cache, &game, &cnash_spec(100)).is_err());
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
        assert!(!prepare(&cache, &game, &cnash_spec(100)).unwrap().cache_hit);
        assert!(prepare(&cache, &game, &cnash_spec(100)).unwrap().cache_hit);
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
            assert!(!prepare(&cache, &game(name), &spec).unwrap().cache_hit);
        }
        assert_eq!(cache.stats().instances, 2, "capacity holds");
        // Replaying the set stays within capacity and still serves hits
        // for whatever random replacement left resident (evicted keys
        // re-program and may in turn evict — between 1 and 2 of the 3
        // replays can hit, never 0 or 3).
        let hits = ["battle_of_the_sexes", "prisoners_dilemma", "stag_hunt"]
            .iter()
            .filter(|name| prepare(&cache, &game(name), &spec).unwrap().cache_hit)
            .count();
        assert!((1..=2).contains(&hits), "hits = {hits}");
        assert_eq!(cache.stats().instances, 2);
    }
}
