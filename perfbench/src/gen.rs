//! Seeded workload inputs. The workload seed is consumed here and only
//! here: the program under test receives the generated games and
//! requests, never the seed itself.

use cnash_game::families::Family;
use cnash_runtime::spec::{ConfigSpec, GameSpec, JobSpec, SolverSpec};

/// SplitMix64: a tiny, fully specified generator, so inputs never depend
/// on a library's stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and a stream tag (one stream per input
    /// kind, so adding draws to one never shifts another).
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// A seeded family instance of `size × size`.
pub fn family_game(family: Family, size: usize, seed: u64) -> GameSpec {
    GameSpec::Family {
        family: family.name().to_string(),
        size,
        rows: None,
        cols: None,
        scale: None,
        knob: None,
        seed,
    }
}

/// A C-Nash (paper preset) job.
pub fn cnash_job(game: GameSpec, iterations: usize, runs: usize, base_seed: u64) -> JobSpec {
    JobSpec {
        game,
        solver: SolverSpec::CNash {
            config: ConfigSpec::paper(12).with_iterations(iterations),
            hardware_seed: 1,
        },
        runs,
        base_seed,
        early_stop: None,
        label: None,
    }
}

/// `paper_batch`: the hardware seed of the C-Nash silicon and the base
/// seed of sweep `i`.
pub fn paper_seeds(seed: u64) -> (u64, impl Fn(u64) -> u64) {
    let mut g = SplitMix::new(seed, 1);
    let hardware = g.next_u64() % 1_000_000;
    let base = g.next_u64() % (1 << 40);
    (hardware, move |i: u64| {
        base.wrapping_add(i.wrapping_mul(1_000_003))
    })
}

/// SA iterations of a `serve_hot` request: a short anneal.
pub const HOT_ITERATIONS: usize = 400;
/// Distinct games in the `serve_hot` hot set.
pub const HOT_GAMES: usize = 48;
/// C-Nash runs per `serve_hot` request: every game is asked once with
/// each count.
pub const HOT_RUNS: [usize; 4] = [1, 2, 3, 4];

/// `serve_hot`: the hot set (one warm-up request per game, solved before
/// the clock starts) and the request stream the timed phases cycle
/// through. The stream asks every game once per run count, in a seeded
/// order, so every seed offers the same work; only the instances, run
/// seeds and order vary.
pub fn hot_requests(seed: u64) -> (Vec<JobSpec>, Vec<JobSpec>) {
    let mut g = SplitMix::new(seed, 2);
    let games: Vec<GameSpec> = (0..HOT_GAMES)
        .map(|i| {
            // Families and sizes 3..=8 cycle; only the instances vary.
            let family = Family::ALL[i % Family::ALL.len()];
            let size = 3 + (i / Family::ALL.len()) % 6;
            family_game(family, size, g.next_u64() % 1_000_000)
        })
        .collect();
    let warm = games
        .iter()
        .map(|game| cnash_job(game.clone(), HOT_ITERATIONS, 1, 0))
        .collect();
    let mut stream: Vec<JobSpec> = games
        .iter()
        .flat_map(|game| HOT_RUNS.iter().map(move |&runs| (game, runs)))
        .map(|(game, runs)| cnash_job(game.clone(), HOT_ITERATIONS, runs, g.next_u64() % 1_000_000))
        .collect();
    g.shuffle(&mut stream);
    (warm, stream)
}

/// `oracle_sweep` grid sizes (3×3–6×6), weighted toward the small
/// end so a run certifies enough games for a p99.
pub const ORACLE_SIZES: [usize; 9] = [3, 3, 3, 4, 4, 4, 5, 5, 6];
/// Grid points in one pass over the grid.
pub const ORACLE_PASS: usize = 720;

/// `oracle_sweep`: the six-family × size grid, seeded instances. Every
/// pass of a run certifies this same grid, so passes differ only in
/// how fast the machine ran them.
pub fn oracle_grid(seed: u64) -> Vec<GameSpec> {
    let mut g = SplitMix::new(seed, 5);
    (0..ORACLE_PASS)
        .map(|i| {
            let family = Family::ALL[i % Family::ALL.len()];
            let size = ORACLE_SIZES[(i / Family::ALL.len()) % ORACLE_SIZES.len()];
            family_game(family, size, g.next_u64() % 1_000_000)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(jobs: &[JobSpec]) -> Vec<String> {
        jobs.iter().map(|j| j.to_json().compact()).collect()
    }

    fn games(specs: &[GameSpec]) -> Vec<String> {
        specs.iter().map(|g| g.to_json().compact()).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(wire(&hot_requests(7).0), wire(&hot_requests(7).0));
        assert_eq!(wire(&hot_requests(7).1), wire(&hot_requests(7).1));
        assert_eq!(games(&oracle_grid(7)), games(&oracle_grid(7)));
        assert_eq!(paper_seeds(7).0, paper_seeds(7).0);
        assert_eq!((paper_seeds(7).1)(3), (paper_seeds(7).1)(3));
    }

    #[test]
    fn different_seeds_different_inputs() {
        assert_ne!(wire(&hot_requests(7).1), wire(&hot_requests(8).1));
        assert_ne!(games(&oracle_grid(7)), games(&oracle_grid(8)));
        assert_ne!((paper_seeds(7).1)(0), (paper_seeds(8).1)(0));
    }
}
