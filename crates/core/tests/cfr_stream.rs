//! Pins the CFR solver's output stream bit for bit.
//!
//! Every `cfr` job and every `cfr_*` key of the `diffcheck` summary is
//! a function of `CfrSolver::run`. Any change to its RNG draws, the
//! order of its regret and average updates, or the exact evaluation of
//! its checkpoints moves this stream; such a change must be a
//! deliberate re-baseline, made by updating the digests below in the
//! same change that justifies it.

use cnash_core::cfr::{CfrConfig, CfrSolver};
use cnash_core::{NashSolver, RunOutcome};
use cnash_game::families::Family;
use cnash_game::games::{
    battle_of_the_sexes, bird_game, matching_pennies, modified_prisoners_dilemma,
    rock_paper_scissors,
};
use cnash_game::{BimatrixGame, MixedStrategy};

const SEEDS: [u64; 3] = [0, 7, 0xC0FFEE];

/// The solver's defaults at a short budget: most runs claim a pure
/// snap at an early checkpoint.
fn claiming() -> CfrConfig {
    CfrConfig::new(3_000)
}

/// No snap can be claimed (exact regrets are never negative), so every
/// run walks its whole budget and returns its best average iterate.
fn averaging() -> CfrConfig {
    CfrConfig {
        checkpoints: 16,
        claim_tolerance: -1.0,
        ..CfrConfig::new(2_000)
    }
}

/// FNV-1a over every bit of a run: the returned pair, each recorded
/// solution, the claim flag, both times and the measured objective.
fn digest(hash: &mut u64, out: &RunOutcome) {
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let eat_pair = |eat: &mut dyn FnMut(&[u8]), p: &MixedStrategy, q: &MixedStrategy| {
        for s in [p, q] {
            for w in s.probs() {
                eat(&w.to_bits().to_le_bytes());
            }
            eat(&[0xFE]);
        }
    };
    match out.pair() {
        Some((p, q)) => eat_pair(&mut eat, p, q),
        None => eat(&[0xFD]),
    }
    for (p, q) in &out.solutions {
        eat_pair(&mut eat, p, q);
    }
    eat(&[
        0xFF,
        u8::from(out.is_equilibrium),
        u8::from(out.solutions_truncated),
    ]);
    match out.hit_time {
        Some(t) => eat(&t.to_bits().to_le_bytes()),
        None => eat(&[0xFC]),
    }
    eat(&out.total_time.to_bits().to_le_bytes());
    eat(&out.measured_objective.to_bits().to_le_bytes());
}

fn stream_digest(game: &BimatrixGame, config: CfrConfig) -> u64 {
    let solver = CfrSolver::new(game, config).expect("valid config");
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for seed in SEEDS {
        digest(&mut hash, &solver.run(seed));
    }
    hash
}

#[test]
fn cfr_run_streams_are_pinned() {
    let mut games = vec![
        ("battle_of_the_sexes", battle_of_the_sexes()),
        ("bird_game", bird_game()),
        ("modified_prisoners_dilemma", modified_prisoners_dilemma()),
        ("matching_pennies", matching_pennies()),
        ("rock_paper_scissors", rock_paper_scissors()),
    ];
    for (family, size) in [
        (Family::Congestion, 3),
        (Family::DominanceSolvable, 4),
        (Family::Covariant, 4),
        (Family::Sparse, 4),
        (Family::Degenerate, 4),
        (Family::AntiCoordination, 4),
    ] {
        let game = family
            .build(size, family.default_scale(), family.default_knob(), 11)
            .expect("family builds");
        games.push((family.name(), game));
    }
    let got: Vec<String> = games
        .iter()
        .map(|(name, game)| {
            format!(
                "{name}: {:016x} {:016x}",
                stream_digest(game, claiming()),
                stream_digest(game, averaging())
            )
        })
        .collect();
    let want = [
        "battle_of_the_sexes: 3aa21c1324430bd7 0cbb965842359991",
        "bird_game: daea2c173ed72d57 40364a5ef236c2e0",
        "modified_prisoners_dilemma: 5344e82b1c8b1ad7 726bbaf9bc072e3f",
        "matching_pennies: 047d26612ee950d7 f893156fff1be69d",
        "rock_paper_scissors: 94946f705992b041 a4bf8ab5bac66748",
        "congestion: 1ef5e4b4c1983617 d198d309773c22e6",
        "dominance_solvable: af5632e3bbbb2dd7 2706199a519f17d5",
        "covariant: 6f5f7d8796a10c57 79c2e709b0fb420c",
        "sparse: ac160f0224f56a97 f6fdce13bde367cf",
        "degenerate: 80744037828abfd7 a9c3900998219f16",
        "anti_coordination: 27da9c47e7227ad7 a700cc94725c06a5",
    ];
    assert_eq!(got, want);
}
