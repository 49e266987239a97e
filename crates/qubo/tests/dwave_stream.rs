//! Pins the emulated D-Wave samplers' output stream bit for bit.
//!
//! Every D-Wave row of Table 1 and every D-Wave golden response is a
//! function of `DWaveModel::sample` on an S-QUBO. Any change to the
//! annealing loop, its temperature schedule, its RNG draws or the
//! chain-break model moves this stream; such a change must be a
//! deliberate re-baseline, made by updating the digests below in the
//! same change that justifies it.

use cnash_game::games::{battle_of_the_sexes, bird_game, modified_prisoners_dilemma};
use cnash_qubo::dwave::DWaveModel;
use cnash_qubo::squbo::{SQubo, SQuboWeights};

const SEEDS: [u64; 3] = [0, 7, 0xC0FFEE];
const READS: usize = 4;

/// FNV-1a over every read's bits, read by read, seed by seed.
fn stream_digest(model: &DWaveModel, squbo: &SQubo) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for seed in SEEDS {
        for read in model.sample(squbo.qubo(), READS, seed) {
            for bit in read {
                eat(u8::from(bit));
            }
            eat(0xFF);
        }
    }
    hash
}

#[test]
fn paper_game_sample_streams_are_pinned() {
    let games = [
        ("battle_of_the_sexes", battle_of_the_sexes()),
        ("bird_game", bird_game()),
        ("modified_prisoners_dilemma", modified_prisoners_dilemma()),
    ];
    let presets = [
        ("2000q", DWaveModel::dwave_2000q()),
        ("advantage_4_1", DWaveModel::advantage_4_1()),
    ];
    let mut got = Vec::new();
    for (game_name, game) in &games {
        let squbo = SQubo::build(game, &SQuboWeights::default()).expect("paper games build");
        for (preset_name, model) in &presets {
            got.push(format!(
                "{game_name}/{preset_name}: {:016x}",
                stream_digest(model, &squbo)
            ));
        }
    }
    let want = [
        "battle_of_the_sexes/2000q: 5dc0a320116fdc13",
        "battle_of_the_sexes/advantage_4_1: e71738aaa785faac",
        "bird_game/2000q: 8f9129b016c4c9fe",
        "bird_game/advantage_4_1: 445cc47fa482f122",
        "modified_prisoners_dilemma/2000q: fea4f6ce124127d0",
        "modified_prisoners_dilemma/advantage_4_1: f13c95201d4e07ae",
    ];
    assert_eq!(got, want);
}
