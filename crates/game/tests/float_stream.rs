//! Pins the float oracles' output stream bit for bit.
//!
//! Support enumeration and Lemke–Howson from every label are the float
//! ground truth every C-Nash success is scored against, so their output
//! must not move by accident — not even by one ulp. The proptests only
//! check that Lemke–Howson lands inside the enumerated set within a
//! tolerance; this test pins the exact `f64` bits of every enumerated
//! profile and gap, and of every Lemke–Howson result (or its error),
//! across the family grid. Any change to them must be a deliberate
//! re-baseline, made by updating the digests below in the same change
//! that justifies it.

use cnash_game::families::Family;
use cnash_game::lemke_howson::lemke_howson;
use cnash_game::support_enum::enumerate_equilibria;

const SIZES: std::ops::RangeInclusive<usize> = 2..=6;
const SEEDS: [u64; 3] = [0, 1, 2];

/// FNV-1a over the `f64::to_bits` of every enumerated profile and gap,
/// then of every Lemke–Howson profile (or the error it returned) label
/// by label, size by size, seed by seed.
fn family_digest(family: Family) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    // `+ 0.0` maps `-0.0` to `+0.0` and leaves every other value as it
    // is. The sign of a zero probability is not pinned: `f64::max(-0.0,
    // 0.0)` may return either zero, and debug and release builds differ.
    let bits = |v: &[f64]| -> Vec<u8> {
        v.iter()
            .flat_map(|&x| (x + 0.0).to_bits().to_le_bytes())
            .collect()
    };
    for size in SIZES {
        for seed in SEEDS {
            let game = family
                .build(size, family.default_scale(), family.default_knob(), seed)
                .expect("default parameters are valid");
            for eq in enumerate_equilibria(&game, 1e-9) {
                eat(&bits(eq.row.probs()));
                eat(&bits(eq.col.probs()));
                eat(&bits(&[eq.gap]));
                eat(b";");
            }
            eat(b"|");
            for label in 0..game.row_actions() + game.col_actions() {
                match lemke_howson(&game, label) {
                    Ok(eq) => {
                        eat(b"ok");
                        eat(&bits(eq.row.probs()));
                        eat(&bits(eq.col.probs()));
                    }
                    Err(e) => eat(format!("err {e:?}").as_bytes()),
                }
                eat(b";");
            }
            eat(b"#");
        }
    }
    hash
}

#[test]
fn family_grid_float_streams_are_pinned() {
    let got: Vec<String> = Family::ALL
        .iter()
        .map(|&family| format!("{}: {:016x}", family.name(), family_digest(family)))
        .collect();
    let want: [&str; 6] = [
        "congestion: b099c928430c5d16",
        "dominance_solvable: 422807d32c8b6ab3",
        "covariant: 36a2ee5cd5569c94",
        "sparse: 04dcab707ff6466e",
        "degenerate: dd4a776f02477285",
        "anti_coordination: 9f4bfa3f052fa59d",
    ];
    assert_eq!(got, want);
}
