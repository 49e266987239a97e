//! Pins the exact oracle's output stream bit for bit.
//!
//! `enumerate_exact` is the trust anchor every float oracle and
//! diffcheck verdict is measured against, so its output — exact
//! profiles, their order, and which ones are simplex vertex
//! representatives of a continuum — must not move by accident. The
//! `exact_vs_float` proptest only checks agreement within tolerance;
//! this test pins the exact values themselves, including the simplex
//! vertices that the `degenerate` family's larger games produce. Any
//! change to them must be a deliberate re-baseline, made by updating
//! the digests below in the same change that justifies it.

use cnash_exact::Rat;
use cnash_game::exact_enum::enumerate_exact;
use cnash_game::families::Family;

const SIZES: std::ops::RangeInclusive<usize> = 2..=6;
const SEEDS: [u64; 3] = [0, 1, 2];

/// FNV-1a over the printed form of every exact equilibrium
/// (`row|col|singular`, rationals in canonical `Display` form), size
/// by size, seed by seed.
fn family_digest(family: Family) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let side = |v: &[Rat]| {
        v.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    for size in SIZES {
        for seed in SEEDS {
            let game = family
                .build(size, family.default_scale(), family.default_knob(), seed)
                .expect("default parameters are valid");
            for eq in enumerate_exact(&game) {
                let line = format!("{}|{}|{}\n", side(&eq.row), side(&eq.col), eq.singular);
                eat(line.as_bytes());
            }
            eat(b"#");
        }
    }
    hash
}

#[test]
fn family_grid_exact_streams_are_pinned() {
    let got: Vec<String> = Family::ALL
        .iter()
        .map(|&family| format!("{}: {:016x}", family.name(), family_digest(family)))
        .collect();
    let want: [&str; 6] = [
        "congestion: 2af993a24662e697",
        "dominance_solvable: de56938e32611077",
        "covariant: 10480ce9d2388d82",
        "sparse: 56ab14a1b9c56bd4",
        "degenerate: dc8b370e76612d25",
        "anti_coordination: e7f3e777ec9d3b8b",
    ];
    assert_eq!(got, want);
}
