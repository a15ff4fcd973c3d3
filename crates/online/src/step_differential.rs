//! Bit-identity of the policy step against the per-point oracles it
//! replaced.
//!
//! The bound tracker tabulates each slot's cost once and the fractional
//! algorithms search through a memo with a fixed-point exit; both must
//! produce exactly the `f64`s of [`BoundTracker::step_per_point`] and
//! [`crate::fractional::oracle`]. Seeded cost sequences cover every
//! [`Cost`] variant (including a restricted-model [`Cost::Load`] with an
//! infinite prefix and [`Cost::Server`] with no load, fractional load and
//! load beyond the fleet), fleets `m` in {0, 1, 2, 16, 256} and both
//! [`EvalMode`]s. The `#[ignore]`d heavy variant raises the seed count
//! (`RSDC_HEAVY_CASES / 16`) and the horizon.

use crate::bounds::BoundTracker;
use crate::fractional::{oracle, EvalMode, HalfStep, MemorylessBalance, Obd};
use crate::traits::FractionalAlgorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsdc_core::prelude::*;

const FLEETS: [u32; 5] = [0, 1, 2, 16, 256];
const MODES: [EvalMode; 2] = [EvalMode::Analytic, EvalMode::Interpolate];
/// Number of [`Cost`] variants [`random_cost`] draws from.
const VARIANTS: usize = 11;

/// A random cost of variant `kind` for a fleet of `m`; valid (convex,
/// non-negative, infinite only on a prefix) except where noted.
fn random_cost(kind: usize, m: u32, rng: &mut StdRng) -> Cost {
    let mf = m as f64;
    let center = rng.gen_range(-1.0..mf + 1.0);
    match kind {
        0 => Cost::Zero,
        1 => Cost::Const(rng.gen_range(0.0..5.0)),
        2 => Cost::abs(rng.gen_range(0.1..4.0), center),
        3 => Cost::quadratic(rng.gen_range(0.01..2.0), center, rng.gen_range(0.0..1.0)),
        4 => {
            let slope = rng.gen_range(-0.5..0.5);
            Cost::Linear {
                intercept: rng.gen_range(0.0..3.0) + (-slope * mf).max(0.0),
                slope,
            }
        }
        5 => Cost::Hinge {
            knee: center,
            left_slope: rng.gen_range(0.0..3.0),
            right_slope: rng.gen_range(0.0..3.0),
        },
        6 => {
            // Convex table; sometimes shorter than the fleet, so integer
            // states past its end read the last entry.
            let len = if rng.gen_bool(0.25) { m / 2 + 1 } else { m + 1 };
            let mut slope = rng.gen_range(-3.0..0.0);
            let mut v = rng.gen_range(3.0 * mf..3.0 * mf + 5.0);
            let mut vals = Vec::with_capacity(len as usize);
            for _ in 0..len {
                vals.push(v.max(0.0));
                v += slope;
                slope += rng.gen_range(0.0..0.7);
            }
            Cost::table(vals)
        }
        7 => {
            // Infinite prefix below lambda.
            let lambda = rng.gen_range(0.0..mf.max(0.5));
            let unit = match rng.gen_range(0..3u32) {
                0 => Unit::Affine {
                    base: rng.gen_range(0.1..2.0),
                    slope: rng.gen_range(0.0..2.0),
                },
                1 => Unit::AbsAffine {
                    scale: rng.gen_range(0.1..1.0),
                    c0: 1.0,
                    c1: rng.gen_range(1.0..3.0),
                },
                _ => Unit::Server(ServerParams::default()),
            };
            Cost::load(lambda, unit)
        }
        8 => {
            let lambda = match rng.gen_range(0..3u32) {
                0 => 0.0,
                1 => rng.gen_range(0.0..mf.max(0.5)),
                _ => mf + rng.gen_range(0.5..4.0),
            };
            Cost::Server {
                lambda,
                params: ServerParams {
                    e_idle: rng.gen_range(0.5..2.0),
                    e_peak: rng.gen_range(2.0..4.0),
                    delay_weight: rng.gen_range(0.0..2.0),
                    delay_eps: rng.gen_range(0.01..0.2),
                },
                overload: rng.gen_range(0.0..60.0),
            }
        }
        9 => random_cost(rng.gen_range(0..9), m, rng).scaled(rng.gen_range(0.1..3.0)),
        _ => Cost::Padded {
            m_orig: rng.gen_range(0..=m),
            eps: rng.gen_range(0.0..1.0),
            inner: Box::new(random_cost(rng.gen_range(0..9), m, rng)),
        },
    }
}

/// `horizon` costs of variant `kind`, or of mixed variants for
/// `kind == VARIANTS`.
fn sequence(kind: usize, m: u32, horizon: usize, rng: &mut StdRng) -> Vec<Cost> {
    (0..horizon)
        .map(|_| {
            let k = if kind == VARIANTS {
                rng.gen_range(0..VARIANTS)
            } else {
                kind
            };
            random_cost(k, m, rng)
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run every check over `seeds` seeds of `horizon`-slot sequences.
fn differential(seeds: u64, horizon: usize) {
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + seed);
        for m in FLEETS {
            for kind in 0..=VARIANTS {
                let costs = sequence(kind, m, horizon, &mut rng);
                let case = format!("seed {seed}, m {m}, variant {kind}");
                check_tabulate(&costs, m, &case);
                check_tracker(&costs, m, &case);
                for mode in MODES {
                    check_fractional(&costs, m, mode, &format!("{case}, {mode:?}"));
                }
            }
        }
    }
}

fn check_tabulate(costs: &[Cost], m: u32, case: &str) {
    let mut table = vec![f64::NAN; m as usize + 1];
    for (t, f) in costs.iter().enumerate() {
        f.tabulate(&mut table);
        let per_point: Vec<f64> = (0..=m).map(|x| f.eval(x)).collect();
        assert_eq!(bits(&table), bits(&per_point), "{case}, slot {t}: {f:?}");
    }
}

fn check_tracker(costs: &[Cost], m: u32, case: &str) {
    let beta = 0.5 + (m % 7) as f64;
    let mut fast = BoundTracker::new(m, beta);
    let mut oracle = BoundTracker::new(m, beta);
    for (t, f) in costs.iter().enumerate() {
        fast.step(f);
        oracle.step_per_point(f);
        let at = || format!("{case}, slot {t}: {f:?}");
        assert_eq!(
            bits(fast.c_low_vec()),
            bits(oracle.c_low_vec()),
            "C^L, {}",
            at()
        );
        assert_eq!(
            bits(fast.c_up_vec()),
            bits(oracle.c_up_vec()),
            "C^U, {}",
            at()
        );
        assert_eq!(fast.x_low(), oracle.x_low(), "x^L, {}", at());
        assert_eq!(fast.x_up(), oracle.x_up(), "x^U, {}", at());
    }
}

fn check_fractional(costs: &[Cost], m: u32, mode: EvalMode, case: &str) {
    let (mf, beta, gamma) = (m as f64, 2.0, 2.5);
    let mut hs = HalfStep::new(m, beta, mode);
    let mut mb = MemorylessBalance::new(m, beta, mode);
    let mut obd = Obd::new(m, beta, gamma, mode);
    let (mut hs_o, mut mb_o, mut obd_o) = (0.0, 0.0, 0.0);
    for (t, f) in costs.iter().enumerate() {
        hs_o = oracle::halfstep(mode, f, hs_o, mf, beta);
        mb_o = oracle::balance_point(mode, f, mb_o, mf, beta / 2.0, 1.0);
        obd_o = oracle::balance_point(mode, f, obd_o, mf, beta / 2.0, gamma);
        let searched = [
            ("HalfStep", hs.step(f), hs_o),
            ("MemorylessBalance", mb.step(f), mb_o),
            ("Obd", obd.step(f), obd_o),
        ];
        for (name, got, want) in searched {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name} {got} vs oracle {want}, {case}, slot {t}: {f:?}"
            );
        }
    }
}

#[test]
fn policy_step_is_bit_identical_to_per_point_oracles() {
    differential(2, 24);
}

#[test]
#[ignore = "heavy: nightly --include-ignored run"]
fn policy_step_is_bit_identical_to_per_point_oracles_heavy() {
    // Each seed covers every fleet, variant and mode, so the nightly
    // case count (256) maps to 16 seeds.
    let cases: u64 = std::env::var("RSDC_HEAVY_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    differential((cases / 16).max(1), 96);
}
