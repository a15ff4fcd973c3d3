//! Criterion bench: per-step cost of the online machinery (supports E4).
//!
//! LCP's step is O(m): the bound tracker performs two relaxation scans
//! and tabulates the slot's cost once, adding the one table to both value
//! vectors, so each state's cost is evaluated once per step. The
//! fractional step (HalfStep over the eq. 3 interpolation) is a ternary
//! search that stops at its fixed point and reads integer states through
//! a small memo; `halfstep` measures it on the served cost shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsdc_core::prelude::*;
use rsdc_online::bounds::BoundTracker;
use rsdc_online::fractional::{EvalMode, HalfStep};
use rsdc_online::lcp::Lcp;
use rsdc_online::traits::{FractionalAlgorithm, OnlineAlgorithm};
use std::hint::black_box;

fn bench_lcp_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("online/lcp_full_run_T1024");
    for m in [16u32, 256, 4096] {
        let costs: Vec<Cost> = (0..1024)
            .map(|t| Cost::abs(1.0, (t % (m as usize + 1)) as f64))
            .collect();
        group.bench_with_input(BenchmarkId::new("lcp", m), &costs, |b, costs| {
            b.iter(|| {
                let mut lcp = Lcp::new(m, 2.0);
                let mut acc = 0u64;
                for f in costs {
                    acc += lcp.step(black_box(f)) as u64;
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_tracker_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("online/bound_tracker_T1024");
    for m in [16u32, 256, 4096] {
        let costs: Vec<Cost> = (0..1024)
            .map(|t| Cost::quadratic(0.5, (t % (m as usize + 1)) as f64, 0.0))
            .collect();
        group.bench_with_input(BenchmarkId::new("tracker", m), &costs, |b, costs| {
            b.iter(|| {
                let mut tr = BoundTracker::new(m, 2.0);
                for f in costs {
                    tr.step(black_box(f));
                }
                black_box((tr.x_low(), tr.x_up()))
            })
        });
    }
    group.finish();
}

/// The served slot cost: `Cost::Server` over a diurnal-like load at the
/// engine's default cost model, for both policies a served tenant runs.
fn bench_served_step(c: &mut Criterion) {
    let m = 256u32;
    let costs: Vec<Cost> = (0..1024)
        .map(|t| Cost::Server {
            lambda: 0.5 * m as f64 * (1.0 + (t as f64 * 0.05).sin()),
            params: ServerParams::default(),
            overload: 20.0,
        })
        .collect();
    let mut group = c.benchmark_group("online/served_step_T1024");
    group.bench_function(BenchmarkId::new("lcp", m), |b| {
        b.iter(|| {
            let mut lcp = Lcp::new(m, 6.0);
            let mut acc = 0u64;
            for f in &costs {
                acc += lcp.step(black_box(f)) as u64;
            }
            black_box(acc)
        })
    });
    group.bench_function(BenchmarkId::new("halfstep", m), |b| {
        b.iter(|| {
            let mut hs = HalfStep::new(m, 6.0, EvalMode::Interpolate);
            let mut acc = 0.0;
            for f in &costs {
                acc += hs.step(black_box(f));
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_lcp_step, bench_tracker_step, bench_served_step
);
criterion_main!(benches);
