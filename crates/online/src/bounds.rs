//! Online maintenance of the LCP bounds `x^L_tau` and `x^U_tau`
//! (Section 3.1).
//!
//! `\hat C^L_tau(x)` is the cheapest cost of serving `f_1..=f_tau` ending in
//! state `x` when switching cost is charged for powering **up** (eq. 11);
//! `\hat C^U_tau(x)` charges powering **down** instead (eq. 12). Both evolve
//! by the recursion
//!
//! ```text
//! \hat C_tau(x) = min_{x'} ( \hat C_{tau-1}(x') + switch(x', x) ) + f_tau(x)
//! ```
//!
//! which [`rsdc_offline::dp::relax`] / [`rsdc_offline::dp::relax_down`]
//! evaluate for all `x` in `O(m)`. The bounds are then
//!
//! * `x^L_tau` — the **smallest** minimizer of `\hat C^L_tau` (smallest
//!   final state of an optimal truncated schedule),
//! * `x^U_tau` — the **largest** minimizer of `\hat C^U_tau`.
//!
//! The tracker also exposes the structural facts the analysis rests on so
//! tests can assert them: both value functions are convex (Lemma 8), they
//! differ by exactly `beta * x` (Lemma 7), and `\hat C^L` has slope at most
//! `beta` up to `x^U` and at least `beta` after it (Lemma 9).

use rsdc_core::prelude::*;
use rsdc_offline::dp::{relax, relax_down};
use serde::{Deserialize, Serialize};

/// Incrementally maintained `\hat C^L`, `\hat C^U` and the derived bounds.
#[derive(Debug, Clone)]
pub struct BoundTracker {
    m: u32,
    beta: f64,
    tau: usize,
    c_low: Vec<f64>,
    c_up: Vec<f64>,
    scratch: Vec<f64>,
    parent: Vec<u32>,
    x_low: u32,
    x_up: u32,
}

impl BoundTracker {
    /// Start tracking for a data center with `m` servers and power-up cost
    /// `beta`. Before any [`step`](Self::step), the bounds are `0`.
    pub fn new(m: u32, beta: f64) -> Self {
        let m1 = m as usize + 1;
        // At tau = 0 the only reachable state is 0 (x_0 = 0): encode by
        // infinite cost elsewhere.
        let mut c_low = vec![f64::INFINITY; m1];
        c_low[0] = 0.0;
        let c_up = c_low.clone();
        Self {
            m,
            beta,
            tau: 0,
            c_low,
            c_up,
            scratch: vec![0.0; m1],
            parent: vec![0; m1],
            x_low: 0,
            x_up: 0,
        }
    }

    /// Incorporate the next cost function; `O(m)`.
    ///
    /// One step is two relax scans (eq. 11 into `\hat C^L`, eq. 12 into
    /// `\hat C^U`) and **one** tabulation of `f` over `0..=m`, whose table
    /// is added to both relaxed vectors. The table lives in `scratch`,
    /// which holds only the previous, dead value vector once both relaxed
    /// vectors have been swapped in, so `f` is evaluated once per state
    /// and the tracker needs no buffer beyond the ones it always had.
    pub fn step(&mut self, f: &Cost) {
        self.tau += 1;

        relax(&self.c_low, self.beta, &mut self.scratch, &mut self.parent);
        std::mem::swap(&mut self.c_low, &mut self.scratch);
        relax_down(&self.c_up, self.beta, &mut self.scratch, &mut self.parent);
        std::mem::swap(&mut self.c_up, &mut self.scratch);

        f.tabulate(&mut self.scratch);
        for ((l, u), &fx) in self.c_low.iter_mut().zip(&mut self.c_up).zip(&self.scratch) {
            *l += fx;
            *u += fx;
        }

        self.x_low = smallest_argmin(&self.c_low);
        self.x_up = largest_argmin(&self.c_up);
    }

    /// Per-point form of [`step`](Self::step): `f` evaluated at every
    /// state in each relax pass. The oracle the tabulated step is checked
    /// against bit for bit.
    #[cfg(test)]
    pub(crate) fn step_per_point(&mut self, f: &Cost) {
        self.tau += 1;

        relax(&self.c_low, self.beta, &mut self.scratch, &mut self.parent);
        for (x, v) in self.scratch.iter_mut().enumerate() {
            *v += f.eval(x as u32);
        }
        std::mem::swap(&mut self.c_low, &mut self.scratch);

        relax_down(&self.c_up, self.beta, &mut self.scratch, &mut self.parent);
        for (x, v) in self.scratch.iter_mut().enumerate() {
            *v += f.eval(x as u32);
        }
        std::mem::swap(&mut self.c_up, &mut self.scratch);

        self.x_low = smallest_argmin(&self.c_low);
        self.x_up = largest_argmin(&self.c_up);
    }

    /// `x^L_tau`: smallest final state of an optimal power-up-charged
    /// truncated schedule.
    pub fn x_low(&self) -> u32 {
        self.x_low
    }

    /// `x^U_tau`: largest final state of an optimal power-down-charged
    /// truncated schedule.
    pub fn x_up(&self) -> u32 {
        self.x_up
    }

    /// Number of steps consumed so far.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// `\hat C^L_tau(x)`.
    pub fn c_low(&self, x: u32) -> f64 {
        self.c_low[x as usize]
    }

    /// `\hat C^U_tau(x)`.
    pub fn c_up(&self, x: u32) -> f64 {
        self.c_up[x as usize]
    }

    /// Full `\hat C^L` vector (for diagnostics/tests).
    pub fn c_low_vec(&self) -> &[f64] {
        &self.c_low
    }

    /// Full `\hat C^U` vector (for diagnostics/tests).
    pub fn c_up_vec(&self) -> &[f64] {
        &self.c_up
    }

    /// Verify Lemma 7 (`\hat C^L(x) = \hat C^U(x) + beta x`), Lemma 8
    /// (convexity of both) and Lemma 9 (slope of `\hat C^L` at most `beta`
    /// up to `x^U`, at least `beta` above). Returns a description of the
    /// first violation, if any. Only meaningful after at least one step.
    pub fn check_lemmas(&self) -> Result<(), String> {
        let m1 = self.m as usize + 1;
        let scale = self
            .c_low
            .iter()
            .filter(|v| v.is_finite())
            .fold(1.0f64, |a, &b| a.max(b.abs()));
        let tol = 1e-9 * scale;

        // Lemma 7.
        for x in 0..m1 {
            let (l, u) = (self.c_low[x], self.c_up[x]);
            if l.is_finite() != u.is_finite() {
                return Err(format!("lemma 7: finiteness mismatch at {x}"));
            }
            if l.is_finite() && (l - (u + self.beta * x as f64)).abs() > tol {
                return Err(format!(
                    "lemma 7 violated at x={x}: C^L={l}, C^U+bx={}",
                    u + self.beta * x as f64
                ));
            }
        }
        // Lemma 8: convexity (on the finite suffix).
        for (name, v) in [("C^L", &self.c_low), ("C^U", &self.c_up)] {
            let fin: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
            for w in fin.windows(3) {
                if (w[1] - w[0]) > (w[2] - w[1]) + tol {
                    return Err(format!("lemma 8 violated for {name}: {w:?}"));
                }
            }
        }
        // Lemma 9.
        let xu = self.x_up as usize;
        if xu >= 1 && self.c_low[xu].is_finite() && self.c_low[xu - 1].is_finite() {
            let slope = self.c_low[xu] - self.c_low[xu - 1];
            if slope > self.beta + tol {
                return Err(format!("lemma 9: slope {slope} > beta before x^U"));
            }
        }
        if xu + 1 < m1 && self.c_low[xu + 1].is_finite() && self.c_low[xu].is_finite() {
            let slope = self.c_low[xu + 1] - self.c_low[xu];
            if slope < self.beta - tol {
                return Err(format!("lemma 9: slope {slope} < beta after x^U"));
            }
        }
        Ok(())
    }
}

/// Serializable full state of a [`BoundTracker`], used by the streaming
/// layer (`crate::streaming`) so tenants survive engine restarts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackerSnapshot {
    /// Fleet size.
    pub m: u32,
    /// Power-up cost.
    pub beta: f64,
    /// Steps consumed.
    pub tau: u64,
    /// `\hat C^L` vector (non-finite entries encode unreachable states).
    pub c_low: Vec<f64>,
    /// `\hat C^U` vector.
    pub c_up: Vec<f64>,
    /// Current `x^L`.
    pub x_low: u32,
    /// Current `x^U`.
    pub x_up: u32,
}

impl BoundTracker {
    /// Capture the full tracker state.
    ///
    /// Unreachable states hold `+inf`, which plain JSON cannot carry;
    /// snapshots encode them as `f64::MAX` (no legitimate cost comes
    /// within a factor of 2 of it) so the vectors survive any JSON
    /// implementation, and [`BoundTracker::from_snapshot`] maps them back.
    pub fn snapshot(&self) -> TrackerSnapshot {
        let encode = |v: &[f64]| -> Vec<f64> {
            v.iter()
                .map(|&x| if x.is_finite() { x } else { f64::MAX })
                .collect()
        };
        TrackerSnapshot {
            m: self.m,
            beta: self.beta,
            tau: self.tau as u64,
            c_low: encode(&self.c_low),
            c_up: encode(&self.c_up),
            x_low: self.x_low,
            x_up: self.x_up,
        }
    }

    /// Rebuild a tracker from a [`TrackerSnapshot`].
    ///
    /// The `f64::MAX` sentinel (and any non-finite residue from a JSON
    /// round trip) is normalised back to `+inf` — the only non-finite
    /// value the tracker ever produces.
    pub fn from_snapshot(s: &TrackerSnapshot) -> Result<Self, Error> {
        let m1 = s.m as usize + 1;
        if s.c_low.len() != m1 || s.c_up.len() != m1 {
            return Err(Error::InvalidParameter(format!(
                "tracker snapshot has {} / {} states, expected {m1}",
                s.c_low.len(),
                s.c_up.len()
            )));
        }
        if !(s.beta.is_finite() && s.beta > 0.0) {
            return Err(Error::InvalidParameter(format!(
                "tracker snapshot beta {} invalid",
                s.beta
            )));
        }
        let sanitize = |v: &[f64]| -> Vec<f64> {
            v.iter()
                .map(|&x| {
                    if x.is_finite() && x < f64::MAX / 2.0 {
                        x
                    } else {
                        f64::INFINITY
                    }
                })
                .collect()
        };
        Ok(Self {
            m: s.m,
            beta: s.beta,
            tau: s.tau as usize,
            c_low: sanitize(&s.c_low),
            c_up: sanitize(&s.c_up),
            scratch: vec![0.0; m1],
            parent: vec![0; m1],
            x_low: s.x_low.min(s.m),
            x_up: s.x_up.min(s.m),
        })
    }
}

fn smallest_argmin(v: &[f64]) -> u32 {
    let mut best = f64::INFINITY;
    let mut best_i = 0u32;
    for (i, &x) in v.iter().enumerate() {
        if x < best {
            best = x;
            best_i = i as u32;
        }
    }
    best_i
}

fn largest_argmin(v: &[f64]) -> u32 {
    let mut best = f64::INFINITY;
    let mut best_i = 0u32;
    for (i, &x) in v.iter().enumerate() {
        if x <= best {
            best = x;
            best_i = i as u32;
        }
    }
    best_i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_bounds_are_zero() {
        let b = BoundTracker::new(4, 1.0);
        assert_eq!(b.x_low(), 0);
        assert_eq!(b.x_up(), 0);
    }

    #[test]
    fn first_step_bounds() {
        // f_1 = 10*|x - 2|, beta = 1.
        // C^L(x) = f_1(x) + x; minimized at 2 -> x^L = 2.
        // C^U(x) = f_1(x) (power-down charged later); largest argmin = 2.
        let mut b = BoundTracker::new(4, 1.0);
        b.step(&Cost::abs(10.0, 2.0));
        assert_eq!(b.x_low(), 2);
        assert_eq!(b.x_up(), 2);
        assert!((b.c_low(2) - 2.0).abs() < 1e-12);
        assert!((b.c_up(2) - 0.0).abs() < 1e-12);
        b.check_lemmas().unwrap();
    }

    #[test]
    fn flat_cost_splits_bounds() {
        // A function indifferent between 1 and 3: x^L should take the
        // smallest optimal final state, x^U the largest.
        let f = Cost::table(vec![5.0, 1.0, 1.0, 1.0, 5.0]);
        let mut b = BoundTracker::new(4, 2.0);
        b.step(&f);
        // C^L(x) = f(x) + 2x: minimized at x = 1 -> x^L = 1.
        assert_eq!(b.x_low(), 1);
        // C^U(x) = f(x): largest argmin is 3.
        assert_eq!(b.x_up(), 3);
        b.check_lemmas().unwrap();
    }

    #[test]
    fn lemmas_hold_over_random_sequences() {
        // Deterministic pseudo-random sequence of convex functions.
        let mut b = BoundTracker::new(12, 1.7);
        for t in 0..60u32 {
            let center = ((t * 7 + 3) % 13) as f64;
            let slope = 0.3 + ((t * 5) % 4) as f64;
            let f = if t % 3 == 0 {
                Cost::quadratic(slope * 0.2, center, 0.1)
            } else {
                Cost::abs(slope, center)
            };
            b.step(&f);
            b.check_lemmas().unwrap_or_else(|e| panic!("step {t}: {e}"));
            assert!(b.x_low() <= b.x_up(), "Lemma 6 ordering via Lemma 7/9");
        }
    }

    #[test]
    fn x_low_matches_offline_truncated_optimum() {
        // x^L_tau is the smallest last state among optimal schedules of the
        // truncated instance; cross-check via offline DP cost.
        let costs = vec![
            Cost::abs(2.0, 3.0),
            Cost::abs(0.5, 1.0),
            Cost::abs(4.0, 5.0),
        ];
        let inst = Instance::new(6, 1.0, costs.clone()).unwrap();
        let mut b = BoundTracker::new(6, 1.0);
        for t in 1..=3 {
            b.step(inst.cost_fn(t));
            let prefix = inst.prefix(t);
            let opt = rsdc_offline::dp::solve_cost_only(&prefix);
            let min_cl = (0..=6).map(|x| b.c_low(x)).fold(f64::INFINITY, f64::min);
            assert!(
                (opt - min_cl).abs() < 1e-9,
                "truncated optimum {opt} vs min C^L {min_cl} at tau={t}"
            );
        }
    }

    #[test]
    fn restricted_model_infinite_states() {
        // Load constraint x >= 2 at slot 1.
        let f = Cost::load(
            2.0,
            Unit::Affine {
                base: 0.5,
                slope: 0.0,
            },
        );
        let mut b = BoundTracker::new(4, 1.0);
        b.step(&f);
        assert!(b.c_low(0).is_infinite());
        assert!(b.c_low(2).is_finite());
        assert!(b.x_low() >= 2);
        assert!(b.x_up() >= 2);
    }
}
