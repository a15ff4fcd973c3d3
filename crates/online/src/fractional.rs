//! Fractional (continuous-setting) online algorithms.
//!
//! The randomized 2-competitive algorithm of Section 4 needs, as its first
//! stage, a 2-competitive *fractional* schedule for the continuous extension
//! of the instance. The paper obtains one from Bansal et al. \[7\] by
//! reference, without restating that algorithm. We implement:
//!
//! * [`HalfStep`] — the half-subgradient rule: move toward the minimizer of
//!   `f_t` by `(average slope)/beta`, never past the minimizer. On the
//!   two-point workloads (`phi_0`, `phi_1`, `beta = 2`) this moves by
//!   exactly `eps/2`, i.e. it *is* the reference algorithm `B` of
//!   Section 5.2.1, which the paper states is "equivalent to the algorithm
//!   of Bansal et al. for the special case". Its competitiveness on general
//!   workloads is measured empirically (experiment E6).
//! * [`MemorylessBalance`] — the memoryless algorithm of Bansal et al.:
//!   move toward the minimizer until the *movement* cost of this step
//!   equals the *hitting* cost at the stopping point (3-competitive in the
//!   continuous setting; best possible for memoryless algorithms).
//! * [`Obd`] — Online Balanced Descent (Chen et al.), included as a
//!   related-work baseline: move toward the minimizer until the hitting
//!   cost at the stopping point equals `gamma *` movement cost.
//!
//! All three treat the movement cost as `beta/2` per unit in each direction
//! (the Section 5 convention, equal in total to eq. 1 for closed
//! schedules), evaluate costs in a chosen [`FracMode`], and keep states in
//! `[0, m]`.

use crate::traits::FractionalAlgorithm;
use rsdc_core::cost::interpolate_with;
use rsdc_core::prelude::*;

/// How a fractional algorithm reads the arriving cost function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Use the analytic formula (native continuous instances, Section 5).
    Analytic,
    /// Use the eq. 3 interpolation (continuous extension of a discrete
    /// instance, Section 4).
    Interpolate,
}

/// One slot's cost function as a fractional algorithm reads it in a given
/// [`EvalMode`].
///
/// In [`EvalMode::Interpolate`] the integer values behind eq. 3 are read
/// through a 64-slot direct-mapped memo that lives on the stack for the
/// duration of one policy step, so each integer state is evaluated about
/// once however often the searches below probe around it. The memo returns
/// exactly what [`Cost::eval`] returns, so every result is bit-identical
/// to per-point evaluation.
struct SlotCost<'a> {
    f: &'a Cost,
    mode: EvalMode,
    keys: [u64; MEMO_SLOTS],
    vals: [f64; MEMO_SLOTS],
}

const MEMO_SLOTS: usize = 64;

impl<'a> SlotCost<'a> {
    fn new(mode: EvalMode, f: &'a Cost) -> Self {
        Self {
            f,
            mode,
            // No u32 state maps to u64::MAX: every slot starts empty.
            keys: [u64::MAX; MEMO_SLOTS],
            vals: [0.0; MEMO_SLOTS],
        }
    }

    fn eval(&mut self, x: f64) -> f64 {
        match self.mode {
            EvalMode::Analytic => self.f.eval_analytic(x),
            EvalMode::Interpolate => {
                let (f, keys, vals) = (self.f, &mut self.keys, &mut self.vals);
                interpolate_with(x, |k| {
                    let slot = k as usize % MEMO_SLOTS;
                    if keys[slot] != k as u64 {
                        keys[slot] = k as u64;
                        vals[slot] = f.eval(k);
                    }
                    vals[slot]
                })
            }
        }
    }

    /// Continuous minimizer of the convex function over `[0, m]` by ternary
    /// search (exact enough for piecewise-linear/quadratic shapes).
    ///
    /// Each iteration is a function of `(lo, hi)` alone, so the first
    /// iteration that leaves the interval unchanged is a fixed point and
    /// the search stops there: the result is bit-identical to running any
    /// number of further iterations (200 remain the cap). At `m = 256`
    /// the fixed point comes after about 90 iterations; an interval
    /// closing in on 0 instead shrinks through subnormals and runs to the
    /// cap, on the same few memoized integers.
    ///
    /// When both probes are `+inf` they lie in the infeasible prefix of a
    /// restricted-model cost such as [`Cost::Load`] (infinite values may
    /// only form a prefix, see [`Cost::check_convex`]), so the interval
    /// moves right past them; `inf <= inf` would instead steer the search
    /// into the infeasible side.
    ///
    /// The search is deliberately not replaced by a closed-form or
    /// exact-integer minimizer: the search's `f64` feeds the rounding stage,
    /// where an exactly integral state takes the deterministic branch and
    /// skips an RNG draw, which would shift every later rounding decision.
    fn argmin(&mut self, m: f64) -> f64 {
        let mut lo = 0.0f64;
        let mut hi = m;
        for _ in 0..SEARCH_ITERS {
            let a = lo + (hi - lo) / 3.0;
            let b = hi - (hi - lo) / 3.0;
            let (fa, fb) = (self.eval(a), self.eval(b));
            let next = if fa == f64::INFINITY && fb == f64::INFINITY {
                (b, hi)
            } else if fa <= fb {
                (lo, b)
            } else {
                (a, hi)
            };
            if same_interval(next, (lo, hi)) {
                break;
            }
            (lo, hi) = next;
        }
        0.5 * (lo + hi)
    }
}

/// Iteration cap of the ternary search and the bisection; each stops
/// earlier if it reaches its fixed point first.
const SEARCH_ITERS: usize = 200;

/// Bitwise interval equality: the fixed-point test of both searches.
fn same_interval(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
}

/// The half-subgradient fractional algorithm (see module docs).
#[derive(Debug, Clone)]
pub struct HalfStep {
    m: f64,
    beta: f64,
    mode: EvalMode,
    state: f64,
}

impl HalfStep {
    /// New tracker over `[0, m]` with power-up cost `beta`.
    pub fn new(m: u32, beta: f64, mode: EvalMode) -> Self {
        Self {
            m: m as f64,
            beta,
            mode,
            state: 0.0,
        }
    }

    /// Current fractional state.
    pub fn state(&self) -> f64 {
        self.state
    }

    /// Overwrite the current state (snapshot restore); clamped to `[0, m]`.
    pub fn set_state(&mut self, state: f64) {
        self.state = state.clamp(0.0, self.m);
    }
}

impl FractionalAlgorithm for HalfStep {
    fn step(&mut self, f: &Cost) -> f64 {
        let mut slot = SlotCost::new(self.mode, f);
        let target = slot.argmin(self.m);
        let dist = (target - self.state).abs();
        if dist > 1e-15 {
            // Average slope of f between the current state and the
            // minimizer; for phi-shaped functions this is the slope.
            let drop = (slot.eval(self.state) - slot.eval(target)).max(0.0);
            let avg_slope = drop / dist;
            // Move by slope / beta, never past the minimizer. With the
            // symmetric convention (beta/2 per direction) this is the
            // "eps/2 per step at beta = 2" rule of algorithm B.
            let step = (avg_slope / self.beta).min(dist);
            self.state += step * (target - self.state).signum();
            self.state = self.state.clamp(0.0, self.m);
        }
        self.state
    }

    fn name(&self) -> String {
        "HalfStep(Bansal-style)".into()
    }
}

/// The memoryless "balance" algorithm of Bansal et al.: moves toward the
/// minimizer of `f_t`, stopping where this step's movement cost equals the
/// hitting cost at the stopping point (or at the minimizer if its hitting
/// cost still exceeds the movement).
#[derive(Debug, Clone)]
pub struct MemorylessBalance {
    m: f64,
    beta: f64,
    mode: EvalMode,
    state: f64,
}

impl MemorylessBalance {
    /// New tracker over `[0, m]` with power-up cost `beta`.
    pub fn new(m: u32, beta: f64, mode: EvalMode) -> Self {
        Self {
            m: m as f64,
            beta,
            mode,
            state: 0.0,
        }
    }

    /// Current fractional state.
    pub fn state(&self) -> f64 {
        self.state
    }

    /// Overwrite the current state (snapshot restore); clamped to `[0, m]`.
    pub fn set_state(&mut self, state: f64) {
        self.state = state.clamp(0.0, self.m);
    }
}

impl FractionalAlgorithm for MemorylessBalance {
    fn step(&mut self, f: &Cost) -> f64 {
        self.state = balance_point(self.mode, f, self.state, self.m, self.beta / 2.0, 1.0);
        self.state
    }

    fn name(&self) -> String {
        "MemorylessBalance".into()
    }
}

/// Online Balanced Descent with balance parameter `gamma`: stop where the
/// hitting cost equals `gamma * movement cost`. `gamma = 1` recovers
/// [`MemorylessBalance`].
#[derive(Debug, Clone)]
pub struct Obd {
    m: f64,
    beta: f64,
    gamma: f64,
    mode: EvalMode,
    state: f64,
}

impl Obd {
    /// New tracker; `gamma > 0`.
    pub fn new(m: u32, beta: f64, gamma: f64, mode: EvalMode) -> Self {
        assert!(gamma > 0.0);
        Self {
            m: m as f64,
            beta,
            gamma,
            mode,
            state: 0.0,
        }
    }
}

impl FractionalAlgorithm for Obd {
    fn step(&mut self, f: &Cost) -> f64 {
        self.state = balance_point(
            self.mode,
            f,
            self.state,
            self.m,
            self.beta / 2.0,
            self.gamma,
        );
        self.state
    }

    fn name(&self) -> String {
        format!("OBD(gamma={})", self.gamma)
    }
}

/// Find the point `x` on the segment from `from` toward the minimizer of
/// `f` where `f(x) = gamma * move_rate * |x - from|`, or the minimizer if
/// the hitting cost never drops that low. Bisection on the convex
/// difference, stopped at its fixed point like [`SlotCost::argmin`].
fn balance_point(mode: EvalMode, f: &Cost, from: f64, m: f64, move_rate: f64, gamma: f64) -> f64 {
    let mut slot = SlotCost::new(mode, f);
    let target = slot.argmin(m);
    let mut h = |x: f64| slot.eval(x) - gamma * move_rate * (x - from).abs();
    if h(from) <= 0.0 {
        // Already cheap enough: don't move.
        return from;
    }
    if h(target) >= 0.0 {
        // Even at the minimizer the hitting cost dominates: go there.
        return target;
    }
    // h changes sign on [from, target]; h is continuous.
    let (mut lo, mut hi) = (from, target);
    for _ in 0..SEARCH_ITERS {
        let mid = 0.5 * (lo + hi);
        let next = if h(mid) > 0.0 { (mid, hi) } else { (lo, mid) };
        if same_interval(next, (lo, hi)) {
            break;
        }
        (lo, hi) = next;
    }
    0.5 * (lo + hi)
}

/// Per-point form of the fractional searches: every probe evaluates `f`
/// afresh and both searches run all 200 iterations. The oracle the
/// memoized, fixed-point searches are checked against bit for bit; the
/// ternary search applies the same infeasible-prefix rule.
#[cfg(test)]
pub(crate) mod oracle {
    use super::EvalMode;
    use rsdc_core::prelude::*;

    fn eval(mode: EvalMode, f: &Cost, x: f64) -> f64 {
        match mode {
            EvalMode::Analytic => f.eval_analytic(x),
            EvalMode::Interpolate => f.interpolate(x),
        }
    }

    /// 200-iteration ternary search.
    pub(crate) fn argmin(mode: EvalMode, f: &Cost, m: f64) -> f64 {
        let mut lo = 0.0f64;
        let mut hi = m;
        for _ in 0..200 {
            let a = lo + (hi - lo) / 3.0;
            let b = hi - (hi - lo) / 3.0;
            let (fa, fb) = (eval(mode, f, a), eval(mode, f, b));
            if fa == f64::INFINITY && fb == f64::INFINITY {
                lo = b;
            } else if fa <= fb {
                hi = b;
            } else {
                lo = a;
            }
        }
        0.5 * (lo + hi)
    }

    /// One [`HalfStep`](super::HalfStep) step from `state`.
    pub(crate) fn halfstep(mode: EvalMode, f: &Cost, state: f64, m: f64, beta: f64) -> f64 {
        let target = argmin(mode, f, m);
        let dist = (target - state).abs();
        if dist <= 1e-15 {
            return state;
        }
        let drop = (eval(mode, f, state) - eval(mode, f, target)).max(0.0);
        let step = (drop / dist / beta).min(dist);
        (state + step * (target - state).signum()).clamp(0.0, m)
    }

    /// 200-iteration bisection of [`balance_point`](super::balance_point).
    pub(crate) fn balance_point(
        mode: EvalMode,
        f: &Cost,
        from: f64,
        m: f64,
        move_rate: f64,
        gamma: f64,
    ) -> f64 {
        let target = argmin(mode, f, m);
        let h = |x: f64| eval(mode, f, x) - gamma * move_rate * (x - from).abs();
        if h(from) <= 0.0 {
            return from;
        }
        if h(target) >= 0.0 {
            return target;
        }
        let (mut lo, mut hi) = (from, target);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if h(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::run_frac;

    /// Restricted-model cost with an infeasible prefix `x < 8` at `m = 10`.
    fn load_with_infeasible_prefix() -> Cost {
        Cost::load(
            8.0,
            Unit::Affine {
                base: 1.0,
                slope: 1.0,
            },
        )
    }

    #[test]
    fn fractional_policies_leave_an_infeasible_start() {
        // Both first probes (10/3, 20/3) are infeasible; the search must
        // move right past them instead of collapsing onto x = 0.
        let f = load_with_infeasible_prefix();
        for mode in [EvalMode::Analytic, EvalMode::Interpolate] {
            let target = SlotCost::new(mode, &f).argmin(10.0);
            assert!((target - 8.0).abs() < 1e-9, "{mode:?}: argmin {target}");

            let mut hs = HalfStep::new(10, 2.0, mode);
            let mut mb = MemorylessBalance::new(10, 2.0, mode);
            for _ in 0..3 {
                let (x_hs, x_mb) = (hs.step(&f), mb.step(&f));
                for (name, x) in [("HalfStep", x_hs), ("MemorylessBalance", x_mb)] {
                    let cost = SlotCost::new(mode, &f).eval(x);
                    assert!(cost.is_finite(), "{mode:?} {name}: x = {x}, cost {cost}");
                }
            }
        }
    }

    #[test]
    fn halfstep_matches_algorithm_b_on_phi_functions() {
        // Section 5.2.1: with beta = 2 and functions eps*|x|, eps*|1-x|,
        // algorithm B moves by exactly eps/2 toward the minimizer.
        let eps = 0.25;
        let mut b = HalfStep::new(1, 2.0, EvalMode::Analytic);
        let x1 = b.step(&Cost::phi1(eps));
        assert!((x1 - eps / 2.0).abs() < 1e-9, "x1 = {x1}");
        let x2 = b.step(&Cost::phi1(eps));
        assert!((x2 - eps).abs() < 1e-9);
        let x3 = b.step(&Cost::phi0(eps));
        assert!((x3 - eps / 2.0).abs() < 1e-9);
    }

    #[test]
    fn halfstep_clamps_at_minimizer() {
        // A huge function should pull the state all the way to its
        // minimizer, not overshoot.
        let mut b = HalfStep::new(10, 1.0, EvalMode::Analytic);
        let x = b.step(&Cost::abs(1000.0, 7.0));
        assert!((x - 7.0).abs() < 1e-6);
    }

    #[test]
    fn halfstep_saturates_at_bounds() {
        let mut b = HalfStep::new(1, 2.0, EvalMode::Analytic);
        for _ in 0..100 {
            b.step(&Cost::phi1(0.5));
        }
        assert!(b.state() <= 1.0 + 1e-12);
        assert!((b.state() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memoryless_balances_hitting_and_movement() {
        // f = 4*|x - 5|, from 0, move rate beta/2 = 1, gamma = 1:
        // balance point x with 4*(5-x) = x -> x = 4.
        let mut a = MemorylessBalance::new(10, 2.0, EvalMode::Analytic);
        let x = a.step(&Cost::abs(4.0, 5.0));
        assert!((x - 4.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn memoryless_does_not_move_when_cheap() {
        let mut a = MemorylessBalance::new(10, 2.0, EvalMode::Analytic);
        a.step(&Cost::abs(4.0, 5.0));
        let before = a.state;
        // Zero function: staying is optimal.
        let x = a.step(&Cost::Zero);
        assert_eq!(x, before);
    }

    #[test]
    fn obd_gamma_interpolates() {
        // Larger gamma stops farther from the minimizer (hitting cost must
        // equal a larger multiple of movement).
        let f = Cost::abs(4.0, 5.0);
        let mut a1 = Obd::new(10, 2.0, 1.0, EvalMode::Analytic);
        let mut a4 = Obd::new(10, 2.0, 4.0, EvalMode::Analytic);
        let x1 = a1.step(&f);
        let x4 = a4.step(&f);
        assert!(x4 < x1, "gamma=4 stops earlier: {x4} vs {x1}");
    }

    #[test]
    fn interpolate_mode_sees_piecewise_costs() {
        // Table cost minimized at state 2; interpolation must find it.
        let f = Cost::table(vec![9.0, 4.0, 0.0, 4.0, 9.0]);
        let mut b = HalfStep::new(4, 0.5, EvalMode::Interpolate);
        let x = b.step(&f);
        assert!(x > 0.0 && x <= 2.0 + 1e-9);
    }

    #[test]
    fn run_frac_produces_feasible_schedule() {
        let inst = Instance::new(
            4,
            2.0,
            vec![Cost::phi1(0.3), Cost::phi0(0.3), Cost::phi1(0.3)],
        )
        .unwrap();
        let mut b = HalfStep::new(4, 2.0, EvalMode::Analytic);
        let xs = run_frac(&mut b, &inst);
        assert_eq!(xs.len(), 3);
        assert!(xs.0.iter().all(|&x| (0.0..=4.0).contains(&x)));
    }
}
