//! The Jarvis load-factor LP (paper Eq. 3).
//!
//! Given per-operator relay ratios `r_i` (output/input data size), per-record
//! costs `c_i`, the per-epoch record count `Nr` and the compute budget `C`,
//! choose effective load factors `e_i = Π_{j≤i} p_j` minimising total drained
//! data:
//!
//! ```text
//! min  Σ_i (Π_{j<i} r_j) · (e_{i−1} − e_i)
//! s.t. Σ_i (Π_{j<i} r_j) · e_i · c_i ≤ C / Nr
//!      0 ≤ e_i ≤ e_{i−1},  e_0 = 1
//! ```
//!
//! Substituting `d_j = e_j − e_{j+1}` (with `e_{m+1} = 0`, so
//! `e_i = Σ_{j≥i} d_j`) turns the chain into `d ≥ 0` and `Σ_j d_j ≤ 1`:
//!
//! ```text
//! min  1 + Σ_j W_j · d_j       W_j = R_{j+1} − 1,  R_j = Π_{i<j} r_i,  R_{m+1} = 0
//! s.t. Σ_j d_j ≤ 1
//!      Σ_j A_j · d_j ≤ C / Nr   A_j = Σ_{i≤j} R_i · c_i
//!      d ≥ 0
//! ```
//!
//! A vertex of that polytope makes `m` of its `m + 2` constraints tight, so
//! at most two `d_j` are non-zero. The optimum is therefore `d = 0`, a single
//! `d_j = min(1, (C/Nr) / A_j)`, or a pair `A_j < C/Nr < A_k` with both
//! constraints tight — `m² + m + 1` candidates, enumerated exactly.
//!
//! The solution is mapped back to per-proxy load factors `p_i = e_i / e_{i−1}`.

use serde::{Deserialize, Serialize};

/// Inputs to the load-factor LP, all in per-epoch units.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadFactorProblem {
    /// Relay ratio of each operator (output bytes / input bytes), in `[0, ∞)`
    /// (values above 1 are clamped to 1 for the objective's telescoping form,
    /// matching the paper's `0 ≤ r_i ≤ 1` assumption).
    pub relay: Vec<f64>,
    /// Per-record compute cost of each operator, µs.
    pub cost_us: Vec<f64>,
    /// Records entering the query this epoch (`Nr`).
    pub records: f64,
    /// Compute budget for the epoch, µs (`C`).
    pub budget_us: f64,
}

/// The LP's output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadFactorSolution {
    /// Effective load factors `e_i`, one per operator.
    pub effective: Vec<f64>,
    /// Per-proxy load factors `p_i = e_i / e_{i−1}` (1.0 where the chain is
    /// already fully drained upstream).
    pub load_factors: Vec<f64>,
    /// Predicted drained fraction of the input data volume (the objective).
    pub drained_fraction: f64,
    /// Predicted compute use as a fraction of the budget.
    pub budget_use: f64,
}

/// Solves the LP by vertex enumeration (see the module docs). An infeasibly
/// small budget simply yields all-zero load factors (everything drains to
/// the stream processor — the paper's Startup state).
pub fn solve_load_factors(problem: &LoadFactorProblem) -> LoadFactorSolution {
    let m = problem.relay.len();
    assert_eq!(m, problem.cost_us.len(), "relay/cost length mismatch");

    // R[i] = Π_{j<i} r_j for i in 0..m (R[0] = 1).
    let mut relay_prefix = Vec::with_capacity(m);
    let mut acc = 1.0;
    for r in &problem.relay {
        relay_prefix.push(acc);
        acc *= r.clamp(0.0, 1.0);
    }

    // W[j] = R[j+1] − 1 − 1e-6·(j+1) with R[m] = 0. The 1e-6 per e_i is a
    // tie-break favouring higher load factors: when several vertices drain
    // the same byte volume (e.g. an operator with relay ratio 1 makes its own
    // e coefficient zero), prefer processing locally — the choice the
    // paper's deployments make for cheap upstream operators.
    let weight: Vec<f64> = (0..m)
        .map(|j| relay_prefix.get(j + 1).copied().unwrap_or(0.0) - 1.0 - 1e-6 * (j + 1) as f64)
        .collect();
    // A[j] = Σ_{i≤j} R[i]·max(c_i, 0), the budget one unit of d[j] spends.
    let mut spend = Vec::with_capacity(m);
    let mut acc = 0.0;
    for (r, c) in relay_prefix.iter().zip(&problem.cost_us) {
        acc += r * c.max(0.0);
        spend.push(acc);
    }
    let budget = if problem.records > 0.0 {
        (problem.budget_us / problem.records).max(0.0)
    } else {
        f64::INFINITY
    };

    // Candidates in order — d = 0, the singles, the pairs — and the first
    // with a strictly lower objective wins.
    let mut d = vec![0.0; m];
    let mut best = 0.0;
    let mut consider = |[(j, dj), (k, dk)]: [(usize, f64); 2]| {
        let objective = weight[j] * dj + weight[k] * dk;
        if objective < best {
            best = objective;
            d.fill(0.0);
            d[j] += dj;
            d[k] += dk;
        }
    };
    for (j, &a) in spend.iter().enumerate() {
        consider([(j, if a <= budget { 1.0 } else { budget / a }), (j, 0.0)]);
    }
    for (j, &aj) in spend.iter().enumerate() {
        for (k, &ak) in spend.iter().enumerate() {
            if aj < budget && budget < ak {
                let dk = (budget - aj) / (ak - aj);
                consider([(j, 1.0 - dk), (k, dk)]);
            }
        }
    }

    // e[i] = Σ_{j≥i} d[j].
    let mut effective = vec![0.0; m];
    let mut acc = 0.0;
    for (e, dj) in effective.iter_mut().zip(&d).rev() {
        acc += dj;
        *e = acc;
    }

    let mut load_factors = Vec::with_capacity(m);
    let mut prev = 1.0;
    for &e in &effective {
        let p = if prev <= 1e-12 {
            1.0
        } else {
            (e / prev).clamp(0.0, 1.0)
        };
        load_factors.push(p);
        prev = e;
    }

    // Drained fraction: Σ R[i-1]·(e_{i-1} − e_i) with e_0 = 1.
    let mut drained = 0.0;
    let mut prev = 1.0;
    for i in 0..m {
        drained += relay_prefix[i] * (prev - effective[i]);
        prev = effective[i];
    }

    let used_us: f64 = (0..m)
        .map(|i| relay_prefix[i] * effective[i] * problem.cost_us[i] * problem.records)
        .sum();
    let budget_use = if problem.budget_us > 0.0 {
        used_us / problem.budget_us
    } else {
        0.0
    };

    LoadFactorSolution {
        effective,
        load_factors,
        drained_fraction: drained,
        budget_use,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn ample_budget_processes_everything_locally() {
        let p = LoadFactorProblem {
            relay: vec![1.0, 0.86, 0.3],
            cost_us: vec![0.1, 3.4, 24.0],
            records: 40_000.0,
            budget_us: 2_000_000.0, // two cores: plenty
        };
        let sol = solve_load_factors(&p);
        assert!(
            sol.load_factors.iter().all(|&lf| close(lf, 1.0, 1e-6)),
            "{sol:?}"
        );
        assert!(close(sol.drained_fraction, 0.0, 1e-6));
    }

    #[test]
    fn zero_budget_drains_everything() {
        let p = LoadFactorProblem {
            relay: vec![1.0, 0.86],
            cost_us: vec![0.1, 3.4],
            records: 40_000.0,
            budget_us: 0.0,
        };
        let sol = solve_load_factors(&p);
        assert!(sol.effective.iter().all(|&e| close(e, 0.0, 1e-9)));
        assert!(close(sol.drained_fraction, 1.0, 1e-9));
    }

    #[test]
    fn free_relay_one_operator_runs_fully_at_source() {
        // W (relay 1, cost 0) drains the same bytes at any e_1, so only the
        // 1e-6 tie-break chooses between e_1 = e_3 and e_1 = 1; it must pick
        // e_1 = 1 while the budget still binds further down the chain.
        let p = LoadFactorProblem {
            relay: vec![1.0, 0.86, 0.3],
            cost_us: vec![0.0, 3.0, 20.0],
            records: 10_000.0,
            budget_us: 15_000.0,
        };
        let sol = solve_load_factors(&p);
        assert_eq!(sol.load_factors[0], 1.0, "{sol:?}");
        assert!(close(sol.budget_use, 1.0, 1e-9), "{sol:?}");
    }

    #[test]
    fn fig3_operating_point_is_recovered() {
        // Paper Fig. 3(b): 80% of one core, W≈free, F=13% at full rate,
        // G+R=80% for all of F's output. Two vertices are near-degenerate
        // here: the paper's plan (run W+F fully, G+R on ~83%) drains 14.2% of
        // the input volume; draining ~14.2% raw upfront is marginally
        // cheaper. Either way the optimal drained fraction is ≈ 0.142 and
        // the budget is saturated — which is what Fig. 3(b)'s 9.4 Mbps vs
        // 22.5 Mbps comparison rests on.
        let records = 40_000.0;
        let p = LoadFactorProblem {
            relay: vec![1.0, 0.86, 0.3],
            // Costs chosen so F totals 13% of a core and G+R totals 80% of a
            // core when processing all 0.86·Nr records.
            cost_us: vec![0.05, 130_000.0 / records, 800_000.0 / (0.86 * records)],
            records,
            budget_us: 800_000.0,
        };
        let sol = solve_load_factors(&p);
        assert!(close(sol.drained_fraction, 0.1416, 0.003), "{sol:?}");
        assert!(
            close(sol.budget_use, 1.0, 1e-6),
            "budget saturated: {sol:?}"
        );
        // G+R processes the lion's share of its input locally.
        assert!(sol.effective[2] > 0.8, "{sol:?}");
    }

    #[test]
    fn strong_filters_run_fully_before_any_drain() {
        // When the filter reduces volume sharply (relay 0.3), draining after
        // it is much cheaper than draining raw, so W and F must run on all
        // records.
        let p = LoadFactorProblem {
            relay: vec![1.0, 0.3, 0.5],
            cost_us: vec![0.05, 3.0, 30.0],
            records: 40_000.0,
            budget_us: 400_000.0,
        };
        let sol = solve_load_factors(&p);
        assert!(close(sol.load_factors[0], 1.0, 1e-6), "{sol:?}");
        assert!(close(sol.load_factors[1], 1.0, 1e-6), "{sol:?}");
        assert!(sol.load_factors[2] < 1.0);
    }

    #[test]
    fn effective_factors_form_a_chain() {
        let p = LoadFactorProblem {
            relay: vec![0.9, 0.5, 0.8, 0.2],
            cost_us: vec![1.0, 5.0, 2.0, 9.0],
            records: 10_000.0,
            budget_us: 50_000.0,
        };
        let sol = solve_load_factors(&p);
        let mut prev = 1.0;
        for &e in &sol.effective {
            assert!(e <= prev + 1e-9);
            prev = e;
        }
    }

    #[test]
    fn lp_beats_naive_uniform_split_on_drained_data() {
        // The LP should never drain more than the uniform-p heuristic that
        // spends the same budget.
        let p = LoadFactorProblem {
            relay: vec![1.0, 0.86, 0.3],
            cost_us: vec![0.05, 3.25, 23.3],
            records: 40_000.0,
            budget_us: 400_000.0,
        };
        let sol = solve_load_factors(&p);
        // Uniform heuristic: one scalar u = p₁ = p₂ = p₃, so e = (u, u², u³).
        // Its compute cost is Nr·(c₁·u + R₁·c₂·u² + R₂·c₃·u³) with R₁ = r₁,
        // R₂ = r₁·r₂; binary-search the largest feasible u.
        let cost = |u: f64| 40_000.0 * (0.05 * u + 3.25 * u * u + 0.86 * 23.3 * u * u * u);
        let (mut lo, mut hi) = (0.0, 1.0);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if cost(mid) > 400_000.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let u = lo;
        let drained_uniform = (1.0 - u) + (u - u * u) + 0.86 * (u * u - u * u * u);
        assert!(sol.drained_fraction <= drained_uniform + 1e-6);
    }
}
