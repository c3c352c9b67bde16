//! StepWise-Adapt (paper §IV-D).
//!
//! The hybrid adaptation algorithm at the heart of Jarvis:
//!
//! 1. **Model-based step** — solve the load-factor LP (Eq. 3) with the
//!    profiled per-operator costs and relay ratios to get near-optimal
//!    initial load factors.
//! 2. **Model-agnostic step** — observe the query state each epoch and
//!    fine-tune one load factor at a time: when *idle*, raise the
//!    highest-priority operator (lowest relay ratio — most data reduction
//!    per record, the FFD-inspired rule); when *congested*, lower the
//!    lowest-priority operator. Each adjustment runs a binary search over
//!    load factors discretised to [`crate::calibration::LOAD_FACTOR_GRANULARITY`].

use jarvis_lp::loadfactor::{solve_load_factors, LoadFactorProblem};
use serde::{Deserialize, Serialize};

use crate::proxy::QueryState;

/// Operator priority rule for fine-tuning (§IV-D leaves cost-aware priority
/// as future work; both are implemented for the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PriorityRule {
    /// Lower relay ratio ⇒ higher priority (the paper's rule).
    RelayRatio,
    /// Higher data reduction per unit compute ⇒ higher priority.
    CostAware,
}

/// How fine-tuning moves through the discretised load-factor space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchRule {
    /// Binary search over the remaining interval (the paper's choice,
    /// §IV-D: "a binary search over discretized load factor values to
    /// further improve convergence time").
    Binary,
    /// Fixed-size steps (the ablation baseline: O(1/step) epochs).
    Linear {
        /// Step size per epoch.
        step: f64,
    },
}

/// StepWise-Adapt configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StepWiseConfig {
    /// Use the LP to initialise load factors after profiling ("LP init").
    pub use_lp_init: bool,
    /// Iteratively fine-tune after initialisation.
    pub use_fine_tuning: bool,
    /// Discretisation step for the search.
    pub granularity: f64,
    /// Priority rule.
    pub priority: PriorityRule,
    /// Search rule (binary vs linear ablation).
    pub search: SearchRule,
}

impl Default for StepWiseConfig {
    fn default() -> Self {
        StepWiseConfig {
            use_lp_init: true,
            use_fine_tuning: true,
            granularity: crate::calibration::LOAD_FACTOR_GRANULARITY,
            priority: PriorityRule::RelayRatio,
            search: SearchRule::Binary,
        }
    }
}

impl StepWiseConfig {
    /// The paper's "LP only" ablation (§VI-C).
    pub fn lp_only() -> StepWiseConfig {
        StepWiseConfig {
            use_fine_tuning: false,
            ..Default::default()
        }
    }

    /// The paper's "w/o LP-init" ablation (§VI-C): pure model-agnostic
    /// fine-tuning from zero load factors.
    pub fn without_lp_init() -> StepWiseConfig {
        StepWiseConfig {
            use_lp_init: false,
            ..Default::default()
        }
    }
}

/// Estimates produced by a Profile epoch (paper §IV-C: operator compute cost,
/// stream-size reduction, and available compute budget).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileEstimates {
    /// Measured per-record cost per operator, µs.
    pub cost_us: Vec<f64>,
    /// Measured byte relay ratio per operator (output bytes / input bytes).
    pub relay_bytes: Vec<f64>,
    /// Measured record relay ratio per operator (output records / input).
    pub relay_count: Vec<f64>,
    /// Records entering the query per epoch.
    pub records_per_epoch: f64,
    /// Compute budget observed for the epoch, µs.
    pub budget_us: f64,
}

impl ProfileEstimates {
    /// Number of operators profiled.
    pub fn len(&self) -> usize {
        self.cost_us.len()
    }

    /// True when no operators were profiled.
    pub fn is_empty(&self) -> bool {
        self.cost_us.is_empty()
    }
}

/// An in-progress binary search on one operator's load factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Search {
    op: usize,
    lo: f64,
    hi: f64,
    /// True when raising (query was idle), false when lowering (congested).
    raising: bool,
}

/// The StepWise-Adapt engine.
#[derive(Debug, Clone)]
pub struct StepWiseAdapt {
    cfg: StepWiseConfig,
    /// Priority-ordered operator indices (highest priority first).
    priorities: Vec<usize>,
    search: Option<Search>,
    /// Count of fine-tuning steps taken since the last init (diagnostics).
    steps: u64,
}

impl StepWiseAdapt {
    /// Creates the adapter for a query of `ops` operators.
    pub fn new(cfg: StepWiseConfig, ops: usize) -> StepWiseAdapt {
        StepWiseAdapt {
            cfg,
            // Until profiled, assume downstream operators reduce most
            // (aggregations sit at the end of monitoring chains).
            priorities: (0..ops).rev().collect(),
            search: None,
            steps: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StepWiseConfig {
        &self.cfg
    }

    /// Current priority order (highest first).
    pub fn priorities(&self) -> &[usize] {
        &self.priorities
    }

    /// Recomputes operator priorities from estimates.
    pub fn set_priorities(&mut self, est: &ProfileEstimates) {
        let mut idx: Vec<usize> = (0..est.len()).collect();
        match self.cfg.priority {
            PriorityRule::RelayRatio => {
                idx.sort_by(|&a, &b| {
                    est.relay_bytes[a]
                        .partial_cmp(&est.relay_bytes[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
            PriorityRule::CostAware => {
                let score = |i: usize| {
                    let reduction = 1.0 - est.relay_bytes[i].min(1.0);
                    reduction / est.cost_us[i].max(1e-6)
                };
                idx.sort_by(|&a, &b| {
                    score(b)
                        .partial_cmp(&score(a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
        }
        self.priorities = idx;
    }

    /// Computes the initial load factors for a fresh Adapt phase: the LP
    /// solution when `use_lp_init`, all-zero otherwise (the w/o-LP-init
    /// ablation starts from "everything drains").
    pub fn init_plan(&mut self, est: &ProfileEstimates) -> Vec<f64> {
        self.set_priorities(est);
        self.search = None;
        self.steps = 0;
        if !self.cfg.use_lp_init {
            return vec![0.0; est.len()];
        }
        let problem = LoadFactorProblem {
            relay: est.relay_bytes.clone(),
            cost_us: est.cost_us.clone(),
            records: est.records_per_epoch,
            budget_us: est.budget_us,
        };
        solve_load_factors(&problem)
            .load_factors
            .iter()
            .map(|p| quantize(*p, self.cfg.granularity))
            .collect()
    }

    /// One fine-tuning step. Mutates `p` in place and returns `true` when a
    /// load factor changed (the caller should keep adapting) or `false` when
    /// there is nothing further to adjust for the observed state.
    pub fn fine_tune(&mut self, p: &mut [f64], state: QueryState) -> bool {
        if !self.cfg.use_fine_tuning {
            return false;
        }
        match state {
            QueryState::Stable => {
                // Converged: settle any open search at its current value.
                self.search = None;
                false
            }
            QueryState::Idle => self.step(p, true),
            QueryState::Congested => self.step(p, false),
        }
    }

    fn step(&mut self, p: &mut [f64], raising: bool) -> bool {
        let g = self.cfg.granularity;
        // Continue or redirect the open search: an idle signal makes the
        // current value a feasible lower bound, a congested signal an upper
        // bound — regardless of which direction the search started in.
        if let Some(mut s) = self.search.take() {
            if raising {
                s.lo = p[s.op];
            } else {
                s.hi = p[s.op];
            }
            s.raising = raising;
            if s.hi - s.lo > g {
                let mid = match self.cfg.search {
                    SearchRule::Binary => quantize(0.5 * (s.lo + s.hi), g),
                    SearchRule::Linear { step } => {
                        if raising {
                            quantize((p[s.op] + step).min(s.hi), g)
                        } else {
                            quantize((p[s.op] - step).max(s.lo), g)
                        }
                    }
                };
                if (mid - p[s.op]).abs() > 1e-12 {
                    p[s.op] = mid;
                    self.steps += 1;
                    self.search = Some(s);
                    return true;
                }
            }
            // Interval exhausted: settle at a safe bound and fall through to
            // pick the next operator.
            let settled = if raising { s.lo } else { s.hi };
            if (p[s.op] - settled).abs() > 1e-12 {
                p[s.op] = settled;
                self.steps += 1;
                return true;
            }
        }

        // Pick the next operator to adjust: when idle, highest priority
        // (lowest relay) with headroom; when congested, lowest priority with
        // load to shed. Only *effective* operators qualify — ones whose
        // upstream proxies forward at least some records, since adjusting a
        // starved operator changes nothing observable.
        let effective = |op: usize, p: &[f64]| op == 0 || p[..op].iter().all(|&x| x > 1e-12);
        let candidates: Vec<usize> = if raising {
            self.priorities.clone()
        } else {
            self.priorities.iter().rev().copied().collect()
        };
        for op in candidates {
            if op >= p.len() || !effective(op, p) {
                continue;
            }
            if raising && p[op] < 1.0 - 1e-12 {
                return self.start_search(p, op, true);
            }
            if !raising && p[op] > 1e-12 {
                return self.start_search(p, op, false);
            }
        }
        // All priority candidates are starved behind a closed proxy: when
        // raising, open the first closed gate in pipeline order so data can
        // reach the high-priority reducers at all.
        if raising {
            if let Some(op) = (0..p.len()).find(|&i| p[i] <= 1e-12) {
                return self.start_search(p, op, true);
            }
        }
        false
    }

    fn start_search(&mut self, p: &mut [f64], op: usize, raising: bool) -> bool {
        let g = self.cfg.granularity;
        let s = if raising {
            Search {
                op,
                lo: p[op],
                hi: 1.0,
                raising: true,
            }
        } else {
            Search {
                op,
                lo: 0.0,
                hi: p[op],
                raising: false,
            }
        };
        let target = match self.cfg.search {
            SearchRule::Binary => quantize(0.5 * (s.lo + s.hi), g),
            SearchRule::Linear { step } => {
                if raising {
                    quantize(p[op] + step, g)
                } else {
                    quantize(p[op] - step, g)
                }
            }
        };
        let mid = if raising {
            target.max(s.lo + g).min(1.0)
        } else {
            target.min(s.hi - g).max(0.0)
        };
        p[op] = mid;
        self.steps += 1;
        self.search = Some(s);
        true
    }
}

/// Rounds to the nearest multiple of `granularity`, clamped to `[0, 1]`.
fn quantize(p: f64, granularity: f64) -> f64 {
    ((p / granularity).round() * granularity).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimates() -> ProfileEstimates {
        ProfileEstimates {
            cost_us: vec![0.25, 3.25, 23.0],
            relay_bytes: vec![1.0, 0.86, 0.3],
            relay_count: vec![1.0, 0.86, 0.5],
            records_per_epoch: 40_000.0,
            budget_us: 800_000.0,
        }
    }

    #[test]
    fn lp_init_produces_feasible_quantised_plan() {
        let mut a = StepWiseAdapt::new(StepWiseConfig::default(), 3);
        let p = a.init_plan(&estimates());
        assert_eq!(p.len(), 3);
        for v in &p {
            assert!((0.0..=1.0).contains(v));
            let steps = v / crate::calibration::LOAD_FACTOR_GRANULARITY;
            assert!((steps - steps.round()).abs() < 1e-6, "quantised: {v}");
        }
    }

    #[test]
    fn without_lp_init_starts_from_zero() {
        let mut a = StepWiseAdapt::new(StepWiseConfig::without_lp_init(), 3);
        let p = a.init_plan(&estimates());
        assert_eq!(p, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn priorities_follow_relay_ratio() {
        let mut a = StepWiseAdapt::new(StepWiseConfig::default(), 3);
        a.set_priorities(&estimates());
        // G+R (relay 0.3) first, then F (0.86), then W (1.0).
        assert_eq!(a.priorities(), &[2, 1, 0]);
    }

    #[test]
    fn cost_aware_priority_prefers_cheap_reducers() {
        let mut est = estimates();
        // Make F reduce a lot for almost nothing: it should outrank G+R.
        est.relay_bytes = vec![1.0, 0.3, 0.25];
        est.cost_us = vec![0.25, 0.5, 40.0];
        let mut a = StepWiseAdapt::new(
            StepWiseConfig {
                priority: PriorityRule::CostAware,
                ..Default::default()
            },
            3,
        );
        a.set_priorities(&est);
        assert_eq!(a.priorities()[0], 1);
    }

    #[test]
    fn idle_from_cold_start_opens_the_pipeline_gate() {
        // From all-zero factors the high-priority G+R receives no records,
        // so the adapter must open the first closed proxy instead.
        let mut a = StepWiseAdapt::new(StepWiseConfig::without_lp_init(), 3);
        let mut p = a.init_plan(&estimates());
        assert!(a.fine_tune(&mut p, QueryState::Idle));
        assert!(p[0] > 0.0, "{p:?}");
        assert_eq!(p[1], 0.0);
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn idle_raises_highest_priority_first_when_flowing() {
        // With the pipeline open, priority order applies: G+R (lowest relay)
        // moves first.
        let mut a = StepWiseAdapt::new(StepWiseConfig::default(), 3);
        a.set_priorities(&estimates());
        let mut p = vec![1.0, 1.0, 0.25];
        assert!(a.fine_tune(&mut p, QueryState::Idle));
        assert!(p[2] > 0.25, "{p:?}");
        assert_eq!(p[0], 1.0);
        assert_eq!(p[1], 1.0);
    }

    #[test]
    fn congested_lowers_lowest_priority_first() {
        let mut a = StepWiseAdapt::new(StepWiseConfig::default(), 3);
        a.set_priorities(&estimates());
        let mut p = vec![1.0, 1.0, 1.0];
        assert!(a.fine_tune(&mut p, QueryState::Congested));
        // Lowest priority is op 0 (W, relay 1.0): shed there first.
        assert!(p[0] < 1.0, "{p:?}");
        assert_eq!(p[1], 1.0);
        assert_eq!(p[2], 1.0);
    }

    #[test]
    fn stable_settles_and_reports_no_change() {
        let mut a = StepWiseAdapt::new(StepWiseConfig::default(), 3);
        a.set_priorities(&estimates());
        let mut p = vec![1.0, 1.0, 0.5];
        assert!(!a.fine_tune(&mut p, QueryState::Stable));
        assert_eq!(p, vec![1.0, 1.0, 0.5]);
    }

    #[test]
    fn binary_search_converges_in_log_steps() {
        // Simulate an environment where the query is stable iff p[2] ≤ 0.75
        // and idle below that. Count epochs to stabilise.
        let mut a = StepWiseAdapt::new(StepWiseConfig::without_lp_init(), 3);
        let mut p = a.init_plan(&estimates());
        let mut epochs = 0;
        loop {
            let state = if p[2] > 0.75 + 1e-9 {
                QueryState::Congested
            } else if p.iter().all(|&x| x >= 1.0 - 1e-9) || (p[2] - 0.75).abs() < 0.02 {
                QueryState::Stable
            } else {
                QueryState::Idle
            };
            if state == QueryState::Stable {
                break;
            }
            let changed = a.fine_tune(&mut p, state);
            assert!(changed, "adapter gave up at {p:?} in state {state:?}");
            epochs += 1;
            assert!(epochs < 40, "did not converge: p = {p:?}");
        }
        assert!(epochs <= 15, "converged in {epochs} epochs");
        assert!((p[2] - 0.75).abs() <= 0.05, "{p:?}");
    }

    #[test]
    fn idle_with_everything_at_one_is_a_noop() {
        let mut a = StepWiseAdapt::new(StepWiseConfig::default(), 2);
        let mut p = vec![1.0, 1.0];
        assert!(!a.fine_tune(&mut p, QueryState::Idle));
    }

    #[test]
    fn congested_with_everything_at_zero_is_a_noop() {
        let mut a = StepWiseAdapt::new(StepWiseConfig::default(), 2);
        let mut p = vec![0.0, 0.0];
        assert!(!a.fine_tune(&mut p, QueryState::Congested));
    }

    #[test]
    fn lp_only_never_fine_tunes() {
        let mut a = StepWiseAdapt::new(StepWiseConfig::lp_only(), 3);
        let mut p = a.init_plan(&estimates());
        let before = p.clone();
        assert!(!a.fine_tune(&mut p, QueryState::Congested));
        assert_eq!(p, before);
    }
}
