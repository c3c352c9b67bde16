//! Partitioning strategies: Jarvis and the baselines of paper §VI-A.
//!
//! Every strategy is expressed in the same machinery — a load-factor vector
//! over the source-side control proxies plus an adaptation policy:
//!
//! | Strategy   | Load factors                           | Adaptation            |
//! |------------|----------------------------------------|-----------------------|
//! | All-SP     | `p₁ = 0`                               | none (Gigascope)      |
//! | All-Src    | all `pᵢ = 1`                           | none                  |
//! | Filter-Src | 1 through the first filter, then 0     | none (Everflow)       |
//! | Best-OP    | 0/1 by boundary operator               | boundary re-solve (Sonata) |
//! | LB-DP      | `p₁ = x`, rest 1                       | proportional split (M3) |
//! | Jarvis     | fractional per proxy                   | StepWise-Adapt        |
//!
//! Operator-level strategies queue overflow (their operators own *all* their
//! ingress); data-level strategies shed overflow losslessly down the drain
//! path.

use serde::{Deserialize, Serialize};
use streamkit::logical::LogicalOp;

use crate::calibration;
use crate::planner::PlannedQuery;
use crate::proxy::QueryState;
use crate::runtime::{AdaptPolicy, RuntimeConfig};
use crate::stepwise::{ProfileEstimates, StepWiseConfig};

/// How a source handles records its operators could not process in an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowMode {
    /// Keep them queued (operator-level semantics; queues may thrash).
    Queue,
    /// Drain them to the stream-processor replica (data-level semantics).
    Drain,
}

/// The evaluated partitioning strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Run the query entirely on the stream processor (Gigascope).
    AllSp,
    /// Run the query entirely on the data source.
    AllSrc,
    /// Static operator-level partitioning: filters at the source (Everflow).
    FilterSrc,
    /// Dynamic operator-level partitioning via a solver (Sonata).
    BestOp,
    /// Query-level data partitioning proportional to compute (M3).
    LbDp,
    /// Data-level partitioning with StepWise-Adapt (this paper).
    Jarvis,
    /// Ablation: model-based only (LP init, no fine-tuning) — §VI-C.
    JarvisLpOnly,
    /// Ablation: model-agnostic only (fine-tuning from zero) — §VI-C.
    JarvisNoLpInit,
}

impl StrategyKind {
    /// All six headline strategies of Fig. 7, in plot order.
    pub fn fig7_lineup() -> [StrategyKind; 6] {
        [
            StrategyKind::AllSrc,
            StrategyKind::AllSp,
            StrategyKind::FilterSrc,
            StrategyKind::BestOp,
            StrategyKind::LbDp,
            StrategyKind::Jarvis,
        ]
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::AllSp => "All-SP",
            StrategyKind::AllSrc => "All-Src",
            StrategyKind::FilterSrc => "Filter-Src",
            StrategyKind::BestOp => "Best-OP",
            StrategyKind::LbDp => "LB-DP",
            StrategyKind::Jarvis => "Jarvis",
            StrategyKind::JarvisLpOnly => "LP only",
            StrategyKind::JarvisNoLpInit => "w/o LP init",
        }
    }

    /// Overflow handling.
    pub fn overflow_mode(self) -> OverflowMode {
        match self {
            StrategyKind::AllSp
            | StrategyKind::AllSrc
            | StrategyKind::FilterSrc
            | StrategyKind::BestOp => OverflowMode::Queue,
            _ => OverflowMode::Drain,
        }
    }

    /// Whether the strategy adapts at runtime.
    pub fn is_adaptive(self) -> bool {
        !matches!(
            self,
            StrategyKind::AllSp | StrategyKind::AllSrc | StrategyKind::FilterSrc
        )
    }

    /// Initial load factors over the planned query's source prefix.
    pub fn initial_load_factors(self, planned: &PlannedQuery) -> Vec<f64> {
        let m = planned.source_ops;
        match self {
            StrategyKind::AllSp => vec![0.0; m],
            StrategyKind::AllSrc => vec![1.0; m],
            StrategyKind::FilterSrc => {
                // 1 through the first Filter (with any prerequisite stages
                // before it), 0 afterwards.
                let first_filter = planned.plan.ops[..m]
                    .iter()
                    .position(|op| matches!(op, LogicalOp::Filter { .. }));
                match first_filter {
                    Some(f) => (0..m).map(|i| if i <= f { 1.0 } else { 0.0 }).collect(),
                    None => vec![0.0; m],
                }
            }
            // Adaptive strategies start in Startup (everything drains) and
            // install a plan after the first Profile.
            _ => vec![0.0; m],
        }
    }

    /// Runtime configuration for this strategy.
    pub fn runtime_config(self) -> RuntimeConfig {
        let stepwise = match self {
            StrategyKind::JarvisLpOnly => StepWiseConfig::lp_only(),
            StrategyKind::JarvisNoLpInit => StepWiseConfig::without_lp_init(),
            _ => StepWiseConfig::default(),
        };
        RuntimeConfig {
            adaptive: self.is_adaptive(),
            stepwise,
            ..Default::default()
        }
    }

    /// Builds the adaptation policy for this strategy over `ops` proxies.
    pub fn build_policy(self, ops: usize) -> Box<dyn AdaptPolicy> {
        match self {
            StrategyKind::BestOp => Box::new(BestOpPolicy::default()),
            StrategyKind::LbDp => Box::new(LbDpPolicy {
                sp_cores_per_source: calibration::LBDP_SP_CORES_PER_SOURCE,
            }),
            _ => Box::new(crate::stepwise::StepWiseAdapt::new(
                self.runtime_config().stepwise,
                ops,
            )),
        }
    }
}

/// Sonata-style dynamic operator-level partitioning: deploy the longest
/// operator prefix whose *full* ingress fits the compute budget (paper §I:
/// "the query planner deploys ... an operator only if its available compute
/// resources are sufficient to process all of the operator's ingress data").
/// Because the operator must own *all* its ingress with no fallback path, the
/// planner keeps a utilisation headroom — exactly the conservatism that
/// data-level partitioning removes.
#[derive(Debug, Clone, Copy)]
pub struct BestOpPolicy {
    /// Target utilisation of the budget (≤ 1).
    pub headroom: f64,
}

impl Default for BestOpPolicy {
    fn default() -> Self {
        BestOpPolicy { headroom: 0.9 }
    }
}

impl AdaptPolicy for BestOpPolicy {
    fn init_plan(&mut self, est: &ProfileEstimates) -> Vec<f64> {
        // Enumerate feasible boundaries (prefix lengths whose full-ingress
        // compute fits the budget) and pick the one minimising outbound data
        // volume, tie-broken towards longer prefixes (the paper's Eq. 1
        // incentivises executing operators on the data source). A boundary
        // after a byte-*expanding* operator (e.g. a join before its
        // projection) is therefore never chosen.
        let budget = est.budget_us * self.headroom;
        let mut best_boundary = 0usize;
        let mut best_outbound = 1.0f64; // boundary 0: raw stream
        let mut ingress = est.records_per_epoch;
        let mut total = 0.0;
        let mut outbound = 1.0;
        for i in 0..est.len() {
            let cost = ingress * est.cost_us[i];
            if total + cost > budget {
                break;
            }
            total += cost;
            ingress *= est.relay_count[i].clamp(0.0, 1.0);
            outbound *= est.relay_bytes[i].max(0.0);
            if outbound <= best_outbound + 1e-12 {
                best_outbound = outbound.min(best_outbound);
                best_boundary = i + 1;
            }
        }
        let mut p = vec![0.0; est.len()];
        for v in p.iter_mut().take(best_boundary) {
            *v = 1.0;
        }
        p
    }

    fn fine_tune(&mut self, _p: &mut [f64], _state: QueryState) -> bool {
        // Operator-level: re-solving happens via a fresh Profile; there is no
        // incremental tuning between boundaries.
        false
    }

    fn name(&self) -> &'static str {
        "best-op"
    }
}

/// M3-style load balancing: split the *input stream* between source and SP
/// proportional to their compute capacities, processing the local share
/// through the whole pipeline.
#[derive(Debug, Clone, Copy)]
pub struct LbDpPolicy {
    /// SP compute assumed available per data source, cores.
    pub sp_cores_per_source: f64,
}

impl AdaptPolicy for LbDpPolicy {
    fn init_plan(&mut self, est: &ProfileEstimates) -> Vec<f64> {
        if est.is_empty() {
            return Vec::new();
        }
        // Full-pipeline cost per input record, µs.
        let mut per_record = 0.0;
        let mut frac = 1.0;
        for i in 0..est.len() {
            per_record += frac * est.cost_us[i];
            frac *= est.relay_count[i].clamp(0.0, 1.0);
        }
        let full_cost_us = per_record * est.records_per_epoch;
        let src_capacity = est.budget_us;
        let sp_capacity = self.sp_cores_per_source * 1e6 * calibration::EPOCH_SECS;
        let x_proportional = src_capacity / (src_capacity + sp_capacity).max(1e-9);
        let x_feasible = if full_cost_us > 0.0 {
            (src_capacity / full_cost_us).min(1.0)
        } else {
            1.0
        };
        let x = x_proportional.min(x_feasible);
        let mut p = vec![1.0; est.len()];
        p[0] = x;
        p
    }

    fn fine_tune(&mut self, _p: &mut [f64], _state: QueryState) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "lb-dp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_query, RuleConfig};

    fn estimates() -> ProfileEstimates {
        ProfileEstimates {
            cost_us: vec![0.25, 3.25, 23.26],
            relay_bytes: vec![1.0, 0.86, 0.3],
            relay_count: vec![1.0, 0.86, 0.5],
            records_per_epoch: 40_000.0,
            budget_us: 550_000.0, // 55% of a core
        }
    }

    #[test]
    fn best_op_places_only_the_filter_at_55_percent() {
        // Fig. 10a setting: "we set CPU to 55% to ensure that Best-OP
        // executes only the F operator".
        let mut policy = BestOpPolicy::default();
        let p = policy.init_plan(&estimates());
        assert_eq!(p, vec![1.0, 1.0, 0.0], "W and F fit; G+R does not");
    }

    #[test]
    fn best_op_places_everything_with_a_full_core() {
        let mut policy = BestOpPolicy::default();
        let mut est = estimates();
        // Profile epochs underestimate G+R (small sample ⇒ small hash
        // table); the boundary solve sees ~19.7 µs, not the steady 23.3.
        est.cost_us[2] = 19.7;
        est.budget_us = 1_000_000.0;
        let p = policy.init_plan(&est);
        assert_eq!(p, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn best_op_never_ends_at_a_byte_expanding_boundary() {
        // A join grows records (relay_bytes > 1); stopping right after it
        // would *increase* outbound traffic, so the boundary must stay at
        // the filter even though the join fits the budget.
        let mut policy = BestOpPolicy::default();
        let est = ProfileEstimates {
            cost_us: vec![0.25, 3.25, 5.0, 5.0],
            relay_bytes: vec![1.0, 0.86, 1.05, 1.05],
            relay_count: vec![1.0, 0.86, 1.0, 1.0],
            records_per_epoch: 40_000.0,
            budget_us: 600_000.0,
        };
        let p = policy.init_plan(&est);
        assert_eq!(p, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn lbdp_split_is_proportional_and_feasible() {
        let mut policy = LbDpPolicy {
            sp_cores_per_source: 4.0,
        };
        let est = estimates();
        let p = policy.init_plan(&est);
        // x = 0.55 / (0.55 + 4) ≈ 0.12, well under the feasible cap.
        assert!((p[0] - 0.55 / 4.55).abs() < 1e-9, "{p:?}");
        assert!(p[1..].iter().all(|&v| v == 1.0));
    }

    #[test]
    fn lbdp_caps_at_feasibility() {
        let mut policy = LbDpPolicy {
            sp_cores_per_source: 0.01,
        };
        let mut est = estimates();
        est.budget_us = 100_000.0; // 10%: full pipeline needs ~85%
        let p = policy.init_plan(&est);
        assert!(p[0] <= 100_000.0 / (0.25 + 3.25 + 23.26 * 0.86) / 40_000.0 + 1e-9);
    }

    #[test]
    fn initial_load_factors_per_strategy() {
        let planned = plan_query(telemetry::queries::s2s_probe(), &RuleConfig::default()).unwrap();
        assert_eq!(
            StrategyKind::AllSp.initial_load_factors(&planned),
            vec![0.0, 0.0, 0.0]
        );
        assert_eq!(
            StrategyKind::AllSrc.initial_load_factors(&planned),
            vec![1.0, 1.0, 1.0]
        );
        assert_eq!(
            StrategyKind::FilterSrc.initial_load_factors(&planned),
            vec![1.0, 1.0, 0.0],
            "W and F local, G+R remote"
        );
        assert_eq!(
            StrategyKind::Jarvis.initial_load_factors(&planned),
            vec![0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn filter_src_handles_log_analytics_prefix() {
        let planned =
            plan_query(telemetry::queries::log_analytics(), &RuleConfig::default()).unwrap();
        let p = StrategyKind::FilterSrc.initial_load_factors(&planned);
        // Chain is W -> M -> F -> M -> M -> G+R: ones through index 2.
        assert_eq!(p, vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn overflow_modes_split_by_partitioning_level() {
        assert_eq!(StrategyKind::BestOp.overflow_mode(), OverflowMode::Queue);
        assert_eq!(StrategyKind::Jarvis.overflow_mode(), OverflowMode::Drain);
        assert_eq!(StrategyKind::LbDp.overflow_mode(), OverflowMode::Drain);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(StrategyKind::BestOp.label(), "Best-OP");
        assert_eq!(StrategyKind::JarvisNoLpInit.label(), "w/o LP init");
    }
}
