//! Experiment harnesses regenerating the paper's evaluation (§VI).
//!
//! [`ScenarioSpec`] names a workload (query + generator + calibrated
//! costs) and implements [`SourceAdapter`](crate::deploy::SourceAdapter),
//! so it plugs straight into [`Deployment::builder`]. The sweep functions
//! below are the engines behind the `repro` binary's figure subcommands.
//! (The `Scenario`/`Runner` front doors this module once carried were
//! removed after their one-release deprecation window; every entry point is
//! the unified builder now.)

use std::sync::Arc;

use streamkit::logical::LogicalPlan;
use streamkit::ops::{JoinOp, Operator, StaticTable};
use streamkit::physical::CostProfile;

use crate::calibration::{self, Scale, MBPS};
use crate::deploy::{BackendKind, Deployment, RunReport};
use crate::engine::block::{EpochSource, NetworkModel};
use crate::planner::{plan_query, PlannedQuery, RuleConfig};
use crate::strategy::StrategyKind;
use telemetry::loganalytics::{LogConfig, LogGenerator};
use telemetry::pingmesh::{rate_skew_factor, PingmeshConfig, PingmeshGenerator};

/// The three evaluated workloads.
#[derive(Debug, Clone)]
pub enum Workload {
    /// S2SProbe on Pingmesh (Listing 1).
    PingmeshS2S {
        /// Input-rate scale.
        scale: Scale,
    },
    /// T2TProbe on Pingmesh (Listing 2).
    PingmeshT2T {
        /// Input-rate scale.
        scale: Scale,
        /// Static-table size.
        table_size: u32,
    },
    /// LogAnalytics on text logs (Listing 3).
    LogAnalytics {
        /// Input-rate scale.
        scale: Scale,
    },
}

/// A workload specification: query plan + calibrated costs + generators.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The workload.
    pub workload: Workload,
    /// Apply per-source rate skew (Fig. 10 multi-source realism; off for the
    /// single-source throughput sweeps, matching §VI-B's fixed rates).
    pub rate_skew: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// S2SProbe at the given scale.
    pub fn pingmesh_s2s(scale: Scale) -> ScenarioSpec {
        ScenarioSpec {
            workload: Workload::PingmeshS2S { scale },
            rate_skew: false,
            seed: 17,
        }
    }

    /// T2TProbe at the given scale and table size.
    pub fn pingmesh_t2t(scale: Scale, table_size: u32) -> ScenarioSpec {
        ScenarioSpec {
            workload: Workload::PingmeshT2T { scale, table_size },
            rate_skew: false,
            seed: 17,
        }
    }

    /// LogAnalytics at the given scale.
    pub fn log_analytics(scale: Scale) -> ScenarioSpec {
        ScenarioSpec {
            workload: Workload::LogAnalytics { scale },
            rate_skew: false,
            seed: 17,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &'static str {
        match self.workload {
            Workload::PingmeshS2S { .. } => "S2SProbe",
            Workload::PingmeshT2T { .. } => "T2TProbe",
            Workload::LogAnalytics { .. } => "LogAnalytics",
        }
    }

    /// The logical plan.
    pub fn logical_plan(&self) -> LogicalPlan {
        match &self.workload {
            Workload::PingmeshS2S { .. } => telemetry::queries::s2s_probe(),
            Workload::PingmeshT2T { table_size, .. } => {
                let tables = T2tTables::new(*table_size);
                telemetry::queries::t2t_probe(tables.src, tables.dst)
            }
            Workload::LogAnalytics { .. } => telemetry::queries::log_analytics(),
        }
    }

    /// The planned (optimised, rule-checked) query.
    pub fn plan(&self) -> PlannedQuery {
        plan_query(self.logical_plan(), &RuleConfig::default()).expect("paper queries are valid")
    }

    /// Calibrated per-operator costs.
    pub fn costs(&self) -> CostProfile {
        match self.workload {
            Workload::PingmeshS2S { .. } => calibration::s2s_cost_profile(),
            Workload::PingmeshT2T { .. } => calibration::t2t_cost_profile(),
            Workload::LogAnalytics { .. } => calibration::log_cost_profile(),
        }
    }

    /// A generator for source `i` of `n`.
    pub fn generator(&self, i: u32, n: u32) -> Box<dyn EpochSource> {
        let rate_factor = if self.rate_skew {
            rate_skew_factor(i, n)
        } else {
            1.0
        };
        match &self.workload {
            Workload::PingmeshS2S { scale } => Box::new(PingmeshGenerator::new(PingmeshConfig {
                src_ip: i + 1,
                scale: scale.factor(),
                rate_factor,
                seed: self.seed,
                ..Default::default()
            })),
            Workload::PingmeshT2T { scale, table_size } => {
                Box::new(PingmeshGenerator::new(PingmeshConfig {
                    src_ip: i + 1,
                    scale: scale.factor(),
                    rate_factor,
                    peer_ip_space: *table_size,
                    seed: self.seed,
                    ..Default::default()
                }))
            }
            Workload::LogAnalytics { scale } => Box::new(LogGenerator::new(LogConfig {
                scale: scale.factor(),
                seed: self.seed ^ u64::from(i),
                ..Default::default()
            })),
        }
    }

    /// Nominal per-source input rate in paper-Mbps.
    pub fn input_mbps(&self) -> f64 {
        match &self.workload {
            Workload::PingmeshS2S { scale } | Workload::PingmeshT2T { scale, .. } => {
                PingmeshConfig {
                    scale: scale.factor(),
                    ..Default::default()
                }
                .bits_per_sec()
                    / MBPS
            }
            Workload::LogAnalytics { scale } => {
                LogConfig {
                    scale: scale.factor(),
                    ..Default::default()
                }
                .bits_per_sec()
                    / MBPS
            }
        }
    }
}

/// Default warm-up epochs before measurement (§VI-A runs three minutes of
/// warm-up on the testbed; adaptation here settles within ~15 epochs).
pub const DEFAULT_WARMUP_EPOCHS: u64 = 20;

/// One row of a Fig. 7 panel: throughput per strategy at one CPU budget.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// CPU budget (fraction of one core).
    pub cpu_budget: f64,
    /// `(strategy, throughput Mbps)` pairs.
    pub results: Vec<(StrategyKind, f64)>,
}

/// Fig. 7: throughput over varying CPU budgets for a set of strategies.
pub fn throughput_sweep(
    spec: &ScenarioSpec,
    strategies: &[StrategyKind],
    budgets: &[f64],
    epochs: u64,
) -> Vec<ThroughputRow> {
    budgets
        .iter()
        .map(|&cpu| {
            let results = strategies
                .iter()
                .map(|&s| {
                    let report = Deployment::builder()
                        .workload(spec.clone())
                        .strategy(s)
                        .cpu_budget(cpu)
                        .seed(spec.seed)
                        .backend(BackendKind::Emulated)
                        .build()
                        .expect("paper scenarios build valid deployments")
                        .run(epochs)
                        .expect("emulated runs are infallible");
                    (s, report.throughput_mbps)
                })
                .collect();
            ThroughputRow {
                cpu_budget: cpu,
                results,
            }
        })
        .collect()
}

/// A scheduled resource change: at `epoch`, set the CPU budget (and/or the
/// join-table size).
#[derive(Debug, Clone, Copy)]
pub struct ResourceEvent {
    /// Epoch at which the change applies.
    pub epoch: u64,
    /// New CPU budget, if changing.
    pub cpu_budget: Option<f64>,
    /// New join-table size, if changing (T2TProbe only).
    pub table_size: Option<u32>,
}

/// T2TProbe's IP → ToR mapping tables over `table_size` IPs (40 servers per
/// ToR, source IP 1 probing): what the workload plans with, and what a
/// [`ResourceEvent::table_size`] swaps in mid-run on either backend.
pub(crate) struct T2tTables {
    src: Arc<StaticTable>,
    dst: Arc<StaticTable>,
}

impl T2tTables {
    /// Builds the source-ToR and destination-ToR tables.
    pub(crate) fn new(table_size: u32) -> T2tTables {
        let (src, dst) = telemetry::queries::t2t_tables(table_size, 40, &[1]);
        T2tTables { src, dst }
    }

    /// Installs the tables into the joins of `ops`: the first join gets the
    /// source-ToR table, every later one the destination-ToR table.
    pub(crate) fn install<'a>(&self, ops: impl IntoIterator<Item = &'a mut Box<dyn Operator>>) {
        let joins = ops
            .into_iter()
            .filter_map(|op| op.as_any_mut().and_then(|a| a.downcast_mut::<JoinOp>()));
        for (i, join) in joins.enumerate() {
            join.set_table(Arc::clone(if i == 0 { &self.src } else { &self.dst }));
        }
    }
}

/// Fig. 8: runs a strategy under a schedule of resource changes, returning
/// the per-epoch trace and convergence episodes.
pub fn convergence_run(
    spec: &ScenarioSpec,
    strategy: StrategyKind,
    initial_cpu: f64,
    events: &[ResourceEvent],
    total_epochs: u64,
) -> RunReport {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(strategy)
        .cpu_budget(initial_cpu)
        .seed(spec.seed)
        .events(events)
        .backend(BackendKind::Emulated)
        .build()
        .expect("paper scenarios build valid deployments")
        .run(total_epochs)
        .expect("emulated runs are infallible")
}

/// One point of a Fig. 10 panel.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Number of data sources.
    pub sources: u32,
    /// Aggregate throughput, Mbps.
    pub throughput_mbps: f64,
    /// Ideal (input) aggregate rate, Mbps.
    pub expected_mbps: f64,
    /// Median / max latency of source 0.
    pub latency_median_s: Option<f64>,
    /// Max latency.
    pub latency_max_s: Option<f64>,
}

/// Fig. 10: aggregate throughput as sources scale, under the shared SP link.
pub fn scale_sweep(
    spec: &ScenarioSpec,
    strategy: StrategyKind,
    cpu_budget: f64,
    source_counts: &[u32],
    epochs: u64,
) -> Vec<ScalePoint> {
    source_counts
        .iter()
        .map(|&n| {
            let report = Deployment::builder()
                .workload(spec.clone())
                .strategy(strategy)
                .cpu_budget(cpu_budget)
                .sources(n)
                .seed(spec.seed)
                .network(NetworkModel::Shared {
                    total_bps: calibration::per_query_shared_bps(),
                })
                .backend(BackendKind::Emulated)
                .build()
                .expect("paper scenarios build valid deployments")
                .run(epochs)
                .expect("emulated runs are infallible");
            ScalePoint {
                sources: n,
                throughput_mbps: report.throughput_mbps,
                expected_mbps: spec.input_mbps() * f64::from(n),
                latency_median_s: report.latency_median_s,
                latency_max_s: report.latency_max_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(spec: ScenarioSpec, strategy: StrategyKind, cpu: f64, epochs: u64) -> RunReport {
        Deployment::builder()
            .workload(spec)
            .strategy(strategy)
            .cpu_budget(cpu)
            .build()
            .unwrap()
            .run(epochs)
            .unwrap()
    }

    #[test]
    fn single_source_jarvis_reaches_full_throughput_at_high_budget() {
        let report = run(
            ScenarioSpec::pingmesh_s2s(Scale::X10),
            StrategyKind::Jarvis,
            1.0,
            60,
        );
        // 26.2 Mbps input; with a full core the query fits locally.
        assert!(
            report.throughput_mbps > 0.9 * report.input_mbps,
            "throughput {} vs input {}",
            report.throughput_mbps,
            report.input_mbps
        );
    }

    #[test]
    fn all_sp_is_network_bound() {
        let report = run(
            ScenarioSpec::pingmesh_s2s(Scale::X10),
            StrategyKind::AllSp,
            1.0,
            60,
        );
        // 26.2 Mbps input over a 20.48 Mbps uplink: throughput ≈ the link.
        assert!(
            report.throughput_mbps < 22.0,
            "All-SP must cap near 20.48, got {}",
            report.throughput_mbps
        );
        assert!(
            report.throughput_mbps > 15.0,
            "got {}",
            report.throughput_mbps
        );
    }

    #[test]
    fn jarvis_beats_all_src_under_constrained_budget() {
        let spec = ScenarioSpec::pingmesh_s2s(Scale::X10);
        let jarvis = run(spec.clone(), StrategyKind::Jarvis, 0.6, 80).throughput_mbps;
        let allsrc = run(spec, StrategyKind::AllSrc, 0.6, 80).throughput_mbps;
        assert!(
            jarvis > 1.5 * allsrc,
            "Jarvis {jarvis:.1} must clearly beat All-Src {allsrc:.1} at 60% CPU"
        );
    }
}
